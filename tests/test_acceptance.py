"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to see the lines as they print.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gradcheck import float64, max_rel_error, small_problem
from oracles import kbisim_partition, partition_of_hashes, position_of
from sumlife.cli import main as cli_main
from sumlife.ingest import build_snapshot, load_snapshot
from sumlife.features import TRAIN, TEST
from sumlife.lifelong import (
    acc,
    bwt,
    evaluate_network,
    forgetting,
    fwt,
    omega,
    prepare_tasks,
    run_sequence,
    time_warp,
)
from sumlife.measures import jaccard_dist, js_divergence
from sumlife.nets import Hyper, Network
from sumlife.nets.gcn import batch_adjacency, gcn_backward, gcn_forward
from sumlife.nets.graphmlp import graphmlp_backward, graphmlp_forward
from sumlife.nets.losses import cross_entropy, ncontrast_loss
from sumlife.nets.mlp import mlp_backward, mlp_forward
from sumlife.reporting import read_matrix_csv
from sumlife.summarize import summarize, vertex_hashes
from synth import (
    distinct_recipes,
    drift_sequence,
    predicate_pool,
    random_graph,
    ring_triples,
    write_ntriples,
)
from test_measures import fake_summary, sized


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {title}", flush=True)
        raise
    print(f"[criterion {num:2d}] PASS  {title}", flush=True)


def test_criterion_01_summarizer_oracle_equivalence():
    with criterion(1, "summarizer equals k-bisimulation oracle on 200 random graphs"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            g, present, edges = random_graph(rng, 200, 1000, 8)
            remap = {v: i for i, v in enumerate(present)}
            oedges = [(remap[s], p, remap[o]) for s, p, o in edges]
            pos = {remap[v]: position_of(g, f"http://x/v{v}") for v in present}
            for k, model in ((1, "ac1"), (2, "ac2")):
                oracle = {
                    frozenset(pos[v] for v in grp)
                    for grp in kbisim_partition(len(present), oedges, k)
                }
                assert partition_of_hashes(vertex_hashes(g, model)) == oracle
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_xor_set_semantics():
    with criterion(2, "parallel identical pairs contribute once (no XOR cancellation)"):
        doubled = build_snapshot(
            "t",
            [
                ("http://v", "http://p", "http://y1"),
                ("http://v", "http://p", "http://y2"),
            ],
        )
        simple = build_snapshot("t", [("http://v", "http://p", "http://y")])
        for model in ("ac1", "ac2"):
            hd = int(vertex_hashes(doubled, model)[position_of(doubled, "http://v")])
            hs = int(vertex_hashes(simple, model)[position_of(simple, "http://v")])
            assert hd == hs != 0
        sd, _ = summarize(doubled, "ac1")
        ss, _ = summarize(simple, "ac1")
        assert sd.eqcs.tolist() == ss.eqcs.tolist()


def test_criterion_03_lifelong_measure_fixtures():
    with criterion(3, "lifelong measures match hand-derived fixture values"):
        r = np.array([[0.9, 0.4, 0.3], [0.8, 0.85, 0.5], [0.7, 0.6, 0.8]])
        assert abs(acc(r) - 0.7) < 1e-9
        assert abs(bwt(r) - (-0.225)) < 1e-9
        assert abs(fwt(r) - (-0.375)) < 1e-9
        ob, on, oa = omega(r)
        assert abs(ob - 0.75 / 0.9) < 1e-9
        assert abs(ob - 0.8333333333) < 1e-9
        assert abs(on - 0.825) < 1e-9
        assert abs(oa - 0.7870370370) < 1e-9
        assert abs(forgetting(r, 3) - 0.225) < 1e-9
        for c_val, t in ((0.25, 4), (0.5, 6)):
            c = np.full((t, t), c_val)
            assert acc(c) == c_val
            assert bwt(c) == 0.0
            assert fwt(c) == 0.0
            assert omega(c) == (1.0, c_val, 1.0)
            assert all(forgetting(c, k) == 0.0 for k in range(2, t + 1))


def test_criterion_04_gradient_checks():
    with criterion(4, "analytic gradients match finite differences across 20 seeds"):
        start = time.perf_counter()
        tol = 1e-4
        for seed in range(20):
            x, labels, src, dst = small_problem(seed)
            b = x.shape[0]

            params = float64(Network.create("mlp", x.shape[1], 3, Hyper(hidden=[4]),
                                            np.random.default_rng(seed + 1000))).params

            def mlp_loss():
                logits, cache = mlp_forward(params, x, True, 0.5, np.random.default_rng(7))
                loss, dlogits = cross_entropy(logits, labels)
                return loss, mlp_backward(params, cache, dlogits)

            assert max_rel_error(mlp_loss, params) < tol

            gparams = float64(Network.create("graph-mlp", x.shape[1], 3, Hyper(hidden=[4]),
                                             np.random.default_rng(seed + 2000))).params
            gamma = np.zeros((b, b))
            gamma[src, dst] = 1.0
            gamma[dst, src] = 1.0

            def gm_loss():
                z, logits, cache = graphmlp_forward(
                    gparams, x, True, 0.2, np.random.default_rng(3)
                )
                ce, dlogits = cross_entropy(logits, labels)
                nc, dz = ncontrast_loss(z, gamma, 2.0)
                return ce + 1.0 * nc, graphmlp_backward(gparams, cache, dlogits, 1.0 * dz)

            assert max_rel_error(gm_loss, gparams) < tol

            for normalize in (False, True):
                adj = batch_adjacency(b, src, dst, normalize)
                cparams = float64(Network.create("gcn", x.shape[1], 3, Hyper(hidden=[4, 3]),
                                                 np.random.default_rng(seed + 3000))).params

                def gcn_loss():
                    logits, cache = gcn_forward(
                        cparams, x, adj, True, 0.0, np.random.default_rng(1)
                    )
                    loss, dlogits = cross_entropy(logits, labels)
                    return loss, gcn_backward(cparams, cache, dlogits)

                assert max_rel_error(gcn_loss, cparams) < tol
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def overfit_snapshot():
    pool = predicate_pool(4)
    recipes = distinct_recipes(pool, 8)
    triples = []
    vid = 0
    for index, recipe in enumerate(recipes):
        members = 62 if index < 4 else 63  # 4*62 + 4*63 = 500 vertices
        first = vid
        for i in range(members):
            nxt = first if i == members - 1 else vid + 1
            for p in recipe:
                triples.append((f"http://x/v{vid}", p, f"http://x/v{nxt}"))
            vid += 1
    return build_snapshot("t0", triples)


def test_criterion_05_overfit_smoke():
    with criterion(5, "one-hop classifier overfits 8 classes / 500 vertices"):
        start = time.perf_counter()
        g = overfit_snapshot()
        assert g.num_vertices == 500
        seq = prepare_tasks([("t0", g)], "ac1", seed=42)
        assert seq.class_vocab.width == 8
        ckpts, _, _ = run_sequence(
            seq, "mlp", Hyper(), "warm", seed=42, iterations=100, batch_cap=1000
        )
        train_acc, _ = evaluate_network(ckpts[0], seq.tasks[0], which=TRAIN)
        test_acc, _ = evaluate_network(ckpts[0], seq.tasks[0], which=TEST)
        assert train_acc >= 0.99, f"train accuracy {train_acc}"
        assert test_acc >= 0.95, f"test accuracy {test_acc}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def drift_files(tmp_path: Path, n_tasks: int = 3) -> list[str]:
    pool = predicate_pool(4 + n_tasks * 4)
    shared = distinct_recipes(pool[:4], 2)
    paths = []
    for t in range(n_tasks):
        own = pool[4 + t * 4 : 8 + t * 4]
        recipes = shared + distinct_recipes(own, 5)
        path = tmp_path / f"2012-05-{6 + t:02d}.nt"
        write_ntriples(path, ring_triples(recipes, 30, name_prefix=f"t{t}v"))
        paths.append(str(path))
    return paths


def test_criterion_06_drift_diagonal_dominance(tmp_path):
    with criterion(6, "diagonal dominance on drift sequence; report recomputes from CSV"):
        paths = drift_files(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(
            ["lifelong", "--model", "ac1", "--architecture", "mlp",
             "--in", *paths, "--out", str(out), "--iterations", "60", "--seed", "42"]
        )
        assert rc == 0
        r, _ = read_matrix_csv(out / "R.csv")
        for i in range(3):
            for j in range(i):
                assert r[i, i] > r[j, i], f"R[{i}][{i}]={r[i,i]} <= R[{j}][{i}]={r[j,i]}"
        out2 = tmp_path / "recomputed"
        assert cli_main(["report", "--matrix", str(out / "R.csv"), "--out", str(out2)]) == 0
        rep1 = json.loads((out / "report.json").read_text())
        rep2 = json.loads((out2 / "report.json").read_text())
        for key in ("acc", "bwt", "fwt", "omega_base", "omega_new", "omega_all",
                    "alpha_ideal", "forgetting"):
            assert rep1[key] == rep2[key], f"{key} not bit-identical"


def test_criterion_07_time_warp_null_check():
    with criterion(7, "frozen cross-domain accuracy ~0; warm vs cold within 0.05"):
        snaps = drift_sequence(2, 0, 5, 25)  # zero shared classes
        old_seq = prepare_tasks(snaps[:1], "ac1", seed=17)
        ckpts, _, _ = run_sequence(
            old_seq, "mlp", Hyper(), "warm", seed=17, iterations=100
        )
        result = time_warp(
            ckpts[-1], old_seq.pred_vocab, old_seq.class_vocab, snaps[1],
            "ac1", seed=17, iterations=100,
        )
        assert result["frozen_accuracy"] < 0.05
        assert abs(result["retrained_accuracy"] - result["cold_accuracy"]) <= 0.05


def test_criterion_08_measure_fixtures():
    with criterion(8, "set and divergence measures match hand-computed fixtures"):
        assert jaccard_dist(fake_summary({1, 2, 3}), fake_summary({2, 3, 4})) == 0.5
        assert jaccard_dist(fake_summary({1}), fake_summary({1})) == 0.0
        a = sized({1: 3, 2: 1})
        b = sized({1: 2, 2: 2})
        expected = (
            0.75 * math.log2(1.5) - 0.25 + 0.5 * math.log2(2 / 3) + 0.5
        )
        assert abs(js_divergence(a, b) - expected) < 1e-12
        assert abs(js_divergence(a, b) - 0.3962406251802891) < 1e-6
        assert js_divergence(a, a) == 0.0
        rng = np.random.default_rng(31)
        for _ in range(100):
            qa = {int(q): int(rng.integers(1, 30)) for q in rng.choice(40, size=rng.integers(1, 12), replace=False)}
            qb = {int(q): int(rng.integers(1, 30)) for q in rng.choice(40, size=rng.integers(1, 12), replace=False)}
            sa = sized(qa)
            sb = sized(qb)
            assert abs(js_divergence(sa, sb) - js_divergence(sb, sa)) < 1e-12


PARSER_FIXTURE = """\
<http://ex/a> <http://ex/p> <http://ex/b> .
# full line comment

<http://ex/a> <http://ex/p> "plain" .
<http://ex/a> <http://ex/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/a> <http://ex/p> "bonjour"@fr .
_:b1 <http://ex/p> <http://ex/c> .
<http://ex/c> <http://ex/q> _:b1 .
<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/a> <http://ex/p> .
this is not rdf
<http://ex/a> <http://ex/p> <http://ex/b> <http://ex/g> .
"""


def test_criterion_09_parser_conformance(tmp_path):
    with criterion(9, "12-line parser fixture yields exact counts, no aborts"):
        path = tmp_path / "fixture.nt"
        path.write_text(PARSER_FIXTURE)
        g = load_snapshot(path, "t")
        # unique statements: line 1 (+2 duplicates, one via the quad), the three
        # literals, and the two blank-node statements
        assert g.edge_count == 6
        assert g.skip_reasons["duplicate"] == 2
        assert g.skip_reasons["malformed"] == 2
        assert g.skip_reasons["comment"] == 1
        assert g.skip_reasons["blank"] == 1
        assert g.skipped_lines == 4
        assert g.num_vertices == 7
        assert g.terms.lookup("iri", "http://ex/g") is None  # quad context dropped


def _run_perf_child(n_edges: int) -> tuple[dict, int]:
    driver = Path(__file__).parent / "perf_driver.py"
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(n_edges)],
            stdout=out,
            cwd=str(Path(__file__).parent.parent),
        )
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        out.seek(0)
        payload = json.loads(out.read())
    return payload, rusage.ru_maxrss  # ru_maxrss in KiB on Linux


def test_criterion_10_performance():
    with criterion(10, "1M-edge one-hop summary: < 10 s, < 2 GB, near-linear scaling"):
        one, rss_one = _run_perf_child(1_000_000)
        two, rss_two = _run_perf_child(2_000_000)
        assert one["edges"] >= 999_000
        assert one["seconds"] < 10.0, f"1M edges took {one['seconds']:.2f}s"
        assert rss_one < 2 * 1024 * 1024, f"peak RSS {rss_one / 1024:.0f} MiB"
        assert rss_two < 2 * 1024 * 1024
        ratio = two["seconds"] / one["seconds"]
        assert ratio < 2.5, f"scaling ratio {ratio:.2f}"
        print(
            f"    1M: {one['seconds']:.3f}s rss={rss_one / 1024:.0f}MiB; "
            f"2M: {two['seconds']:.3f}s; ratio {ratio:.2f}",
            flush=True,
        )


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "equal config and seed give bit-identical artifacts, any thread count"):
        paths = drift_files(tmp_path, n_tasks=2)
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            rc = cli_main(
                ["lifelong", "--model", "ac1", "--architecture", "mlp",
                 "--in", *paths, "--out", str(out), "--iterations", "20",
                 "--seed", "9", "--threads", threads]
            )
            assert rc == 0
            outputs.append(out)
        ref = outputs[0]
        ref_manifest = json.loads((ref / "manifest.json").read_text())["outputs"]
        for other in outputs[1:]:
            manifest = json.loads((other / "manifest.json").read_text())["outputs"]
            assert manifest == ref_manifest, "output digests differ"
            for artifact in ("R.csv", "task00.gslc", "task01.gslc", "report.json"):
                assert (ref / artifact).read_bytes() == (other / artifact).read_bytes()
