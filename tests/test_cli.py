import csv
import gzip
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints
from xml.etree import ElementTree

import numpy as np
import pytest

import sumlife
import sumlife.lifelong as lifelong
from sumlife.cli import _parser, main
from sumlife.config import FIELD_TYPES, RunConfig, build_config, parse_config_file
from sumlife.errors import ConfigError, TrainingDivergence
from sumlife.ingest import load_snapshot
from sumlife.nets.network import RULES, Hyper
from synth import distinct_recipes, predicate_pool, ring_triples, write_ntriples


def _ring_snapshots(directory: Path) -> list[str]:
    pool = predicate_pool(4)
    recipes = distinct_recipes(pool, 5)
    paths = []
    for i in range(2):
        # second snapshot drops one recipe and adds a new predicate set
        rs = recipes[: 4 + i] if i == 0 else recipes[1:5] + [[pool[0], pool[3]]]
        path = directory / f"2012-05-0{6 + i}.nt"
        write_ntriples(path, ring_triples(rs, 12, name_prefix=f"s{i}v"))
        paths.append(str(path))
    return paths


@pytest.fixture()
def snapshot_files(tmp_path):
    return _ring_snapshots(tmp_path)


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# experiment\n"
        "model = ac2\n"
        "iterations = 7\n"
        "dropout = 0.1\n"
        "snapshots = a.nt, b.nt\n"
        "normalize_adjacency = true\n"
    )
    values = parse_config_file(cfg_file)
    assert values["model"] == "ac2"
    assert values["iterations"] == 7
    assert values["snapshots"] == ["a.nt", "b.nt"]
    assert values["normalize_adjacency"] is True


def test_config_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("learning_rte = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg_file)


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    """A config file that is not UTF-8 is a configuration error naming the
    file: exit 2 and one ``error:`` line, before --out is made."""
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"\xff\xfe = 1\n")
    with pytest.raises(ConfigError, match="bad.cfg"):
        parse_config_file(cfg_file)
    assert main(["summarize", "--config", str(cfg_file), "--model", "ac1", "--in", "x",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "bad.cfg" in err, err
    assert not (tmp_path / "o").exists()


def test_config_precedence_env_and_flags(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 1\n")
    monkeypatch.setenv("SUMLIFE_SEED", "2")
    cfg = build_config(cfg_file, {})
    assert cfg.seed == 2
    cfg = build_config(cfg_file, {"seed": 3})
    assert cfg.seed == 3
    monkeypatch.delenv("SUMLIFE_SEED")
    cfg = build_config(cfg_file, {})
    assert cfg.seed == 1
    monkeypatch.setenv("SUMLIFE_SEED", "-1")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        build_config(cfg_file, {})
    # a seed keys the split as 8 bytes: 2**64 would alias seed 0's split
    monkeypatch.setenv("SUMLIFE_SEED", str(2**64))
    with pytest.raises(ConfigError, match="< 2\\*\\*64"):
        build_config(cfg_file, {})
    monkeypatch.delenv("SUMLIFE_SEED")
    cfg_file.write_text(f"seed = {2**64}\n")
    with pytest.raises(ConfigError, match="< 2\\*\\*64"):
        build_config(cfg_file, {})
    assert build_config(cfg_file, {"seed": str(2**64 - 1)}).seed == 2**64 - 1


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        build_config(None, {"model": "ac9"})
    with pytest.raises(ConfigError):
        build_config(None, {"restart": "tepid"})
    with pytest.raises(ConfigError):
        build_config(None, {"iterations": 0})
    with pytest.raises(ConfigError, match="bogus"):
        build_config(None, {"bogus": "x"})


def test_every_setting_has_one_rule():
    """``RULES`` holds a rule for each ``RunConfig`` and ``Hyper`` field and
    nothing else, and only a bool setting's rule takes a bool."""
    hints = get_type_hints(RunConfig) | get_type_hints(Hyper)
    assert set(RULES) == set(hints)
    for key, (_, holds) in RULES.items():
        assert holds(True) == holds(False) == (hints[key] is bool), key
    for key in ("degree_cap", "iterations", "batch_cap", "threads", "seed", "dropout"):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: True})


def assert_manifest_lists_every_output(out: Path) -> None:
    """Every file a command wrote into ``out``, besides the manifest, has a digest in it."""
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert set(outputs) == {p.name for p in out.iterdir()} - {"manifest.json"}


def test_cmd_summarize(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(["summarize", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out)])
    assert rc == 0
    assert (out / "eqcs.tsv").exists()
    assert (out / "summary_edges.tsv").exists()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["model"] == "ac1"
    assert stats["eqcs"] >= 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) >= {"eqcs.tsv", "summary_edges.tsv", "stats.json",
                                        "members_hist.csv", "attrs_hist.csv",
                                        "predicate_usage_hist.csv"}
    assert_manifest_lists_every_output(out)


def test_cmd_summarize_rerun_identical(tmp_path, snapshot_files):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["summarize", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
    m2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
    assert m1 == m2
    assert (out1 / "eqcs.tsv").read_bytes() == (out2 / "eqcs.tsv").read_bytes()


# run as a direct child of this test process, after this process has peaked
# above anything the child reaches: on Linux the child's ru_maxrss starts at
# that peak, so the manifest must read the child's own peak (VmHWM)
_STAGE_RSS_SCRIPT = """
import sys
import numpy as np
from sumlife.reporting import Manifest
manifest = Manifest("probe", {})
with manifest.stage("touch"):
    np.ones(8 << 20)  # 64 MiB, every page written
with manifest.stage("idle"):
    pass
manifest.write(sys.argv[1])
"""


def test_manifest_stage_records_how_far_it_raised_the_peak(tmp_path):
    """``peak_rss_kb`` is process-wide, so a stage after a large one reads the
    same peak; ``rss_growth_kb`` tells them apart."""
    src = str(Path(sumlife.__file__).parents[1])
    np.ones(16 << 20)  # 128 MiB, so this process's peak is above the child's
    subprocess.run([sys.executable, "-c", _STAGE_RSS_SCRIPT, str(tmp_path)],
                   check=True, env={**os.environ, "PYTHONPATH": src})
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    touch, idle = stages["touch"], stages["idle"]
    # KiB on Linux; the stage may start below the peak the imports left
    assert (32 << 10) <= touch["rss_growth_kb"] <= (64 << 10) + 4096
    assert idle["rss_growth_kb"] == 0
    assert idle["peak_rss_kb"] == touch["peak_rss_kb"]


def test_cmd_summarize_missing_input(tmp_path):
    rc = main(["summarize", "--in", str(tmp_path / "nope.nt"), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_cmd_no_snapshots_is_config_error(tmp_path):
    rc = main(["summarize", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cmd_diff(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(["diff", "--model", "ac1", "--in", *snapshot_files, "--out", str(out)])
    assert rc == 0
    records = json.loads((out / "diff.json").read_text())
    assert len(records) == 2
    assert records[0]["jaccard_prev"] is None
    assert records[1]["jaccard_prev"] is not None
    # the second snapshot carries 5 ring classes
    assert records[1]["added"] + records[1]["recurring"] == 5
    meta_lines = (out / "meta.csv").read_text().splitlines()
    assert meta_lines[0].startswith("index,timestamp,eqcs,")
    assert len(meta_lines) == 3
    meta = list(csv.DictReader(meta_lines))
    assert [r["disappeared"] for r in meta] == [r["deleted_vs_prev"] for r in meta]
    assert [int(r["deleted_vs_prev"]) for r in meta] == [r["deleted"] for r in records]
    assert_manifest_lists_every_output(out)


def test_cmd_diff_identical_snapshots(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(
        ["diff", "--model", "ac1", "--in", snapshot_files[0], snapshot_files[0],
         "--timestamps", "a", "b", "--out", str(out)]
    )
    assert rc == 0
    records = json.loads((out / "diff.json").read_text())
    assert records[1]["added"] == 0
    assert records[1]["deleted"] == 0
    assert records[1]["jaccard_prev"] == 0.0
    assert records[1]["js_prev"] == 0.0


def test_cmd_diff_needs_two(tmp_path, snapshot_files):
    assert main(["diff", "--in", snapshot_files[0], "--out", str(tmp_path / "o")]) == 2


def test_cmd_lifelong_and_report(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(
        ["lifelong", "--model", "ac1", "--architecture", "mlp",
         "--in", *snapshot_files, "--out", str(out),
         "--iterations", "12", "--seed", "5"]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"acc", "bwt", "fwt", "omega_base", "omega_new", "omega_all", "forgetting"}
    assert report["forgetting"].keys() == {"2"}
    assert (out / "task00.gslc").exists() and (out / "task01.gslc").exists()
    svg = (out / "heatmap.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<rect") == 4
    assert_manifest_lists_every_output(out)

    # R.csv cell text appears in the heatmap rounded to 2 decimals
    from sumlife.reporting import read_matrix_csv

    r, _ = read_matrix_csv(out / "R.csv")
    for value in r.ravel():
        assert f">{value:.2f}</text>" in svg

    # recompute the report from the emitted matrix: bit-exact measures
    out2 = tmp_path / "re"
    rc = main(["report", "--matrix", str(out / "R.csv"), "--out", str(out2)])
    assert rc == 0
    assert_manifest_lists_every_output(out2)
    rep1 = json.loads((out / "report.json").read_text())
    rep2 = json.loads((out2 / "report.json").read_text())
    for key in ("acc", "bwt", "fwt", "omega_base", "omega_new", "omega_all", "forgetting"):
        assert rep1[key] == rep2[key]


def test_labels_with_csv_and_xml_characters_round_trip(tmp_path, snapshot_files):
    """A label holding a comma, a quote, ``&`` or ``<`` is quoted in every CSV
    and escaped in the heatmap, so ``report --matrix`` reads the R.csv back."""
    labels = ["a,1", 'b&"<2']
    out, out2, out3 = tmp_path / "run", tmp_path / "re", tmp_path / "diff"
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files, "--timestamps", *labels,
                 "--out", str(out), "--iterations", "2"]) == 0
    assert main(["report", "--matrix", str(out / "R.csv"), "--out", str(out2)]) == 0
    assert json.loads((out2 / "report.json").read_text())["acc"] == json.loads(
        (out / "report.json").read_text())["acc"]
    title = "mlp / ac1"
    for svg, texts in ((out / "heatmap.svg", [title, *labels]), (out2 / "heatmap.svg", labels)):
        root = ElementTree.parse(svg).getroot()
        assert set(texts) <= {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
    assert main(["diff", "--model", "ac1", "--in", *snapshot_files, "--timestamps", *labels,
                 "--out", str(out3)]) == 0
    with open(out3 / "meta.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [len(row) for row in rows] == [len(header)] * 2 == [10, 10]
    assert [row[1] for row in rows] == labels


@pytest.mark.parametrize("arch, model", [("mlp", "ac1"), ("graph-mlp", "ac1"), ("gcn", "ac1"),
                                         ("gcn-edges", "ac2")],
                         ids=["mlp", "graph-mlp", "gcn", "gcn-edges"])
def test_cmd_eval_checkpoint(tmp_path, snapshot_files, arch, model):
    out = tmp_path / "out"
    assert main(
        ["lifelong", "--model", model, "--architecture", arch, "--in", *snapshot_files,
         "--out", str(out), "--iterations", "12", "--seed", "5"]
    ) == 0
    out_eval = tmp_path / "eval"
    rc = main(
        ["eval", "--ckpt", str(out / "task01.gslc"), "--model", model,
         "--in", snapshot_files[1], "--out", str(out_eval), "--seed", "5"]
    )
    assert rc == 0
    payload = json.loads((out_eval / "eval.json").read_text())
    assert 0.0 <= payload["test_accuracy"] <= 1.0
    # the same split seed, so eval scores the cell lifelong wrote
    from sumlife.reporting import read_matrix_csv

    r, _ = read_matrix_csv(out / "R.csv")
    assert payload["test_accuracy"] == r[1, 1]
    assert_manifest_lists_every_output(out_eval)


def test_cmd_eval_defaults_to_checkpoint_seed(tmp_path, snapshot_files):
    out = tmp_path / "out"
    assert main(
        ["lifelong", "--model", "ac1", "--in", *snapshot_files, "--out", str(out),
         "--iterations", "12", "--seed", "5"]
    ) == 0
    from sumlife.reporting import read_matrix_csv

    r, _ = read_matrix_csv(out / "R.csv")
    out_eval = tmp_path / "eval_default"
    # no --seed given: the split seed comes from the checkpoint header, so the
    # reported accuracy equals the harness's R entry for the same pair
    assert main(
        ["eval", "--ckpt", str(out / "task01.gslc"), "--model", "ac1",
         "--in", snapshot_files[0], "--out", str(out_eval)]
    ) == 0
    payload = json.loads((out_eval / "eval.json").read_text())
    assert payload["test_accuracy"] == r[1, 0]


def test_cmd_lifelong_time_warp(tmp_path, snapshot_files):
    out = tmp_path / "out"
    assert main(
        ["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
         "--iterations", "12", "--seed", "5"]
    ) == 0
    out_tw = tmp_path / "tw"
    rc = main(
        ["lifelong", "--model", "ac1", "--in", snapshot_files[1], "--out", str(out_tw),
         "--iterations", "12", "--seed", "5", "--time-warp", str(out / "task00.gslc")]
    )
    assert rc == 0
    tw = json.loads((out_tw / "timewarp.json").read_text())
    assert set(tw) == {
        "frozen_accuracy", "frozen_unseen_fraction", "retrained_accuracy", "cold_accuracy"
    }
    assert_manifest_lists_every_output(out_tw)


def test_manifest_config_roundtrip(tmp_path, snapshot_files):
    out1 = tmp_path / "o1"
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files,
                 "--out", str(out1), "--iterations", "8", "--seed", "3"]) == 0
    echoed = json.loads((out1 / "manifest.json").read_text())["config"]
    cfg_file = tmp_path / "echo.cfg"
    lines = []
    for key, value in echoed.items():
        if value is None or key == "out_dir":
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    cfg_file.write_text("\n".join(lines) + "\n")
    out2 = tmp_path / "o2"
    assert main(["lifelong", "--config", str(cfg_file), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
    m2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
    assert m1 == m2


def test_env_seed_changes_outputs(tmp_path, snapshot_files, monkeypatch):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    monkeypatch.setenv("SUMLIFE_SEED", "5")
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files, "--out", str(out1), "--iterations", "6"]) == 0
    monkeypatch.setenv("SUMLIFE_SEED", "6")
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files, "--out", str(out2), "--iterations", "6"]) == 0
    assert (out1 / "R.csv").read_bytes() != (out2 / "R.csv").read_bytes()


def test_cmd_eval_unreadable_checkpoint_exits_1(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    good = (out / "task00.gslc").read_bytes()
    header_len = int.from_bytes(good[8:12], "little")
    cases = {
        "garbage.gslc": b"not a checkpoint at all",
        "magic_only.gslc": b"GSLC",
        "cut_header.gslc": good[: 12 + header_len // 2],
        # a header json.loads cannot nest: a RecursionError, not a ValueError
        "nested_header.gslc": good[:8] + (400_000).to_bytes(4, "little")
        + b"[" * 200_000 + b"]" * 200_000 + good[12 + header_len :],
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        for argv in (
            ["eval", "--model", "ac1", "--in", snapshot_files[0], "--ckpt", str(path)],
            ["lifelong", "--model", "ac1", "--in", snapshot_files[1], "--time-warp", str(path)],
        ):
            rc = main([*argv, "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert rc == 1, name
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert name in err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cmd_eval_header_missing_field_exits_1(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    good = (out / "task00.gslc").read_bytes()
    header_len = int.from_bytes(good[8:12], "little")
    path = tmp_path / "empty_header.gslc"
    path.write_bytes(good[:8] + (2).to_bytes(4, "little") + b"{}" + good[12 + header_len :])
    capsys.readouterr()
    for argv in (
        ["eval", "--model", "ac1", "--in", snapshot_files[0], "--ckpt", str(path)],
        ["lifelong", "--model", "ac1", "--in", snapshot_files[1], "--time-warp", str(path)],
    ):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert "empty_header.gslc" in _one_error_line(capsys)


def test_checkpoint_refuses_other_run_settings(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac2", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    ckpt = str(out / "task00.gslc")
    eval_ac2 = ["eval", "--model", "ac2", "--in", snapshot_files[0], "--ckpt", ckpt]
    assert main([*eval_ac2, "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    for argv in (
        ["eval", "--model", "ac1", "--in", snapshot_files[0], "--ckpt", ckpt],
        [*eval_ac2, "--degree-cap", "50"],
        [*eval_ac2, "--degree-mode", "out"],
        [*eval_ac2, "--include-rdf-types"],
        ["lifelong", "--model", "ac1", "--in", snapshot_files[1], "--time-warp", ckpt],
    ):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2, argv
        assert "was trained for" in _one_error_line(capsys)
    assert not (tmp_path / "o" / "eval.json").exists()


def test_time_warp_refuses_another_architecture(tmp_path, snapshot_files, capsys):
    """Every time-warp arm trains the checkpoint's network, and ``eval``
    applies it, so an explicitly set network setting other than the
    checkpoint's, by flag or config file, is refused (exit 2, the setting
    named) before any arm trains; the checkpoint's own values, or none, run,
    to the same result."""
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac2", "--architecture", "gcn", "--in", snapshot_files[0],
                 "--out", str(out), "--iterations", "2"]) == 0
    configs = {}
    for key, value in (("architecture", "mlp"), ("tau", "0.5")):
        configs[key] = tmp_path / f"{key}.cfg"
        configs[key].write_text(f"{key} = {value}\n")
    ckpt = str(out / "task00.gslc")
    warp = ["lifelong", "--model", "ac2", "--in", snapshot_files[1], "--iterations", "2",
            "--time-warp", ckpt]
    capsys.readouterr()
    for extra, named in ((["--architecture", "mlp"], "architecture 'gcn'"),
                         (["--architecture", "gcn-edges"], "architecture 'gcn'"),
                         (["--config", str(configs["architecture"])], "architecture 'gcn'"),
                         (["--hidden-size", "7"], "hidden_size [64] (this run: [7])"),
                         (["--dropout", "0.3"], "dropout 0.0 (this run: 0.3)"),
                         (["--config", str(configs["tau"])], "tau 2.0 (this run: 0.5)")):
        assert main([*warp, *extra, "--out", str(tmp_path / "o")]) == 2, extra
        assert named in _one_error_line(capsys)
    assert not (tmp_path / "o" / "timewarp.json").exists()
    assert main(["eval", "--model", "ac2", "--in", snapshot_files[0], "--ckpt", ckpt,
                 "--config", str(configs["architecture"]), "--out", str(tmp_path / "e")]) == 2
    assert "architecture 'gcn'" in _one_error_line(capsys)
    assert not (tmp_path / "e" / "eval.json").exists()
    assert main([*warp, "--out", str(tmp_path / "none")]) == 0
    for extra in (["--architecture", "gcn"], ["--hidden-size", "64"]):
        assert main([*warp, *extra, "--out", str(tmp_path / extra[1])]) == 0
        assert ((tmp_path / "none" / "timewarp.json").read_bytes()
                == (tmp_path / extra[1] / "timewarp.json").read_bytes()), extra


def test_cmd_eval_edited_vocabulary_exits_1(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    data = (out / "task00.gslc").read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12 : 12 + header_len])
    header["predicate_vocab"][0] = header["predicate_vocab"][0][:-1] + "X"
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = tmp_path / "edited.gslc"
    path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[12 + header_len :])
    capsys.readouterr()
    assert main(["eval", "--model", "ac1", "--in", snapshot_files[0], "--ckpt", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "does not match its digest" in _one_error_line(capsys)


def test_lifelong_snapshot_without_vertices_exits_1(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    skipped = tmp_path / "2012-05-08.nt"
    skipped.write_text("# only a comment\nnot a statement\n")
    # ten disjoint edges are kept whole under a cap of 1, so a time warp under
    # that cap has a checkpoint trained for it
    pairs = tmp_path / "2012-05-09.nt"
    write_ntriples(pairs, [(f"http://a{i}", "http://p", f"http://b{i}") for i in range(10)])
    assert main(["lifelong", "--model", "ac1", "--in", str(pairs), "--degree-cap", "1",
                 "--out", str(tmp_path / "capped"), "--iterations", "2"]) == 0
    capsys.readouterr()
    cases = [
        (skipped, [], out),
        # every vertex of the ring has total degree 2 or more
        (snapshot_files[1], ["--degree-cap", "1"], tmp_path / "capped"),
    ]
    for path, extra, run in cases:
        for argv in (
            ["lifelong", "--model", "ac1", "--in", str(path)],
            ["lifelong", "--model", "ac1", "--in", str(path), "--time-warp",
             str(run / "task00.gslc")],
        ):
            assert main([*argv, *extra, "--iterations", "2", "--out", str(tmp_path / "o")]) == 1
            assert str(path) in _one_error_line(capsys)


@pytest.mark.parametrize("iterations, message, left", [
    ("16", "divergence at task 0, step 1: non-finite values in loss", []),
    # one step leaves finite weights whose logits overflow: no accuracy is read off them
    ("1", "non-finite values in the logits of task 0", ["task00.gslc"]),
], ids=["train", "eval"])
def test_lifelong_divergence_prints_one_line(tmp_path, snapshot_files, iterations, message, left):
    """A diverging run exits 3 with one stderr line and no numpy warnings,
    which would reach stderr outside pytest, so it runs as its own process.
    A checkpoint is written as soon as its task is trained."""
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "sumlife.cli", "lifelong", "--model", "ac1", "--in", *snapshot_files,
         "--learning-rate", "1e300", "--iterations", iterations, "--out", str(out)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(sumlife.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stderr) == (3, f"error: {message}\n")
    assert sorted(p.name for p in out.iterdir()) == left


def test_failed_write_names_its_file(tmp_path, snapshot_files):
    """A write past the file-size limit (``RLIMIT_FSIZE``, as ``ulimit -f``
    sets) fails with an ``OSError`` that carries no file name: the run exits
    1 with one ``error:`` line naming the file it was writing."""
    out = tmp_path / "o"

    def small_files():
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

    proc = subprocess.run(
        [sys.executable, "-m", "sumlife.cli", "lifelong", "--model", "ac1", "--iterations", "1",
         "--in", *snapshot_files, "--out", str(out)],
        capture_output=True, text=True, preexec_fn=small_files,
        env={**os.environ, "PYTHONPATH": str(Path(sumlife.__file__).parents[1])},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.endswith(f": '{out / 'task00.gslc'}'\n"), proc.stderr


def test_graph_mlp_batches_without_edges_leave_stderr_empty(tmp_path):
    """A Graph-MLP batch without edges has no positive pairs: its contrastive
    term is 0, which a successful run does not warn about on stderr."""
    paths = []
    for i in range(2):
        path = tmp_path / f"2012-05-0{6 + i}.nt"
        write_ntriples(path, [(f"http://x/s{j}", "http://p", f'"v{j}"') for j in range(40)])
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "sumlife.cli", "lifelong", "--model", "ac1", "--architecture",
         "graph-mlp", "--iterations", "10", "--batch-cap", "3", "--in", *paths,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(sumlife.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_lifelong_divergence_at_task_1_leaves_task_0_checkpoint(tmp_path, snapshot_files,
                                                                 monkeypatch, capsys):
    """Checkpoints are written as tasks finish, and the manifest last: a run
    that diverges at task 1 leaves task00.gslc and no manifest."""
    train = lifelong._train_on_task

    def diverging(net, task, *args):
        if task.index == 1:
            raise TrainingDivergence(1, 0, "non-finite values in loss")
        return train(net, task, *args)

    monkeypatch.setattr(lifelong, "_train_on_task", diverging)
    out = tmp_path / "o"
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files, "--iterations", "2",
                 "--out", str(out)]) == 3
    assert "divergence at task 1" in _one_error_line(capsys)
    assert sorted(p.name for p in out.iterdir()) == ["task00.gslc"]


def _long_iri_snapshots(tmp_path, count: int, n: int = 6000, edges: int = 1) -> list[str]:
    """``count`` snapshots of ``n`` subjects with long IRIs, as the web
    snapshots have, each with ``edges`` edges to random subjects."""
    rng = np.random.default_rng(0)
    paths = []
    for t in range(count):
        path = tmp_path / f"2012-05-0{6 + t}.nt"
        v = [f"http://example.org/a/rather/long/resource/path/t{t}/v{i}" for i in range(n)]
        write_ntriples(path, [(v[i], f"http://example.org/p{rng.integers(8)}", v[rng.integers(n)])
                              for i in range(n) for _ in range(edges)])
        paths.append(str(path))
    return paths


def _peak_growth(tmp_path, argv: list[str], paths: list[str], counts: tuple[int, int]):
    """(tracemalloc peak of ``argv`` over the last count of ``paths`` minus
    its peak over the first count, heap one loaded snapshot holds)."""
    peaks = []
    tracemalloc.start()
    try:
        g = load_snapshot(paths[0], "t")
        held = tracemalloc.get_traced_memory()[0]
        del g
        for k in counts:
            tracemalloc.reset_peak()
            assert main([*argv, "--in", *paths[:k], "--out", str(tmp_path / f"o{k}")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks[1] - peaks[0], held


def test_lifelong_holds_one_term_table_at_a_time(tmp_path):
    """A ``lifelong`` run with a small network prepares each snapshot as it
    loads and keeps no term table in its tasks, so its peak over three
    long-IRI snapshots exceeds its peak over one by less than the heap one
    loaded snapshot holds.  Tasks that kept their tables exceeded it by about
    twice that."""
    growth, held = _peak_growth(
        tmp_path, ["lifelong", "--model", "ac1", "--iterations", "1", "--hidden-size", "8"],
        _long_iri_snapshots(tmp_path, 3), (1, 3))
    assert growth < held, (growth, held)


def test_diff_holds_one_snapshot_at_a_time(tmp_path):
    """``diff`` summarizes each snapshot as it loads and keeps only its
    summary and member counts, so its peak over three long-IRI snapshots
    exceeds its peak over two by less than the heap one loaded snapshot
    holds.  Holding every snapshot and its member lists exceeded it."""
    growth, held = _peak_growth(tmp_path, ["diff", "--model", "ac2"],
                                _long_iri_snapshots(tmp_path, 3), (2, 3))
    assert growth < held, (growth, held)


def test_diff_holds_eqc_sets_not_summaries(tmp_path):
    """``diff`` measures each summary as it arrives and keeps only the
    previous summary and each snapshot's EQC set, so on snapshots with many
    summary edges its peak grows per extra snapshot by less than the heap one
    loaded snapshot holds.  Keeping every summary until a final measure stage
    grew it by more than twice that."""
    growth, held = _peak_growth(tmp_path, ["diff", "--model", "ac2"],
                                _long_iri_snapshots(tmp_path, 4, edges=3), (2, 4))
    assert growth / 2 < held, (growth / 2, held)


def test_lifelong_gcn_edges_needs_ac2(tmp_path, snapshot_files, capsys):
    argv = ["lifelong", "--model", "ac1", "--architecture", "gcn-edges",
            "--in", snapshot_files[0], "--iterations", "2", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = _one_error_line(capsys)
    assert "gcn-edges" in err and "ac1" in err
    assert not (tmp_path / "o" / "R.csv").exists()
    with pytest.raises(ConfigError, match="gcn-edges"):
        build_config(None, {"architecture": "gcn-edges"})


def test_lifelong_empty_test_splits_leave_omega_null(tmp_path, snapshot_files, capsys):
    # five vertices split 5/0/0, so no test vertex could be scored
    paths = []
    (tmp_path / "small").mkdir()
    for day in (6, 7):
        path = tmp_path / "small" / f"2012-05-0{day}.nt"
        write_ntriples(path, [(f"http://d{day}v{i}", "http://p", f"http://d{day}v{i + 1}")
                              for i in range(4)])
        paths.append(str(path))
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", *paths, "--out", str(out),
                 "--iterations", "2"]) == 1
    err = _one_error_line(capsys)
    assert paths[0] in err and "2012-05-06" in err
    assert not (out / "R.csv").exists()
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    capsys.readouterr()
    assert main(["lifelong", "--model", "ac1", "--in", paths[1], "--time-warp",
                 str(out / "task00.gslc"), "--iterations", "2", "--out", str(tmp_path / "tw")]) == 1
    err = _one_error_line(capsys)
    assert paths[1] in err and "2012-05-07" in err
    assert not (tmp_path / "tw" / "timewarp.json").exists()
    # an all-zero diagonal still reports null omegas
    matrix = tmp_path / "R.csv"
    matrix.write_text("trained_through,a,b\na,0.0,0.0\nb,0.0,0.0\n")
    assert main(["report", "--matrix", str(matrix), "--out", str(tmp_path / "re")]) == 0
    report = json.loads((tmp_path / "re" / "report.json").read_text())
    assert report["alpha_ideal"] == 0.0
    assert report["omega_base"] is None and report["omega_new"] is None
    assert report["omega_all"] is None
    assert report["bwt"] == 0.0 and report["forgetting"] == {"2": 0.0}
    assert capsys.readouterr().err == ""


def test_cmd_eval_snapshot_without_test_vertices_exits_1(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    comments = tmp_path / "comments.nt"
    comments.write_text("# only a comment\n")
    # two vertices split 2/0/0
    two = tmp_path / "two.nt"
    write_ntriples(two, [("http://a", predicate_pool(4)[0], "http://b")])
    capsys.readouterr()
    for path in (comments, two):
        assert main(["eval", "--model", "ac1", "--in", str(path), "--ckpt",
                     str(out / "task00.gslc"), "--out", str(tmp_path / "o")]) == 1
        assert str(path) in _one_error_line(capsys)
    assert not (tmp_path / "o" / "eval.json").exists()


def test_truncated_gz_snapshot_exits_1(tmp_path, snapshot_files, capsys):
    data = gzip.compress(Path(snapshot_files[0]).read_bytes())
    path = tmp_path / "2012-05-08.nt.gz"
    path.write_bytes(data[: len(data) // 2])
    for argv in (
        ["summarize", "--model", "ac1", "--in", str(path)],
        ["lifelong", "--model", "ac1", "--in", snapshot_files[0], str(path), "--iterations", "2"],
    ):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert str(path) in _one_error_line(capsys)


def test_empty_snapshot_directory_exits_1(tmp_path, snapshot_files, capsys):
    path = tmp_path / "2012-05-08"
    path.mkdir()
    for argv in (
        ["summarize", "--model", "ac1", "--in", str(path)],
        ["lifelong", "--model", "ac1", "--in", snapshot_files[0], str(path), "--iterations", "2"],
    ):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert "snapshot directory is empty" in _one_error_line(capsys)


def test_every_run_config_field_has_a_lifelong_flag():
    sub = next(a for a in _parser()._actions if a.dest == "command")
    dests = {a.dest for a in sub.choices["lifelong"]._actions}
    assert {f.name for f in fields(RunConfig)} <= dests


def test_every_config_key_coerces_to_its_annotated_type(tmp_path):
    expected = {
        "snapshots": ["a.nt", "b.nt"],
        "timestamps": ["t1", "t2"],
        "model": "ac2",
        "architecture": "gcn",
        "hidden_size": "32,32",
        "dropout": 0.25,
        "learning_rate": 0.05,
        "alpha": 0.5,
        "tau": 1.5,
        "normalize_adjacency": True,
        "iterations": 7,
        "batch_cap": 64,
        "seed": 9,
        "degree_cap": 50,
        "degree_mode": "out",
        "restart": "cold",
        "threads": 2,
        "include_rdf_types": True,
        "zero_init_growth": False,
        "out_dir": "o",
    }
    assert set(expected) == {f.name for f in fields(RunConfig)}
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "snapshots = a.nt, b.nt\ntimestamps = t1,t2\nmodel = ac2\narchitecture = gcn\n"
        "hidden_size = 32,32\ndropout = 0.25\nlearning_rate = 0.05\nalpha = 0.5\n"
        "tau = 1.5\nnormalize_adjacency = yes\niterations = 7\nbatch_cap = 64\nseed = 9\n"
        "degree_cap = 50\ndegree_mode = out\nrestart = cold\nthreads = 2\n"
        "include_rdf_types = 1\nzero_init_growth = false\nout_dir = o\n"
    )
    values = parse_config_file(cfg_file)
    assert values == expected
    hints = get_type_hints(RunConfig)
    for key, value in values.items():
        kind = hints[key]
        if get_origin(kind) is list:
            assert all(type(v) is str for v in value), key
        else:
            assert type(value) in (get_args(kind) or (kind,)), key
    assert build_config(cfg_file, {}).to_dict() == expected


MALFORMED_MATRICES = {
    "not_square": b"trained_through,a\na,0.5\nb,0.5\n",
    "empty": b"",
    "no_tasks": b"trained_through\n",
    "text_cell": b"trained_through,a\na,x\n",
    "nan_cell": b"trained_through,a,b\na,nan,0.5\nb,0.5,0.5\n",
    "ragged": b"trained_through,a,b\na,0.5,0.5\nb,0.5\n",
    "latin1": "trained_through,é\né,0.5\n".encode("latin-1"),
}


@pytest.mark.parametrize("name", MALFORMED_MATRICES)
def test_report_malformed_matrix_exits_1(tmp_path, capsys, name):
    matrix = tmp_path / f"{name}.csv"
    matrix.write_bytes(MALFORMED_MATRICES[name])
    assert main(["report", "--matrix", str(matrix), "--out", str(tmp_path / "o")]) == 1
    assert name in _one_error_line(capsys)
    assert not (tmp_path / "o" / "report.json").exists()


def test_single_snapshot_commands_refuse_extra_snapshots(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    ckpt = str(out / "task00.gslc")
    capsys.readouterr()
    missing = [str(tmp_path / "x"), str(tmp_path / "y")]
    for argv in (["summarize"], ["eval", "--ckpt", ckpt],
                 ["lifelong", "--time-warp", ckpt, "--iterations", "2"]):
        # a load of a path that does not exist would exit 1 before the refusal
        for paths in (snapshot_files, missing):
            assert main([*argv, "--model", "ac1", "--in", *paths,
                         "--out", str(tmp_path / "o")]) == 2, (argv, paths)
            assert "takes one snapshot, got 2" in _one_error_line(capsys)
    # refused before anything was loaded or written
    assert not (tmp_path / "o").exists()


def test_eqcs_tsv_escapes_a_raw_tab_in_a_literal(tmp_path):
    """N-Triples allows a raw TAB inside a literal; its ``eqcs.tsv`` row still
    has two fields, the TAB written as the escape ``\\t``.  The raw and the
    escaped spelling are one literal, so one vertex and one row."""
    snapshot = tmp_path / "tab.nt"
    snapshot.write_text('<http://a> <http://p> "x\ty" .\n<http://a> <http://q> <http://b> .\n'
                        '<http://c> <http://p> "x\\ty" .\n', encoding="utf-8")
    out = tmp_path / "o"
    assert main(["summarize", "--model", "ac1", "--in", str(snapshot), "--out", str(out)]) == 0
    lines = (out / "eqcs.tsv").read_text(encoding="utf-8").splitlines()
    assert lines == sorted(lines)
    rows = [line.split("\t") for line in lines]
    assert [len(row) for row in rows] == [2, 2, 2, 2]
    assert [row[0] for row in rows] == ['"x\\ty"', "http://a", "http://b", "http://c"]
    assert json.loads((out / "stats.json").read_text())["vertices"] == 4


@pytest.mark.parametrize("include_rdf_types", [False, True])
def test_summarize_rdf_type_rule(tmp_path, include_rdf_types):
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    snapshot = tmp_path / "typed.nt"
    # http://s has only an rdf:type out-edge; http://C is only an rdf:type object
    write_ntriples(snapshot, [
        ("http://a", "http://p", "http://b"),
        ("http://b", "http://p", "http://c"),
        ("http://s", rdf_type, "http://C"),
    ])
    out = tmp_path / "o"
    flag = ["--include-rdf-types"] if include_rdf_types else []
    assert main(["summarize", "--model", "ac1", "--in", str(snapshot), "--out", str(out),
                 *flag]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["vertices"] == 5 and stats["edges"] == 3
    eqcs = dict(line.split("\t") for line in (out / "eqcs.tsv").read_text().splitlines())
    summary_predicates = [line.split("\t")[1]
                          for line in (out / "summary_edges.tsv").read_text().splitlines()]
    if include_rdf_types:
        assert stats["eqcs"] == 3 and eqcs["http://s"] != eqcs["http://C"]
        assert sorted(summary_predicates) == ["http://p", rdf_type]
    else:
        # http://s is a sink like http://c and the class IRI
        assert stats["eqcs"] == 2 and eqcs["http://s"] == eqcs["http://C"] == eqcs["http://c"]
        assert summary_predicates == ["http://p"]


def test_lifelong_refuses_unordered_timestamps_before_loading(tmp_path, snapshot_files, capsys,
                                                              monkeypatch):
    import sumlife.cli as cli

    loaded = []
    monkeypatch.setattr(cli, "load_snapshot", lambda *a: loaded.append(a))
    # the second copy has the same default timestamp: the file name up to its first dot
    twin = tmp_path / "copy" / Path(snapshot_files[0]).name
    twin.parent.mkdir()
    twin.write_bytes(Path(snapshot_files[0]).read_bytes())
    for snapshots in (snapshot_files[::-1], [snapshot_files[0], str(twin)]):
        assert main(["lifelong", "--model", "ac1", "--in", *snapshots, "--iterations", "2",
                     "--out", str(tmp_path / "o")]) == 2
        assert "strictly increasing" in _one_error_line(capsys)
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files, "--timestamps", "b", "a",
                 "--iterations", "2", "--out", str(tmp_path / "o")]) == 2
    assert "b a" in _one_error_line(capsys)
    assert not loaded and not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flags, named", [
    ("summarize", ["--degree-cap", "0"], "degree_cap"),
    ("summarize", ["--degree-cap", "-2"], "degree_cap"),
    ("lifelong", ["--dropout", "1.0"], "dropout"),
    ("lifelong", ["--dropout", "-0.5"], "dropout"),
    ("lifelong", ["--hidden-size=-3"], "hidden sizes"),
    ("lifelong", ["--hidden-size", "0"], "hidden sizes"),
    ("lifelong", ["--hidden-size", "8,8"], "mlp takes one hidden size"),
    ("lifelong", ["--hidden-size", "1000000000000"], "hidden sizes"),
    ("lifelong", ["--architecture", "gcn", "--hidden-size", "8,2147483648"], "hidden sizes"),
    ("lifelong", ["--batch-cap", "100000000000"], "batch_cap"),
    ("lifelong", ["--architecture", "graph-mlp", "--hidden-size", "8,8"], "graph-mlp takes one"),
    ("lifelong", ["--seed", "-1"], "seed must be >= 0"),
    ("lifelong", ["--seed", str(2**64)], "seed must be >= 0 and < 2**64"),
    ("lifelong", ["--learning-rate", "-1"], "learning_rate"),
    ("lifelong", ["--learning-rate", "0"], "learning_rate"),
    ("lifelong", ["--learning-rate", "nan"], "learning_rate"),
    ("lifelong", ["--learning-rate", "inf"], "learning_rate"),
    ("lifelong", ["--tau", "0"], "tau"),
    ("lifelong", ["--tau", "nan"], "tau"),
    ("lifelong", ["--architecture", "graph-mlp", "--alpha", "-1"], "alpha"),
    ("lifelong", ["--alpha", "inf"], "alpha"),
], ids=["cap_0", "cap_negative", "dropout_1", "dropout_negative", "hidden_negative", "hidden_0",
        "mlp_two_sizes", "hidden_huge", "hidden_huge_second", "batch_cap_huge",
        "graph_mlp_two_sizes", "seed_negative", "seed_2_64", "lr_negative", "lr_0", "lr_nan",
        "lr_inf", "tau_0", "tau_nan", "alpha_negative", "alpha_inf"])
def test_out_of_range_settings_exit_2_before_loading(tmp_path, snapshot_files, capsys, monkeypatch,
                                                     command, flags, named):
    import sumlife.cli as cli

    loaded = []
    monkeypatch.setattr(cli, "load_snapshot", lambda *a: loaded.append(a))
    assert main([command, "--model", "ac1", "--in", snapshot_files[0], "--out", str(tmp_path / "o"),
                 *flags]) == 2
    assert named in _one_error_line(capsys)
    assert not loaded and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, named", [
    (["lifelong"], "lifelong takes at least 1 snapshot, got 0"),
    (["summarize"], "summarize takes one snapshot, got 0"),
    (["eval", "--ckpt", "task00.gslc"], "eval takes one snapshot, got 0"),
    (["summarize", "--in", "a.nt", "--timestamps", "a", "b"], "differ in length"),
    (["diff", "--in", "a.nt", "b.nt", "--timestamps", "a"], "differ in length"),
    (["eval", "--ckpt", "task00.gslc", "--in", "a.nt", "--timestamps", "a", "b"],
     "differ in length"),
], ids=["lifelong_no_in", "summarize_no_in", "eval_no_in", "summarize_timestamps",
        "diff_timestamps", "eval_timestamps"])
def test_snapshot_and_timestamp_counts_exit_2_before_out_is_made(tmp_path, capsys, argv, named):
    assert main([*argv, "--model", "ac1", "--out", str(tmp_path / "o")]) == 2
    assert named in _one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_interrupt_exits_130_with_one_line(tmp_path, snapshot_files):
    """SIGINT during a run ends it in exit 130, the code of a program that
    SIGINT ended, with one ``error: interrupted`` line and no traceback."""
    out = tmp_path / "o"
    env = {**os.environ, "PYTHONPATH": str(Path(sumlife.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "sumlife.cli", "lifelong", "--model", "ac1",
                             "--iterations", "100000", "--in", *snapshot_files, "--out", str(out)],
                            env=env, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        # --out is made inside main's try, so the signal lands in the run
        while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert out.exists() and proc.poll() is None
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err
    assert err == "error: interrupted\n"


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 8.00 GiB", "Unable to allocate 8.00 GiB"),
    ("", "an allocation failed"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_1_with_one_line(tmp_path, snapshot_files, capsys, monkeypatch,
                                             message, shown):
    import sumlife.cli as cli

    def summarize(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "summarize", summarize)
    assert main(["summarize", "--model", "ac1", "--in", snapshot_files[0],
                 "--out", str(tmp_path / "o")]) == 1
    assert _one_error_line(capsys) == f"error: out of memory: {shown}\n"


# a value above every limit, for an integer and for a real setting
HUGE = {int: "1000000000000", float: "1e300"}
# the architecture that reads a setting the default mlp ignores
ARCHITECTURE_READING = {"alpha": "graph-mlp", "tau": "graph-mlp"}


def _numeric_cases() -> list[tuple[str, str, str]]:
    """(command, setting, value) for every numeric ``RunConfig`` setting, each
    command that takes it, and 0, -1, a huge value, nan and inf.  A huge
    thread or iteration count is left out: it would start that many threads
    or run that many steps.  ``hidden_size`` holds integers in a string."""
    cases = []
    for f in fields(RunConfig):
        kinds = [t for t in get_args(FIELD_TYPES[f.name]) or (FIELD_TYPES[f.name],)
                 if t is not type(None)]
        kind = int if f.name == "hidden_size" else kinds[0]
        if kind not in (int, float):
            continue
        commands = (("lifelong",) if f.metadata.get("lifelong_only")
                    else ("summarize", "diff", "eval", "lifelong"))
        for value in ("0", "-1", HUGE[kind], "nan", "inf"):
            if value == HUGE[kind] and f.name in ("threads", "iterations"):
                continue
            cases += [(command, f.name, value) for command in commands]
    return cases


NUMERIC_CASES = _numeric_cases()


@pytest.fixture(scope="module")
def numeric_runs(tmp_path_factory) -> dict:
    """(exit code, stderr) of each of ``NUMERIC_CASES``, run as its own
    process on two small snapshots, two processes at a time."""
    root = tmp_path_factory.mktemp("numeric")
    snapshots = _ring_snapshots(root)
    ckpt = root / "trained" / "task01.gslc"
    assert main(["lifelong", "--model", "ac1", "--iterations", "1", "--hidden-size", "4",
                 "--in", *snapshots, "--out", str(ckpt.parent)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(sumlife.__file__).parents[1])}

    def run(i: int):
        command, key, value = NUMERIC_CASES[i]
        argv = [command, "--model", "ac1", f"--{key.replace('_', '-')}={value}",
                "--out", str(root / f"o{i}")]
        if command == "lifelong":
            settings = {"architecture": ARCHITECTURE_READING.get(key, "mlp"),
                        "iterations": "1", "hidden_size": "4"}
            argv += [f"--{k.replace('_', '-')}={v}" for k, v in settings.items() if k != key]
        argv += ["--ckpt", str(ckpt)] if command == "eval" else []
        argv += ["--in", *(snapshots[1:] if command in ("summarize", "eval") else snapshots)]
        proc = subprocess.run([sys.executable, "-m", "sumlife.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stderr

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(NUMERIC_CASES, pool.map(run, range(len(NUMERIC_CASES)))))


@pytest.mark.parametrize("case", NUMERIC_CASES, ids=["-".join(c) for c in NUMERIC_CASES])
def test_numeric_settings_end_in_a_documented_exit(numeric_runs, case):
    """Every value of every numeric setting ends in exit 0-3 with an empty
    stderr or one ``error:`` line: never a traceback or a warning."""
    code, err = numeric_runs[case]
    assert code in (0, 1, 2, 3), (code, err)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_freed_blocks_are_reused_without_page_faults():
    import sumlife.cli as cli

    cli._keep_freed_memory()
    block = 4 << 20  # above glibc's default mmap threshold
    for step in range(6):
        if step == 1:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        # several blocks alive at once, as in a training step, then all freed:
        # glibc's own thresholds would trim the freed heap top every time
        arrays = [np.ones(block // 8) for _ in range(4)]
        del arrays
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < block // 4096  # re-faulting would cost 4 blocks per step


# every option string of each command: settings flags are generated from
# RunConfig, so a field added, renamed or regrouped shows up here
OPTION_STRINGS = {
    "summarize": {"--config", "--degree-cap", "--degree-mode", "--help", "--in",
                  "--include-rdf-types", "--model", "--out", "--seed", "--threads",
                  "--timestamps", "-h"},
    "lifelong": {"--alpha", "--architecture", "--batch-cap", "--config", "--degree-cap",
                 "--degree-mode", "--dropout", "--help", "--hidden-size", "--in",
                 "--include-rdf-types", "--iterations", "--learning-rate", "--model",
                 "--normalize-adjacency", "--out", "--restart", "--seed", "--tau", "--threads",
                 "--time-warp", "--timestamps", "--zero-init-growth", "-h"},
    "eval": {"--ckpt", "--config", "--degree-cap", "--degree-mode", "--help", "--in",
             "--include-rdf-types", "--model", "--out", "--seed", "--threads", "--timestamps",
             "-h"},
    "report": {"--help", "--matrix", "--out", "-h"},
}
OPTION_STRINGS["diff"] = OPTION_STRINGS["summarize"]


def test_each_command_takes_its_option_strings():
    sub = next(a for a in _parser()._actions if a.dest == "command")
    got = {name: {s for a in p._actions for s in a.option_strings}
           for name, p in sub.choices.items()}
    assert got == OPTION_STRINGS
    settings = {f.name for f in fields(RunConfig)}
    for p in sub.choices.values():
        for action in p._actions:
            if action.dest in settings:
                assert action.type is None and action.choices is None, action.dest


# (flag, value, config-file key): one bad value of every typed setting
BAD_VALUES = [
    ("--model", "ac3", "model"),
    ("--architecture", "cnn", "architecture"),
    ("--restart", "tepid", "restart"),
    ("--degree-mode", "sideways", "degree_mode"),
    ("--seed", "x", "seed"),
    ("--iterations", "1.5", "iterations"),
    ("--dropout", "x", "dropout"),
    ("--degree-cap", "1e2", "degree_cap"),
]


@pytest.mark.parametrize("flag, value, key", BAD_VALUES, ids=[k for _, _, k in BAD_VALUES])
def test_bad_value_exits_2_alike_from_flag_and_file(tmp_path, snapshot_files, capsys,
                                                    monkeypatch, flag, value, key):
    import sumlife.cli as cli

    loaded = []
    monkeypatch.setattr(cli, "load_snapshot", lambda *a: loaded.append(a))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    messages = []
    for setting in ([flag, value], ["--config", str(cfg_file)]):
        assert main(["lifelong", "--in", snapshot_files[0], "--out", str(tmp_path / "o"),
                     *setting]) == 2, setting
        messages.append(_one_error_line(capsys))
    assert messages[0] == messages[1]
    assert key in messages[0] and repr(value) in messages[0]
    assert not loaded and not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, named", [
    (["lifelong", "--in", "x", "--bogus"], "--bogus"),
    (["lifelong", "--in", "x", "--seed"], "--seed"),
    (["eval", "--in", "x"], "--ckpt"),
    (["report"], "--matrix"),
    ([], "command"),
    (["train"], "train"),
    (["lifelong", "--in", "x", "--iter", "3"], "--iter"),
    (["lifelong", "--in", "x", "--learn", "0.5"], "--learn"),
    (["lifelong", "--in", "x", "--hidden", "8"], "--hidden"),
], ids=["unknown_flag", "missing_value", "missing_ckpt", "missing_matrix", "missing_command",
        "unknown_command", "abbreviated_iterations", "abbreviated_learning_rate",
        "abbreviated_hidden_size"])
def test_argument_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv, named):
    import sumlife.cli as cli

    loaded = []
    monkeypatch.setattr(cli, "load_snapshot", lambda *a: loaded.append(a))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert named in _one_error_line(capsys)
    assert not loaded and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["lifelong", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "sumlife" in out
    if argv[0] == "lifelong":
        for text in ("--degree-cap", "--model {ac1,ac2}", "flat key = value config file",
                     "snapshot files or directories", "output directory"):
            assert text in out, text


def test_eval_config_file_is_read_once_and_its_seed_wins(tmp_path, snapshot_files, monkeypatch):
    import sumlife.cli as cli
    import sumlife.config as config

    out = tmp_path / "out"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2", "--seed", "5"]) == 0
    reads, seeds = [], []
    parse = config.parse_config_file
    prepare = cli.prepare_tasks

    def counting(path):
        reads.append(path)
        return parse(path)

    def recording(graphs, model, seed, **kwargs):
        seeds.append(seed)
        return prepare(graphs, model, seed, **kwargs)

    monkeypatch.setattr(config, "parse_config_file", counting)
    monkeypatch.setattr(cli, "parse_config_file", counting, raising=False)
    monkeypatch.setattr(cli, "prepare_tasks", recording)
    cfg_file = tmp_path / "run.cfg"
    for text, seed in (("model = ac1\nseed = 6\n", 6), ("model = ac1\n", 5)):
        cfg_file.write_text(text)
        reads.clear()
        assert main(["eval", "--config", str(cfg_file), "--ckpt", str(out / "task00.gslc"),
                     "--in", snapshot_files[0], "--out", str(tmp_path / "eval")]) == 0
        assert len(reads) == 1 and seeds[-1] == seed, text
