import copy
import tracemalloc
import weakref

import numpy as np
import pytest

import sumlife.lifelong as lifelong
from sumlife.errors import TrainingDivergence
from sumlife.ingest import RDF_TYPE_IRI, SnapshotGraph, TermTable, build_snapshot, drop_rdf_types
from sumlife.lifelong import (
    LifelongReport,
    acc,
    bwt,
    evaluate_network,
    forgetting,
    fwt,
    omega,
    Task,
    TaskSequence,
    _task_rng,
    _train_on_task,
    prepare_tasks,
    run_sequence,
    time_warp,
)
from sumlife.features import TEST, TRAIN, ClassVocabulary, PredicateVocabulary
from sumlife.sampling import receptive_field
from sumlife.nets import Hyper, Network, network
from sumlife.nets.graphmlp import graphmlp_forward
from sumlife.nets.mlp import mlp_forward
from sumlife.nets.ops import gelu, relu
from sumlife.reporting import read_matrix_csv, write_matrix_csv
from oracles import position_of, reference_features
from synth import drift_sequence, ring_snapshot, predicate_pool, distinct_recipes

R3 = np.array([[0.9, 0.4, 0.3], [0.8, 0.85, 0.5], [0.7, 0.6, 0.8]])


def test_measure_fixtures_3x3():
    assert acc(R3) == pytest.approx(0.7, abs=1e-9)
    assert bwt(R3) == pytest.approx(-0.225, abs=1e-9)
    assert fwt(R3) == pytest.approx(-0.375, abs=1e-9)
    ob, on, oa = omega(R3)
    assert ob == pytest.approx(0.75 / 0.9, abs=1e-9)
    assert on == pytest.approx(0.825, abs=1e-9)
    assert oa == pytest.approx((0.71666666666666667 + 0.7) / 2 / 0.9, abs=1e-9)
    assert forgetting(R3, 3) == pytest.approx(0.225, abs=1e-9)
    assert forgetting(R3, 2) == pytest.approx(0.9 - 0.8, abs=1e-9)


def test_measures_constant_matrix():
    c = np.full((5, 5), 0.37)
    assert acc(c) == 0.37
    assert bwt(c) == 0.0
    assert fwt(c) == 0.0
    assert omega(c) == (1.0, pytest.approx(0.37), 1.0)
    for k in range(2, 6):
        assert forgetting(c, k) == 0.0


def test_measures_sign_properties():
    improving = np.array([[0.5, 0.2], [0.8, 0.9]])
    assert bwt(improving) > 0
    declining_cols = np.array([[0.9, 0.1], [0.5, 0.95]])
    assert forgetting(declining_cols, 2) == pytest.approx(0.4)


def test_small_matrix_errors():
    one = np.array([[0.5]])
    assert acc(one) == 0.5
    with pytest.raises(ValueError):
        bwt(one)
    with pytest.raises(ValueError):
        fwt(one)
    with pytest.raises(ValueError):
        omega(one)
    with pytest.raises(ValueError):
        omega(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        forgetting(R3, 4)


def test_report_from_matrix_and_t1():
    rep = LifelongReport.from_matrix(R3)
    assert rep.bwt == pytest.approx(-0.225, abs=1e-9)
    assert rep.forgetting[3] == pytest.approx(0.225, abs=1e-9)
    rep1 = LifelongReport.from_matrix(np.array([[0.8]]))
    assert rep1.acc == 0.8
    assert rep1.bwt is None and rep1.fwt is None


def test_report_zero_diagonal_leaves_omega_null():
    r = np.array([[0.0, 0.5], [0.25, 0.0]])
    rep = LifelongReport.from_matrix(r)
    assert rep.omega_base is None and rep.omega_new is None and rep.omega_all is None
    assert rep.acc == 0.125 and rep.bwt == 0.25 and rep.fwt == 0.5
    assert rep.forgetting == {2: -0.25}
    with pytest.raises(ValueError, match="all diagonal accuracies are zero"):
        omega(r)


def test_matrix_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    r = rng.random((4, 4))
    path = tmp_path / "R.csv"
    write_matrix_csv(path, r, [f"t{i}" for i in range(4)])
    r2, labels = read_matrix_csv(path)
    assert labels == ["t0", "t1", "t2", "t3"]
    assert np.array_equal(r, r2)
    rep1 = LifelongReport.from_matrix(r)
    rep2 = LifelongReport.from_matrix(r2)
    assert rep1.to_dict() == rep2.to_dict()


def test_matrix_csv_quotes_only_labels_that_need_it(tmp_path):
    r = np.array([[0.5, 0.25], [1.0, 0.125]])
    path = tmp_path / "R.csv"
    write_matrix_csv(path, r, ["t0", "t1"])
    assert path.read_bytes() == b"trained_through,t0,t1\nt0,0.5,0.25\nt1,1.0,0.125\n"
    labels = ["a,1", 'b"2\nc']
    write_matrix_csv(path, r, labels)
    assert path.read_bytes().startswith(b'trained_through,"a,1","b""2\nc"\n"a,1",0.5,0.25\n')
    r2, labels2 = read_matrix_csv(path)
    assert labels2 == labels and np.array_equal(r, r2)


def quick_seq(n_tasks=2, members=20):
    snaps = drift_sequence(n_tasks, 2, 3, members)
    return prepare_tasks(snaps, "ac1", seed=5)


def test_prepare_rejects_unsorted_timestamps():
    snaps = drift_sequence(2, 1, 2, 10)
    with pytest.raises(ValueError):
        prepare_tasks(list(reversed(snaps)), "ac1", seed=1)


class _WeakTermTable(TermTable):
    """A term table that takes weak references (``TermTable`` has slots)."""


def test_prepare_tasks_lets_go_of_each_term_table_before_the_next_snapshot():
    """Fed a generator, ``prepare_tasks`` holds one snapshot's term table at
    a time: each is gone before the next snapshot is drawn, and no task keeps one."""
    tables = []

    def snapshots():
        for timestamp, g in drift_sequence(3, 2, 3, 10):
            assert [ref() for ref in tables] == [None] * len(tables), "a term table is still held"
            table = _WeakTermTable()
            for token in g.terms.tokens:
                table[token]  # interns the token
            tables.append(weakref.ref(table))
            yield timestamp, SnapshotGraph(timestamp, table, g.vertex_ids, g.indptr, g.edge_pred,
                                           g.edge_obj)
            del table

    seq = prepare_tasks(snapshots(), "ac1", seed=5)
    assert len(tables) == 3 and tables[-1]() is None
    assert all(task.graph.terms is None for task in seq.tasks)
    want = quick_seq(3, 10)
    for task, other in zip(seq.tasks, want.tasks):
        assert task.labels.tolist() == other.labels.tolist()
        assert task.graph.edge_pred.tolist() == other.graph.edge_pred.tolist()
        assert task.pred_width == other.pred_width


def test_vocab_widths_monotone_and_match_tasks():
    seq = quick_seq(3)
    widths = [t.class_width for t in seq.tasks]
    assert widths == sorted(widths)
    assert seq.class_vocab.width == widths[-1]
    pred_widths = [t.pred_width for t in seq.tasks]
    assert pred_widths == sorted(pred_widths)


def test_single_task_matrix():
    seq = quick_seq(1)
    _, r, _ = run_sequence(seq, "mlp", Hyper(), "warm", seed=3, iterations=15)
    assert r.shape == (1, 1)
    assert 0.0 <= r[0, 0] <= 1.0


def test_run_deterministic():
    seq = quick_seq(2)
    _, r1, _ = run_sequence(seq, "mlp", Hyper(), "warm", seed=11, iterations=10)
    _, r2, _ = run_sequence(seq, "mlp", Hyper(), "warm", seed=11, iterations=10)
    assert np.array_equal(r1, r2)


def test_threads_do_not_change_results():
    seq = quick_seq(2)
    _, r1, _ = run_sequence(seq, "mlp", Hyper(), "warm", seed=11, iterations=8, threads=1)
    _, r2, _ = run_sequence(seq, "mlp", Hyper(), "warm", seed=11, iterations=8, threads=3)
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("arch", ["gcn", "gcn-edges"])
def test_threads_do_not_change_message_passing_results(arch):
    seq = prepare_tasks(drift_sequence(2, 2, 3, 20), "ac2", seed=5)
    runs = [run_sequence(seq, arch, Hyper(), "warm", seed=11, iterations=6, threads=threads)
            for threads in (1, 3)]
    (_, r1, d1), (_, r3, d3) = runs
    assert r1.tobytes() == r3.tobytes() and d1 == d3
    assert 0.0 < r1.max()


def test_gcn_edges_evaluation_transforms_only_the_test_rows_component(monkeypatch):
    # two disjoint rings; every test row lies in the first
    triples = [(f"http://{c}{i}", f"http://p{i % 3}", f"http://{c}{(i + 1) % 12}")
               for c in "ab" for i in range(12)]
    g = build_snapshot("t0", triples)
    seq = prepare_tasks([("t0", g)], "ac2", seed=1)
    task = seq.tasks[0]
    first = np.array([position_of(g, f"http://a{i}") for i in range(12)])
    task.split = np.full(g.num_vertices, TRAIN, dtype=task.split.dtype)
    task.split[first[:3]] = TEST
    net = Network.create("gcn-edges", task.pred_width, task.class_width, Hyper(),
                         np.random.default_rng(1))
    batches, inputs = [], []
    field, forward = lifelong.receptive_field, network.gcn_forward

    def recording_field(*args):
        batches.append(field(*args))
        return batches[-1]

    def recording_forward(params, x, *args):
        inputs.append(x)
        return forward(params, x, *args)

    monkeypatch.setattr(lifelong, "receptive_field", recording_field)
    monkeypatch.setattr(network, "gcn_forward", recording_forward)
    evaluate_network(net, task)
    (batch,), (x,) = batches, inputs
    assert batch.num_vertices > 3 and np.isin(batch.vertices, first).all()
    # the network's input: the field's vertices, then one vertex per field edge
    assert len(x) == batch.num_vertices + batch.num_edges > batch.num_vertices


def test_warm_cold_share_first_task_row():
    seq = quick_seq(2)
    _, rw, _ = run_sequence(seq, "mlp", Hyper(), "warm", seed=11, iterations=10)
    _, rc, _ = run_sequence(seq, "mlp", Hyper(), "cold", seed=11, iterations=10)
    assert np.array_equal(rw[0], rc[0])


def test_identical_snapshots_equal_rows():
    pool = predicate_pool(3)
    recipes = distinct_recipes(pool, 4)
    snaps = [
        (f"2012-05-{6 + i:02d}", ring_snapshot("s", recipes, 25)) for i in range(3)
    ]
    seq = prepare_tasks(snaps, "ac1", seed=2)
    _, r, _ = run_sequence(seq, "mlp", Hyper(), "warm", seed=2, iterations=25)
    for i in range(3):
        assert np.ptp(r[i]) <= 0.02


def test_checkpoint_widths_track_cumulative_classes():
    seq = quick_seq(3)
    ckpts, _, diag = run_sequence(seq, "mlp", Hyper(), "warm", seed=1, iterations=5)
    for net, task in zip(ckpts, seq.tasks):
        assert net.n_classes == task.class_width
        assert net.n_in == task.pred_width
    assert [d["class_width"] for d in diag] == [t.class_width for t in seq.tasks]


def test_unseen_classes_count_as_errors():
    seq = quick_seq(2)
    ckpts, r, diag = run_sequence(seq, "mlp", Hyper(), "warm", seed=7, iterations=20)
    # first checkpoint evaluated on task 2: its unique classes are unseen
    acc01, unseen01 = evaluate_network(ckpts[0], seq.tasks[1])
    assert unseen01 > 0.0
    assert acc01 <= 1.0 - unseen01 + 1e-9
    assert diag[0]["unseen_fraction"][1] == unseen01


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reported_with_task_and_step():
    seq = quick_seq(1)
    with pytest.raises(TrainingDivergence) as exc_info:
        # absurd learning rate forces overflow into inf/nan quickly
        run_sequence(seq, "mlp", Hyper(learning_rate=1e300), "warm", seed=1, iterations=5)
    assert exc_info.value.task_index == 0


def test_train_loss_curve_exposed():
    seq = quick_seq(1)
    (_, _, d1), (_, _, d3) = [
        run_sequence(seq, "mlp", Hyper(), "warm", seed=1, iterations=6, threads=threads)
        for threads in (1, 3)]
    curve = d1[0]["train_loss"]
    assert len(curve) == 6 and np.isfinite(curve).all()
    assert "val_accuracy" not in d1[0]
    assert d1 == d3


@pytest.mark.parametrize("arch", ["graph-mlp", "gcn", "gcn-edges"])
def test_other_architectures_end_to_end(arch):
    snaps = drift_sequence(2, 2, 3, 12)
    seq = prepare_tasks(snaps, "ac2", seed=4)
    hyper = Hyper(hidden=[8] if arch != "gcn-edges" else [8, 8])
    ckpts, r, _ = run_sequence(
        seq, arch, hyper, "warm", seed=4, iterations=8, batch_cap=200
    )
    assert np.isfinite(r).all()
    assert (r >= 0).all() and (r <= 1).all()
    _, r2, _ = run_sequence(
        seq, arch, hyper, "warm", seed=4, iterations=8, batch_cap=200
    )
    assert np.array_equal(r, r2)


def test_gcn_learns_separable_task():
    pool = predicate_pool(3)
    recipes = distinct_recipes(pool, 4)
    snaps = [("t0", ring_snapshot("t0", recipes, 25))]
    seq = prepare_tasks(snaps, "ac2", seed=6)
    ckpts, r, _ = run_sequence(
        seq, "gcn", Hyper(hidden=[16]), "warm", seed=6, iterations=40, batch_cap=500
    )
    assert r[0, 0] >= 0.5


def test_time_warp_protocol():
    snaps = drift_sequence(2, 0, 4, 20)  # no shared classes: disjoint tasks
    old_seq = prepare_tasks(snaps[:1], "ac1", seed=3)
    ckpts, _, _ = run_sequence(old_seq, "mlp", Hyper(), "warm", seed=3, iterations=25)
    result = time_warp(
        ckpts[-1], old_seq.pred_vocab, old_seq.class_vocab, snaps[1],
        "ac1", seed=3, iterations=25,
    )
    assert result["frozen_accuracy"] < 0.05
    assert result["frozen_unseen_fraction"] > 0.9
    assert abs(result["retrained_accuracy"] - result["cold_accuracy"]) <= 0.05
    assert result["retrained_accuracy"] > 0.9


def test_time_warp_arms_train_the_checkpoints_network():
    """With no architecture or hyperparameters passed, the from-scratch arm is
    the checkpoint's network: a gcn of its hidden sizes and learning rate,
    trained as a cold ``run_sequence`` of them trains the same one task.  An
    mlp, the architecture setting's default, scores otherwise here."""
    snaps = drift_sequence(2, 2, 3, 20)
    old_seq = prepare_tasks(snaps[:1], "ac1", seed=4)
    pv, cv = copy.deepcopy(old_seq.pred_vocab), copy.deepcopy(old_seq.class_vocab)
    (ckpt,), _, _ = run_sequence(old_seq, "gcn", Hyper(hidden=[5, 3], learning_rate=0.05),
                                 seed=4, iterations=6)
    result = time_warp(ckpt, old_seq.pred_vocab, old_seq.class_vocab, snaps[1], "ac1",
                       seed=4, iterations=6)
    seq = prepare_tasks(snaps[1:], "ac1", 4, pv, cv)
    cold = {arch: run_sequence(seq, arch, hyper, "cold", seed=4, iterations=6)[1][0, 0]
            for arch, hyper in (("gcn", ckpt.hyper), ("mlp", Hyper()))}
    assert result["cold_accuracy"] == cold["gcn"] != cold["mlp"]


def test_include_rdf_types_reaches_gcn_batches(monkeypatch):
    triples = [(f"http://v{i}", "http://p", f"http://v{(i + 1) % 12}") for i in range(12)]
    triples += [(f"http://v{i}", RDF_TYPE_IRI, f"http://T{i % 2}") for i in range(12)]
    g = build_snapshot("t0", triples)
    batches = {"sample_batch": [], "receptive_field": []}

    def recording(fn, seen):
        def wrapper(*args, **kwargs):
            seen.append(fn(*args, **kwargs))
            return seen[-1]
        return wrapper

    for name, seen in batches.items():
        monkeypatch.setattr(lifelong, name, recording(getattr(lifelong, name), seen))
    # the full graph feeds rdf:type edges to every batch, the dropped graph to none
    for graph, typed in ((g, True), (drop_rdf_types(g), False)):
        for seen in batches.values():
            seen.clear()
        seq = prepare_tasks([("t0", graph)], "ac1", seed=1)
        assert (RDF_TYPE_IRI in seq.pred_vocab) == typed
        type_col = seq.pred_vocab.index(RDF_TYPE_IRI) if typed else -1
        run_sequence(seq, "gcn", Hyper(hidden=[4]), "warm", seed=1, iterations=2, batch_cap=50)
        for name, seen in batches.items():
            assert seen, name
            assert all((b.edge_col == type_col).any() == typed for b in seen), name


def _by_hand_logits(net, x):
    """Eval-mode logits of a feature-only network, written out from its parameters."""
    p = net.params
    x = x[:, : net.n_in]
    if net.arch == "mlp":
        return relu(x @ p.w0 + p.b0) @ p.w_out + p.b_out
    return gelu(x @ p.w0) @ p.w1 @ p.w2


@pytest.mark.parametrize("arch", ["mlp", "graph-mlp"])
def test_feature_only_networks_read_no_hop(arch):
    # a task keeps no term table, so the reference encoder reads the snapshots
    graphs = dict(drift_sequence(2, 2, 3, 20))
    seq = quick_seq(2)
    nets, r, diag = run_sequence(seq, arch, Hyper(hidden=[8]), "warm", seed=3, iterations=6)
    assert [net.receptive_hops for net in nets] == [0, 0]
    for i, net in enumerate(nets):
        for task in seq.tasks:
            rows = np.flatnonzero(task.split == TEST)
            labels = task.labels[rows]
            x = reference_features(graphs[task.timestamp], seq.pred_vocab)[rows]
            logits = _by_hand_logits(net, x)
            unseen = labels >= logits.shape[1]
            correct = (np.argmax(logits, axis=1) == labels) & ~unseen
            assert evaluate_network(net, task) == (float(correct.mean()), float(unseen.mean()))
            assert r[i, task.index] == correct.mean()
            assert diag[i]["unseen_fraction"][task.index] == unseen.mean()


@pytest.mark.parametrize("arch", ["mlp", "graph-mlp"])
def test_zero_hop_batch_logits_are_the_feature_rows_logits(arch):
    ((_, g),) = drift_sequence(1, 2, 3, 20)
    seq = quick_seq(1)
    task = seq.tasks[0]
    net = Network.create(arch, task.pred_width, task.class_width, Hyper(hidden=[8]),
                         np.random.default_rng(2))
    rows = np.flatnonzero(task.split == TEST)
    batch = receptive_field(task.graph, task.labels, rows, 0)
    x = reference_features(g, seq.pred_vocab)[rows][:, : net.n_in]
    bare = mlp_forward(net.params, x)[0] if arch == "mlp" else graphmlp_forward(net.params, x)[1]
    assert net.batch_logits(batch)[batch.target_idx].tobytes() == bare.tobytes()


def _wide_snapshot():
    """3 000 vertices and 6 000 random edges over 2 000 predicates."""
    rng = np.random.default_rng(0)
    n, e, p = 3000, 6000, 2000
    ends = zip(rng.integers(0, n, e), rng.integers(0, p, e), rng.integers(0, n, e))
    return build_snapshot("t0", [(f"http://v{s}", f"http://p{q}", f"http://v{o}") for s, q, o in ends])


@pytest.mark.parametrize("model", ["ac1", "ac2"])
def test_prepare_tasks_memory_grows_with_vertices_and_edges(model):
    g = _wide_snapshot()
    tracemalloc.start()
    try:
        seq = prepare_tasks([("t0", g)], model, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.pred_vocab.width > 1800
    # a dense V x P float64 feature matrix alone would take 45 MB, 600 x this budget
    assert peak < 64 * (g.num_vertices + len(g.edge_obj)) * 8, peak


def _array_bytes(batch) -> int:
    return sum(a.nbytes for a in vars(batch).values() if isinstance(a, np.ndarray))


def test_batch_arrays_do_not_grow_with_the_vocabulary():
    """At 2 000 predicates, sampled and receptive-field batches hold at most
    8 int64 entries per batch vertex and out-edge: a batch lists its
    vertices' feature columns, so no array is as wide as the vocabulary (a
    dense float32 row here is the bytes of about 950 entries)."""
    seq = prepare_tasks([("t0", _wide_snapshot())], "ac2", seed=1)
    task = seq.tasks[0]
    assert seq.pred_vocab.width > 1800
    g, k = task.graph, 2
    degrees = g.out_degrees()
    distribution = lifelong.target_distribution(task.labels, task.split)
    batches = [lifelong.sample_batch(g, task.labels, distribution, k, cap=1000,
                                     rng=np.random.default_rng(1))]
    for rows, hops in ((np.flatnonzero(task.split == TEST), 2), (np.arange(g.num_vertices), 0)):
        batches.append(lifelong.receptive_field(g, task.labels, rows, hops))
    for b in batches:
        size = b.num_vertices + int(degrees[b.vertices].sum())  # vertices and their out-edges
        assert _array_bytes(b) <= 8 * 8 * size, (b.num_vertices, _array_bytes(b))


def test_training_memory_does_not_grow_with_the_targets_drawn():
    """Sampling keeps nothing between batches: 24 iterations of 2-hop
    batches, whose closures hold up to 31 vertices, peak no higher than 3
    iterations plus two batches' arrays, although most targets they draw
    are new."""
    rng = np.random.default_rng(0)
    n, degree, width = 4000, 5, 6
    g = SnapshotGraph("t0", None, np.arange(n, dtype=np.int64),
                      np.arange(0, n * degree + 1, degree, dtype=np.int64),
                      rng.integers(0, width, n * degree), rng.integers(0, n, n * degree))
    task = Task(index=0, timestamp="t0", graph=g, labels=np.arange(n, dtype=np.int64) % 4,
                split=np.where(rng.random(n) < 0.6, TRAIN, TEST).astype(np.int8), pred_width=width,
                class_width=4)
    seq = TaskSequence(tasks=[task], pred_vocab=PredicateVocabulary(), class_vocab=ClassVocabulary(),
                       model="ac2")
    batch = lifelong.sample_batch(g, task.labels, lifelong.target_distribution(task.labels, task.split),
                                  2, cap=1000, rng=np.random.default_rng(1))
    batch_bytes = _array_bytes(batch)

    def peak(iterations: int) -> int:
        net = Network.create("gcn", width, 4, Hyper(hidden=[8]), np.random.default_rng(2))
        tracemalloc.start()
        try:
            _train_on_task(net, task, seq, iterations, 1000, _task_rng(1, 0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(3), peak(24)
    assert long <= short + 2 * batch_bytes, (short, long, batch_bytes)
