"""Networks compute only the rows a loss or a prediction reads.

``Network.train_step`` runs the classifier on the distinct target rows of a
batch and ``evaluate_network`` asks for the target rows' logits alone.  The
gradients must still be those of a pass over every batch vertex.  The MLP
draws dropout for its rows alone, but the rng must end where a mask over the
full batch shape leaves it (so the stream, and with it every later batch, is
unchanged), and a step must leave the very bytes of the reference step in
``oracles.py``, which draws full-batch float masks.  An MLP step must not
hold memory that grows with batch vertices x hidden units, nor an evaluation
with batch vertices x classes.  The target rows' logits must be the
same rows of a whole-snapshot pass: bit for bit at the narrow outputs of these
small networks, within a few units in the last place at 300 and 476 output
columns, where float64 products rounded a row subset otherwise; float32
(sgemm) products of these inner widths (up to 19) matched bit for bit at
every width measured up to 3 000.  CI also runs this file with two BLAS
threads.
"""

import tracemalloc

import numpy as np
import pytest

from gradcheck import float64, max_rel_error, small_problem
from oracles import feature_pairs, reference_train_step
from sumlife.features import TEST, TRAIN, VAL
from sumlife.ingest import build_snapshot
from sumlife.lifelong import evaluate_network, prepare_tasks
from sumlife.nets import Hyper, Network, network
from sumlife.nets.losses import cross_entropy
from sumlife.nets.ops import _DRAW_BYTES, DTYPE, dropout_mask, scatter_add
from sumlife.sampling import Subgraph
from test_bitwise import _field, _task

HIDDEN = {"mlp": [4], "graph-mlp": [4], "gcn": [4], "gcn-edges": [3, 3]}
FORWARDS = {"mlp": "mlp_forward", "graph-mlp": "graphmlp_forward",
            "gcn": "gcn_forward", "gcn-edges": "gcn_forward"}
N_CLASSES = 3


def _batch(seed: int) -> Subgraph:
    """Seven vertices, three accepted targets first; targets 1 and 5 repeat,
    5 sits after the closure vertices 3 and 4 (an earlier closure brought it
    in), and vertices 3, 4 and 6 are no target.  The multi-hot rows are
    where the fixture's features exceed 0.5 in magnitude, and edge i has
    column i mod 5."""
    x, _, src, dst = small_problem(seed, b=7)
    target_idx = np.array([1, 0, 5, 1, 2, 5, 5])
    vertex_labels = np.random.default_rng(seed).integers(0, N_CLASSES, size=7)
    return Subgraph(vertices=np.arange(7), target_idx=target_idx,
                    labels=vertex_labels[target_idx], edge_src=src, edge_dst=dst,
                    edge_col=np.arange(len(src)) % x.shape[1], **feature_pairs(np.abs(x) > 0.5))


def _net(arch: str, seed: int, dropout: float) -> Network:
    """A float64 network: its step is compared at float64 tolerances."""
    hyper = Hyper(hidden=HIDDEN[arch], dropout=dropout)
    return float64(Network.create(arch, 5, N_CLASSES, hyper, np.random.default_rng(seed + 100)))


def _captured_step(net: Network, batch: Subgraph, monkeypatch, rng_seed: int = 7):
    """(loss, gradients) of one ``train_step``; the Adam update is skipped,
    so the parameters are left as they were."""
    captured = {}
    monkeypatch.setattr(network, "adam_step", lambda params, grads, *a: captured.update(grads))
    loss = net.train_step(batch, net.new_adam(), np.random.default_rng(rng_seed))
    return loss, dict(captured)


def _full_rows_reference(net: Network, batch: Subgraph, rng_seed: int = 7):
    """(loss, gradients) computed the way every batch vertex used to be:
    logits for all rows and a zero loss gradient on the rows no target reads."""
    hyper = net.hyper
    logits, cache = net._forward(batch, np.random.default_rng(rng_seed))
    loss, dsel = cross_entropy(logits[batch.target_idx], batch.labels)
    dlogits = np.zeros_like(logits)
    scatter_add(dlogits, batch.target_idx, dsel)
    if net.arch == "graph-mlp":
        nc, dz_nc = network.graphmlp_contrast(cache["z"], batch.edge_src, batch.edge_dst, hyper.tau)
        return loss + hyper.alpha * nc, network.graphmlp_backward(net.params, cache, dlogits,
                                                                  hyper.alpha * dz_nc)
    if net.arch == "mlp":
        return loss, network.mlp_backward(net.params, cache, dlogits)
    return loss, network.gcn_backward(net.params, cache, dlogits)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("arch", list(HIDDEN))
def test_train_step_gradients_match_full_rows_reference(monkeypatch, arch, seed):
    batch = _batch(seed)
    net = _net(arch, seed, dropout=0.5)
    shapes = []
    forward = getattr(network, FORWARDS[arch])

    def recording(*args, **kwargs):
        out = forward(*args, **kwargs)
        shapes.append(out[-2].shape)  # the logits, before the cache
        return out

    monkeypatch.setattr(network, FORWARDS[arch], recording)
    loss, grads = _captured_step(net, batch, monkeypatch)
    assert shapes == [(len(np.unique(batch.target_idx)), N_CLASSES)]
    ref_loss, ref_grads = _full_rows_reference(net, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert grads.keys() == ref_grads.keys() == net.params.keys()
    for name, g in grads.items():
        assert np.allclose(g, ref_grads[name], rtol=1e-10, atol=1e-14), name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("arch", list(HIDDEN))
def test_train_step_gradients_pass_finite_differences(monkeypatch, arch, seed):
    batch = _batch(seed)
    net = _net(arch, seed, dropout=0.5)
    # each call re-seeds the step's rng, so the dropout masks stay put
    assert max_rel_error(lambda: _captured_step(net, batch, monkeypatch), net.params) < 1e-4


@pytest.mark.parametrize("arch", list(HIDDEN))
def test_dropout_masks_keep_the_full_batch_rng_stream(monkeypatch, arch):
    """A train step draws one mask per hidden layer at (input rows, width),
    however few rows it computes: the batch vertices, and gcn-edges' edge
    vertices after them.  A mask drawn at the target rows' count would shift
    every later draw of the task."""
    batch = _batch(3)
    net = _net(arch, 3, dropout=0.5)
    monkeypatch.setattr(network, "adam_step", lambda *a: None)
    rng = np.random.default_rng(11)
    net.train_step(batch, net.new_adam(), rng)
    ref = np.random.default_rng(11)
    input_rows = batch.num_vertices + (batch.num_edges if arch == "gcn-edges" else 0)
    for width in net.hyper.hidden:
        ref.random((input_rows, width))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("arch", ["gcn", "gcn-edges"])
def test_evaluation_builds_logits_for_the_target_rows_only(monkeypatch, arch):
    """A wide output layer on a receptive field much larger than its rows:
    evaluation memory must not grow with batch vertices x classes.  Doubling
    the classes would add a batch vertices x classes array of logits if the
    whole field were classified; the peak grows by less than half that."""
    n_classes = 800
    rng = np.random.default_rng(5)
    src, dst, pred = rng.integers(0, 300, 1500), rng.integers(0, 300, 1500), rng.integers(0, 8, 1500)
    g = build_snapshot("t", [(f"http://x/v{s}", f"http://x/p{p}", f"http://x/v{o}")
                             for s, p, o in zip(src, pred, dst)])
    seq = prepare_tasks([("t", g)], "ac2", seed=5)
    task = seq.tasks[0]
    net = Network.create(arch, task.pred_width, n_classes, Hyper(normalize_adjacency=True),
                         np.random.default_rng(5))
    rows = np.flatnonzero(task.split == TEST)
    seen = []
    forward = network.gcn_forward

    def recording(params, x, *args, **kwargs):
        logits, cache = forward(params, x, *args, **kwargs)
        seen.append((len(x), logits.shape))
        return logits, cache

    monkeypatch.setattr(network, "gcn_forward", recording)
    want = evaluate_network(net, task)
    ((batch_vertices, shape),) = seen
    assert shape == (len(rows), n_classes)
    assert batch_vertices > 4 * len(rows)  # the field is much wider than its rows

    monkeypatch.undo()
    wider = Network.create(arch, task.pred_width, 2 * n_classes, Hyper(normalize_adjacency=True),
                           np.random.default_rng(5))
    peaks = []
    for each, accuracy in ((net, want), (wider, None)):
        tracemalloc.start()
        try:
            got = evaluate_network(each, task)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert accuracy is None or got == accuracy
    assert peaks[1] - peaks[0] < batch_vertices * n_classes * DTYPE.itemsize / 2, peaks


@pytest.mark.parametrize("n_classes", [None, 300, 476])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("arch", ["gcn", "gcn-edges"])
def test_target_row_logits_match_a_whole_snapshot_pass(arch, normalize, n_classes):
    """The logits evaluation reads, ``batch_logits(part, part.target_idx)``,
    against the same rows of a pass over every vertex; None is the task's own
    narrow class count."""
    for layers in (1, 2, 3):
        for seed in range(3):
            _, task = _task(seed)
            hyper = Hyper(hidden=[8, 6, 5][:layers], normalize_adjacency=normalize)
            net = Network.create(arch, task.pred_width, n_classes or task.class_width, hyper,
                                 np.random.default_rng(seed))
            full = net.batch_logits(_field(task, np.arange(task.graph.num_vertices), 0))
            for which in (TRAIN, VAL, TEST):
                rows = np.flatnonzero(task.split == which)
                if not len(rows):
                    continue
                part = _field(task, rows, net.receptive_hops)
                logits, want = net.batch_logits(part, part.target_idx), full[rows]
                if n_classes is None:
                    assert net.n_classes < 256
                    assert logits.tobytes() == want.tobytes()
                else:
                    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(want, axis=1))
                    ulp = np.spacing(np.abs(want).max(axis=1, keepdims=True))
                    assert (np.abs(logits - want) <= 8 * ulp).all()


def _drawn(rows, buffered: bool, n: int = 9, width: int = 5):
    """(mask of ``rows``, rng state after it, next uint32) from one seeded rng;
    a 32-bit draw first leaves half a 64-bit word buffered when ``buffered``."""
    rng = np.random.default_rng(21)
    if buffered:
        rng.integers(0, 1 << 31, dtype=np.uint32)
    mask = dropout_mask(rng, (n, width), 0.5, rows)
    return mask, rng.bit_generator.state, rng.integers(0, 1 << 31, dtype=np.uint32)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("rows", [[], [4], [0], [8], [2, 3, 4], [0, 1, 5, 7, 8], list(range(9))],
                         ids=["empty", "single", "first", "last", "consecutive", "runs", "all"])
def test_row_dropout_mask_is_the_full_draw_cut_to_its_rows(rows, buffered):
    """Drawing only ``rows`` skips the others: the mask equals those rows of
    the full draw, and the rng state after it, buffered 32-bit half included,
    equals the full draw's."""
    mask, state, after = _drawn(np.array(rows, dtype=np.int64), buffered)
    full, full_state, full_after = _drawn(None, buffered)
    assert mask.dtype == bool and mask.shape == (len(rows), 5)
    assert np.array_equal(mask, full[rows])
    assert state == full_state
    assert after == full_after


@pytest.mark.parametrize("rows", [None, np.arange(0, 999, 3), np.arange(200, 700)],
                         ids=["all", "every_third", "one_run"])
def test_dropout_mask_draws_through_a_bounded_scratch(rows):
    """The boolean mask is written directly from a few rows of float64
    uniforms at a time: a 999 x 1 024 draw holds its mask and that scratch,
    never a float64 array of the mask's size (2.6 MiB for 333 rows), and it
    is still the full draw cut to its rows, with the rng left where that
    draw leaves it."""
    shape = (999, 1024)
    dropout_mask(np.random.default_rng(4), shape, 0.5, rows)  # warm up numpy's caches
    rng = np.random.default_rng(4)
    tracemalloc.start()
    try:
        mask = dropout_mask(rng, shape, 0.5, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mask.nbytes + 4 * _DRAW_BYTES, f"{peak / 2**20:.2f} MiB"
    full = np.random.default_rng(4)
    want = full.random(shape) >= 0.5
    assert np.array_equal(mask, want if rows is None else want[rows])
    assert rng.bit_generator.state == full.bit_generator.state


@pytest.mark.parametrize("rows", [[3, 1], [2, 2], [-1, 4], [8, 9]])
def test_row_dropout_mask_refuses_unsorted_repeated_or_outside_rows(rows):
    with pytest.raises(ValueError, match="rows"):
        dropout_mask(np.random.default_rng(0), (9, 5), 0.5, np.array(rows))


def _random_batch(rng: np.random.Generator, n_in: int, n_classes: int) -> Subgraph:
    """A batch of 30-80 multi-hot vertices, random edges and repeated targets."""
    n = int(rng.integers(30, 80))
    n_edges = int(rng.integers(n, 3 * n))
    src, dst = rng.integers(0, n, n_edges), rng.integers(0, n, n_edges)
    target_idx = rng.integers(0, n, int(rng.integers(5, n)))
    return Subgraph(vertices=np.arange(n), target_idx=target_idx,
                    labels=rng.integers(0, n_classes, len(target_idx)), edge_src=src, edge_dst=dst,
                    edge_col=np.arange(n_edges) % n_in, **feature_pairs(rng.random((n, n_in)) < 0.3))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("arch, hyper", [
    ("mlp", Hyper(hidden=[16], dropout=0.5)),
    ("graph-mlp", Hyper(hidden=[16])),
    ("gcn", Hyper(hidden=[16])),
    ("gcn-edges", Hyper(hidden=[8, 6], dropout=0.3, normalize_adjacency=True)),
], ids=["mlp", "graph-mlp", "gcn", "gcn-edges"])
def test_train_steps_are_bit_identical_to_the_reference_step(arch, hyper, seed):
    """Five steps sharing one rng leave the same parameter and Adam-moment
    bytes, and the same losses, as the step with full-batch float masks."""
    net = Network.create(arch, 12, 5, hyper, np.random.default_rng(seed))
    ref = net.clone()
    adam, ref_adam = net.new_adam(), ref.new_adam()
    rng, ref_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
    batches = np.random.default_rng(seed + 20)
    for _ in range(5):
        batch = _random_batch(batches, 12, 5)
        assert net.train_step(batch, adam, rng) == reference_train_step(ref, batch, ref_adam, ref_rng)
    for name, t in net.params.items():
        assert t.tobytes() == ref.params[name].tobytes(), name
        assert adam.m[name].tobytes() == ref_adam.m[name].tobytes(), name
        assert adam.v[name].tobytes() == ref_adam.v[name].tobytes(), name
    assert adam.t == ref_adam.t == 5
    assert rng.random() == ref_rng.random()


def test_mlp_train_step_memory_holds_only_the_target_rows():
    """A 1 000-vertex batch with 100 distinct targets at 1 024 hidden units:
    the step holds target rows x hidden arrays, never a mask or an activation
    over every batch vertex: its peak stays under one boolean mask over every
    vertex, n x hidden bytes."""
    rng = np.random.default_rng(3)
    n, hidden, n_in, n_classes = 1000, 1024, 40, 30
    targets = rng.choice(n, 100, replace=False)
    target_idx = np.concatenate([targets, rng.choice(targets, 200)])
    batch = Subgraph(vertices=np.arange(n), target_idx=target_idx,
                     labels=rng.integers(0, n_classes, len(target_idx)),
                     edge_src=np.zeros(0, dtype=np.int64), edge_dst=np.zeros(0, dtype=np.int64),
                     edge_col=np.zeros(0, dtype=np.int64),
                     **feature_pairs(rng.random((n, n_in)) < 0.1))
    net = Network.create("mlp", n_in, n_classes, Hyper(hidden=[hidden]), rng)
    adam = net.new_adam()
    net.train_step(batch, adam, rng)  # warm up numpy's caches
    tracemalloc.start()
    try:
        net.train_step(batch, adam, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * hidden, f"{peak / 2**20:.2f} MiB"
