"""Networks compute only the rows a loss or a prediction reads.

``Network.train_step`` runs the classifier on the distinct target rows of a
batch and ``evaluate_network`` asks for the target rows' logits alone.  The
gradients must still be those of a pass over every batch vertex, the dropout
masks must still be drawn at the full batch shape (so the rng stream, and
with it every later batch, is unchanged), and evaluation memory must not
grow with batch vertices x classes.  The target rows' logits must be the
same rows of a whole-snapshot pass: bit for bit at narrow outputs, within a
few units in the last place past about 256 output columns.  CI also runs this
file with two BLAS threads.
"""

import tracemalloc

import numpy as np
import pytest

from gradcheck import max_rel_error, small_problem
from sumlife.features import TEST, TRAIN, VAL
from sumlife.ingest import build_snapshot
from sumlife.lifelong import evaluate_network, prepare_tasks
from sumlife.nets import Hyper, Network, network
from sumlife.nets.losses import cross_entropy
from sumlife.nets.ops import scatter_add
from sumlife.sampling import Subgraph
from test_bitwise import _field, _task

HIDDEN = {"mlp": [4], "graph-mlp": [4], "gcn": [4], "gcn-edges": [3, 3]}
FORWARDS = {"mlp": "mlp_forward", "graph-mlp": "graphmlp_forward",
            "gcn": "gcn_forward", "gcn-edges": "gcn_forward"}
N_CLASSES = 3


def _batch(seed: int) -> Subgraph:
    """Seven vertices, three accepted targets first; targets 1 and 5 repeat,
    5 sits past ``n_targets`` (an earlier closure brought it in), and
    vertices 3, 4 and 6 are no target."""
    x, _, src, dst = small_problem(seed, b=7)
    target_idx = np.array([1, 0, 5, 1, 2, 5, 5])
    vertex_labels = np.random.default_rng(seed).integers(0, N_CLASSES, size=7)
    return Subgraph(vertices=np.arange(7), n_targets=3, target_idx=target_idx,
                    labels=vertex_labels[target_idx], edge_src=src, edge_dst=dst,
                    edge_col=np.full(len(src), -1), features=x, k=2)


def _net(arch: str, seed: int, dropout: float) -> Network:
    hyper = Hyper(hidden=HIDDEN[arch], dropout=dropout)
    return Network.create(arch, 5, N_CLASSES, hyper, np.random.default_rng(seed + 100))


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
    assert grads.keys() == ref_grads.keys() == net.params.tensors().keys()
    for name, g in grads.items():
        assert np.allclose(g, ref_grads[name], rtol=1e-10, atol=1e-14), name


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("arch", list(HIDDEN))
def test_train_step_gradients_pass_finite_differences(monkeypatch, arch, seed):
    batch = _batch(seed)
    net = _net(arch, seed, dropout=0.5)
    # each call re-seeds the step's rng, so the dropout masks stay put
    assert max_rel_error(lambda: _captured_step(net, batch, monkeypatch), net.params.tensors()) < 1e-4


@pytest.mark.parametrize("arch", list(HIDDEN))
def test_dropout_masks_keep_the_full_batch_rng_stream(monkeypatch, arch):
    """A train step draws one mask per hidden layer at (batch vertices, width),
    however few rows it computes; a mask drawn at the target rows' count
    would shift every later draw of the task."""
    batch = _batch(3)
    net = _net(arch, 3, dropout=0.5)
    monkeypatch.setattr(network, "adam_step", lambda *a: None)
    rng = np.random.default_rng(11)
    net.train_step(batch, net.new_adam(), rng)
    ref = np.random.default_rng(11)
    for width in net.hyper.hidden:
        ref.random((batch.num_vertices, width))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("arch", ["gcn", "gcn-edges"])
def test_evaluation_builds_logits_for_the_target_rows_only(monkeypatch, arch):
    """A wide output layer on a receptive field much larger than its rows:
    evaluation memory must not grow with batch vertices x classes."""
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
    want = evaluate_network(net, task, seq)
    ((batch_vertices, shape),) = seen
    assert shape == (len(rows), n_classes)
    assert batch_vertices > 4 * len(rows)  # the field is much wider than its rows

    monkeypatch.undo()
    tracemalloc.start()
    try:
        assert evaluate_network(net, task, seq) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < batch_vertices * n_classes * 8


@pytest.mark.parametrize("n_classes", [None, 300, 476])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("arch", ["gcn", "gcn-edges"])
def test_target_row_logits_match_a_whole_snapshot_pass(arch, normalize, n_classes):
    """The logits evaluation reads, ``batch_logits(part, part.target_idx)``,
    against the same rows of a pass over every vertex; None is the task's own
    narrow class count."""
    for layers in (1, 2, 3):
        for seed in range(3):
            seq, task = _task(seed)
            hyper = Hyper(hidden=[8, 6, 5][:layers], normalize_adjacency=normalize)
            net = Network.create(arch, task.pred_width, n_classes or task.class_width, hyper,
                                 np.random.default_rng(seed))
            full = net.batch_logits(_field(seq, task, net, np.arange(task.graph.num_vertices), 0))
            for which in (TRAIN, VAL, TEST):
                rows = np.flatnonzero(task.split == which)
                if not len(rows):
                    continue
                part = _field(seq, task, net, rows, net.receptive_hops)
                logits, want = net.batch_logits(part, part.target_idx), full[rows]
                if n_classes is None:
                    assert net.n_classes < 256
                    assert logits.tobytes() == want.tobytes()
                else:
                    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(want, axis=1))
                    ulp = np.spacing(np.abs(want).max(axis=1, keepdims=True))
                    assert (np.abs(logits - want) <= 8 * ulp).all()
