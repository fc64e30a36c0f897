"""Fast paths that must give bit-identical results to the computation they replace.

Compared by raw bytes, so -0.0 against 0.0 or a last-bit rounding change
fails.  CI runs this file a second time with two BLAS threads, because the
receptive-field check relies on a row subset of a matrix product being
bit-identical to the same rows of the full product.  That holds for the
narrow outputs of the exact tests.  The wide-output test bounds the
difference instead: float64 products of these networks differed past about
256 output columns; float32 (sgemm) ones, at inner widths up to 19, matched
at every width measured up to 3 000, but other BLAS builds may differ.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    position_of,
    reference_edge_matmul,
    reference_features,
    reference_full_graph_batch,
    reference_receptive_field,
)
from sumlife.features import TEST, TRAIN, VAL, encode_features
from sumlife.ingest import build_snapshot, drop_rdf_types
from sumlife.lifelong import evaluate_network, prepare_tasks
from sumlife.nets import Hyper, Network
from sumlife.nets.gcn import batch_adjacency
from sumlife.nets.ops import _SCATTER_BLOCK, DTYPE, scatter_add
from sumlife.sampling import edge_as_vertex_transform, receptive_field
from synth import random_graph
from test_sampling import assert_same_batch, oracle_task

# -0.0 and exact zeros are drawn often; magnitudes far apart make the sum order show
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
)


@st.composite
def scatter_cases(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 64))
    hub = draw(st.integers(0, n - 1))
    # many terms on one hub row, repeats elsewhere, and rows that receive nothing
    rows = draw(st.lists(st.one_of(st.just(hub), st.integers(0, n - 1)), max_size=40))
    rows = np.array(rows, dtype=np.int64)
    out = draw(hnp.arrays(np.float64, (n, d), elements=VALUES))
    vals = draw(hnp.arrays(np.float64, (len(rows), d), elements=VALUES))
    return out, rows, vals


@settings(max_examples=200, deadline=None)
@given(scatter_cases())
def test_scatter_add_matches_2d_add_at(case):
    out, rows, vals = case
    want = out.copy()
    np.add.at(want, rows, vals)
    got = out.copy()
    scatter_add(got, rows, vals)
    assert got.tobytes() == want.tobytes()


def test_scatter_add_refuses_a_strided_output():
    out = np.zeros((4, 6))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        scatter_add(out, np.array([0]), np.ones((1, 3)))


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_edge_list_products_match_add_at_reference(seed, normalize):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    e = int(rng.integers(0, 4 * n))
    # a hub row with in- and out-degree near n, parallel edges and self-loops
    src = np.concatenate([rng.integers(0, n, size=e), np.zeros(n, dtype=np.int64), [0]])
    dst = np.concatenate([rng.integers(0, n, size=e), np.arange(n), [0]])
    adj = batch_adjacency(n, src, dst, normalize)
    h = rng.normal(size=(n, int(rng.integers(1, 65))))
    h[rng.random(h.shape) < 0.2] = -0.0
    for h in (h, h.astype(DTYPE)):  # weights rounded to h's dtype, terms summed in it
        assert (adj @ h).dtype == h.dtype
        assert (adj @ h).tobytes() == reference_edge_matmul(adj, h).tobytes()
        assert (adj.T @ h).tobytes() == reference_edge_matmul(adj, h, transpose=True).tobytes()


def _many_edges(rng, n: int, e: int):
    """``e`` distinct random edges among ``n`` vertices (self-loops included,
    which the adjacency drops)."""
    return np.divmod(rng.choice(n * n, size=e, replace=False), n)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("d", [3, 64, 200])
def test_edge_list_products_span_several_scatter_blocks(d, normalize):
    """Messages are gathered one scatter block at a time; an edge list of
    several blocks still sums each row's terms as the one-array reference."""
    rng = np.random.default_rng(d)
    n = 200
    step = _SCATTER_BLOCK // d
    adj = batch_adjacency(n, *_many_edges(rng, n, min(3 * step + 17, n * n // 2)), normalize)
    assert len(adj.src) > 2 * step
    h = rng.normal(size=(n, d))
    h[rng.random(h.shape) < 0.2] = -0.0
    for h in (h, h.astype(DTYPE)):
        assert (adj @ h).tobytes() == reference_edge_matmul(adj, h).tobytes()
        assert (adj.T @ h).tobytes() == reference_edge_matmul(adj, h, transpose=True).tobytes()


@pytest.mark.parametrize("normalize", [False, True])
def test_edge_list_product_holds_no_message_array(normalize):
    """With E much larger than n, ``adj @ h`` holds its n x d output and one
    block of messages and indices, never an E x d array (10 MB here)."""
    rng = np.random.default_rng(1)
    n, e, d = 200, 20_000, 64
    adj = batch_adjacency(n, *_many_edges(rng, n, e), normalize)
    h = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        out = adj @ h
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, d)
    assert peak < 4 * n * d * h.itemsize + 4 * _SCATTER_BLOCK * 8, peak


def _task(seed: int):
    g, _, _ = random_graph(np.random.default_rng(seed), max_vertices=150, max_edges=500)
    seq = prepare_tasks([("t", g)], "ac2", seed=seed)
    return seq, seq.tasks[0]


def _field(seq, task, net, rows, hops):
    """The receptive-field batch of ``rows`` that ``net`` runs on, as evaluation builds it."""
    batch = receptive_field(task.graph, task.labels, task.edge_col, task.feature_width, rows, hops, 2)
    if net.arch == "gcn-edges":
        batch = edge_as_vertex_transform(batch)
    return batch


@pytest.mark.parametrize("hops", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_receptive_field_matches_cut_of_full_graph_batch(k, hops):
    g, labels, split, pv = oracle_task()
    rows_sets = [np.arange(g.num_vertices)] + [np.flatnonzero(split == s) for s in (TRAIN, VAL, TEST)]
    for run_graph, include_rdf_types in ((g, True), (drop_rdf_types(g), False)):
        x = reference_features(run_graph, pv)
        full = reference_full_graph_batch(g, labels, x, k, include_rdf_types)
        for rows in rows_sets:
            b = receptive_field(run_graph, labels, encode_features(run_graph, pv), pv.width, rows, hops, k)
            assert_same_batch(b, reference_receptive_field(full, rows, hops), g, pv)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("arch", ["gcn", "gcn-edges"])
def test_receptive_field_logits_match_full_graph(arch, normalize, layers):
    for seed in range(3):
        seq, task = _task(seed)
        rng = np.random.default_rng(seed)
        hyper = Hyper(hidden=[8, 6, 5][:layers], normalize_adjacency=normalize)
        net = Network.create(arch, task.pred_width, task.class_width, hyper, rng)
        full = net.batch_logits(_field(seq, task, net, np.arange(task.graph.num_vertices), 0))
        for which in (TRAIN, VAL, TEST):
            rows = np.flatnonzero(task.split == which)
            part = _field(seq, task, net, rows, net.receptive_hops)
            assert np.array_equal(part.labels, task.labels[rows])
            logits = net.batch_logits(part)[part.target_idx]
            assert logits.tobytes() == full[rows].tobytes()
            if len(rows):
                correct = (np.argmax(full[rows], axis=1) == task.labels[rows]).mean()
                assert evaluate_network(net, task, seq, which)[0] == correct


def test_receptive_field_needs_the_extra_hop_under_normalization():
    # chain a -> b -> c: one hop short, b loses its out-edge, so its degree
    # and with it the weight of a's edge to b change; for gcn-edges a
    # snapshot hop is two batch hops, so three batch hops need two
    g = build_snapshot("t", [("http://a", "http://p", "http://b"), ("http://b", "http://p", "http://c")])
    seq = prepare_tasks([("t", g)], "ac2", seed=0)
    task = seq.tasks[0]
    rows = np.array([position_of(g, "http://a")])
    for arch, hidden in (("gcn", [4]), ("gcn-edges", [4, 4])):
        net = Network.create(arch, task.pred_width, task.class_width,
                             Hyper(hidden=hidden, normalize_adjacency=True), np.random.default_rng(0))
        assert net.receptive_hops == 2
        full = net.batch_logits(_field(seq, task, net, np.arange(g.num_vertices), 0))[rows]
        for hops, same in ((net.receptive_hops, True), (net.receptive_hops - 1, False)):
            part = _field(seq, task, net, rows, hops)
            assert (net.batch_logits(part)[part.target_idx].tobytes() == full.tobytes()) is same


@pytest.mark.parametrize("n_classes", [300, 476])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("arch", ["gcn", "gcn-edges"])
def test_receptive_field_logits_round_alike_at_wide_outputs(arch, normalize, n_classes):
    # At wide outputs a BLAS may compute a row subset of the output product
    # with other rounding than the full product (OpenBLAS did past about 256
    # columns in float64), so the logits of a receptive-field batch can differ
    # from a whole-snapshot pass in their last bits.  Predictions must still
    # match, and no logit may differ by more than a few units in the last
    # place of its row's largest logit.
    for layers in (1, 2, 3):
        for seed in range(3):
            seq, task = _task(seed)
            hyper = Hyper(hidden=[8, 6, 5][:layers], normalize_adjacency=normalize)
            rng = np.random.default_rng(seed)
            net = Network.create(arch, task.pred_width, n_classes, hyper, rng)
            full = net.batch_logits(_field(seq, task, net, np.arange(task.graph.num_vertices), 0))
            for which in (TRAIN, VAL, TEST):
                rows = np.flatnonzero(task.split == which)
                if not len(rows):
                    continue
                part = _field(seq, task, net, rows, net.receptive_hops)
                logits = net.batch_logits(part)[part.target_idx]
                want = full[rows]
                assert np.array_equal(np.argmax(logits, axis=1), np.argmax(want, axis=1))
                ulp = np.spacing(np.abs(want).max(axis=1, keepdims=True))
                assert (np.abs(logits - want) <= 8 * ulp).all()
                correct = (np.argmax(want, axis=1) == task.labels[rows]).mean()
                assert evaluate_network(net, task, seq, which)[0] == correct
