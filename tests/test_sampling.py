import numpy as np
import pytest
from scipy import stats as scipy_stats

from oracles import (
    _reference_target_distribution,
    batch_rows,
    position_of,
    reference_features,
    reference_edge_vertices,
    reference_full_graph_batch,
    reference_sample_batch,
)
from sumlife.features import TEST, TRAIN, PredicateVocabulary, encode_features, split_vertices
from sumlife.ingest import RDF_TYPE_IRI, SnapshotGraph, build_snapshot, drop_rdf_types, filter_high_degree
from sumlife.nets import Hyper, Network, network
from sumlife.nets.gcn import batch_adjacency
from sumlife.sampling import class_weights, receptive_field, sample_batch, target_distribution
from synth import ring_snapshot, predicate_pool, distinct_recipes


def test_class_weights_inverse_frequency():
    w = class_weights(np.array([0, 0, 0, 1]))
    assert w[0] == pytest.approx(0.25)
    assert w[1] == pytest.approx(0.75)


def test_class_weights_uniform_and_single():
    w = class_weights(np.array([0, 1, 2]))
    assert all(v == pytest.approx(1 / 3) for v in w.values())
    assert class_weights(np.array([4, 4]))[4] == pytest.approx(1.0)


def test_class_weights_empty_errors():
    with pytest.raises(ValueError):
        class_weights(np.array([], dtype=np.int64))


def setup_task(n_classes=4, members=25):
    pool = predicate_pool(4)
    recipes = distinct_recipes(pool, n_classes)
    g = ring_snapshot("t", recipes, members)
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    fg = g.without_terms(encode_features(g, pv))  # what a task's sampler reads
    from sumlife.summarize import vertex_hashes

    hashes = vertex_hashes(g, "ac1")
    classes = {h: i for i, h in enumerate(sorted(set(int(v) for v in hashes)))}
    labels = np.array([classes[int(h)] for h in hashes])
    split = split_vertices(g, 3)
    return g, labels, split, fg, pv


def test_batch_within_cap_small_graph():
    g, labels, split, fg, pv = setup_task()
    b = sample_batch(fg, labels, target_distribution(labels, split), 1, cap=1000, rng=np.random.default_rng(0))
    assert b.num_vertices <= min(1000, g.num_vertices)
    assert len(b.target_idx) >= 1  # the first draw is always admitted
    assert len(b.target_idx) == len(b.labels)


def test_batch_respects_cap():
    g, labels, split, fg, pv = setup_task(members=40)
    b = sample_batch(fg, labels, target_distribution(labels, split), 2, cap=10, rng=np.random.default_rng(0))
    assert b.num_vertices <= 10 or len(b.target_idx) == 1


def test_oversize_single_target_rule():
    # one long chain: the first target's 2-hop closure can exceed a tiny cap
    triples = [(f"http://c{i}", "http://p", f"http://c{i+1}") for i in range(6)]
    g = build_snapshot("t", triples)
    labels = np.zeros(g.num_vertices, dtype=np.int64)
    split = np.zeros(g.num_vertices, dtype=np.int8)  # everything train
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    fg = g.without_terms(encode_features(g, pv))
    b = sample_batch(fg, labels, target_distribution(labels, split), 2, cap=1, rng=np.random.default_rng(1))
    assert len(b.target_idx) == 1 and b.target_idx[0] == 0
    # its full closure is present even though it exceeds the cap
    t = int(b.vertices[0])
    expected = {t}
    for _ in range(2):
        nxt = set()
        for v in expected:
            lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
            nxt |= {int(g.edge_obj[e]) for e in range(lo, hi)}
        expected |= nxt
    assert set(int(v) for v in b.vertices) == expected


def test_batch_deterministic_with_seed():
    g, labels, split, fg, pv = setup_task()
    b1 = sample_batch(fg, labels, target_distribution(labels, split), 1, cap=50, rng=np.random.default_rng(9))
    b2 = sample_batch(fg, labels, target_distribution(labels, split), 1, cap=50, rng=np.random.default_rng(9))
    assert (b1.vertices == b2.vertices).all()
    assert (b1.target_idx == b2.target_idx).all()
    assert (b1.feature_src == b2.feature_src).all()
    assert (b1.feature_col == b2.feature_col).all()


def test_batch_empty_train_errors():
    g, labels, _, fg, pv = setup_task()
    split = np.full(g.num_vertices, 2, dtype=np.int8)
    with pytest.raises(ValueError):
        sample_batch(fg, labels, target_distribution(labels, split), 1, rng=np.random.default_rng(0))


def test_draws_are_those_of_generator_choice():
    """The targets come from the task's cumulative sums by the uniforms that
    ``Generator.choice`` draws for the class-balanced probabilities: the same
    targets, and the generator left in the same state, for 20 random
    distributions.  Edgeless vertices make each draw's closure the draw
    alone, so every draw is admitted."""
    rng = np.random.default_rng(20)
    for seed in range(20):
        n = int(rng.integers(1, 3000))
        labels = rng.zipf(1.5, n) % int(rng.integers(1, 60))  # skewed class sizes
        split = np.where(rng.random(n) < 0.9, TRAIN, TEST).astype(np.int8)
        split[0] = TRAIN
        no_edges = np.zeros(0, dtype=np.int64)
        g = SnapshotGraph("t", None, np.arange(n, dtype=np.int64), np.zeros(n + 1, dtype=np.int64),
                          no_edges, no_edges)
        cap = int(rng.integers(1, 2000))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        b = sample_batch(g, labels, target_distribution(labels, split), 1, cap=cap, rng=ours)
        train = np.flatnonzero(split == TRAIN)
        p = _reference_target_distribution(labels, train)
        assert np.array_equal(b.vertices[b.target_idx], train[theirs.choice(len(train), size=cap, p=p)])
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_target_closure_present():
    g, labels, split, fg, pv = setup_task()
    b = sample_batch(fg, labels, target_distribution(labels, split), 2, cap=200, rng=np.random.default_rng(2))
    members = set(int(v) for v in b.vertices)
    for t_local in b.target_idx:
        v = int(b.vertices[t_local])
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        for e in range(lo, hi):
            assert int(g.edge_obj[e]) in members


def test_expected_class_frequency_uniform():
    g, labels, split, fg, pv = setup_task(n_classes=4, members=30)
    # skew the training pool so inverse weighting has something to correct:
    # the ring construction already yields equal classes, so drop most of one
    rng = np.random.default_rng(12)
    counts = np.zeros(4, dtype=np.int64)
    draws = 0
    while draws < 10_000:
        b = sample_batch(fg, labels, target_distribution(labels, split), 1, cap=1000, rng=rng)
        for c in b.labels:
            counts[int(c)] += 1
        draws += len(b.labels)
    result = scipy_stats.chisquare(counts)
    assert result.pvalue > 0.001


def gcn_edges_input(b, width, monkeypatch):
    """The input rows and batch adjacency a gcn-edges network at ``width``
    inputs builds from the batch ``b``, recorded at ``network.gcn_forward``."""
    inputs, forward = [], network.gcn_forward

    def recording(params, x, adj, *args):
        inputs.append((x, adj))
        return forward(params, x, adj, *args)

    monkeypatch.setattr(network, "gcn_forward", recording)
    net = Network.create("gcn-edges", width, 2, Hyper(hidden=[2, 2]), np.random.default_rng(0))
    net.batch_logits(b)
    monkeypatch.undo()
    (recorded,) = inputs
    return recorded


def test_edge_as_vertex_shape_and_features(monkeypatch):
    g, labels, split, fg, pv = setup_task()
    b = sample_batch(fg, labels, target_distribution(labels, split), 2, cap=60, rng=np.random.default_rng(4))
    v, e = b.num_vertices, b.num_edges
    x, adj = gcn_edges_input(b, pv.width, monkeypatch)
    assert x.shape == (v + e, pv.width)
    # each edge (u, p, w) is u -> e_upw -> w: one batch edge per input edge
    assert len(adj.src) == 2 * e
    assert set(zip(adj.src.tolist(), adj.dst.tolist())) == (
        {(int(u), v + i) for i, u in enumerate(b.edge_src)}
        | {(v + i, int(w)) for i, w in enumerate(b.edge_dst)})
    # each edge vertex row is a one-hot at its predicate's column
    for i in range(e):
        row = x[v + i]
        assert row.sum() == 1.0
        assert int(np.argmax(row)) == b.edge_col[i]


def test_edge_as_vertex_matches_per_edge_reference(monkeypatch):
    g, labels, split, fg, pv = setup_task(n_classes=6)
    batches = [
        sample_batch(fg, labels, target_distribution(labels, split), 2, cap=80, rng=np.random.default_rng(9)),
        receptive_field(fg, labels, np.arange(g.num_vertices), 0),
    ]
    for b in batches:
        assert len(np.unique(b.edge_col)) > 1
        assert_edge_rows(b, pv.width, monkeypatch)


def test_edge_as_vertex_predicate_missing_from_vocabulary():
    g, labels, split, fg, pv = setup_task()
    # the refusal comes before any batch: an edge takes its column when encoded
    short = PredicateVocabulary(pv.entries[1:])
    with pytest.raises(ValueError, match="missing from vocabulary"):
        encode_features(g, short)


def test_edge_as_vertex_no_edges_identity(monkeypatch):
    g = build_snapshot("t", [("http://a", "http://p", "http://b")])
    labels = np.zeros(2, dtype=np.int64)
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    fg = g.without_terms(encode_features(g, pv))
    # the sink vertex alone: no induced edges
    empty = receptive_field(fg, labels, np.array([position_of(g, "http://b")]), 0)
    assert empty.num_vertices == 1 and empty.num_edges == 0
    x, adj = gcn_edges_input(empty, pv.width, monkeypatch)
    assert np.array_equal(x, batch_rows(empty, pv.width)) and len(adj.src) == 0


def oracle_task():
    """A graph with self-loop, parallel and rdf:type edges and isolated vertices.

    The leaves l0..l19 point only at a hub that the in-degree cap removes, so
    they are left without edges.  The fan's closure alone, 71 vertices,
    exceeds every batch cap up to 65.
    """
    rng = np.random.default_rng(5)
    triples = [
        (f"http://v{i}", f"http://p{rng.integers(3)}", f"http://v{rng.integers(40)}")
        for i in range(40)
        for _ in range(rng.integers(0, 4))
    ]
    triples += [("http://v3", "http://p0", "http://v3"), ("http://v5", "http://p1", "http://v5")]
    triples += [("http://v7", f"http://p{j}", "http://v8") for j in range(3)]
    triples += [(f"http://v{i}", RDF_TYPE_IRI, f"http://C{i % 2}") for i in range(0, 40, 3)]
    triples += [(f"http://l{i}", "http://p0", "http://hub") for i in range(20)]
    triples += [("http://fan", "http://p1", f"http://f{i}") for i in range(70)]
    g = filter_high_degree(build_snapshot("t", triples), 10, "in")
    n = g.num_vertices
    labels = np.arange(n, dtype=np.int64) % 4
    split = rng.choice(np.array([0, 0, 0, 0, 1, 2], dtype=np.int8), size=n)
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    return g, labels, split, pv


def assert_same_batch(b, ref, g, vocab):
    """``b`` equals the oracle batch ``ref`` of ``g``, whose edges carry
    predicate term ids that ``vocab`` gives the columns of; ``b``'s feature
    pairs write the oracle's multi-hot rows."""
    cols = [vocab.index(g.terms.lexical(p)) for p in ref["edge_pred"].tolist()]
    ref = ref | {"edge_col": np.array(cols, dtype=np.int64)}
    assert b.feature_src.dtype == b.feature_col.dtype == np.int64
    for name in ("vertices", "target_idx", "labels", "edge_src", "edge_dst", "edge_col", "features"):
        got = batch_rows(b, vocab.width) if name == "features" else getattr(b, name)
        want = ref[name]
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def assert_edge_rows(b, width, monkeypatch):
    """A gcn-edges network's input from ``b`` is the per-edge reference's:
    its vertex rows, then each edge vertex with the one-hot row of the edge's
    column, and the same adjacency."""
    x, adj = gcn_edges_input(b, width, monkeypatch)
    ref_x, src, dst = reference_edge_vertices(b, width)
    ref_adj = batch_adjacency(len(ref_x), src, dst)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(adj.src, ref_adj.src) and np.array_equal(adj.dst, ref_adj.dst)


@pytest.mark.parametrize("include_rdf_types", [False, True])
def test_batches_match_per_edge_reference(include_rdf_types, monkeypatch):
    g, labels, split, pv = oracle_task()
    isolated = np.flatnonzero((g.out_degrees() == 0) & (g.in_degrees() == 0))
    assert len(isolated) == 20
    assert (g.edge_sources() == g.edge_obj).any()
    assert (g.edge_pred == g.terms.lookup("iri", RDF_TYPE_IRI)).any()
    # the sampler sees the graph a run with this setting builds; the oracle
    # masks the full graph itself
    run_graph = g if include_rdf_types else drop_rdf_types(g)
    fg, x = run_graph.without_terms(encode_features(run_graph, pv)), reference_features(run_graph, pv)
    # a split whose one train vertex is the fan: its closure alone exceeds the smaller caps
    fan_only = np.where(np.arange(g.num_vertices) == position_of(g, "http://fan"), 0, 1).astype(np.int8)
    reached_before_drawn = oversize = False
    for k in (1, 2):
        # caps on both sides of the sampler's prefix doublings of its draws (64, 128, ...)
        for cap in (1, 7, 63, 64, 65, 129, 1000):
            for seed, train in ((0, split), (1, split), (2, split), (0, fan_only)):
                b = sample_batch(fg, labels, target_distribution(labels, train), k, cap=cap,
                                 rng=np.random.default_rng(seed))
                ref = reference_sample_batch(g, labels, train, k, x, cap,
                                             np.random.default_rng(seed), include_rdf_types)
                assert_same_batch(b, ref, g, pv)
                if k == 2:
                    assert_edge_rows(b, pv.width, monkeypatch)
                # the oracle lists the targets new to the batch first
                reached_before_drawn |= bool((b.target_idx >= ref["n_targets"]).any())
                oversize |= b.num_vertices > cap >= 63  # only the fan's closure is that large
    b = receptive_field(fg, labels, np.arange(g.num_vertices), 0)
    assert_same_batch(b, reference_full_graph_batch(g, labels, x, include_rdf_types), g, pv)
    assert_edge_rows(b, pv.width, monkeypatch)
    assert reached_before_drawn and oversize
