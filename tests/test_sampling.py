import numpy as np
import pytest
from scipy import stats as scipy_stats

from oracles import position_of, reference_features, reference_full_graph_batch, reference_sample_batch
from sumlife.features import PredicateVocabulary, encode_features, split_vertices
from sumlife.ingest import RDF_TYPE_IRI, build_snapshot, drop_rdf_types, filter_high_degree
from sumlife.sampling import (
    class_weights,
    edge_as_vertex_transform,
    receptive_field,
    sample_batch,
    target_distribution,
)
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
    cols = encode_features(g, pv)
    from sumlife.summarize import vertex_hashes

    hashes = vertex_hashes(g, "ac1")
    classes = {h: i for i, h in enumerate(sorted(set(int(v) for v in hashes)))}
    labels = np.array([classes[int(h)] for h in hashes])
    split = split_vertices(g, 3)
    return g, labels, split, cols, pv


def test_batch_within_cap_small_graph():
    g, labels, split, cols, pv = setup_task()
    b = sample_batch(g, labels, target_distribution(labels, split), 1, cols, pv.width, cap=1000, rng=np.random.default_rng(0))
    assert b.num_vertices <= min(1000, g.num_vertices)
    assert b.n_targets >= 1
    assert len(b.target_idx) == len(b.labels)


def test_batch_respects_cap():
    g, labels, split, cols, pv = setup_task(members=40)
    b = sample_batch(g, labels, target_distribution(labels, split), 2, cols, pv.width, cap=10, rng=np.random.default_rng(0))
    assert b.num_vertices <= 10 or b.n_targets == 1


def test_oversize_single_target_rule():
    # one long chain: the first target's 2-hop closure can exceed a tiny cap
    triples = [(f"http://c{i}", "http://p", f"http://c{i+1}") for i in range(6)]
    g = build_snapshot("t", triples)
    labels = np.zeros(g.num_vertices, dtype=np.int64)
    split = np.zeros(g.num_vertices, dtype=np.int8)  # everything train
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    cols = encode_features(g, pv)
    b = sample_batch(g, labels, target_distribution(labels, split), 2, cols, pv.width, cap=1, rng=np.random.default_rng(1))
    assert b.n_targets == 1
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
    g, labels, split, cols, pv = setup_task()
    b1 = sample_batch(g, labels, target_distribution(labels, split), 1, cols, pv.width, cap=50, rng=np.random.default_rng(9))
    b2 = sample_batch(g, labels, target_distribution(labels, split), 1, cols, pv.width, cap=50, rng=np.random.default_rng(9))
    assert (b1.vertices == b2.vertices).all()
    assert (b1.target_idx == b2.target_idx).all()
    assert (b1.features == b2.features).all()


def test_batch_empty_train_errors():
    g, labels, _, cols, pv = setup_task()
    split = np.full(g.num_vertices, 2, dtype=np.int8)
    with pytest.raises(ValueError):
        sample_batch(g, labels, target_distribution(labels, split), 1, cols, pv.width, rng=np.random.default_rng(0))


def test_target_closure_present():
    g, labels, split, cols, pv = setup_task()
    b = sample_batch(g, labels, target_distribution(labels, split), 2, cols, pv.width, cap=200, rng=np.random.default_rng(2))
    members = set(int(v) for v in b.vertices)
    for t_local in b.target_idx:
        v = int(b.vertices[t_local])
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        for e in range(lo, hi):
            assert int(g.edge_obj[e]) in members


def test_expected_class_frequency_uniform():
    g, labels, split, cols, pv = setup_task(n_classes=4, members=30)
    # skew the training pool so inverse weighting has something to correct:
    # the ring construction already yields equal classes, so drop most of one
    rng = np.random.default_rng(12)
    counts = np.zeros(4, dtype=np.int64)
    draws = 0
    while draws < 10_000:
        b = sample_batch(g, labels, target_distribution(labels, split), 1, cols, pv.width, cap=1000, rng=rng)
        for c in b.labels:
            counts[int(c)] += 1
        draws += len(b.labels)
    result = scipy_stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_edge_as_vertex_requires_two_hops():
    g, labels, split, cols, pv = setup_task()
    b = sample_batch(g, labels, target_distribution(labels, split), 1, cols, pv.width, cap=50, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        edge_as_vertex_transform(b)


def test_edge_as_vertex_shape_and_features():
    g, labels, split, cols, pv = setup_task()
    b = sample_batch(g, labels, target_distribution(labels, split), 2, cols, pv.width, cap=60, rng=np.random.default_rng(4))
    v, e = b.num_vertices, b.num_edges
    tb = edge_as_vertex_transform(b)
    assert tb.num_vertices == v + e
    assert tb.num_edges == 2 * e
    # each edge vertex row is a one-hot at its predicate's column
    for i in range(e):
        row = tb.features[v + i]
        assert row.sum() == 1.0
        assert int(np.argmax(row)) == b.edge_col[i]
    assert (tb.target_idx == b.target_idx).all()
    assert (tb.labels == b.labels).all()


def per_edge_features(b):
    """Edge-vertex feature rows built one edge at a time."""
    rows = np.zeros((b.num_edges, b.features.shape[1]))
    for i in range(b.num_edges):
        rows[i, b.edge_col[i]] = 1.0
    return rows


def test_edge_as_vertex_matches_per_edge_reference():
    g, labels, split, cols, pv = setup_task(n_classes=6)
    batches = [
        sample_batch(g, labels, target_distribution(labels, split), 2, cols, pv.width, cap=80, rng=np.random.default_rng(9)),
        receptive_field(g, labels, cols, pv.width, np.arange(g.num_vertices), 0, 2),
    ]
    for b in batches:
        assert len(np.unique(b.edge_col)) > 1
        assert_edge_rows(b)


def test_edge_as_vertex_predicate_missing_from_vocabulary():
    g, labels, split, cols, pv = setup_task()
    # the refusal comes before any batch: an edge takes its column when encoded
    short = PredicateVocabulary(pv.entries[1:])
    with pytest.raises(ValueError, match="missing from vocabulary"):
        encode_features(g, short)


def test_edge_as_vertex_no_edges_identity():
    g = build_snapshot("t", [("http://a", "http://p", "http://b")])
    labels = np.zeros(2, dtype=np.int64)
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    cols = encode_features(g, pv)
    # the sink vertex alone: no induced edges
    empty = receptive_field(g, labels, cols, pv.width, np.array([position_of(g, "http://b")]), 0, 2)
    assert empty.num_vertices == 1 and empty.num_edges == 0
    tb = edge_as_vertex_transform(empty)
    assert tb.num_vertices == 1 and tb.num_edges == 0


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
    predicate term ids that ``vocab`` gives the columns of."""
    cols = [vocab.index(g.terms.lexical(p)) for p in ref["edge_pred"].tolist()]
    ref = ref | {"edge_col": np.array(cols, dtype=np.int64)}
    assert b.n_targets == ref["n_targets"] and b.k == ref["k"]
    for name in ("vertices", "target_idx", "labels", "edge_src", "edge_dst", "edge_col", "features"):
        got, want = getattr(b, name), ref[name]
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def assert_edge_rows(b):
    """The edge-as-vertex batch of ``b`` keeps its vertex rows and gives each
    edge vertex the one-hot row of the edge's column."""
    tb = edge_as_vertex_transform(b)
    assert np.array_equal(tb.features[: b.num_vertices], b.features)
    assert np.array_equal(tb.features[b.num_vertices :], per_edge_features(b))


@pytest.mark.parametrize("include_rdf_types", [False, True])
def test_batches_match_per_edge_reference(include_rdf_types):
    g, labels, split, pv = oracle_task()
    isolated = np.flatnonzero((g.out_degrees() == 0) & (g.in_degrees() == 0))
    assert len(isolated) == 20
    assert (g.edge_sources() == g.edge_obj).any()
    assert (g.edge_pred == g.terms.lookup("iri", RDF_TYPE_IRI)).any()
    # the sampler sees the graph a run with this setting builds; the oracle
    # masks the full graph itself
    run_graph = g if include_rdf_types else drop_rdf_types(g)
    cols, x = encode_features(run_graph, pv), reference_features(run_graph, pv)
    # a split whose one train vertex is the fan: its closure alone exceeds the smaller caps
    fan_only = np.where(np.arange(g.num_vertices) == position_of(g, "http://fan"), 0, 1).astype(np.int8)
    reached_before_drawn = oversize = False
    for k in (1, 2):
        # caps on both sides of the sampler's prefix doublings of its draws (64, 128, ...)
        for cap in (1, 7, 63, 64, 65, 129, 1000):
            for seed, train in ((0, split), (1, split), (2, split), (0, fan_only)):
                b = sample_batch(run_graph, labels, target_distribution(labels, train), k, cols,
                                 pv.width, cap=cap, rng=np.random.default_rng(seed))
                ref = reference_sample_batch(g, labels, train, k, x, cap,
                                             np.random.default_rng(seed), include_rdf_types)
                assert_same_batch(b, ref, g, pv)
                if k == 2:
                    assert_edge_rows(b)
                reached_before_drawn |= bool((b.target_idx >= b.n_targets).any())
                oversize |= b.num_vertices > cap >= 63  # only the fan's closure is that large
        b = receptive_field(run_graph, labels, cols, pv.width, np.arange(g.num_vertices), 0, k)
        assert_same_batch(b, reference_full_graph_batch(g, labels, x, k, include_rdf_types), g, pv)
        if k == 2:
            assert_edge_rows(b)
    assert reached_before_drawn and oversize
