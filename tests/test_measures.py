import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_jaccard_dist,
    reference_js_divergence,
    reference_meta_track,
    reference_unary_stats,
)
from sumlife.measures import (
    diff_report,
    jaccard_dist,
    js_divergence,
    meta_track,
    unary_stats,
)
from sumlife.summarize import SummaryGraph


def hash_array(eqcs) -> np.ndarray:
    """The EQC hashes ``eqcs`` as a sorted uint64 array, as a summary holds them."""
    return np.array(sorted(eqcs), dtype=np.uint64)


def fake_summary(eqcs, edges=(), model="ac1", usage=None, sizes=None):
    """A summary over the hashes ``eqcs``, each of one member unless ``sizes``
    counts them, with (source hash, IRI, child hash) ``edges`` and {IRI: edges}
    ``usage``."""
    sizes = dict(sizes) if sizes is not None else dict.fromkeys(eqcs, 1)
    usage = dict(usage or {})
    hashes = hash_array(sizes)
    predicates = sorted(usage.keys() | {p for _, p, _ in edges})
    edges = sorted(set(edges))
    return SummaryGraph(
        timestamp="t",
        model=model,
        eqcs=hashes,
        sizes=np.array([sizes[q] for q in hashes.tolist()], dtype=np.int64),
        predicates=predicates,
        predicate_usage=np.array([usage.get(p, 0) for p in predicates], dtype=np.int64),
        edge_source=np.searchsorted(hashes, hash_array(s for s, _, _ in edges)).astype(np.int64),
        edge_pred=np.array([predicates.index(p) for _, p, _ in edges], dtype=np.int64),
        edge_child=np.array([c for _, _, c in edges], dtype=np.uint64),
    )


def sized(counts):
    """A summary whose EQCs are the keys of ``counts``, with those member counts."""
    return fake_summary(set(counts), sizes=counts)


def test_avg_size_primary_only():
    stats = unary_stats(sized({1: 3, 2: 1}))
    assert stats.avg_size == 2.0


def test_avg_edges():
    edges = {(1, "p", 0), (1, "q", 0), (2, "p", 0), (2, "q", 7), (3, "p", 0), (3, "r", 0)}
    s = fake_summary({1, 2, 3}, edges)
    stats = unary_stats(s)
    assert stats.avg_edges == 2.0


def test_single_eqc_stats():
    stats = unary_stats(sized({5: 7}))
    assert stats.avg_size == 7.0
    assert stats.avg_edges == 0.0
    assert stats.dist_members_per_eqc == [(7, 1)]


def test_empty_summary_errors():
    with pytest.raises(ValueError):
        unary_stats(fake_summary(set()))


def test_histograms_sorted_descending():
    s = fake_summary({1, 2, 3}, usage={"p": 5, "q": 5, "r": 2}, sizes={1: 4, 2: 4, 3: 1})
    stats = unary_stats(s)
    assert stats.dist_members_per_eqc == [(4, 2), (1, 1)]
    assert stats.dist_predicate_usage == [(5, 2), (2, 1)]


def test_jaccard_examples():
    assert jaccard_dist(fake_summary({1, 2}), fake_summary({1, 2})) == 0.0
    assert jaccard_dist(fake_summary({1}), fake_summary({2})) == 1.0
    assert jaccard_dist(fake_summary({1, 2, 3}), fake_summary({2, 3, 4})) == 0.5
    assert jaccard_dist(fake_summary(set()), fake_summary(set())) == 0.0


def test_jaccard_model_mismatch():
    with pytest.raises(ValueError):
        jaccard_dist(fake_summary({1}, model="ac1"), fake_summary({1}, model="ac2"))


@given(
    st.frozensets(st.integers(0, 12), max_size=8),
    st.frozensets(st.integers(0, 12), max_size=8),
    st.frozensets(st.integers(0, 12), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_jaccard_is_a_metric(a, b, c):
    sa, sb, sc = fake_summary(a), fake_summary(b), fake_summary(c)
    dab = jaccard_dist(sa, sb)
    assert 0.0 <= dab <= 1.0
    assert (dab == 0.0) == (a == b)
    assert dab == jaccard_dist(sb, sa)
    assert dab <= jaccard_dist(sa, sc) + jaccard_dist(sc, sb) + 1e-12


def test_js_identity_zero():
    a = sized({1: 3, 2: 1})
    assert js_divergence(a, a) == 0.0


def test_js_fixture_value():
    a = sized({1: 3, 2: 1})
    b = sized({1: 2, 2: 2})
    # hand evaluation: 0.75*log2(1.5) - 0.25 + 0.5*log2(2/3) + 0.5
    expected = (
        0.75 * math.log2(0.75 / 0.5)
        + 0.25 * math.log2(0.25 / 0.5)
        + 0.5 * math.log2(0.5 / 0.75)
        + 0.5 * math.log2(0.5 / 0.25)
    )
    value = js_divergence(a, b)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.3962, abs=1e-4)


def test_js_symmetry_random():
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(100):
        qa = {int(q): int(rng.integers(1, 20)) for q in rng.choice(30, size=rng.integers(1, 10), replace=False)}
        qb = {int(q): int(rng.integers(1, 20)) for q in rng.choice(30, size=rng.integers(1, 10), replace=False)}
        a = sized(qa)
        b = sized(qb)
        assert abs(js_divergence(a, b) - js_divergence(b, a)) < 1e-12


def test_js_nonnegative_on_shared_domain():
    # with the truncated summation domain, values stay finite and >= 0
    a = sized({1: 5, 2: 1, 3: 4})
    b = sized({2: 3, 3: 3, 4: 4})
    assert js_divergence(a, b) >= 0.0 or abs(js_divergence(a, b)) < 1e-12


def test_diff_report_counts():
    """A diff record's added, deleted and recurring counts come from
    ``meta_track`` over the EQC sets; ``diff_report`` gives its distances."""
    a = sized({1: 1, 2: 1})
    b = sized({2: 1, 3: 1})
    rep = diff_report(a, b)
    assert (rep.jaccard, rep.js_divergence) == (jaccard_dist(a, b), js_divergence(a, b))
    t = meta_track([a.eqcs, b.eqcs])
    added, deleted, recurring = t.new_vs_prev[1], t.deleted_vs_prev[1], t.recurring[1]
    assert (added, deleted, recurring) == (1, 1, 1)
    assert added + recurring == 2
    assert deleted + recurring == 2


def test_meta_track_example():
    a, b, c = 1, 2, 2**64 - 1
    t = meta_track([hash_array({a, b}), hash_array({b, c}), hash_array({a, c})])
    assert t.new_vs_prev == [0, 1, 1]
    assert t.deleted_vs_prev == [0, 1, 1]
    assert t.recurring == [2, 1, 1]
    assert t.reappearing == [0, 0, 1]
    assert t.cumulative_seen == [2, 3, 3]


def test_meta_track_constant_sequence():
    s = hash_array({1, 2, 3})
    t = meta_track([s, s, s])
    assert t.new_vs_prev == [0, 0, 0]
    assert t.deleted_vs_prev == [0, 0, 0]
    assert t.cumulative_seen == [3, 3, 3]


def test_meta_track_growing_sequence():
    t = meta_track([hash_array(range(n)) for n in (1, 3, 5)])
    assert t.deleted_vs_prev == [0, 0, 0]
    assert t.cumulative_seen[-1] == 5


@given(st.lists(st.frozensets(st.integers(0, 10), max_size=6), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_meta_track_consistency(sets):
    t = meta_track([hash_array(s) for s in sets])
    for i, s in enumerate(sets):
        assert t.recurring[i] + t.new_vs_prev[i] == len(s)
        assert t.cumulative_seen[i] == len(set().union(*sets[: i + 1]))
    assert t.cumulative_seen == sorted(t.cumulative_seen)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# hashes from a small pool, so summaries share EQCs, with the largest uint64
_HASHES = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 2**63 - 1, 2**63, 2**63 + 7, 2**64 - 1])
_SIZES = st.dictionaries(_HASHES, st.integers(1, 10**6), max_size=9)
_IRIS = st.sampled_from(["http://p", "http://q", "http://p/10", "http://p/2", "urn:ä"])


@st.composite
def _summaries(draw):
    """(sizes, (source, IRI, child) edges, usage) of one summary, consistent:
    every edge leaves an EQC and every IRI of an edge has usage."""
    sizes = draw(_SIZES)
    edges = set()
    if sizes:
        edges = draw(st.sets(st.tuples(st.sampled_from(sorted(sizes)), _IRIS, _HASHES),
                             max_size=12))
    usage = {p: draw(st.integers(1, 50)) for p in sorted({p for _, p, _ in edges})}
    return sizes, edges, usage


@given(st.lists(_summaries(), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_array_measures_equal_set_references(seq):
    """Over random EQC sets, sizes and edges, the array measures return what
    the set and dict references return, floats equal bit for bit."""
    summaries = [fake_summary(sizes, edges, usage=usage, sizes=sizes)
                 for sizes, edges, usage in seq]
    for (sizes, edges, usage), s in zip(seq, summaries):
        if sizes:
            stats = unary_stats(s)
            ref = reference_unary_stats(sizes, edges, usage)
            assert bits(stats.avg_size) == bits(ref[0]) and bits(stats.avg_edges) == bits(ref[1])
            assert (stats.dist_attrs_per_eqc, stats.dist_members_per_eqc,
                    stats.dist_predicate_usage) == ref[2:]
    for (a, _, _), (b, _, _), sa, sb in zip(seq, seq[1:], summaries, summaries[1:]):
        assert bits(jaccard_dist(sa, sb)) == bits(reference_jaccard_dist(set(a), set(b)))
        assert bits(js_divergence(sa, sb)) == bits(reference_js_divergence(a, b))
    track = meta_track([s.eqcs for s in summaries])
    assert vars(track) == reference_meta_track([set(sizes) for sizes, _, _ in seq])
