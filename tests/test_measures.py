import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlife.measures import (
    diff_report,
    jaccard_dist,
    js_divergence,
    meta_track,
    unary_stats,
)
from sumlife.summarize import SummaryGraph


def fake_summary(eqcs, edges=(), model="ac1", usage=None, sizes=None):
    """A summary over ``eqcs``, each of one member unless ``sizes`` counts them."""
    return SummaryGraph(
        timestamp="t",
        model=model,
        sizes=dict(sizes) if sizes is not None else dict.fromkeys(eqcs, 1),
        summary_edges=frozenset(edges),
        predicate_usage=dict(usage or {}),
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
    t = meta_track([{"A", "B"}, {"B", "C"}, {"A", "C"}])
    assert t.new_vs_prev == [0, 1, 1]
    assert t.deleted_vs_prev == [0, 1, 1]
    assert t.recurring == [2, 1, 1]
    assert t.reappearing == [0, 0, 1]
    assert t.cumulative_seen == [2, 3, 3]


def test_meta_track_constant_sequence():
    s = {1, 2, 3}
    t = meta_track([s, s, s])
    assert t.new_vs_prev == [0, 0, 0]
    assert t.deleted_vs_prev == [0, 0, 0]
    assert t.cumulative_seen == [3, 3, 3]


def test_meta_track_growing_sequence():
    t = meta_track([set(range(n)) for n in (1, 3, 5)])
    assert t.deleted_vs_prev == [0, 0, 0]
    assert t.cumulative_seen[-1] == 5


@given(st.lists(st.frozensets(st.integers(0, 10), max_size=6), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_meta_track_consistency(sets):
    t = meta_track(sets)
    for i, s in enumerate(sets):
        assert t.recurring[i] + t.new_vs_prev[i] == len(s)
        assert t.cumulative_seen[i] == len(set().union(*sets[: i + 1]))
    assert t.cumulative_seen == sorted(t.cumulative_seen)
