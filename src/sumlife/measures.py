"""Unary, binary and meta measures over a sequence of summaries.

All counting is over primary EQC vertices; secondary vertices are derived
objects and never enter set comparisons.  Averages are computed from exact
integer sums, divergences with compensated float summation, so results do not
drift with input size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .summarize import ExtensionMap, SummaryGraph


@dataclass
class SummaryStats:
    """Per-snapshot aggregates and histograms."""

    avg_size: float
    avg_edges: float
    dist_attrs_per_eqc: list[tuple[int, int]]
    dist_members_per_eqc: list[tuple[int, int]]
    dist_predicate_usage: list[tuple[int, int]]


@dataclass
class DiffReport:
    """Change between two consecutive summaries."""

    jaccard: float
    js_divergence: float
    added: int
    deleted: int
    recurring: int


@dataclass
class MetaTrack:
    """Per-snapshot change tracking across a whole sequence.

    The first snapshot is compared to itself, so its vs-previous counters are
    zero-change (added = deleted = 0, recurring = own size).
    """

    sizes: list[int] = field(default_factory=list)
    new_vs_first: list[int] = field(default_factory=list)
    new_vs_prev: list[int] = field(default_factory=list)
    deleted_vs_prev: list[int] = field(default_factory=list)
    recurring: list[int] = field(default_factory=list)
    reappearing: list[int] = field(default_factory=list)
    cumulative_seen: list[int] = field(default_factory=list)


def _histogram(values) -> list[tuple[int, int]]:
    """(value, frequency) pairs sorted descending by value."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[0])


def unary_stats(s: SummaryGraph, ext: ExtensionMap) -> SummaryStats:
    """Average EQC size, average edges per EQC and the three distributions."""
    n = s.num_primary
    if n == 0:
        raise ValueError("empty summary has no defined averages")
    total_members = ext.total()
    attrs_per_eqc: dict[int, int] = {q: 0 for q in s.eqcs}
    for source, _, _ in s.summary_edges:
        attrs_per_eqc[source] += 1
    return SummaryStats(
        avg_size=total_members / n,
        avg_edges=s.num_edges / n,
        dist_attrs_per_eqc=_histogram(attrs_per_eqc.values()),
        dist_members_per_eqc=_histogram(ext.count(q) for q in s.eqcs),
        dist_predicate_usage=_histogram(s.predicate_usage.values()),
    )


def _require_same_model(a: SummaryGraph, b: SummaryGraph) -> None:
    if a.model != b.model:
        raise ValueError(f"summary models differ: {a.model!r} vs {b.model!r}")


def jaccard_dist(a: SummaryGraph, b: SummaryGraph) -> float:
    """1 - |A∩B| / |A∪B| over primary EQC sets; 0 when both are empty."""
    _require_same_model(a, b)
    union = len(a.eqcs | b.eqcs)
    if union == 0:
        return 0.0
    return 1.0 - len(a.eqcs & b.eqcs) / union


def _directed_divergence(
    ext_a: dict[int, int],
    total_a: int,
    ext_b: dict[int, int],
    total_b: int,
    domain,
) -> float:
    terms = []
    for q in domain:
        ca = ext_a.get(q, 0)
        if ca == 0:
            continue  # zero-probability summand contributes 0
        pa = ca / total_a
        pb = ext_b[q] / total_b
        terms.append(pa * math.log2(pa / pb))
    return math.fsum(terms)


def js_divergence(
    a: tuple[SummaryGraph, ExtensionMap],
    b: tuple[SummaryGraph, ExtensionMap],
) -> float:
    """Symmetrized relative entropy D(A,B) + D(B,A) over EQC mass.

    D(A,B) sums over the EQCs of B only, so A-mass outside B is dropped; this
    mirrors the published measure rather than the textbook Jensen-Shannon
    divergence.  Probabilities normalize by total extension mass.
    """
    sa, ea = a
    sb, eb = b
    _require_same_model(sa, sb)
    ca, cb = ea.counts(), eb.counts()
    na, nb = max(ea.total(), 1), max(eb.total(), 1)
    return _directed_divergence(ca, na, cb, nb, sb.eqcs) + _directed_divergence(
        cb, nb, ca, na, sa.eqcs
    )


def diff_report(
    a: tuple[SummaryGraph, ExtensionMap], b: tuple[SummaryGraph, ExtensionMap]
) -> DiffReport:
    """Pairwise change report from summary ``a`` to its successor ``b``."""
    sa, sb = a[0], b[0]
    _require_same_model(sa, sb)
    inter = sa.eqcs & sb.eqcs
    return DiffReport(
        jaccard=jaccard_dist(sa, sb),
        js_divergence=js_divergence(a, b),
        added=len(sb.eqcs - sa.eqcs),
        deleted=len(sa.eqcs - sb.eqcs),
        recurring=len(inter),
    )


def meta_track(seq: list[tuple[SummaryGraph, ExtensionMap]]) -> MetaTrack:
    """Track appearance, disappearance and reappearance across a sequence."""
    if not seq:
        raise ValueError("need at least one summary")
    track = MetaTrack()
    first = seq[0][0].eqcs
    seen: set[int] = set()
    prev: frozenset[int] | None = None
    for s, _ in seq:
        cur = s.eqcs
        p = cur if prev is None else prev
        added = cur - p
        track.sizes.append(len(cur))
        track.new_vs_first.append(len(cur - first))
        track.new_vs_prev.append(len(added))
        track.deleted_vs_prev.append(len(p - cur))
        track.recurring.append(len(cur & p))
        track.reappearing.append(len(added & seen))
        seen |= cur
        track.cumulative_seen.append(len(seen))
        prev = cur
    return track
