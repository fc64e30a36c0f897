"""Unary, binary and meta measures over a sequence of summaries.

The unary and pairwise measures read a ``SummaryGraph``'s member counts
(``sizes``), summary edges and predicate usage; ``meta_track`` reads only
the EQC sets.  So a caller can measure each summary as it arrives, against
its predecessor, and keep no more than the EQC set of each snapshot.
All counting is over primary EQC vertices; secondary vertices are derived
objects and never enter set comparisons.  Averages are computed from exact
integer sums, divergences with compensated float summation, so results do not
drift with input size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Sequence

from .summarize import SummaryGraph


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


def unary_stats(s: SummaryGraph) -> SummaryStats:
    """Average EQC size, average edges per EQC and the three distributions."""
    n = s.num_primary
    if n == 0:
        raise ValueError("empty summary has no defined averages")
    attrs_per_eqc: dict[int, int] = {q: 0 for q in s.eqcs}
    for source, _, _ in s.summary_edges:
        attrs_per_eqc[source] += 1
    return SummaryStats(
        avg_size=sum(s.sizes.values()) / n,
        avg_edges=s.num_edges / n,
        dist_attrs_per_eqc=_histogram(attrs_per_eqc.values()),
        dist_members_per_eqc=_histogram(s.sizes.values()),
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


def _directed_divergence(a: SummaryGraph, b: SummaryGraph) -> float:
    """D(A,B): the relative entropy of A's EQC mass against B's, over B's EQCs."""
    total_a, total_b = max(sum(a.sizes.values()), 1), max(sum(b.sizes.values()), 1)
    terms = []
    for q in b.eqcs:
        ca = a.sizes.get(q, 0)
        if ca == 0:
            continue  # zero-probability summand contributes 0
        pa = ca / total_a
        pb = b.sizes[q] / total_b
        terms.append(pa * math.log2(pa / pb))
    return math.fsum(terms)


def js_divergence(a: SummaryGraph, b: SummaryGraph) -> float:
    """Symmetrized relative entropy D(A,B) + D(B,A) over EQC mass.

    D(A,B) sums over the EQCs of B only, so A-mass outside B is dropped; this
    mirrors the published measure rather than the textbook Jensen-Shannon
    divergence.  Probabilities normalize by total extension mass: the sum of
    the member counts ``sizes``.
    """
    _require_same_model(a, b)
    return _directed_divergence(a, b) + _directed_divergence(b, a)


def diff_report(a: SummaryGraph, b: SummaryGraph) -> DiffReport:
    """Pairwise change report from summary ``a`` to its successor ``b``."""
    return DiffReport(jaccard=jaccard_dist(a, b), js_divergence=js_divergence(a, b))


def meta_track(seq: Sequence[AbstractSet[int]]) -> MetaTrack:
    """Track appearance, disappearance and reappearance across a sequence of
    EQC sets, one per snapshot."""
    if not seq:
        raise ValueError("need at least one EQC set")
    track = MetaTrack()
    first = seq[0]
    seen: set[int] = set()
    prev: AbstractSet[int] | None = None
    for cur in seq:
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
