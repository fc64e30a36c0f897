"""Unary, binary and meta measures over a sequence of summaries.

The measures read a ``SummaryGraph``'s arrays: sorted EQC hashes, member
counts, the summary edges' sources and predicate usage.  ``meta_track``
reads only the EQC hash arrays, so a caller can measure each summary as it
arrives, against its predecessor, and keep 8 bytes per EQC of each snapshot.
All counting is over primary EQC vertices.  Averages are computed from exact
integer sums, divergences with compensated float summation over Python
floats, so results do not drift with input size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ingest import distinct
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


def _histogram(values: np.ndarray) -> list[tuple[int, int]]:
    """(value, frequency) pairs sorted descending by value."""
    distinct_values, counts = np.unique(values, return_counts=True)
    return list(zip(distinct_values[::-1].tolist(), counts[::-1].tolist()))


def unary_stats(s: SummaryGraph) -> SummaryStats:
    """Average EQC size, average edges per EQC and the three distributions."""
    n = s.num_primary
    if n == 0:
        raise ValueError("empty summary has no defined averages")
    return SummaryStats(
        avg_size=int(s.sizes.sum()) / n,
        avg_edges=s.num_edges / n,
        dist_attrs_per_eqc=_histogram(np.bincount(s.edge_source, minlength=n)),
        dist_members_per_eqc=_histogram(s.sizes),
        dist_predicate_usage=_histogram(s.predicate_usage),
    )


def _require_same_model(a: SummaryGraph, b: SummaryGraph) -> None:
    if a.model != b.model:
        raise ValueError(f"summary models differ: {a.model!r} vs {b.model!r}")


def jaccard_dist(a: SummaryGraph, b: SummaryGraph) -> float:
    """1 - |A∩B| / |A∪B| over primary EQC sets; 0 when both are empty."""
    _require_same_model(a, b)
    shared = len(np.intersect1d(a.eqcs, b.eqcs, assume_unique=True))
    union = a.num_primary + b.num_primary - shared
    return 1.0 - shared / union if union else 0.0


def js_divergence(a: SummaryGraph, b: SummaryGraph) -> float:
    """Symmetrized relative entropy D(A,B) + D(B,A) over EQC mass.

    D(A,B) sums over the EQCs of B only, so A-mass outside B is dropped and
    both terms sum over the shared EQCs; this mirrors the published measure
    rather than the textbook Jensen-Shannon divergence.  Probabilities
    normalize by total extension mass: the sum of the member counts ``sizes``.
    """
    _require_same_model(a, b)
    _, ia, ib = np.intersect1d(a.eqcs, b.eqcs, assume_unique=True, return_indices=True)
    total_a, total_b = max(int(a.sizes.sum()), 1), max(int(b.sizes.sum()), 1)
    pa = [c / total_a for c in a.sizes[ia].tolist()]
    pb = [c / total_b for c in b.sizes[ib].tolist()]
    return (math.fsum(p * math.log2(p / q) for p, q in zip(pa, pb))
            + math.fsum(q * math.log2(q / p) for p, q in zip(pa, pb)))


def diff_report(a: SummaryGraph, b: SummaryGraph) -> DiffReport:
    """Pairwise change report from summary ``a`` to its successor ``b``."""
    return DiffReport(jaccard=jaccard_dist(a, b), js_divergence=js_divergence(a, b))


def meta_track(seq: Sequence[np.ndarray]) -> MetaTrack:
    """Track appearance, disappearance and reappearance across a sequence of
    EQC hash arrays, one per snapshot, each sorted and without repeats."""
    if not seq:
        raise ValueError("need at least one EQC set")
    track = MetaTrack()
    first = prev = seen = seq[0]
    for cur in seq:
        added = np.setdiff1d(cur, prev, assume_unique=True)
        recurring = len(np.intersect1d(cur, prev, assume_unique=True))
        track.sizes.append(len(cur))
        track.new_vs_first.append(len(np.setdiff1d(cur, first, assume_unique=True)))
        track.new_vs_prev.append(len(added))
        track.deleted_vs_prev.append(len(prev) - recurring)
        track.recurring.append(recurring)
        track.reappearing.append(len(np.intersect1d(added, seen, assume_unique=True)))
        seen = distinct(np.concatenate([seen, cur]))
        track.cumulative_seen.append(len(seen))
        prev = cur
    return track
