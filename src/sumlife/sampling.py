"""Class-balanced, capped k-hop subgraph batches.

Targets are drawn with replacement from the train split, each vertex weighted
inversely to its class frequency so every class is expected to appear equally
often.  A target brings its full k-hop out-neighborhood closure into the
batch; drawing stops once the next closure would push the batch past the
vertex cap.  The first target is always admitted even if its closure alone
exceeds the cap, so hub-heavy graphs still make progress.

Evaluation batches come from ``receptive_field``: the given rows and every
vertex within a given number of out-edge hops of them, in ascending order,
cut straight from the snapshot graph.  A vertex closer than that keeps all
its out-edges, so message passing sums the same terms for those rows as a
pass over the whole snapshot; the BLAS products around it may still round a
row subset otherwise in the last bits (see ``lifelong.evaluate_network``).
Sampled and evaluation batches are built by one constructor, ``_batch``,
whose ``_induced_edges`` gathers the out-edges of a batch's vertices from
CSR slices: it writes the vertices' multi-hot feature rows from the task's
per-edge feature columns (``features.encode_features``) and keeps the
edges that one global-to-local position array maps inside the batch.  The
closure walk stays Python: 2-hop closures hold a few vertices, where a
numpy gather per closure measured about 20x slower.  ``sample_batch``
draws from the task's ``target_distribution``, which a caller computes once
per task, and takes a memo dict, so each target is walked once per task.

Closures and batches use every edge of the given graph; whether rdf:type
edges are among them was decided when the graph was built
(``ingest.drop_rdf_types``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .features import TRAIN
from .ingest import SnapshotGraph
from .nets.ops import DTYPE


@dataclass
class Subgraph:
    """One sampled batch.

    ``vertices`` holds unique global positions, accepted targets first
    (ascending instead in a ``receptive_field`` batch).
    ``target_idx`` are local indices of the drawn targets and may repeat;
    ``labels`` aligns with it.  Edges are the induced edges among batch
    vertices; ``edge_col`` carries each edge's feature column (-1 after the
    edge-as-vertex transform, where predicates become vertices).
    ``features`` holds the vertices' multi-hot out-predicate rows at the
    task's feature width, every out-edge of a vertex counted.
    """

    vertices: np.ndarray
    n_targets: int
    target_idx: np.ndarray
    labels: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_col: np.ndarray
    features: np.ndarray
    k: int

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)


def class_weights(labels: np.ndarray) -> dict[int, float]:
    """Inverse-frequency class weights, normalized to sum 1 over present classes."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("no training labels")
    classes, counts = np.unique(labels, return_counts=True)
    inv = 1.0 / counts
    inv /= inv.sum()
    return {int(c): float(w) for c, w in zip(classes, inv)}


def target_distribution(labels: np.ndarray, split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(train positions, the draw probability of each): what ``sample_batch``
    draws targets from, which depends on the task alone.

    A vertex's probability is proportional to its class weight, so summing
    over a class gives the same total for every class, which is what
    balances the expected class frequency of the drawn targets.
    """
    train_positions = np.flatnonzero(split == TRAIN)
    if len(train_positions) == 0:
        raise ValueError("train split is empty")
    train_labels = labels[train_positions]
    classes, inverse = np.unique(train_labels, return_inverse=True)
    weights = class_weights(train_labels)
    p = np.array([weights[int(c)] for c in classes], dtype=np.float64)[inverse]
    return train_positions, p / p.sum()


def _khop_closure(g: SnapshotGraph, start: int, k: int) -> list[int]:
    """Vertices reachable from ``start`` within k hops over out-edges."""
    seen = dict.fromkeys([start])  # insertion-ordered: the discovery order
    frontier = [start]
    for _ in range(k):
        nxt = []
        for v in frontier:
            for e in range(g.indptr[v], g.indptr[v + 1]):
                o = int(g.edge_obj[e])
                if o not in seen:
                    seen[o] = None
                    nxt.append(o)
        frontier = nxt
    return list(seen)


def _induced_edges(
    g: SnapshotGraph, vertices: np.ndarray, edge_col: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(local, src, dst, col, x)`` from one gather of the out-edges of
    ``vertices``, whose feature column ``edge_col`` gives.  ``x`` holds their
    multi-hot rows of ``width`` columns; the edges among them, in local
    indices, are ordered by source as listed, then by CSR position; ``local``
    maps each global position to its index in ``vertices`` (-1 outside).
    The rows are in the networks' compute dtype, ``nets.ops.DTYPE``."""
    local = np.full(g.num_vertices, -1, dtype=np.int64)
    local[vertices] = np.arange(len(vertices), dtype=np.int64)
    lo = g.indptr[vertices]
    counts = g.indptr[vertices + 1] - lo
    src = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts  # where each vertex's edges begin in the gather
    edges = np.repeat(lo - starts, counts) + np.arange(len(src), dtype=np.int64)
    x = np.zeros((len(vertices), width), dtype=DTYPE)
    x[src, edge_col[edges]] = 1.0
    dst = local[g.edge_obj[edges]]
    keep = dst >= 0
    return local, src[keep], dst[keep], edge_col[edges[keep]], x


def _batch(
    g: SnapshotGraph, vertices: np.ndarray, n_targets: int, targets: np.ndarray | list[int],
    labels: np.ndarray, edge_col: np.ndarray, width: int, k: int,
) -> Subgraph:
    """The batch of ``vertices`` and the edges among them; ``targets`` are
    global positions, possibly repeated, that ``target_idx`` and ``labels``
    follow."""
    local, src, dst, col, x = _induced_edges(g, vertices, edge_col, width)
    return Subgraph(
        vertices=vertices,
        n_targets=n_targets,
        target_idx=local[targets],
        labels=np.asarray(labels)[targets],
        edge_src=src,
        edge_dst=dst,
        edge_col=col,
        features=x,
        k=k,
    )


def sample_batch(
    g: SnapshotGraph,
    labels: np.ndarray,
    distribution: tuple[np.ndarray, np.ndarray],
    k: int,
    edge_col: np.ndarray,
    width: int,
    cap: int = 1000,
    *,
    rng: np.random.Generator,
    closures: dict[int, list[int]] | None = None,
) -> Subgraph:
    """Draw one class-balanced batch with at most ``cap`` vertices.

    Targets are drawn from ``distribution``, the task's
    ``target_distribution(labels, split)``; ``edge_col`` and ``width`` are
    the task's feature columns and width.  A caller that draws many
    batches from one task computes it once and passes it, and one
    ``closures`` dict, to every call; ``closures`` memoizes each target's
    k-hop closure of ``g``, so each target is walked once.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    train_positions, p = distribution
    draws = rng.choice(len(train_positions), size=cap, replace=True, p=p)

    if closures is None:
        closures = {}
    members: set[int] = set()
    targets: list[int] = []  # targets new to the batch, acceptance order
    extra: list[int] = []  # other closure vertices, discovery order
    accepted: list[int] = []  # drawn targets incl. repeats
    for d in draws:
        t = int(train_positions[d])
        closure = closures.get(t)
        if closure is None:
            closure = closures[t] = _khop_closure(g, t, k)
        new = [v for v in closure if v not in members]
        if members and len(members) + len(new) > cap:
            break
        accepted.append(t)
        members.update(new)
        # a closure starts at its target, so t is new exactly when it leads ``new``
        if new and new[0] == t:
            targets.append(t)
            new = new[1:]
        extra.extend(new)

    vertices = np.array(targets + extra, dtype=np.int64)
    return _batch(g, vertices, len(targets), accepted, labels, edge_col, width, k)


def receptive_field(
    g: SnapshotGraph, labels: np.ndarray, edge_col: np.ndarray, width: int, rows: np.ndarray,
    hops: int, k: int,
) -> Subgraph:
    """The batch message passing needs to compute the vertices ``rows`` of ``g``.

    ``rows`` become the targets.  Kept are the vertices within ``hops``
    out-edge hops of them, in ascending order, and every edge among those
    vertices.  A vertex closer than ``hops`` keeps all its out-edges, and the
    relabelling keeps order, so each of its rows sums the same terms in the
    same order as in a batch of the whole graph, which is what all rows and
    ``hops=0`` give.
    """
    inside = np.zeros(g.num_vertices, dtype=bool)
    inside[rows] = True
    src = g.edge_sources()
    for _ in range(hops):
        inside[g.edge_obj[inside[src]]] = True
    return _batch(g, np.flatnonzero(inside), len(rows), rows, labels, edge_col, width, k)


def edge_as_vertex_transform(b: Subgraph) -> Subgraph:
    """Replace each edge (u, p, v) by u -> e_upv -> v.

    The new vertex's feature row is the one-hot of p's column, ``edge_col``,
    so two message-passing layers recover the original one-hop label
    information.  Requires a k=2 batch; targets and labels are untouched.
    """
    if b.k != 2:
        raise ValueError("edge-as-vertex transform requires a 2-hop batch")
    n, e = b.num_vertices, b.num_edges
    if e == 0:
        return b
    edge_feats = np.zeros((e, b.features.shape[1]), dtype=b.features.dtype)
    edge_feats[np.arange(e), b.edge_col] = 1.0
    edge_ids = n + np.arange(e, dtype=np.int64)
    return replace(
        b,
        vertices=np.concatenate([b.vertices, -1 - np.arange(e, dtype=np.int64)]),
        edge_src=np.concatenate([b.edge_src, edge_ids]),
        edge_dst=np.concatenate([edge_ids, b.edge_dst]),
        edge_col=np.full(2 * e, -1, dtype=np.int64),
        features=np.vstack([b.features, edge_feats]),
    )
