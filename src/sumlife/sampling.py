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

One CSR gather, ``_out_edges``, reads every out-edge this module needs: the
closures of a prefix of a batch's draws, walked together in numpy, the
frontier of a receptive field, and a batch's own edges.  Sampled and
evaluation batches are built by one constructor, ``_batch``, which keeps the
edges that one global-to-local position array maps inside the batch and
lists a (vertex, feature column) pair per out-edge, the column read off the
graph's ``edge_pred`` (a task's holds ``features.encode_features``): a batch
grows with its vertices and out-edges, not with the vocabulary.
``sample_batch`` draws from the task's ``target_distribution``, which a
caller computes once per task; no closure outlives its batch.  A batch is
the same for every architecture: how a network reads it, edge-as-vertex
input included, is decided in ``nets.network``.

Closures and batches use every edge of the given graph; whether rdf:type
edges are among them was decided when the graph was built
(``ingest.drop_rdf_types``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import TRAIN
from .ingest import SnapshotGraph, distinct


@dataclass
class Subgraph:
    """One sampled batch.

    ``vertices`` holds unique global positions, accepted targets first
    (ascending instead in a ``receptive_field`` batch).
    ``target_idx`` are local indices of the drawn targets and may repeat;
    ``labels`` aligns with it.  Edges are the induced edges among batch
    vertices; ``edge_col`` carries each edge's feature column.
    ``feature_src`` and ``feature_col`` list a (local vertex, feature column)
    pair per out-edge of a batch vertex: the ones of the vertices' multi-hot
    rows, where a pair may repeat.
    """

    vertices: np.ndarray
    target_idx: np.ndarray
    labels: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_col: np.ndarray
    feature_src: np.ndarray
    feature_col: np.ndarray

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
    """(train positions, the cumulative draw probability over them): what
    ``sample_batch`` draws targets from, which depends on the task alone.

    A vertex's probability is proportional to its class weight, so summing
    over a class gives the same total for every class, which is what
    balances the expected class frequency of the drawn targets.  The sums
    are those ``Generator.choice`` forms from the probabilities, so drawing
    from them takes the same uniforms to the same targets.
    """
    train_positions = np.flatnonzero(split == TRAIN)
    if len(train_positions) == 0:
        raise ValueError("train split is empty")
    train_labels = labels[train_positions]
    classes, inverse = np.unique(train_labels, return_inverse=True)
    weights = class_weights(train_labels)
    p = np.array([weights[int(c)] for c in classes], dtype=np.float64)[inverse]
    cdf = (p / p.sum()).cumsum()
    return train_positions, cdf / cdf[-1]


def _out_edges(g: SnapshotGraph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index into ``vertices``, edge id) of every out-edge of ``vertices``,
    grouped by vertex as listed, each group in CSR order."""
    lo = g.indptr[vertices]
    counts = g.indptr[vertices + 1] - lo
    idx = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts  # where each vertex's edges begin in the gather
    return idx, np.repeat(lo - starts, counts) + np.arange(len(idx), dtype=np.int64)


def _batch(g: SnapshotGraph, vertices: np.ndarray, targets: np.ndarray, labels: np.ndarray) -> Subgraph:
    """The batch of ``vertices`` from one gather of their out-edges: the
    edges among them, in local indices, ordered by source as listed, then by
    CSR position, and a feature pair per out-edge.  ``targets`` are global
    positions, possibly repeated, that ``target_idx`` and ``labels`` follow."""
    local = np.full(g.num_vertices, -1, dtype=np.int64)
    local[vertices] = np.arange(len(vertices), dtype=np.int64)
    src, edges = _out_edges(g, vertices)
    col = g.edge_pred[edges]
    dst = local[g.edge_obj[edges]]
    keep = dst >= 0
    return Subgraph(vertices=vertices, target_idx=local[targets], labels=np.asarray(labels)[targets],
                    edge_src=src[keep], edge_dst=dst[keep], edge_col=col[keep],
                    feature_src=src, feature_col=col)


def sample_batch(
    g: SnapshotGraph, labels: np.ndarray, distribution: tuple[np.ndarray, np.ndarray], k: int,
    cap: int = 1000, *, rng: np.random.Generator,
) -> Subgraph:
    """Draw one class-balanced batch with at most ``cap`` vertices.

    ``cap`` targets are drawn from ``distribution``, the task's
    ``target_distribution(labels, split)``, which a caller computes once per
    task, with the uniforms ``Generator.choice`` would draw for them.
    The k-hop closures of a prefix of the draws (64, 128, ... up to ``cap``)
    are walked together, and the prefix doubles until a draw would take the
    batch past ``cap`` vertices or every draw is walked.  The draws before
    that one are admitted, the first always.  The batch holds the admitted
    targets new to it, in draw order, then the other vertices of their
    closures in the order a breadth-first walk of each finds them.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    train_positions, cdf = distribution
    draws = train_positions[cdf.searchsorted(rng.random(cap), side="right")]
    walked = min(cap, 64)
    while True:
        # (draw, vertex) at the end of every walk of up to k hops, hop by hop; sorted stably by
        # draw, a vertex's first occurrence in its draw's group is where a breadth-first walk finds it
        draw_of, walk = [np.arange(walked, dtype=np.int64)], [draws[:walked]]
        for _ in range(k):
            idx, edges = _out_edges(g, walk[-1])
            draw_of.append(draw_of[-1][idx])
            walk.append(g.edge_obj[edges])
        order = np.argsort(np.concatenate(draw_of), kind="stable")
        draw_of, walk = np.concatenate(draw_of)[order], np.concatenate(walk)[order]
        first = np.sort(np.unique(walk, return_index=True)[1])  # where each vertex joins the batch
        size = np.cumsum(np.bincount(draw_of[first], minlength=walked))  # batch size per draw
        over = np.flatnonzero(size[1:] > cap)
        if len(over) or walked == cap:
            break
        walked = min(cap, 2 * walked)
    accepted = draws[: over[0] + 1 if len(over) else walked]
    first = first[draw_of[first] < len(accepted)]
    # a group starts at its draw's target, so only a target new to the batch is first seen in its own
    is_target = walk[first] == draws[draw_of[first]]
    vertices = np.concatenate([walk[first[is_target]], walk[first[~is_target]]])
    return _batch(g, vertices, accepted, labels)


def receptive_field(g: SnapshotGraph, labels: np.ndarray, rows: np.ndarray, hops: int) -> Subgraph:
    """The batch message passing needs to compute the vertices ``rows`` of ``g``.

    ``rows`` become the targets.  Kept are the vertices within ``hops``
    out-edge hops of them, in ascending order, and every edge among those
    vertices.  A vertex closer than ``hops`` keeps all its out-edges, and the
    relabelling keeps order, so each of its rows sums the same terms in the
    same order as in a batch of the whole graph, which is what all rows and
    ``hops=0`` give.  Each hop reads the out-edges of the vertices the last
    one reached first.
    """
    inside = np.zeros(g.num_vertices, dtype=bool)
    inside[rows] = True
    frontier = rows
    for _ in range(hops):
        reached = g.edge_obj[_out_edges(g, frontier)[1]]
        frontier = distinct(reached[~inside[reached]])
        inside[frontier] = True
    return _batch(g, np.flatnonzero(inside), rows, labels)

