"""Class-balanced, capped k-hop subgraph batches.

Targets are drawn with replacement from the train split, each vertex weighted
inversely to its class frequency so every class is expected to appear equally
often.  A target brings its full k-hop out-neighborhood closure into the
batch; drawing stops once the next closure would push the batch past the
vertex cap.  The first target is always admitted even if its closure alone
exceeds the cap, so hub-heavy graphs still make progress.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .features import TRAIN, PredicateVocabulary
from .ingest import SnapshotGraph


@dataclass
class Subgraph:
    """One sampled batch.

    ``vertices`` holds unique global positions, accepted targets first.
    ``target_idx`` are local indices of the drawn targets and may repeat;
    ``labels`` aligns with it.  Edges are the induced (considered) edges among
    batch vertices; ``edge_pred`` carries predicate term ids (-1 after the
    edge-as-vertex transform, where predicates become vertices).
    """

    graph: SnapshotGraph
    vertices: np.ndarray
    n_targets: int
    target_idx: np.ndarray
    labels: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_pred: np.ndarray
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


def _target_distribution(labels: np.ndarray, train_positions: np.ndarray) -> np.ndarray:
    """Per-train-vertex draw probability, proportional to its class weight.

    Summing over a class gives the same total for every class, which is what
    balances the expected class frequency of the drawn targets.
    """
    train_labels = labels[train_positions]
    weights = class_weights(train_labels)
    p = np.array([weights[int(c)] for c in train_labels], dtype=np.float64)
    return p / p.sum()


def _khop_closure(g: SnapshotGraph, start: int, k: int, mask: np.ndarray) -> list[int]:
    """Vertices reachable from ``start`` within k hops over considered out-edges."""
    seen = {start}
    frontier = [start]
    order = [start]
    for _ in range(k):
        nxt = []
        for v in frontier:
            lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
            for e in range(lo, hi):
                if not mask[e]:
                    continue
                o = int(g.edge_obj[e])
                if o not in seen:
                    seen.add(o)
                    nxt.append(o)
                    order.append(o)
        frontier = nxt
    return order


def sample_batch(
    g: SnapshotGraph,
    labels: np.ndarray,
    split: np.ndarray,
    k: int,
    features: np.ndarray,
    cap: int = 1000,
    rng: np.random.Generator | None = None,
    include_rdf_types: bool = False,
) -> Subgraph:
    """Draw one class-balanced batch with at most ``cap`` vertices."""
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    train_positions = np.flatnonzero(split == TRAIN)
    if len(train_positions) == 0:
        raise ValueError("train split is empty")
    p = _target_distribution(labels, train_positions)
    draws = rng.choice(len(train_positions), size=cap, replace=True, p=p)
    mask = g.considered_mask(include_rdf_types)

    batch: dict[int, int] = {}  # global position -> local index
    target_order: list[int] = []  # unique targets, acceptance order
    closure_extra: list[int] = []  # non-target closure vertices, discovery order
    accepted: list[int] = []  # drawn targets incl. repeats
    for d in draws:
        t = int(train_positions[d])
        closure = _khop_closure(g, t, k, mask)
        new = [v for v in closure if v not in batch]
        if batch and len(batch) + len(new) > cap:
            break
        accepted.append(t)
        if t not in batch:
            batch[t] = -1  # placeholder, renumbered below
            target_order.append(t)
        for v in new:
            if v != t and v not in batch:
                batch[v] = -1
                closure_extra.append(v)

    ordered = target_order + closure_extra
    local = {v: i for i, v in enumerate(ordered)}
    vertices = np.array(ordered, dtype=np.int64)

    src_l, dst_l, pred_l = [], [], []
    for v in ordered:
        lo, hi = int(g.indptr[v]), int(g.indptr[v + 1])
        for e in range(lo, hi):
            if not mask[e]:
                continue
            o = int(g.edge_obj[e])
            j = local.get(o)
            if j is not None:
                src_l.append(local[v])
                dst_l.append(j)
                pred_l.append(int(g.edge_pred[e]))

    target_idx = np.array([local[t] for t in accepted], dtype=np.int64)
    return Subgraph(
        graph=g,
        vertices=vertices,
        n_targets=len(target_order),
        target_idx=target_idx,
        labels=np.asarray(labels)[np.array(accepted, dtype=np.int64)],
        edge_src=np.array(src_l, dtype=np.int64),
        edge_dst=np.array(dst_l, dtype=np.int64),
        edge_pred=np.array(pred_l, dtype=np.int64),
        features=features[vertices],
        k=k,
    )


def full_graph_batch(
    g: SnapshotGraph,
    labels: np.ndarray,
    features: np.ndarray,
    k: int,
    include_rdf_types: bool = False,
) -> Subgraph:
    """The whole snapshot as one batch; used for evaluation."""
    mask = g.considered_mask(include_rdf_types)
    src = g.edge_sources()[mask]
    n = g.num_vertices
    return Subgraph(
        graph=g,
        vertices=np.arange(n, dtype=np.int64),
        n_targets=n,
        target_idx=np.arange(n, dtype=np.int64),
        labels=np.asarray(labels),
        edge_src=src.astype(np.int64),
        edge_dst=g.edge_obj[mask].astype(np.int64),
        edge_pred=g.edge_pred[mask].astype(np.int64),
        features=features,
        k=k,
    )


def edge_as_vertex_transform(b: Subgraph, vocab: PredicateVocabulary) -> Subgraph:
    """Replace each edge (u, p, v) by u -> e_upv -> v.

    The new vertex's feature row is the one-hot of p, so two message-passing
    layers recover the original one-hop label information.  Requires a k=2
    batch; targets and labels are untouched.
    """
    if b.k != 2:
        raise ValueError("edge-as-vertex transform requires a 2-hop batch")
    n, e = b.num_vertices, b.num_edges
    if e == 0:
        return b
    width = b.features.shape[1]
    preds, which = np.unique(b.edge_pred, return_inverse=True)
    cols = np.empty(len(preds), dtype=np.int64)
    for i, p in enumerate(preds):
        iri = b.graph.terms.lexical(int(p))
        col = vocab.get(iri)
        if col is None or col >= width:
            raise ValueError(f"predicate {iri!r} missing from vocabulary")
        cols[i] = col
    edge_feats = np.zeros((e, width), dtype=b.features.dtype)
    edge_feats[np.arange(e), cols[which]] = 1.0
    edge_ids = n + np.arange(e, dtype=np.int64)
    return replace(
        b,
        vertices=np.concatenate([b.vertices, -1 - np.arange(e, dtype=np.int64)]),
        edge_src=np.concatenate([b.edge_src, edge_ids]),
        edge_dst=np.concatenate([edge_ids, b.edge_dst]),
        edge_pred=np.full(2 * e, -1, dtype=np.int64),
        features=np.vstack([b.features, edge_feats]),
    )
