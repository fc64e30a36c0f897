"""Sampled-subgraph GCN with jumping-knowledge connections.

Message passing runs over the batch's edge list, never a dense n x n matrix,
so memory grows with V + E: ``A @ H`` and ``A.T @ G`` are segment sums over
the edges, done by the flat scatter-add ``ops.scatter_add``, which adds each
row's terms in edge order, exactly as ``np.add.at`` does.  It gathers each
block of messages (``h[dst]``, times the edge weight) inside its block loop,
so no E x d message array exists.  Each vertex aggregates its own row (an
implicit self-loop, so isolated targets keep their own features) and its
out-neighbours' rows.
Parallel edges count once and self-loop edges are dropped, exactly as in an
adjacency matrix with a unit diagonal.  Degree normalization
(``Hyper.normalize_adjacency``) is applied once, when ``batch_adjacency``
builds a batch's edge list: entry (u, v) is scaled by 1/sqrt(d_u * d_v),
with d = 1 + the distinct out-degree.  The hidden layers' outputs are
concatenated before the linear classifier, which runs only on the rows
asked for, while message passing covers every row.  Its parameters come as
one ``ops.Params`` record, laid out by ``network._tensor_shapes``: a layer
``w<i>`` per hidden size (``params.layers``), then the classifier ``w_cls``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ingest import distinct
from .ops import DTYPE, Params, apply_dropout, dropout_mask, matrix_product, relu, scatter_add, scatter_rows


@dataclass(frozen=True)
class EdgeList:
    """Sparse batch adjacency ``A``: distinct out-edges plus implicit self-loops.

    ``A @ h`` scales each row of ``h`` by ``self_weight`` and adds the
    out-neighbours' rows, scaled by ``weight`` (1 when it is None).  The
    weights are in the dtype ``batch_adjacency`` was given, the network's
    compute dtype.  ``A.T`` swaps the edge direction and shares the arrays.
    """

    src: np.ndarray
    dst: np.ndarray
    self_weight: np.ndarray
    weight: np.ndarray | None = None

    @property
    def T(self) -> "EdgeList":
        return EdgeList(self.dst, self.src, self.self_weight, self.weight)

    @property
    def nbytes(self) -> int:
        arrays = (self.src, self.dst, self.self_weight, self.weight)
        return sum(a.nbytes for a in arrays if a is not None)

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        out = self.self_weight[:, None] * h
        scatter_add(out, self.src, h, take=self.dst, weight=self.weight)
        return out


def batch_adjacency(
    n: int, edge_src: np.ndarray, edge_dst: np.ndarray, normalize: bool = False,
    dtype: np.dtype = DTYPE,
) -> EdgeList:
    """Out-neighbour adjacency of an n-vertex batch, optionally degree-normalized.

    Parallel edges collapse to one and self-loop edges are dropped, since
    every vertex already keeps its own row.  Normalization scales the entry
    (u, v) by 1/sqrt(d_u * d_v), with d = 1 + the distinct out-degree,
    computed in float64 and rounded once to the weights' ``dtype``.
    """
    src = np.asarray(edge_src, dtype=np.int64)
    dst = np.asarray(edge_dst, dtype=np.int64)
    keys = distinct(src * n + dst)
    src, dst = np.divmod(keys, n)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if not normalize:
        return EdgeList(src, dst, np.ones(n, dtype))
    inv = 1.0 / np.sqrt(1.0 + np.bincount(src, minlength=n))
    return EdgeList(src, dst, (inv * inv).astype(dtype), (inv[src] * inv[dst]).astype(dtype))


def gcn_forward(
    params: Params,
    x: np.ndarray,
    adj: EdgeList,
    train_mode: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Logits of the rows ``rows`` (every row when None), in that order, via
    jumping-knowledge concatenation of all hidden layers.

    Message passing needs every row, so only the classifier is cut to ``rows``.
    It runs as a matrix product even for one row, so a row's logits round as
    they would among many (see ``ops.matrix_product``).
    """
    if x.shape[1] != params.n_in:
        raise ValueError(f"feature width {x.shape[1]} != input width {params.n_in}")
    hs = [x]
    h = x
    for w in params.layers:
        h = adj @ (h @ w)
        relu(h, out=h)
        if train_mode:
            apply_dropout(h, dropout_mask(rng, h.shape, dropout), dropout)
        hs.append(h)
    jk = np.hstack(hs[1:])[slice(None) if rows is None else rows]
    logits = matrix_product(jk, params.w_cls)
    cache = ({"a": adj, "hs": hs, "jk": jk, "rows": rows, "dropout": dropout}
             if train_mode else None)
    return logits, cache


def gcn_backward(params: Params, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients from ``dlogits``, the loss gradient of the rows the
    forward pass computed; the other rows' classifier gradient is zero."""
    a, hs = cache["a"], cache["hs"]
    grads: dict[str, np.ndarray] = {"w_cls": cache["jk"].T @ dlogits}
    djk = scatter_rows(dlogits @ params.w_cls.T, cache["rows"], len(hs[0]))
    # split the jumping-knowledge gradient back onto each layer's output
    widths = [w.shape[1] for w in params.layers]
    offsets = np.cumsum([0] + widths)
    dh_jk = [djk[:, offsets[i] : offsets[i + 1]] for i in range(len(widths))]
    dh_next = np.zeros_like(hs[-1])
    for l in range(len(params.layers) - 1, -1, -1):
        # through dropout and ReLU: a unit passes gradient when its output is positive
        dp = apply_dropout(dh_next + dh_jk[l], hs[l + 1] > 0.0, cache["dropout"])
        m = a.T @ dp
        grads[f"w{l}"] = hs[l].T @ m
        if l > 0:  # the input features need no gradient
            dh_next = m @ params.layers[l].T
    return grads
