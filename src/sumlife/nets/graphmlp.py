"""Contrastive MLP: GELU layer, linear embedding layer, linear classifier.

The embedding layer's output feeds the neighbor-contrastive loss during
training; inference uses features alone, no adjacency.  The contrastive
term reads every row's embedding, so only the classifier is cut to the rows
asked for.  Its parameters ``w0``, ``w1`` (the embedding layer) and ``w2``
come as one ``ops.Params`` record, laid out by ``network._tensor_shapes``.
"""

from __future__ import annotations

import numpy as np

from .losses import ncontrast_loss
from .ops import Params, apply_dropout, dropout_mask, gelu, gelu_grad, scatter_rows


def graphmlp_forward(
    params: Params,
    x: np.ndarray,
    train_mode: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """Returns (embeddings z of every row, logits of the rows ``rows``, cache).

    ``rows`` (every row when None) cuts the classifier only: the contrastive
    term reads the embeddings of every row.
    """
    if x.shape[1] != params.n_in:
        raise ValueError(f"feature width {x.shape[1]} != input width {params.n_in}")
    a0 = x @ params.w0
    x1 = gelu(a0)
    if train_mode:
        keep = dropout_mask(rng, x1.shape, dropout)
        apply_dropout(x1, keep, dropout)
    z = x1 @ params.w1
    logits = z[slice(None) if rows is None else rows] @ params.w2
    cache = ({"x": x, "a0": a0, "keep": keep, "dropout": dropout, "x1": x1, "z": z, "rows": rows}
             if train_mode else None)
    return z, logits, cache


def graphmlp_backward(
    params: Params,
    cache: dict,
    dlogits: np.ndarray,
    dz_extra: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Gradients for the combined objective.

    ``dlogits`` is the loss gradient of the rows the forward pass computed
    logits for.  ``dz_extra`` is the contrastive gradient on the embeddings
    of every row (already weighted); it joins the classifier path at z.
    """
    z, rows = cache["z"], cache["rows"]
    dw2 = z[slice(None) if rows is None else rows].T @ dlogits
    dz = scatter_rows(dlogits @ params.w2.T, rows, len(z))
    if dz_extra is not None:
        dz = dz + dz_extra
    dw1 = cache["x1"].T @ dz
    dx1 = dz @ params.w1.T
    da0 = apply_dropout(dx1, cache["keep"], cache["dropout"]) * gelu_grad(cache["a0"])
    return {"w0": cache["x"].T @ da0, "w1": dw1, "w2": dw2}


def graphmlp_contrast(z: np.ndarray, src: np.ndarray, dst: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Contrastive loss and gradient of a batch's embeddings ``z``, whose edges
    (both ways) are the positive pairs; 0 and a zero gradient below 2 vertices."""
    n = len(z)
    if n < 2:
        return 0.0, np.zeros_like(z)
    gamma = np.zeros((n, n), dtype=z.dtype)
    gamma[src, dst] = gamma[dst, src] = 1.0
    return ncontrast_loss(z, gamma, tau)
