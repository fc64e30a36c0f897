"""Single-hidden-layer MLP baseline: ReLU, dropout, biases.

A row's logits read that feature row alone, so ``mlp_forward`` computes only
the rows it is asked for.  Its parameters ``w0``, ``b0``, ``w_out`` and
``b_out`` come as one ``ops.Params`` record, laid out by
``network._tensor_shapes``.
"""

from __future__ import annotations

import numpy as np

from .ops import Params, apply_dropout, dropout_mask, relu


def mlp_forward(
    params: Params,
    x: np.ndarray,
    train_mode: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Logits of the rows ``rows`` of ``x`` (every row when None), in that
    order, plus, in train mode, the cache needed for the backward pass.

    Each row's logits read that row alone, so only ``x[rows]`` is computed,
    and ``rows`` must then be sorted and distinct.  Dropout (inverted
    scaling) is applied to the hidden activation only in train mode; eval
    mode needs no rescale.  The mask holds only those rows, but the rng
    advances as for a mask over every row of ``x``.  The hidden activation
    is computed, rectified and dropped out in place, and the cache keeps it
    as its one rows x hidden array.
    """
    if x.shape[1] != params.n_in:
        raise ValueError(f"feature width {x.shape[1]} != input width {params.n_in}")
    if train_mode:
        keep = dropout_mask(rng, (len(x), params.w0.shape[1]), dropout, rows)
    if rows is not None:
        x = x[rows]
    hd = x @ params.w0
    hd += params.b0
    relu(hd, out=hd)
    if train_mode:
        apply_dropout(hd, keep, dropout)
    logits = hd @ params.w_out
    logits += params.b_out
    return logits, ({"x": x, "hd": hd, "dropout": dropout} if train_mode else None)


def mlp_backward(params: Params, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients from ``dlogits``, the loss gradient of the rows
    the forward pass computed; rows it left out have an exact zero gradient.
    A hidden unit passes gradient exactly when its output ``hd`` is positive:
    rectified and kept.

    The cache is consumed: once ``w_out``'s gradient and that gate are read
    off ``cache["hd"]``, its buffer takes the hidden layer's gradient, so the
    step holds one rows x hidden array.  Read ``cache["hd"]`` before calling."""
    hd = cache["hd"]
    dw_out = hd.T @ dlogits
    db_out = dlogits.sum(axis=0)
    gate = hd > 0.0
    da = apply_dropout(np.matmul(dlogits, params.w_out.T, out=hd), gate, cache["dropout"])
    return {
        "w0": cache["x"].T @ da,
        "b0": da.sum(axis=0),
        "w_out": dw_out,
        "b_out": db_out,
    }
