"""Single-hidden-layer MLP baseline: ReLU, dropout, biases.

A row's logits read that feature row alone, so ``mlp_forward`` computes only
the rows it is asked for.  Its parameter layout lives in
``network._tensor_shapes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import dropout_mask, relu, relu_grad


@dataclass
class MlpParams:
    w0: np.ndarray  # input x hidden
    b0: np.ndarray
    w_out: np.ndarray  # hidden x classes
    b_out: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w0": self.w0, "b0": self.b0, "w_out": self.w_out, "b_out": self.b_out}

    @property
    def n_in(self) -> int:
        return self.w0.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[1]


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    train_mode: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Logits of the rows ``rows`` of ``x`` (every row when None), in that
    order, plus, in train mode, the cache needed for the backward pass.

    Each row's logits read that row alone, so only ``x[rows]`` is computed.
    Dropout (inverted scaling) is applied to the hidden activation only in
    train mode; eval mode needs no rescale.  The mask is drawn for every row
    of ``x`` and then cut to ``rows``, so the rng advances as for a pass
    over every row.
    """
    if x.shape[1] != params.n_in:
        raise ValueError(f"feature width {x.shape[1]} != input width {params.n_in}")
    if train_mode:
        mask = dropout_mask(rng, (len(x), params.w0.shape[1]), dropout, rows)
    if rows is not None:
        x = x[rows]
    a = x @ params.w0 + params.b0
    h = relu(a)
    if train_mode:
        hd = h * mask
        logits = hd @ params.w_out + params.b_out
        return logits, {"x": x, "a": a, "mask": mask, "hd": hd}
    return h @ params.w_out + params.b_out, None


def mlp_backward(params: MlpParams, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients from ``dlogits``, the loss gradient of the rows
    the forward pass computed; rows it left out have an exact zero gradient."""
    dw_out = cache["hd"].T @ dlogits
    db_out = dlogits.sum(axis=0)
    dhd = dlogits @ params.w_out.T
    da = dhd * cache["mask"] * relu_grad(cache["a"])
    return {
        "w0": cache["x"].T @ da,
        "b0": da.sum(axis=0),
        "w_out": dw_out,
        "b_out": db_out,
    }
