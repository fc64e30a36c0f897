"""Contrastive MLP: GELU layer, linear embedding layer, linear classifier.

The embedding layer's output feeds the neighbor-contrastive loss during
training; inference uses features alone, no adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import dropout_mask, gelu, gelu_grad, glorot_uniform, widen


@dataclass
class GraphMlpParams:
    w0: np.ndarray  # input x hidden
    w1: np.ndarray  # hidden x hidden, embedding layer
    w2: np.ndarray  # hidden x classes

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w0": self.w0, "w1": self.w1, "w2": self.w2}

    @property
    def n_in(self) -> int:
        return self.w0.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1]


def init_graphmlp(
    rng: np.random.Generator, n_in: int, hidden: int, n_classes: int
) -> GraphMlpParams:
    return GraphMlpParams(
        w0=glorot_uniform(rng, n_in, hidden, (n_in, hidden)),
        w1=glorot_uniform(rng, hidden, hidden, (hidden, hidden)),
        w2=glorot_uniform(rng, hidden, n_classes, (hidden, n_classes)),
    )


def graphmlp_forward(
    params: GraphMlpParams,
    x: np.ndarray,
    train_mode: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """Returns (embeddings z, logits, cache)."""
    if x.shape[1] != params.n_in:
        raise ValueError(f"feature width {x.shape[1]} != input width {params.n_in}")
    a0 = x @ params.w0
    g = gelu(a0)
    if train_mode:
        mask = dropout_mask(rng, g.shape, dropout)
    else:
        mask = 1.0
    x1 = g * mask
    z = x1 @ params.w1
    logits = z @ params.w2
    cache = {"x": x, "a0": a0, "mask": mask, "x1": x1, "z": z} if train_mode else None
    return z, logits, cache


def graphmlp_backward(
    params: GraphMlpParams,
    cache: dict,
    dlogits: np.ndarray,
    dz_extra: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Gradients for the combined objective.

    ``dz_extra`` is the contrastive gradient on the embeddings (already
    weighted); it joins the classifier path at z.
    """
    dw2 = cache["z"].T @ dlogits
    dz = dlogits @ params.w2.T
    if dz_extra is not None:
        dz = dz + dz_extra
    dw1 = cache["x1"].T @ dz
    dx1 = dz @ params.w1.T
    da0 = dx1 * cache["mask"] * gelu_grad(cache["a0"])
    return {"w0": cache["x"].T @ da0, "w1": dw1, "w2": dw2}


def grow_graphmlp(
    params: GraphMlpParams,
    rng: np.random.Generator,
    new_in: int,
    new_classes: int,
    zero_init: bool = False,
) -> GraphMlpParams:
    if new_in < params.n_in or new_classes < params.n_classes:
        raise ValueError("layers can only grow")
    hidden = params.w0.shape[1]
    return GraphMlpParams(
        widen(rng, params.w0, new_in, hidden, zero_init),
        params.w1.copy(),
        widen(rng, params.w2, hidden, new_classes, zero_init),
    )
