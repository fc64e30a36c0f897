"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment per parameter tensor plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    @classmethod
    def init_like(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(a) for k, a in tensors.items()},
            v={k: np.zeros_like(a) for k, a in tensors.items()},
        )


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> dict[str, np.ndarray]:
    """One in-place Adam update over all tensors; returns them for chaining.

    The gradients are consumed: each one's array becomes its tensor's step,
    so one scratch array per tensor takes the other temporaries.  Every
    element sees the textbook operations in their order: m = b1*m +
    (1-b1)*g, v = b2*v + (1-b2)*g*g and theta -= lr*(m/bc1) / (sqrt(v/bc2)
    + eps)."""
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for name, theta in tensors.items():
        step = grads[name]
        m = state.m[name]
        v = state.v[name]
        scratch = np.empty_like(theta)
        m *= BETA1
        m += np.multiply(step, 1.0 - BETA1, out=scratch)
        v *= BETA2
        step *= step
        step *= 1.0 - BETA2
        v += step
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        step /= scratch
        theta -= step
    return tensors
