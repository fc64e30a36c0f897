"""Cross-entropy and the neighbor-contrastive objective, with gradients.

All logarithms are natural; both losses return their analytic gradient so
training never touches numeric differentiation.
"""

from __future__ import annotations

import numpy as np

_NORM_EPS = 1e-12


def cross_entropy(
    logits: np.ndarray, labels: np.ndarray, rows: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the rows ``logits[rows]`` (every row
    when ``rows`` is None), row i labelled ``labels[i]``; returns (loss,
    dloss/d(logits[rows])).

    One array of those rows serves both: it is gathered from ``logits``
    (which is left unchanged), shifted and exponentiated in place, its row
    sums give the log-sum-exp, and dividing by those sums turns it into the
    softmax the gradient starts from.  A row drawn twice is a row of the
    gradient twice."""
    n = len(labels)
    if n == 0:
        raise ValueError("cross entropy over zero rows")
    idx = np.arange(n)
    grad = logits.copy() if rows is None else logits[rows]
    grad -= grad.max(axis=1, keepdims=True)
    picked = grad[idx, labels]
    np.exp(grad, out=grad)
    total = grad.sum(axis=1)
    loss = float(np.mean(np.log(total) - picked))
    grad /= total[:, None]
    grad[idx, labels] -= 1.0
    grad /= n
    return loss, grad


def ncontrast_loss(
    z: np.ndarray, gamma: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """Neighbor-contrastive loss over batch embeddings.

    For each row i with at least one positive (gamma[i, j] = 1, j != i):
        l_i = -ln( sum_j gamma_ij exp(sim_ij / tau) / sum_k exp(sim_ik / tau) )
    with cosine similarity sim.  Rows without positives are excluded from the
    average; if no row has positives the loss is 0 with a zero gradient.
    Everything is computed in the dtype of ``z``.  Returns (loss, dloss/dz).
    """
    b = z.shape[0]
    if b < 2:
        raise ValueError("batch must contain at least 2 embeddings")
    gamma = np.array(gamma, dtype=z.dtype, copy=True)
    np.fill_diagonal(gamma, 0.0)
    has_pos = gamma.sum(axis=1) > 0
    retained = int(has_pos.sum())
    if retained == 0:
        return 0.0, np.zeros_like(z)

    norms = np.sqrt((z * z).sum(axis=1) + _NORM_EPS)
    zn = z / norms[:, None]
    sim = zn @ zn.T
    scaled = sim / tau
    np.fill_diagonal(scaled, -np.inf)  # exclude self pairs from both sums
    shift = scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled - shift)
    den = e.sum(axis=1)
    num = (gamma * e).sum(axis=1)
    losses = np.where(has_pos, np.log(den) - np.log(np.where(has_pos, num, 1.0)), 0.0)
    loss = float(losses.sum() / retained)

    # dloss/dsim, only over retained rows; diagonal stays zero
    g = np.zeros_like(sim)
    rows = has_pos
    g[rows] = (e[rows] / den[rows, None] - gamma[rows] * e[rows] / num[rows, None]) / tau
    g /= retained
    np.fill_diagonal(g, 0.0)

    # sim = zn zn^T, so dzn = (g + g^T) zn; then through the normalization
    dzn = (g + g.T) @ zn
    dz = dzn / norms[:, None] - zn * ((zn * dzn).sum(axis=1) / norms)[:, None]
    return loss, dz

