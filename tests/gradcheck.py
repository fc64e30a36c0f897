"""Central finite-difference gradient checking shared by the NN tests.

The networks compute in ``ops.DTYPE`` (float32), whose rounding a central
difference at ``eps`` 1e-5 cannot resolve; every kernel follows the dtype
of its inputs, so the checks run the same kernels on float64 tensors
(``float64``).
"""

from __future__ import annotations

import numpy as np

from sumlife.nets import Network


def float64(net: Network) -> Network:
    """``net`` with its parameters cast to float64, so every step it takes
    computes in float64."""
    tensors = {name: t.astype(np.float64) for name, t in net.params.items()}
    return Network.from_tensors(net.arch, tensors, net.hyper, net.n_in, net.n_classes)


def max_rel_error(loss_fn, tensors: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Compare analytic grads against central differences over every element.

    ``loss_fn`` recomputes (loss, grads) from the current tensor values; it
    must be deterministic (re-seed any dropout inside).  The tensors must be
    float64, and so must every gradient.
    """
    _, grads = loss_fn()
    for name, arr in tensors.items():
        assert arr.dtype == grads[name].dtype == np.float64, name
    worst = 0.0
    for name, arr in tensors.items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = loss_fn()
            arr[idx] = orig - eps
            lm, _ = loss_fn()
            arr[idx] = orig
            fd = (lp - lm) / (2.0 * eps)
            rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, rel)
    return worst


def small_problem(seed: int, b: int = 6, n_in: int = 5, n_classes: int = 3):
    """Random features, labels and a small edge set for gradient fixtures."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, n_in))
    labels = rng.integers(0, n_classes, size=b)
    n_edges = int(rng.integers(2, b + 2))
    src = rng.integers(0, b, size=n_edges)
    dst = (src + 1 + rng.integers(0, b - 1, size=n_edges)) % b  # no self loops
    return x, labels, src, dst
