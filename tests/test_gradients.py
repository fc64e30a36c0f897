"""Analytic vs central-difference gradients on small random instances.

The acceptance suite sweeps more seeds; these cover each architecture and
loss path during development.
"""

import numpy as np
import pytest

from gradcheck import float64, max_rel_error, small_problem
from sumlife.nets.gcn import batch_adjacency, gcn_backward, gcn_forward
from sumlife.nets.graphmlp import graphmlp_backward, graphmlp_forward
from sumlife.nets.losses import cross_entropy, ncontrast_loss
from sumlife.nets.mlp import mlp_backward, mlp_forward
from sumlife.nets.network import Hyper, Network

TOL = 1e-4


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_mlp_gradients(seed, dropout):
    x, labels, _, _ = small_problem(seed)
    params = float64(Network.create("mlp", x.shape[1], 3, Hyper(hidden=[4]),
                                    np.random.default_rng(seed + 100))).params

    def loss_fn():
        logits, cache = mlp_forward(params, x, True, dropout, np.random.default_rng(7))
        loss, dlogits = cross_entropy(logits, labels)
        return loss, mlp_backward(params, cache, dlogits)

    assert max_rel_error(loss_fn, params) < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graphmlp_combined_gradients(seed):
    x, labels, src, dst = small_problem(seed)
    b = x.shape[0]
    params = float64(Network.create("graph-mlp", x.shape[1], 3, Hyper(hidden=[4]),
                                    np.random.default_rng(seed + 200))).params
    gamma = np.zeros((b, b))
    gamma[src, dst] = 1.0
    gamma[dst, src] = 1.0
    alpha, tau = 1.0, 2.0

    def loss_fn():
        z, logits, cache = graphmlp_forward(params, x, True, 0.2, np.random.default_rng(3))
        ce, dlogits = cross_entropy(logits, labels)
        nc, dz = ncontrast_loss(z, gamma, tau)
        grads = graphmlp_backward(params, cache, dlogits, alpha * dz)
        return ce + alpha * nc, grads

    assert max_rel_error(loss_fn, params) < TOL


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("hidden", [[4], [4, 3]])
def test_gcn_gradients(seed, normalize, hidden):
    x, labels, src, dst = small_problem(seed)
    params = float64(Network.create("gcn", x.shape[1], 3, Hyper(hidden=hidden),
                                    np.random.default_rng(seed + 300))).params
    adj = batch_adjacency(x.shape[0], src, dst, normalize)

    def loss_fn():
        logits, cache = gcn_forward(params, x, adj, True, 0.0, np.random.default_rng(1))
        loss, dlogits = cross_entropy(logits, labels)
        return loss, gcn_backward(params, cache, dlogits)

    assert max_rel_error(loss_fn, params) < TOL


def test_ncontrast_gradient_wrt_embeddings():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(6, 4))
    gamma = np.zeros((6, 6))
    gamma[np.array([0, 1, 2, 3]), np.array([1, 2, 0, 4])] = 1.0
    gamma += gamma.T
    nc, dz = ncontrast_loss(z, gamma, 2.0)
    eps = 1e-5
    worst = 0.0
    for i in range(6):
        for j in range(4):
            orig = z[i, j]
            z[i, j] = orig + eps
            lp, _ = ncontrast_loss(z, gamma, 2.0)
            z[i, j] = orig - eps
            lm, _ = ncontrast_loss(z, gamma, 2.0)
            z[i, j] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - dz[i, j]) / max(abs(fd), abs(dz[i, j]), 1e-8))
    assert worst < TOL
