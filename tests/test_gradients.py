"""Analytic vs central-difference gradients on small random instances.

The acceptance suite sweeps more seeds; these cover each architecture and
loss path during development.
"""

import numpy as np
import pytest

from gradcheck import float64, max_rel_error, small_problem
from oracles import feature_pairs
from sumlife.nets import gcn, graphmlp, mlp, network
from sumlife.nets.gcn import batch_adjacency, gcn_backward, gcn_forward
from sumlife.nets.graphmlp import graphmlp_backward, graphmlp_forward
from sumlife.nets.losses import cross_entropy, ncontrast_loss
from sumlife.nets.mlp import mlp_backward, mlp_forward
from sumlife.nets.network import Hyper, Network
from sumlife.nets.ops import Params
from sumlife.sampling import Subgraph

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


# each architecture at 3 hidden units and 3 classes, so the MLP's w_out is square
PLANT_HIDDEN = {"mlp": [3], "graph-mlp": [3], "gcn": [3], "gcn-edges": [3, 3]}
BACKWARDS = {"mlp": "mlp_backward", "graph-mlp": "graphmlp_backward", "gcn": "gcn_backward",
             "gcn-edges": "gcn_backward"}
KERNELS = {"mlp": mlp, "graph-mlp": graphmlp, "gcn": gcn, "gcn-edges": gcn}


def _multi_hot_batch(seed: int) -> Subgraph:
    """Seven vertices whose multi-hot rows are the fixture's positive
    features, random edges with one predicate column each, and repeated
    targets."""
    x, _, src, dst = small_problem(seed, b=7)
    target_idx = np.array([1, 0, 5, 1, 2, 5, 5])
    labels = np.random.default_rng(seed).integers(0, 3, size=7)[target_idx]
    return Subgraph(vertices=np.arange(7), target_idx=target_idx, labels=labels, edge_src=src,
                    edge_dst=dst, edge_col=np.arange(len(src)) % x.shape[1], **feature_pairs(x > 0))


def _step(monkeypatch, arch: str, seed: int):
    """A float64 ``arch`` network at dropout 0.5 and a function giving the
    (loss, gradients) of its train step on ``_multi_hot_batch(seed)``, the
    Adam update skipped and the step's rng re-seeded on every call."""
    net = float64(Network.create(arch, 5, 3, Hyper(hidden=PLANT_HIDDEN[arch], dropout=0.5),
                                 np.random.default_rng(seed + 100)))
    batch, captured = _multi_hot_batch(seed), {}
    monkeypatch.setattr(network, "adam_step", lambda params, grads, *a: captured.update(grads))

    def loss_fn():
        loss = net.train_step(batch, net.new_adam(), np.random.default_rng(7))
        return loss, dict(captured)

    return net, loss_fn


def test_multi_hot_gcn_edges_gradients_pass_with_a_tiny_entry(monkeypatch):
    """A gcn-edges step whose smallest gradient entry is far below what a
    central difference at eps 1e-5 resolves: with a floor of 1e-8 that entry
    read 4.5e-4 relative error, and failed the check, on rounding alone."""
    net, loss_fn = _step(monkeypatch, "gcn-edges", 32)
    _, grads = loss_fn()
    assert min(np.abs(g).min() for g in grads.values()) < 1e-7
    assert max_rel_error(loss_fn, net.params) < TOL


def _maskless(arch, backward):
    """``backward`` applying no mask where it applies dropout's, which also
    gates ReLU in the MLP and the GCN."""
    kernels = KERNELS[arch]

    def run(*args):
        apply_dropout = kernels.apply_dropout
        kernels.apply_dropout = lambda h, keep, rate: apply_dropout(h, None, rate)
        try:
            return backward(*args)
        finally:
            kernels.apply_dropout = apply_dropout
    return run


def _transposed(arch, backward):
    """``backward`` with one product's operand transposed: the MLP's
    ``w_out`` and Graph-MLP's ``w1`` in the hidden gradient, the GCN's
    adjacency in message passing."""
    def run(params, cache, *rest):
        if arch in ("mlp", "graph-mlp"):
            name = "w_out" if arch == "mlp" else "w1"
            params = Params({**params, name: params[name].T})
        else:
            cache = {**cache, "a": cache["a"].T}
        return backward(params, cache, *rest)
    return run


def _one_entry_off(arch, backward):
    """``backward`` with the largest entry of the first tensor's gradient
    off by 1e-3 relative."""
    def run(*args):
        grads = backward(*args)
        g = next(iter(grads.values()))
        g[np.unravel_index(np.argmax(np.abs(g)), g.shape)] *= 1 + 1e-3
        return grads
    return run


@pytest.mark.parametrize("plant", [_maskless, _transposed, _one_entry_off],
                         ids=["maskless", "transposed", "one-entry-off"])
@pytest.mark.parametrize("arch", list(PLANT_HIDDEN))
def test_planted_gradient_errors_fail_the_check(monkeypatch, arch, plant):
    """The loss-scale floor still catches an error planted in the backward
    pass of every architecture, while the true gradients pass."""
    net, loss_fn = _step(monkeypatch, arch, 1)
    assert max_rel_error(loss_fn, net.params) < TOL
    monkeypatch.setattr(network, BACKWARDS[arch], plant(arch, getattr(network, BACKWARDS[arch])))
    assert max_rel_error(loss_fn, net.params) > TOL
