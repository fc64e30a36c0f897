import math

import numpy as np
import pytest

from sumlife.errors import NumericalError
from sumlife.nets.adam import AdamState, adam_step
from sumlife.nets.gcn import (
    batch_adjacency,
    gcn_forward,
    gcn_layer,
    init_gcn,
    normalize_adjacency,
)
from sumlife.nets.graphmlp import graphmlp_forward, grow_graphmlp, init_graphmlp
from sumlife.nets.losses import combined_loss, cross_entropy, ncontrast_loss
from sumlife.nets.mlp import grow_mlp, init_mlp, mlp_backward, mlp_forward
from sumlife.nets.network import Hyper, Network
from sumlife.nets.ops import assert_finite, dropout_mask, gelu, softmax_rows


def test_zero_input_zero_bias_zero_logits():
    p = init_mlp(np.random.default_rng(0), 4, 8, 3)
    logits, _ = mlp_forward(p, np.zeros((2, 4)))
    assert np.allclose(logits, 0.0)


def test_dropout_zero_train_equals_eval():
    p = init_mlp(np.random.default_rng(0), 4, 8, 3)
    x = np.random.default_rng(1).normal(size=(5, 4))
    train, _ = mlp_forward(p, x, True, 0.0, np.random.default_rng(2))
    eval_, _ = mlp_forward(p, x)
    assert np.array_equal(train, eval_)


def test_dropout_mask_deterministic():
    m1 = dropout_mask(np.random.default_rng(5), (4, 6), 0.5)
    m2 = dropout_mask(np.random.default_rng(5), (4, 6), 0.5)
    assert np.array_equal(m1, m2)
    kept = m1[m1 > 0]
    assert np.allclose(kept, 2.0)  # inverted scaling at rate 0.5


def test_shape_mismatch_errors():
    p = init_mlp(np.random.default_rng(0), 4, 8, 3)
    with pytest.raises(ValueError):
        mlp_forward(p, np.zeros((2, 5)))


def test_gcn_layer_single_vertex_self_loop():
    h_prev = np.array([[-1.0, 2.0]])
    adj = np.eye(1)
    h = gcn_layer(h_prev, adj, np.eye(2), normalize=False)
    assert np.array_equal(h, np.array([[0.0, 2.0]]))


def test_gcn_layer_zero_input():
    adj = batch_adjacency(3, np.array([0, 1]), np.array([1, 2]))
    h = gcn_layer(np.zeros((3, 2)), adj, np.ones((2, 4)))
    assert np.allclose(h, 0.0)


def test_gcn_layer_normalized_hand_fixture():
    # two vertices, edge 0->1, self loops; row degrees 2 and 1
    adj = np.array([[1.0, 1.0], [0.0, 1.0]])
    h_prev = np.array([[1.0, 2.0], [3.0, 4.0]])
    h = gcn_layer(h_prev, adj, np.eye(2), normalize=True)
    s = 1.0 / math.sqrt(2.0)
    expected = np.array(
        [[0.5 * 1.0 + s * 3.0, 0.5 * 2.0 + s * 4.0], [3.0, 4.0]]
    )
    assert np.allclose(h, expected, atol=1e-15)


def test_normalize_adjacency_rows():
    adj = np.array([[1.0, 1.0], [0.0, 1.0]])
    a = normalize_adjacency(adj)
    assert a[0, 0] == pytest.approx(0.5)
    assert a[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert a[1, 1] == pytest.approx(1.0)


def test_gcn_permutation_invariance():
    rng = np.random.default_rng(8)
    n, n_in, c = 7, 4, 3
    params = init_gcn(rng, n_in, [5, 4], c)
    x = rng.normal(size=(n, n_in))
    src = np.array([0, 1, 2, 5, 6])
    dst = np.array([1, 2, 3, 4, 0])
    adj = batch_adjacency(n, src, dst)
    logits, _ = gcn_forward(params, x, adj, normalize=True)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    adj_p = batch_adjacency(n, inv[src], inv[dst])
    logits_p, _ = gcn_forward(params, x[perm], adj_p, normalize=True)
    assert np.allclose(logits_p, logits[perm], atol=1e-12)


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy(np.zeros((4, 7)), np.array([0, 1, 2, 3]))
    assert loss == pytest.approx(math.log(7))


def test_combined_loss_arithmetic():
    logits = np.zeros((2, 4))
    labels = np.array([0, 1])
    ce = math.log(4)
    assert combined_loss(logits, labels, 0.2, 0.0) == pytest.approx(ce)
    assert combined_loss(logits, labels, 0.2, 1.0) == pytest.approx(ce + 0.2)
    got = combined_loss(logits, labels, 0.2, 1.0)
    # alpha=1 with ce=0.3 nc=0.2 gives 0.5; here just check additivity shape
    assert got - combined_loss(logits, labels, 0.0, 1.0) == pytest.approx(0.2)


def test_ncontrast_equal_similarities():
    z = np.tile(np.array([1.0, 2.0, 0.5]), (4, 1))
    gamma = np.zeros((4, 4))
    gamma[0, [1, 2]] = 1.0
    loss, _ = ncontrast_loss(z, gamma, 2.0)
    assert loss == pytest.approx(-math.log(2 / 3))


def test_ncontrast_no_positives():
    z = np.random.default_rng(0).normal(size=(4, 3))
    with pytest.warns(UserWarning):
        loss, dz = ncontrast_loss(z, np.zeros((4, 4)), 2.0)
    assert loss == 0.0
    assert np.allclose(dz, 0.0)


def test_ncontrast_does_not_mutate_gamma():
    z = np.random.default_rng(0).normal(size=(3, 2))
    gamma = np.ones((3, 3))
    ncontrast_loss(z, gamma, 1.0)
    assert (np.diag(gamma) == 1.0).all()


def test_adam_zero_gradient_no_change():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    state = AdamState.init_like(p)
    adam_step(p, {"w": np.zeros(3)}, state, 0.1)
    assert np.array_equal(p["w"], np.array([1.0, -2.0, 3.0]))


def test_adam_first_step_closed_form():
    p = {"w": np.array([0.0])}
    state = AdamState.init_like(p)
    adam_step(p, {"w": np.array([1.0])}, state, 0.1)
    assert p["w"][0] == pytest.approx(-0.1 / (1.0 + 1e-8), rel=1e-12)


def test_adam_deterministic():
    def run():
        p = {"w": np.full(4, 0.3)}
        state = AdamState.init_like(p)
        for i in range(10):
            adam_step(p, {"w": np.full(4, 0.1 * (i + 1))}, state, 0.05)
        return p["w"]

    assert np.array_equal(run(), run())


def test_grow_identity_when_equal():
    rng = np.random.default_rng(0)
    p = init_mlp(rng, 5, 6, 3)
    grown = grow_mlp(p, rng, 5, 3)
    for a, b in zip(p.tensors().values(), grown.tensors().values()):
        assert np.array_equal(a, b)


def test_grow_preserves_old_columns():
    rng = np.random.default_rng(0)
    p = init_mlp(rng, 5, 6, 5)
    grown = grow_mlp(p, rng, 5, 8)
    assert np.array_equal(grown.w_out[:, :5], p.w_out)
    assert np.array_equal(grown.b_out[:5], p.b_out)
    assert grown.w_out.shape[1] == 8


def test_grow_shrink_errors():
    rng = np.random.default_rng(0)
    p = init_mlp(rng, 5, 6, 5)
    with pytest.raises(ValueError):
        grow_mlp(p, rng, 4, 5)


def test_grow_old_logits_unchanged():
    rng = np.random.default_rng(1)
    p = init_mlp(rng, 5, 6, 4)
    x = np.random.default_rng(2).normal(size=(7, 5))
    before, _ = mlp_forward(p, x)
    grown = grow_mlp(p, rng, 5, 9)
    after, _ = mlp_forward(grown, np.hstack([x, np.zeros((7, 0))]))
    assert np.array_equal(after[:, :4], before)


def test_grow_graphmlp_zero_init_flag():
    rng = np.random.default_rng(3)
    p = init_graphmlp(rng, 4, 6, 3)
    grown = grow_graphmlp(p, rng, 6, 5, zero_init=True)
    assert np.allclose(grown.w0[4:], 0.0)
    assert np.allclose(grown.w2[:, 3:], 0.0)


def test_zero_classifier_gradient_closed_form():
    rng = np.random.default_rng(4)
    p = init_mlp(rng, 5, 6, 3)
    p.w_out[:] = 0.0
    p.b_out[:] = 0.0
    x = rng.normal(size=(4, 5))
    labels = np.array([0, 2, 1, 1])
    logits, cache = mlp_forward(p, x, True, 0.0, rng)
    loss, dlogits = cross_entropy(logits, labels)
    grads = mlp_backward(p, cache, dlogits)
    soft = softmax_rows(logits)
    soft[np.arange(4), labels] -= 1.0
    expected = cache["hd"].T @ (soft / 4)
    assert np.allclose(grads["w_out"], expected, atol=1e-15)


def test_duplicate_rows_add_linearly():
    rng = np.random.default_rng(6)
    p = init_mlp(rng, 5, 6, 3)
    x = rng.normal(size=(2, 5))
    a, b = x[0:1], x[1:2]

    def grad_sum(rows, labels):
        logits, cache = mlp_forward(p, np.vstack(rows), True, 0.0, rng)
        _, dlogits = cross_entropy(logits, np.array(labels))
        g = mlp_backward(p, cache, dlogits)
        return {k: v * len(labels) for k, v in g.items()}

    g_all = grad_sum([a, a, b], [0, 0, 1])
    g_a = grad_sum([a], [0])
    g_b = grad_sum([b], [1])
    for k in g_all:
        assert np.allclose(g_all[k], 2 * g_a[k] + g_b[k], atol=1e-12)


def test_nan_aborts_step():
    with pytest.raises(NumericalError):
        assert_finite("x", np.array([1.0, np.nan]))


def test_gelu_reference_points():
    # gelu(0) = 0 and symmetry-ish behaviour around zero
    assert gelu(np.array([0.0]))[0] == 0.0
    assert gelu(np.array([3.0]))[0] == pytest.approx(2.9963627, abs=1e-6)
    assert gelu(np.array([-3.0]))[0] == pytest.approx(-0.0036373, abs=1e-6)


def test_loss_decreases_on_separable_toy():
    rng = np.random.default_rng(0)
    n = 40
    x = np.vstack([rng.normal(-2.0, 0.5, size=(n, 2)), rng.normal(2.0, 0.5, size=(n, 2))])
    labels = np.array([0] * n + [1] * n)
    p = init_mlp(rng, 2, 16, 2)
    state = AdamState.init_like(p.tensors())
    losses = []
    for _ in range(50):
        logits, cache = mlp_forward(p, x, True, 0.0, rng)
        loss, dlogits = cross_entropy(logits, labels)
        grads = mlp_backward(p, cache, dlogits)
        adam_step(p.tensors(), grads, state, 0.01)
        losses.append(loss)
    for i in range(5, 49):
        assert losses[i + 1] <= losses[i] + 1e-12
    assert losses[-1] < losses[0] / 10


def test_graphmlp_forward_shapes():
    p = init_graphmlp(np.random.default_rng(0), 4, 8, 3)
    x = np.random.default_rng(1).normal(size=(5, 4))
    z, logits, cache = graphmlp_forward(p, x, True, 0.2, np.random.default_rng(2))
    assert z.shape == (5, 8) and logits.shape == (5, 3)
    assert cache is not None
    z2, logits2, cache2 = graphmlp_forward(p, x)
    assert cache2 is None
    assert np.allclose(z2 @ p.w2, logits2)
