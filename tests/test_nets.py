import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import dense_adjacency, softmax_rows
from sumlife.errors import NumericalError
from sumlife.nets.adam import AdamState, adam_step
from sumlife.nets.gcn import batch_adjacency, gcn_backward, gcn_forward
from sumlife.nets.graphmlp import graphmlp_forward
from sumlife.nets.losses import cross_entropy, ncontrast_loss
from sumlife.nets.mlp import mlp_backward, mlp_forward
from sumlife.nets.network import ARCHITECTURES, Hyper, Network
from sumlife.nets.ops import DTYPE, Params, apply_dropout, assert_finite, dropout_mask, gelu
from sumlife.sampling import Subgraph


def test_zero_input_zero_bias_zero_logits():
    p = Network.create("mlp", 4, 3, Hyper(hidden=[8]), np.random.default_rng(0)).params
    logits, _ = mlp_forward(p, np.zeros((2, 4)))
    assert np.allclose(logits, 0.0)


def test_dropout_zero_train_equals_eval():
    p = Network.create("mlp", 4, 3, Hyper(hidden=[8]), np.random.default_rng(0)).params
    x = np.random.default_rng(1).normal(size=(5, 4))
    train, _ = mlp_forward(p, x, True, 0.0, np.random.default_rng(2))
    eval_, _ = mlp_forward(p, x)
    assert np.array_equal(train, eval_)


def test_dropout_mask_deterministic():
    m1 = dropout_mask(np.random.default_rng(5), (4, 6), 0.5)
    m2 = dropout_mask(np.random.default_rng(5), (4, 6), 0.5)
    assert np.array_equal(m1, m2)
    assert m1.dtype == bool
    dropped = apply_dropout(np.ones((4, 6)), m1, 0.5)
    assert np.array_equal(dropped, np.where(m1, 2.0, 0.0))  # inverted scaling at rate 0.5


def test_train_mode_needs_an_rng():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    mlp = Network.create("mlp", 4, 3, Hyper(hidden=[8]), rng).params
    graphmlp = Network.create("graph-mlp", 4, 3, Hyper(hidden=[8]), rng).params
    gcn = Network.create("gcn", 4, 3, Hyper(hidden=[8]), rng).params
    adj = batch_adjacency(3, np.array([0, 1]), np.array([1, 2]))
    for forward in (
        lambda *a: mlp_forward(mlp, x, *a),
        lambda *a: graphmlp_forward(graphmlp, x, *a),
        lambda *a: gcn_forward(gcn, x, adj, *a),
    ):
        forward()  # eval mode draws nothing
        forward(True, 0.5, np.random.default_rng(1))
        for dropout in (0.0, 0.5):
            with pytest.raises(ValueError, match="rng"):
                forward(True, dropout)


def test_shape_mismatch_errors():
    p = Network.create("mlp", 4, 3, Hyper(hidden=[8]), np.random.default_rng(0)).params
    with pytest.raises(ValueError):
        mlp_forward(p, np.zeros((2, 5)))


def gcn_layer(h_prev, adj, w):
    """relu(A @ h_prev @ w): a one-layer GCN whose classifier is the identity."""
    params = Params(w0=w, w_cls=np.eye(w.shape[1]))
    logits, _ = gcn_forward(params, h_prev, adj)
    return logits


def test_gcn_layer_single_vertex_self_loop():
    h_prev = np.array([[-1.0, 2.0]])
    adj = batch_adjacency(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    h = gcn_layer(h_prev, adj, np.eye(2))
    assert np.array_equal(h, np.array([[0.0, 2.0]]))


def test_gcn_layer_zero_input():
    adj = batch_adjacency(3, np.array([0, 1]), np.array([1, 2]))
    h = gcn_layer(np.zeros((3, 2)), adj, np.ones((2, 4)))
    assert np.allclose(h, 0.0)


def test_gcn_layer_normalized_hand_fixture():
    # two vertices, edge 0->1, self loops; row degrees 2 and 1
    adj = batch_adjacency(2, np.array([0]), np.array([1]), normalize=True)
    h_prev = np.array([[1.0, 2.0], [3.0, 4.0]])
    h = gcn_layer(h_prev, adj, np.eye(2))
    s = 1.0 / math.sqrt(2.0)
    expected = np.array(
        [[0.5 * 1.0 + s * 3.0, 0.5 * 2.0 + s * 4.0], [3.0, 4.0]]
    )
    assert np.allclose(h, expected, atol=1e-15)


def test_normalize_adjacency_rows():
    adj = batch_adjacency(2, np.array([0]), np.array([1]), normalize=True)
    a = adj @ np.eye(2)  # the matrix A, one column per unit vector
    assert a[0, 0] == pytest.approx(0.5)
    assert a[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert a[1, 0] == 0.0
    assert a[1, 1] == pytest.approx(1.0)


def test_gcn_permutation_invariance():
    rng = np.random.default_rng(8)
    n, n_in, c = 7, 4, 3
    params = Network.create("gcn", n_in, c, Hyper(hidden=[5, 4]), rng).params
    x = rng.normal(size=(n, n_in))
    src = np.array([0, 1, 2, 5, 6])
    dst = np.array([1, 2, 3, 4, 0])
    adj = batch_adjacency(n, src, dst, normalize=True)
    logits, _ = gcn_forward(params, x, adj)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    adj_p = batch_adjacency(n, inv[src], inv[dst], normalize=True)
    logits_p, _ = gcn_forward(params, x[perm], adj_p)
    assert np.allclose(logits_p, logits[perm], atol=1e-12)


def random_batch_graph(rng, n):
    """Edges with parallel copies and self-loops; the last two vertices stay isolated."""
    e = int(rng.integers(1, 3 * n))
    src = rng.integers(0, max(n - 2, 1), size=e)
    dst = rng.integers(0, max(n - 2, 1), size=e)
    src = np.concatenate([src, src[: e // 3], [0]])  # parallel edges
    dst = np.concatenate([dst, dst[: e // 3], [0]])  # ... and one self-loop
    return src, dst


def sparse_dense_cases():
    rng = np.random.default_rng(11)
    empty = np.array([], dtype=np.int64)
    cases = [(1, empty, empty), (5, empty, empty), (3, np.array([1, 1, 2]), np.array([1, 2, 2]))]
    for n in (2, 4, 9, 17, 30):
        cases.append((n, *random_batch_graph(rng, n)))
    return cases


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("case", range(len(sparse_dense_cases())))
def test_sparse_propagation_matches_dense(case, normalize):
    n, src, dst = sparse_dense_cases()[case]
    rng = np.random.default_rng(case)
    adj = batch_adjacency(n, src, dst, normalize, np.float64)  # as the dense reference
    dense = dense_adjacency(n, src, dst, normalize)
    h = rng.normal(size=(n, 6))
    np.testing.assert_allclose(adj @ h, dense @ h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(adj.T @ h, dense.T @ h, rtol=0, atol=1e-12)

    params = Network.create("gcn", 5, 3, Hyper(hidden=[4, 3]), rng).params
    x = rng.normal(size=(n, 5))
    dlogits = rng.normal(size=(n, 3))
    logits, cache = gcn_forward(params, x, adj, True, 0.0, np.random.default_rng(1))
    # the dense reference runs the same layers with the matrix in place of the edge list
    ref_logits, ref_cache = gcn_forward(params, x, dense, True, 0.0, np.random.default_rng(1))
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)
    grads = gcn_backward(params, cache, dlogits)
    ref_grads = gcn_backward(params, ref_cache, dlogits)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12)


def test_adjacency_bytes_linear_in_vertices_and_edges():
    rng = np.random.default_rng(3)
    n, e = 100_000, 300_000
    src, dst = rng.integers(0, n, size=e), rng.integers(0, n, size=e)
    for normalize in (False, True):
        nbytes = batch_adjacency(n, src, dst, normalize).nbytes
        assert nbytes <= 40 * (n + e)  # 16 MB here; a dense matrix would take 80 GB


def test_full_graph_gcn_logits_memory_linear():
    rng = np.random.default_rng(4)
    n, e, n_in, n_classes = 50_000, 150_000, 8, 5
    src, dst = rng.integers(0, n, size=e), rng.integers(0, n, size=e)
    everyone = np.arange(n, dtype=np.int64)
    batch = Subgraph(
        vertices=everyone, n_targets=n, target_idx=everyone,
        labels=np.zeros(n, dtype=np.int64), edge_src=src, edge_dst=dst,
        edge_col=np.full(e, -1, dtype=np.int64), features=rng.normal(size=(n, n_in)), k=2,
    )
    net = Network.create("gcn", n_in, n_classes, Hyper(hidden=[16]), rng)
    tracemalloc.start()
    try:
        logits = net.batch_logits(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert logits.shape == (n, n_classes) and np.isfinite(logits).all()
    # the dense n x n float64 path needed 20 GB for this batch
    assert peak < 100 * 2**20, peak


def test_mlp_train_step_memory_holds_one_activation():
    """One MLP step, Adam included, holds each array only while it is read:
    its peak stays under one rows x hidden activation, one per-draw loss
    gradient and one w_out gradient, plus 1 MiB.  Keeping the logits, the
    per-draw gradient, the cache and a second activation-sized input
    gradient alive together took about twice that."""
    rng = np.random.default_rng(0)
    n, width, n_classes, hidden = 1000, 40, 200, 1024
    target_idx = rng.integers(0, 330, n)
    batch = Subgraph(vertices=np.arange(n), n_targets=n, target_idx=target_idx,
                     labels=rng.integers(0, n_classes, n), edge_src=np.zeros(0, np.int64),
                     edge_dst=np.zeros(0, np.int64), edge_col=np.zeros(0, np.int64),
                     features=(rng.random((n, width)) < 0.1).astype(np.float64), k=1)
    net = Network.create("mlp", width, n_classes, Hyper(hidden=[hidden]), rng)
    adam = net.new_adam()
    net.train_step(batch, adam, rng)  # Adam's moments exist before the measured step
    tracemalloc.start()
    try:
        net.train_step(batch, adam, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    activation = len(np.unique(target_idx)) * hidden
    assert peak < (activation + n * n_classes + hidden * n_classes) * DTYPE.itemsize + 2**20, peak


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy(np.zeros((4, 7)), np.array([0, 1, 2, 3]))
    assert loss == pytest.approx(math.log(7))


def test_cross_entropy_gathers_its_rows_and_leaves_the_logits():
    """``rows`` selects (and may repeat) the rows a loss reads, bit for bit
    as a gathered copy would, and the logits are not written."""
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 4))
    before = logits.copy()
    rows, labels = np.array([3, 0, 3, 4, 1, 3]), np.array([1, 0, 1, 3, 2, 2])
    loss, grad = cross_entropy(logits, labels, rows=rows)
    want_loss, want_grad = cross_entropy(logits[rows], labels)
    assert loss == want_loss and grad.tobytes() == want_grad.tobytes()
    assert cross_entropy(logits, labels[:5])[1].shape == (5, 4)
    assert logits.tobytes() == before.tobytes()


def test_ncontrast_equal_similarities():
    z = np.tile(np.array([1.0, 2.0, 0.5]), (4, 1))
    gamma = np.zeros((4, 4))
    gamma[0, [1, 2]] = 1.0
    loss, _ = ncontrast_loss(z, gamma, 2.0)
    assert loss == pytest.approx(-math.log(2 / 3))


def test_ncontrast_no_positives():
    z = np.random.default_rng(0).normal(size=(4, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a batch without edges is routine, not a warning
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


GROW_HIDDEN = {"mlp": [6], "graph-mlp": [6], "gcn": [6], "gcn-edges": [6, 4]}


def created_and_grown(arch, rng, n_in, n_classes, new_in, new_classes, zero_init=False):
    """The tensors of a fresh ``arch`` network, and that network grown to the new widths."""
    net = Network.create(arch, n_in, n_classes, Hyper(hidden=GROW_HIDDEN[arch]), rng)
    old = net.params
    net.grow(new_in, new_classes, rng, zero_init)
    return old, net


def test_grow_identity_when_equal():
    for arch in ARCHITECTURES:
        old, net = created_and_grown(arch, np.random.default_rng(0), 5, 3, 5, 3)
        for a, b in zip(old.values(), net.params.values()):
            assert np.array_equal(a, b), arch


def test_grow_preserves_old_columns():
    for arch in ARCHITECTURES:
        old, net = created_and_grown(arch, np.random.default_rng(0), 5, 5, 5, 8)
        for name, t in net.params.items():
            assert np.array_equal(t[tuple(slice(n) for n in old[name].shape)], old[name]), (arch, name)
        assert net.n_classes == 8, arch


def test_grow_shrink_errors():
    for arch in ARCHITECTURES:
        rng = np.random.default_rng(0)
        net = Network.create(arch, 5, 5, Hyper(hidden=GROW_HIDDEN[arch]), rng)
        for n_in, n_classes in ((4, 5), (5, 4)):
            with pytest.raises(ValueError, match="only grow"):
                net.grow(n_in, n_classes, rng)


def test_grow_old_logits_unchanged():
    x = np.random.default_rng(2).normal(size=(7, 5))
    src, dst = np.array([0, 1, 2, 3, 5]), np.array([1, 2, 0, 4, 6])

    def batch(features):
        return Subgraph(
            vertices=np.arange(7), n_targets=7, target_idx=np.arange(7),
            labels=np.zeros(7, dtype=np.int64), edge_src=src, edge_dst=dst,
            edge_col=np.full(5, -1, dtype=np.int64), features=features, k=2,
        )

    for arch in ARCHITECTURES:
        rng = np.random.default_rng(1)
        net = Network.create(arch, 5, 4, Hyper(hidden=GROW_HIDDEN[arch]), rng)
        before = net.batch_logits(batch(x))
        net.grow(5, 9, rng)
        after = net.batch_logits(batch(np.hstack([x, np.zeros((7, 0))])))
        assert np.array_equal(after[:, :4], before), arch


def test_grow_graphmlp_zero_init_flag():
    rng = np.random.default_rng(3)
    net = Network.create("graph-mlp", 4, 3, Hyper(hidden=[6]), rng)
    net.grow(6, 5, rng, zero_init=True)
    assert np.allclose(net.params.w0[4:], 0.0)
    assert np.allclose(net.params.w2[:, 3:], 0.0)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_grow_zero_init_pads_every_tensor_with_zeros(arch):
    old, net = created_and_grown(arch, np.random.default_rng(3), 4, 3, 6, 5, zero_init=True)
    for name, t in net.params.items():
        block = tuple(slice(n) for n in old[name].shape)
        assert np.array_equal(t[block], old[name]), name
        t = t.copy()
        t[block] = 0.0
        assert not t.any(), name


# sha256 of each tensor's name, shape and float32 bytes in layout order after
# ``create``, after ``grow`` and after a ``zero_init`` ``grow`` of a clone: a change
# of layout order or draw order changes every checkpoint, and must show here.  The
# weights are drawn in float64 and cast, so these are the float64 draws' digests
# once each tensor is cast to float32
LAYOUT_DIGESTS = {
    "mlp": ("727d634efde8ccea459fe2d3dd8c0f6e01ebb52bef88fd205a9eb43caae95917",
            "46c84ae38e0ad83c9c5a5876d4a35de313f786876c5f89f4f45462a41bb4d05b",
            "a6c2b04081ea58a69c8d7c56154e9ad28502bcfac45fcf6b447eb42639c56dbf"),
    "graph-mlp": ("135ad94ef4e4db42ac2ecad2e292ff725ba054e230fee723b265c4a5c36fe793",
                  "e58404cb121e475905c385feaf9465f93910a1f22780ac79b4f810fb2ced309d",
                  "bcd84a41a19029b98c25ab3af9ace5424f29398209750822728dd30703b6de60"),
    "gcn": ("c39d520bf1815f34475ac30869a3202c3cee2bd725684f388f617dae3e080e44",
            "beb6e24a49fd91ed6a84382187f981f3bd5c67f827b910bfeffdf6d74819a2f1",
            "fb55ff21422e39fd689358b0e423f27a84a2bbc2b6de681e0c7f5d50ed3ba9a3"),
    "gcn-edges": ("6aceb593b4e5014b6ee38b7d92499bcd744be280b6a49b31d28a4e5173f57f20",
                  "dd232b7edeb9d1ad36a5b353a05fdf7c92c400160c092de706374b2fd0b8a1aa",
                  "86b7a73a064d4a59299c0c594e4d897dcd191d232a49f683b57649ce49274023"),
}
LAYOUT_HIDDEN = {"mlp": [6], "graph-mlp": [6], "gcn": [4, 3], "gcn-edges": [3, 3, 2]}
# the rng's next draw after the three steps: create and grow consume it exactly so far
LAYOUT_NEXT_DRAW = {"mlp": 394592991, "graph-mlp": 721854972, "gcn": 1039383462, "gcn-edges": 1067509136}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_parameter_layout_is_pinned(arch):
    def digest(net):
        h = hashlib.sha256()
        for name, t in net.params.items():
            h.update(name.encode())
            h.update(repr(t.shape).encode())
            h.update(np.ascontiguousarray(t).tobytes())
        return h.hexdigest()

    rng = np.random.default_rng(12)
    net = Network.create(arch, 5, 3, Hyper(hidden=LAYOUT_HIDDEN[arch]), rng)
    created = digest(net)
    zero = net.clone()
    net.grow(7, 5, rng)
    zero.grow(7, 5, rng, zero_init=True)
    assert (created, digest(net), digest(zero)) == LAYOUT_DIGESTS[arch]
    assert rng.integers(1 << 30) == LAYOUT_NEXT_DRAW[arch]


def param_bytes(net):
    return sum(t.nbytes for t in net.params.values())


def test_create_and_grow_hold_no_copy_of_the_parameters():
    """``create`` peaks at its parameters plus 1 MiB, and ``grow`` at the old
    and the new parameters plus 1 MiB: each tensor is filled in place in one
    new array, a few rows of float64 uniforms at a time.  A float64 draw of a
    whole weight next to its float32 cast, and copies of each widened
    tensor, took several times that margin."""
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        net = Network.create("mlp", 1000, 2000, Hyper(), rng)
        created = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        old = param_bytes(net)
        net.grow(1100, 2200, rng)
        grown = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert created < old + 2**20, created
    assert grown < old + param_bytes(net) + 2**20, grown


def test_zero_classifier_gradient_closed_form():
    rng = np.random.default_rng(4)
    p = Network.create("mlp", 5, 3, Hyper(hidden=[6]), rng).params
    p.w_out[:] = 0.0
    p.b_out[:] = 0.0
    x = rng.normal(size=(4, 5))
    labels = np.array([0, 2, 1, 1])
    logits, cache = mlp_forward(p, x, True, 0.0, rng)
    soft = softmax_rows(logits)
    soft[np.arange(4), labels] -= 1.0
    # read before the backward pass, which takes cache["hd"]'s buffer
    expected = cache["hd"].T @ (soft / 4)
    loss, dlogits = cross_entropy(logits, labels)
    grads = mlp_backward(p, cache, dlogits)
    assert np.allclose(grads["w_out"], expected, atol=1e-15)


def test_duplicate_rows_add_linearly():
    rng = np.random.default_rng(6)
    p = Network.create("mlp", 5, 3, Hyper(hidden=[6]), rng).params
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
    p = Network.create("mlp", 2, 2, Hyper(hidden=[16]), rng).params
    state = AdamState.init_like(p)
    losses = []
    for _ in range(50):
        logits, cache = mlp_forward(p, x, True, 0.0, rng)
        loss, dlogits = cross_entropy(logits, labels)
        grads = mlp_backward(p, cache, dlogits)
        adam_step(p, grads, state, 0.01)
        losses.append(loss)
    for i in range(5, 49):
        assert losses[i + 1] <= losses[i] + 1e-12
    assert losses[-1] < losses[0] / 10


def test_graphmlp_forward_shapes():
    p = Network.create("graph-mlp", 4, 3, Hyper(hidden=[8]), np.random.default_rng(0)).params
    x = np.random.default_rng(1).normal(size=(5, 4))
    z, logits, cache = graphmlp_forward(p, x, True, 0.2, np.random.default_rng(2))
    assert z.shape == (5, 8) and logits.shape == (5, 3)
    assert cache is not None
    z2, logits2, cache2 = graphmlp_forward(p, x)
    assert cache2 is None
    assert np.allclose(z2 @ p.w2, logits2)
