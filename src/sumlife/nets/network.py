"""The one module that names the architectures: "mlp" (features only),
"graph-mlp" (features + contrastive term over batch edges), "gcn" and
"gcn-edges" (message passing; the edges variant takes edge-as-vertex batches).

Each per-architecture decision is a ``Network`` member: parameters in
``create``, ``grow`` and ``from_tensors``, the batch a network reads in
``receptive_hops`` and ``edges_as_vertices``, the forward pass in ``_forward``
and the backward pass after ``train_step``'s one loss tail.  Both passes look
their functions up in this module's globals at call time, so a wrapper put
on a module name (as the benchmark's tracer does) sees every call.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from ..sampling import Subgraph
from .adam import AdamState, adam_step
from .gcn import GcnParams, batch_adjacency, gcn_backward, gcn_forward, grow_gcn, init_gcn
from .graphmlp import GraphMlpParams, graphmlp_backward, graphmlp_contrast, graphmlp_forward
from .graphmlp import grow_graphmlp, init_graphmlp
from .losses import cross_entropy
from .mlp import MlpParams, grow_mlp, init_mlp, mlp_backward, mlp_forward
from .ops import assert_finite, scatter_add

# winning configurations: hidden size(s), dropout, learning rate
ARCH_DEFAULTS = {
    "mlp": ([1024], 0.5, 0.01),
    "graph-mlp": ([64], 0.2, 0.01),
    "gcn": ([64], 0.0, 0.1),
    "gcn-edges": ([32, 32], 0.0, 0.1),
}
ARCHITECTURES = tuple(ARCH_DEFAULTS)
# the architectures that read feature rows alone, through one hidden size
FEATURE_ONLY = ("mlp", "graph-mlp")


@dataclass
class Hyper:
    """Training hyperparameters; unset fields fall back to the architecture defaults."""

    hidden: list[int] | None = None
    dropout: float | None = None
    learning_rate: float | None = None
    alpha: float = 1.0
    tau: float = 2.0
    normalize_adjacency: bool = False

    def resolved(self, arch: str) -> "Hyper":
        d_hidden, d_drop, d_lr = ARCH_DEFAULTS[arch]
        return replace(
            self,
            hidden=list(self.hidden if self.hidden is not None else d_hidden),
            dropout=self.dropout if self.dropout is not None else d_drop,
            learning_rate=self.learning_rate if self.learning_rate is not None else d_lr,
        )


def _tensor_shapes(arch: str, n_in: int, hidden: list, n_classes: int) -> dict[str, tuple]:
    """Each parameter tensor's shape, by name."""
    if arch == "mlp":
        (h,) = hidden
        return {"w0": (n_in, h), "b0": (h,), "w_out": (h, n_classes), "b_out": (n_classes,)}
    if arch == "graph-mlp":
        (h,) = hidden
        return {"w0": (n_in, h), "w1": (h, h), "w2": (h, n_classes)}
    widths = [n_in, *hidden]
    return {**{f"w{i}": tuple(widths[i : i + 2]) for i in range(len(hidden))},
            "w_cls": (sum(hidden), n_classes)}


class Network:
    """One classifier with its architecture and hyperparameters."""

    def __init__(self, arch: str, params, hyper: Hyper):
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}")
        self.arch = arch
        self.params = params
        self.hyper = hyper

    @classmethod
    def create(cls, arch: str, n_in: int, n_classes: int, hyper: Hyper, rng: np.random.Generator) -> "Network":
        hyper = hyper.resolved(arch)
        if arch in FEATURE_ONLY:
            init = init_mlp if arch == "mlp" else init_graphmlp
            return cls(arch, init(rng, n_in, hyper.hidden[0], n_classes), hyper)
        return cls(arch, init_gcn(rng, n_in, hyper.hidden, n_classes), hyper)

    @classmethod
    def from_tensors(cls, arch: str, tensors: dict, hyper: Hyper, n_in: int, n_classes: int) -> "Network":
        """The network whose ``params.tensors()`` are ``tensors``; ValueError
        unless each has the shape ``arch`` gives it for ``n_in``, ``hyper.hidden``
        and ``n_classes``, so layers chain and a GCN has a layer per hidden size."""
        shapes = {name: t.shape for name, t in tensors.items()}
        expected = _tensor_shapes(arch, n_in, hyper.hidden, n_classes)
        if shapes != expected:
            raise ValueError(f"{arch} tensor shapes {shapes} are not {expected}")
        if arch in FEATURE_ONLY:
            params = (MlpParams if arch == "mlp" else GraphMlpParams)(**tensors)
        else:
            params = GcnParams([tensors[f"w{i}"] for i in range(len(hyper.hidden))], tensors["w_cls"])
        return cls(arch, params, hyper)

    @property
    def n_in(self) -> int:
        return self.params.n_in

    @property
    def n_classes(self) -> int:
        return self.params.n_classes

    @property
    def edges_as_vertices(self) -> bool:
        """Whether batches reach this network through ``edge_as_vertex_transform``."""
        return self.arch == "gcn-edges"

    @property
    def receptive_hops(self) -> int:
        """Snapshot out-edge hops a logit reads: 0 for feature-only networks.
        A message-passing logit reads a batch hop per layer, plus one under
        degree normalization (its weights read the outer ring's out-degrees);
        an edge-as-vertex batch spends two per snapshot hop, so half as many, rounded up."""
        if self.arch in FEATURE_ONLY:
            return 0
        hops = len(self.params.layers) + int(self.hyper.normalize_adjacency)
        return (hops + 1) // 2 if self.edges_as_vertices else hops

    def clone(self) -> "Network":
        return Network(self.arch, copy.deepcopy(self.params), copy.deepcopy(self.hyper))

    def grow(self, n_in: int, n_classes: int, rng: np.random.Generator, zero_init: bool = False) -> None:
        grow = {"mlp": grow_mlp, "graph-mlp": grow_graphmlp}.get(self.arch, grow_gcn)
        self.params = grow(self.params, rng, n_in, n_classes, zero_init)

    def new_adam(self) -> AdamState:
        return AdamState.init_like(self.params.tensors())

    def _forward(self, batch: Subgraph, rng: np.random.Generator | None = None):
        """(logits for every batch vertex, backward cache); train mode exactly
        when ``rng`` is given, and the cache is None otherwise."""
        x = batch.features
        if x.shape[1] < self.n_in:
            raise ValueError("feature width below network input width")
        x, train, dropout = x[:, : self.n_in], rng is not None, self.hyper.dropout
        if self.arch == "mlp":
            return mlp_forward(self.params, x, train, dropout, rng)
        if self.arch == "graph-mlp":
            _, logits, cache = graphmlp_forward(self.params, x, train, dropout, rng)
            return logits, cache
        adj = batch_adjacency(batch.num_vertices, batch.edge_src, batch.edge_dst,
                              self.hyper.normalize_adjacency)
        return gcn_forward(self.params, x, adj, train, dropout, rng)

    def batch_logits(self, batch: Subgraph) -> np.ndarray:
        """Eval-mode logits for every batch vertex."""
        return self._forward(batch)[0]

    # nothing in sumlife calls this alias: the benchmark tracer wraps it by name
    feature_logits = batch_logits

    def train_step(self, batch: Subgraph, adam: AdamState, rng: np.random.Generator) -> float:
        """Forward, hand-derived backward, Adam update; returns the loss.
        Graph-MLP adds its contrastive term, whose gradient joins at the embeddings."""
        hyper = self.hyper
        logits, cache = self._forward(batch, rng)
        loss, dsel = cross_entropy(logits[batch.target_idx], batch.labels)
        dlogits = np.zeros_like(logits)
        scatter_add(dlogits, batch.target_idx, dsel)
        if self.arch == "graph-mlp":
            nc, dz_nc = graphmlp_contrast(cache["z"], batch.edge_src, batch.edge_dst, hyper.tau)
            loss = loss + hyper.alpha * nc
            grads = graphmlp_backward(self.params, cache, dlogits, hyper.alpha * dz_nc)
        elif self.arch == "mlp":
            grads = mlp_backward(self.params, cache, dlogits)
        else:
            grads = gcn_backward(self.params, cache, dlogits)
        assert_finite("loss", loss)
        for name, g in grads.items():
            assert_finite(f"grad {name}", g)
        adam_step(self.params.tensors(), grads, adam, hyper.learning_rate)
        return loss
