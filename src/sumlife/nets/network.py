"""Architecture dispatch: one object the training loop and evaluator drive.

Architectures: "mlp" (features only), "graph-mlp" (features + contrastive
term over batch edges), "gcn" and "gcn-edges" (message passing over the
sampled batch; the edges variant expects edge-as-vertex batches and two
hidden layers).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..sampling import Subgraph
from .adam import AdamState, adam_step
from .gcn import batch_adjacency, gcn_backward, gcn_forward, grow_gcn, init_gcn
from .graphmlp import graphmlp_backward, graphmlp_forward, grow_graphmlp, init_graphmlp
from .losses import cross_entropy, ncontrast_loss
from .mlp import MlpParams, grow_mlp, init_mlp, mlp_backward, mlp_forward
from .ops import assert_finite

ARCHITECTURES = ("mlp", "graph-mlp", "gcn", "gcn-edges")

# winning configurations: hidden size(s), dropout, learning rate
ARCH_DEFAULTS = {
    "mlp": ([1024], 0.5, 0.01),
    "graph-mlp": ([64], 0.2, 0.01),
    "gcn": ([64], 0.0, 0.1),
    "gcn-edges": ([32, 32], 0.0, 0.1),
}


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
        return Hyper(
            hidden=list(self.hidden) if self.hidden is not None else list(d_hidden),
            dropout=self.dropout if self.dropout is not None else d_drop,
            learning_rate=self.learning_rate if self.learning_rate is not None else d_lr,
            alpha=self.alpha,
            tau=self.tau,
            normalize_adjacency=self.normalize_adjacency,
        )


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
        if arch == "mlp":
            params = init_mlp(rng, n_in, hyper.hidden[0], n_classes)
        elif arch == "graph-mlp":
            params = init_graphmlp(rng, n_in, hyper.hidden[0], n_classes)
        else:
            params = init_gcn(rng, n_in, hyper.hidden, n_classes)
        return cls(arch, params, hyper)

    @property
    def n_in(self) -> int:
        return self.params.n_in

    @property
    def n_classes(self) -> int:
        return self.params.n_classes

    def clone(self) -> "Network":
        return Network(self.arch, copy.deepcopy(self.params), copy.deepcopy(self.hyper))

    def grow(self, n_in: int, n_classes: int, rng: np.random.Generator, zero_init: bool = False) -> None:
        if self.arch == "mlp":
            self.params = grow_mlp(self.params, rng, n_in, n_classes, zero_init)
        elif self.arch == "graph-mlp":
            self.params = grow_graphmlp(self.params, rng, n_in, n_classes, zero_init)
        else:
            self.params = grow_gcn(self.params, rng, n_in, n_classes, zero_init)

    def new_adam(self) -> AdamState:
        return AdamState.init_like(self.params.tensors())

    # -- forward passes ------------------------------------------------------

    def _batch_inputs(self, batch: Subgraph) -> np.ndarray:
        x = batch.features
        if x.shape[1] < self.n_in:
            raise ValueError("feature width below network input width")
        return x[:, : self.n_in]

    def batch_logits(self, batch: Subgraph) -> np.ndarray:
        """Eval-mode logits for every batch vertex."""
        x = self._batch_inputs(batch)
        if self.arch == "mlp":
            logits, _ = mlp_forward(self.params, x)
        elif self.arch == "graph-mlp":
            _, logits, _ = graphmlp_forward(self.params, x)
        else:
            adj = batch_adjacency(batch.num_vertices, batch.edge_src, batch.edge_dst)
            logits, _ = gcn_forward(self.params, x, adj, normalize=self.hyper.normalize_adjacency)
        return logits

    def feature_logits(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode logits from raw feature rows (mlp / graph-mlp only)."""
        x = x[:, : self.n_in]
        if self.arch == "mlp":
            logits, _ = mlp_forward(self.params, x)
            return logits
        if self.arch == "graph-mlp":
            _, logits, _ = graphmlp_forward(self.params, x)
            return logits
        raise ValueError("message-passing networks need a batch, not bare features")

    # -- training ------------------------------------------------------------

    def train_step(self, batch: Subgraph, adam: AdamState, rng: np.random.Generator) -> float:
        """Forward, hand-derived backward, Adam update; returns the loss."""
        x = self._batch_inputs(batch)
        targets = batch.target_idx
        labels = batch.labels
        hyper = self.hyper
        if self.arch == "mlp":
            logits, cache = mlp_forward(self.params, x, True, hyper.dropout, rng)
            loss, dsel = cross_entropy(logits[targets], labels)
            dlogits = np.zeros_like(logits)
            np.add.at(dlogits, targets, dsel)
            grads = mlp_backward(self.params, cache, dlogits)
        elif self.arch == "graph-mlp":
            z, logits, cache = graphmlp_forward(self.params, x, True, hyper.dropout, rng)
            ce, dsel = cross_entropy(logits[targets], labels)
            if batch.num_vertices >= 2:
                gamma = np.zeros((batch.num_vertices, batch.num_vertices))
                if batch.num_edges:
                    gamma[batch.edge_src, batch.edge_dst] = 1.0
                    gamma[batch.edge_dst, batch.edge_src] = 1.0
                nc, dz_nc = ncontrast_loss(z, gamma, hyper.tau)
            else:
                nc, dz_nc = 0.0, np.zeros_like(z)
            loss = ce + hyper.alpha * nc
            dlogits = np.zeros_like(logits)
            np.add.at(dlogits, targets, dsel)
            grads = graphmlp_backward(self.params, cache, dlogits, hyper.alpha * dz_nc)
        else:
            adj = batch_adjacency(batch.num_vertices, batch.edge_src, batch.edge_dst)
            logits, cache = gcn_forward(
                self.params, x, adj, hyper.normalize_adjacency, True, hyper.dropout, rng
            )
            loss, dsel = cross_entropy(logits[targets], labels)
            dlogits = np.zeros_like(logits)
            np.add.at(dlogits, targets, dsel)
            grads = gcn_backward(self.params, cache, dlogits)
        assert_finite("loss", loss)
        for name, g in grads.items():
            assert_finite(f"grad {name}", g)
        adam_step(self.params.tensors(), grads, adam, hyper.learning_rate)
        return loss

