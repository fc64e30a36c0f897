"""The one module that names the architectures: "mlp" (features only),
"graph-mlp" (features + contrastive term over batch edges), "gcn" and
"gcn-edges" (message passing; the edges variant takes edge-as-vertex batches).

Each per-architecture decision is made here.  ``_tensor_shapes`` is the one
statement of each architecture's parameter layout, and ``_widened`` the one
path that makes parameters to it: ``ops.widen`` of each tensor in layout
order, from empty tensors in ``Network.create`` and from the current ones in
``Network.grow``.  ``Network.from_tensors`` checks the layout of tensors a
checkpoint holds.  Every network keeps its tensors, in layout order, as one
``ops.Params`` record, the same type for every architecture.  The batch a
network reads is decided in ``receptive_hops`` and ``edges_as_vertices``,
its input rows (at its own width) and forward pass in ``_forward``, and the
backward pass after ``train_step``'s one loss tail.  Both passes look their
functions up in this module's globals at call time, so a wrapper put on a
module name (as the benchmark's tracer does) sees every call.  ``RULES``
is the one statement of every run and network setting's rule.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from ..errors import ConfigError
from ..ingest import DEGREE_MODES
from ..sampling import Subgraph
from ..summarize import MODEL_HOPS
from .adam import AdamState, adam_step
from .gcn import batch_adjacency, gcn_backward, gcn_forward
from .graphmlp import graphmlp_backward, graphmlp_contrast, graphmlp_forward
from .losses import cross_entropy
from .mlp import mlp_backward, mlp_forward
from .ops import DTYPE, Params, assert_finite, scatter_rows, widen

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
# how a task after the first starts its network: warm grows the previous
# one (``Network.grow``), cold creates one (``Network.create``)
RESTARTS = ("warm", "cold")
# the largest hidden size and batch cap a run takes, the largest 32-bit
# signed integer: a layer or a batch's draws of that size would already
# need gigabytes, so a larger value is refused before anything is loaded
MAX_SIZE = 2**31 - 1
# the allowed values of each setting that has a fixed choice list
CHOICES = {"model": tuple(MODEL_HOPS), "architecture": ARCHITECTURES, "restart": RESTARTS,
           "degree_mode": DEGREE_MODES}


def _number(value, kind: type) -> bool:
    """Whether ``value`` is of the numbers ABC ``kind`` and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def parse_hidden(text: str) -> list[int] | None:
    """The hidden sizes ``text`` lists, comma-separated; None if one is no integer."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        return None


def _integer(low: int, high: float = math.inf):
    return lambda v: _number(v, Integral) and low <= v <= high


def _unset_or(test):
    return lambda v: v is None or test(v)


# each setting's rule and the test a value passes: the one statement of the
# type and range of every ``RunConfig`` and ``Hyper`` field, for flags,
# config files, SUMLIFE_SEED and checkpoint headers alike (NaN fails each
# numeric test, a bool each but a bool setting's)
RULES = {
    **{key: ("/".join(allowed), lambda v, allowed=allowed: v in allowed)
       for key, allowed in CHOICES.items()},
    **dict.fromkeys(("snapshots", "timestamps"), (
        "a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))),
    "out_dir": ("a string", lambda v: isinstance(v, str)),
    "hidden_size": ("comma-separated integers",
                    lambda v: isinstance(v, str) and parse_hidden(v) is not None),
    "iterations": (">= 1", _integer(1)),
    "batch_cap": (f">= 1 and <= {MAX_SIZE}", _integer(1, MAX_SIZE)),
    "threads": (">= 1", _integer(1)),
    "seed": (">= 0 and < 2**64", _integer(0, 2**64 - 1)),
    "degree_cap": (">= 1", _unset_or(_integer(1))),
    **dict.fromkeys(("include_rdf_types", "zero_init_growth", "normalize_adjacency"),
                    ("a bool", lambda v: isinstance(v, bool))),
    "hidden": (f"a non-empty list of integer hidden sizes in [1, {MAX_SIZE}]",
               _unset_or(lambda v: isinstance(v, list) and len(v) > 0
                         and all(map(_integer(1, MAX_SIZE), v)))),
    "dropout": ("a number in [0, 1)", _unset_or(lambda v: _number(v, Real) and 0 <= v < 1)),
    "learning_rate": ("a finite number > 0",
                      _unset_or(lambda v: _number(v, Real) and 0 < v < math.inf)),
    "alpha": ("a finite number >= 0", lambda v: _number(v, Real) and 0 <= v < math.inf),
    "tau": ("a finite number > 0", lambda v: _number(v, Real) and 0 < v < math.inf),
}


def check(key: str, value) -> None:
    """ConfigError, naming ``key``, unless ``value`` passes ``key``'s rule;
    a value is checked, never converted."""
    rule, holds = RULES[key]
    if not holds(value):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")


@dataclass
class Hyper:
    """Training hyperparameters; unset (None) fields fall back to the
    architecture defaults.  Each field is checked against ``RULES``."""

    hidden: list[int] | None = None
    dropout: float | None = None
    learning_rate: float | None = None
    alpha: float = 1.0
    tau: float = 2.0
    normalize_adjacency: bool = False

    def __post_init__(self):
        for f in fields(self):
            check(f.name, getattr(self, f.name))

    def resolved(self, arch: str) -> "Hyper":
        """Every unset field at ``arch``'s default; ConfigError for more than
        one hidden size of an architecture that reads feature rows alone."""
        if arch in FEATURE_ONLY and self.hidden is not None and len(self.hidden) > 1:
            raise ConfigError(f"architecture {arch} takes one hidden size, got {self.hidden!r}")
        d_hidden, d_drop, d_lr = ARCH_DEFAULTS[arch]
        return replace(
            self,
            hidden=list(self.hidden if self.hidden is not None else d_hidden),
            dropout=self.dropout if self.dropout is not None else d_drop,
            learning_rate=self.learning_rate if self.learning_rate is not None else d_lr,
        )


def _tensor_shapes(arch: str, n_in: int, hidden: list, n_classes: int) -> dict[str, tuple]:
    """Each parameter tensor's shape, by name: the one statement of an
    architecture's parameter layout.  ``_widened`` draws the tensors in this
    order, so reordering it changes every checkpoint."""
    if arch == "mlp":
        (h,) = hidden
        return {"w0": (n_in, h), "b0": (h,), "w_out": (h, n_classes), "b_out": (n_classes,)}
    if arch == "graph-mlp":
        (h,) = hidden
        return {"w0": (n_in, h), "w1": (h, h), "w2": (h, n_classes)}
    widths = [n_in, *hidden]
    return {**{f"w{i}": tuple(widths[i : i + 2]) for i in range(len(hidden))},
            "w_cls": (sum(hidden), n_classes)}


def _widened(arch: str, hyper: Hyper, n_in: int, n_classes: int, rng: np.random.Generator,
             old: Params | None = None, zero_init: bool = False) -> Params:
    """The parameters of ``arch`` at these widths: each tensor of ``old`` (an
    empty ``DTYPE`` one when ``old`` is None) through ``ops.widen``, in layout
    order, all from ``rng``."""
    shapes = _tensor_shapes(arch, n_in, hyper.hidden, n_classes)
    if old is None:
        old = {name: np.empty((0,) * len(shape), DTYPE) for name, shape in shapes.items()}
    return Params({name: widen(rng, old[name], shape, zero_init) for name, shape in shapes.items()})


class Network:
    """One classifier with its architecture and hyperparameters."""

    def __init__(self, arch: str, params: Params, hyper: Hyper):
        if arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {arch!r}")
        self.arch = arch
        self.params = params
        self.hyper = hyper

    @classmethod
    def create(cls, arch: str, n_in: int, n_classes: int, hyper: Hyper, rng: np.random.Generator) -> "Network":
        """A fresh ``DTYPE`` network: ``_widened`` from empty tensors, so each
        weight is drawn Glorot-uniform in layout order and each bias is zero."""
        hyper = hyper.resolved(arch)
        return cls(arch, _widened(arch, hyper, n_in, n_classes, rng), hyper)

    @classmethod
    def from_tensors(cls, arch: str, tensors: dict, hyper: Hyper, n_in: int, n_classes: int) -> "Network":
        """The network whose parameters are ``tensors``, in layout order;
        ValueError unless each has the shape ``arch`` gives it for ``n_in``,
        ``hyper.hidden`` and ``n_classes``, so layers chain and a GCN has a
        layer per hidden size."""
        shapes = {name: t.shape for name, t in tensors.items()}
        expected = _tensor_shapes(arch, n_in, hyper.hidden, n_classes)
        if shapes != expected:
            raise ValueError(f"{arch} tensor shapes {shapes} are not {expected}")
        return cls(arch, Params({name: tensors[name] for name in expected}), hyper)

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
        hops = len(self.hyper.hidden) + int(self.hyper.normalize_adjacency)
        return (hops + 1) // 2 if self.edges_as_vertices else hops

    def clone(self) -> "Network":
        return Network(self.arch, copy.deepcopy(self.params), copy.deepcopy(self.hyper))

    def grow(self, n_in: int, n_classes: int, rng: np.random.Generator, zero_init: bool = False) -> None:
        """Widen to ``n_in`` inputs and ``n_classes`` outputs through ``_widened``:
        existing entries are kept bit-exactly, new weight entries are drawn in
        layout order (zero with ``zero_init``) and new bias entries are zero,
        each tensor keeping its dtype."""
        if n_in < self.n_in or n_classes < self.n_classes:
            raise ValueError("layers can only grow")
        self.params = _widened(self.arch, self.hyper, n_in, n_classes, rng, self.params, zero_init)

    def new_adam(self) -> AdamState:
        return AdamState.init_like(self.params)

    def _forward(self, batch: Subgraph, rng: np.random.Generator | None = None,
                 rows: np.ndarray | None = None):
        """(logits of the batch vertices ``rows``, in that order, backward
        cache); every vertex when ``rows`` is None.  Train mode exactly when
        ``rng`` is given, and the cache is None otherwise.  Only what those
        logits read is computed: the MLP runs on those feature rows alone,
        while message passing and Graph-MLP's embeddings still cover every row.
        The one place a batch's multi-hot rows are written: at ``n_in``
        columns, in the parameters' dtype, from the batch's feature pairs; a
        column the network was never grown to is ignored."""
        x = np.zeros((batch.num_vertices, self.n_in), self.params.dtype)
        seen = batch.feature_col < self.n_in
        x[batch.feature_src[seen], batch.feature_col[seen]] = 1.0
        train, dropout = rng is not None, self.hyper.dropout
        if self.arch == "mlp":
            return mlp_forward(self.params, x, train, dropout, rng, rows)
        if self.arch == "graph-mlp":
            _, logits, cache = graphmlp_forward(self.params, x, train, dropout, rng, rows)
            return logits, cache
        adj = batch_adjacency(batch.num_vertices, batch.edge_src, batch.edge_dst,
                              self.hyper.normalize_adjacency, self.params.dtype)
        return gcn_forward(self.params, x, adj, train, dropout, rng, rows)

    @np.errstate(all="ignore")  # a divergence shows as non-finite logits, not as warnings
    def batch_logits(self, batch: Subgraph, rows: np.ndarray | None = None) -> np.ndarray:
        """Eval-mode logits of the batch vertices ``rows``, in that order;
        of every batch vertex when ``rows`` is None."""
        return self._forward(batch, rows=rows)[0]

    # nothing in sumlife calls this alias: the benchmark tracer wraps it by name
    feature_logits = batch_logits

    @np.errstate(all="ignore")  # assert_finite reports a divergence, once
    def train_step(self, batch: Subgraph, adam: AdamState, rng: np.random.Generator) -> float:
        """Forward, hand-derived backward, Adam update; returns the loss.

        Logits are computed once per distinct target row, ``rows`` (sorted):
        a target may repeat, and may sit past ``n_targets`` when an earlier
        closure brought it in.  Each draw's loss gradient is summed back onto
        its row, so the gradients equal those of a pass over every batch
        vertex, in which the other rows get exact zeros.  The MLP draws
        dropout for those rows alone, and the rng skips the rest, so every
        later draw is as after a mask over every batch vertex.  Graph-MLP
        adds its contrastive term, whose gradient joins at the embeddings.

        Each array is dropped once nothing later reads it: the logits and
        the per-draw gradient once the row gradient exists, the forward
        cache and the row gradient once the backward pass returns, and the
        gradients in Adam, which uses them as its step buffers.  numpy's
        floating-point warnings are silenced: a non-finite loss or gradient
        raises ``NumericalError``."""
        hyper = self.hyper
        rows, inv = np.unique(batch.target_idx, return_inverse=True)
        logits, cache = self._forward(batch, rng, rows)
        loss, dsel = cross_entropy(logits, batch.labels, rows=inv)
        del logits
        dlogits = scatter_rows(dsel, inv, len(rows))
        del dsel
        if self.arch == "graph-mlp":
            nc, dz_nc = graphmlp_contrast(cache["z"], batch.edge_src, batch.edge_dst, hyper.tau)
            loss = loss + hyper.alpha * nc
            grads = graphmlp_backward(self.params, cache, dlogits, hyper.alpha * dz_nc)
        elif self.arch == "mlp":
            grads = mlp_backward(self.params, cache, dlogits)
        else:
            grads = gcn_backward(self.params, cache, dlogits)
        del cache, dlogits
        assert_finite("loss", loss)
        for name, g in grads.items():
            assert_finite(f"grad {name}", g)
        adam_step(self.params, grads, adam, hyper.learning_rate)
        return loss
