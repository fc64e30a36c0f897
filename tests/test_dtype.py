"""Every array a train step or an evaluation makes is in the parameters' dtype.

``ops.DTYPE`` (float32) is the compute dtype: sampling writes batch features
in it and ``Network.create`` casts its float64 draws to it.  Each kernel
follows the dtype of its inputs, so a network built from float64 tensors,
as the gradient checks build them, computes in float64 end to end.  numpy
promotes Python scalars by value before 2.0 and by kind after (NEP 50), so
CI runs this file at the numpy floor too, where an upcast that only one of
the two rules makes would show.
"""

from dataclasses import replace

import numpy as np
import pytest

from gradcheck import float64
from sumlife import lifelong
from sumlife.lifelong import _task_rng, _train_on_task, evaluate_network
from sumlife.nets import Hyper, Network, network
from sumlife.nets.network import ARCHITECTURES
from sumlife.nets.ops import DTYPE, Params
from test_bitwise import _task

# every architecture with dropout and, for message passing, degree normalization,
# so each mask and each float64 adjacency weight is on the path
HYPER = {
    "mlp": Hyper(hidden=[16], dropout=0.5),
    "graph-mlp": Hyper(hidden=[8], dropout=0.2),
    "gcn": Hyper(hidden=[8], dropout=0.3, normalize_adjacency=True),
    "gcn-edges": Hyper(hidden=[4, 4], dropout=0.3, normalize_adjacency=True),
}
# the network-module names a step or an evaluation calls, whose arguments and
# results hold the features read, forward caches, logits and gradients
KERNELS = ("mlp_forward", "graphmlp_forward", "gcn_forward", "mlp_backward",
           "graphmlp_backward", "gcn_backward", "graphmlp_contrast", "cross_entropy",
           "scatter_rows")


def _float_arrays(value, where: str):
    """(where, array) for each float array in nested dicts, lists and tuples;
    the adjacency (float64 weights by design) is not descended into."""
    if isinstance(value, np.ndarray):
        return [(where, value)] if value.dtype.kind == "f" else []
    if isinstance(value, dict):
        return [a for k, v in value.items() for a in _float_arrays(v, f"{where}.{k}")]
    if isinstance(value, (list, tuple)):
        return [a for i, v in enumerate(value) for a in _float_arrays(v, f"{where}[{i}]")]
    return []


class Tracked(np.ndarray):
    """An array whose ufuncs log the dtype of each float operand and result,
    numpy scalars included (``log``), and hand back their float array
    results as ``Tracked``, so every array computed from one is tracked too,
    through in-place, ``out=``, reduction and ``ufunc.at`` calls alike."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, Tracked) else a

        if out is not None:
            kwargs["out"] = tuple(plain(o) for o in out)
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        results = result if isinstance(result, tuple) else (result,)
        floats = [a for a in (*inputs, *(out or ()), *results)
                  if isinstance(a, (np.ndarray, np.generic)) and a.dtype.kind == "f"]
        if any(isinstance(a, Tracked) and a.dtype.kind == "f" for a in inputs):
            Tracked.log.extend(f"{ufunc.__name__}.{method}: {a.dtype}" for a in floats)
        if out is not None:
            return out[0] if len(out) == 1 else out
        wrapped = tuple(r.view(Tracked) if isinstance(r, np.ndarray) and r.dtype.kind == "f" else r
                        for r in results)
        return wrapped if isinstance(result, tuple) else wrapped[0]


def _recording(monkeypatch, seen: list, features: list) -> None:
    """Record the float arrays each kernel takes and returns in ``seen`` and
    each batch's features in ``features``; the features are ``Tracked`` from
    the batch on."""

    def wrap(module, name, record):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: record(
            name, args, inner(*args, **kwargs)))

    def kernel(name, args, out):
        seen.extend(_float_arrays(args, f"{name} args"))
        seen.extend(_float_arrays(out, f"{name} out"))
        return out

    def adam(name, args, out):  # parameters, gradients (now steps) and moments after the update
        tensors, grads, state = args[:3]
        seen.extend(_float_arrays({"params": tensors, "grads": grads, "m": state.m, "v": state.v},
                                  f"{name} after"))
        return out

    def batch(name, args, out):
        features.append((name, out.features))
        return replace(out, features=out.features.view(Tracked))

    for name in KERNELS:
        wrap(network, name, kernel)
    wrap(network, "adam_step", adam)
    for name in ("sample_batch", "receptive_field", "edge_as_vertex_transform"):
        wrap(lifelong, name, batch)


@pytest.mark.parametrize("to64", [False, True], ids=["float32", "float64"])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_train_step_and_evaluation_keep_the_parameters_dtype(monkeypatch, arch, to64):
    """Two steps and an evaluation: the arrays at the kernels' boundaries,
    and every float operand and result of each numpy operation on the
    parameters or features or on an array computed from them, are in the
    parameters' dtype."""
    seq, task = _task(1)
    net = Network.create(arch, task.pred_width, task.class_width, HYPER[arch], _task_rng(1, 0))
    if to64:
        net = float64(net)
    dtype = np.dtype(np.float64 if to64 else DTYPE)
    net.params = Params({name: t.view(Tracked) for name, t in net.params.items()})
    seen, features, log = [], [], []
    _recording(monkeypatch, seen, features)
    monkeypatch.setattr(Tracked, "log", log)
    _train_on_task(net, task, seq, 2, 40, _task_rng(1, 0))
    evaluate_network(net, task, seq)
    monkeypatch.undo()

    names = {where.split(" ")[0] for where, _ in seen}
    assert {"cross_entropy", "scatter_rows", "adam_step"} <= names
    assert {n.rsplit("_", 1)[-1] for n in names} >= {"forward", "backward"}
    upcast = sorted({f"{where}: {a.dtype}" for where, a in seen if a.dtype != dtype})
    assert not upcast, upcast
    assert all(t.dtype == dtype for t in net.params.values())
    # batches are written in the compute dtype, whatever the network reads them in
    assert {"sample_batch", "receptive_field"} <= {name for name, _ in features}
    assert all(x.dtype == DTYPE for _, x in features)
    assert log
    assert not sorted({op for op in log if not op.endswith(f": {dtype}")})
