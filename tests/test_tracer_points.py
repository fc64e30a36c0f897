"""The benchmark tracer wraps program names by owner and attribute.

A renamed or deleted name would crash traced benchmark runs, so every
instrumented point must still resolve.  ``perfbench/`` is imported read-only.
"""

from pathlib import Path

import numpy as np
import pytest

from sumlife.lifelong import prepare_tasks
from sumlife.nets import Hyper, Network
from sumlife.nets.network import ARCHITECTURES, _tensor_shapes, batch_adjacency
from sumlife.sampling import sample_batch, target_distribution
from synth import drift_sequence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def instrument_points(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing._instrument_points({})


def test_every_instrumented_name_resolves(monkeypatch):
    points = instrument_points(monkeypatch)
    assert points
    for owner, attr, name, _layer, _attrs in points:
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert callable(raw), f"{name}: {getattr(owner, '__name__', owner)}.{attr} is gone"


def test_adjacency_counter_reads_the_returned_structure(monkeypatch):
    (attrs,) = [a for _, _, name, _, a in instrument_points(monkeypatch) if name == "nets.adjacency"]
    adj = batch_adjacency(4, np.array([0, 1, 1]), np.array([1, 2, 2]))
    assert attrs((), {}, adj) == {"bytes": adj.nbytes} and adj.nbytes > 0


@pytest.mark.parametrize("arch, hidden", [("mlp", [8]), ("gcn", [4]), ("gcn-edges", [3, 3])],
                         ids=["mlp", "gcn", "gcn-edges"])
def test_tracer_sees_the_nets_layer(monkeypatch, arch, hidden):
    """Forward, backward, Adam and logits spans come from the module names the
    tracer wraps, so a dispatch that bound them at import would record none.
    The step's ``flops`` counter reads the parameter record's ``w0``,
    ``w_out``, ``layers`` and ``w_cls``; it must equal the closed form of
    the layout ``_tensor_shapes`` states."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    seq = prepare_tasks(drift_sequence(1, 2, 3, 10), "ac2", seed=1)
    task = seq.tasks[0]
    rng = np.random.default_rng(0)
    distribution = target_distribution(task.labels, task.split)
    batch = sample_batch(task.graph, task.labels, distribution, 2, cap=40, rng=rng)
    net = Network.create(arch, task.pred_width, task.class_width, Hyper(hidden=hidden), rng)
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        net.train_step(batch, net.new_adam(), rng)
        net.batch_logits(batch)
    finally:
        tracer.uninstall()
    names = {span[tracing.NAME] for span in tracer.spans}
    expected = {"nets.train_step", "nets.forward", "nets.backward", "nets.adam", "nets.logits"}
    if arch != "mlp":
        expected.add("nets.adjacency")
    assert expected <= names, expected - names
    assert Network.train_step.__name__ == "train_step"  # the tracer is uninstalled

    n = batch.num_vertices  # the batch's, without the edge vertices gcn-edges adds to its input
    shapes = _tensor_shapes(arch, task.pred_width, hidden, task.class_width)
    if arch == "mlp":
        (d, h), (_, c) = shapes["w0"], shapes["w_out"]
        flops = 4 * n * d * h + 6 * n * h * c
    else:
        (jk, c) = shapes.pop("w_cls")
        flops = sum(6 * n * d_in * d_out + 4 * n * n * d_out for d_in, d_out in shapes.values())
        flops += 6 * n * jk * c
    steps = [span[tracing.ATTRS] for span in tracer.spans if span[tracing.NAME] == "nets.train_step"]
    assert steps == [{"flops": flops}]


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_one_unnested_span_per_create_and_grow(monkeypatch, arch):
    """``lifelong.task_s_p50`` cuts tasks at the starts of ``nets.create`` and
    ``nets.grow`` spans, so each call must record exactly one, never inside the other."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = np.random.default_rng(0)
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        net = Network.create(arch, 3, 2, Hyper(hidden=[4]), rng)
        net.grow(5, 2, rng)
        net.grow(5, 4, rng, zero_init=True)
        Network.create(arch, 5, 4, Hyper(hidden=[4]), rng)
        net.clone().grow(6, 4, rng)
    finally:
        tracer.uninstall()
    parents = {name: [s[tracing.PARENT] for s in tracer.spans if s[tracing.NAME] == name]
               for name in ("nets.create", "nets.grow")}
    assert parents == {"nets.create": [-1, -1], "nets.grow": [-1, -1, -1]}
