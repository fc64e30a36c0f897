"""The benchmark tracer wraps program names by owner and attribute.

A renamed or deleted name would crash traced benchmark runs, so every
instrumented point must still resolve.  ``perfbench/`` is imported read-only.
"""

from pathlib import Path

import numpy as np
import pytest

from sumlife.lifelong import prepare_tasks
from sumlife.nets import Hyper, Network
from sumlife.nets.network import batch_adjacency
from sumlife.sampling import edge_as_vertex_transform, sample_batch
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
    tracer wraps, so a dispatch that bound them at import would record none."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    seq = prepare_tasks(drift_sequence(1, 2, 3, 10), "ac2", seed=1)
    task = seq.tasks[0]
    rng = np.random.default_rng(0)
    batch = sample_batch(task.graph, task.labels, task.split, 2, task.features, cap=40, rng=rng)
    net = Network.create(arch, task.pred_width, task.class_width, Hyper(hidden=hidden), rng)
    if net.edges_as_vertices:
        batch = edge_as_vertex_transform(batch, seq.pred_vocab)
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
