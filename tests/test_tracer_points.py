"""The benchmark tracer wraps program names by owner and attribute.

A renamed or deleted name would crash traced benchmark runs, so every
instrumented point must still resolve.  ``perfbench/`` is imported read-only.
"""

from pathlib import Path

import numpy as np

from sumlife.nets.network import batch_adjacency

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
