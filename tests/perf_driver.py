"""Child process for the summarization performance criterion.

Builds a synthetic graph from term arrays (interning excluded from timing),
times one-hop summarization best-of-five in process CPU time, and prints JSON
to stdout.  CPU time rather than wall time, so other processes sharing the
host do not move the 2M/1M scaling ratio.  Run as:
python perf_driver.py <n_edges>
"""

import json
import sys
import time

import numpy as np

from sumlife.ingest import SnapshotGraph, TermTable
from sumlife.summarize import summarize


def build(n_edges: int) -> SnapshotGraph:
    rng = np.random.default_rng(0)
    n_vertices = max(2, n_edges // 5)
    table = TermTable()
    vertex_ids = np.array(
        [table.intern("iri", f"http://x/v{i}") for i in range(n_vertices)], np.int64
    )
    pred_ids = np.array(
        [table.intern("iri", f"http://x/p{i}") for i in range(8)], np.int64
    )
    src = vertex_ids[rng.integers(0, n_vertices, size=n_edges)]
    dst = vertex_ids[rng.integers(0, n_vertices, size=n_edges)]
    pred = pred_ids[rng.integers(0, 8, size=n_edges)]
    return SnapshotGraph.from_term_edges("perf", table, src, pred, dst)


def main() -> None:
    n_edges = int(sys.argv[1])
    g = build(n_edges)
    summary, _ = summarize(g, "ac1")  # untimed warmup (allocator growth)
    best = float("inf")
    for _ in range(5):
        start = time.process_time()
        summary, _ = summarize(g, "ac1")
        best = min(best, time.process_time() - start)
    print(
        json.dumps(
            {
                "edges": g.edge_count,
                "vertices": g.num_vertices,
                "eqcs": summary.num_primary,
                "members": int(summary.sizes.sum()),
                "seconds": best,
            }
        )
    )


if __name__ == "__main__":
    main()
