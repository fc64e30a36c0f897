"""sumlife benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lifelong-gcn --seed 1 --seconds 55 --trace 0

The run generates the workload's snapshots from the seed (cached under
.perfbench_work/, outside the timed region), then runs closed-loop passes in
a worker process for about ``--seconds`` seconds (the worker also measures
set-up time in fresh processes between passes) and checks every pass's outputs against the reference
partition the generator computed.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced
passes and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import INPUT_FORMAT, prepare_inputs  # noqa: E402
from checks import check_passes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared machine steady
WORKER_TIMEOUT_S = 170


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric kind of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SUMLIFE_SEED", "PYTHONPATH")}
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def environment(meta: dict) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": meta["seed"],
        "generator": meta["params"],
        "input_format": INPUT_FORMAT,
        "inputs": [
            {"snapshot": Path(s["path"]).name, "lines": s["lines"], "bytes": s["bytes"],
             **{f"{m}_vertices": r["vertices"] for m, r in s["reference"].items()},
             **{f"{m}_edges": r["edges"] for m, r in s["reference"].items()},
             **{f"{m}_classes": len(r["classes"]) for m, r in s["reference"].items()}}
            for s in meta["snapshots"]
        ],
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict, acc: float) -> dict:
    passes = result["passes"]

    def command_s(kind: str) -> list[float]:
        return [c["seconds"] for p in passes for c in p["commands"] if c["kind"] == kind]

    values = {
        "setup_s": _median(result["setup_s"]),
        "run_s": _median([p["run_s"] for p in passes]),
        "lifelong_s": _median(command_s("lifelong")),
        # one eval is short enough to fall wholly into a fast or a slow phase
        # of a shared host, so a median of evals jumps between the two; their
        # mean over the whole run averages the phases like run_s does
        "eval_s": statistics.mean(command_s("eval")),
        "peak_rss_mb": result["peak_rss_mb"],
        "acc": acc,
    }
    units = _units("end_to_end")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def per_layer(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    values = {}
    for name in traced[0]["layers"]:
        values[name] = _median([p["layers"][name] for p in traced])
    values["reporting.bytes"] = _median([
        sum(f.stat().st_size for f in Path(p["dir"]).rglob("*")
            if f.is_file() and f.parent.name != "report")
        for p in traced
    ])
    values["trace.run_s"] = _median([p["run_s"] for p in traced])
    values["trace.untraced_run_s"] = _median([p["run_s"] for p in untraced])
    values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
    return {k: {"value": values[k], "unit": u} for k, u in _units("per_layer").items()}


def make_spec(name: str, meta: dict, seed: int, seconds: float, trace: int, out_root: Path) -> dict:
    """What the worker needs; snapshot paths are relative to the checkout root."""
    snapshots = [os.path.relpath(s["path"], ROOT) for s in meta["snapshots"]]
    return {
        "src": str(SRC), "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "out": str(out_root), "snapshots": snapshots,
        "lines_of": {p: s["lines"] for p, s in zip(snapshots, meta["snapshots"])},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sumlife" / "cli.py").is_file():
        print(f"error: {SRC / 'sumlife'} not found; run from a sumlife checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    models = (workload.model,)
    t0 = time.perf_counter()
    meta = prepare_inputs(WORK / "inputs", workload.name, workload.params, models, args.seed)
    gen_s = time.perf_counter() - t0

    out_root = WORK / "out" / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    spec = make_spec(workload.name, meta, args.seed, args.seconds, args.trace, out_root)
    spec_path = out_root / "spec.json"
    result_path = out_root / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                       env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))

    attempted, failed, problems, acc = check_passes(workload, meta, result["passes"])
    metrics = per_layer(result) if args.trace else end_to_end(result, acc)
    env = environment(meta)
    summary = {
        "workload": workload.name, "trace": args.trace, "passes": len(result["passes"]),
        "generate_s": gen_s, "failed_share": failed / attempted, "environment": env,
        "problems": problems[:20], "metrics": metrics,
        "passes_s": [[p["run_s"], p["cpu_s"]] for p in result["passes"]],
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{workload.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")

    print(f"# workload {workload.name} seed {args.seed} passes {len(result['passes'])} "
          f"failed_share {failed / attempted:.4f} ({failed}/{attempted})")
    print("# environment " + json.dumps(env, separators=(",", ":")))
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    for name, m in metrics.items():
        print(f"# {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
