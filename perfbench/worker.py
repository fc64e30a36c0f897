"""Runs the timed passes of one benchmark run in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

The spec names the workload, seed, time budget, trace flag, snapshot paths
and the checkout's ``src`` directory.  The worker imports sumlife, then runs
closed-loop passes (each pass runs the workload's commands in order through
``sumlife.cli.main``) until the time budget is spent, and writes per-pass
timings, exit codes and, for traced passes, per-layer metrics to RESULT.json.
In an untraced run it also times the import of sumlife in fresh processes
after every pass, for the set-up metric.
Output checks are the parent's job; the worker only runs the untimed
commands those checks compare against.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two traced, two untraced, in U T T U order
HARD_STOP_S = 120.0  # stop after any pass past this, to exit well within the run limit
SETUP_PROBES_PER_PASS = 3  # between passes, so set-up time sees the host as the passes do

_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import sumlife, sumlife.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def probe_setup(src: str) -> float:
    """Import time of sumlife and sumlife.cli in a fresh process."""
    out = subprocess.run([sys.executable, "-c", _PROBE, src],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _run(main, argv: list[str]) -> tuple[int, str]:
    try:
        return int(main(argv)), ""
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), f"SystemExit {exc.code}"
    except Exception:  # a crash is a failed command, not a failed benchmark
        return -1, traceback.format_exc(limit=5)


def run_passes(spec: dict, workload) -> dict:
    """Closed-loop passes of ``workload`` until ``spec["seconds"]`` are spent."""
    import sumlife.cli as cli

    snapshots = spec["snapshots"]
    seed = spec["seed"]
    traced_run = bool(spec["trace"])
    out_root = Path(spec["out"])
    tracer = None
    if traced_run:
        from tracing import Tracer, pass_metrics
        tracer = Tracer(spec["lines_of"])

    passes = []
    setup = []
    durations = []
    loop_start = time.perf_counter()
    k = 0
    while True:
        pass_dir = out_root / f"p{k:02d}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        traced = traced_run and k % 4 in (1, 2)
        if traced:
            base = tracer.mark()
            tracer.install()
        commands = []
        try:
            t_pass = time.perf_counter()
            cpu_pass = time.process_time()
            for kind, out, argv in workload.commands(snapshots, pass_dir, seed):
                t0 = time.perf_counter()
                if traced:
                    rc, err = tracer.span(f"cli.{kind}", "cli", _run)(cli.main, argv)
                else:
                    rc, err = _run(cli.main, argv)
                commands.append({"kind": kind, "out": out, "rc": rc,
                                 "seconds": time.perf_counter() - t0, "error": err})
            run_s = time.perf_counter() - t_pass
            cpu_s = time.process_time() - cpu_pass
        finally:
            if traced:
                tracer.uninstall()
        checks = []
        for label, argv in workload.check_commands(pass_dir):
            rc, err = _run(cli.main, argv)
            checks.append({"label": label, "rc": rc, "error": err})
        record = {"dir": str(pass_dir), "traced": traced, "run_s": run_s, "cpu_s": cpu_s,
                  "commands": commands, "check_commands": checks}
        if traced:
            record["layers"] = pass_metrics(tracer.spans, base)
        passes.append(record)
        if not traced_run:
            setup += [probe_setup(spec["src"]) for _ in range(SETUP_PROBES_PER_PASS)]
        k += 1
        elapsed = time.perf_counter() - loop_start
        durations.append(elapsed - sum(durations))
        need = MIN_TRACED_PASSES if traced_run else MIN_PASSES
        if elapsed > HARD_STOP_S:
            break
        if k >= need and elapsed + statistics.median(durations) > spec["seconds"]:
            break

    result = {
        "passes": passes,
        "setup_s": setup,
        "loop_s": time.perf_counter() - loop_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        spans_path = out_root / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import sumlife

    if not Path(sumlife.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"sumlife imported from {sumlife.__file__}, not from {spec['src']}")
    from workloads import WORKLOADS

    result = run_passes(spec, WORKLOADS[spec["workload"]])
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
