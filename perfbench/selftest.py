"""Self-test of the benchmark's output checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs small versions of every workload once, traced, and requires all checks
to pass; then breaks the reference or an output on purpose (one vertex moved
to another class, a perturbed R.csv, an unreachable accuracy floor) and
requires each break to be caught as a failed command.  Exits 0 when every
expectation holds.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_passes  # noqa: E402
from gen import prepare_inputs  # noqa: E402
from run import ROOT, SRC, WORK, make_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def small(name: str):
    w = WORKLOADS[name]
    params = dataclasses.replace(w.params, subjects=600, recipes=30)
    return dataclasses.replace(w, params=params, iterations=min(w.iterations, 4),
                               diag_floor=0.0)


def moved_vertex(meta: dict, model: str) -> dict:
    """The reference with one vertex moved to another existing class."""
    bad = copy.deepcopy(meta)
    partition = bad["snapshots"][-1]["reference"][model]["partition"]
    first = next(iter(partition))
    other = next(c for c in partition.values() if c != partition[first])
    partition[first] = other
    return bad


def perturb_matrix(pass_dir: Path) -> None:
    path = pass_dir / "lifelong" / "R.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * 0.5 + 0.25)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    if not (SRC / "sumlife" / "cli.py").is_file():
        print(f"error: {SRC / 'sumlife'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from worker import run_passes

    os.chdir(ROOT)
    root = WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    ok = True

    def expect(label: str, condition: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= condition
        print(f"[{'PASS' if condition else 'FAIL'}] {label} {detail}".rstrip())

    for name in WORKLOADS:
        w = small(name)
        meta = prepare_inputs(root / "inputs", name, w.params, (w.model,), SEED)
        spec = make_spec(name, meta, SEED, 0.0, 1, root / "out" / name)
        result = run_passes(spec, w)
        passes = result["passes"]
        attempted, failed, problems, acc = check_passes(w, meta, passes)
        expect(f"{name}: correct outputs pass every check", failed == 0 and attempted > 0,
               f"({failed}/{attempted} failed) {problems[:3]}")
        traced = [p for p in passes if p["traced"]]
        expect(f"{name}: traced passes record layer metrics",
               bool(traced) and traced[0]["layers"]["trace.spans"] > 0)
        if w.drift_commands:
            _, failed, problems, _ = check_passes(w, moved_vertex(meta, w.model), passes)
            expect(f"{name}: one vertex moved in the reference is caught", failed > 0,
                   f"({failed} failed) {problems[:1]}")
        floor = dataclasses.replace(w, diag_floor=1.01)
        _, failed, _, _ = check_passes(floor, meta, passes)
        expect(f"{name}: an unreachable diagonal floor is caught", failed > 0)
        perturb_matrix(Path(passes[-1]["dir"]))
        _, failed, problems, _ = check_passes(w, meta, passes)
        expect(f"{name}: a perturbed R.csv is caught", failed > 0, f"({failed} failed)")
    shutil.rmtree(root, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
