"""The benchmark's workloads: generator parameters and the commands of one pass.

Every pass is a closed loop: one client in one process runs the workload's
commands one after another through ``sumlife.cli.main``: optionally the drift
pipeline (diff, summarize), then lifelong training, then eval of the last
checkpoint on the newest snapshot.  Sizes are chosen so that one pass takes
a few seconds on a 2-core machine, which lets a run take the median of
several passes within its time budget (see NOTES.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from gen import GenParams


EVAL_REPEATS = 6  # one eval is short: eval_s averages every eval of the run


@dataclass(frozen=True)
class Workload:
    name: str
    params: GenParams
    model: str  # summary model of every command
    architecture: str
    iterations: int
    diag_floor: float  # mean diagonal accuracy the lifelong run must reach
    drift_commands: bool = False  # start each pass with diff and summarize

    def commands(self, snapshots: list[str], out: Path, seed: int) -> list[tuple[str, str, list[str]]]:
        """(kind, output directory name, argv) of the commands of one pass under ``out``."""
        common = ["--model", self.model, "--seed", str(seed), "--threads", "1"]
        cmds = []
        if self.drift_commands:
            cmds += [
                ("diff", "diff", ["diff", *common, "--in", *snapshots, "--out", str(out / "diff")]),
                ("summarize", "summarize", ["summarize", *common, "--in", snapshots[-1],
                                            "--out", str(out / "summarize")]),
            ]
        cmds.append(("lifelong", "lifelong", [
            "lifelong", *common, "--architecture", self.architecture, "--restart", "warm",
            "--iterations", str(self.iterations), "--in", *snapshots, "--out", str(out / "lifelong"),
        ]))
        last_ckpt = out / "lifelong" / f"task{len(snapshots) - 1:02d}.gslc"
        for i in range(EVAL_REPEATS):
            cmds.append(("eval", f"eval{i}", ["eval", *common, "--ckpt", str(last_ckpt),
                                              "--in", snapshots[-1], "--out", str(out / f"eval{i}")]))
        return cmds

    def check_commands(self, out: Path) -> list[tuple[str, list[str]]]:
        """Untimed commands whose outputs the checks compare against the pass."""
        return [("report", ["report", "--matrix", str(out / "lifelong" / "R.csv"),
                            "--out", str(out / "report")])]


WORKLOADS = {
    w.name: w
    for w in (
        # dense 1024-unit MLP training dominates; evaluation reads features only
        Workload(
            name="lifelong-mlp",
            params=GenParams(subjects=6000, recipes=40),
            model="ac1",
            architecture="mlp",
            iterations=16,
            diag_floor=0.9,
        ),
        # the whole pipeline: ac2 drift measures and summary, then 2-hop
        # sampling, message passing and dense n x n full-graph evaluation
        Workload(
            name="lifelong-gcn",
            params=GenParams(subjects=3800, recipes=60),
            model="ac2",
            architecture="gcn",
            iterations=30,
            diag_floor=0.85,
            drift_commands=True,
        ),
    )
}
