"""Output checks of one pass, against the generator's reference and each other.

Checks never import sumlife.  Each returns a list of problems (empty when the
output is right); a command with any problem, or a non-zero exit, counts as
failed.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

REPORT_MEASURES = ("acc", "bwt", "fwt", "omega_base", "omega_new", "omega_all",
                   "alpha_ideal", "forgetting")


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_matrix(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[float(x) for x in line.split(",")[1:]] for line in lines[1:] if line]


def partition_agreement(reference: dict[str, str], tsv: Path) -> tuple[float, int]:
    """(share of reference vertices placed as in the reference, vertices missing).

    The share is 1.0 exactly when the partition in ``eqcs.tsv``, restricted to
    the reference's vertices, equals the reference partition.
    """
    got: dict[str, str] = {}
    with open(tsv, encoding="utf-8") as fh:
        for line in fh:
            lex, _, h = line.rstrip("\n").rpartition("\t")
            got[lex] = h
    pairs = Counter()
    missing = 0
    for lex, cls in reference.items():
        h = got.get(lex)
        if h is None:
            missing += 1
        else:
            pairs[(cls, h)] += 1
    best_ref: dict[str, int] = {}
    best_got: dict[str, int] = {}
    for (cls, h), n in pairs.items():
        best_ref[cls] = max(best_ref.get(cls, 0), n)
        best_got[h] = max(best_got.get(h, 0), n)
    agree = min(sum(best_ref.values()), sum(best_got.values()))
    return agree / max(len(reference), 1), missing


def _class_sets(meta: dict, model: str) -> list[dict[str, int]]:
    return [dict(s["reference"][model]["classes"]) for s in meta["snapshots"]]


def check_diff(out: Path, meta: dict, model: str) -> list[str]:
    problems = []
    records = _read_json(out / "diff.json")
    rows = (out / "meta.csv").read_text(encoding="utf-8").splitlines()[1:]
    classes = _class_sets(meta, model)
    if len(records) != len(classes) or len(rows) != len(classes):
        return [f"diff covers {len(records)} snapshots, expected {len(classes)}"]
    seen: set[str] = set()
    prev = None
    for i, (rec, row, cur) in enumerate(zip(records, rows, classes)):
        ref = meta["snapshots"][i]["reference"][model]
        eqcs = int(row.split(",")[2])
        if eqcs != len(cur):
            problems.append(f"snapshot {i}: {eqcs} EQCs, reference has {len(cur)}")
        if rec["avg_size"] != ref["vertices"] / len(cur):
            problems.append(f"snapshot {i}: avg_size {rec['avg_size']} != "
                            f"{ref['vertices']}/{len(cur)}")
        p = cur if prev is None else prev
        want = {"added": len(cur.keys() - p.keys()), "deleted": len(p.keys() - cur.keys()),
                "recurring": len(cur.keys() & p.keys()),
                "cumulative_seen": len(seen | cur.keys())}
        for key, value in want.items():
            if rec[key] != value:
                problems.append(f"snapshot {i}: {key} {rec[key]} != reference {value}")
        seen |= cur.keys()
        prev = cur
    return problems


def check_summarize(out: Path, meta: dict, model: str) -> list[str]:
    """Problems of the newest snapshot's summary."""
    problems = []
    snap = meta["snapshots"][-1]
    ref = snap["reference"][model]
    stats = _read_json(out / "stats.json")
    want = {"eqcs": len(ref["classes"]), "vertices": ref["vertices"], "edges": ref["edges"],
            "skipped_lines": snap["duplicate_lines"] + snap["malformed_lines"]}
    for key, value in want.items():
        if stats[key] != value:
            problems.append(f"stats.json {key} {stats[key]} != reference {value}")
    hist_lines = (out / "members_hist.csv").read_text(encoding="utf-8").splitlines()[1:]
    got_hist = sorted(tuple(int(x) for x in line.split(",")) for line in hist_lines)
    want_hist = sorted(Counter(size for _, size in ref["classes"]).items())
    if got_hist != want_hist:
        problems.append("extension-size histogram differs from the reference")
    agreement, missing = partition_agreement(ref["partition"], out / "eqcs.tsv")
    if missing:
        problems.append(f"{missing} reference vertices missing from eqcs.tsv")
    if agreement != 1.0:
        problems.append(f"EQC partition differs from the reference (agreement {agreement})")
    return problems


def check_lifelong(out: Path, report_out: Path, report_rc: int, meta: dict, model: str,
                   diag_floor: float) -> list[str]:
    problems = []
    r = read_matrix(out / "R.csv")
    t = len(meta["snapshots"])
    if len(r) != t or any(len(row) != t for row in r):
        return [f"R.csv is not {t}x{t}"]
    report = _read_json(out / "report.json")
    if report_rc != 0:
        problems.append(f"report --matrix exited {report_rc}")
    else:
        again = _read_json(report_out / "report.json")
        for key in REPORT_MEASURES:
            if json.dumps(again[key]) != json.dumps(report[key]):
                problems.append(f"report --matrix gives {key} {again[key]!r}, "
                                f"report.json has {report[key]!r}")
    cumulative = set()
    for classes in _class_sets(meta, model):
        cumulative |= classes.keys()
    vocab = (out / "classes.vocab").read_text(encoding="utf-8").split()
    if len(vocab) != len(cumulative):
        problems.append(f"classes.vocab has {len(vocab)} classes, reference {len(cumulative)}")
    diag = sum(r[i][i] for i in range(t)) / t
    if diag < diag_floor:
        problems.append(f"mean diagonal accuracy {diag} below floor {diag_floor}")
    return problems


def check_eval(out: Path, lifelong_out: Path) -> list[str]:
    got = _read_json(out / "eval.json")["test_accuracy"]
    r = read_matrix(lifelong_out / "R.csv")
    want = r[-1][-1]
    if got != want:
        return [f"eval test_accuracy {got!r} != R[T-1][T-1] {want!r}"]
    return []


def check_passes(workload, meta: dict, passes: list[dict]) -> tuple[int, int, list[str], float]:
    """(commands attempted, commands failed, problems, lowest ACC) over all passes."""
    attempted = failed = 0
    problems: list[str] = []
    accuracy = []
    first_matrix = None
    for p in passes:
        d = Path(p["dir"])
        for cmd in p["commands"]:
            attempted += 1
            kind = cmd["kind"]
            out = d / cmd["out"]
            faults = []
            if cmd["rc"] != 0:
                faults.append(f"exit code {cmd['rc']} {cmd['error']}".strip())
            else:
                try:
                    if kind == "diff":
                        faults = check_diff(out, meta, workload.model)
                    elif kind == "summarize":
                        faults = check_summarize(out, meta, workload.model)
                    elif kind == "lifelong":
                        report_rc = p["check_commands"][0]["rc"]
                        faults = check_lifelong(out, d / "report", report_rc, meta,
                                                workload.model, workload.diag_floor)
                        matrix = (out / "R.csv").read_bytes()
                        if first_matrix is None:
                            first_matrix = matrix
                        elif matrix != first_matrix:
                            faults.append("R.csv differs from the first pass's")
                        accuracy.append(_read_json(out / "report.json")["acc"])
                    elif kind == "eval":
                        faults = check_eval(out, d / "lifelong")
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    faults.append(f"unreadable output: {exc!r}")
            if faults:
                failed += 1
                problems += [f"{d.name}/{cmd['out']}: {x}" for x in faults]
    acc = min(accuracy) if accuracy else 0.0
    return attempted, failed, problems, acc
