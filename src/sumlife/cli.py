"""Command-line entry points.

Commands: summarize, diff, lifelong, eval, report.  Each setting flag is a
``RunConfig`` field, ``--field-name`` for ``field_name`` (``--in`` for
snapshots, ``--out`` for out_dir), and its value is read exactly like the
same key in a ``--config`` file.  All outputs land in the --out directory;
reruns with equal configuration, seed and BLAS thread count produce
byte-identical artifacts.  Every failure prints one ``error:`` line.
Exit codes: 0 ok, 1 I/O (including an unreadable checkpoint, snapshot or
``report --matrix`` file, an empty snapshot directory and a ``lifelong`` or
``eval`` snapshot whose 93/2/5 split has no test vertex, which is any snapshot
of fewer than 9 vertices), 2 configuration (including an unknown or missing
argument, a value of the wrong type or outside its choice list, ``gcn-edges``
with a model other than ac2, a checkpoint trained for another summary model,
degree cap, degree mode or rdf:type setting, more than one snapshot for
``eval`` or ``lifelong --time-warp``, ``lifelong`` snapshots whose timestamps
are out of order or repeated, a degree cap below 1, a dropout outside [0, 1),
a hidden size below 1 and more than one hidden size for mlp or graph-mlp),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_origin

from . import __version__
from .config import CHOICES, FIELD_TYPES, RunConfig, build_config
from .errors import CheckpointError, ConfigError, IngestError, NumericalError
from .features import TEST, split_sizes
from .ingest import SnapshotGraph, drop_rdf_types, filter_high_degree, load_snapshot
from .lifelong import (
    LifelongReport,
    evaluate_network,
    prepare_tasks,
    run_sequence,
    strictly_increasing,
    time_warp,
)
from .measures import diff_report, meta_track, unary_stats
from .nets import Hyper, load_checkpoint, save_checkpoint
from .nets.checkpoint import RUN_FIELDS
from .reporting import (
    Manifest,
    read_matrix_csv,
    svg_heatmap,
    write_histogram_csv,
    write_json,
    write_matrix_csv,
)
from .summarize import summarize, write_eqc_tsv, write_summary_tsv
# perfbench/tracing.py wraps sumlife.cli.vertex_hashes by name
from .summarize import vertex_hashes  # noqa: F401


def _hyper(cfg: RunConfig) -> Hyper:
    """Every ``Hyper`` field from the ``RunConfig`` field of the same name; ``hidden`` is parsed."""
    values = {f.name: getattr(cfg, f.name) for f in fields(Hyper) if f.name != "hidden"}
    return Hyper(hidden=cfg.hidden_list(), **values).resolved(cfg.architecture)


def _run_fields(cfg: RunConfig) -> dict:
    """The settings a checkpoint records and must be used with again."""
    return {k: getattr(cfg, k) for k in RUN_FIELDS} | {"degree_cap": cfg.effective_degree_cap()}


def _load_checkpoint_for(cfg: RunConfig, path: str):
    """``load_checkpoint``, refusing a checkpoint trained under other run settings."""
    net, pv, cv, header = load_checkpoint(path)
    wrong = [f"{k} {header[k]!r} (this run: {v!r})"
             for k, v in _run_fields(cfg).items() if header[k] != v]
    if wrong:
        raise ConfigError(f"{path} was trained for {', '.join(wrong)}")
    return net, pv, cv, header


def _load_graphs(cfg: RunConfig) -> list[tuple[str, SnapshotGraph]]:
    """Load and cap each snapshot, then drop its rdf:type edges unless the run includes them."""
    if not cfg.snapshots:
        raise ConfigError("no snapshots given")
    cap = cfg.effective_degree_cap()
    out = []
    for path, ts in zip(cfg.snapshots, cfg.effective_timestamps()):
        g = load_snapshot(path, ts)
        g = filter_high_degree(g, cap, cfg.degree_mode)
        if not cfg.include_rdf_types:
            g = drop_rdf_types(g)
        out.append((ts, g))
    return out


def _one_snapshot(cfg: RunConfig, command: str) -> None:
    """Refuse snapshots that ``command`` would load and then ignore."""
    if cfg.snapshots and len(cfg.snapshots) > 1:
        raise ConfigError(f"{command} takes one snapshot, got {len(cfg.snapshots)}")


def _require_test_vertices(cfg: RunConfig, graphs: list[tuple[str, SnapshotGraph]]) -> None:
    """Refuse a snapshot whose split has no test vertex: its accuracy would read as 0.0."""
    for path, (ts, g) in zip(cfg.snapshots, graphs):
        if split_sizes(g.num_vertices)[TEST] == 0:
            raise IngestError(
                f"{path}: snapshot {ts} has no test vertices ({g.num_vertices} vertices)"
            )


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_summarize(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    manifest = Manifest("summarize", cfg.to_dict())
    with manifest.stage("ingest"):
        graphs = _load_graphs(cfg)
    ts, g = graphs[0]
    with manifest.stage("summarize"):
        summary, ext = summarize(g, cfg.model)
    with manifest.stage("emit"):
        stats = unary_stats(summary, ext) if summary.num_primary else None
        write_eqc_tsv(out / "eqcs.tsv", g, ext)
        write_summary_tsv(out / "summary_edges.tsv", summary)
        payload = {
            "timestamp": ts,
            "model": cfg.model,
            "vertices": g.num_vertices,
            "edges": g.edge_count,
            "skipped_lines": g.skipped_lines,
            "skip_reasons": dict(g.skip_reasons),
            "eqcs": summary.num_primary,
            "secondary_vertices": len(summary.secondary),
            "summary_edges": summary.num_edges,
            "avg_size": stats.avg_size if stats else None,
            "avg_edges": stats.avg_edges if stats else None,
        }
        write_json(out / "stats.json", payload)
        hists = {
            "members_hist.csv": stats.dist_members_per_eqc,
            "attrs_hist.csv": stats.dist_attrs_per_eqc,
            "predicate_usage_hist.csv": stats.dist_predicate_usage,
        } if stats else {}
        for name, dist in hists.items():
            write_histogram_csv(out / name, dist)
        for name in ("eqcs.tsv", "summary_edges.tsv", "stats.json", *hists):
            manifest.record_output(out / name)
    manifest.write(out)
    return 0


def cmd_diff(cfg: RunConfig) -> int:
    if len(cfg.snapshots) < 2:
        raise ConfigError("diff needs at least 2 snapshots")
    out = _out_dir(cfg)
    manifest = Manifest("diff", cfg.to_dict())
    with manifest.stage("ingest"):
        graphs = _load_graphs(cfg)
    with manifest.stage("summarize"):
        summaries = [summarize(g, cfg.model) for _, g in graphs]
    with manifest.stage("measure"):
        track = meta_track(summaries)
        records = []
        for i, ((ts, _), (summary, ext)) in enumerate(zip(graphs, summaries)):
            stats = unary_stats(summary, ext) if summary.num_primary else None
            rec = {
                "timestamp": ts,
                "model": cfg.model,
                "avg_size": stats.avg_size if stats else None,
                "avg_edges": stats.avg_edges if stats else None,
                "jaccard_prev": None,
                "js_prev": None,
                "added": track.new_vs_prev[i],
                "deleted": track.deleted_vs_prev[i],
                "recurring": track.recurring[i],
                "cumulative_seen": track.cumulative_seen[i],
            }
            if i > 0:
                pair = diff_report(summaries[i - 1], summaries[i])
                rec["jaccard_prev"] = pair.jaccard
                rec["js_prev"] = pair.js_divergence
            records.append(rec)
    with manifest.stage("emit"):
        write_json(out / "diff.json", records)
        with open(out / "meta.csv", "w", encoding="utf-8") as fh:
            fh.write(
                "index,timestamp,eqcs,new_vs_first,new_vs_prev,deleted_vs_prev,"
                "recurring,reappearing,disappeared,cumulative_seen\n"
            )
            for i, (ts, _) in enumerate(graphs):
                fh.write(
                    f"{i},{ts},{track.sizes[i]},{track.new_vs_first[i]},"
                    f"{track.new_vs_prev[i]},{track.deleted_vs_prev[i]},"
                    f"{track.recurring[i]},{track.reappearing[i]},"
                    f"{track.disappeared[i]},{track.cumulative_seen[i]}\n"
                )
        manifest.record_output(out / "diff.json")
        manifest.record_output(out / "meta.csv")
    manifest.write(out)
    return 0


def cmd_lifelong(cfg: RunConfig, time_warp_ckpt: str | None = None) -> int:
    if time_warp_ckpt is not None:
        _one_snapshot(cfg, "lifelong --time-warp")
    timestamps = cfg.effective_timestamps()
    if not strictly_increasing(timestamps):
        raise ConfigError(
            f"snapshot timestamps must be strictly increasing, got {' '.join(timestamps)}"
        )
    out = _out_dir(cfg)
    manifest = Manifest("lifelong", cfg.to_dict())
    hyper = _hyper(cfg)
    with manifest.stage("ingest"):
        graphs = _load_graphs(cfg)
    _require_test_vertices(cfg, graphs)

    if time_warp_ckpt is not None:
        with manifest.stage("time_warp"):
            old_net, old_pv, old_cv, _ = _load_checkpoint_for(cfg, time_warp_ckpt)
            result = time_warp(
                old_net, old_pv, old_cv, graphs[0], cfg.model, cfg.architecture,
                hyper, cfg.seed, cfg.iterations, cfg.batch_cap,
            )
            write_json(out / "timewarp.json", result)
            manifest.record_output(out / "timewarp.json")
        manifest.write(out)
        return 0

    with manifest.stage("prepare"):
        seq = prepare_tasks(graphs, cfg.model, cfg.seed)
    with manifest.stage("train"):
        checkpoints, r, diagnostics = run_sequence(
            seq, cfg.architecture, hyper, cfg.restart, cfg.seed,
            cfg.iterations, cfg.batch_cap, cfg.zero_init_growth,
            threads=cfg.threads,
        )
    with manifest.stage("emit"):
        labels = [t for t, _ in graphs]
        for i, net in enumerate(checkpoints):
            path = out / f"task{i:02d}.gslc"
            save_checkpoint(path, net, seq.pred_vocab, seq.class_vocab, cfg.seed, _run_fields(cfg))
            manifest.record_output(path)
        write_matrix_csv(out / "R.csv", r, labels)
        report = LifelongReport.from_matrix(r, diagnostics)
        write_json(out / "report.json", report.to_dict())
        (out / "heatmap.svg").write_text(
            svg_heatmap(r, labels, f"{cfg.architecture} / {cfg.model}"), encoding="utf-8"
        )
        seq.pred_vocab.serialize(out / "predicates.vocab")
        seq.class_vocab.serialize(out / "classes.vocab")
        for name in ("R.csv", "report.json", "heatmap.svg", "predicates.vocab", "classes.vocab"):
            manifest.record_output(out / name)
    manifest.write(out)
    return 0


def cmd_eval(cfg: RunConfig, ckpt_path: str) -> int:
    _one_snapshot(cfg, "eval")
    out = _out_dir(cfg)
    manifest = Manifest("eval", cfg.to_dict())
    with manifest.stage("ingest"):
        graphs = _load_graphs(cfg)
    _require_test_vertices(cfg, graphs)
    with manifest.stage("eval"):
        net, pv, cv, header = _load_checkpoint_for(cfg, ckpt_path)
        # default to the checkpoint's recorded seed so the split matches the
        # run that produced it; a seed from a flag, SUMLIFE_SEED or --config wins
        seed = cfg.seed if "seed" in cfg.explicit else header["seed"]
        seq = prepare_tasks(graphs, cfg.model, seed, pred_vocab=pv, class_vocab=cv)
        task = seq.tasks[0]
        test_acc, unseen = evaluate_network(net, task, seq, which=TEST)
        write_json(
            out / "eval.json",
            {
                "checkpoint": Path(ckpt_path).name,
                "timestamp": task.timestamp,
                "model": cfg.model,
                "test_accuracy": test_acc,
                "unseen_class_fraction": unseen,
            },
        )
        manifest.record_output(out / "eval.json")
    manifest.write(out)
    return 0


def cmd_report(cfg: RunConfig, matrix_path: str) -> int:
    out = _out_dir(cfg)
    manifest = Manifest("report", cfg.to_dict())
    with manifest.stage("report"):
        r, labels = read_matrix_csv(matrix_path)
        report = LifelongReport.from_matrix(r)
        write_json(out / "report.json", report.to_dict())
        (out / "heatmap.svg").write_text(svg_heatmap(r, labels), encoding="utf-8")
        manifest.record_output(out / "report.json")
        manifest.record_output(out / "heatmap.svg")
    manifest.write(out)
    return 0


# the flags not named ``--field-name`` or given a help line
_FLAGS = {
    "snapshots": ("--in", "snapshot files or directories"),
    "timestamps": ("--timestamps", "one label per snapshot"),
    "out_dir": ("--out", "output directory"),
}


def _add_settings(p: argparse.ArgumentParser, lifelong: bool) -> None:
    """``--config`` and a flag per ``RunConfig`` field (``LIFELONG_ONLY`` ones for
    ``lifelong`` alone), whose string ``build_config`` reads as a config-file value."""
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        if f.metadata.get("lifelong_only") and not lifelong:
            continue
        flag, help_ = _FLAGS.get(f.name, ("--" + f.name.replace("_", "-"), None))
        kind = FIELD_TYPES[f.name]
        if kind is bool:
            p.add_argument(flag, dest=f.name, action="store_const", const=True, help=help_)
        elif get_origin(kind) is list:
            p.add_argument(flag, dest=f.name, nargs="+", help=help_)
        else:
            choices = CHOICES.get(f.name)
            p.add_argument(flag, dest=f.name, help=help_,
                           metavar="{" + ",".join(choices) + "}" if choices else None)


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a ``ConfigError``: one ``error:`` line and exit 2.
    Flags must be spelled in full, so ``--iter`` is an unknown flag, not ``--iterations``;
    the sub-parsers are ``_Parser``s too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sumlife", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sumlife {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="compute EQCs and summary stats for one snapshot")
    _add_settings(p, lifelong=False)

    p = sub.add_parser("diff", help="pairwise and meta measures over a snapshot sequence")
    _add_settings(p, lifelong=False)

    p = sub.add_parser("lifelong", help="incremental training and transfer measures")
    _add_settings(p, lifelong=True)
    p.add_argument("--time-warp", dest="time_warp", metavar="OLD.CKPT",
                   help="run the frozen/retrained/from-scratch comparison instead")

    p = sub.add_parser("eval", help="apply a checkpoint to a snapshot")
    _add_settings(p, lifelong=False)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("report", help="recompute measures from an emitted R matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", dest="out_dir", help="output directory")
    return parser


# glibc mallopt parameters, and the largest mmap threshold it accepts on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_memory() -> None:
    """Let glibc malloc keep freed memory for reuse: blocks of up to 32 MB,
    and up to 64 MB free at the top of the heap.

    By default glibc maps each block above its mmap threshold afresh, and
    raises that threshold (and the trim threshold, to twice it) only as
    large mapped blocks are freed.  A training step frees temporaries that
    together exceed twice its largest array, so the heap top is trimmed and
    faulted in again on every step: about 220 000 minor page faults per
    benchmark ``lifelong`` command, against a few hundred with the
    thresholds fixed at glibc's ceiling.  Elsewhere than glibc this does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    try:
        args = _parser().parse_args(argv)
        overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        cfg = build_config(getattr(args, "config", None), overrides)
        if args.command == "summarize":
            return cmd_summarize(cfg)
        if args.command == "diff":
            return cmd_diff(cfg)
        if args.command == "lifelong":
            return cmd_lifelong(cfg, args.time_warp)
        if args.command == "eval":
            return cmd_eval(cfg, args.ckpt)
        return cmd_report(cfg, args.matrix)  # the parser allows no other command
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IngestError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
