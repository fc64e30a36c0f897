"""Command-line entry points.

Commands: summarize, diff, lifelong, eval, report.  Each setting flag is a
``RunConfig`` field, ``--field-name`` for ``field_name`` (``--in`` for
snapshots, ``--out`` for out_dir), and its value is read exactly like the
same key in a ``--config`` file.  All outputs land in the --out directory;
reruns with equal configuration, seed and BLAS thread count produce
byte-identical artifacts.  Every failure prints one ``error:`` line.
Exit codes: 0 ok; 1 I/O, including an unreadable checkpoint (a header
setting or seed outside the rule of its flag included), snapshot or ``report
--matrix`` file, an empty snapshot directory and a ``lifelong`` or ``eval``
snapshot of fewer than 9 vertices, whose 93/2/5 split has no test vertex; 2
configuration: before --out is made, a bad argument, a value of the wrong
type, outside its choice list or outside its range (``nets.network.RULES``
states each setting's), ``gcn-edges`` with a model other than ac2, other than
one snapshot for ``summarize``, ``eval`` or ``lifelong --time-warp``, fewer
than two for ``diff`` or none for ``lifelong``, timestamps unlike the
snapshots in number or, for ``lifelong``, out of order or repeated; after it,
an ``eval`` or time-warp checkpoint trained for another summary model, degree
cap, degree mode or rdf:type setting or for another value of a network setting
the run sets; 3 numerical failure; 130 interrupted.  Running out of memory
(exit 1) and an interrupt each print one ``error:`` line.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterator, get_origin

from . import __version__
from .config import FIELD_TYPES, RunConfig, build_config
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
from .nets import load_checkpoint, save_checkpoint
from .nets.checkpoint import RUN_FIELDS
from .nets.network import CHOICES
from .reporting import (
    Manifest,
    output,
    read_matrix_csv,
    svg_heatmap,
    write_csv,
    write_histogram_csv,
    write_json,
    write_matrix_csv,
)
from .summarize import summarize, write_eqc_tsv, write_summary_tsv
# perfbench/tracing.py wraps sumlife.cli.vertex_hashes by name
from .summarize import vertex_hashes  # noqa: F401


def _run_fields(cfg: RunConfig) -> dict:
    """The settings a checkpoint records and must be used with again."""
    return {k: getattr(cfg, k) for k in RUN_FIELDS} | {"degree_cap": cfg.effective_degree_cap()}


def _load_checkpoint_for(cfg: RunConfig, path: str):
    """``load_checkpoint``, refusing a checkpoint trained under other run
    settings, or with another value of a network setting this run sets
    explicitly: ``eval`` and every time-warp arm use its network as it is."""
    net, pv, cv, header = load_checkpoint(path)
    hyper = cfg.hyper()
    mine = _run_fields(cfg) | asdict(hyper) | {"architecture": cfg.architecture,
                                               "hidden_size": hyper.hidden}
    theirs = header | asdict(net.hyper) | {"hidden_size": net.hyper.hidden}
    wrong = [f"{k} {theirs[k]!r} (this run: {v!r})" for k, v in mine.items()
             if (k in RUN_FIELDS or k in cfg.explicit) and theirs[k] != v]
    if wrong:
        raise ConfigError(f"{path} was trained for {', '.join(wrong)}")
    return net, pv, cv, header


def _snapshots(cfg: RunConfig, need_test: bool = False) -> Iterator[tuple[str, SnapshotGraph]]:
    """(timestamp, graph) of each snapshot, loaded and capped when it is
    drawn, without its rdf:type edges unless the run includes them, and let
    go of before the next is loaded.  With ``need_test``, a snapshot whose
    split has no test vertex is refused: its accuracy would read as 0.0."""
    cap = cfg.effective_degree_cap()
    for path, ts in zip(cfg.snapshots, cfg.effective_timestamps()):
        g = load_snapshot(path, ts)
        g = filter_high_degree(g, cap, cfg.degree_mode)
        if not cfg.include_rdf_types:
            g = drop_rdf_types(g)
        if need_test and split_sizes(g.num_vertices)[TEST] == 0:
            raise IngestError(
                f"{path}: snapshot {ts} has no test vertices ({g.num_vertices} vertices)"
            )
        yield ts, g
        del g


# the snapshot counts each command takes; one that reads a single snapshot
# refuses more, rather than load them and ignore them
_SNAPSHOT_COUNTS = {"summarize": range(1, 2), "diff": range(2, sys.maxsize),
                    "lifelong": range(1, sys.maxsize), "lifelong --time-warp": range(1, 2),
                    "eval": range(1, 2)}


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_summarize(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    manifest = Manifest("summarize", cfg.to_dict())
    with manifest.stage("ingest"):
        ((ts, g),) = _snapshots(cfg)
    with manifest.stage("summarize"):
        summary, hashes = summarize(g, cfg.model)
    with manifest.stage("emit"):
        stats = unary_stats(summary) if summary.num_primary else None
        write_eqc_tsv(out / "eqcs.tsv", g, hashes)
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
    """Measure each snapshot's summary as it arrives, then track its EQCs.

    Each snapshot is loaded, capped, summarized and measured against the
    previous summary before the next is read; only that summary and each
    snapshot's EQC hash array are kept, and ``meta_track`` runs once at the end."""
    out = _out_dir(cfg)
    manifest = Manifest("diff", cfg.to_dict())
    records, eqcs, prev = [], [], None
    with manifest.stage("prepare"):
        for _, g in _snapshots(cfg):
            summary = summarize(g, cfg.model)[0]
            del g  # the snapshot goes before the next one is loaded
            stats = unary_stats(summary) if summary.num_primary else None
            pair = diff_report(prev, summary) if prev is not None else None
            records.append({
                "timestamp": summary.timestamp,
                "model": cfg.model,
                "avg_size": stats.avg_size if stats else None,
                "avg_edges": stats.avg_edges if stats else None,
                "jaccard_prev": pair.jaccard if pair else None,
                "js_prev": pair.js_divergence if pair else None,
            })
            eqcs.append(summary.eqcs)
            prev = summary
    with manifest.stage("measure"):
        track = meta_track(eqcs)
        for i, rec in enumerate(records):
            rec.update(added=track.new_vs_prev[i], deleted=track.deleted_vs_prev[i],
                       recurring=track.recurring[i], cumulative_seen=track.cumulative_seen[i])
    with manifest.stage("emit"):
        write_json(out / "diff.json", records)
        # "disappeared" is deleted_vs_prev again, a column kept for readers of meta.csv
        write_csv(out / "meta.csv", [
            ("index", "timestamp", "eqcs", "new_vs_first", "new_vs_prev", "deleted_vs_prev",
             "recurring", "reappearing", "disappeared", "cumulative_seen"),
            *((i, rec["timestamp"], track.sizes[i], track.new_vs_first[i], track.new_vs_prev[i],
               track.deleted_vs_prev[i], track.recurring[i], track.reappearing[i],
               track.deleted_vs_prev[i], track.cumulative_seen[i]) for i, rec in enumerate(records)),
        ])
        manifest.record_output(out / "diff.json")
        manifest.record_output(out / "meta.csv")
    manifest.write(out)
    return 0


def cmd_lifelong(cfg: RunConfig, time_warp_ckpt: str | None = None) -> int:
    timestamps = cfg.effective_timestamps()
    if not strictly_increasing(timestamps):
        raise ConfigError(
            f"snapshot timestamps must be strictly increasing, got {' '.join(timestamps)}"
        )
    out = _out_dir(cfg)
    manifest = Manifest("lifelong", cfg.to_dict())

    if time_warp_ckpt is not None:
        with manifest.stage("ingest"):  # the checkpoint first, so no snapshot error hides it
            old_net, old_pv, old_cv, _ = _load_checkpoint_for(cfg, time_warp_ckpt)
            (snapshot,) = _snapshots(cfg, need_test=True)
        with manifest.stage("time_warp"):
            result = time_warp(
                old_net, old_pv, old_cv, snapshot, cfg.model, cfg.seed, cfg.iterations,
                cfg.batch_cap,
            )
            write_json(out / "timewarp.json", result)
            manifest.record_output(out / "timewarp.json")
        manifest.write(out)
        return 0

    # each snapshot is loaded, capped and prepared before the next is read
    with manifest.stage("prepare"):
        seq = prepare_tasks(_snapshots(cfg, need_test=True), cfg.model, cfg.seed)

    def save(task, net) -> None:  # each checkpoint is written as its task finishes
        path = out / f"task{task.index:02d}.gslc"
        save_checkpoint(path, net, seq.pred_vocab, seq.class_vocab, cfg.seed, _run_fields(cfg))
        manifest.record_output(path)

    with manifest.stage("train"):
        _, r, diagnostics = run_sequence(
            seq, cfg.architecture, cfg.hyper(), cfg.restart, cfg.seed,
            cfg.iterations, cfg.batch_cap, cfg.zero_init_growth,
            threads=cfg.threads, on_task=save,
        )
    with manifest.stage("emit"):
        labels = [task.timestamp for task in seq.tasks]
        write_matrix_csv(out / "R.csv", r, labels)
        report = LifelongReport.from_matrix(r, diagnostics)
        write_json(out / "report.json", report.to_dict())
        with output(out / "heatmap.svg", encoding="utf-8") as fh:
            fh.write(svg_heatmap(r, labels, f"{cfg.architecture} / {cfg.model}"))
        seq.pred_vocab.serialize(out / "predicates.vocab")
        seq.class_vocab.serialize(out / "classes.vocab")
        for name in ("R.csv", "report.json", "heatmap.svg", "predicates.vocab", "classes.vocab"):
            manifest.record_output(out / name)
    manifest.write(out)
    return 0


def cmd_eval(cfg: RunConfig, ckpt_path: str) -> int:
    out = _out_dir(cfg)
    manifest = Manifest("eval", cfg.to_dict())
    with manifest.stage("ingest"):  # the checkpoint first, so no snapshot error hides it
        net, pv, cv, header = _load_checkpoint_for(cfg, ckpt_path)
        graphs = list(_snapshots(cfg, need_test=True))
    with manifest.stage("eval"):
        # default to the checkpoint's recorded seed so the split matches the
        # run that produced it; a seed from a flag, SUMLIFE_SEED or --config wins
        seed = cfg.seed if "seed" in cfg.explicit else header["seed"]
        seq = prepare_tasks(graphs, cfg.model, seed, pred_vocab=pv, class_vocab=cv)
        del graphs
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
        with output(out / "heatmap.svg", encoding="utf-8") as fh:
            fh.write(svg_heatmap(r, labels))
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
    # numpy loads numpy.random on first use, and an interrupt that lands in
    # that import is lost without a word; the handler below needs it loaded
    import numpy.random  # noqa: F401
    try:
        args = _parser().parse_args(argv)
        overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        cfg = build_config(getattr(args, "config", None), overrides)
        if args.command != "report":  # like every settings check, before --out is made
            command = args.command + (" --time-warp" if getattr(args, "time_warp", None) else "")
            takes, count = _SNAPSHOT_COUNTS[command], len(cfg.snapshots)
            if count not in takes:
                wanted = "one" if len(takes) == 1 else f"at least {takes.start}"
                raise ConfigError(f"{command} takes {wanted} snapshot{'s' * (takes.start > 1)}, "
                                  f"got {count}")
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
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
