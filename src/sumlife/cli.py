"""Command-line entry points.

Commands: summarize, diff, lifelong, eval, report.  All outputs land in the
--out directory; reruns with equal configuration and seed produce
byte-identical artifacts.  Exit codes: 0 ok, 1 I/O (including an
unreadable checkpoint), 2 configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .config import SEED_ENV_VAR, RunConfig, build_config, parse_config_file
from .errors import CheckpointError, ConfigError, IngestError, NumericalError
from .features import TEST
from .ingest import SnapshotGraph, filter_high_degree, load_snapshot
from .lifelong import (
    LifelongReport,
    evaluate_network,
    prepare_tasks,
    run_sequence,
    time_warp,
)
from .measures import diff_report, meta_track, unary_stats
from .nets import Hyper, load_checkpoint, save_checkpoint
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
    return Hyper(
        hidden=cfg.hidden_list(),
        dropout=cfg.dropout,
        learning_rate=cfg.learning_rate,
        alpha=cfg.alpha,
        tau=cfg.tau,
        normalize_adjacency=cfg.normalize_adjacency,
    ).resolved(cfg.architecture)


def _load_graphs(cfg: RunConfig) -> list[tuple[str, SnapshotGraph]]:
    if not cfg.snapshots:
        raise ConfigError("no snapshots given")
    cap = cfg.effective_degree_cap()
    out = []
    for path, ts in zip(cfg.snapshots, cfg.effective_timestamps()):
        g = load_snapshot(path, ts)
        g = filter_high_degree(g, cap, cfg.degree_mode)
        out.append((ts, g))
    return out


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
        summary, ext = summarize(g, cfg.model, cfg.include_rdf_types)
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
        if stats:
            write_histogram_csv(out / "members_hist.csv", stats.dist_members_per_eqc)
            write_histogram_csv(out / "attrs_hist.csv", stats.dist_attrs_per_eqc)
            write_histogram_csv(out / "predicate_usage_hist.csv", stats.dist_predicate_usage)
        for name in ("eqcs.tsv", "summary_edges.tsv", "stats.json"):
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
        summaries = [summarize(g, cfg.model, cfg.include_rdf_types) for _, g in graphs]
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
    out = _out_dir(cfg)
    manifest = Manifest("lifelong", cfg.to_dict())
    hyper = _hyper(cfg)
    with manifest.stage("ingest"):
        graphs = _load_graphs(cfg)

    if time_warp_ckpt is not None:
        with manifest.stage("time_warp"):
            old_net, old_pv, old_cv, _ = load_checkpoint(time_warp_ckpt)
            result = time_warp(
                old_net, old_pv, old_cv, graphs[0], cfg.model, cfg.architecture,
                hyper, cfg.seed, cfg.iterations, cfg.batch_cap, cfg.include_rdf_types,
            )
            write_json(out / "timewarp.json", result)
            manifest.record_output(out / "timewarp.json")
        manifest.write(out)
        return 0

    with manifest.stage("prepare"):
        seq = prepare_tasks(graphs, cfg.model, cfg.seed, include_rdf_types=cfg.include_rdf_types)
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
            save_checkpoint(path, net, seq.pred_vocab, seq.class_vocab, cfg.seed)
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


def cmd_eval(cfg: RunConfig, ckpt_path: str, seed_explicit: bool = False) -> int:
    out = _out_dir(cfg)
    manifest = Manifest("eval", cfg.to_dict())
    with manifest.stage("ingest"):
        graphs = _load_graphs(cfg)
    with manifest.stage("eval"):
        net, pv, cv, header = load_checkpoint(ckpt_path)
        # default to the checkpoint's recorded seed so the split matches the
        # run that produced it; an explicit seed still wins
        seed = cfg.seed if seed_explicit else header.get("seed", cfg.seed)
        seq = prepare_tasks(graphs[:1], cfg.model, seed, pred_vocab=pv,
                            class_vocab=cv, include_rdf_types=cfg.include_rdf_types)
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--in", dest="snapshots", nargs="+", help="snapshot files or directories")
    p.add_argument("--timestamps", nargs="+", help="one label per snapshot")
    p.add_argument("--model", choices=["ac1", "ac2"])
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--degree-cap", dest="degree_cap", type=int)
    p.add_argument("--degree-mode", dest="degree_mode", choices=["total", "out", "in"])
    p.add_argument("--include-rdf-types", dest="include_rdf_types", action="store_const", const=True)
    p.add_argument("--threads", type=int)


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--architecture", choices=["mlp", "graph-mlp", "gcn", "gcn-edges"])
    p.add_argument("--hidden-size", dest="hidden_size")
    p.add_argument("--dropout", type=float)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--normalize-adjacency", dest="normalize_adjacency", action="store_const", const=True)
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-cap", dest="batch_cap", type=int)
    p.add_argument("--restart", choices=["warm", "cold"])
    p.add_argument("--zero-init-growth", dest="zero_init_growth", action="store_const", const=True)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumlife", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sumlife {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="compute EQCs and summary stats for one snapshot")
    _add_common(p)

    p = sub.add_parser("diff", help="pairwise and meta measures over a snapshot sequence")
    _add_common(p)

    p = sub.add_parser("lifelong", help="incremental training and transfer measures")
    _add_common(p)
    _add_training(p)
    p.add_argument("--time-warp", dest="time_warp", metavar="OLD.CKPT",
                   help="run the frozen/retrained/from-scratch comparison instead")

    p = sub.add_parser("eval", help="apply a checkpoint to a snapshot")
    _add_common(p)
    p.add_argument("--ckpt", required=True)

    p = sub.add_parser("report", help="recompute measures from an emitted R matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", dest="out_dir")
    return parser


_CONFIG_KEYS = (
    "snapshots", "timestamps", "model", "architecture", "hidden_size", "dropout",
    "learning_rate", "alpha", "tau", "normalize_adjacency", "iterations",
    "batch_cap", "seed", "degree_cap", "degree_mode", "restart", "threads",
    "include_rdf_types", "zero_init_growth", "out_dir",
)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        overrides = {k: getattr(args, k) for k in _CONFIG_KEYS if hasattr(args, k)}
        cfg = build_config(getattr(args, "config", None), overrides)
        if args.command == "summarize":
            return cmd_summarize(cfg)
        if args.command == "diff":
            return cmd_diff(cfg)
        if args.command == "lifelong":
            return cmd_lifelong(cfg, args.time_warp)
        if args.command == "eval":
            seed_explicit = (
                overrides.get("seed") is not None
                or os.environ.get(SEED_ENV_VAR) is not None
                or (args.config is not None and "seed" in parse_config_file(args.config))
            )
            return cmd_eval(cfg, args.ckpt, seed_explicit)
        if args.command == "report":
            return cmd_report(cfg, args.matrix)
        raise ConfigError(f"unknown command {args.command!r}")
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
