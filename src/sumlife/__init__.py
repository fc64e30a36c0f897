"""Structural summaries of temporal RDF snapshots and lifelong vertex classifiers."""

__version__ = "0.1.0"

from .ingest import SnapshotGraph, build_snapshot, drop_rdf_types, filter_high_degree, load_snapshot
from .summarize import SummaryGraph, hash_pair, summarize, vertex_hashes
from .measures import diff_report, jaccard_dist, js_divergence, meta_track, unary_stats
from .features import ClassVocabulary, PredicateVocabulary, encode_features, split_vertices
from .sampling import Subgraph, class_weights, sample_batch, target_distribution
from .lifelong import LifelongReport, acc, bwt, forgetting, fwt, omega, prepare_tasks, run_sequence, time_warp
from .nets import Hyper, Network, load_checkpoint, save_checkpoint

__all__ = [
    "SnapshotGraph", "build_snapshot", "drop_rdf_types", "filter_high_degree", "load_snapshot",
    "SummaryGraph", "hash_pair", "summarize", "vertex_hashes",
    "diff_report", "jaccard_dist", "js_divergence", "meta_track", "unary_stats",
    "ClassVocabulary", "PredicateVocabulary", "encode_features", "split_vertices",
    "Subgraph", "class_weights", "sample_batch", "target_distribution",
    "LifelongReport", "acc", "bwt", "forgetting", "fwt", "omega",
    "prepare_tasks", "run_sequence", "time_warp",
    "Hyper", "Network", "load_checkpoint", "save_checkpoint",
]
