"""Hash-based k-hop equivalence classes and the summary graph.

Every vertex is fingerprinted by recursively hashing its outgoing
(predicate, child fingerprint) pairs: the depth-0 fingerprint of every vertex
is 0, and each further level XOR-folds the *deduplicated set* of pair hashes.
Set semantics matter: XOR would silently cancel a pair contributed twice.

The pass is bottom-up dynamic programming over CSR edge arrays: one level for
the whole graph at a time, O(k * |E| log |E|) total, instead of per-vertex
recursion.  A level groups by one rule, rank -> pack -> unique: it ranks the
previous level's hashes, packs each edge's (predicate id, child rank) into one
int64 key and numbers the distinct pairs with ``np.unique``; (source, pair)
and, for the summary edges, (class, pair) keys are packed the same way and
deduplicated by ``ingest.distinct``.  At depth 0 every hash is 0, so the base
level is the same code with a single rank.  Keys stay below |terms| * V and
V * E, far from 2**63 for any graph that fits in memory.

Pair hashing is SipHash-2-4 under a fixed key so runs are reproducible; each
level hashes its distinct (predicate, child) pairs in one call of the batched
numpy kernel ``siphash24``, which also ranks the vertex splits in
``features``.

Summary model "ac1" uses one recursion level (outgoing label sets), "ac2" two
(labels of the vertex and of its neighbours).  Every edge of the given graph
counts; rdf:type edges are left out beforehand by ``ingest.drop_rdf_types``
unless the run includes them.

A summary keeps nothing per vertex and no Python object per EQC or edge:
``SummaryGraph`` holds arrays, and ``summarize`` hands back the per-vertex
hash array it computed, from which ``write_eqc_tsv`` writes ``eqcs.tsv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingest import SnapshotGraph, distinct
from .reporting import output

AC1 = "ac1"
AC2 = "ac2"
MODEL_HOPS = {AC1: 1, AC2: 2}

# Fixed SipHash-2-4 key: runs, checkpoints and fixtures must agree across
# processes, so the usual per-process random key is not an option.
SIPHASH_KEY = bytes(range(16))

_MASK = 0xFFFFFFFFFFFFFFFF


def _rotl(x: np.ndarray, b: int) -> np.ndarray:
    return (x << np.uint64(b)) | (x >> np.uint64(64 - b))


def _sipround(v0, v1, v2, v3):
    v0 = v0 + v1
    v1 = _rotl(v1, 13) ^ v0
    v0 = _rotl(v0, 32)
    v2 = v2 + v3
    v3 = _rotl(v3, 16) ^ v2
    v0 = v0 + v3
    v3 = _rotl(v3, 21) ^ v0
    v2 = v2 + v1
    v1 = _rotl(v1, 17) ^ v2
    v2 = _rotl(v2, 32)
    return v0, v1, v2, v3


def siphash24(key: bytes, messages: Sequence[bytes]) -> np.ndarray:
    """SipHash-2-4 of every message under a 16-byte ``key``, as uint64, in order.

    Messages are grouped by their count of 8-byte blocks (the final block,
    which carries the length byte, included); each group runs the rounds as
    uint64 array arithmetic, so the interpreter works per group, not per
    message.
    """
    out = np.empty(len(messages), dtype=np.uint64)
    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:], "little")
    lengths = np.fromiter(map(len, messages), dtype=np.int64, count=len(messages))
    n_blocks = lengths // 8 + 1
    for nb in distinct(n_blocks).tolist():
        idx = np.flatnonzero(n_blocks == nb)
        width = 8 * nb
        raw = bytearray(b"".join(messages[i].ljust(width, b"\x00") for i in idx.tolist()))
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(idx), width)
        rows[:, -1] = lengths[idx] & 0xFF
        blocks = rows.view("<u8").astype(np.uint64, copy=False)
        v0 = np.full(len(idx), 0x736F6D6570736575 ^ k0, dtype=np.uint64)
        v1 = np.full(len(idx), 0x646F72616E646F6D ^ k1, dtype=np.uint64)
        v2 = np.full(len(idx), 0x6C7967656E657261 ^ k0, dtype=np.uint64)
        v3 = np.full(len(idx), 0x7465646279746573 ^ k1, dtype=np.uint64)
        for j in range(nb):
            m = blocks[:, j]
            v3 = v3 ^ m
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
            v0 = v0 ^ m
        v2 = v2 ^ np.uint64(0xFF)
        for _ in range(4):
            v0, v1, v2, v3 = _sipround(v0, v1, v2, v3)
        out[idx] = v0 ^ v1 ^ v2 ^ v3
    return out


def _pair_message(predicate_iri: str, child_hash: int) -> bytes:
    """Canonical bytes of a (predicate, child hash) pair: UTF-8 predicate, a
    0x00 separator, then the child hash as 8 little-endian bytes.  The
    separator keeps predicate suffixes from colliding with hash bytes."""
    return predicate_iri.encode("utf-8") + b"\x00" + (child_hash & _MASK).to_bytes(8, "little")


def hash_pair(predicate_iri: str, child_hash: int) -> int:
    """Fingerprint of one (predicate, child hash) pair."""
    return int(siphash24(SIPHASH_KEY, [_pair_message(predicate_iri, child_hash)])[0])


@dataclass
class SummaryGraph:
    """Summary of one snapshot, as arrays: the sorted EQC hashes ``eqcs`` and
    their member counts ``sizes``; summary edge ``i`` runs from EQC index
    ``edge_source[i]`` under IRI ``predicates[edge_pred[i]]`` (term-id order)
    to child hash ``edge_child[i]``; ``predicate_usage`` counts each IRI's
    snapshot edges."""

    timestamp: str
    model: str
    eqcs: np.ndarray  # uint64, sorted
    sizes: np.ndarray  # members per EQC
    predicates: list[str]
    predicate_usage: np.ndarray
    edge_source: np.ndarray
    edge_pred: np.ndarray
    edge_child: np.ndarray  # uint64

    @property
    def secondary(self) -> np.ndarray:
        """The distinct (predicate index, child hash) pairs the edges reach,
        sorted, one uint64 row each."""
        order = np.lexsort((self.edge_child, self.edge_pred))
        pairs = np.stack([self.edge_pred[order].astype(np.uint64), self.edge_child[order]], axis=1)
        keep = np.ones(len(pairs), dtype=bool)
        keep[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
        return pairs[keep]

    @property
    def num_primary(self) -> int:
        return len(self.eqcs)

    @property
    def num_edges(self) -> int:
        return len(self.edge_source)


def _level_up(
    g: SnapshotGraph, src: np.ndarray, h_prev: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One recursion level of the bottom-up pass.

    Numbers the level's distinct (predicate, child hash) pairs, hashes them
    in one kernel call, then XOR-folds the deduplicated set of pair hashes
    per source vertex; vertices with no out-edges keep hash 0.  Also returns
    the level's pairs as (predicate ids, child hashes, per-edge pair id).
    """
    child_hash, child_rank = np.unique(h_prev, return_inverse=True)
    keys = g.edge_pred * len(child_hash) + child_rank[g.edge_obj]
    pair_keys, pair_id = np.unique(keys, return_inverse=True)
    n_pairs = len(pair_keys)
    u_pred, u_rank = np.divmod(pair_keys, len(child_hash))
    u_child = child_hash[u_rank]
    lex = g.terms.lexical
    pair_hash = siphash24(
        SIPHASH_KEY,
        [_pair_message(lex(p), c) for p, c in zip(u_pred.tolist(), u_child.tolist())],
    )
    src_u, pid_u = np.divmod(distinct(src * n_pairs + pair_id), n_pairs)
    new_h = np.zeros(g.num_vertices, dtype=np.uint64)
    if n_pairs:
        starts = np.flatnonzero(np.diff(src_u, prepend=-1))
        new_h[src_u[starts]] = np.bitwise_xor.reduceat(pair_hash[pid_u], starts)
    return new_h, (u_pred, u_child, pair_id)


def _hash_pass(g: SnapshotGraph, k: int) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """The level loop: (depth-k hash per vertex position, edge sources, pairs
    of the last level).  Depth 0 is all zeros."""
    src = g.edge_sources()
    h = np.zeros(g.num_vertices, dtype=np.uint64)
    pairs = None
    for _ in range(k):
        h, pairs = _level_up(g, src, h)
    return h, src, pairs


def summarize(g: SnapshotGraph, model: str) -> tuple[SummaryGraph, np.ndarray]:
    """Summarize a snapshot; returns the summary graph and the EQC hash of
    each vertex position, the one per-vertex array it keeps."""
    final, src, (u_pred, u_child, pair_id) = _hash_pass(g, MODEL_HOPS[model])
    eqcs, cls_of_vertex, sizes = np.unique(final, return_inverse=True, return_counts=True)
    pred_ids, pred_of_pair = np.unique(u_pred, return_inverse=True)
    # summary edges: one per distinct (source class, pair)
    n_pairs = len(u_pred)
    source, pid = np.divmod(distinct(cls_of_vertex[src] * n_pairs + pair_id), n_pairs)
    summary = SummaryGraph(
        timestamp=g.timestamp,
        model=model,
        eqcs=eqcs,
        sizes=sizes,
        predicates=[g.terms.lexical(p) for p in pred_ids.tolist()],
        predicate_usage=np.bincount(pred_of_pair[pair_id], minlength=len(pred_ids)),
        edge_source=source,
        edge_pred=pred_of_pair[pid],
        edge_child=u_child[pid],
    )
    return summary, final


def vertex_hashes(g: SnapshotGraph, model: str) -> np.ndarray:
    """EQC hash per vertex position for the given model."""
    return _hash_pass(g, MODEL_HOPS[model])[0]


def write_eqc_tsv(path: str | Path, g: SnapshotGraph, hashes: np.ndarray) -> None:
    """Write ``vertex-iri<TAB>eqc-hash-hex`` rows, sorted by vertex lexical;
    ``hashes`` holds the EQC hash of each vertex position.  No lexical holds
    a raw TAB (see ``ingest.TermTable``), so every row has two fields."""
    rows = sorted(zip(map(g.terms.lexical, g.vertex_ids.tolist()), hashes.tolist()))
    with output(path, encoding="utf-8") as fh:
        for iri, h in rows:
            fh.write(f"{iri}\t{h:016x}\n")


def write_summary_tsv(path: str | Path, summary: SummaryGraph) -> None:
    """Write ``source-eqc<TAB>predicate<TAB>child-eqc`` rows, sorted.  The
    fixed-width hex fields sort as their integers do, so one lexsort over
    (source, IRI rank, child) gives the rows' text order."""
    preds = summary.predicates
    rank = np.argsort(sorted(range(len(preds)), key=preds.__getitem__))
    order = np.lexsort((summary.edge_child, rank[summary.edge_pred], summary.edge_source))
    rows = zip(summary.eqcs[summary.edge_source[order]].tolist(),
               summary.edge_pred[order].tolist(), summary.edge_child[order].tolist())
    with output(path, encoding="utf-8") as fh:
        for s, p, c in rows:
            fh.write(f"{s:016x}\t{preds[p]}\t{c:016x}\n")
