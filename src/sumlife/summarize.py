"""Hash-based k-hop equivalence classes and the summary graph.

Every vertex is fingerprinted by recursively hashing its outgoing
(predicate, child fingerprint) pairs: the depth-0 fingerprint of every vertex
is 0, and each further level XOR-folds the *deduplicated set* of pair hashes.
Set semantics matter: XOR would silently cancel a pair contributed twice.

The pass is bottom-up dynamic programming over CSR edge arrays: one level for
the whole graph at a time, O(k * |E| log |E|) total, instead of per-vertex
recursion.  Pair hashing is SipHash-2-4 under a fixed key so runs are
reproducible; each level hashes its distinct (predicate, child) pairs in one
call of the batched numpy kernel ``siphash24``, which also ranks the vertex
splits in ``features``.

Summary model "ac1" uses one recursion level (outgoing label sets), "ac2" two
(labels of the vertex and of its neighbours).  Every edge of the given graph
counts; rdf:type edges are left out beforehand by ``ingest.drop_rdf_types``
unless the run includes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingest import SnapshotGraph

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
    for nb in np.unique(n_blocks).tolist():
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
    """Summary of one snapshot: primary EQC vertices, secondary refinement
    vertices and the deduplicated edges between them."""

    timestamp: str
    model: str
    eqcs: frozenset[int]
    secondary: frozenset[tuple[str, int]]
    summary_edges: frozenset[tuple[int, str, int]]  # (source eqc, predicate, child hash)
    predicate_usage: dict[str, int]

    @property
    def num_primary(self) -> int:
        return len(self.eqcs)

    @property
    def num_edges(self) -> int:
        return len(self.summary_edges)


class ExtensionMap:
    """Members of each EQC; partitions the snapshot's vertices."""

    def __init__(self, members: dict[int, list[int]]):
        self.members = members

    def count(self, eqc: int) -> int:
        return len(self.members.get(eqc, ()))

    def counts(self) -> dict[int, int]:
        return {q: len(v) for q, v in self.members.items()}

    def total(self) -> int:
        return sum(len(v) for v in self.members.values())

    def __contains__(self, eqc: int) -> bool:
        return eqc in self.members

    def __len__(self) -> int:
        return len(self.members)


def _group_rows(*columns: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Deduplicate rows given as parallel columns, using native-integer sorts.

    Returns (unique columns, inverse) like np.unique(axis=0) would, but
    avoids its slow byte-comparison path on wide void dtypes.
    """
    order = np.lexsort(tuple(reversed(columns)))
    sorted_cols = [c[order] for c in columns]
    n = len(order)
    if n == 0:
        return list(sorted_cols), np.empty(0, dtype=np.int64)
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for c in sorted_cols:
        changed[1:] |= c[1:] != c[:-1]
    gid_sorted = np.cumsum(changed) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = gid_sorted
    starts = np.flatnonzero(changed)
    return [c[starts] for c in sorted_cols], inverse


def _factorize_pairs(
    pred: np.ndarray, children: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense ids for distinct (predicate, child hash) pairs.

    Returns (unique preds, unique children, per-edge pair id).  When children
    is None every child hash is zero (the base recursion level), and the
    factorization reduces to a linear table lookup over predicate ids.
    """
    if children is None:
        table = np.full(int(pred.max()) + 1, -1, dtype=np.int64)
        present = np.zeros(len(table), dtype=bool)
        present[pred] = True
        uniq = np.flatnonzero(present)
        table[uniq] = np.arange(len(uniq))
        return uniq.astype(np.uint64), np.zeros(len(uniq), np.uint64), table[pred]
    (u_pred, u_child), pair_id = _group_rows(pred.astype(np.uint64), children)
    return u_pred, u_child, pair_id


def _dedup_key_pairs(major: np.ndarray, minor_id: np.ndarray, n_minor: int):
    """Unique (major, minor id) combos, sorted by major.

    Packs both into one integer key so a single linear-time integer sort
    suffices; falls back to a two-key grouping if the product could overflow.
    """
    hi = int(major.max()) + 1 if len(major) else 0
    if n_minor and hi < (1 << 62) // max(n_minor, 1):
        combo = major * n_minor + minor_id
        combo = np.sort(combo, kind="stable")
        keep = np.ones(len(combo), dtype=bool)
        keep[1:] = combo[1:] != combo[:-1]
        cu = combo[keep]
        return cu // n_minor, cu % n_minor
    (m_u, i_u), _ = _group_rows(major.astype(np.int64), minor_id)
    return m_u, i_u


class _LevelPairs:
    """Pair bookkeeping for one recursion level (reused by summary edges)."""

    __slots__ = ("u_pred", "u_child", "pair_id")

    def __init__(self, u_pred, u_child, pair_id):
        self.u_pred = u_pred
        self.u_child = u_child
        self.pair_id = pair_id


def _level_up(
    g: SnapshotGraph, src: np.ndarray, h_prev: np.ndarray
) -> tuple[np.ndarray, _LevelPairs | None]:
    """One recursion level of the bottom-up pass.

    Hashes the level's distinct (predicate, child hash) pairs in one kernel
    call, then XOR-folds the deduplicated set of pair hashes per source
    vertex; vertices with no out-edges keep hash 0.
    """
    new_h = np.zeros(g.num_vertices, dtype=np.uint64)
    if len(src) == 0:
        return new_h, None
    children = h_prev[g.edge_obj] if h_prev.any() else None
    u_pred, u_child, pair_id = _factorize_pairs(g.edge_pred, children)
    lex = g.terms.lexical
    pair_hash = siphash24(
        SIPHASH_KEY,
        [_pair_message(lex(p), c) for p, c in zip(u_pred.tolist(), u_child.tolist())],
    )
    src_u, pid_u = _dedup_key_pairs(src, pair_id, len(u_pred))
    ph_u = pair_hash[pid_u.astype(np.int64)]
    starts = np.flatnonzero(np.concatenate(([True], src_u[1:] != src_u[:-1])))
    if len(src_u):
        new_h[src_u[starts].astype(np.int64)] = np.bitwise_xor.reduceat(ph_u, starts)
    return new_h, _LevelPairs(u_pred, u_child, pair_id)


def _hash_pass(g: SnapshotGraph, k: int) -> tuple[np.ndarray, np.ndarray, _LevelPairs | None]:
    """The level loop: (depth-k hash per vertex position, edge sources, pair
    bookkeeping of the last level).  Depth 0 is all zeros."""
    src = g.edge_sources()
    h = np.zeros(g.num_vertices, dtype=np.uint64)
    pairs = None
    for _ in range(k):
        h, pairs = _level_up(g, src, h)
    return h, src, pairs


def eqc_hash(g: SnapshotGraph, vertex: int, k: int) -> int:
    """EQC hash of one vertex (by position) for a k-hop model, k in {1, 2}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not 0 <= vertex < g.num_vertices:
        raise KeyError(f"unknown vertex position {vertex}")
    return int(_hash_pass(g, k)[0][vertex])


def summarize(g: SnapshotGraph, model: str) -> tuple[SummaryGraph, ExtensionMap]:
    """Summarize a snapshot; returns the summary graph and its extension map."""
    if model not in MODEL_HOPS:
        raise ValueError(f"unknown summary model {model!r}")
    final, src, pairs = _hash_pass(g, MODEL_HOPS[model])

    # extension map: group vertex term ids by final hash; the same grouping
    # doubles as a dense class id per vertex for the summary-edge dedup
    members: dict[int, list[int]] = {}
    cls_of_vertex = np.zeros(g.num_vertices, dtype=np.int64)
    cls_hash = np.empty(0, dtype=np.uint64)
    if g.num_vertices:
        order = np.argsort(final, kind="stable")
        sorted_h = final[order]
        sorted_ids = g.vertex_ids[order]
        changed = np.concatenate(([True], sorted_h[1:] != sorted_h[:-1]))
        cls_of_vertex[order] = np.cumsum(changed) - 1
        starts = np.flatnonzero(changed)
        cls_hash = sorted_h[starts]
        bounds = np.append(starts, len(sorted_h))
        for a, b in zip(bounds[:-1], bounds[1:]):
            members[int(sorted_h[a])] = sorted_ids[a:b].tolist()
    ext = ExtensionMap(members)

    # summary edges: one per distinct (source eqc, predicate, child hash)
    edges: set[tuple[int, str, int]] = set()
    secondary: set[tuple[str, int]] = set()
    usage: dict[str, int] = {}
    if pairs is not None:
        cls_u, pid_u = _dedup_key_pairs(cls_of_vertex[src], pairs.pair_id, len(pairs.u_pred))
        for c_id, p_id in zip(cls_u, pid_u):
            p_iri = g.terms.lexical(int(pairs.u_pred[p_id]))
            child_hash = int(pairs.u_child[p_id])
            edges.add((int(cls_hash[c_id]), p_iri, child_hash))
            secondary.add((p_iri, child_hash))
        pair_counts = np.bincount(pairs.pair_id, minlength=len(pairs.u_pred))
        for p_id, count in enumerate(pair_counts):
            iri = g.terms.lexical(int(pairs.u_pred[p_id]))
            usage[iri] = usage.get(iri, 0) + int(count)
    summary = SummaryGraph(
        timestamp=g.timestamp,
        model=model,
        eqcs=frozenset(members),
        secondary=frozenset(secondary),
        summary_edges=frozenset(edges),
        predicate_usage=usage,
    )
    return summary, ext


def vertex_hashes(g: SnapshotGraph, model: str) -> np.ndarray:
    """EQC hash per vertex position for the given model."""
    return _hash_pass(g, MODEL_HOPS[model])[0]


def write_eqc_tsv(path: str | Path, g: SnapshotGraph, ext: ExtensionMap) -> None:
    """Write ``vertex-iri<TAB>eqc-hash-hex`` rows, sorted by vertex lexical."""
    lex = g.terms.lexical
    rows = sorted((lex(t), h) for h, members in ext.members.items() for t in members)
    with open(path, "w", encoding="utf-8") as fh:
        for iri, h in rows:
            fh.write(f"{iri}\t{h:016x}\n")


def write_summary_tsv(path: str | Path, summary: SummaryGraph) -> None:
    """Write ``source-eqc<TAB>predicate<TAB>child-eqc`` rows, sorted."""
    rows = sorted((f"{s:016x}", p, f"{c:016x}") for s, p, c in summary.summary_edges)
    with open(path, "w", encoding="utf-8") as fh:
        for s, p, c in rows:
            fh.write(f"{s}\t{p}\t{c}\n")
