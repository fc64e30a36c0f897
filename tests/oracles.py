"""Independent oracles used to pin expected values.

Nothing here imports implementation internals beyond public graph accessors;
the point is that these paths are derived separately from the code they check.
"""

from __future__ import annotations

import gzip
import math
import re
import struct
import zlib
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from sumlife.errors import IngestError
from sumlife.ingest import IRI, SnapshotGraph, TermTable
from sumlife.nets.gcn import batch_adjacency
from sumlife.nets.graphmlp import graphmlp_contrast
from sumlife.nets.ops import DTYPE, gelu, gelu_grad, matrix_product, scatter_rows


def _rotl(x: int, b: int) -> int:
    return ((x << b) | (x >> (64 - b))) & 0xFFFFFFFFFFFFFFFF


def reference_siphash24(key: bytes, data: bytes) -> int:
    """Textbook SipHash-2-4, written against the published round function."""
    assert len(key) == 16
    k0, k1 = struct.unpack("<QQ", key)
    v = [
        k0 ^ 0x736F6D6570736575,
        k1 ^ 0x646F72616E646F6D,
        k0 ^ 0x6C7967656E657261,
        k1 ^ 0x7465646279746573,
    ]

    def sipround(v):
        v[0] = (v[0] + v[1]) & 0xFFFFFFFFFFFFFFFF
        v[1] = _rotl(v[1], 13) ^ v[0]
        v[0] = _rotl(v[0], 32)
        v[2] = (v[2] + v[3]) & 0xFFFFFFFFFFFFFFFF
        v[3] = _rotl(v[3], 16) ^ v[2]
        v[0] = (v[0] + v[3]) & 0xFFFFFFFFFFFFFFFF
        v[3] = _rotl(v[3], 21) ^ v[0]
        v[2] = (v[2] + v[1]) & 0xFFFFFFFFFFFFFFFF
        v[1] = _rotl(v[1], 17) ^ v[2]
        v[2] = _rotl(v[2], 32)

    blocks = len(data) // 8
    for i in range(blocks):
        (m,) = struct.unpack_from("<Q", data, i * 8)
        v[3] ^= m
        sipround(v)
        sipround(v)
        v[0] ^= m
    tail = data[blocks * 8 :]
    m = int.from_bytes(tail + bytes(7 - len(tail)) + bytes([len(data) & 0xFF]), "little")
    v[3] ^= m
    sipround(v)
    sipround(v)
    v[0] ^= m
    v[2] ^= 0xFF
    for _ in range(4):
        sipround(v)
    return v[0] ^ v[1] ^ v[2] ^ v[3]


# Official SipHash-2-4 test vectors: key = 00 01 .. 0f, message = first n bytes
# of 00 01 02 ..., output little-endian.  All 64 published rows, n = 0..63.
SIPHASH_VECTORS = [
    "310e0edd47db6f72",
    "fd67dc93c539f874",
    "5a4fa9d909806c0d",
    "2d7efbd796666785",
    "b7877127e09427cf",
    "8da699cd64557618",
    "cee3fe586e46c9cb",
    "37d1018bf50002ab",
    "6224939a79f5f593",
    "b0e4a90bdf82009e",
    "f3b9dd94c5bb5d7a",
    "a7ad6b22462fb3f4",
    "fbe50e86bc8f1e75",
    "903d84c02756ea14",
    "eef27a8e90ca23f7",
    "e545be4961ca29a1",
    "db9bc2577fcc2a3f",
    "9447be2cf5e99a69",
    "9cd38d96f0b3c14b",
    "bd6179a71dc96dbb",
    "98eea21af25cd6be",
    "c7673b2eb0cbf2d0",
    "883ea3e395675393",
    "c8ce5ccd8c030ca8",
    "94af49f6c650adb8",
    "eab8858ade92e1bc",
    "f315bb5bb835d817",
    "adcf6b0763612e2f",
    "a5c91da7acaa4dde",
    "716595876650a2a6",
    "28ef495c53a387ad",
    "42c341d8fa92d832",
    "ce7cf2722f512771",
    "e37859f94623f3a7",
    "381205bb1ab0e012",
    "ae97a10fd434e015",
    "b4a31508beff4d31",
    "81396229f0907902",
    "4d0cf49ee5d4dcca",
    "5c73336a76d8bf9a",
    "d0a704536ba93e0e",
    "925958fcd6420cad",
    "a915c29bc8067318",
    "952b79f3bc0aa6d4",
    "f21df2e41d4535f9",
    "87577519048f53a9",
    "10a56cf5dfcd9adb",
    "eb75095ccd986cd0",
    "51a9cb9ecba312e6",
    "96afadfc2ce666c7",
    "72fe52975a4364ee",
    "5a1645b276d592a1",
    "b274cb8ebf87870a",
    "6f9bb4203de7b381",
    "eaecb2a30b22a87f",
    "9924a43cc1315724",
    "bd838d3aafbf8db7",
    "0b1a2a3265d51aea",
    "135079a3231ce660",
    "932b2846e4d70666",
    "e1915f5cb1eca46c",
    "f325965ca16d629f",
    "575ff28e60381be5",
    "724506eb4c328a95",
]


def kbisim_partition(
    n: int, edges: list[tuple[int, str, int]], k: int
) -> list[frozenset[int]]:
    """k rounds of partition refinement over outgoing (predicate, class) sets.

    Starts from the trivial one-class partition; after round r, two vertices
    share a class iff their r-hop outgoing structures agree.  Returns the
    partition as a set of frozen vertex groups.
    """
    out = defaultdict(list)
    for s, p, o in edges:
        out[s].append((p, o))
    cls = {v: 0 for v in range(n)}
    for _ in range(k):
        signatures = {
            v: frozenset((p, cls[o]) for p, o in out.get(v, ())) for v in range(n)
        }
        renumber: dict[frozenset, int] = {}
        nxt = {}
        for v in range(n):
            sig = signatures[v]
            if sig not in renumber:
                renumber[sig] = len(renumber)
            nxt[v] = renumber[sig]
        cls = nxt
    groups = defaultdict(set)
    for v, c in cls.items():
        groups[c].add(v)
    return [frozenset(g) for g in groups.values()]


def partition_of_hashes(hashes) -> set[frozenset[int]]:
    """Group vertex indices by hash value into a comparable partition."""
    groups = defaultdict(set)
    for i, h in enumerate(hashes):
        groups[int(h)].add(i)
    return {frozenset(g) for g in groups.values()}


def out_pairs(g: SnapshotGraph, position: int) -> list[tuple[int, int]]:
    """(predicate id, object term id) of a vertex's out-edges, in CSR order."""
    lo, hi = int(g.indptr[position]), int(g.indptr[position + 1])
    return [(int(g.edge_pred[e]), int(g.vertex_ids[g.edge_obj[e]])) for e in range(lo, hi)]


def position_of(g: SnapshotGraph, lexical: str, kind: str = IRI) -> int:
    """Position of the vertex whose term is ``lexical`` of ``kind``; KeyError if none."""
    tid = g.terms.lookup(kind, lexical)
    hits = np.flatnonzero(g.vertex_ids == tid) if tid is not None else []
    if len(hits) != 1:
        raise KeyError(f"{lexical!r} is not a vertex")
    return int(hits[0])


def reference_features(g: SnapshotGraph, vocab) -> np.ndarray:
    """The dense multi-hot encoder: one row per vertex position, with a 1 at
    the vocabulary column of each out-edge's predicate, in the compute dtype."""
    x = np.zeros((g.num_vertices, vocab.width), dtype=DTYPE)
    for e, v in enumerate(g.edge_sources().tolist()):
        x[v, vocab.index(g.terms.lexical(int(g.edge_pred[e])))] = 1.0
    return x


def batch_rows(batch, width: int, dtype=DTYPE) -> np.ndarray:
    """A batch's multi-hot feature rows at ``width`` columns, written one
    feature pair at a time; a column at or past ``width`` is left out."""
    x = np.zeros((batch.num_vertices, width), dtype=dtype)
    for v, c in zip(batch.feature_src.tolist(), batch.feature_col.tolist()):
        if c < width:
            x[v, c] = 1.0
    return x


def feature_pairs(x: np.ndarray) -> dict:
    """The ``feature_src`` and ``feature_col`` fields of a batch whose
    multi-hot rows are the nonzero entries of ``x``."""
    src, col = np.nonzero(x)
    return {"feature_src": src, "feature_col": col}


def read_vocabulary(cls, path):
    """A serialized vocabulary read back, one entry per line, through ``cls.from_lines``."""
    text = Path(path).read_bytes().decode("utf-8")
    return cls.from_lines(text.removesuffix("\n").split("\n") if text else [])


def reference_summary(g: SnapshotGraph, k: int) -> dict:
    """The k-hop summary of ``g`` computed edge by edge in plain Python.

    Each depth's hash of a vertex is the XOR of the distinct textbook-SipHash
    pair hashes of its out-edges (0 at depth 0 and for a vertex without
    out-edges).  Returns the final hash per position, the summary edges
    (h_k[v], p, h_{k-1}[o]) and secondary pairs (p, h_{k-1}[o]) of every edge,
    the predicate usage (one count per edge) and the member term ids of each
    class in position order.
    """
    key = bytes(range(16))
    cache: dict[tuple[str, int], int] = {}

    def pair_hash(iri: str, child: int) -> int:
        if (iri, child) not in cache:
            msg = iri.encode("utf-8") + b"\x00" + child.to_bytes(8, "little")
            cache[iri, child] = reference_siphash24(key, msg)
        return cache[iri, child]

    n = len(g.vertex_ids)
    edges = [
        (v, g.terms.lexical(int(g.edge_pred[e])), int(g.edge_obj[e]))
        for v in range(n)
        for e in range(int(g.indptr[v]), int(g.indptr[v + 1]))
    ]
    h = [0] * n
    prev = h
    for _ in range(k):
        pairs = defaultdict(set)
        for v, p, o in edges:
            pairs[v].add(pair_hash(p, h[o]))
        prev, h = h, [0] * n
        for v, hashes in pairs.items():
            for x in hashes:
                h[v] ^= x
    members = defaultdict(list)
    for v in range(n):
        members[h[v]].append(int(g.vertex_ids[v]))
    return {
        "hashes": h,
        "summary_edges": {(h[v], p, prev[o]) for v, p, o in edges},
        "secondary": {(p, prev[o]) for _, p, o in edges},
        "predicate_usage": dict(Counter(p for _, p, _ in edges)),
        "members": dict(members),
    }


def dense_adjacency(n: int, src, dst, normalize: bool = False) -> np.ndarray:
    """Dense n x n out-neighbour adjacency with a unit diagonal.

    Parallel edges set the same entry to 1 and self-loop edges land on the
    diagonal.  With ``normalize`` every entry (u, v) is scaled by
    1/sqrt(d_u * d_v), d being the row sums.
    """
    a = np.eye(n, dtype=np.float64)
    a[np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)] = 1.0
    if normalize:
        inv = 1.0 / np.sqrt(a.sum(axis=1))
        a = a * inv[:, None] * inv[None, :]
    return a


def reference_edge_matmul(adj, h: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``A @ h`` (or ``A.T @ h``) of an edge-list adjacency as a 2-D ``np.add.at``
    segment sum: the self term first, then each edge's message in edge order,
    all in the dtype of ``h``, to which the weights are rounded first."""
    src, dst = (adj.dst, adj.src) if transpose else (adj.src, adj.dst)
    out = adj.self_weight.astype(h.dtype)[:, None] * h
    msg = h[dst]
    if adj.weight is not None:
        msg *= adj.weight.astype(h.dtype)[:, None]
    np.add.at(out, src, msg)
    return out


def _reference_target_distribution(labels: np.ndarray, train_positions: np.ndarray) -> np.ndarray:
    train_labels = labels[train_positions]
    classes, counts = np.unique(train_labels, return_counts=True)
    inv = 1.0 / counts
    inv /= inv.sum()
    weights = {int(c): float(w) for c, w in zip(classes, inv)}
    p = np.array([weights[int(c)] for c in train_labels], dtype=np.float64)
    return p / p.sum()


def _considered_mask(g, include_rdf_types: bool) -> np.ndarray:
    """Edges that count under the rdf:type setting, read off the predicate ids."""
    type_id = g.terms.lookup("iri", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    if include_rdf_types or type_id is None:
        return np.ones(len(g.edge_pred), dtype=bool)
    return g.edge_pred != type_id


def _reference_closure(g, start: int, k: int, mask: np.ndarray) -> list[int]:
    seen = {start}
    frontier = [start]
    order = [start]
    for _ in range(k):
        nxt = []
        for v in frontier:
            for e in range(int(g.indptr[v]), int(g.indptr[v + 1])):
                if not mask[e]:
                    continue
                o = int(g.edge_obj[e])
                if o not in seen:
                    seen.add(o)
                    nxt.append(o)
                    order.append(o)
        frontier = nxt
    return order


def reference_sample_batch(
    g, labels, split, k: int, features, cap: int, rng, include_rdf_types: bool, train: int = 0
) -> dict:
    """The per-edge sampler: a Python closure walk, a vertex -> local dict with
    placeholders, and the induced edges collected one at a time.

    Draws the same targets as the sampler from the same generator state and
    returns the batch fields by name.
    """
    train_positions = np.flatnonzero(split == train)
    p = _reference_target_distribution(labels, train_positions)
    draws = rng.choice(len(train_positions), size=cap, replace=True, p=p)
    mask = _considered_mask(g, include_rdf_types)
    batch: dict[int, int] = {}
    target_order: list[int] = []
    closure_extra: list[int] = []
    accepted: list[int] = []
    for d in draws:
        t = int(train_positions[d])
        closure = _reference_closure(g, t, k, mask)
        new = [v for v in closure if v not in batch]
        if batch and len(batch) + len(new) > cap:
            break
        accepted.append(t)
        if t not in batch:
            batch[t] = -1
            target_order.append(t)
        for v in new:
            if v != t and v not in batch:
                batch[v] = -1
                closure_extra.append(v)
    ordered = target_order + closure_extra
    local = {v: i for i, v in enumerate(ordered)}
    vertices = np.array(ordered, dtype=np.int64)
    src_l, dst_l, pred_l = [], [], []
    for v in ordered:
        for e in range(int(g.indptr[v]), int(g.indptr[v + 1])):
            if not mask[e]:
                continue
            j = local.get(int(g.edge_obj[e]))
            if j is not None:
                src_l.append(local[v])
                dst_l.append(j)
                pred_l.append(int(g.edge_pred[e]))
    return {
        "vertices": vertices,
        "n_targets": len(target_order),
        "target_idx": np.array([local[t] for t in accepted], dtype=np.int64),
        "labels": np.asarray(labels)[np.array(accepted, dtype=np.int64)],
        "edge_src": np.array(src_l, dtype=np.int64),
        "edge_dst": np.array(dst_l, dtype=np.int64),
        "edge_pred": np.array(pred_l, dtype=np.int64),
        "features": features[vertices],
        "k": k,
    }


def reference_full_graph_batch(g, labels, features, k: int, include_rdf_types: bool) -> dict:
    """The whole snapshot as one batch, its edges cut out of the CSR arrays by
    the considered-edge mask."""
    mask = _considered_mask(g, include_rdf_types)
    n = g.num_vertices
    return {
        "vertices": np.arange(n, dtype=np.int64),
        "n_targets": n,
        "target_idx": np.arange(n, dtype=np.int64),
        "labels": np.asarray(labels),
        "edge_src": g.edge_sources()[mask].astype(np.int64),
        "edge_dst": g.edge_obj[mask].astype(np.int64),
        "edge_pred": g.edge_pred[mask].astype(np.int64),
        "features": features,
        "k": k,
    }


def reference_receptive_field(b: dict, rows, hops: int) -> dict:
    """Cut the batch ``b`` (fields by name) down to its targets ``rows`` and
    the vertices within ``hops`` out-edge hops of them over ``b``'s own edges,
    in ascending order, with every edge among them in ``b``'s edge order."""
    targets = b["target_idx"][rows]
    n = len(b["vertices"])
    inside = np.zeros(n, dtype=bool)
    inside[targets] = True
    for _ in range(hops):
        inside[b["edge_dst"][inside[b["edge_src"]]]] = True
    keep = np.flatnonzero(inside)
    local = np.full(n, -1, dtype=np.int64)
    local[keep] = np.arange(len(keep), dtype=np.int64)
    edges = inside[b["edge_src"]] & inside[b["edge_dst"]]
    return b | {
        "vertices": b["vertices"][keep],
        "n_targets": len(targets),
        "target_idx": local[targets],
        "labels": b["labels"][rows],
        "edge_src": local[b["edge_src"][edges]],
        "edge_dst": local[b["edge_dst"][edges]],
        "edge_pred": b["edge_pred"][edges],
        "features": b["features"][keep],
    }


# The line-at-a-time snapshot loader, kept as the reference for the block
# loader in sumlife.ingest: each physical line is decoded, stripped and
# matched on its own, with the original single-line statement grammar.
_REF_IRI = r"<[^<>\"{}|^`\\\x00-\x20]*>"
_REF_BLANK = r"_:[A-Za-z0-9][A-Za-z0-9_.\-]*"
_REF_LITERAL = r'"(?:[^"\\\r]|\\[^\r])*"(?:\^\^<[^<>"\s]*>|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?'
_REF_STATEMENT_RE = re.compile(
    rf"^({_REF_IRI}|{_REF_BLANK})\s+({_REF_IRI})\s+"
    rf"({_REF_IRI}|{_REF_BLANK}|{_REF_LITERAL})"
    rf"(?:\s+({_REF_IRI}|{_REF_BLANK}))?\s*\.\s*(?:#.*)?$"
)


def _ref_intern_token(token: str, table: TermTable, blank_scope: str) -> int:
    if token[0] == "<":
        return table.intern("iri", token[1:-1])
    if token[0] == "_":
        label = token[2:]
        return table.intern("blank", f"_:{blank_scope}.{label}" if blank_scope else token)
    return table.intern("literal", token)


def reference_parse_line(line: str, table: TermTable, blank_scope: str = ""):
    stripped = line.strip()
    if not stripped:
        return "blank"
    if stripped.startswith("#"):
        return "comment"
    m = _REF_STATEMENT_RE.match(stripped)
    if m is None:
        return "malformed"
    s_tok, p_tok, o_tok = m.group(1), m.group(2), m.group(3)
    return (
        _ref_intern_token(s_tok, table, blank_scope),
        _ref_intern_token(p_tok, table, blank_scope),
        _ref_intern_token(o_tok, table, blank_scope),
    )


def _ref_snapshot_files(path: Path) -> list[Path]:
    return sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]


def _ref_iter_lines(path: Path):
    """Yield (raw line, byte offset of line start) from a plain or gzip file."""
    opener = gzip.open if path.name.endswith(".gz") else open
    offset = 0
    with opener(path, "rb") as fh:
        for raw in fh:
            yield raw, offset
            offset += len(raw)


def reference_load_snapshot(path, timestamp: str) -> SnapshotGraph:
    """Load one snapshot (file or directory) a line at a time."""
    path = Path(path)
    table = TermTable()
    subjects, preds, objects = array("q"), array("q"), array("q")
    skips: Counter = Counter()
    offset = 0
    current = None
    try:
        for file_index, file_path in enumerate(_ref_snapshot_files(path)):
            current = file_path
            scope = f"f{file_index}"
            for raw, offset in _ref_iter_lines(file_path):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    skips["malformed"] += 1
                    continue
                parsed = reference_parse_line(line, table, scope)
                if isinstance(parsed, str):
                    skips[parsed] += 1
                    continue
                s, p, o = parsed
                subjects.append(s)
                preds.append(p)
                objects.append(o)
    except (OSError, EOFError, zlib.error) as exc:
        raise IngestError(f"{current}: read failed at byte offset {offset}: {exc}") from exc
    return SnapshotGraph.from_term_edges(timestamp, table, subjects, preds, objects, skips)


def reference_keep_edges(g: SnapshotGraph, keep: np.ndarray, vertex_ids: np.ndarray) -> SnapshotGraph:
    """``g`` rebuilt from the term ids of the edges ``keep`` marks, over the
    sorted term ids ``vertex_ids``, through the sorting constructor."""
    subjects, objects = g.vertex_ids[g.edge_sources()[keep]], g.vertex_ids[g.edge_obj[keep]]
    return SnapshotGraph.from_term_edges(
        g.timestamp, g.terms, subjects, g.edge_pred[keep], objects, Counter(g.skip_reasons),
        vertex_ids=vertex_ids,
    )


def reference_dropout_mask(rng, shape: tuple[int, int], rate: float, rows=None,
                           dtype=DTYPE) -> np.ndarray:
    """Float inverted-dropout mask of one full ``rng.random(shape)`` draw cut
    to ``rows`` (every row when None), in ``dtype``: 0 with probability
    ``rate``, else 1/(1-rate) rounded to ``dtype``; all ones, drawing
    nothing, at rate 0."""
    sel = slice(None) if rows is None else rows
    if rate <= 0.0:
        return np.ones(shape, dtype)[sel]
    return (rng.random(shape)[sel] >= rate).astype(dtype) * (1.0 / (1.0 - rate))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient, from two exponentials."""
    n = len(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    loss = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(n), labels]))
    grad = softmax_rows(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def reference_adam_step(tensors: dict, grads: dict, state, lr: float) -> None:
    """Adam with bias correction, one fresh array per operation."""
    state.t += 1
    bc1 = 1.0 - 0.9**state.t
    bc2 = 1.0 - 0.999**state.t
    for name, theta in tensors.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def reference_train_step(net, batch, adam, rng) -> float:
    """``Network.train_step`` with float dropout masks drawn for every batch
    row, a cached pre-activation per layer, ``relu'`` read off it, a
    two-exponential loss and Adam without scratch arrays; updates ``net`` and
    ``adam`` in place and returns the loss.  The adjacency, the contrastive
    term, GELU, the row scatter and the one-row product are the package's own:
    the parts re-derived here are the ones the lean step rewrote.  It computes
    in the dtype of the parameters, writing the feature rows in it too."""

    def relu_grad(a):
        return (a > 0.0).astype(a.dtype)

    p, hyper = net.params, net.hyper
    rate, dtype = hyper.dropout, p.dtype
    rows, inv = np.unique(batch.target_idx, return_inverse=True)
    x = batch_rows(batch, net.n_in, dtype)
    if net.arch == "mlp":
        mask = reference_dropout_mask(rng, (len(x), p.w0.shape[1]), rate, rows, dtype)
        x = x[rows]
        a = x @ p.w0 + p.b0
        hd = np.maximum(a, 0.0) * mask
        logits = hd @ p.w_out + p.b_out
    elif net.arch == "graph-mlp":
        a0 = x @ p.w0
        g = gelu(a0)
        mask = reference_dropout_mask(rng, g.shape, rate, dtype=dtype)
        x1 = g * mask
        z = x1 @ p.w1
        logits = z[rows] @ p.w2
    else:
        adj = batch_adjacency(batch.num_vertices, batch.edge_src, batch.edge_dst,
                              hyper.normalize_adjacency, dtype)
        hs, pre, masks = [x], [], []
        for w in p.layers:
            pre.append(adj @ (hs[-1] @ w))
            masks.append(reference_dropout_mask(rng, pre[-1].shape, rate, dtype=dtype))
            hs.append(np.maximum(pre[-1], 0.0) * masks[-1])
        jk = np.hstack(hs[1:])[rows]
        logits = matrix_product(jk, p.w_cls)
    loss, dsel = reference_cross_entropy(logits[inv], batch.labels)
    dlogits = scatter_rows(dsel, inv, len(rows))
    if net.arch == "mlp":
        da = dlogits @ p.w_out.T * mask * relu_grad(a)
        grads = {"w0": x.T @ da, "b0": da.sum(axis=0), "w_out": hd.T @ dlogits,
                 "b_out": dlogits.sum(axis=0)}
    elif net.arch == "graph-mlp":
        nc, dz_nc = graphmlp_contrast(z, batch.edge_src, batch.edge_dst, hyper.tau)
        loss = loss + hyper.alpha * nc
        dz = scatter_rows(dlogits @ p.w2.T, rows, len(z)) + hyper.alpha * dz_nc
        da0 = dz @ p.w1.T * mask * gelu_grad(a0)
        grads = {"w0": x.T @ da0, "w1": x1.T @ dz, "w2": z[rows].T @ dlogits}
    else:
        grads = {"w_cls": jk.T @ dlogits}
        djk = scatter_rows(dlogits @ p.w_cls.T, rows, len(x))
        offsets = np.cumsum([0] + [w.shape[1] for w in p.layers])
        dh_next = np.zeros_like(hs[-1])
        for l in range(len(p.layers) - 1, -1, -1):
            dp = (dh_next + djk[:, offsets[l] : offsets[l + 1]]) * masks[l] * relu_grad(pre[l])
            m = adj.T @ dp
            grads[f"w{l}"] = hs[l].T @ m
            dh_next = m @ p.layers[l].T
    reference_adam_step(p, grads, adam, hyper.learning_rate)
    return loss


def summary_as_sets(s) -> dict:
    """A ``SummaryGraph``'s arrays as the Python sets and dicts the reference
    measures read: {hash: members}, {(source hash, IRI, child hash)},
    {(IRI, child hash)} and {IRI: edges}."""
    eqcs, preds = s.eqcs.tolist(), s.predicates
    edges = list(zip(s.edge_source.tolist(), s.edge_pred.tolist(), s.edge_child.tolist()))
    return {
        "sizes": dict(zip(eqcs, s.sizes.tolist())),
        "summary_edges": {(eqcs[q], preds[p], c) for q, p, c in edges},
        "secondary": {(preds[p], c) for _, p, c in edges},
        "predicate_usage": dict(zip(preds, s.predicate_usage.tolist())),
    }


def _reference_histogram(values) -> list[tuple[int, int]]:
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[0])


def reference_unary_stats(sizes: dict[int, int], summary_edges, predicate_usage: dict) -> tuple:
    """(avg size, avg edges, attrs, members and usage histograms) of a summary
    held as a {hash: members} dict, a set of (source, IRI, child) edges and an
    {IRI: edges} dict, counted edge by edge."""
    n = len(sizes)
    attrs_per_eqc = dict.fromkeys(sizes, 0)
    for source, _, _ in summary_edges:
        attrs_per_eqc[source] += 1
    return (sum(sizes.values()) / n, len(summary_edges) / n,
            _reference_histogram(attrs_per_eqc.values()), _reference_histogram(sizes.values()),
            _reference_histogram(predicate_usage.values()))


def reference_jaccard_dist(a: set, b: set) -> float:
    union = len(a | b)
    return 0.0 if union == 0 else 1.0 - len(a & b) / union


def _reference_directed_divergence(a: dict[int, int], b: dict[int, int]) -> float:
    total_a, total_b = max(sum(a.values()), 1), max(sum(b.values()), 1)
    terms = []
    for q in b:
        ca = a.get(q, 0)
        if ca == 0:
            continue  # zero-probability summand contributes 0
        pa = ca / total_a
        pb = b[q] / total_b
        terms.append(pa * math.log2(pa / pb))
    return math.fsum(terms)


def reference_js_divergence(a: dict[int, int], b: dict[int, int]) -> float:
    """D(A,B) + D(B,A) over {hash: members} dicts, D(A,B) summing over B's EQCs."""
    return _reference_directed_divergence(a, b) + _reference_directed_divergence(b, a)


def reference_meta_track(seq: list[set]) -> dict[str, list[int]]:
    """``MetaTrack``'s columns over a sequence of EQC sets, by set algebra."""
    track: dict[str, list[int]] = defaultdict(list)
    first, seen, prev = seq[0], set(), None
    for cur in seq:
        p = cur if prev is None else prev
        added = cur - p
        track["sizes"].append(len(cur))
        track["new_vs_first"].append(len(cur - first))
        track["new_vs_prev"].append(len(added))
        track["deleted_vs_prev"].append(len(p - cur))
        track["recurring"].append(len(cur & p))
        track["reappearing"].append(len(added & seen))
        seen |= cur
        track["cumulative_seen"].append(len(seen))
        prev = cur
    return dict(track)
