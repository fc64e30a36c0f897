"""Growable vocabularies, per-edge feature columns and deterministic splits.

Vocabulary indices are append-only and never reassigned, so feature columns
and class indices stay valid across snapshots; serialized vocabularies from
an earlier task are always a prefix of later ones.  Predicates and features
come from every edge of the given graph: a run without rdf:type edges gets a
graph that ``ingest.drop_rdf_types`` has already cut.  A snapshot's features
are held as one column per edge, so they take V + E memory; a batch lists
its vertices' (vertex, column) pairs, and each network writes their
multi-hot rows at its own input width (``Network._forward``).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ingest import SnapshotGraph, distinct
from .reporting import output
from .summarize import SIPHASH_KEY, siphash24

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_FRACTIONS = (0.93, 0.02, 0.05)


class _Vocabulary:
    """Ordered append-only mapping key -> stable index.

    A subclass declares its line format once, as ``_format`` and ``_parse``;
    files, checkpoint headers and digests all derive from that pair.
    """

    def __init__(self, entries: Iterable | None = None):
        self._index: dict = {}
        self.entries: list = []
        self._extend(entries or ())

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key) -> bool:
        return key in self._index

    @property
    def width(self) -> int:
        return len(self.entries)

    def add(self, key) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.entries)
            self._index[key] = idx
            self.entries.append(key)
        return idx

    def _extend(self, keys: Iterable) -> int:
        before = self.width
        for key in keys:
            self.add(key)
        return self.width - before

    def index(self, key) -> int:
        return self._index[key]

    def lines(self) -> list[str]:
        return [self._format(e) for e in self.entries]

    @classmethod
    def from_lines(cls, lines: Iterable[str]):
        """Inverse of ``lines()``; every line is an entry, empty ones included."""
        return cls(cls._parse(line) for line in lines)

    def _bytes(self) -> bytes:
        return "".join(f"{line}\n" for line in self.lines()).encode("utf-8")

    def serialize(self, path: str | Path) -> None:
        with output(path, "wb") as fh:
            fh.write(self._bytes())

    def digest(self) -> str:
        """SHA-256 of the serialized file."""
        return hashlib.sha256(self._bytes()).hexdigest()


class PredicateVocabulary(_Vocabulary):
    """Predicate IRI -> feature column."""

    def extend_from_graph(self, g: SnapshotGraph) -> int:
        """Append this snapshot's unseen predicates in sorted IRI order."""
        return self._extend(sorted(g.terms.lexical(int(p)) for p in distinct(g.edge_pred)))

    _format = _parse = staticmethod(str)
    # perfbench/tracing.py wraps each vocabulary class's own serialize
    serialize = _Vocabulary.serialize


class ClassVocabulary(_Vocabulary):
    """EQC hash -> class index; width is the cumulative distinct EQCs seen."""

    def extend(self, hashes: np.ndarray | Sequence[int]) -> int:
        """Append the unseen hashes in ascending order."""
        return self._extend(distinct(np.asarray(hashes, dtype=np.uint64)).tolist())

    _format = staticmethod("{:016x}".format)
    _parse = staticmethod(lambda line: int(line, 16))
    serialize = _Vocabulary.serialize


def extend_vocabularies(
    g: SnapshotGraph,
    eqc_hashes: np.ndarray | Sequence[int],
    pred_vocab: PredicateVocabulary,
    class_vocab: ClassVocabulary,
) -> tuple[PredicateVocabulary, ClassVocabulary]:
    """Grow both vocabularies with one snapshot's predicates and EQCs."""
    pred_vocab.extend_from_graph(g)
    class_vocab.extend(eqc_hashes)
    return pred_vocab, class_vocab


def encode_features(g: SnapshotGraph, vocab: PredicateVocabulary) -> np.ndarray:
    """Feature column of each edge's predicate, in CSR order.

    A vertex's feature row is multi-hot over the columns of its out-edges,
    multiplicity ignored, so sinks get zero rows; a network writes the rows
    of a batch's vertices.  Every predicate must already be in the
    vocabulary; each distinct predicate is looked up once.
    """
    uniq, inverse = np.unique(g.edge_pred, return_inverse=True)
    iris = [g.terms.lexical(p) for p in uniq.tolist()]
    missing = [iri for iri in iris if iri not in vocab]
    if missing:
        raise ValueError(f"predicate {missing[0]!r} missing from vocabulary")
    return np.array([vocab.index(iri) for iri in iris], dtype=np.int64)[inverse]


def _largest_remainder(n: int, fractions: Sequence[float]) -> list[int]:
    quotas = [n * f for f in fractions]
    base = [int(q) for q in quotas]
    remainder = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return base


def split_sizes(n: int) -> list[int]:
    """Train, val and test bucket sizes of an n-vertex split."""
    return _largest_remainder(n, SPLIT_FRACTIONS)


def split_vertices(g: SnapshotGraph, seed: int) -> np.ndarray:
    """Assign train/val/test tags (93/2/5) per vertex position.

    Vertices are ranked by a seeded hash of their lexical form, so the split
    is reproducible and a vertex's role is stable across snapshots except at
    quota boundaries.  Bucket sizes follow largest-remainder rounding.
    The hash is keyed with ``seed``'s 8 bytes, so a wider seed would alias
    another's split: its rule in ``nets.network.RULES`` holds it in [0, 2**64).
    """
    n = g.num_vertices
    tags = np.empty(n, dtype=np.int8)
    key = seed.to_bytes(8, "little") + SIPHASH_KEY[8:]
    lex = g.terms.lexical
    hashes = siphash24(key, [lex(t).encode("utf-8") for t in g.vertex_ids.tolist()])
    ranked = np.lexsort((np.arange(n), hashes))
    n_train, n_val, _ = split_sizes(n)
    tags[ranked[:n_train]] = TRAIN
    tags[ranked[n_train : n_train + n_val]] = VAL
    tags[ranked[n_train + n_val :]] = TEST
    return tags
