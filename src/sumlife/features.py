"""Growable vocabularies, multi-hot features and deterministic splits.

Vocabulary indices are append-only and never reassigned, so feature columns
and class indices stay valid across snapshots; serialized vocabularies from
an earlier task are always a prefix of later ones.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ingest import SnapshotGraph
from .summarize import SIPHASH_KEY, siphash24

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_FRACTIONS = (0.93, 0.02, 0.05)


class _Vocabulary:
    """Ordered append-only mapping key -> stable index."""

    def __init__(self, entries: Iterable | None = None):
        self._index: dict = {}
        self.entries: list = []
        if entries:
            for e in entries:
                self.add(e)

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

    def index(self, key) -> int:
        return self._index[key]

    def get(self, key, default=None):
        return self._index.get(key, default)


class PredicateVocabulary(_Vocabulary):
    """Predicate IRI -> feature column."""

    def extend_from_graph(self, g: SnapshotGraph, include_rdf_types: bool = False) -> int:
        """Append this snapshot's unseen predicates in sorted IRI order."""
        mask = g.considered_mask(include_rdf_types)
        iris = sorted(
            g.terms.lexical(int(p)) for p in np.unique(g.edge_pred[mask])
        )
        before = self.width
        for iri in iris:
            self.add(iri)
        return self.width - before

    def serialize(self, path: str | Path) -> None:
        Path(path).write_text("".join(f"{e}\n" for e in self.entries), encoding="utf-8")

    @classmethod
    def deserialize(cls, path: str | Path) -> "PredicateVocabulary":
        text = Path(path).read_text(encoding="utf-8")
        return cls(line for line in text.splitlines() if line)

    def digest(self) -> str:
        h = hashlib.sha256()
        for e in self.entries:
            h.update(e.encode("utf-8") + b"\n")
        return h.hexdigest()


class ClassVocabulary(_Vocabulary):
    """EQC hash -> class index; width is the cumulative distinct EQCs seen."""

    def extend(self, hashes: Iterable[int]) -> int:
        before = self.width
        for h in sorted(set(int(x) for x in hashes)):
            self.add(h)
        return self.width - before

    def serialize(self, path: str | Path) -> None:
        Path(path).write_text(
            "".join(f"{e:016x}\n" for e in self.entries), encoding="utf-8"
        )

    @classmethod
    def deserialize(cls, path: str | Path) -> "ClassVocabulary":
        text = Path(path).read_text(encoding="utf-8")
        return cls(int(line, 16) for line in text.splitlines() if line)

    def digest(self) -> str:
        h = hashlib.sha256()
        for e in self.entries:
            h.update(f"{e:016x}\n".encode())
        return h.hexdigest()


def extend_vocabularies(
    g: SnapshotGraph,
    eqc_hashes: Iterable[int],
    pred_vocab: PredicateVocabulary,
    class_vocab: ClassVocabulary,
    include_rdf_types: bool = False,
) -> tuple[PredicateVocabulary, ClassVocabulary]:
    """Grow both vocabularies with one snapshot's predicates and EQCs."""
    pred_vocab.extend_from_graph(g, include_rdf_types)
    class_vocab.extend(eqc_hashes)
    return pred_vocab, class_vocab


def encode_features(
    g: SnapshotGraph, vocab: PredicateVocabulary, include_rdf_types: bool = False
) -> np.ndarray:
    """Multi-hot outgoing-predicate matrix, one row per vertex position.

    Multiplicity is ignored; sinks get zero rows.  Every considered predicate
    must already be in the vocabulary.
    """
    x = np.zeros((g.num_vertices, vocab.width), dtype=np.float64)
    mask = g.considered_mask(include_rdf_types)
    if not mask.any():
        return x
    src = g.edge_sources()[mask]
    preds = g.edge_pred[mask]
    uniq_pred, inverse = np.unique(preds, return_inverse=True)
    cols = np.empty(len(uniq_pred), dtype=np.int64)
    for i, p in enumerate(uniq_pred):
        iri = g.terms.lexical(int(p))
        idx = vocab.get(iri)
        if idx is None:
            raise ValueError(f"predicate {iri!r} missing from vocabulary")
        cols[i] = idx
    x[src, cols[inverse]] = 1.0
    return x


def _largest_remainder(n: int, fractions: Sequence[float]) -> list[int]:
    quotas = [n * f for f in fractions]
    base = [int(q) for q in quotas]
    remainder = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return base


def split_vertices(g: SnapshotGraph, seed: int) -> np.ndarray:
    """Assign train/val/test tags (93/2/5) per vertex position.

    Vertices are ranked by a seeded hash of their lexical form, so the split
    is reproducible and a vertex's role is stable across snapshots except at
    quota boundaries.  Bucket sizes follow largest-remainder rounding.
    """
    n = g.num_vertices
    tags = np.empty(n, dtype=np.int8)
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little") + SIPHASH_KEY[8:]
    lex = g.terms.lexical
    hashes = siphash24(key, [lex(t).encode("utf-8") for t in g.vertex_ids.tolist()])
    ranked = np.lexsort((np.arange(n), hashes))
    n_train, n_val, _ = _largest_remainder(n, SPLIT_FRACTIONS)
    tags[ranked[:n_train]] = TRAIN
    tags[ranked[n_train : n_train + n_val]] = VAL
    tags[ranked[n_train + n_val :]] = TEST
    return tags
