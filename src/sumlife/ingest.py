"""N-Triples / N-Quads ingestion into an interned snapshot graph.

A snapshot is one file or one directory of files (plain or ``.gz``).  Each
file is read in blocks of ``BLOCK_BYTES``, cut at the block's last newline and
decoded once as strict UTF-8; one pattern picks every statement line out of a
block.  Parsing is line-local and never aborts on bad statements: malformed
lines (including lines that are not valid UTF-8) are counted and skipped.  The
loader only appends each statement's term ids to three id columns, so its
memory grows with the number of statement lines, duplicates included;
duplicates are dropped and counted once, when the columns are sorted into the
graph.

Terms are interned into a dense, append-only :class:`TermTable`, the one
dict from raw token to term id, which keeps each term once, as its token.
Blank node labels have document scope, so each file in a directory snapshot
gets its own blank namespace.  Literals are interned by their full token
(including datatype/language suffix) and behave as sink vertices.

The finished :class:`SnapshotGraph` is immutable: edges live in CSR arrays
keyed by vertex *position* (0..n-1), with each vertex's out-edges sorted by
(predicate id, object id) and free of duplicates.

rdf:type statements are loaded like any other and count for the degree cap;
:func:`drop_rdf_types` then removes them from the capped graph unless the run
includes them, so every consumer downstream uses all edges it is given.
"""

from __future__ import annotations

import copy
import gzip
import math
import re
import zlib
from array import array
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import IngestError

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# which degree filter_high_degree caps: in + out, out or in
DEGREE_MODES = ("total", "out", "in")

IRI = "iri"
BLANK = "blank"
LITERAL = "literal"

_IRI_PAT = r"<[^<>\"{}|^`\\\x00-\x20]*>"
_BLANK_PAT = r"_:[A-Za-z0-9][A-Za-z0-9_.\-]*"
# a literal body holds no raw line break, CR included, as in N-Triples'
# STRING_LITERAL_QUOTE: a vertex lexical with one would split its eqcs.tsv row
_LITERAL_PAT = r'"(?:[^"\\\n\r]|\\[^\n\r])*"(?:\^\^<[^<>"\s]*>|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?'

# One statement line.  MULTILINE, so ``^`` and ``$`` are the ends of a line
# in a block of many: whitespace and a literal body never cross ``\n``, and
# the final ``\n?`` takes the line's newline, so what lies between two
# matches is whole lines.  The three groups are the subject, predicate and
# object tokens; a quad's context is matched but not captured.
_WS = r"[^\S\n]"
_STATEMENT_RE = re.compile(
    rf"^{_WS}*({_IRI_PAT}|{_BLANK_PAT}){_WS}+({_IRI_PAT}){_WS}+"
    rf"({_IRI_PAT}|{_BLANK_PAT}|{_LITERAL_PAT})"
    rf"(?:{_WS}+(?:{_IRI_PAT}|{_BLANK_PAT}))?{_WS}*\.{_WS}*(?:#.*)?$\n?",
    re.MULTILINE,
)

# bytes read from a snapshot file at a time; a block is parsed up to its last
# newline and the rest carried into the next.  Larger blocks read no faster,
# and the memory they touch stays with the process after the load.
BLOCK_BYTES = 64 * 1024


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as ``np.unique(values)``.

    A default sort and a mask against each value's neighbour: value-only
    ``np.unique`` hashes on numpy >= 2.3, which is far slower on integer
    keys.
    """
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class TermTable(dict):
    """Append-only intern table: N-Triples token -> dense term id.

    A term is kept once, as its token in ``tokens``: ``<iri>``, a literal's
    whole token (from its opening ``"``, suffix included) or a blank node's
    ``_:`` label.  The token's first character names the term's kind.  A
    raw TAB in a literal (N-Triples allows one) is kept as its escape
    ``\\t``, the same literal: both spellings are one term, whose token holds
    no TAB, so an ``eqcs.tsv`` row keeps its two fields.

    Looking up a new IRI or literal token interns it, so the loader maps raw
    tokens straight through the table.  A blank label's scope is one file: it
    is kept in ``blanks``, which :meth:`open_file` replaces, and is never a
    key of the table itself, where a label written as ``_:f0.x`` in one file
    would find the scoped ``_:x`` of another.  In the file scope ``f0`` the
    term of ``_:x`` is ``_:f0.x``; in the default scope ``""``, outside any
    load, a blank label is its own term.
    """

    __slots__ = ("tokens", "scope", "blanks")

    def __init__(self) -> None:
        super().__init__()
        self.tokens: list[str] = []
        self.open_file("")

    def __len__(self) -> int:
        return len(self.tokens)

    def open_file(self, scope: str) -> None:
        """Start the blank-label scope of one file; ``""`` ends a load's."""
        self.scope = scope
        self.blanks: dict[str, int] = {}

    def __missing__(self, token: str) -> int:
        if token[0] == "_":
            tid = self.blanks.get(token)
            if tid is None:
                tid = self.blanks[token] = len(self.tokens)
                self.tokens.append(f"_:{self.scope}.{token[2:]}" if self.scope else token)
            return tid
        if "\t" in token:  # only a literal can hold one
            tid = self[token] = self[token.replace("\t", "\\t")]
            return tid
        tid = self[token] = len(self.tokens)
        self.tokens.append(token)
        return tid

    def intern(self, kind: str, lexical: str) -> int:
        """Id of the term, added if new; ValueError if its token would name another kind."""
        token = _token(kind, lexical)
        if token is None:
            raise ValueError(f"{kind} {lexical!r} would have the token of another kind")
        return self[token]

    def lookup(self, kind: str, lexical: str) -> Optional[int]:
        """Id of the term, or None; a blank label is looked up in the open scope."""
        token = _token(kind, lexical)
        return (self.blanks if kind == BLANK else self).get(token)

    def lexical(self, term_id: int) -> str:
        token = self.tokens[term_id]
        return token[1:-1] if token[0] == "<" else token

    def kind(self, term_id: int) -> str:
        return _KINDS[self.tokens[term_id][0]]


# the kind of term each first character of a token names
_KINDS = {"<": IRI, '"': LITERAL, "_": BLANK}


def _token(kind: str, lexical: str) -> str | None:
    """The token of a term, or None when that token names another kind."""
    token = f"<{lexical}>" if kind == IRI else lexical
    return token if _KINDS.get(token[:1]) == kind else None


def _skip_reason(line: str) -> str:
    """Why a line that is not a statement is skipped."""
    stripped = line.strip()
    if not stripped:
        return "blank"
    return "comment" if stripped[0] == "#" else "malformed"


class SnapshotGraph:
    """Immutable interned multigraph for one timestamped snapshot.

    Vertices are the term ids appearing in subject or object position; edge
    endpoints are stored as positions into the sorted ``vertex_ids`` array.
    ``edge_count`` counts statements, rdf:type included (see :func:`drop_rdf_types`).
    ``terms`` is None in a graph from :meth:`without_terms`, whose
    ``edge_pred`` holds feature columns instead of term ids.
    """

    __slots__ = (
        "timestamp",
        "terms",
        "vertex_ids",
        "indptr",
        "edge_pred",
        "edge_obj",
        "edge_count",
        "skip_reasons",
    )

    def __init__(
        self,
        timestamp: str,
        terms: TermTable,
        vertex_ids: np.ndarray,
        indptr: np.ndarray,
        edge_pred: np.ndarray,
        edge_obj: np.ndarray,
        skip_reasons: Counter | None = None,
    ):
        self.timestamp = timestamp
        self.terms = terms
        self.vertex_ids = vertex_ids
        self.indptr = indptr
        self.edge_pred = edge_pred
        self.edge_obj = edge_obj
        self.edge_count = int(len(edge_pred))
        self.skip_reasons = skip_reasons if skip_reasons is not None else Counter()

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def skipped_lines(self) -> int:
        """Count of malformed plus duplicate input lines."""
        return self.skip_reasons.get("malformed", 0) + self.skip_reasons.get("duplicate", 0)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_obj, minlength=self.num_vertices)

    def edge_sources(self) -> np.ndarray:
        """Per-edge source positions expanded from the CSR index."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    def without_terms(self, edge_pred: np.ndarray) -> "SnapshotGraph":
        """This graph with no term table (``terms`` is None) and ``edge_pred``
        in place of the predicate term ids, which mean nothing without it:
        what sampling reads, given each edge's feature column."""
        out = copy.copy(self)
        out.terms, out.edge_pred = None, edge_pred
        return out

    # -- construction ------------------------------------------------------

    @classmethod
    def from_term_edges(
        cls,
        timestamp: str,
        terms: TermTable,
        subjects: np.ndarray,
        preds: np.ndarray,
        objects: np.ndarray,
        skip_reasons: Counter | None = None,
        vertex_ids: np.ndarray | None = None,
    ) -> "SnapshotGraph":
        """Build a snapshot from parallel term-id arrays, one entry per statement.

        Repeated statements are dropped and counted under ``"duplicate"`` in
        ``skip_reasons``; the key is added only when there is one.  The
        vertices are the subjects and objects, or ``vertex_ids`` when given: a
        sorted superset of them, which keeps vertices that have no edge.
        """
        skips = skip_reasons if skip_reasons is not None else Counter()
        subjects = np.asarray(subjects, dtype=np.int64)
        preds = np.asarray(preds, dtype=np.int64)
        objects = np.asarray(objects, dtype=np.int64)
        vertex = np.zeros(len(terms), dtype=bool)  # which term ids are vertices
        vertex[np.concatenate([subjects, objects]) if vertex_ids is None else vertex_ids] = True
        position = np.cumsum(vertex, dtype=np.int64) - 1  # a vertex's term id -> its position
        vertex_ids, s, o = np.flatnonzero(vertex), position[subjects], position[objects]
        # by source, then predicate, then object: two stable sorts, keys below |terms| * V
        order = np.argsort(preds * len(vertex_ids) + o, kind="stable")
        order = order[np.argsort(s[order], kind="stable")]
        s, p, o = s[order], preds[order], o[order]
        keep = np.ones(len(s), dtype=bool)
        keep[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1]) | (o[1:] != o[:-1])
        duplicates = len(s) - int(np.count_nonzero(keep))
        if duplicates:
            skips["duplicate"] += duplicates
        s, p, o = s[keep], p[keep], o[keep]
        indptr = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(s, minlength=len(vertex_ids)), out=indptr[1:])
        return cls(timestamp, terms, vertex_ids, indptr, p, o, skips)


def build_snapshot(
    timestamp: str, triples: Iterable[tuple[str, str, str]]
) -> SnapshotGraph:
    """Convenience builder from string triples.

    Subjects and predicates are IRIs; objects are IRIs unless they start with
    ``"`` (literal token) or ``_:`` (blank label).
    """
    table = TermTable()
    ss, ps, os_ = [], [], []
    for s, p, o in triples:
        ss.append(table.intern(IRI, s))
        ps.append(table.intern(IRI, p))
        if o.startswith('"'):
            os_.append(table.intern(LITERAL, o))
        elif o.startswith("_:"):
            os_.append(table.intern(BLANK, o))
        else:
            os_.append(table.intern(IRI, o))
    return SnapshotGraph.from_term_edges(
        timestamp, table, np.array(ss, np.int64), np.array(ps, np.int64), np.array(os_, np.int64)
    )


def _snapshot_files(path: Path) -> list[Path]:
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise IngestError(f"{path}: snapshot directory is empty")
        return files
    return [path]


def _decode(raw: bytes, skips: Counter) -> str:
    """``raw`` as strict UTF-8.  If that fails, each line that is not valid
    UTF-8 is dropped and counted as malformed."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        pass
    good = []
    for line in raw.split(b"\n"):
        try:
            good.append(line.decode("utf-8"))
        except UnicodeDecodeError:
            skips["malformed"] += 1
    return "\n".join(good)


def load_snapshot(path: str | Path, timestamp: str) -> SnapshotGraph:
    """Load, clean and deduplicate one snapshot (file or directory).

    Each file is read in blocks of ``BLOCK_BYTES``, each cut at its last
    newline.  A read failure raises :class:`IngestError` naming the file and
    the byte offset, in the decompressed stream, where the block that failed
    starts.
    """
    path = Path(path)
    table = TermTable()
    subjects, preds, objects = array("q"), array("q"), array("q")
    skips: Counter = Counter()

    def parse(text: str) -> None:
        # split yields [skipped lines, s, p, o, skipped lines, s, p, o, ...]
        parts = _STATEMENT_RE.split(text)
        other = "".join(parts[::4]).split("\n")
        del parts[::4]
        ids = array("q", map(table.__getitem__, parts))
        subjects.extend(ids[0::3])
        preds.extend(ids[1::3])
        objects.extend(ids[2::3])
        if not other[-1]:
            other.pop()
        skips.update(map(_skip_reason, other))

    offset = 0
    current: Path | None = None
    try:
        for file_index, file_path in enumerate(_snapshot_files(path)):
            current = file_path
            table.open_file(f"f{file_index}")
            opener = gzip.open if file_path.name.endswith(".gz") else open
            offset = 0
            tail = b""
            with opener(file_path, "rb") as fh:
                while block := fh.read(BLOCK_BYTES):
                    offset += len(block)
                    block = tail + block
                    cut = block.rfind(b"\n") + 1
                    parse(_decode(block[:cut], skips))
                    tail = block[cut:]
            parse(_decode(tail, skips))
    except (OSError, EOFError, zlib.error) as exc:
        raise IngestError(f"{current}: read failed at byte offset {offset}: {exc}") from exc
    table.open_file("")  # the last file's blank labels go out of scope
    return SnapshotGraph.from_term_edges(timestamp, table, subjects, preds, objects, skips)


def filter_high_degree(
    g: SnapshotGraph, cap: float | int | None, mode: str = "total"
) -> SnapshotGraph:
    """Remove every vertex whose degree exceeds ``cap``, with incident edges.

    Single pass, no cascading re-check.  ``mode`` (one of ``DEGREE_MODES``)
    selects which degree is capped.  ``cap`` of None or infinity is the
    identity.
    """
    if cap is None or (isinstance(cap, float) and math.isinf(cap)):
        return g
    out_deg = g.out_degrees()
    in_deg = g.in_degrees()
    degree = dict(zip(DEGREE_MODES, (out_deg + in_deg, out_deg, in_deg)))[mode]
    keep_vertex = degree <= cap
    if keep_vertex.all():
        return g
    keep_edge = keep_vertex[g.edge_sources()] & keep_vertex[g.edge_obj]
    return _keep_edges(g, keep_edge, keep_vertex)


def drop_rdf_types(g: SnapshotGraph) -> SnapshotGraph:
    """``g`` without its rdf:type edges, every vertex kept.

    A class IRI that is only an rdf:type object stays as a sink.  Edge order
    within each vertex is unchanged.  ``edge_count`` carries over from ``g``,
    so it still counts the rdf:type statements.
    """
    type_id = g.terms.lookup(IRI, RDF_TYPE_IRI)
    if type_id is None:
        return g
    out = _keep_edges(g, g.edge_pred != type_id)
    out.edge_count = g.edge_count
    return out


def _keep_edges(
    g: SnapshotGraph, keep: np.ndarray, keep_vertex: np.ndarray | None = None
) -> SnapshotGraph:
    """``g`` with the edges ``keep`` marks, over the vertices ``keep_vertex``
    marks (every vertex when None); a kept edge's ends must be kept vertices.

    Nothing is sorted again: the kept edges stay in CSR order, each source's
    count of them gives the new ``indptr``, and objects move to their new
    positions by the monotone old-to-new position map."""
    before = np.zeros(len(keep) + 1, dtype=np.int64)  # kept edges before each edge
    np.cumsum(keep, out=before[1:])
    counts = np.diff(before[g.indptr])
    edge_obj = g.edge_obj[keep]
    vertex_ids = g.vertex_ids
    if keep_vertex is not None:
        counts, vertex_ids = counts[keep_vertex], vertex_ids[keep_vertex]
        edge_obj = (np.cumsum(keep_vertex) - 1)[edge_obj]
    indptr = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SnapshotGraph(g.timestamp, g.terms, vertex_ids, indptr, g.edge_pred[keep], edge_obj,
                         Counter(g.skip_reasons))
