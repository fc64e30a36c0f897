"""Seeded snapshot generator and the reference partition its snapshots imply.

A snapshot is built from planted "recipes": a recipe is a predicate set, and
each of its predicates points at a member of another recipe (or at a fresh
literal).  Recipe sizes follow a Zipf law.  In every snapshot a noise share
of subjects gets one extra random edge, which makes a long tail of classes,
and each successive snapshot replaces a drift share of the recipes.  The
writer mixes in rdf:type edges, blank-node subjects, tagged and escaped
literals, duplicate lines and malformed lines, and writes each snapshot as a
directory of gzipped N-Quads files, each file its own blank-node scope.

The reference partition is computed here, from the generated statements
alone, without importing sumlife:

* ac1 class of a vertex: the set of its outgoing predicates;
* ac2 class: the set of (predicate, ac1 class of the object) pairs, after
  removing every vertex whose total degree exceeds the cap (100), with its
  incident edges.

rdf:type edges count for degrees but not for classes, as in the program.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

GEN_VERSION = 6
CACHE_ENTRIES = 10  # cached input sets kept per workload
BASE = "http://bench.example/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
AC2_DEGREE_CAP = 100

# Lines that the N-Triples/N-Quads grammar rejects: no object, unterminated
# literal, bare words, object in the wrong position.
_MALFORMED = (
    "<{b}m/{i}> <{b}p/0> .",
    '<{b}m/{i}> <{b}p/1> "unterminated {i} .',
    "this is not a statement {i}",
    '"literal {i}" <{b}p/2> <{b}m/{i}> .',
)


@dataclass(frozen=True)
class GenParams:
    """The generator parameters the workloads vary; with the seed and the
    module constants below they fix the inputs."""

    subjects: int
    recipes: int


# Generator parameters every workload shares; constants() records them.
SNAPSHOTS = 3
PREDICATES = 40
ZIPF = 1.1
MAX_PREDS = 4
LITERAL_SHARE = 0.1  # share of recipe predicates that point at literals (1/k)
BLANK_SHARE = 0.05  # share of subjects that are blank nodes
TYPE_SHARE = 0.3  # share of subjects with an rdf:type edge
NOISE = 0.01  # share of subjects with one extra random edge
DRIFT = 0.2  # share of recipes replaced per successive snapshot (1/k)
DUP_SHARE = 0.01  # duplicate lines per statement line
MALFORMED_SHARE = 0.005  # malformed lines per statement line
FILES = 4  # gzipped N-Quads files per snapshot directory
INPUT_FORMAT = f"directory of {FILES} gzipped N-Quads files per snapshot"


def constants() -> dict:
    return {
        "snapshots": SNAPSHOTS, "predicates": PREDICATES, "zipf": ZIPF, "max_preds": MAX_PREDS,
        "literal_share": LITERAL_SHARE, "blank_share": BLANK_SHARE, "type_share": TYPE_SHARE,
        "noise": NOISE, "drift": DRIFT, "dup_share": DUP_SHARE,
        "malformed_share": MALFORMED_SHARE, "files": FILES,
    }


def _zipf_sizes(n: int, count: int, s: float) -> list[int]:
    w = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** s
    sizes = np.maximum(1, np.floor(n * w / w.sum())).astype(np.int64)
    sizes[0] += n - int(sizes.sum())
    if sizes[0] < 1:
        raise ValueError("too many recipes for the subject count")
    return sizes.tolist()


class _RecipeMaker:
    """Draws recipes with predicate sets never used before in this run."""

    def __init__(self, rng: np.random.Generator, recipes: int):
        self.rng = rng
        self.recipes = recipes
        self.used: set[tuple[int, ...]] = set()

    def make(self, slot: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A recipe for ``slot`` (its size rank).

        The predicate count, which predicates point at literals and which
        recipes the others point at follow from the slot alone, so the number
        of edges and literal vertices, and the share of ac2 classes that a
        drifting recipe changes, barely depend on the seed; the predicates
        are random.
        """
        k = 1 + slot % MAX_PREDS
        for _ in range(10000):
            preds = tuple(sorted(self.rng.choice(PREDICATES, size=k, replace=False).tolist()))
            if preds not in self.used:
                self.used.add(preds)
                break
        else:
            raise ValueError(f"too few predicates for distinct {k}-predicate recipes")
        every = round(1 / LITERAL_SHARE)
        # target -1 means a literal object; otherwise a recipe slot
        targets = tuple(
            -1 if (slot + j) % every == 0 else (slot + 1 + 7 * j) % self.recipes
            for j in range(k)
        )
        return preds, targets


def _literal(rng_value: int, i: int) -> str:
    kind = rng_value % 4
    if kind == 0:
        return f'"value {i}"'
    if kind == 1:
        return f'"name {i}"@en-GB'
    if kind == 2:
        return f'"{i}"^^<{XSD_INTEGER}>'
    return f'"say \\"hi\\" {i}"@fr'


def _class_key(items) -> str:
    return hashlib.sha1("\x1f".join(sorted(items)).encode("utf-8")).hexdigest()[:16]


def reference_classes(statements: list[tuple[str, str, str]], cap: int | None):
    """Reference partition of one snapshot.

    ``statements`` are (subject key, predicate IRI, object key) with blank
    keys already scoped by file.  Returns (vertex count, edge count,
    {vertex key: (ac1 class, ac2 class)}) after dedup and the degree cap.
    """
    edges = set(statements)
    vertices = {s for s, _, _ in edges} | {o for _, _, o in edges}
    if cap is not None:
        degree = Counter()
        for s, _, o in edges:
            degree[s] += 1
            degree[o] += 1
        removed = {v for v, d in degree.items() if d > cap}
        edges = {e for e in edges if e[0] not in removed and e[2] not in removed}
        vertices -= removed
    out: dict[str, list] = {v: [] for v in vertices}
    for s, p, o in edges:
        if p != RDF_TYPE:
            out[s].append((p, o))
    ac1 = {v: _class_key({p for p, _ in pairs}) for v, pairs in out.items()}
    ac2 = {v: _class_key({f"{p}\x1e{ac1[o]}" for p, o in pairs}) for v, pairs in out.items()}
    return len(vertices), len(edges), {v: (ac1[v], ac2[v]) for v in vertices}


def _lexical(key: str) -> str | None:
    """The program's lexical form of a vertex key (None for blank nodes)."""
    return None if key.startswith("_:") else key


def generate(params: GenParams, seed: int, out_dir: Path, models: tuple[str, ...]) -> dict:
    """Write the snapshots under ``out_dir`` and return their metadata and reference."""
    rng = np.random.default_rng(seed)
    p = params
    sizes = _zipf_sizes(p.subjects, p.recipes, ZIPF)
    slot_of = np.repeat(np.arange(p.recipes), sizes)
    members: list[list[int]] = []
    start = 0
    for size in sizes:
        members.append(list(range(start, start + size)))
        start += size
    is_blank = rng.random(p.subjects) < BLANK_SHARE
    has_type = rng.random(p.subjects) < TYPE_SHARE
    file_of = rng.integers(0, FILES, size=p.subjects)
    maker = _RecipeMaker(rng, p.recipes)
    recipes = [maker.make(r) for r in range(p.recipes)]
    pred_iri = [f"{BASE}p/{j}" for j in range(PREDICATES)]

    def subject_key(i: int, f: int) -> str:
        # blank labels have document scope, so a blank key carries its file
        return f"_:{f}:b{i}" if is_blank[i] else f"{BASE}v/{i}"

    def subject_token(i: int) -> str:
        return f"_:b{i}" if is_blank[i] else f"<{BASE}v/{i}>"

    out_dir.mkdir(parents=True, exist_ok=True)
    snapshots = []
    for t in range(SNAPSHOTS):
        if t > 0:
            # every k-th recipe by size rank, shifted per snapshot, so the share
            # of vertices that drift barely depends on the seed
            k = round(1 / DRIFT)
            for r in range(p.recipes):
                if (r + t) % k == 0:
                    recipes[r] = maker.make(r)
        n = p.subjects
        noisy = rng.random(n) < NOISE
        noise_pred = rng.integers(0, PREDICATES, size=n)
        noise_obj = rng.integers(0, n, size=n)
        pick = rng.random((n, MAX_PREDS))
        lit_kind = rng.integers(0, 4, size=n)
        per_file_lines: list[list[str]] = [[] for _ in range(FILES)]
        statements: list[tuple[str, str, str]] = []
        graph_term = f" <{BASE}g/{t}>"

        def emit(f: int, s_tok: str, s_key: str, pred: str, o_tok: str, o_key: str) -> None:
            per_file_lines[f].append(f"{s_tok} <{pred}> {o_tok}{graph_term} .")
            statements.append((s_key, pred, o_key))

        for i in range(n):
            f = int(file_of[i])
            s_tok, s_key = subject_token(i), subject_key(i, f)
            preds, targets = recipes[int(slot_of[i])]
            for j, (pj, tgt) in enumerate(zip(preds, targets)):
                if tgt < 0:
                    o_tok = _literal(int(lit_kind[i]) + j, i)
                    o_key = o_tok
                else:
                    pool = members[tgt]
                    o = pool[int(pick[i, j] * len(pool))]
                    o_tok, o_key = subject_token(o), subject_key(o, f)
                emit(f, s_tok, s_key, pred_iri[pj], o_tok, o_key)
            if has_type[i]:
                cls = f"{BASE}class/{int(slot_of[i])}"
                emit(f, s_tok, s_key, RDF_TYPE, f"<{cls}>", cls)
            if noisy[i]:
                o = int(noise_obj[i])
                emit(f, s_tok, s_key, pred_iri[int(noise_pred[i])], subject_token(o), subject_key(o, f))

        files_meta = []
        malformed = duplicates = lines_total = bytes_total = 0
        snap_path = out_dir / f"t{t:02d}"
        snap_path.mkdir(exist_ok=True)
        for f, lines in enumerate(per_file_lines):
            m = len(lines)
            dup_at = np.flatnonzero(rng.random(m) < DUP_SHARE)
            dup_src = (rng.random(len(dup_at)) * (dup_at + 1)).astype(np.int64)
            bad_at = np.flatnonzero(rng.random(m) < MALFORMED_SHARE)
            extra: dict[int, list[str]] = {}
            for a, b in zip(dup_at.tolist(), dup_src.tolist()):
                extra.setdefault(a, []).append(lines[b])
            for a in bad_at.tolist():
                extra.setdefault(a, []).append(_MALFORMED[a % len(_MALFORMED)].format(b=BASE, i=a))
            body = [f"# snapshot {t} file {f}", ""]
            for a, line in enumerate(lines):
                body.append(line)
                body.extend(extra.get(a, ()))
            text = ("\n".join(body) + "\n").encode("utf-8")
            path = snap_path / f"part{f:02d}.nq.gz"
            with gzip.open(path, "wb", compresslevel=6) as fh:
                fh.write(text)
            duplicates += len(dup_at)
            malformed += len(bad_at)
            lines_total += len(body)
            bytes_total += path.stat().st_size
            files_meta.append(path.name)
        snap = {
            "path": str(snap_path),
            "lines": lines_total,
            "bytes": bytes_total,
            "statements": len(statements),
            "duplicate_lines": duplicates,
            "malformed_lines": malformed,
            "files": files_meta,
            "reference": {},
        }
        for model in models:
            cap = AC2_DEGREE_CAP if model == "ac2" else None
            nv, ne, cls = reference_classes(statements, cap)
            pick_idx = 0 if model == "ac1" else 1
            sizes_by_class = Counter(c[pick_idx] for c in cls.values())
            ref = {
                "vertices": nv,
                "edges": ne,
                "classes": sorted(sizes_by_class.items()),
            }
            if t == SNAPSHOTS - 1:
                ref["partition"] = {
                    lex: c[pick_idx] for v, c in cls.items() if (lex := _lexical(v)) is not None
                }
            snap["reference"][model] = ref
        snapshots.append(snap)
    return {"seed": seed, "params": {**asdict(params), **constants()}, "snapshots": snapshots}


def cache_key(workload: str, params: GenParams, models, seed: int) -> str:
    blob = json.dumps([GEN_VERSION, workload, asdict(params), constants(), list(models), seed],
                      sort_keys=True)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:12]


def prepare_inputs(cache_root: Path, workload: str, params: GenParams, models, seed: int) -> dict:
    """Generate (or reuse) the inputs and reference for one workload and seed."""
    key = cache_key(workload, params, models, seed)
    out_dir = cache_root / f"{workload}-s{seed}-{key}"
    meta_path = out_dir / "reference.json"
    if meta_path.exists():
        return json.loads(meta_path.read_text(encoding="utf-8"))
    stale = sorted(cache_root.glob(f"{workload}-s*"), key=lambda d: d.stat().st_mtime)
    for old in stale[: max(0, len(stale) - CACHE_ENTRIES + 1)]:
        shutil.rmtree(old, ignore_errors=True)
    meta = generate(params, seed, out_dir, tuple(models))
    tmp = meta_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(meta, separators=(",", ":")), encoding="utf-8")
    tmp.replace(meta_path)
    return meta
