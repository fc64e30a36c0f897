import gzip
import re
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from oracles import out_pairs, position_of, reference_keep_edges, reference_load_snapshot
from synth import distinct_recipes, predicate_pool, random_graph, ring_triples, write_ntriples
from sumlife import ingest
from sumlife.errors import IngestError
from sumlife.ingest import (
    RDF_TYPE_IRI,
    SnapshotGraph,
    TermTable,
    build_snapshot,
    drop_rdf_types,
    filter_high_degree,
    load_snapshot,
)


def _parse(tmp_path, line):
    """The statement of a one-line snapshot file as (subject, predicate,
    object) term ids, or the reason its line was skipped; and the term table."""
    path = tmp_path / "line.nt"
    path.write_text(line + "\n", encoding="utf-8")
    g = load_snapshot(path, "t")
    if not g.edge_count:
        (reason,) = g.skip_reasons
        return reason, g.terms
    s = int(g.vertex_ids[g.edge_sources()[0]])
    return (s, int(g.edge_pred[0]), int(g.vertex_ids[g.edge_obj[0]])), g.terms


def test_parse_basic_triple(tmp_path):
    (s, p, o), t = _parse(tmp_path, "<http://a> <http://p> <http://b> .")
    assert t.lexical(s) == "http://a"
    assert t.lexical(p) == "http://p"
    assert t.lexical(o) == "http://b"
    assert t.tokens == ["<http://a>", "<http://p>", "<http://b>"]


def test_parse_comment_and_blank(tmp_path):
    assert _parse(tmp_path, "# comment")[0] == "comment"
    assert _parse(tmp_path, "   ")[0] == "blank"
    assert _parse(tmp_path, "")[0] == "blank"


def test_parse_typed_literal(tmp_path):
    (_, _, o), t = _parse(
        tmp_path, '<http://a> <http://p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .'
    )
    assert t.kind(o) == "literal"
    assert t.lexical(o) == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_parse_lang_literal_and_escapes(tmp_path):
    assert isinstance(_parse(tmp_path, '<http://a> <http://p> "bonjour"@fr .')[0], tuple)
    assert isinstance(_parse(tmp_path, '<http://a> <http://p> "say \\"hi\\"" .')[0], tuple)


def test_parse_malformed(tmp_path):
    assert _parse(tmp_path, "<http://a> <http://p> .")[0] == "malformed"
    assert _parse(tmp_path, "not a triple at all")[0] == "malformed"
    assert _parse(tmp_path, '"lit" <http://p> <http://o> .')[0] == "malformed"
    assert _parse(tmp_path, "<http://a> <http://p> <http://b>")[0] == "malformed"


def test_parse_quad_context_dropped(tmp_path):
    r, t = _parse(tmp_path, "<http://a> <http://p> <http://b> <http://graph> .")
    assert isinstance(r, tuple) and len(r) == 3
    assert t.lookup("iri", "http://graph") is None


def test_parse_blank_nodes_scoped(tmp_path):
    """A blank label names one node per file, and a raw label spelled like
    another file's scoped one is a node of its own."""
    d = tmp_path / "snap"
    d.mkdir()
    (d / "a.nt").write_text("_:x <http://p> <http://o> .\n")
    (d / "b.nt").write_text("_:x <http://p> <http://o> .\n_:f0.x <http://p> <http://o> .\n")
    g = load_snapshot(d, "t")
    assert g.terms.tokens == ["_:f0.x", "<http://p>", "<http://o>", "_:f1.x", "_:f1.f0.x"]
    assert [g.terms.kind(i) for i in range(len(g.terms))] == ["blank", "iri", "iri", "blank", "blank"]
    assert g.edge_count == 3
    assert g.terms.blanks == {} and g.terms.intern("blank", "_:x") == 5


def test_load_dedup_counts(tmp_path):
    f = tmp_path / "s.nt"
    f.write_text(
        "<http://a> <http://p> <http://b> .\n"
        "<http://a> <http://p> <http://b> .\n"
        "<http://a> <http://p> <http://c> .\n"
        "<http://b> <http://p> <http://c> .\n"
        "<http://c> <http://q> <http://a> .\n"
    )
    g = load_snapshot(f, "t0")
    assert g.edge_count == 4
    assert g.skip_reasons["duplicate"] == 1
    assert g.skipped_lines == 1


def test_load_empty_file(tmp_path):
    f = tmp_path / "empty.nt"
    f.write_text("")
    g = load_snapshot(f, "t0")
    assert g.num_vertices == 0
    assert g.edge_count == 0


def test_load_malformed_mixed(tmp_path):
    f = tmp_path / "s.nt"
    f.write_text(
        "<http://a> <http://p> <http://b> .\n"
        "garbage here\n"
        "<http://b> <http://p> <http://c> .\n"
    )
    g = load_snapshot(f, "t0")
    assert g.edge_count == 2
    assert g.skip_reasons["malformed"] == 1


def test_load_invalid_utf8_is_malformed(tmp_path):
    # decoding with replacement characters would merge both subjects into one vertex
    f = tmp_path / "s.nt"
    f.write_bytes(
        b"<http://a\xff> <http://p> <http://b> .\n"
        b"<http://a\xfe> <http://p> <http://b> .\n"
        b"<http://c> <http://p> <http://b> .\n"
    )
    g = load_snapshot(f, "t0")
    assert dict(g.skip_reasons) == {"malformed": 2}
    assert g.edge_count == 1
    assert [g.terms.lexical(int(g.vertex_ids[i])) for i in range(g.num_vertices)] == ["http://c", "http://b"]
    assert g.terms.lookup("iri", "http://a\ufffd") is None


def test_load_gzip(tmp_path):
    f = tmp_path / "s.nt.gz"
    with gzip.open(f, "wt") as fh:
        fh.write("<http://a> <http://p> <http://b> .\n")
    g = load_snapshot(f, "t0")
    assert g.edge_count == 1


def test_load_directory_blank_scope(tmp_path):
    d = tmp_path / "snap"
    d.mkdir()
    (d / "a.nt").write_text("_:n <http://p> <http://o> .\n")
    (d / "b.nt").write_text("_:n <http://p> <http://o> .\n")
    g = load_snapshot(d, "t0")
    # same blank label in two files means two distinct subjects
    assert g.edge_count == 2


def test_load_missing_file(tmp_path):
    with pytest.raises(IngestError):
        load_snapshot(tmp_path / "nope.nt", "t0")


def test_load_corrupt_gzip(tmp_path):
    f = tmp_path / "bad.nt.gz"
    f.write_bytes(b"\x1f\x8b| this is not gzip")
    with pytest.raises(IngestError):
        load_snapshot(f, "t0")


def test_line_order_irrelevant(tmp_path):
    lines = [
        "<http://a> <http://p> <http://b> .",
        "<http://b> <http://q> <http://c> .",
        "<http://c> <http://p> <http://a> .",
        "# note",
        "<http://a> <http://q> <http://c> .",
    ]
    f1 = tmp_path / "one.nt"
    f2 = tmp_path / "two.nt"
    f1.write_text("\n".join(lines) + "\n")
    f2.write_text("\n".join(reversed(lines)) + "\n")

    def canonical(g):
        edges = set()
        for v in range(g.num_vertices):
            src = g.terms.lexical(int(g.vertex_ids[v]))
            for p, o in out_pairs(g, v):
                edges.add((src, g.terms.lexical(p), g.terms.lexical(o)))
        return edges

    assert canonical(load_snapshot(f1, "t")) == canonical(load_snapshot(f2, "t"))


def test_distinct_matches_np_unique():
    cases = [[], [7], [3, 3, 3], [5, -2, 9, -2, 0, 5, 1]]
    for values in cases:
        for dtype in (np.int64, np.uint64):
            a = np.array([v % 2**64 for v in values] if dtype is np.uint64 else values, dtype=dtype)
            got, want = ingest.distinct(a), np.unique(a)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
    high = np.array([2**64 - 1, 2**63, 5, 2**63, 2**63 + 1, 0, 2**64 - 1], dtype=np.uint64)
    assert ingest.distinct(high).tolist() == np.unique(high).tolist() == [0, 5, 2**63, 2**63 + 1, 2**64 - 1]


def _same_graph(got, want):
    for name in ("vertex_ids", "indptr", "edge_pred", "edge_obj"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert got.terms is want.terms and got.timestamp == want.timestamp
    assert got.edge_count == want.edge_count and got.skip_reasons == want.skip_reasons


def test_keep_edges_matches_the_sorting_rebuild():
    """The filters cut CSR arrays without sorting again; the result equals a
    rebuild from term ids, for random vertex and edge masks, every vertex
    removed, no edge kept and a graph with no edges at all."""
    rng = np.random.default_rng(3)
    empty = np.array([], dtype=np.int64)
    graphs = [random_graph(rng)[0] for _ in range(30)]
    graphs.append(SnapshotGraph.from_term_edges("t", TermTable(), empty, empty, empty))
    for g in graphs:
        n, src = g.num_vertices, g.edge_sources()
        masks = [rng.random(n) < q for q in (0.0, 0.3, 0.8, 1.0)]
        for keep_vertex in masks:
            ends_kept = keep_vertex[src] & keep_vertex[g.edge_obj]
            for keep in (ends_kept, ends_kept & (rng.random(len(src)) < 0.5), np.zeros(len(src), bool)):
                want = reference_keep_edges(g, keep, g.vertex_ids[keep_vertex])
                _same_graph(ingest._keep_edges(g, keep, keep_vertex), want)
            if keep_vertex.all():  # as drop_rdf_types calls it
                keep = rng.random(len(src)) < 0.5
                _same_graph(ingest._keep_edges(g, keep), reference_keep_edges(g, keep, g.vertex_ids))


def test_out_pairs_sorted_unique():
    g = build_snapshot(
        "t",
        [
            ("http://a", "http://q", "http://c"),
            ("http://a", "http://p", "http://b"),
            ("http://a", "http://p", "http://b"),
            ("http://a", "http://p", "http://c"),
        ],
    )
    pairs = out_pairs(g, position_of(g, "http://a"))
    assert pairs == sorted(set(pairs))
    assert len(pairs) == 3


def test_literals_are_shared_sink_vertices():
    g = build_snapshot(
        "t",
        [
            ("http://a", "http://p", '"v"'),
            ("http://b", "http://p", '"v"'),
        ],
    )
    # one literal vertex, reachable from both subjects
    assert g.num_vertices == 3
    lit = position_of(g, '"v"', kind="literal")
    assert out_pairs(g, lit) == []


def test_filter_star_removes_center():
    star = build_snapshot(
        "t", [(f"http://leaf{i}", "http://p", "http://center") for i in range(101)]
    )
    filtered = filter_high_degree(star, 100)
    assert filtered.num_vertices == 101
    assert filtered.edge_count == 0


def test_filter_identity_with_infinite_cap():
    g = build_snapshot("t", [("http://a", "http://p", "http://b")])
    assert filter_high_degree(g, None) is g
    assert filter_high_degree(g, float("inf")) is g


def test_filter_path_degree_modes():
    # a -> b -> c: out-degrees are 1,1,0 but b has total degree 2
    path = build_snapshot(
        "t",
        [("http://a", "http://p", "http://b"), ("http://b", "http://p", "http://c")],
    )
    by_out = filter_high_degree(path, 1, mode="out")
    assert by_out.edge_count == 2 and by_out.num_vertices == 3
    by_total = filter_high_degree(path, 1, mode="total")
    assert by_total.num_vertices == 2 and by_total.edge_count == 0


def test_filter_result_satisfies_bound():
    rng = np.random.default_rng(3)
    triples = [
        (f"http://v{rng.integers(0, 30)}", f"http://p{rng.integers(0, 3)}", f"http://v{rng.integers(0, 30)}")
        for _ in range(300)
    ]
    g = build_snapshot("t", triples)
    for mode in ("total", "out", "in"):
        f = filter_high_degree(g, 5, mode=mode)
        deg = {
            "total": f.out_degrees() + f.in_degrees(),
            "out": f.out_degrees(),
            "in": f.in_degrees(),
        }[mode]
        assert (deg <= 5).all()


def test_rdf_type_edges_flagged():
    g = build_snapshot(
        "t",
        [
            ("http://a", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://T"),
            ("http://a", "http://p", "http://b"),
        ],
    )
    type_id = g.terms.lookup("iri", RDF_TYPE_IRI)
    assert (g.edge_pred == type_id).sum() == 1
    d = drop_rdf_types(g)
    assert len(d.edge_pred) == 1 and len(g.edge_pred) == 2
    assert out_pairs(d, position_of(d, "http://a")) == [
        (g.terms.lookup("iri", "http://p"), g.terms.lookup("iri", "http://b"))
    ]
    # every vertex stays: the class IRI becomes a sink with no in-edge
    assert np.array_equal(d.vertex_ids, g.vertex_ids)
    t = position_of(d, "http://T")
    assert d.out_degrees()[t] == 0 and d.in_degrees()[t] == 0
    # the statement count still includes the rdf:type statement
    assert d.edge_count == g.edge_count == 2
    untyped = build_snapshot("t", [("http://a", "http://p", "http://b")])
    assert drop_rdf_types(untyped) is untyped


def test_statement_is_one_line(tmp_path):
    two = "<http://a> <http://p> <http://b> . <http://c> <http://p> <http://d> ."
    reason, t = _parse(tmp_path, two)
    assert reason == "malformed" and len(t) == 0


def test_raw_carriage_return_in_a_literal_is_malformed(tmp_path):
    """N-Triples' STRING_LITERAL_QUOTE excludes a raw CR, after a backslash
    too: a literal holding one would be a vertex whose ``eqcs.tsv`` row a
    universal-newline reader splits in two.  An escaped CR and a CRLF line
    ending still parse."""
    for literal in ('"x\ry"', '"x\\\ry"'):
        reason, t = _parse(tmp_path, f"<http://a> <http://p> {literal} .")
        assert reason == "malformed" and len(t) == 0
    (_, _, o), t = _parse(tmp_path, '<http://a> <http://p> "x\\ry" .\r')
    assert t.lexical(o) == '"x\\ry"'


# Lines the block loader must treat exactly as the line loader does.  The
# whitespace characters other than "\n" are str.isspace() whitespace, which
# the statement grammar accepts between terms and str.strip() removes.
_EDGE_LINES = [
    "<http://a> <http://p> \"caf\xe9 \u4e2d\u6587 \U0001f600\" .\n".encode(),
    b"<http://a> <http://p> <http://b> .\r\n",
    b"# comment with CRLF\r\n",
    b"\r\n",
    b"\n",
    b"<http://a> <http://p> <http://b\xff> .\n",
    b"<http://b> <http://q> \"say \\\"hi\\\" # not a comment\" .\n",
    b"<http://b> <http://q> \"tagged\"@en-GB . # trailing comment\n",
    b"<http://b> <http://q> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
    b"<http://c> <http://q> <http://a> <http://graph> .\n",
    b"_:n <http://q> _:m <http://graph> .\n",
    "\x0b<http://c>\x0c<http://p>\u3000<http://d>\x85.\u2028\n".encode(),
    "\u2028<http://d> <http://p> _:n .\u3000\n".encode(),
    "\x85\n".encode(),
    "\u2028\n".encode(),
    "\u3000\x0b\x0c\x1c\n".encode(),
    "\x85# comment after whitespace\n".encode(),
    b"<http://a> <http://p> .\n",
    b"<http://a> <http://p> \"unterminated .\n",
    b"<http://a> <http://p> \"raw\rCR\" .\n",
    b"<http://a> <http://p> \"a literal does not\n",
    b"span two lines\" .\n",
    b"<http://a> <http://p> <http://b> .\r<http://c> <http://p> <http://d> .\n",
    b"<http://a> <http://p> <http://b> .\n",
    b"<http://e> <http://p> \"no final newline\" .",
]


def _assert_same_snapshot(got, expected):
    assert got.terms.tokens == expected.terms.tokens
    for name in ("vertex_ids", "indptr", "edge_pred", "edge_obj"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert got.skip_reasons == expected.skip_reasons


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64, ingest.BLOCK_BYTES])
def test_block_loader_matches_line_loader(tmp_path, monkeypatch, block):
    d = tmp_path / "snap"
    d.mkdir()
    (d / "a.nt").write_bytes(b"".join(_EDGE_LINES))
    # the same blank label in a second, gzipped file, which ends without "\n"
    with gzip.open(d / "b.nt.gz", "wb") as fh:
        fh.write(b"_:n <http://q> <http://a> .\n<http://a> <http://q> _:n .")
    write_ntriples(d / "c.nt", ring_triples(distinct_recipes(predicate_pool(5), 6), 7))
    monkeypatch.setattr(ingest, "BLOCK_BYTES", block)
    expected = reference_load_snapshot(d, "t")
    assert set(expected.skip_reasons) == {"blank", "comment", "malformed", "duplicate"}
    assert len([token for token in expected.terms.tokens if token[0] == "_"]) == 3
    _assert_same_snapshot(load_snapshot(d, "t"), expected)
    for one in sorted(d.iterdir()):
        _assert_same_snapshot(load_snapshot(one, "t"), reference_load_snapshot(one, "t"))


def test_truncated_gzip_names_file_and_block_offset(tmp_path, monkeypatch):
    d = tmp_path / "snap"
    d.mkdir()
    (d / "a.nt").write_text("<http://a> <http://p> <http://b> .\n")
    text = "".join(f"<http://x/v{i}> <http://x/p{i % 7}> \"{i * 7919}\" .\n" for i in range(20_000))
    whole = gzip.compress(text.encode())
    truncated = whole[: len(whole) // 2]
    (d / "b.nt.gz").write_bytes(truncated)
    readable = len(zlib.decompressobj(wbits=31).decompress(truncated))
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 4096)
    with pytest.raises(IngestError) as info:
        load_snapshot(d, "t")
    m = re.search(r"read failed at byte offset (\d+)", str(info.value))
    assert str(info.value).startswith(f"{d / 'b.nt.gz'}: ") and m is not None
    offset = int(m.group(1))
    assert 0 < offset <= readable and offset % 4096 == 0


def test_term_table_keys_name_the_kind():
    t = TermTable()
    iri = t.intern("iri", "http://a")
    lit = t.intern("literal", '"http://a"')
    assert iri != lit and t.intern("iri", "http://a") == iri
    assert t.tokens == ["<http://a>", '"http://a"'] and dict(t) == {"<http://a>": iri, '"http://a"': lit}
    assert t.lookup("literal", "<http://a>") is None and t.lookup("iri", '"http://a"') is None
    for kind, lexical in [("literal", "<http://a>"), ("blank", '"x"'), ("literal", "x"), ("literal", "")]:
        with pytest.raises(ValueError):
            t.intern(kind, lexical)
    assert len(t) == 2


def test_load_keeps_each_term_once(tmp_path):
    """After a load of 6 000 long IRIs, the heap it holds beyond the graph's
    arrays is each term's token once, plus under 128 bytes per term for its
    dict entry, its list slot and its id.  A table that kept a second string
    per IRI held about 180 bytes per term beyond the tokens."""
    rng = np.random.default_rng(0)
    n = 6000
    v = [f"http://example.org/a/rather/long/resource/path/t0/v{i}" for i in range(n)]
    path = tmp_path / "s.nt"
    write_ntriples(path, [(v[i], f"http://example.org/p{rng.integers(8)}", v[rng.integers(n)])
                          for i in range(n)])
    tracemalloc.start()
    try:
        g = load_snapshot(path, "t")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (g.vertex_ids, g.indptr, g.edge_pred, g.edge_obj))
    terms = len(g.terms)
    tokens = sum(sys.getsizeof(f"<{g.terms.lexical(i)}>") for i in range(terms))
    assert terms == n + 8
    assert held - arrays < tokens + 128 * terms, (held, arrays, tokens, terms)


def _counting_open(work: list[int]):
    """An ``open`` whose files return blocks that add to ``work[0]`` the bytes
    every search, slice or concatenation of a block touches, and to
    ``work[1]`` the bytes read.  A concatenation with a block counts too."""

    class Counted(bytes):
        def rfind(self, *args):
            work[0] += len(self)
            return super().rfind(*args)

        def find(self, *args):
            work[0] += len(self)
            return super().find(*args)

        def __getitem__(self, key):
            part = super().__getitem__(key)
            work[0] += len(part) if isinstance(key, slice) else 1
            return part

        def __add__(self, other):
            work[0] += len(self) + len(other)
            return Counted(bytes(self) + other)

        def __radd__(self, other):
            work[0] += len(self) + len(other)
            return Counted(other + bytes(self))

    class Reader:
        def __init__(self, path, mode):
            self._fh = open(path, mode)

        def read(self, n):
            block = self._fh.read(n)
            work[1] += len(block)
            return Counted(block)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    return Reader


def test_line_longer_than_a_block_costs_linear_work(tmp_path, monkeypatch):
    """A line of 256 blocks is searched and copied a bounded number of times
    per byte read, not once per block it spans; the graph is the line
    loader's.  Carrying the partial line as ``tail + block`` and searching
    all of it on every read touched about 380 bytes per byte read here."""
    path = tmp_path / "long.nt"
    path.write_text('<http://a> <http://p> <http://b> .\n'
                    f'<http://a> <http://q> "{"x" * 256 * 1024}" .\n'
                    '<http://b> <http://p> <http://a> .\n', encoding="utf-8")
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 1024)
    work = [0, 0]
    monkeypatch.setattr(ingest, "open", _counting_open(work), raising=False)
    g = load_snapshot(path, "t")
    assert work[1] == path.stat().st_size
    assert work[0] <= 3 * work[1], work
    _assert_same_snapshot(g, reference_load_snapshot(path, "t"))
    assert g.edge_count == 3
