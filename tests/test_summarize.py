import tracemalloc
from dataclasses import replace

import numpy as np

from oracles import (
    SIPHASH_VECTORS,
    kbisim_partition,
    partition_of_hashes,
    position_of,
    reference_siphash24,
    reference_summary,
    summary_as_sets,
)
from sumlife.ingest import build_snapshot, drop_rdf_types
from sumlife.summarize import (
    SIPHASH_KEY,
    hash_pair,
    siphash24,
    summarize,
    vertex_hashes,
    write_eqc_tsv,
    write_summary_tsv,
)
from synth import predicate_pool, random_graph, ring_snapshot

# pinned at build time from the reference implementation
HASH_PAIR_FIXTURE = 0x9DD453257D7726DB  # hash_pair("http://p", 0x0102030405060708)
HASH_P0 = 0xF0BCD10EEE4EC8C0  # hash_pair("http://p", 0)
HASH_Q0 = 0xAF98E6146AF98AD3  # hash_pair("http://q", 0)


def test_siphash_official_vectors():
    key = bytes(range(16))
    msg = bytes(range(64))
    # one batched call over all prefixes mixes block counts 1..8
    got = siphash24(key, [msg[:i] for i in range(64)])
    assert got.dtype == np.uint64
    for i, vec in enumerate(SIPHASH_VECTORS):
        expected = int.from_bytes(bytes.fromhex(vec), "little")
        assert int(got[i]) == expected
        assert reference_siphash24(key, msg[:i]) == expected


def test_siphash_kernel_matches_reference_in_order():
    rng = np.random.default_rng(5)
    key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
    msgs = [bytes(rng.integers(0, 256, int(n), dtype=np.uint8)) for n in rng.integers(0, 200, 60)]
    msgs += ["http://ex.org/größe/日本".encode("utf-8"), b"x" * 64, b"y" * 65, b"", b"z" * 300]
    order = rng.permutation(len(msgs))
    msgs = [msgs[i] for i in order]
    got = siphash24(key, msgs)
    assert [int(h) for h in got] == [reference_siphash24(key, m) for m in msgs]
    assert len(siphash24(key, [])) == 0


def test_hash_pair_fixture_values():
    assert hash_pair("http://p", 0x0102030405060708) == HASH_PAIR_FIXTURE
    assert hash_pair("http://p", 0) == HASH_P0
    assert hash_pair("http://q", 0) == HASH_Q0


def test_hash_pair_deterministic_and_injective_on_fixture():
    assert hash_pair("http://p", 0) == hash_pair("http://p", 0)
    assert hash_pair("http://p", 0) != hash_pair("http://q", 0)
    # separator prevents predicate suffix / hash byte ambiguity
    assert hash_pair("http://p", 0) != hash_pair("http://p\x00", 0)


def test_hash_pair_matches_reference_oracle():
    for iri, child in [("http://p", 0), ("http://x/abc", 12345), ("http://äöü", 2**63)]:
        msg = iri.encode("utf-8") + b"\x00" + child.to_bytes(8, "little")
        assert hash_pair(iri, child) == reference_siphash24(SIPHASH_KEY, msg)


def chain():
    return build_snapshot(
        "t",
        [("http://a", "http://p", "http://b"), ("http://b", "http://p", "http://c")],
    )


def test_sink_hash_is_zero():
    g = chain()
    for model in ("ac1", "ac2"):
        assert vertex_hashes(g, model)[position_of(g, "http://c")] == 0


def test_chain_partitions():
    g = chain()
    a, b, c = (position_of(g, f"http://{v}") for v in "abc")
    h1 = vertex_hashes(g, "ac1")
    assert h1[a] == h1[b] != h1[c]
    assert h1[a] == HASH_P0  # single pair (p, 0)
    h2 = vertex_hashes(g, "ac2")
    assert len({int(h2[a]), int(h2[b]), int(h2[c])}) == 3


def test_equal_pair_sets_share_class():
    g = build_snapshot(
        "t",
        [
            ("http://v1", "http://p", "http://x"),
            ("http://v1", "http://q", "http://y"),
            ("http://v4", "http://p", "http://u"),
            ("http://v4", "http://q", "http://w"),
        ],
    )
    h = vertex_hashes(g, "ac2")
    assert h[position_of(g, "http://v1")] == h[position_of(g, "http://v4")]
    assert h[position_of(g, "http://v1")] == HASH_P0 ^ HASH_Q0


def test_parallel_edges_no_xor_cancellation():
    # two edges with identical (predicate, child-hash) must contribute once
    doubled = build_snapshot(
        "t",
        [
            ("http://v", "http://p", "http://y1"),
            ("http://v", "http://p", "http://y2"),
        ],
    )
    simple = build_snapshot("t", [("http://v", "http://p", "http://y")])
    for model in ("ac1", "ac2"):
        hd = vertex_hashes(doubled, model)[position_of(doubled, "http://v")]
        hs = vertex_hashes(simple, model)[position_of(simple, "http://v")]
        assert hd == hs != 0


def test_summarize_all_sinks():
    g = drop_rdf_types(build_snapshot(
        "t", [("http://a", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://T")]
    ))
    # the only edge is rdf:type, dropped by default: everything is a sink
    summary, _ = summarize(g, "ac1")
    assert summary.eqcs.dtype == np.uint64 and summary.eqcs.tolist() == [0]
    assert summary.sizes.tolist() == [g.num_vertices]
    assert summary.num_edges == 0


def test_summarize_chain_counts():
    g = chain()
    s1, _ = summarize(g, "ac1")
    assert s1.num_primary == 2
    assert sorted(s1.sizes.tolist()) == [1, 2]
    s2, _ = summarize(g, "ac2")
    assert s2.num_primary == 3
    assert sorted(s2.sizes.tolist()) == [1, 1, 1]


def test_summarize_disconnected_copies_double_extensions():
    pattern = [
        ("a", "http://p", "b"),
        ("a", "http://q", "c"),
        ("b", "http://p", "d"),
        ("c", "http://q", "e"),
    ]

    def copy(prefix):
        return [(f"http://{prefix}{s}", p, f"http://{prefix}{o}") for s, p, o in pattern]

    single, _ = summarize(build_snapshot("t", copy("l")), "ac2")
    double, _ = summarize(build_snapshot("t", copy("l") + copy("r")), "ac2")
    assert single.eqcs.tolist() == double.eqcs.tolist()
    assert (2 * single.sizes).tolist() == double.sizes.tolist()


def test_extension_partitions_vertices():
    """The per-vertex hashes ``summarize`` returns are ``vertex_hashes``, and
    the class sizes count them."""
    rng = np.random.default_rng(11)
    g, _, _ = random_graph(rng, 80, 300, 5)
    for model in ("ac1", "ac2"):
        summary, hashes = summarize(g, model)
        assert hashes.tolist() == vertex_hashes(g, model).tolist()
        assert len(hashes) == g.num_vertices
        assert summary_as_sets(summary)["sizes"] == {
            q: len(ms) for q, ms in members_of(g, hashes).items()
        }


def test_summarize_keeps_only_the_vertex_hashes():
    """Past the summary of its classes, ``summarize`` keeps 8 bytes per vertex,
    its EQC hash: no member list (about 40 bytes per vertex) is built."""
    g = ring_snapshot("t", [predicate_pool(3)], 20_000)
    tracemalloc.start()
    try:
        r = summarize(g, "ac2")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert r[0].num_primary == 1
    assert held / g.num_vertices < 16, held


def test_oracle_equivalence_small():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, present, edges = random_graph(rng, 60, 200, 5)
        remap = {v: i for i, v in enumerate(present)}
        oedges = [(remap[s], p, remap[o]) for s, p, o in edges]
        pos = {remap[v]: position_of(g, f"http://x/v{v}") for v in present}
        for k, model in ((1, "ac1"), (2, "ac2")):
            oracle = {
                frozenset(pos[v] for v in grp)
                for grp in kbisim_partition(len(present), oedges, k)
            }
            assert partition_of_hashes(vertex_hashes(g, model)) == oracle


def members_of(g, hashes) -> dict[int, list[int]]:
    """Vertex term ids of each class, in position order, from per-vertex hashes."""
    members: dict[int, list[int]] = {}
    for h, t in zip(hashes.tolist(), g.vertex_ids.tolist()):
        members.setdefault(h, []).append(t)
    return members


def assert_summary_matches_reference(g):
    for k, model in ((1, "ac1"), (2, "ac2")):
        ref = reference_summary(g, k)
        summary, hashes = summarize(g, model)
        assert hashes.tolist() == vertex_hashes(g, model).tolist() == ref["hashes"]
        got = summary_as_sets(summary)
        assert got["summary_edges"] == ref["summary_edges"]
        assert got["secondary"] == ref["secondary"]
        assert len(summary.secondary) == len(ref["secondary"])
        assert got["predicate_usage"] == ref["predicate_usage"]
        assert members_of(g, hashes) == ref["members"]
        assert summary.eqcs.tolist() == sorted(ref["members"])
        assert got["sizes"] == {q: len(ms) for q, ms in ref["members"].items()}
        assert summary.num_edges == len(ref["summary_edges"])
        # the summary's IRIs in term-id order
        assert summary.predicates == [g.terms.lexical(p) for p in np.unique(g.edge_pred).tolist()]


def test_summary_matches_per_edge_reference():
    rng = np.random.default_rng(17)
    for _ in range(8):
        g, _, _ = random_graph(rng, 60, 200, 5)
        assert_summary_matches_reference(g)


def test_summary_matches_reference_on_edge_cases():
    high = chain()
    assert max(reference_summary(high, 1)["hashes"]) >= 2**63
    edgeless = drop_rdf_types(build_snapshot(
        "t", [("http://a", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://T")]
    ))
    assert edgeless.num_vertices == 2 and len(edgeless.edge_pred) == 0
    empty = build_snapshot("t", [])
    assert empty.num_vertices == 0
    for g in (high, edgeless, empty):
        assert_summary_matches_reference(g)


def test_ac2_refines_ac1():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g, _, _ = random_graph(rng, 60, 250, 4)
        h1 = vertex_hashes(g, "ac1")
        h2 = vertex_hashes(g, "ac2")
        cls2_to_cls1 = {}
        for a, b in zip(h2, h1):
            assert cls2_to_cls1.setdefault(int(a), int(b)) == int(b)


def test_permutation_invariance():
    triples = [
        ("http://a", "http://p", "http://b"),
        ("http://b", "http://q", "http://c"),
        ("http://c", "http://p", "http://a"),
        ("http://a", "http://q", "http://c"),
    ]
    g1 = build_snapshot("t", triples)
    g2 = build_snapshot("t", list(reversed(triples)))
    for model in ("ac1", "ac2"):
        h1, h2 = vertex_hashes(g1, model), vertex_hashes(g2, model)
        for v in "abc":
            assert (
                h1[position_of(g1, f"http://{v}")] == h2[position_of(g2, f"http://{v}")]
            )


def test_rdf_type_excluded_unless_requested():
    g = build_snapshot(
        "t",
        [
            ("http://a", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://T"),
            ("http://a", "http://p", "http://b"),
        ],
    )
    a = position_of(g, "http://a")
    assert vertex_hashes(drop_rdf_types(g), "ac1")[a] == HASH_P0
    assert vertex_hashes(g, "ac1")[a] != HASH_P0


def test_summary_edge_structure():
    g = chain()
    s1, _ = summarize(g, "ac1")
    # edges go (source eqc, predicate, child-level hash); ac1 children are depth-0
    assert s1.edge_child.dtype == np.uint64 and not s1.edge_child.any()
    assert set(s1.edge_source.tolist()) <= set(range(s1.num_primary))
    assert s1.predicates == ["http://p"] and s1.edge_pred.tolist() == [0] * s1.num_edges
    assert s1.predicate_usage.tolist() == [2]
    assert s1.secondary.tolist() == [[0, 0]]
    none = s1.edge_source[:0]
    assert len(replace(s1, edge_source=none, edge_pred=none, edge_child=none).secondary) == 0


def test_tsv_exports(tmp_path):
    g = chain()
    summary, hashes = summarize(g, "ac1")
    write_eqc_tsv(tmp_path / "eqcs.tsv", g, hashes)
    write_summary_tsv(tmp_path / "edges.tsv", summary)
    lines = (tmp_path / "eqcs.tsv").read_text().splitlines()
    assert len(lines) == 3
    assert lines == sorted(lines)
    iri, hexhash = lines[0].split("\t")
    assert iri == "http://a" and len(hexhash) == 16
    hashes = vertex_hashes(g, "ac1")
    for line in lines:
        iri, hexhash = line.split("\t")
        assert int(hexhash, 16) == int(hashes[position_of(g, iri)])
    edge_lines = (tmp_path / "edges.tsv").read_text().splitlines()
    assert len(edge_lines) == summary.num_edges


def test_summary_tsv_rows_sort_as_text(tmp_path):
    """``write_summary_tsv`` writes the reference summary edges in the order
    of their text, though its IRIs' term ids (first-seen order, where
    ``p10`` precedes ``p2``) sort otherwise."""
    rng = np.random.default_rng(23)
    for i in range(6):
        g, _, _ = random_graph(rng, 60, 300, 12)
        for k, model in ((1, "ac1"), (2, "ac2")):
            summary, _ = summarize(g, model)
            write_summary_tsv(tmp_path / f"{i}{model}.tsv", summary)
            rows = sorted(reference_summary(g, k)["summary_edges"])
            assert (tmp_path / f"{i}{model}.tsv").read_text().splitlines() == [
                f"{s:016x}\t{p}\t{c:016x}" for s, p, c in rows
            ]


def test_summary_holds_at_most_40_bytes_per_eqc_and_edge():
    """A summary is arrays: its sorted EQC hashes and member counts, and
    three edge columns, not Python objects per EQC or summary edge."""
    rng = np.random.default_rng(29)
    n, m = 6_000, 24_000
    src, dst, pred = rng.integers(0, n, m), rng.integers(0, n, m), rng.integers(0, 6, m)
    g = build_snapshot("t", [(f"http://x/v{s}", f"http://x/p{p}", f"http://x/v{o}")
                             for s, p, o in zip(src.tolist(), pred.tolist(), dst.tolist())])
    tracemalloc.start()
    try:
        summary, hashes = summarize(g, "ac2")
        del hashes
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert summary.num_primary > 2_000 and summary.num_edges > 10_000
    assert held / (summary.num_primary + summary.num_edges) <= 40, held
