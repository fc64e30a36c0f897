import numpy as np
import pytest

from sumlife.features import (
    TEST,
    TRAIN,
    VAL,
    ClassVocabulary,
    PredicateVocabulary,
    encode_features,
    extend_vocabularies,
    split_sizes,
    split_vertices,
)
import sumlife.features as features
from oracles import position_of, read_vocabulary, reference_features, reference_siphash24
from sumlife.features import SPLIT_FRACTIONS, _largest_remainder
from sumlife.ingest import build_snapshot
from sumlife.sampling import receptive_field
from sumlife.summarize import SIPHASH_KEY, vertex_hashes
from synth import random_graph


def small_graph():
    return build_snapshot(
        "t",
        [
            ("http://a", "http://p", "http://b"),
            ("http://a", "http://p", "http://c"),
            ("http://a", "http://q", "http://b"),
            ("http://b", "http://q", "http://c"),
        ],
    )


def test_vocab_extension_appends_sorted():
    g = small_graph()
    pv = PredicateVocabulary(["http://z"])
    pv.extend_from_graph(g)
    assert pv.entries == ["http://z", "http://p", "http://q"]
    assert pv.index("http://z") == 0


def test_vocab_extension_idempotent():
    g = small_graph()
    pv, cv = PredicateVocabulary(), ClassVocabulary()
    extend_vocabularies(g, vertex_hashes(g, "ac1"), pv, cv)
    before = (list(pv.entries), list(cv.entries))
    extend_vocabularies(g, vertex_hashes(g, "ac1"), pv, cv)
    assert (list(pv.entries), list(cv.entries)) == before


def test_class_vocab_extension_sorts_as_unsigned_ints():
    cv = ClassVocabulary([7])
    added = cv.extend(np.array([2**64 - 1, 5, 2**63, 7, 5], dtype=np.uint64))
    assert added == 3
    assert cv.entries == [7, 5, 2**63, 2**64 - 1]
    assert all(type(e) is int for e in cv.entries)


def test_vocab_no_new_predicates_keeps_width():
    g = small_graph()
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    w = pv.width
    assert pv.extend_from_graph(g) == 0
    assert pv.width == w


def test_vocab_serialization_prefix_property(tmp_path):
    g = small_graph()
    pv, cv = PredicateVocabulary(), ClassVocabulary()
    extend_vocabularies(g, vertex_hashes(g, "ac1"), pv, cv)
    pv.serialize(tmp_path / "p1.vocab")
    cv.serialize(tmp_path / "c1.vocab")
    g2 = build_snapshot("t2", [("http://a", "http://r", "http://b")])
    extend_vocabularies(g2, vertex_hashes(g2, "ac1"), pv, cv)
    pv.serialize(tmp_path / "p2.vocab")
    text1 = (tmp_path / "p1.vocab").read_text()
    text2 = (tmp_path / "p2.vocab").read_text()
    assert text2.startswith(text1)
    assert read_vocabulary(PredicateVocabulary, tmp_path / "p2.vocab").entries == pv.entries
    assert read_vocabulary(ClassVocabulary, tmp_path / "c1.vocab").entries == cv.entries[: len(read_vocabulary(ClassVocabulary, tmp_path / 'c1.vocab').entries)]


def feature_rows(g, vocab):
    """Every vertex's feature row, as a batch of the whole snapshot holds it."""
    labels = np.zeros(g.num_vertices, dtype=np.int64)
    everyone = np.arange(g.num_vertices)
    return receptive_field(g, labels, encode_features(g, vocab), vocab.width, everyone, 0, 1).features


def test_encode_rows():
    g = small_graph()
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    assert encode_features(g, pv).tolist() == [0, 0, 1, 1]  # p p q from a, q from b
    x = feature_rows(g, pv)
    a, b, c = (position_of(g, f"http://{v}") for v in "abc")
    assert x[a].tolist() == [1.0, 1.0]  # p and q, multiplicity ignored
    assert x[b].tolist() == [0.0, 1.0]
    assert x[c].tolist() == [0.0, 0.0]  # sink row is zero


def test_encode_missing_predicate_errors():
    g = small_graph()
    with pytest.raises(ValueError):
        encode_features(g, PredicateVocabulary(["http://p"]))


def test_encode_equal_predicate_sets_equal_rows():
    g = build_snapshot(
        "t",
        [
            ("http://u", "http://p", "http://x"),
            ("http://v", "http://p", "http://y"),
        ],
    )
    pv = PredicateVocabulary()
    pv.extend_from_graph(g)
    x = feature_rows(g, pv)
    assert (x[position_of(g, "http://u")] == x[position_of(g, "http://v")]).all()


def test_feature_rows_determine_ac1_class():
    rng = np.random.default_rng(23)
    for _ in range(5):
        g, _, _ = random_graph(rng, 80, 300, 6)
        pv = PredicateVocabulary()
        pv.extend_from_graph(g)
        x = feature_rows(g, pv)
        assert np.array_equal(x, reference_features(g, pv))
        h = vertex_hashes(g, "ac1")
        by_row = {}
        for i in range(g.num_vertices):
            key = x[i].tobytes()
            by_row.setdefault(key, set()).add(int(h[i]))
        assert all(len(v) == 1 for v in by_row.values())
        assert len(by_row) == len(set(int(v) for v in h))


def make_n_vertices(n):
    return build_snapshot(
        "t", [(f"http://v{i}", "http://p", f"http://v{(i + 1) % n}") for i in range(n)]
    )


def test_split_exact_sizes():
    g = make_n_vertices(100)
    tags = split_vertices(g, seed=42)
    assert (tags == TRAIN).sum() == 93
    assert (tags == VAL).sum() == 2
    assert (tags == TEST).sum() == 5


def test_split_deterministic():
    g = make_n_vertices(100)
    assert (split_vertices(g, 42) == split_vertices(g, 42)).all()


def test_split_seed_changes_assignment():
    g = make_n_vertices(200)
    assert (split_vertices(g, 1) != split_vertices(g, 2)).any()


def test_split_stable_for_persisting_vertices():
    # same vertex names in both snapshots keep their role
    g1 = make_n_vertices(100)
    g2 = make_n_vertices(100)
    t1, t2 = split_vertices(g1, 7), split_vertices(g2, 7)
    assert (t1 == t2).all()


def test_split_rounding_small():
    g = make_n_vertices(10)
    tags = split_vertices(g, 0)
    sizes = [(tags == k).sum() for k in (TRAIN, VAL, TEST)]
    assert sum(sizes) == 10
    assert sizes[0] >= 9  # 9.3 -> 9 or 10 by largest remainder


def test_split_has_a_test_vertex_from_nine_vertices():
    assert [n for n in range(40) if split_sizes(n)[TEST] == 0] == list(range(9))
    for n in (8, 9):
        tags = split_vertices(make_n_vertices(n), 0)
        assert [int((tags == k).sum()) for k in (TRAIN, VAL, TEST)] == split_sizes(n)


def test_vocabulary_file_keeps_empty_lines(tmp_path):
    pv = PredicateVocabulary(["http://p", "", "http://q"])
    pv.serialize(tmp_path / "p.vocab")
    assert (tmp_path / "p.vocab").read_bytes() == b"http://p\n\nhttp://q\n"
    back = read_vocabulary(PredicateVocabulary, tmp_path / "p.vocab")
    assert back.entries == ["http://p", "", "http://q"]
    assert back.digest() == pv.digest()
    assert PredicateVocabulary.from_lines(pv.lines()).entries == pv.entries
    for vocab in (PredicateVocabulary(), PredicateVocabulary([""]), ClassVocabulary([0, 2**64 - 1])):
        vocab.serialize(tmp_path / "v.vocab")
        assert read_vocabulary(type(vocab), tmp_path / "v.vocab").entries == vocab.entries


def _oracle_split(g, seed, coarsen=0):
    """Tags from a ranking by (reference SipHash >> coarsen, position)."""
    key = seed.to_bytes(8, "little") + SIPHASH_KEY[8:]
    n = g.num_vertices
    h = [reference_siphash24(key, g.terms.lexical(int(t)).encode("utf-8")) >> coarsen
         for t in g.vertex_ids]
    ranked = sorted(range(n), key=lambda i: (h[i], i))
    n_train, n_val, _ = _largest_remainder(n, SPLIT_FRACTIONS)
    tags = np.empty(n, dtype=np.int8)
    for r, i in enumerate(ranked):
        tags[i] = TRAIN if r < n_train else (VAL if r < n_train + n_val else TEST)
    return tags


def test_split_matches_reference_ranking():
    g = build_snapshot(
        "t", [(f"http://v{i}/é", "http://p", f"http://v{(i + 7) % 60}/é") for i in range(60)]
    )
    for seed in (0, 3, 2**40 + 1):
        assert (split_vertices(g, seed) == _oracle_split(g, seed)).all()


def test_split_ties_on_hash_break_by_position(monkeypatch):
    # keep 2 bits of each hash so most vertices tie and position decides
    g = make_n_vertices(40)
    kernel = features.siphash24
    monkeypatch.setattr(features, "siphash24", lambda key, msgs: kernel(key, msgs) >> np.uint64(62))
    assert (split_vertices(g, 9) == _oracle_split(g, 9, coarsen=62)).all()
