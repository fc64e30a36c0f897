import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from sumlife.errors import CheckpointError
from sumlife.features import ClassVocabulary, PredicateVocabulary
from sumlife.nets import Hyper, Network, load_checkpoint, save_checkpoint


def make_net(arch="mlp", n_in=5, n_classes=4, seed=0):
    return Network.create(arch, n_in, n_classes, Hyper(hidden=[6] if arch != "gcn-edges" else [3, 3]), np.random.default_rng(seed))


RUN = {"model": "ac2", "include_rdf_types": False, "degree_cap": 100, "degree_mode": "total"}


def vocabs():
    pv = PredicateVocabulary(["http://p", "http://q"])
    cv = ClassVocabulary([0, 17, 2**63 + 5])
    return pv, cv


@pytest.mark.parametrize("arch", ["mlp", "graph-mlp", "gcn", "gcn-edges"])
def test_roundtrip_bit_exact(tmp_path, arch):
    net = make_net(arch)
    pv, cv = vocabs()
    path = tmp_path / "model.gslc"
    save_checkpoint(path, net, pv, cv, seed=42, run=RUN)
    loaded, pv2, cv2, header = load_checkpoint(path)
    assert loaded.arch == arch
    for (ka, a), (kb, b) in zip(net.params.tensors().items(), loaded.params.tensors().items()):
        assert ka == kb
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b)
    assert pv2.entries == pv.entries
    assert cv2.entries == cv.entries
    assert header["seed"] == 42
    assert header["vocab_digests"]["predicates"] == pv.digest()
    assert {k: header[k] for k in RUN} == RUN


def test_roundtrip_again_identical_bytes(tmp_path):
    net = make_net()
    pv, cv = vocabs()
    p1, p2 = tmp_path / "a.gslc", tmp_path / "b.gslc"
    save_checkpoint(p1, net, pv, cv, seed=1, run=RUN)
    loaded, pv2, cv2, _ = load_checkpoint(p1)
    save_checkpoint(p2, loaded, pv2, cv2, seed=1, run=RUN)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.gslc"
    p.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_truncated_payload_rejected(tmp_path):
    net = make_net()
    pv, cv = vocabs()
    p = tmp_path / "model.gslc"
    save_checkpoint(p, net, pv, cv, seed=1, run=RUN)
    data = p.read_bytes()
    p.write_bytes(data[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_hyper_survives_roundtrip(tmp_path):
    net = Network.create(
        "graph-mlp", 4, 3,
        Hyper(hidden=[8], dropout=0.3, learning_rate=0.02, alpha=2.0, tau=0.5),
        np.random.default_rng(0),
    )
    p = tmp_path / "m.gslc"
    save_checkpoint(p, net, *vocabs(), seed=9, run=RUN)
    loaded, _, _, _ = load_checkpoint(p)
    assert loaded.hyper.alpha == 2.0
    assert loaded.hyper.tau == 0.5
    assert loaded.hyper.dropout == 0.3


def rewrite_header(path, edit):
    """Replace a checkpoint's JSON header by ``edit(header)``, keeping the payload."""
    data = path.read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    header = edit(json.loads(data[12 : 12 + header_len]))
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[12 + header_len :])


def saved(tmp_path, arch="gcn"):
    p = tmp_path / "m.gslc"
    save_checkpoint(p, make_net(arch), *vocabs(), seed=3, run=RUN)
    return p


def drop(key):
    def edit(header):
        del header[key]
        return header
    return edit


def setting(key, value):
    def edit(header):
        header[key] = value
        return header
    return edit


@pytest.mark.parametrize("edit", [
    lambda h: {},
    lambda h: [],
    drop("dtype"),
    drop("model"),
    drop("vocab_digests"),
    setting("seed", "3"),
    setting("degree_cap", "100"),
    setting("include_rdf_types", 0),
    setting("tensors", [{"name": "w0", "shape": [-1, 2]}]),
    setting("architecture", "rnn"),
    lambda h: {**h, "hyper": {**h["hyper"], "dropout": "0.5"}},
    setting("class_vocab", ["not hex"]),
])
def test_missing_or_ill_typed_header_field_rejected(tmp_path, edit):
    p = saved(tmp_path)
    rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match="header field"):
        load_checkpoint(p)


@pytest.mark.parametrize("vocab", ["predicate_vocab", "class_vocab"])
def test_vocabulary_digest_mismatch_rejected(tmp_path, vocab):
    p = saved(tmp_path)

    def edit(header):
        header[vocab][0] = "http://edited" if vocab == "predicate_vocab" else "00000000000000ff"
        return header

    rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match="does not match its digest"):
        load_checkpoint(p)


def test_tensor_shape_beyond_payload_rejected(tmp_path):
    p = saved(tmp_path)
    rewrite_header(p, setting("tensors", [{"name": "w0", "shape": [2**62]}]))
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_checkpoint(p)


def read_header(path):
    data = path.read_bytes()
    return json.loads(data[12 : 12 + int.from_bytes(data[8:12], "little")])


def test_header_hyper_keys_are_the_hyper_fields(tmp_path):
    p = saved(tmp_path, "graph-mlp")
    hyper = read_header(p)["hyper"]
    assert sorted(hyper) == sorted(f.name for f in fields(Hyper))
    loaded, _, _, _ = load_checkpoint(p)
    assert asdict(loaded.hyper) == hyper


def test_empty_predicate_iri_survives_checkpoint(tmp_path):
    pv = PredicateVocabulary(["http://p", "", "http://q"])
    cv = ClassVocabulary([3, 0])
    p = tmp_path / "m.gslc"
    save_checkpoint(p, make_net(n_in=3, n_classes=2), pv, cv, seed=1, run=RUN)
    assert read_header(p)["predicate_vocab"] == ["http://p", "", "http://q"]
    _, pv2, cv2, _ = load_checkpoint(p)
    assert pv2.entries == pv.entries and cv2.entries == cv.entries
    pv2.serialize(tmp_path / "p.vocab")
    assert PredicateVocabulary.deserialize(tmp_path / "p.vocab").entries == pv.entries
