import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from sumlife.cli import main
from sumlife.errors import CheckpointError
from sumlife.features import ClassVocabulary, PredicateVocabulary
from sumlife.nets import Hyper, Network, load_checkpoint, save_checkpoint
from synth import distinct_recipes, predicate_pool, ring_triples, write_ntriples


def make_net(arch="mlp", n_in=5, n_classes=4, seed=0):
    return Network.create(arch, n_in, n_classes, Hyper(hidden=[6] if arch != "gcn-edges" else [3, 3]), np.random.default_rng(seed))


RUN = {"model": "ac2", "include_rdf_types": False, "degree_cap": 100, "degree_mode": "total"}


def vocabs():
    """As wide as ``make_net``'s input and output: 5 predicates, 4 classes."""
    pv = PredicateVocabulary(["http://p", "http://q", "http://r", "http://s", "http://t"])
    cv = ClassVocabulary([0, 17, 3, 2**63 + 5])
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


def rewrite_tensors(path, edit):
    """Replace a checkpoint's tensors by ``edit(header, tensors)``; the header's
    tensor list follows the new tensors, so only their shapes can be wrong."""
    data = path.read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12 : 12 + header_len])
    tensors, offset = {}, 12 + header_len
    for spec in header["tensors"]:
        count = math.prod(spec["shape"])
        tensors[spec["name"]] = np.frombuffer(data, "<f8", count, offset).reshape(spec["shape"])
        offset += 8 * count
    tensors = edit(header, tensors)
    header["tensors"] = [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(v, "<f8").tobytes() for v in tensors.values())
    path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + payload)


def widened(header, tensors, key, name, rows, cols):
    """``tensors`` with ``rows`` zero rows and ``cols`` zero columns added to
    ``name``, and the header's ``key`` width grown to match."""
    header[key] += rows + cols
    t = tensors[name]
    return {**tensors, name: np.pad(t, [(0, rows)] + [(0, cols)] * (t.ndim - 1))}


def with_hidden(hidden):
    def edit(header, tensors):
        header["hyper"]["hidden"] = hidden
        return tensors
    return edit


def with_header(key, delta):
    def edit(header, tensors):
        header[key] += delta
        return tensors
    return edit


@pytest.mark.parametrize("arch, edit", [
    ("mlp", lambda h, t: {**t, "w_out": t["w_out"][:-3]}),
    ("mlp", lambda h, t: {**t, "b0": t["b0"][:-1]}),
    ("graph-mlp", lambda h, t: {**t, "w1": t["w1"][:, :-1]}),
    ("gcn", lambda h, t: {"w0": t["w0"], "w1": np.zeros((6, 6)), "w_cls": t["w_cls"]}),
    ("gcn-edges", lambda h, t: {**t, "w1": t["w1"][:, :-1]}),
    ("mlp", with_header("n_in", -1)),
    ("gcn", with_header("n_classes", 1)),
    ("gcn", with_hidden([6, 6])),
    ("gcn-edges", with_hidden([3])),
    ("graph-mlp", with_hidden([])),
], ids=["mlp_w_out_rows_cut", "mlp_b0_short", "graph_mlp_w1_narrow", "gcn_extra_layer",
        "gcn_edges_layers_do_not_chain", "header_n_in", "header_n_classes",
        "gcn_fewer_layers_than_hidden", "gcn_edges_more_layers_than_hidden",
        "graph_mlp_no_hidden_size"])
def test_tensors_that_do_not_form_the_network_rejected(tmp_path, arch, edit):
    p = saved(tmp_path, arch)
    rewrite_tensors(p, edit)
    with pytest.raises(CheckpointError, match="inconsistent checkpoint header field"):
        load_checkpoint(p)


@pytest.mark.parametrize("arch, key, name, rows, cols", [
    ("mlp", "n_in", "w0", 1, 0),
    ("gcn", "n_in", "w0", 1, 0),
    ("mlp", "n_classes", "w_out", 0, 1),
    ("graph-mlp", "n_classes", "w2", 0, 1),
])
def test_network_wider_than_its_vocabulary_rejected(tmp_path, arch, key, name, rows, cols):
    p = saved(tmp_path, arch)

    def edit(header, tensors):
        tensors = widened(header, tensors, key, name, rows, cols)
        if arch == "mlp" and key == "n_classes":
            tensors["b_out"] = np.append(tensors["b_out"], 0.0)
        return tensors

    rewrite_tensors(p, edit)
    with pytest.raises(CheckpointError, match="vocabulary holds"):
        load_checkpoint(p)


def test_rewritten_tensors_of_the_same_shapes_load(tmp_path):
    p = saved(tmp_path, "mlp")
    rewrite_tensors(p, lambda h, t: {k: v + 1.0 for k, v in t.items()})
    loaded, _, _, _ = load_checkpoint(p)
    assert np.array_equal(loaded.params.b0, np.ones(6))


def test_eval_of_a_cut_tensor_exits_1_with_one_line(tmp_path, capsys):
    snapshot = tmp_path / "2012-05-06.nt"
    write_ntriples(snapshot, ring_triples(distinct_recipes(predicate_pool(4), 4), 12))
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", str(snapshot), "--out", str(out),
                 "--iterations", "2", "--hidden-size", "8"]) == 0
    ckpt = out / "task00.gslc"
    rewrite_tensors(ckpt, lambda h, t: {**t, "w_out": t["w_out"][:-3]})
    capsys.readouterr()
    assert main(["eval", "--model", "ac1", "--in", str(snapshot), "--ckpt", str(ckpt),
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "task00.gslc" in err and "tensor shapes" in err
