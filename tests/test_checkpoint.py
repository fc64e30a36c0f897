import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from oracles import read_vocabulary
from sumlife.cli import main
from sumlife.config import build_config
from sumlife.errors import CheckpointError, ConfigError
from sumlife.features import ClassVocabulary, PredicateVocabulary
from sumlife.nets import Hyper, Network, load_checkpoint, save_checkpoint
from sumlife.nets.ops import DTYPE
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
    for (ka, a), (kb, b) in zip(net.params.items(), loaded.params.items()):
        assert ka == kb
        assert a.dtype == b.dtype == DTYPE
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


def last_tensor_rows_unknown(header):
    # numpy would read the rest of the payload into rows given as -1
    header["tensors"][-1]["shape"][0] = -1
    return header


def test_deeply_nested_header_rejected(tmp_path):
    """A header nested deeper than ``json.loads`` can recurse is unreadable,
    not a ``RecursionError``."""
    p = saved(tmp_path)
    data = p.read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    blob = b"[" * 200_000 + b"]" * 200_000
    p.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[12 + header_len :])
    with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
        load_checkpoint(p)


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
    last_tensor_rows_unknown,
])
def test_missing_or_ill_typed_header_field_rejected(tmp_path, edit):
    p = saved(tmp_path)
    rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match="header field"):
        load_checkpoint(p)


# (header field, header value, the flag value of the same setting): a run
# refuses each flag value, so a checkpoint must refuse each header value
OUT_OF_RANGE = [
    ("dropout", 1.0, "1.0"),
    ("dropout", True, "true"),
    ("dropout", -0.5, "-0.5"),
    ("learning_rate", -1, "-1"),
    ("learning_rate", math.inf, "inf"),
    ("tau", 0, "0"),
    ("alpha", math.nan, "nan"),
    ("hidden", [], ","),
    ("seed", -1, "-1"),
    ("seed", 2**64, str(2**64)),
    ("model", "ac9", "ac9"),
    ("degree_mode", "sideways", "sideways"),
    ("degree_cap", 0, "0"),
    ("degree_cap", -3, "-3"),
    ("degree_cap", True, "true"),
]


@pytest.fixture(scope="module")
def ac2_checkpoints(tmp_path_factory):
    """(two ring snapshots, {architecture: task00.gslc of a 2-iteration ac2
    lifelong run on the first})."""
    root = tmp_path_factory.mktemp("ac2")
    recipes = distinct_recipes(predicate_pool(4), 5)
    snapshots = [root / f"2012-05-0{6 + i}.nt" for i in range(2)]
    for i, path in enumerate(snapshots):
        write_ntriples(path, ring_triples(recipes[i : 4 + i], 12, f"s{i}v"))
    ckpts = {}
    for arch in ("mlp", "graph-mlp", "gcn"):
        assert main(["lifelong", "--model", "ac2", "--architecture", arch, "--iterations", "2",
                     "--in", str(snapshots[0]), "--out", str(root / arch)]) == 0
        ckpts[arch] = root / arch / "task00.gslc"
    return [str(p) for p in snapshots], ckpts


@pytest.mark.parametrize("arch", ["mlp", "graph-mlp", "gcn"])
@pytest.mark.parametrize("key, value, flag", OUT_OF_RANGE,
                         ids=[f"{k}={v!r}" for k, v, _ in OUT_OF_RANGE])
def test_out_of_range_header_setting_exits_1(tmp_path, capsys, ac2_checkpoints, arch, key,
                                             value, flag):
    """A header network or run setting, or seed, outside the range a run's own
    setting is held to ends ``eval`` and ``lifelong --time-warp`` in exit 1
    with one ``error:`` line naming the field, never a traceback, a run on
    it, or a comparison with the run's own value (a header ``degree_cap`` of
    true is no cap of 1)."""
    with pytest.raises(ConfigError, match=key):
        build_config(None, {"hidden_size" if key == "hidden" else key: flag})
    snapshots, ckpts = ac2_checkpoints
    ckpt = tmp_path / "edited.gslc"
    ckpt.write_bytes(ckpts[arch].read_bytes())
    if key in {f.name for f in fields(Hyper)}:
        rewrite_header(ckpt, lambda h: {**h, "hyper": {**h["hyper"], key: value}})
    else:
        rewrite_header(ckpt, setting(key, value))
    # the checkpoint is read before the snapshot: under a cap of 1 the ring
    # snapshot keeps no vertex, yet the header field is what is reported
    runs = [(snapshots[0], []), (snapshots[1], []), (snapshots[0], ["--degree-cap", "1"])]
    capsys.readouterr()
    for snapshot, cap in runs:
        for argv in (["eval", "--ckpt", str(ckpt)],
                     ["lifelong", "--iterations", "2", "--time-warp", str(ckpt)]):
            assert main([*argv, *cap, "--in", snapshot, "--model", "ac2",
                         "--out", str(tmp_path / "o")]) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "edited.gslc" in err and key in err, err
    assert not any(p.name.endswith(".json") for p in (tmp_path / "o").iterdir())


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


def test_bytes_after_the_last_tensor_rejected(tmp_path):
    p = saved(tmp_path)
    p.write_bytes(p.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="8 bytes after the last tensor"):
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
    assert read_vocabulary(PredicateVocabulary, tmp_path / "p.vocab").entries == pv.entries


def rewrite_tensors(path, edit):
    """Replace a checkpoint's tensors by ``edit(header, tensors)``; the header's
    tensor list follows the new tensors, so only their shapes can be wrong.
    The payloads are written in the header's ``dtype``, which ``edit`` may change."""
    data = path.read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12 : 12 + header_len])
    tensors, offset, dtype = {}, 12 + header_len, np.dtype(header["dtype"])
    for spec in header["tensors"]:
        count = math.prod(spec["shape"])
        tensors[spec["name"]] = np.frombuffer(data, dtype, count, offset).reshape(spec["shape"])
        offset += dtype.itemsize * count
    tensors = edit(header, tensors)
    header["tensors"] = [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(v, header["dtype"]).tobytes() for v in tensors.values())
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


def trained_checkpoint(tmp_path):
    """(snapshot, its checkpoint) of a 2-iteration ac1 mlp lifelong run."""
    snapshot = tmp_path / "2012-05-06.nt"
    write_ntriples(snapshot, ring_triples(distinct_recipes(predicate_pool(4), 4), 12))
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", str(snapshot), "--out", str(out),
                 "--iterations", "2", "--hidden-size", "8"]) == 0
    return snapshot, out / "task00.gslc"


def test_eval_of_a_cut_tensor_exits_1_with_one_line(tmp_path, capsys):
    snapshot, ckpt = trained_checkpoint(tmp_path)
    rewrite_tensors(ckpt, lambda h, t: {**t, "w_out": t["w_out"][:-3]})
    capsys.readouterr()
    assert main(["eval", "--model", "ac1", "--in", str(snapshot), "--ckpt", str(ckpt),
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "task00.gslc" in err and "tensor shapes" in err


def with_dtype(dtype):
    def edit(header, tensors):
        header["dtype"] = dtype
        return tensors
    return edit


def test_checkpoints_hold_float32_payloads(tmp_path):
    p = saved(tmp_path, "mlp")
    net = make_net("mlp")
    assert read_header(p)["dtype"] == "<f4"
    assert p.stat().st_size == 12 + len(json.dumps(read_header(p), sort_keys=True)) + sum(
        4 * t.size for t in net.params.values())


def test_float64_checkpoint_of_an_earlier_run_loads_and_evaluates(tmp_path):
    """A ``"<f8"`` payload is read and cast once to the compute dtype; its
    evaluation reads as the ``"<f4"`` checkpoint holding the same values."""
    snapshot, f4 = trained_checkpoint(tmp_path)
    f8 = tmp_path / "f8.gslc"
    f8.write_bytes(f4.read_bytes())
    rewrite_tensors(f8, with_dtype("<f8"))
    assert read_header(f8)["dtype"] == "<f8" and f8.stat().st_size > f4.stat().st_size
    want, _, _, _ = load_checkpoint(f4)
    got, _, _, _ = load_checkpoint(f8)
    for name, t in got.params.items():
        assert t.dtype == DTYPE and t.tobytes() == want.params[name].tobytes(), name
    for ckpt in (f4, f8):
        assert main(["eval", "--model", "ac1", "--in", str(snapshot), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / ckpt.stem)]) == 0
    assert (tmp_path / "f8" / "eval.json").read_bytes().replace(b"f8.gslc", b"") == (
        tmp_path / "task00" / "eval.json").read_bytes().replace(b"task00.gslc", b"")


@pytest.mark.parametrize("dtype", ["<i8", "<f2", ">f4", ">f8", "|u1"])
def test_payload_dtype_other_than_float_rejected(tmp_path, capsys, dtype):
    """Integer, half-precision and big-endian payloads are refused, not cast."""
    snapshot, ckpt = trained_checkpoint(tmp_path)
    rewrite_tensors(ckpt, with_dtype(dtype))
    with pytest.raises(CheckpointError, match="payload dtype"):
        load_checkpoint(ckpt)
    capsys.readouterr()
    assert main(["eval", "--model", "ac1", "--in", str(snapshot), "--ckpt", str(ckpt),
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "payload dtype" in err
