import numpy as np
import pytest

from sumlife.errors import CheckpointError
from sumlife.features import ClassVocabulary, PredicateVocabulary
from sumlife.nets import Hyper, Network, load_checkpoint, save_checkpoint


def make_net(arch="mlp", n_in=5, n_classes=4, seed=0):
    return Network.create(arch, n_in, n_classes, Hyper(hidden=[6] if arch != "gcn-edges" else [3, 3]), np.random.default_rng(seed))


def vocabs():
    pv = PredicateVocabulary(["http://p", "http://q"])
    cv = ClassVocabulary([0, 17, 2**63 + 5])
    return pv, cv


@pytest.mark.parametrize("arch", ["mlp", "graph-mlp", "gcn", "gcn-edges"])
def test_roundtrip_bit_exact(tmp_path, arch):
    net = make_net(arch)
    pv, cv = vocabs()
    path = tmp_path / "model.gslc"
    save_checkpoint(path, net, pv, cv, seed=42)
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


def test_roundtrip_again_identical_bytes(tmp_path):
    net = make_net()
    pv, cv = vocabs()
    p1, p2 = tmp_path / "a.gslc", tmp_path / "b.gslc"
    save_checkpoint(p1, net, pv, cv, seed=1)
    loaded, pv2, cv2, _ = load_checkpoint(p1)
    save_checkpoint(p2, loaded, pv2, cv2, seed=1)
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
    save_checkpoint(p, net, pv, cv, seed=1)
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
    save_checkpoint(p, net, *vocabs(), seed=9)
    loaded, _, _, _ = load_checkpoint(p)
    assert loaded.hyper.alpha == 2.0
    assert loaded.hyper.tau == 0.5
    assert loaded.hyper.dropout == 0.3
