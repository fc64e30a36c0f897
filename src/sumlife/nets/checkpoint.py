"""Checkpoint files: magic GSLC, version, JSON header, raw tensor payloads.

The header records the architecture, dimensions, seed and both vocabularies
(entries plus digests); payloads follow in the header's declared order as
little-endian row-major float64 bytes, so round-trips are bit-exact.
A file that cannot be read as a checkpoint raises ``CheckpointError``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from ..features import ClassVocabulary, PredicateVocabulary
from .gcn import GcnParams
from .graphmlp import GraphMlpParams
from .mlp import MlpParams
from .network import Hyper, Network

MAGIC = b"GSLC"
FORMAT_VERSION = 1


def save_checkpoint(
    path: str | Path,
    network: Network,
    pred_vocab: PredicateVocabulary,
    class_vocab: ClassVocabulary,
    seed: int,
) -> None:
    tensors = network.params.tensors()
    dtype = "<f8"
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": network.arch,
        "hyper": {
            "hidden": network.hyper.hidden,
            "dropout": network.hyper.dropout,
            "learning_rate": network.hyper.learning_rate,
            "alpha": network.hyper.alpha,
            "tau": network.hyper.tau,
            "normalize_adjacency": network.hyper.normalize_adjacency,
        },
        "n_in": network.n_in,
        "n_classes": network.n_classes,
        "seed": seed,
        "dtype": dtype,
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()],
        "predicate_vocab": list(pred_vocab.entries),
        "class_vocab": [f"{h:016x}" for h in class_vocab.entries],
        "vocab_digests": {
            "predicates": pred_vocab.digest(),
            "classes": class_vocab.digest(),
        },
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for value in tensors.values():
            fh.write(np.ascontiguousarray(value).astype(dtype, copy=False).tobytes())


def load_checkpoint(path: str | Path) -> tuple[Network, PredicateVocabulary, ClassVocabulary, dict]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        version, header_len = struct.unpack("<II", prefix)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise CheckpointError(f"{path}: unreadable checkpoint header ({exc})") from exc
        dtype = np.dtype(header["dtype"])
        tensors = {}
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise CheckpointError(f"{path}: truncated payload for {spec['name']}")
            tensors[spec["name"]] = (
                np.frombuffer(buf, dtype=dtype).reshape(shape).astype(np.float64)
            )
    arch = header["architecture"]
    if arch == "mlp":
        params = MlpParams(tensors["w0"], tensors["b0"], tensors["w_out"], tensors["b_out"])
    elif arch == "graph-mlp":
        params = GraphMlpParams(tensors["w0"], tensors["w1"], tensors["w2"])
    else:
        n_layers = sum(1 for k in tensors if k.startswith("w") and k != "w_cls" and k[1:].isdigit())
        params = GcnParams(
            layers=[tensors[f"w{i}"] for i in range(n_layers)], w_cls=tensors["w_cls"]
        )
    h = header["hyper"]
    hyper = Hyper(
        hidden=list(h["hidden"]),
        dropout=h["dropout"],
        learning_rate=h["learning_rate"],
        alpha=h["alpha"],
        tau=h["tau"],
        normalize_adjacency=h["normalize_adjacency"],
    )
    network = Network(arch, params, hyper)
    pred_vocab = PredicateVocabulary(header["predicate_vocab"])
    class_vocab = ClassVocabulary(int(x, 16) for x in header["class_vocab"])
    return network, pred_vocab, class_vocab, header
