"""Checkpoint files: magic GSLC, version, JSON header, raw tensor payloads.

The header records the architecture, dimensions, seed, every ``Hyper``
field, the run settings the labels and features depend on (``RUN_FIELDS``)
and both vocabularies, each as the lines of its vocabulary file plus the
SHA-256 digest of that file; payloads follow in the header's declared order
as little-endian row-major float64 bytes, so round-trips are bit-exact.
``RUN_FIELDS`` and ``_HYPER_FIELDS`` give the types a header field must have,
because the header is outside input.
A file that cannot be read as a checkpoint (bad magic, truncated data, a
missing or ill-typed header field, tensors whose shapes do not form the
header's network, a vocabulary that does not match its digest or is
narrower than the network) raises ``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from ..features import ClassVocabulary, PredicateVocabulary
from .network import Hyper, Network

MAGIC = b"GSLC"
FORMAT_VERSION = 2

# run settings a checkpoint is only valid for, with their header types
RUN_FIELDS = {
    "model": str,
    "include_rdf_types": bool,
    "degree_cap": (int, type(None)),
    "degree_mode": str,
}
_NUMBER = (int, float)
_HYPER_FIELDS = {
    "hidden": list,
    "dropout": _NUMBER,
    "learning_rate": _NUMBER,
    "alpha": _NUMBER,
    "tau": _NUMBER,
    "normalize_adjacency": bool,
}


def save_checkpoint(
    path: str | Path,
    network: Network,
    pred_vocab: PredicateVocabulary,
    class_vocab: ClassVocabulary,
    seed: int,
    run: dict,
) -> None:
    """Write a checkpoint; ``run`` maps every ``RUN_FIELDS`` key to its value."""
    tensors = network.params.tensors()
    dtype = "<f8"
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": network.arch,
        "hyper": asdict(network.hyper),
        "n_in": network.n_in,
        "n_classes": network.n_classes,
        "seed": seed,
        **{k: run[k] for k in RUN_FIELDS},
        "dtype": dtype,
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()],
        "predicate_vocab": pred_vocab.lines(),
        "class_vocab": class_vocab.lines(),
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
        try:
            return _from_header(fh, path, header)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"{path}: missing, ill-typed or inconsistent checkpoint header field "
                f"({type(exc).__name__}: {exc})"
            ) from exc


def _require_types(record: dict, types: dict) -> None:
    for name, expected in types.items():
        if not isinstance(record[name], expected):
            raise TypeError(f"{name} = {record[name]!r}")


def _from_header(fh, path, header: dict):
    """Network and vocabularies from a parsed header; the payloads follow at ``fh``."""
    _require_types(header, {"seed": int, **RUN_FIELDS})
    _require_types(header["hyper"], _HYPER_FIELDS)
    dtype = np.dtype(header["dtype"])
    payload = fh.read()
    tensors = {}
    offset = 0
    for spec in header["tensors"]:
        shape = tuple(spec["shape"])
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated payload for {spec['name']}")
        tensors[spec["name"]] = (
            np.frombuffer(payload, dtype, count, offset).reshape(shape).astype(np.float64)
        )
        offset = end
    network = Network.from_tensors(header["architecture"], tensors, Hyper(**header["hyper"]),
                                   header["n_in"], header["n_classes"])
    pred_vocab = PredicateVocabulary.from_lines(header["predicate_vocab"])
    class_vocab = ClassVocabulary.from_lines(header["class_vocab"])
    digests = header["vocab_digests"]
    for kind, vocab, width in (("predicates", pred_vocab, network.n_in),
                               ("classes", class_vocab, network.n_classes)):
        if vocab.digest() != digests[kind]:
            raise CheckpointError(f"{path}: {kind} vocabulary does not match its digest")
        if width > vocab.width:
            raise CheckpointError(
                f"{path}: the network takes {width} {kind}, its vocabulary holds {vocab.width}"
            )
    return network, pred_vocab, class_vocab, header
