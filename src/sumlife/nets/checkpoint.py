"""Checkpoint files: magic GSLC, version, JSON header, raw tensor payloads.

The header records the architecture, dimensions, seed, every ``Hyper``
field, the run settings the labels and features depend on (``RUN_FIELDS``)
and both vocabularies, each as the lines of its vocabulary file plus the
SHA-256 digest of that file; payloads follow in the header's declared order
as little-endian row-major bytes of the header's ``dtype``: ``"<f4"``, the
compute dtype ``ops.DTYPE``, so round-trips are bit-exact.  A ``"<f8"``
checkpoint of an earlier version loads too, cast once to ``DTYPE``; any
other payload dtype is refused.
The header is outside input: its ``RUN_FIELDS``, seed and architecture are
checked against their rules in ``network.RULES``, its network settings by ``Hyper``.
A file that cannot be read as a checkpoint (bad magic, truncated data, a
missing, ill-typed or out-of-range header field, a payload dtype other than ``"<f4"`` or
``"<f8"``, a negative tensor dimension, tensors
whose shapes do not form the header's network, bytes after the last
tensor, a vocabulary that does not match its digest or is narrower than
the network) raises ``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, ConfigError
from ..features import ClassVocabulary, PredicateVocabulary
from ..reporting import output
from .network import Hyper, Network, check
from .ops import DTYPE

MAGIC = b"GSLC"
FORMAT_VERSION = 2
# the payload dtypes read back; DTYPE's is the one written
PAYLOAD_DTYPES = ("<f4", "<f8")

# run settings a checkpoint is only valid for
RUN_FIELDS = ("model", "include_rdf_types", "degree_cap", "degree_mode")


def save_checkpoint(
    path: str | Path,
    network: Network,
    pred_vocab: PredicateVocabulary,
    class_vocab: ClassVocabulary,
    seed: int,
    run: dict,
) -> None:
    """Write a checkpoint; ``run`` maps every ``RUN_FIELDS`` key to its value."""
    dtype = DTYPE.newbyteorder("<").str
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": network.arch,
        "hyper": asdict(network.hyper),
        "n_in": network.n_in,
        "n_classes": network.n_classes,
        "seed": seed,
        **{k: run[k] for k in RUN_FIELDS},
        "dtype": dtype,
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in network.params.items()],
        "predicate_vocab": pred_vocab.lines(),
        "class_vocab": class_vocab.lines(),
        "vocab_digests": {
            "predicates": pred_vocab.digest(),
            "classes": class_vocab.digest(),
        },
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with output(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for value in network.params.values():
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
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, nesting
            raise CheckpointError(f"{path}: unreadable checkpoint header ({exc})") from exc
        try:
            return _from_header(fh, path, header)
        except (ConfigError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"{path}: missing, ill-typed, out-of-range or inconsistent checkpoint header field "
                f"({type(exc).__name__}: {exc})"
            ) from exc


def _from_header(fh, path, header: dict):
    """Network and vocabularies from a parsed header; the payloads follow at ``fh``."""
    for key in (*RUN_FIELDS, "seed", "architecture"):
        check(key, header[key])
    hyper = Hyper(**header["hyper"]).resolved(header["architecture"])
    if header["dtype"] not in PAYLOAD_DTYPES:
        raise CheckpointError(f"{path}: payload dtype {header['dtype']!r} is not "
                              f"one of {', '.join(PAYLOAD_DTYPES)}")
    dtype = np.dtype(header["dtype"])
    payload = fh.read()
    tensors = {}
    offset = 0
    for spec in header["tensors"]:
        shape = tuple(spec["shape"])
        if any(d < 0 for d in shape):
            raise ValueError(f"negative dimension in the shape of {spec['name']}")
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated payload for {spec['name']}")
        tensors[spec["name"]] = (
            np.frombuffer(payload, dtype, count, offset).reshape(shape).astype(DTYPE)
        )
        offset = end
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} bytes after the last tensor")
    network = Network.from_tensors(header["architecture"], tensors, hyper,
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
