"""Outside input never ends in a traceback.

``cli.main`` runs in-process on generated inputs of five kinds: config-file
bytes, ``SUMLIFE_SEED`` strings, checkpoint bytes (a real header mutated,
truncated or nested), ``report --matrix`` bytes and tiny snapshot bytes.
Whatever the input, ``main`` returns a documented exit code, 0 to 3, and a
failure prints exactly one ``error:`` line.  An exception escaping ``main``
fails the test with its traceback.  The draws are derandomized and bounded,
so the file runs in a few seconds.
"""

import contextlib
import io
import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumlife.cli import main
from sumlife.config import SEED_ENV_VAR, RunConfig
from sumlife.nets.network import ARCHITECTURES
from sumlife.summarize import MODEL_HOPS
from synth import distinct_recipes, predicate_pool, ring_triples, write_ntriples

BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A snapshot, the gcn-edges checkpoint trained on it, and paths to write
    generated inputs to."""
    root = tmp_path_factory.mktemp("outside")
    snapshot = root / "2012-05-06.nt"
    write_ntriples(snapshot, ring_triples(distinct_recipes(predicate_pool(4), 4), 12))
    assert main(["lifelong", "--model", "ac2", "--architecture", "gcn-edges", "--iterations", "1",
                 "--in", str(snapshot), "--out", str(root / "run")]) == 0
    return {"snapshot": str(snapshot), "checkpoint": (root / "run" / "task00.gslc").read_bytes(),
            "input": root / "input.nt", "out": str(root / "out")}


def run(argv: list[str]) -> int:
    """``main(argv)``'s exit code, checked against the contract: 0 to 3, and
    on failure one ``error:`` line on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    if code:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text
        assert "Traceback" not in text
    return code


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
SETTING_KEYS = [f.name for f in fields(RunConfig)]


@st.composite
def config_bytes(draw):
    """Raw bytes, or ``key = value`` lines over the setting keys and others."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    lines = draw(st.lists(st.tuples(st.sampled_from([*SETTING_KEYS, "colour", ""]),
                                    st.one_of(TEXT, st.integers(-2**65, 2**65).map(str),
                                              st.floats().map(str), st.sampled_from(["true", "no"]))),
                          max_size=4))
    return "".join(f"{key} = {value}\n" for key, value in lines).encode("utf-8")


@BOUNDED
@given(data=config_bytes())
def test_config_file_bytes(files, data):
    files["input"].write_bytes(data)
    run(["summarize", "--config", str(files["input"]), "--model", "ac1",
         "--in", files["snapshot"], "--out", files["out"]])


@BOUNDED
@given(seed=st.one_of(TEXT, st.integers(-2**65, 2**66).map(str)).filter(lambda s: "\x00" not in s))
def test_seed_environment_strings(files, seed, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, seed)
    run(["summarize", "--model", "ac1", "--in", files["snapshot"], "--out", files["out"]])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def _split(checkpoint: bytes) -> tuple[bytes, dict, bytes]:
    """(magic and version, header, payload) of a checkpoint file."""
    n = int.from_bytes(checkpoint[8:12], "little")
    return checkpoint[:8], json.loads(checkpoint[12 : 12 + n]), checkpoint[12 + n :]


def _join(prefix: bytes, blob: bytes, payload: bytes) -> bytes:
    return prefix + len(blob).to_bytes(4, "little") + blob + payload


@st.composite
def checkpoint_bytes(draw, checkpoint: bytes):
    """The checkpoint with a header field set, deleted or paired with another
    field, the file truncated, or the header nested."""
    prefix, header, payload = _split(checkpoint)
    kind = draw(st.sampled_from(["set", "delete", "pair", "truncate", "nest"]))
    if kind == "truncate":
        return checkpoint[: draw(st.integers(0, len(checkpoint) - 1))]
    if kind == "nest":
        depth = draw(st.sampled_from([1, 50, 1000, 100_000]))
        return _join(prefix, b"[" * depth + b"]" * depth, payload)
    target = header["hyper"] if draw(st.booleans()) else header
    if kind == "set":
        target[draw(st.sampled_from(sorted(target)))] = draw(JSON_VALUES)
    elif kind == "delete":
        del target[draw(st.sampled_from(sorted(target)))]
    else:
        header["architecture"] = draw(st.sampled_from(ARCHITECTURES))
        header["model"] = draw(st.sampled_from(sorted(MODEL_HOPS)))
        header["degree_cap"] = draw(st.sampled_from([None, 100, 5]))
    return _join(prefix, json.dumps(header, sort_keys=True).encode("utf-8"), payload)


def _header_model(blob: bytes) -> str:
    """The summary model a checkpoint's header names, or ac2 where it names
    none a run takes, so that a run gets past comparing the two."""
    try:
        model = _split(blob)[1]["model"]
    except (ValueError, KeyError, TypeError, RecursionError):  # no header, or not an object
        return "ac2"
    return model if isinstance(model, str) and model in MODEL_HOPS else "ac2"


@BOUNDED
@given(data=st.data())
def test_checkpoint_bytes(files, data):
    blob = data.draw(checkpoint_bytes(files["checkpoint"]))
    files["input"].write_bytes(blob)
    model = _header_model(blob)
    for argv in (["eval", "--model", model, "--ckpt", str(files["input"])],
                 ["lifelong", "--model", model, "--time-warp", str(files["input"]),
                  "--iterations", "1"]):
        run([*argv, "--in", files["snapshot"], "--out", files["out"]])


CELLS = st.one_of(st.floats().map(repr), st.integers(-5, 5).map(str), TEXT,
                  st.sampled_from(["", "nan", "1e400", "0.5"]))


@st.composite
def matrix_bytes(draw):
    """Raw bytes, or comma-separated rows of numbers and text."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=120))
    n = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(CELLS, min_size=n, max_size=n + 2), max_size=n + 2))
    return "\n".join(",".join(row) for row in rows).encode("utf-8")


@BOUNDED
@given(data=matrix_bytes())
def test_report_matrix_bytes(files, data):
    files["input"].write_bytes(data)
    run(["report", "--matrix", str(files["input"]), "--out", files["out"]])


TERMS = st.sampled_from(["<http://a>", "<http://b>", "<http://p>", "_:x", '"lit"', '"x"@en',
                         '"1"^^<http://t>', "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>",
                         "<bad iri>", '"open', ".", "#", ""])


@st.composite
def snapshot_bytes(draw):
    """Raw bytes, or lines of three or four terms, mostly ending in ``.``."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=160))
    lines = draw(st.lists(st.tuples(st.lists(TERMS, min_size=2, max_size=4),
                                    st.sampled_from([" .", "", " . x"])), max_size=8))
    return "".join(" ".join(terms) + end + "\n" for terms, end in lines).encode("utf-8")


@BOUNDED
@given(data=snapshot_bytes(), model=st.sampled_from(sorted(MODEL_HOPS)))
def test_snapshot_bytes(files, data, model):
    files["input"].write_bytes(data)
    run(["summarize", "--model", model, "--in", str(files["input"]), "--out", files["out"]])
