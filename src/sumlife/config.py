"""Flat key = value run configuration with CLI overrides.

Precedence: command-line flags beat the SUMLIFE_SEED environment variable,
which beats the config file, which beats the documented defaults.  Unknown
keys are rejected so typos fail loudly.

A config-file value and a string override, such as a flag value, are coerced
alike, to their ``RunConfig`` field annotations; a typed override is kept.
Every field is then checked against its rule in ``nets.network.RULES``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .nets.network import Hyper, check, check_pairing, parse_hidden

SEED_ENV_VAR = "SUMLIFE_SEED"

# marks a setting only ``lifelong`` takes: the network and its training
LIFELONG_ONLY = {"lifelong_only": True}


@dataclass
class RunConfig:
    snapshots: list[str] = field(default_factory=list)
    timestamps: list[str] = field(default_factory=list)
    model: str = "ac1"
    architecture: str = field(default="mlp", metadata=LIFELONG_ONLY)
    hidden_size: str = field(default="", metadata=LIFELONG_ONLY)  # e.g. "32,32"; "": arch default
    dropout: float | None = field(default=None, metadata=LIFELONG_ONLY)
    learning_rate: float | None = field(default=None, metadata=LIFELONG_ONLY)
    alpha: float = field(default=1.0, metadata=LIFELONG_ONLY)
    tau: float = field(default=2.0, metadata=LIFELONG_ONLY)
    normalize_adjacency: bool = field(default=False, metadata=LIFELONG_ONLY)
    iterations: int = field(default=100, metadata=LIFELONG_ONLY)
    batch_cap: int = field(default=1000, metadata=LIFELONG_ONLY)
    seed: int = 42
    degree_cap: int | None = None  # None: 100 for ac2, unlimited for ac1
    degree_mode: str = "total"
    restart: str = field(default="warm", metadata=LIFELONG_ONLY)
    threads: int = 1
    include_rdf_types: bool = False
    zero_init_growth: bool = field(default=False, metadata=LIFELONG_ONLY)
    out_dir: str = "out"
    # the keys a config file, SUMLIFE_SEED or an override set (``build_config``)
    explicit = frozenset()

    def __post_init__(self):
        for f in fields(self):
            check(f.name, getattr(self, f.name))
        check_pairing(self.architecture, self.model)
        if self.timestamps and len(self.timestamps) != len(self.snapshots):
            raise ConfigError("timestamps and snapshots differ in length")
        self.hyper()  # one hidden size for an architecture that reads feature rows alone

    def effective_degree_cap(self) -> int | None:
        if self.degree_cap is not None:
            return self.degree_cap
        return 100 if self.model == "ac2" else None

    def effective_timestamps(self) -> list[str]:
        return list(self.timestamps) or [Path(p).name.split(".")[0] for p in self.snapshots]

    def hyper(self) -> Hyper:
        """The network settings, ``hidden_size`` parsed, as a ``Hyper`` resolved
        for this run's architecture."""
        hidden = parse_hidden(self.hidden_size) if self.hidden_size else None
        values = {f.name: getattr(self, f.name) for f in fields(Hyper) if f.name != "hidden"}
        return Hyper(hidden=hidden, **values).resolved(self.architecture)

    def to_dict(self) -> dict:
        return asdict(self)


FIELD_TYPES = get_type_hints(RunConfig)


def _coerce(key: str, raw: str):
    """``raw`` as the type ``RunConfig`` annotates ``key`` with."""
    raw = raw.strip()
    kind = FIELD_TYPES[key]
    if get_origin(kind) is list:
        return [x.strip() for x in raw.split(",") if x.strip()]
    (kind,) = [t for t in get_args(kind) or (kind,) if t is not type(None)]
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from exc


def parse_config_file(path: str | Path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_config(file_path: str | Path | None, overrides: dict) -> RunConfig:
    """Merge defaults, config file, SUMLIFE_SEED and CLI overrides (in that order);
    the result's ``explicit`` names every key that was not left at its default."""
    values: dict = {}
    if file_path is not None:
        values.update(parse_config_file(file_path))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    values.update({k: _coerce(k, v) if isinstance(v, str) and k in FIELD_TYPES else v
                   for k, v in overrides.items() if v is not None})
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.explicit = frozenset(values)
    return cfg
