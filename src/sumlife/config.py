"""Flat key = value run configuration with CLI overrides.

Precedence: command-line flags beat the SUMLIFE_SEED environment variable,
which beats the config file, which beats the documented defaults.  Unknown
keys are rejected so typos fail loudly.

A config-file value and a string override, such as a flag value, are coerced
alike, to their ``RunConfig`` field annotations; a typed override is kept.
Choice lists are constants of the modules that implement them, in ``CHOICES``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .ingest import DEGREE_MODES
from .lifelong import RESTARTS
from .nets.network import ARCHITECTURES, FEATURE_ONLY
from .summarize import MODEL_HOPS

SEED_ENV_VAR = "SUMLIFE_SEED"

# the allowed values of each setting that has a fixed choice list
CHOICES = {"model": tuple(MODEL_HOPS), "architecture": ARCHITECTURES, "restart": RESTARTS,
           "degree_mode": DEGREE_MODES}
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
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"{key} must be {'/'.join(allowed)}, got {value!r}")
        if self.architecture == "gcn-edges" and self.model != "ac2":
            raise ConfigError(f"architecture gcn-edges needs model ac2, not {self.model!r}")
        if self.iterations < 1 or self.batch_cap < 1 or self.threads < 1:
            raise ConfigError("iterations, batch_cap and threads must be >= 1")
        if self.degree_cap is not None and self.degree_cap < 1:
            raise ConfigError(f"degree_cap must be >= 1, got {self.degree_cap}")
        if self.dropout is not None and not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        hidden = self.hidden_list()
        if hidden is not None:
            if not hidden or min(hidden) < 1:
                raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden_size!r}")
            if len(hidden) > 1 and self.architecture in FEATURE_ONLY:
                raise ConfigError(
                    f"architecture {self.architecture} takes one hidden size, got {self.hidden_size!r}"
                )

    def effective_degree_cap(self) -> int | None:
        if self.degree_cap is not None:
            return self.degree_cap
        return 100 if self.model == "ac2" else None

    def effective_timestamps(self) -> list[str]:
        if self.timestamps:
            if len(self.timestamps) != len(self.snapshots):
                raise ConfigError("timestamps and snapshots differ in length")
            return list(self.timestamps)
        return [Path(p).name.split(".")[0] for p in self.snapshots]

    def hidden_list(self) -> list[int] | None:
        if not self.hidden_size:
            return None
        try:
            return [int(x) for x in str(self.hidden_size).split(",") if x != ""]
        except ValueError as exc:
            raise ConfigError(f"bad hidden_size {self.hidden_size!r}") from exc

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
    except OSError as exc:
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
