"""Flat key = value run configuration with CLI overrides.

Precedence: command-line flags beat the SUMLIFE_SEED environment variable,
which beats the config file, which beats the documented defaults.  Unknown
keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

SEED_ENV_VAR = "SUMLIFE_SEED"


@dataclass
class RunConfig:
    snapshots: list[str] = field(default_factory=list)
    timestamps: list[str] = field(default_factory=list)
    model: str = "ac1"  # ac1 | ac2
    architecture: str = "mlp"  # mlp | graph-mlp | gcn | gcn-edges
    hidden_size: str = ""  # e.g. "1024" or "32,32"; empty uses the architecture default
    dropout: float | None = None
    learning_rate: float | None = None
    alpha: float = 1.0
    tau: float = 2.0
    normalize_adjacency: bool = False
    iterations: int = 100
    batch_cap: int = 1000
    seed: int = 42
    degree_cap: int | None = None  # None: 100 for ac2, unlimited for ac1
    degree_mode: str = "total"  # total | out | in
    restart: str = "warm"  # warm | cold
    threads: int = 1
    include_rdf_types: bool = False
    zero_init_growth: bool = False
    out_dir: str = "out"

    def __post_init__(self):
        if self.model not in ("ac1", "ac2"):
            raise ConfigError(f"unknown summary model {self.model!r}")
        if self.architecture not in ("mlp", "graph-mlp", "gcn", "gcn-edges"):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.architecture == "gcn-edges" and self.model != "ac2":
            raise ConfigError(f"architecture gcn-edges needs model ac2, not {self.model!r}")
        if self.restart not in ("warm", "cold"):
            raise ConfigError(f"restart must be warm or cold, got {self.restart!r}")
        if self.degree_mode not in ("total", "out", "in"):
            raise ConfigError(f"degree_mode must be total/out/in, got {self.degree_mode!r}")
        if self.iterations < 1 or self.batch_cap < 1 or self.threads < 1:
            raise ConfigError("iterations, batch_cap and threads must be >= 1")

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
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, list) else v
        return out


_BOOL_KEYS = {"normalize_adjacency", "include_rdf_types", "zero_init_growth"}
_INT_KEYS = {"iterations", "batch_cap", "seed", "threads"}
_OPT_INT_KEYS = {"degree_cap"}
_FLOAT_KEYS = {"alpha", "tau"}
_OPT_FLOAT_KEYS = {"dropout", "learning_rate"}
_LIST_KEYS = {"snapshots", "timestamps"}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key in _LIST_KEYS:
        return [x.strip() for x in raw.split(",") if x.strip()]
    if key in _BOOL_KEYS:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if key in _INT_KEYS or key in _OPT_INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS or key in _OPT_FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    known = {f.name for f in fields(RunConfig)}
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
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_config(file_path: str | Path | None, overrides: dict) -> RunConfig:
    """Merge defaults, config file, SUMLIFE_SEED and CLI overrides (in that order)."""
    values: dict = {}
    if file_path is not None:
        values.update(parse_config_file(file_path))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
