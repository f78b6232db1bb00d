"""Run configuration: a strict YAML document with fixed sections.

Unknown keys are rejected so typos fail loudly; every command writes the
fully resolved configuration (defaults expanded) next to its outputs.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from .errors import ConfigError, InvalidParameterError
from .sampler import ProtocolConfig

DEFAULTS: dict = {
    "model": {
        "n": 2,
        "n_B": 0.0,
        "heating": False,
    },
    "grid": {
        "xi_max": 2.0,
        "r_max": 0.78,
        "d_xi": 0.02,
        "d_r": 0.02,
        # order-3 alternative: ranges of the 3-D complex grid
        "re_xi_max": 1.7,
        "im_xi_max": 1.7,
        "n_re": 10,
        "n_im": 10,
        "n_r": 3,
    },
    "shots": {
        "total": 1_600_000,
    },
    # every ProtocolConfig field, at its default
    "protocol": asdict(ProtocolConfig()),
    "rng": {
        "seed": 20240901,
    },
    "output": {
        "directory": "out",
    },
}


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as ``4e-5`` (YAML 1.1 needs a dot)."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"), list("-+.0123456789"))


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one command invocation."""

    model: dict
    grid: dict
    shots: dict
    protocol: dict
    rng: dict
    output: dict

    def as_dict(self) -> dict:
        return asdict(self)

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(**{key: int(value) if key == "cutoff" else float(value)
                                 for key, value in self.protocol.items()})

    @property
    def seed(self) -> int:
        return int(self.rng["seed"])

    @property
    def out_dir(self) -> Path:
        return Path(self.output["directory"])


def _merge_section(name: str, defaults: dict, given: dict) -> dict:
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(unknown)}")
    merged = copy.deepcopy(defaults)
    merged.update(given)
    return merged


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Read a YAML config file, merge defaults, and validate strictly."""
    raw: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        loaded = yaml.load(text, Loader=_Loader)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a mapping of sections")
        raw = loaded

    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    sections = {}
    for name, defaults in DEFAULTS.items():
        given = raw.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        sections[name] = _merge_section(name, defaults, given)

    if overrides:
        for name, entries in overrides.items():
            sections[name] = _merge_section(name, sections[name], entries)

    cfg = RunConfig(**sections)
    _validate(cfg)
    return cfg


def _type_ok(value, default) -> bool:
    """A float key takes any finite real, an int key an integer; a bool is not a number."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, type(default))


def _validate(cfg: RunConfig) -> None:
    for name, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            value = getattr(cfg, name)[key]
            if not _type_ok(value, default):
                kind = "a finite number" if isinstance(default, float) else type(default).__name__
                raise ConfigError(f"{name}.{key} must be {kind}, got {value!r}")
    if cfg.model["n"] not in (2, 3):
        raise ConfigError(f"model.n must be 2 or 3, got {cfg.model['n']}")
    if cfg.model["n_B"] < 0:
        raise ConfigError("model.n_B must be non-negative")
    if cfg.shots["total"] < 1:
        raise ConfigError("shots.total must be positive")
    for key in ("d_xi", "d_r"):
        if cfg.grid[key] <= 0:
            raise ConfigError(f"grid.{key} must be positive")
    try:
        cfg.protocol_config()
    except InvalidParameterError as exc:
        raise ConfigError(f"protocol: {exc}") from exc


def resolved_yaml(cfg: RunConfig) -> str:
    return yaml.safe_dump(cfg.as_dict(), sort_keys=True)
