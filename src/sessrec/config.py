"""Declarative run configuration: one YAML file covering every stage.

Unknown keys are rejected and all validation problems are reported at once.
Defaults mirror the reference training setup (embedding dim 100, batch 100,
Adam lr 0.001 decayed by 0.1 every 3 epochs, L2 1e-5, window epsilon 3,
12 neighbors kept, 10% validation).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .model import ModelConfig
from .train import TrainConfig


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        sep = " " if len(self.problems) == 1 else "\n  "
        super().__init__("invalid configuration:" + sep + sep.join(self.problems))


@dataclass
class CorpusConfig:
    delimiter: str | None = None  # None: auto-detect comma/tab
    min_item_freq: int = 5
    min_session_len: int = 2
    test_window_days: float = 7.0
    validation_fraction: float = 0.1

    def __post_init__(self):
        problems = [msg for bad, msg in (
            (self.min_item_freq < 1, "min_item_freq must be >= 1"),
            (self.min_session_len < 2, "min_session_len must be >= 2"),
            (self.test_window_days <= 0, "test_window_days must be > 0"),
            (not 0 <= self.validation_fraction < 1, "validation_fraction must be in [0, 1)"),
        ) if bad]
        if problems:
            raise ValueError("\n".join(problems))


@dataclass
class GraphConfig:
    epsilon: int = 3
    top_n: int = 12

    def __post_init__(self):
        problems = [msg for bad, msg in (
            (self.epsilon < 1, "epsilon must be >= 1"),
            (self.top_n < 1, "top_n must be >= 1"),
        ) if bad]
        if problems:
            raise ValueError("\n".join(problems))


@dataclass
class PathsConfig:
    events: str | None = None
    work_dir: str | None = None
    checkpoint: str | None = None


@dataclass
class RunConfig:
    seed: int = 1
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def fingerprint(self) -> str:
        """Hash of the semantic configuration (paths excluded)."""
        data = dataclasses.asdict(self)
        data.pop("paths", None)
        blob = json.dumps(data, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_SECTIONS = {
    "corpus": CorpusConfig,
    "graph": GraphConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "paths": PathsConfig,
}

def _coerce(value, target_type, keypath, problems):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        problems.append(f"{keypath}: expected a boolean, got {value!r}")
        return None
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"{keypath}: expected an integer, got {value!r}")
            return None
        return value
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{keypath}: expected a number, got {value!r}")
            return None
        return float(value)
    if target_type is str:
        if not isinstance(value, str):
            problems.append(f"{keypath}: expected a string, got {value!r}")
            return None
        return value
    return value


def validate_config(data: dict | None) -> RunConfig:
    """Type-check, range-check and default-fill a raw config mapping.

    All problems are aggregated into a single ConfigError.
    """
    data = dict(data or {})
    problems: list[str] = []
    kwargs: dict = {}

    if "seed" in data:
        seed = data.pop("seed")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            problems.append(f"seed: expected a non-negative integer, got {seed!r}")
        else:
            kwargs["seed"] = seed

    section_values: dict[str, dict] = {}
    for section, cls in _SECTIONS.items():
        raw = data.pop(section, None)
        if raw is None:  # absent, or an empty section (`model:`)
            raw = {}
        if not isinstance(raw, dict):
            problems.append(f"{section}: expected a mapping")
            continue
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for key, value in raw.items():
            if key not in fields:
                problems.append(f"{section}.{key}: unknown key")
                continue
            if value is None:
                continue  # explicit null keeps the default
            ftype = fields[key].type
            base = {"int": int, "float": float, "bool": bool, "str": str,
                    "str | None": str}.get(ftype, None)
            coerced = _coerce(value, base, f"{section}.{key}", problems) if base else value
            if coerced is not None:
                values[key] = coerced
        section_values[section] = values

    for key in data:
        problems.append(f"{key}: unknown top-level key")

    # the run seed drives training unless train.seed is set explicitly
    if "seed" not in section_values.get("train", {}):
        section_values.setdefault("train", {})["seed"] = kwargs.get("seed", 1)
    # default patience follows a small max_epochs instead of rejecting it
    tvals = section_values.setdefault("train", {})
    if "patience" not in tvals and "max_epochs" in tvals:
        tvals["patience"] = min(TrainConfig().patience, tvals["max_epochs"])

    for section, cls in _SECTIONS.items():
        try:
            kwargs[section] = cls(**section_values.get(section, {}))
        except ValueError as exc:  # one line per failed rule
            problems.extend(f"{section}: {line}" for line in str(exc).splitlines())
    if problems:
        raise ConfigError(problems)
    return RunConfig(**kwargs)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load a YAML config file (empty or missing path -> all defaults) and
    apply nested `overrides` before validation."""
    data = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                loaded = yaml.safe_load(f)
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path}: {exc.strerror}"]) from None
        except UnicodeDecodeError:
            raise ConfigError([f"config file {path} is not UTF-8 text"]) from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1})" if mark else ""
            raise ConfigError([f"config file {path} is not valid YAML{where}"]) from None
        if loaded is not None:
            if not isinstance(loaded, dict):
                raise ConfigError([f"config file {path} must contain a mapping"])
            data = loaded
    for section, values in (overrides or {}).items():
        if isinstance(values, dict):
            if data.get(section) is None:
                data[section] = {}
            if isinstance(data[section], dict):  # validate_config reports any other value
                data[section].update({k: v for k, v in values.items() if v is not None})
        elif values is not None:
            data[section] = values
    return validate_config(data)


def dump_config(cfg: RunConfig) -> str:
    return yaml.safe_dump(dataclasses.asdict(cfg), sort_keys=True)
