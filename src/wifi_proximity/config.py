"""Pipeline configuration: defaults, key=value files, flag overrides.

Config files are plain text, one ``key = value`` per line, ``#`` starts
a comment. Keys match PipelineConfig field names; world generator knobs
use a ``world.`` prefix (e.g. ``world.n_users = 50``). Command-line
flags override file values, which override defaults.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from . import fileio
from .models import FEATURESETS, KIND_SHORT, MODEL_KINDS
from .records import DAY_S
from .synthgen import WorldConfig


class ConfigError(Exception):
    """Invalid configuration value or file."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline stages need, with deployment defaults."""

    delta_t_s: int = 300
    home_bin_minutes: int = 10
    ambiguous_ssid_threshold: int = 5
    campus_ssid: str = "dtu"
    tz_offset_s: int = 0
    alpha: float = 0.05
    seed: int = 0
    featureset: str = "FULL"
    model: str = "gbt"
    grid: bool = False
    train_size: float = 0.5
    strict_parse: bool = False
    jobs: int = 1
    world: WorldConfig = field(default_factory=WorldConfig)

    def __post_init__(self) -> None:
        if self.delta_t_s <= 0:
            raise ConfigError("delta_t_s must be positive")
        if self.home_bin_minutes <= 0:
            raise ConfigError("home_bin_minutes must be positive")
        if not -DAY_S < self.tz_offset_s < DAY_S:
            raise ConfigError(f"tz_offset_s must lie within a day (|offset| < {DAY_S})")
        if self.ambiguous_ssid_threshold < 2:
            raise ConfigError("ambiguous_ssid_threshold must be at least 2")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")
        if not 0.0 < self.train_size < 1.0:
            raise ConfigError("train_size must be a fraction in (0, 1)")
        if self.featureset not in FEATURESETS:
            known = ", ".join(sorted(FEATURESETS))
            raise ConfigError(f"unknown featureset {self.featureset!r}; one of {known}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {', '.join(KIND_SHORT.values())}; "
                              f"got {self.model!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")

    @property
    def model_kind(self) -> str:
        return MODEL_KINDS[self.model]

    def data_hash(self) -> str:
        """Hash of every value that shapes the data and the split.

        Featureset and model kind are deliberately excluded: they are the
        units being compared, so artifacts for different featuresets or
        model kinds trained on the same data share one hash.
        """
        values = {
            "delta_t_s": self.delta_t_s,
            "home_bin_minutes": self.home_bin_minutes,
            "ambiguous_ssid_threshold": self.ambiguous_ssid_threshold,
            "campus_ssid": self.campus_ssid,
            "tz_offset_s": self.tz_offset_s,
            "alpha": self.alpha,
            "seed": self.seed,
            "train_size": self.train_size,
            "world": self.world.as_dict(),
        }
        return fileio.config_hash(values)


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines into a string map."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        values[key] = value
    return values


def _coerce(name: str, text: str, target_type) -> object:
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if target_type is tuple:
            return tuple(int(part) for part in text.split(",") if part.strip())
        return target_type(text)  # int, float or str
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


# dataclass field types arrive as strings under `from __future__ import
# annotations`; map them back to constructors
_TYPE_NAMES = {"int": int, "float": float, "str": str, "bool": bool, "tuple[int, ...]": tuple}
# the type of every config key; world generator knobs take a "world." prefix
_KEY_TYPES = {
    **{f.name: _TYPE_NAMES[f.type] for f in fields(PipelineConfig) if f.name != "world"},
    **{f"world.{f.name}": _TYPE_NAMES[f.type] for f in fields(WorldConfig)},
}


def _key_type(key: str):
    """The type of a config key; ConfigError for an unknown key."""
    if key not in _KEY_TYPES:
        what = "world config key" if key.startswith("world.") else "config key"
        raise ConfigError(f"unknown {what}: {key}")
    return _KEY_TYPES[key]


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Merge defaults, config-file values, and explicit overrides.

    ``file_values`` holds raw strings from parse_config_file;
    ``overrides`` holds already-typed values (e.g. from CLI flags) keyed
    the same way, with ``None`` entries ignored.
    """
    values = {key: _coerce(key, text, _key_type(key))
              for key, text in (file_values or {}).items()}
    values.update((key, value) for key, value in (overrides or {}).items()
                  if value is not None)
    pipeline_kwargs: dict = {}
    world_kwargs: dict = {}
    for key, value in values.items():
        _key_type(key)  # rejects an unknown override key
        if key.startswith("world."):
            world_kwargs[key[len("world."):]] = value
        else:
            pipeline_kwargs[key] = value

    # the world inherits the pipeline seed unless one was given explicitly
    world_kwargs.setdefault("seed", pipeline_kwargs.get("seed", PipelineConfig.seed))

    try:
        world = WorldConfig(**world_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid world config: {exc}") from exc
    try:
        return PipelineConfig(world=world, **pipeline_kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Config from an optional file plus typed overrides."""
    file_values = parse_config_file(path) if path else None
    return build_config(file_values, overrides)
