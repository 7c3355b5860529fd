"""Pipeline configuration: defaults, key=value files, flag overrides.

Config files are plain text, one ``key = value`` per line, ``#`` starts
a comment. Keys match PipelineConfig field names; world generator knobs
use a ``world.`` prefix (e.g. ``world.n_users = 50``). The world takes
the pipeline's ``seed`` unless ``world.seed`` is set, and always its
``campus_ssid``, so the campus routers broadcast the ssid that featurize
looks for. Command-line flags override file values, which override
defaults.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import fileio
from .models import FEATURESETS, KIND_SHORT, MODEL_KINDS
from .records import DAY_S, TS_END
from .synthgen import FIXED, WorldConfig


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
    world: WorldConfig = field(default_factory=WorldConfig)

    def __post_init__(self) -> None:
        # any two timestamps ingest accepts lie less than TS_END apart, so a
        # larger window pairs, labels and counts popularity as TS_END does.
        # At TS_END the keys of pairing._strongest_sightings still fit an
        # int64 for up to about 3,480 users in a window. Those of
        # features._WindowPopularity do not depend on the window: they stay
        # below n_bssids * (the range of query times + 2), so they fit an
        # int64 for up to about 3.6e7 routers.
        if not 0 < self.delta_t_s <= TS_END:
            raise ConfigError(f"delta_t_s must lie in [1, {TS_END}]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
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

    @property
    def model_kind(self) -> str:
        return MODEL_KINDS[self.model]

    def data_hash(self) -> str:
        """Hash of every field, the world's fields and ``synthgen.FIXED``
        included, except four that shape neither the data nor the split.

        Featureset and model kind are the units being compared, so
        artifacts for different featuresets or model kinds trained on the
        same data share one hash; ``grid`` and ``strict_parse`` are left
        out too. Any other field, a new one too, is hashed.
        """
        unhashed = ("featureset", "model", "grid", "strict_parse")
        values = {key: value for key, value in asdict(self).items() if key not in unhashed}
        return fileio.config_hash({**values, "world": {**values["world"], **FIXED}})


def parse_config_file(path) -> dict[str, str]:
    """Read ``key = value`` lines into a string map."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or bytes not UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
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
# the type of every config key; world generator knobs take a "world." prefix,
# except campus_ssid, which the world takes from the pipeline
_KEY_TYPES = {
    **{f.name: _TYPE_NAMES[f.type] for f in fields(PipelineConfig) if f.name != "world"},
    **{f"world.{f.name}": _TYPE_NAMES[f.type] for f in fields(WorldConfig)
       if f.name != "campus_ssid"},
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

    # the world inherits the pipeline seed unless one was given explicitly,
    # and always broadcasts the campus ssid that featurize looks for
    world_kwargs.setdefault("seed", pipeline_kwargs.get("seed", PipelineConfig.seed))
    world_kwargs["campus_ssid"] = pipeline_kwargs.get("campus_ssid", PipelineConfig.campus_ssid)

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
