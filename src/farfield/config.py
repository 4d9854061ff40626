"""One schema for the pipeline and simulation configs, and the one loader of both.

Each config section is a frozen dataclass whose fields are named as the
section's keys, hold their defaults and are checked once, in __post_init__.
from_json reads a JSON object into such a dataclass and to_json writes one
back; PipelineConfig is the pipeline config's root, and
simulate.SimulationConfig the simulation config's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

from farfield.diarize import DiarizeConfig
from farfield.errors import ConfigError, DataError, check_seed
from farfield.gss import GssConfig
from farfield.metrics import check_collar
from farfield.preprocess import ClipNormConfig, WpeConfig, check_fraction
from farfield.segments import check_threshold
from farfield.stft import StftParams


@dataclass(frozen=True)
class PreprocessConfig:
    """The preprocess section: clip normalisation's and WPE's settings under their
    keys, whether WPE runs, and the fraction of channels that the grid keeps."""

    percentile: float = ClipNormConfig.percentile
    target_peak: float = ClipNormConfig.target_peak
    wpe: bool = True
    wpe_taps: int = WpeConfig.taps
    wpe_delay: int = WpeConfig.delay
    wpe_iterations: int = WpeConfig.iterations
    block_seconds: float = WpeConfig.block_length
    selection_fraction: float = 0.8

    def __post_init__(self):
        # the two stage configs check their own ranges
        object.__setattr__(self, "clip_config", ClipNormConfig(self.percentile, self.target_peak))
        object.__setattr__(self, "wpe_config", WpeConfig(
            self.wpe_taps, self.wpe_delay, self.wpe_iterations, self.block_seconds))
        check_fraction(self.selection_fraction)  # preprocess.select_top_channels


@dataclass(frozen=True)
class FusionConfig:
    binarize_threshold: float = 0.5
    count_match_threshold: float = 0.5

    def __post_init__(self):
        check_threshold(self.binarize_threshold)  # segments.binarize
        check_threshold(self.count_match_threshold)  # fusion.soft_fuse


@dataclass(frozen=True)
class ScoreConfig:
    collar: float = 0.0

    def __post_init__(self):
        check_collar(self.collar)  # metrics.compute_der


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    stft: StftParams = StftParams()
    preprocess: PreprocessConfig = PreprocessConfig()
    diarize: DiarizeConfig = DiarizeConfig()
    fusion: FusionConfig = FusionConfig()
    gss: GssConfig = GssConfig()
    score: ScoreConfig = ScoreConfig()

    def __post_init__(self):
        check_seed(self.seed)  # diarize.gmm_cluster


# JSON type of a field's values, by its annotation
_JSON_TYPES = {"bool": "boolean", "int": "integer", "float": "number", "str": "string"}


def _json_type(value) -> str:
    for name, kind in (("boolean", bool), ("integer", int), ("number", float),
                       ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, kind):  # bool before int: True is an int in Python
            return name
    return "null" if value is None else type(value).__name__


def has_type(value, want: str) -> bool:
    """value is of JSON type want; an integer is a number, and NaN and the
    infinities, which json reads, are of no type."""
    if isinstance(value, float) and not math.isfinite(value):
        return False
    got = _json_type(value)
    return got == want or (want, got) == ("number", "integer")


def _keyed(cls) -> list:
    """cls's fields that a config key sets: all but those marked config_key False."""
    return [f for f in fields(cls) if f.metadata.get("config_key", True)]


def _check_type(f, where: str, value) -> None:
    """Reject a value of another JSON type than field f's: its annotation's, where
    `X | None` takes null too, or for a tuple a non-empty array of the type of its
    default's entries."""
    kind = f.type.removesuffix(" | None")  # annotations are strings in these modules
    if isinstance(f.default, tuple):
        want = f"a non-empty array of {_json_type(f.default[0])}s"
        ok = (isinstance(value, list) and bool(value)
              and all(has_type(v, _json_type(f.default[0])) for v in value))
    else:
        want = _JSON_TYPES[kind]
        ok = has_type(value, want) or (kind != f.type and value is None)
        want = want if kind == f.type else f"null or {want}"
    if not ok:
        raise ConfigError(f"{where}: expected {want}, got {value!r}")


def from_json(cls, raw: dict, path: str = ""):
    """cls from the JSON object raw, whose missing keys take cls's defaults.

    An unknown key, a value of another JSON type than its field's, or a value
    that cls rejects raises a ConfigError naming path + key; a value that cls
    rejects only with other keys' values names all given keys. A check that
    spans keys raises its own ConfigError, which names them.
    """
    keyed = {f.name: f for f in _keyed(cls)}
    values = {}
    for key, value in raw.items():
        if key not in keyed:
            raise ConfigError(f"unknown config key {path}{key}")
        f, where = keyed[key], path + key
        if is_dataclass(f.default):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected a mapping")
            values[key] = from_json(type(f.default), value, where + ".")
        else:
            _check_type(f, where, value)
            values[key] = tuple(value) if isinstance(value, list) else value

    def rejects(key) -> bool:
        try:
            cls(**{key: values[key]})
        except DataError:
            return True
        return False

    try:
        return cls(**values)
    except DataError as exc:
        keys = [key for key in values if rejects(key)] or list(values)  # else a combination
        raise ConfigError(", ".join(path + key for key in keys) + f": {exc}") from exc


def to_json(config) -> dict:
    """The JSON object of a config dataclass, keys in field order: from_json's inverse."""
    values = {f.name: getattr(config, f.name) for f in _keyed(type(config))}
    return {key: to_json(v) if is_dataclass(v) else list(v) if isinstance(v, tuple) else v
            for key, v in values.items()}
