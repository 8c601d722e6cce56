"""Tracker configurations, the one field check of every config, and
loading configs from dataset profiles and JSON files.

Profiles are data, not code: one JSON file per benchmark carrying that
benchmark's association hyper-parameters. Every frozen config calls
``check_fields`` from its ``__post_init__``, whether it is built in Python,
by ``dataclasses.replace`` or from JSON by ``_from_dict``, which also
rejects unknown keys so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import types
import typing
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

__all__ = ["PROFILE_NAMES", "TrackerConfig", "load_profile", "config_from_dict"]

PROFILE_NAMES = ("mot17", "mot20", "dancetrack", "bdd100k", "waymo", "tao")

# what a scalar hint accepts: numpy scalars too; a bool is neither int nor float
_ACCEPTED = {int: numbers.Integral, float: numbers.Real, bool: (bool, np.bool_)}
_hints = functools.cache(typing.get_type_hints)  # each call costs tens of µs


def _checked(key: str, value, tp):
    """``value`` checked against the type hint ``tp``; a list, tuple or
    array becomes a tuple, of any length for ``tuple[X, ...]``. Raises a
    ValueError naming ``key`` and the index path within it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _checked(key, value, tp)
    if origin is tuple:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or (not variadic and len(value) != len(args)):
            size = "" if variadic else f"{len(args)} "
            raise ValueError(f"{key} must be a list of {size}values, got {value!r}")
        items = args[:1] * len(value) if variadic else args
        return tuple(_checked(f"{key}[{i}]", v, a) for i, (v, a) in enumerate(zip(value, items)))
    if not isinstance(value, _ACCEPTED.get(tp, tp)) or (
            tp is not bool and isinstance(value, (bool, np.bool_))):
        raise ValueError(f"{key} must be {tp.__name__}, got {value!r}")
    return value


def check_fields(obj) -> None:
    """Check each field of the frozen dataclass ``obj`` against its type
    hint, and hold each list given for a tuple field as a tuple."""
    for name, tp in _hints(type(obj)).items():
        object.__setattr__(obj, name, _checked(name, getattr(obj, name), tp))


def check_range(obj, names, ok, rule: str) -> None:
    """Raise "<name> must be <rule>, got <value>" for the first of ``names`` failing ``ok``."""
    for name in names:
        v = getattr(obj, name)
        if not ok(v):
            raise ValueError(f"{name} must be {rule}, got {v}")


@dataclass(frozen=True)
class TrackerConfig:
    """All association and track-management thresholds.

    Defaults follow the BDD100K benchmark profile; other profiles ship as
    data files in embedtrack.profiles. Frozen, so a variant comes from
    ``dataclasses.replace``, which checks it again.
    """

    beta_obj: float = 0.35
    beta_new: float = 0.5
    memory_frames: int = 10  # inactive tracks kept this many frames (K)
    backdrop_frames: int = 1  # backdrop lifetime in frames (L)
    momentum: float = 0.8
    nms_threshold: float = 0.65  # 1.0 keeps every box
    det_confidence: float = 0.1
    similarity_metric: str = "bisoftmax"  # or "cosine" (ablation only)
    distance_gate: float | None = None
    merge: bool = False  # fold young tracks into vanished ones (merge_tracklets)
    interpolate: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        check_range(self, ("beta_obj", "beta_new", "momentum", "nms_threshold", "det_confidence"),
                    lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check_range(self, ("memory_frames", "backdrop_frames"), lambda v: v >= 0, "an int >= 0")
        check_range(self, ("distance_gate",), lambda v: v is None or v >= 0.0, ">= 0")
        if self.similarity_metric not in ("bisoftmax", "cosine"):
            raise ValueError(f"unknown similarity metric {self.similarity_metric!r}")
        if self.beta_new < self.beta_obj:
            warnings.warn(
                f"beta_new ({self.beta_new}) < beta_obj ({self.beta_obj}); "
                "low-confidence detections may spawn tracks",
                stacklevel=2,
            )


def _from_dict(cls, data, name: str, base=None):
    """A ``cls`` dataclass built from the flat mapping ``data``, or ``base``
    with the given fields replaced. Errors call the document ``name``."""
    try:
        unknown = data.keys() - {f.name for f in dataclasses.fields(cls)}
    except AttributeError:
        raise ValueError(f"{name} must be a JSON object, got {type(data).__name__}") from None
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    return cls(**data) if base is None else dataclasses.replace(base, **data)


def config_from_dict(data: dict, base: TrackerConfig | None = None) -> TrackerConfig:
    """Build a TrackerConfig from a plain dict, or override ``base`` with it."""
    return _from_dict(TrackerConfig, data, "tracker config", base)


def load_profile(name: str) -> TrackerConfig:
    """Load a benchmark profile by name."""
    if name not in PROFILE_NAMES:
        raise ValueError(
            f"unknown profile {name!r}; available: {', '.join(PROFILE_NAMES)}"
        )
    text = resources.files("embedtrack.profiles").joinpath(f"{name}.json").read_text()
    return config_from_dict(json.loads(text))
