"""Loading tracker configurations from dataset profiles and JSON files.

Profiles are data, not code: one JSON file per benchmark carrying that
benchmark's association hyper-parameters. Every JSON config enters through
``_from_dict``: unknown keys are rejected so a typo cannot silently fall
back to a default, and each value is checked against its field's type.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from importlib import resources

from .tracker import TrackerConfig

__all__ = ["PROFILE_NAMES", "load_profile", "config_from_dict"]

PROFILE_NAMES = ("mot17", "mot20", "dancetrack", "bdd100k", "waymo", "tao")


def _checked(key: str, value, tp):
    """``value`` checked against the type hint ``tp``; lists become tuples,
    of any length for ``tuple[X, ...]``. Raises a ValueError naming ``key``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _checked(key, value, tp)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or (not variadic and len(value) != len(args)):
            size = "" if variadic else f"{len(args)} "
            raise ValueError(f"{key} must be a list of {size}values, got {value!r}")
        items = args[:1] * len(value) if variadic else args
        return tuple(_checked(f"{key}[{i}]", v, a) for i, (v, a) in enumerate(zip(value, items)))
    expected = (int, float) if tp is float else tp
    if not isinstance(value, expected) or (tp is not bool and isinstance(value, bool)):
        raise ValueError(f"{key} must be {tp.__name__}, got {value!r}")
    return value


def _from_dict(cls, data, name: str, base=None):
    """A ``cls`` dataclass built from the flat mapping ``data``, or ``base``
    with the given fields replaced. Errors call the document ``name``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    values = {k: _checked(k, v, hints[k]) for k, v in data.items()}
    return cls(**values) if base is None else dataclasses.replace(base, **values)


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
