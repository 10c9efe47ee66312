"""Run configuration: defaults, config-file loading, and flag overrides.

A run is configured from three layers, later ones winning: built-in
defaults, an optional JSON config file, and explicit command-line flags.
Unknown keys anywhere in the file are rejected rather than ignored, and the
effective configuration is echoed into every output artifact so results
stay attributable.
"""

from __future__ import annotations

import copy
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping

from .dataio import InputFormatError, is_finite_number, load_json
from .evaluation import EvalConfig
from .fusion import SoftNmsConfig
from .grouping import GroupingConfig
from .losses import FocalParams
from .targets import RenderConfig

# config sections whose keys and defaults are the fields of a library type,
# in the order build_sections checks them
SECTION_TYPES = {
    "grouping": GroupingConfig,
    "soft_nms": SoftNmsConfig,
    "focal": FocalParams,
    "eval": EvalConfig,
    "render": RenderConfig,
}

DEFAULTS: dict[str, Any] = {
    **{name: asdict(cls()) for name, cls in SECTION_TYPES.items()},
    # (level, width) pairs for multi-window CT display normalization
    "window_presets": [[50, 449], [-505, 1980], [446, 1960]],
}


def _check_type(where: str, value: Any, default: Any) -> None:
    """A value must have its default's JSON type; ints also pass as floats."""
    if isinstance(default, (int, float)):
        kinds = int if isinstance(default, int) else (int, float)
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise InputFormatError(
            f"config key {where} must be of type {type(default).__name__}, "
            f"got {value!r}"
        )


def _all_finite(value: Any) -> bool:
    """No NaN, infinity or integer too large for a float anywhere in a JSON
    value: the echo must stay JSON, and numbers are used as floats."""
    if isinstance(value, float) or type(value) is int:  # a bool is no number
        return is_finite_number(value)
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def merge(base: dict, override: Mapping, path: str = "") -> dict:
    """``override`` layered over ``base``; unknown keys, wrong types and
    non-finite numbers raise."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise InputFormatError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, Mapping):
                raise InputFormatError(f"config key {where} must be an object")
            out[key] = merge(base[key], value, where)
        else:
            _check_type(where, value, base[key])
            if not _all_finite(value):
                raise InputFormatError(
                    f"config key {where} must be finite, got {value!r}"
                )
            out[key] = value
    return out


def load_config(path: str | Path | None) -> dict[str, Any]:
    """Defaults merged with an optional JSON config file."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    data = load_json(path)
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: config root must be an object")
    return merge(DEFAULTS, data)


def build_sections(cfg: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a merged config and build its typed sections.

    Returns one instance per ``SECTION_TYPES`` entry. A value the library
    rejects raises :class:`InputFormatError` naming its section.
    """
    built = {}
    for name, cls in SECTION_TYPES.items():
        try:
            built[name] = cls(**cfg[name])
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"config section {name}: {exc}") from None
    return built
