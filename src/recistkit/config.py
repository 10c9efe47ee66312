"""Run configuration: the typed sections and their defaults, the effective
config of a run, and the error type, text decoder and JSON reader of inputs.

A run is configured from three layers, later ones winning: built-in
defaults, an optional JSON config file, and explicit command-line flags;
:func:`effective` layers them. Unknown keys anywhere in the file are
rejected rather than ignored, and the effective configuration is echoed
into every output artifact so results stay attributable.

Each config section is a frozen dataclass defined here, whose fields are the
section's keys and whose class attributes are its defaults; it alone judges
its values, from a file, a flag or a library call. The module that runs a
section re-exports it (``grouping.GroupingConfig`` is ``GroupingConfig``).
``DegradationConfig``, the settings of ``simulate`` that are flags only, is
defined here in the same form and re-exported by ``synthetic``. This module
imports no other recistkit module, so a command pays only for the modules it
runs.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Literal, Mapping, Sequence

import numpy as np

# Grid sizes and strides are integers in [1, MAX_HEADER_INT]. The bound
# keeps stride * (cell + offset) finite in float64 for every finite float32
# offset, so the detections of a readable bundle can be written.
MAX_HEADER_INT = 2**31 - 1

FP_TARGETS_DEFAULT = (0.5, 1.0, 2.0, 3.0, 4.0)


class InputFormatError(Exception):
    """A file failed to parse or violated its declared schema."""


def decode_text(data: bytes, where: str | Path) -> str:
    """``data`` as UTF-8 text after an optional byte-order mark, the decoding of
    every text input; other bytes raise InputFormatError naming ``where``."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{where}: not UTF-8 text: {exc}") from None


def load_json(path: str | Path, data: bytes | None = None) -> dict:
    """Parse ``data``, by default the file at ``path``, as strict JSON with an
    object at the root: text :func:`decode_text` refuses, a NaN or Infinity
    token, malformed JSON, an integer literal too long to convert, nesting
    past the parser's recursion limit or another root raise InputFormatError
    naming ``path``."""
    import json  # only a run that reads JSON pays for the import

    def reject(token: str):
        raise InputFormatError(f"{path}: non-finite number {token} is not JSON")

    text = decode_text(Path(path).read_bytes() if data is None else data, path)
    try:
        doc = json.loads(text, parse_constant=reject)
    except ValueError as exc:  # JSONDecodeError, the int digit limit
        raise InputFormatError(f"{path}: malformed JSON: {exc}") from None
    except RecursionError:
        raise InputFormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: JSON root must be an object")
    return doc


def is_finite_number(value) -> bool:
    """A JSON number (not a bool) that is neither NaN nor infinite; an int
    too large for a float is not finite either."""
    try:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:
        return False


def check_fp_targets(values: Sequence[float]) -> None:
    """FPs-per-image targets must be a non-empty list, tuple or 1-D array of
    finite numbers >= 0, a numpy scalar judged as the Python number it holds."""
    rule = "FP targets must be a non-empty list of finite numbers >= 0"
    if not (isinstance(values, (list, tuple))
            or isinstance(values, np.ndarray) and values.ndim == 1):
        raise ValueError(f"{rule}, got {values!r}")
    targets = [v.item() if isinstance(v, np.generic) else v for v in values]
    if not targets or not all(is_finite_number(v) and v >= 0 for v in targets):
        raise ValueError(f"{rule}, got {targets!r}")


@functools.cache
def _bounds(interval: str) -> tuple[float, float, bool, bool]:
    """The ends of an interval written as in ``"[0, 1]"`` or ``"(0, inf)"``,
    and whether each is open."""
    lo, hi = map(float, interval[1:-1].split(", "))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


def _check_numbers(section, **intervals: str) -> None:
    """The rule of every numeric config field: raise ValueError naming the
    first field of ``intervals`` whose value in ``section`` is not a number
    inside the field's interval and finite as a float64, or is not an
    integer where the field's default is one. A bool is neither; numpy
    scalars pass."""
    defaults = type(section)
    for name, interval in intervals.items():
        value = getattr(section, name)
        integral = type(getattr(defaults, name)) is int
        # a plain int, or a plain float in a float field, skips the slower
        # abstract-class checks
        if type(value) is not int and (type(value) is not float or integral) and (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integral else numbers.Real)
        ):
            kind = "an integer" if integral else "a number"
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        lo, hi, lo_open, hi_open = _bounds(interval)
        if not (
            (lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)
        ):  # NaN too
            raise ValueError(f"{name} must lie in {interval}, got {value!r}")
        if abs(value) > sys.float_info.max:  # an integer too large for a float
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GroupingConfig:
    """Thresholds and caps for the grouping pipeline.

    ``tau_e``/``tau_c`` are strict lower bounds on extreme / center scores,
    ``k1`` caps peaks kept per map, ``k2`` caps retained combinations, and
    ``kernel`` is the odd window size for peak suppression. ``center_interp``
    selects how the center map is sampled at fractional coordinates.
    """

    tau_e: float = 0.1
    tau_c: float = 0.1
    k1: int = 40
    k2: int = 100
    kernel: int = 3
    center_interp: Literal["nearest", "bilinear"] = "nearest"

    def __post_init__(self) -> None:
        _check_numbers(self, tau_e="[0, 1]", tau_c="[0, 1]", k1="[1, inf)",
                       k2="[1, inf)", kernel="[1, inf)")
        if self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd, got {self.kernel!r}")
        if self.center_interp not in ("nearest", "bilinear"):
            raise ValueError(f"unknown center_interp {self.center_interp!r}")


@dataclass(frozen=True)
class SoftNmsConfig:
    """Decay law and floor for Soft-NMS.

    ``gaussian`` decays every overlapping score by exp(-iou^2 / sigma);
    ``linear`` scales by (1 - iou) once the overlap exceeds
    ``linear_iou_threshold``. Detections whose score falls below
    ``score_floor`` are dropped.
    """

    sigma: float = 0.5
    score_floor: float = 0.001
    method: Literal["gaussian", "linear"] = "gaussian"
    linear_iou_threshold: float = 0.3

    def __post_init__(self) -> None:
        _check_numbers(self, sigma="(0, inf)", score_floor="[0, inf)",
                       linear_iou_threshold="[0, 1]")
        if self.method not in ("gaussian", "linear"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class FocalParams:
    """Exponents and log-clamping for the penalty-reduced focal loss.

    ``alpha`` weights easy predictions down, ``beta`` reduces the penalty on
    cells near (but not at) a ground-truth peak. Predictions are clamped to
    [clamp_eps, 1 - clamp_eps] before the logs.
    """

    alpha: float = 2.0
    beta: float = 4.0
    clamp_eps: float = 1e-12

    def __post_init__(self) -> None:
        _check_numbers(self, alpha="(0, inf)", beta="[0, inf)", clamp_eps="(0, 0.5)")


@dataclass(frozen=True)
class EvalConfig:
    """How detections are scored, and the library's defaults for it: a
    detection box padded by ``pad`` px matches a lesion at IoU >=
    ``iou_threshold``, and sensitivity is read at the ``fp_targets``
    FPs-per-image rates, a list as in a config file (its default is
    ``FP_TARGETS_DEFAULT``), refused as :func:`check_fp_targets` refuses
    them."""

    iou_threshold: float = 0.5
    pad: float = 5.0
    fp_targets: list[float] = field(default_factory=lambda: list(FP_TARGETS_DEFAULT))

    def __post_init__(self) -> None:
        _check_numbers(self, iou_threshold="[0, 1]", pad="[0, inf)")
        check_fp_targets(self.fp_targets)


@dataclass(frozen=True)
class RenderConfig:
    """How ground truth is rendered, and the library's defaults for it:
    ``stride`` input px per output cell, ``input_size`` the side of a square
    input, and the kernel rule, radius from a box IoU of ``min_overlap`` and
    sigma = radius / ``sigma_divisor``."""

    stride: int = 4
    input_size: int = 511
    min_overlap: float = 0.3
    sigma_divisor: float = 3.0

    def __post_init__(self) -> None:
        sizes = f"[1, {MAX_HEADER_INT}]"
        _check_numbers(self, stride=sizes, input_size=sizes, min_overlap="(0, 1)",
                       sigma_divisor=f"(0, {MAX_HEADER_INT}]")


@dataclass(frozen=True)
class DegradationConfig:
    """How hard ``simulate`` corrupts a rendered bundle; not a config section.

    ``noise_sigma`` adds clamped Gaussian noise to the five keypoint maps
    (offset planes stay exact). Each keypoint kernel is dropped with
    ``peak_drop_prob``; surviving kernels move uniformly within
    ``jitter_cells`` cells per axis. Spurious peaks arrive Poisson
    (``spurious_rate``) per map with scores uniform in
    (``synthetic._SPURIOUS_SCORE_MIN``, 1), never within 2 cells of a true
    peak.
    """

    noise_sigma: float = 0.0
    peak_drop_prob: float = 0.0
    spurious_rate: float = 0.0
    jitter_cells: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_numbers(self, noise_sigma="[0, inf)", peak_drop_prob="[0, 1]",
                       spurious_rate="[0, inf)", jitter_cells="[0, inf)",
                       seed="(-inf, inf)")


# config sections whose keys and defaults are the fields of a library type,
# in the order effective checks them
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


def merge(base: dict, override: Mapping, path: str = "") -> dict:
    """``override`` layered over ``base``; an unknown key, or an object where
    ``base`` holds none or the reverse, raises. Sections judge the values."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise InputFormatError(f"unknown config key: {where}")
        nested = isinstance(base[key], dict)
        if nested != isinstance(value, Mapping):
            no = "" if nested else "not "
            raise InputFormatError(f"config key {where} must {no}be an object")
        out[key] = merge(base[key], value, where) if nested else value
    return out


def _finite(value: Any) -> bool:
    """No NaN, infinity or integer too large for a float in a JSON value."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not (isinstance(value, float) or type(value) is int) or (
        is_finite_number(value))


def effective(
    path: str | Path | None, overrides: Mapping[str, Any]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The config of a run and its typed sections.

    Layers the defaults, the JSON config file at ``path`` (if any) and
    ``overrides``, and after each layer builds one instance per
    ``SECTION_TYPES`` entry, so the file is judged whole, even a value an
    override replaces, before the overrides are. Each layer raises
    :class:`InputFormatError` for its structure, then for ``window_presets``,
    the one key with no section, then for a value its section refuses,
    naming the section and quoting the section type's ``ValueError``.
    """
    cfg = DEFAULTS
    for layer in [overrides] if path is None else [load_json(path), overrides]:
        cfg = merge(cfg, layer)
        presets = cfg["window_presets"]
        if not (isinstance(presets, list) and _finite(presets)):
            raise InputFormatError(f"config key window_presets must be a list "
                                   f"whose numbers are finite, got {presets!r}")
        sections = {}
        for name, cls in SECTION_TYPES.items():
            try:
                sections[name] = cls(**cfg[name])
            except (TypeError, ValueError) as exc:
                raise InputFormatError(f"config section {name}: {exc}") from None
    return cfg, sections
