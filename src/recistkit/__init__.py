"""Keypoint toolkit for RECIST-annotated lesion detection.

Lesions annotated with two clinical diameters are modeled as five
keypoints: the four directional extremes plus the geometric center. The
toolkit renders Gaussian heatmap training targets for those keypoints,
scores the two training losses, groups predicted heatmaps back into boxed
detections, fuses flip-augmented results with Soft-NMS, and evaluates
sensitivity at fixed false-positive rates. A seeded synthetic simulator
stands in for a trained network so the whole pipeline can be exercised
closed-loop.
"""

import sys

__version__ = "0.1.0"

# every public name, by the submodule that defines it; a name is imported
# on first use, so ``import recistkit`` loads no submodule (PEP 562)
_EXPORTS = {
    "config": (
        "DegradationConfig", "EvalConfig", "FocalParams", "GroupingConfig",
        "InputFormatError", "RenderConfig", "SoftNmsConfig",
    ),
    "dataio": (
        "ParseResult", "RecistAnnotation", "parse_annotations",
        "read_detections", "read_heatmaps", "write_annotations",
        "write_detections", "write_heatmaps",
    ),
    "evaluation": (
        "FrocPoint", "FrocResult", "MatchResult", "Strata", "evaluate", "froc",
        "match_detections", "stratified_froc",
    ),
    "fusion": ("fuse_tta", "soft_nms", "unflip_detections"),
    "geometry": ("ExtremePoints", "Point2", "pad_bbox"),
    "grouping": (
        "Detection", "Detections", "Peaks", "detect", "enumerate_quadruples",
        "extract_peaks", "refine_with_offsets",
    ),
    "losses": (
        "finite_diff_check", "focal_loss", "focal_loss_grad", "offset_loss",
        "offset_loss_grad",
    ),
    "synthetic": (
        "SyntheticScene", "flip_scene", "generate_scene", "simulate_heatmaps",
    ),
    "targets": (
        "HeatmapBundle", "TargetBundle", "gaussian_radius", "offset_target",
        "render_targets",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset([*_EXPORTS, "cli", "rng"])

__all__ = sorted(_SOURCE)


def _submodule(name: str):
    """Import submodule ``name`` as an import statement would, which also
    puts it in ``python -X importtime``'s report."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_SOURCE[name]), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
