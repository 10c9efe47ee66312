"""Synthetic detector simulator for closed-loop pipeline testing.

Generates procedural lesion scenes (random ellipse axes and orientation
turned into diameter annotations), renders their ground-truth heatmap
bundles, and degrades them controllably: dropped keypoint kernels, jittered
peak cells, spurious peaks, and additive Gaussian noise. With all
degradation at zero the simulated bundle is bit-identical to the rendered
target, which anchors the end-to-end tests.

Everything is driven by a single splitmix64 stream with a fixed draw order:
per lesion, per keypoint role (3 uniforms each, drawn whether used or not),
then spurious peaks per map, then noise in plane-by-plane raster order.
Identical seeds therefore give bit-identical bundles regardless of
configuration details that happen to ignore some draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import RecistAnnotation
from .geometry import (
    BBox,
    Point2,
    bbox_from_extremes,
    extremes_from_recist,
    flip_horizontal,
    ordered_diameters,
    pad_bbox,
)
from .grouping import GroupingConfig, _enumerate_rows
from .rng import SplitMix64
from .targets import (
    EXTREME_ROLES,
    KEYPOINT_CHANNELS,
    HeatmapBundle,
    TargetBundle,
    draw_gaussian,
    draw_keypoint,
    keypoint_cell,
    lesion_radius,
    output_grid,
    render_targets,
)

# Endpoint coordinates snap to this sub-pixel lattice. 1/16 px keeps scenes
# effectively continuous while making coordinate / stride exact in binary
# floating point for power-of-two strides, so offset round trips are exact.
QUANTUM = 1.0 / 16.0

# Scene sampling: long diameters in mm at 1 mm/px spacing, short/long
# aspect, the smallest tight-box side in px, and draws per lesion. The
# narrow size band keeps every kernel radius at 3 cells at stride 4.
_SIZE_RANGE_MM = (44.0, 47.0)
_SPACING = (1.0, 1.0, 1.0)
_ASPECT_RANGE = (0.9, 1.0)
_MIN_BOX_SIDE = 40.0
_MAX_ATTEMPTS = 500
_BOX_PAD = 5.0  # px added on each side of a tight box


@dataclass(frozen=True, slots=True)
class DegradationConfig:
    """How hard to corrupt a rendered bundle.

    ``noise_sigma`` adds clamped Gaussian noise to the five keypoint maps
    (offset planes stay exact). Each keypoint kernel is dropped with
    ``peak_drop_prob``; surviving kernels move uniformly within
    ``jitter_cells`` cells per axis. Spurious peaks arrive Poisson
    (``spurious_rate``) per map with scores uniform in
    (``spurious_score_min``, 1), never within 2 cells of a true peak.
    """

    noise_sigma: float = 0.0
    peak_drop_prob: float = 0.0
    spurious_rate: float = 0.0
    jitter_cells: int = 0
    seed: int = 0
    spurious_score_min: float = 0.1
    spurious_radius: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_drop_prob <= 1.0:
            raise ValueError("peak_drop_prob must lie in [0, 1]")
        if self.noise_sigma < 0.0 or self.spurious_rate < 0.0:
            raise ValueError("noise_sigma and spurious_rate must be >= 0")
        if self.jitter_cells < 0:
            raise ValueError("jitter_cells must be >= 0")
        if not 0.0 <= self.spurious_score_min < 1.0:
            raise ValueError("spurious_score_min must lie in [0, 1)")
        if self.spurious_radius < 1:
            raise ValueError("spurious_radius must be >= 1")


@dataclass
class SyntheticScene:
    """A procedurally generated image's worth of lesion annotations."""

    image_size: tuple[int, int]  # (width, height) px
    annotations: list[RecistAnnotation]
    seed: int

    def extremes(self):
        return [ann.extremes() for ann in self.annotations]


def _quantize(v: float) -> float:
    return math.floor(v / QUANTUM + 0.5) * QUANTUM


def _axis_gaps(a: BBox, b: BBox) -> tuple[float, float]:
    """Per-axis interval separation of two boxes; negative when overlapping."""
    return (max(b.x1 - a.x2, a.x1 - b.x2), max(b.y1 - a.y2, a.y1 - b.y2))


def _decodes_to_itself(
    extremes_list,
    image_size: tuple[int, int],
    stride: int,
    min_overlap: float,
    sigma_divisor: float,
    tau_c: float,
) -> bool:
    """Whether grouping a clean rendering yields exactly these lesions.

    On a clean bundle each role's peaks are exactly the true keypoint
    cells, so only the center plane needs drawing: grouping's own
    enumeration then runs on those cells and must keep the n true
    quadruples and nothing else.
    """
    center_map = np.zeros(output_grid(image_size, stride), dtype=np.float32)
    truth = np.empty((len(extremes_list), 4, 2))  # (row, col) per extreme role
    for i, e in enumerate(extremes_list):
        *cells, center = (keypoint_cell(p, stride) for p in e.points())
        radius = lesion_radius(e, stride, min_overlap)
        draw_gaussian(center_map, center, radius, sigma_divisor=sigma_divisor)
        truth[i] = cells
    # each role's peaks as grouping's (3, n) rows, columns and scores of 1.0
    peaks = {
        role: np.vstack((truth[:, j].T, np.ones(len(truth))))
        for j, role in enumerate(EXTREME_ROLES)
    }
    kept = _enumerate_rows(peaks, center_map, GroupingConfig(tau_c=tau_c))
    found = [] if kept is None else kept.rows[:, [1, 0, 3, 2, 5, 4, 7, 6]].tolist()
    return sorted(found) == sorted(truth.reshape(-1, 8).tolist())


def generate_scene(
    n_lesions: int,
    image_size: tuple[int, int] = (768, 768),
    seed: int = 0,
    min_gap: float = 16.0,
    max_restarts: int = 50,
    clearance_stride: int | None = 4,
    clearance_tau: float = 0.1,
    min_overlap: float = 0.3,
    sigma_divisor: float = 3.0,
) -> SyntheticScene:
    """Sample non-overlapping elliptical lesions, deterministic per seed.

    Each lesion draws (length, aspect, angle, center x, center y); the long
    diameter runs along the angle, the short one perpendicular through the
    same center. Endpoints snap to the 1/16-px lattice. A draw is rejected
    and retried when the lesion's tight box has a side below
    ``_MIN_BOX_SIDE`` (keeps its Gaussian kernels wide enough for grouping
    at stride 4), any keypoint leaves the padded image interior, or its
    padded box comes within ``min_gap`` of an already placed one in either
    axis (lesions never share a row or column band, so swapping extremes
    between two lesions cannot reproduce either one's center). Together
    with the narrow size band these make the clearance check below pass
    within a few redraws even for five lesions.

    Unless ``clearance_stride`` is None, a finished arrangement is also
    grouped as a clean rendering at that stride (with ``min_overlap``,
    ``sigma_divisor`` and center threshold ``clearance_tau``) and redrawn
    unless grouping keeps exactly its own lesions, so a clean rendering of
    the scene decodes to exactly those lesions. Packing failure after
    ``_MAX_ATTEMPTS`` draws per lesion and ``max_restarts`` arrangement
    attempts raises ValueError, as does, before any draw, a scene whose
    padded boxes cannot fit side by side on both axes (with ``min_gap`` >=
    0). Generation consumes a variable but seed-deterministic number of
    random draws.
    """
    rng = SplitMix64(seed)
    width, height = image_size
    need = n_lesions * (_MIN_BOX_SIDE + 2 * _BOX_PAD) + (n_lesions - 1) * min_gap
    if n_lesions > 0 and min_gap >= 0 and need > min(width, height) - 1:
        raise ValueError(
            f"could not place {n_lesions} lesion(s) in {width}x{height}: their "
            f"padded boxes need {need:g} px along each axis"
        )

    for _restart in range(max_restarts):
        placed_boxes: list[BBox] = []
        annotations: list[RecistAnnotation] = []
        feasible = True

        for index in range(n_lesions):
            for _attempt in range(_MAX_ATTEMPTS):
                u = rng.uniforms(5)
                long_mm = _SIZE_RANGE_MM[0] + u[0] * (
                    _SIZE_RANGE_MM[1] - _SIZE_RANGE_MM[0]
                )
                aspect = _ASPECT_RANGE[0] + u[1] * (
                    _ASPECT_RANGE[1] - _ASPECT_RANGE[0]
                )
                theta = u[2] * math.pi
                cx = u[3] * (width - 1)
                cy = u[4] * (height - 1)

                a = long_mm / _SPACING[0] / 2.0
                b = a * aspect
                ct, st = math.cos(theta), math.sin(theta)
                points = [
                    Point2(_quantize(cx + a * ct), _quantize(cy + a * st)),
                    Point2(_quantize(cx - a * ct), _quantize(cy - a * st)),
                    Point2(_quantize(cx - b * st), _quantize(cy + b * ct)),
                    Point2(_quantize(cx + b * st), _quantize(cy - b * ct)),
                ]
                diameters = ordered_diameters(*points)
                extremes = extremes_from_recist(diameters)
                tight = bbox_from_extremes(extremes)
                padded = pad_bbox(tight, _BOX_PAD)

                if tight.width < _MIN_BOX_SIDE or tight.height < _MIN_BOX_SIDE:
                    continue
                if not (
                    padded.x1 >= 0
                    and padded.y1 >= 0
                    and padded.x2 <= width - 1
                    and padded.y2 <= height - 1
                ):
                    continue
                if any(
                    min(_axis_gaps(padded, other)) < min_gap
                    for other in placed_boxes
                ):
                    continue

                placed_boxes.append(padded)
                annotations.append(
                    RecistAnnotation(
                        file_name=f"syn_{seed}",
                        diameters=diameters,
                        bbox=padded,
                        lesion_type=(index % 8) + 1,
                        diameters_px=(
                            diameters.long_length,
                            diameters.short_length,
                        ),
                        spacing=_SPACING,
                        split="test",
                    )
                )
                break
            else:
                feasible = False
                break

        if not feasible:
            continue
        if clearance_stride is not None and not _decodes_to_itself(
            [ann.extremes() for ann in annotations],
            image_size,
            clearance_stride,
            min_overlap,
            sigma_divisor,
            clearance_tau,
        ):
            continue
        return SyntheticScene(
            image_size=image_size, annotations=annotations, seed=seed
        )

    raise ValueError(
        f"could not place {n_lesions} lesion(s) in {width}x{height} after "
        f"{max_restarts} arrangement attempts"
    )


def flip_scene(scene: SyntheticScene) -> SyntheticScene:
    """The same scene as seen in a horizontally mirrored image."""
    width = scene.image_size[0]
    flipped = []
    for ann in scene.annotations:
        d = ann.diameters
        diameters = ordered_diameters(
            flip_horizontal(d.long_a, width),
            flip_horizontal(d.long_b, width),
            flip_horizontal(d.short_a, width),
            flip_horizontal(d.short_b, width),
        )
        flipped.append(
            RecistAnnotation(
                file_name=ann.file_name,
                diameters=diameters,
                bbox=flip_horizontal(ann.bbox, width),
                lesion_type=ann.lesion_type,
                diameters_px=ann.diameters_px,
                spacing=ann.spacing,
                split=ann.split,
            )
        )
    return SyntheticScene(
        image_size=scene.image_size, annotations=flipped, seed=scene.seed
    )


def render_scene(
    scene: SyntheticScene,
    stride: int = 4,
    min_overlap: float = 0.3,
    sigma_divisor: float = 3.0,
) -> TargetBundle:
    """Ground-truth targets for a scene at the given stride."""
    out_h, out_w = output_grid(scene.image_size, stride)
    return render_targets(
        scene.extremes(),
        out_h,
        out_w,
        stride,
        min_overlap=min_overlap,
        sigma_divisor=sigma_divisor,
        input_size=scene.image_size,
    )


def simulate_heatmaps(
    scene: SyntheticScene,
    cfg: DegradationConfig = DegradationConfig(),
    stride: int = 4,
    min_overlap: float = 0.3,
    sigma_divisor: float = 3.0,
) -> HeatmapBundle:
    """Render the scene's targets through a controllable degradation model.

    With a zero configuration the output equals ``render_scene(...)``'s
    bundle bit for bit. Offsets stay exact except at dropped peaks (absent)
    and jittered peaks (the fraction is written at the moved cell, so the
    recovered coordinate inherits the jitter error).
    """
    rng = SplitMix64(cfg.seed)
    out_h, out_w = output_grid(scene.image_size, stride)
    bundle = HeatmapBundle.zeros(out_h, out_w, stride, scene.image_size)

    true_cells: dict[str, list[tuple[int, int]]] = {
        role: [] for role in KEYPOINT_CHANNELS
    }
    span = 2 * cfg.jitter_cells + 1

    for ann in scene.annotations:
        extremes = ann.extremes()
        radius = lesion_radius(extremes, stride, min_overlap)

        for role_idx, (role, p) in enumerate(
            zip(KEYPOINT_CHANNELS, extremes.points())
        ):
            u_drop = rng.uniform()
            u_jx = rng.uniform()
            u_jy = rng.uniform()
            if u_drop < cfg.peak_drop_prob:
                continue
            row, col = keypoint_cell(p, stride)
            if cfg.jitter_cells > 0:
                row += min(int(u_jy * span), span - 1) - cfg.jitter_cells
                col += min(int(u_jx * span), span - 1) - cfg.jitter_cells
                row = min(max(row, 0), out_h - 1)
                col = min(max(col, 0), out_w - 1)
            draw_keypoint(bundle, role_idx, (row, col), p, radius, sigma_divisor)
            true_cells[role].append((row, col))

    for role_idx, role in enumerate(KEYPOINT_CHANNELS):
        count = rng.poisson(cfg.spurious_rate)
        for _ in range(count):
            for _attempt in range(100):
                u_row = rng.uniform()
                u_col = rng.uniform()
                u_score = rng.uniform()
                row = min(int(u_row * out_h), out_h - 1)
                col = min(int(u_col * out_w), out_w - 1)
                near_true = any(
                    max(abs(row - tr), abs(col - tc)) <= 2
                    for tr, tc in true_cells[role]
                )
                if near_true:
                    continue
                score = cfg.spurious_score_min + u_score * (
                    1.0 - cfg.spurious_score_min
                )
                draw_gaussian(
                    bundle.keypoint_maps[role_idx], (row, col),
                    cfg.spurious_radius, peak=score,
                    sigma_divisor=sigma_divisor,
                )
                break

    if cfg.noise_sigma > 0.0:
        # one draw per plane: a single five-plane draw is the same stream
        # only for even H*W, and its temporaries fall out of cache
        for plane in bundle.keypoint_maps:
            noise = rng.gaussians(out_h * out_w).reshape(out_h, out_w)
            # clip(plane + sigma * noise), computed in float64 in place
            noise *= cfg.noise_sigma
            noise += plane
            np.clip(noise, 0.0, 1.0, out=noise)
            plane[...] = noise

    return bundle
