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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dataio import BOX_PADDING, RecistAnnotation
from .geometry import (
    BBox,
    Point2,
    flip_horizontal,
    ordered_diameters,
    pad_bbox,
)
from .grouping import GroupingConfig, Peaks, enumerate_quadruples
from .rng import SplitMix64
from .targets import (
    EXTREME_ROLES,
    KEYPOINT_CHANNELS,
    HeatmapBundle,
    RenderConfig,
    TargetBundle,
    _draw_lesions,
    _zero_planes,
    draw_gaussian,
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

# Spurious peaks: the lowest score and the kernel radius in cells.
_SPURIOUS_SCORE_MIN = 0.1
_SPURIOUS_RADIUS = 2


@dataclass(frozen=True, slots=True)
class DegradationConfig:
    """How hard to corrupt a rendered bundle.

    ``noise_sigma`` adds clamped Gaussian noise to the five keypoint maps
    (offset planes stay exact). Each keypoint kernel is dropped with
    ``peak_drop_prob``; surviving kernels move uniformly within
    ``jitter_cells`` cells per axis. Spurious peaks arrive Poisson
    (``spurious_rate``) per map with scores uniform in
    (``_SPURIOUS_SCORE_MIN``, 1), never within 2 cells of a true peak.
    """

    noise_sigma: float = 0.0
    peak_drop_prob: float = 0.0
    spurious_rate: float = 0.0
    jitter_cells: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.peak_drop_prob <= 1.0:
            raise ValueError("peak_drop_prob must lie in [0, 1]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.spurious_rate < 0.0:
            raise ValueError("spurious_rate must be >= 0")
        if self.jitter_cells < 0:
            raise ValueError("jitter_cells must be >= 0")


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


def _axis_gaps(a, b) -> tuple[float, float]:
    """Per-axis interval separation of two (x1, y1, x2, y2) boxes; negative
    when overlapping."""
    return (max(b[0] - a[2], a[0] - b[2]), max(b[1] - a[3], a[1] - b[3]))


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
    cells, so grouping's own enumeration runs on those cells and the
    rendered center plane, the only plane drawn or read, and must keep the
    n true quadruples and nothing else.
    """
    center = _zero_planes(1, *output_grid(image_size, stride))[0]
    true_cells = []

    def center_only(cells):  # record the extremes' cells, draw the center
        true_cells.append(cells[:4])
        return [None] * 4 + cells[4:]

    # no extreme is drawn, so the center plane stands in for every keypoint
    # plane and there are no offset planes
    _draw_lesions(
        [center] * 5, None, stride, extremes_list, min_overlap, sigma_divisor,
        center_only,
    )
    # (row, col) per lesion and extreme role
    truth = np.array(true_cells, dtype=float).reshape(-1, 4, 2)
    # each role's peaks: the true rows and columns, with scores of 1.0
    arrays = np.ones((len(EXTREME_ROLES), 3, len(truth)))
    arrays[:, :2] = truth.transpose(1, 2, 0)
    peaks = {role: Peaks(role, a) for role, a in zip(EXTREME_ROLES, arrays)}
    kept = enumerate_quadruples(peaks, center, GroupingConfig(tau_c=tau_c))
    found = kept.rows[:, [1, 0, 3, 2, 5, 4, 7, 6]].tolist()
    return sorted(found) == sorted(truth.reshape(-1, 8).tolist())


def generate_scene(
    n_lesions: int,
    image_size: tuple[int, int] = (768, 768),
    seed: int = 0,
    min_gap: float = 16.0,
    max_restarts: int = 50,
    clearance_stride: int | None = RenderConfig.stride,
    clearance_tau: float = GroupingConfig().tau_c,
    min_overlap: float = RenderConfig.min_overlap,
    sigma_divisor: float = RenderConfig.sigma_divisor,
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
    need = n_lesions * (_MIN_BOX_SIDE + 2 * BOX_PADDING) + (n_lesions - 1) * min_gap
    if n_lesions > 0 and min_gap >= 0 and need > min(width, height) - 1:
        raise ValueError(
            f"could not place {n_lesions} lesion(s) in {width}x{height}: their "
            f"padded boxes need {need:g} px along each axis"
        )

    for _restart in range(max_restarts):
        placed_boxes: list[tuple[float, float, float, float]] = []
        annotations: list[RecistAnnotation] = []
        feasible = True

        for index in range(n_lesions):
            for _attempt in range(_MAX_ATTEMPTS):
                # five scalar draws: the values of rng.uniforms(5), without
                # its fixed numpy cost on every attempt
                u = [rng.uniform() for _ in range(5)]
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
                # long endpoints, then short ones; the tight box is the min
                # and max of the endpoints, exactly the box of their extremes
                xs = (
                    _quantize(cx + a * ct), _quantize(cx - a * ct),
                    _quantize(cx - b * st), _quantize(cx + b * st),
                )
                ys = (
                    _quantize(cy + a * st), _quantize(cy - a * st),
                    _quantize(cy + b * ct), _quantize(cy - b * ct),
                )
                x1, x2, y1, y2 = min(xs), max(xs), min(ys), max(ys)
                if x2 - x1 < _MIN_BOX_SIDE or y2 - y1 < _MIN_BOX_SIDE:
                    continue
                padded = pad_bbox(BBox(x1, y1, x2, y2), BOX_PADDING).as_tuple()
                if not (
                    padded[0] >= 0
                    and padded[1] >= 0
                    and padded[2] <= width - 1
                    and padded[3] <= height - 1
                ):
                    continue
                if any(
                    min(_axis_gaps(padded, other)) < min_gap
                    for other in placed_boxes
                ):
                    continue

                placed_boxes.append(padded)
                diameters = ordered_diameters(*map(Point2, xs, ys))
                annotations.append(
                    RecistAnnotation(
                        file_name=f"syn_{seed}",
                        diameters=diameters,
                        bbox=BBox(*padded),
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
    flipped = [
        dataclasses.replace(
            ann,
            diameters=ordered_diameters(
                *(flip_horizontal(p, width) for p in ann.diameters.endpoints())
            ),
            bbox=flip_horizontal(ann.bbox, width),
        )
        for ann in scene.annotations
    ]
    return dataclasses.replace(scene, annotations=flipped)


def render_scene(
    scene: SyntheticScene,
    stride: int = RenderConfig.stride,
    min_overlap: float = RenderConfig.min_overlap,
    sigma_divisor: float = RenderConfig.sigma_divisor,
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
    stride: int = RenderConfig.stride,
    min_overlap: float = RenderConfig.min_overlap,
    sigma_divisor: float = RenderConfig.sigma_divisor,
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
    span = 2 * cfg.jitter_cells + 1
    n_roles = len(KEYPOINT_CHANNELS)
    # (drop, jitter x, jitter y) uniforms per lesion and role, in draw order
    draws = rng.uniforms(3 * n_roles * len(scene.annotations))
    lesion_draws = iter(draws.reshape(-1, n_roles, 3).tolist())

    def degrade(cells):
        """A lesion's cells, each dropped (None) or jittered by its draws."""
        moved = []
        for (row, col), (u_drop, u_jx, u_jy) in zip(cells, next(lesion_draws)):
            if u_drop < cfg.peak_drop_prob:
                moved.append(None)
                continue
            if cfg.jitter_cells > 0:
                row += min(int(u_jy * span), span - 1) - cfg.jitter_cells
                col += min(int(u_jx * span), span - 1) - cfg.jitter_cells
                row = min(max(row, 0), out_h - 1)
                col = min(max(col, 0), out_w - 1)
            moved.append((row, col))
        return moved

    extremes = scene.extremes()
    drawn, _ = _draw_lesions(
        bundle.keypoint_maps, bundle.offset_maps, stride, extremes, min_overlap,
        sigma_divisor, degrade,
    )
    for role_idx in range(n_roles):
        true_cells = [c[role_idx] for c in drawn if c[role_idx] is not None]
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
                    for tr, tc in true_cells
                )
                if near_true:
                    continue
                score = _SPURIOUS_SCORE_MIN + u_score * (1.0 - _SPURIOUS_SCORE_MIN)
                draw_gaussian(
                    bundle.keypoint_maps[role_idx], (row, col),
                    _SPURIOUS_RADIUS, peak=score,
                    sigma_divisor=sigma_divisor,
                )
                break

    if cfg.noise_sigma > 0.0:
        # one draw per plane: a single five-plane draw is the same stream
        # only for even H*W, and its temporaries fall out of cache
        for plane in bundle.keypoint_maps.reshape(len(KEYPOINT_CHANNELS), -1):
            _add_clipped_noise(rng, plane, cfg.noise_sigma)

    return bundle


# Box-Muller's even output is radius * cos(angle) and its odd output
# radius * sin(angle), with angle in [0, 2 pi). Inside these angle ranges
# cos (and sin) is at most about -1e-6, far beyond libm's error, so a
# skipped cell never rests on how libm rounds near a zero crossing.
_MARGIN = 1e-6
_NEGATIVE_COS = (math.pi / 2 + _MARGIN, 1.5 * math.pi - _MARGIN)
_NEGATIVE_SIN = (math.pi + _MARGIN, 2.0 * math.pi - _MARGIN)


def _add_clipped_noise(rng: SplitMix64, plane: np.ndarray, sigma: float) -> None:
    """``plane[:] = clip(plane + sigma * rng.gaussians(plane.size), 0, 1)``,
    bit for bit, on a flat float32 plane.

    It draws the same uniforms as ``gaussians``. A cell that holds +0.0 and
    whose normal is certainly negative clips to the +0.0 it already holds,
    so it is skipped; about half the cells of a mostly empty plane are.
    Every other cell runs ``gaussians``' float64 operations in the same
    order, then the scale, the add and the clip.
    """
    n = plane.size
    u = rng.uniforms(n + n % 2)
    angle = u[1::2]
    angle *= 2.0 * math.pi
    lit = plane.view(np.uint32) != 0  # any bits but +0.0, so -0.0 too
    for parity, trig, (lo, hi) in ((0, np.cos, _NEGATIVE_COS),
                                   (1, np.sin, _NEGATIVE_SIN)):
        a = angle[: (n + 1 - parity) // 2]
        keep = a < lo
        keep |= a > hi
        keep |= lit[parity::2]
        first = 2 * np.flatnonzero(keep)  # each kept pair's radius uniform
        radius = np.negative(u[first])
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        noise = trig(u[first + 1])
        noise *= radius
        with np.errstate(over="ignore"):  # a huge sigma's +-inf clips to 0 or 1
            noise *= sigma
        cells = first + parity
        noise += plane[cells]
        np.clip(noise, 0.0, 1.0, out=noise)
        plane[cells] = noise
