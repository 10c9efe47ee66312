"""Synthetic detector simulator for closed-loop pipeline testing.

Generates procedural lesion scenes (random ellipse axes and orientation
turned into diameter annotations), renders their ground-truth heatmap
bundles, and degrades them controllably: dropped keypoint kernels, jittered
peak cells, spurious peaks, and additive Gaussian noise. With all
degradation at zero the simulated bundle is bit-identical to the rendered
target, which anchors the end-to-end tests. The simulator draws from the
same table of lesion cells, offsets and kernel radii that ``render_targets``
draws: the degradation only selects and moves its cells, as arrays.

Everything is driven by a single splitmix64 stream with a fixed draw order:
per lesion, per keypoint role (3 uniforms each, drawn whether used or not),
then spurious peaks per map, then noise: one stream of Box-Muller uniform
pairs over the five keypoint planes in raster order, each plane rounding
its cell count up to even, where pair q's radius uniform is noise draw
2q + 1 and its angle uniform noise draw 2q + 2. Identical seeds therefore
give bit-identical bundles regardless of configuration details that happen
to ignore some draws.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import DegradationConfig
from .dataio import BOX_PADDING, RecistAnnotation, _long_first
from .geometry import pad_bbox
from .grouping import GroupingConfig, Peaks, enumerate_quadruples
from .rng import _INV_2_53, SplitMix64
from .targets import (
    EXTREME_ROLES,
    KEYPOINT_CHANNELS,
    HeatmapBundle,
    RenderConfig,
    _draw_lesions,
    _lesion_cells,
    _zero_planes,
    draw_gaussian,
    output_grid,
)

# Endpoint coordinates snap to this sub-pixel lattice. 1/16 px keeps scenes
# effectively continuous while making coordinate / stride exact in binary
# floating point for power-of-two strides, so offset round trips are exact.
QUANTUM = 1.0 / 16.0

# Scene sampling: long diameters in mm at 1 mm/px spacing, short/long
# aspect, the smallest tight-box side in px, the least gap in px between
# padded boxes, draws per lesion, and arrangement attempts per scene. The
# narrow size band keeps every kernel radius at 3 cells at stride 4.
_SIZE_RANGE_MM = (44.0, 47.0)
_SPACING = (1.0, 1.0, 1.0)
_ASPECT_RANGE = (0.9, 1.0)
_MIN_BOX_SIDE = 40.0
_MIN_GAP = 16.0
_MAX_ATTEMPTS = 500
_MAX_RESTARTS = 50

# Spurious peaks: the lowest score and the kernel radius in cells.
_SPURIOUS_SCORE_MIN = 0.1
_SPURIOUS_RADIUS = 2


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
    render: RenderConfig,
    grouping: GroupingConfig,
) -> bool:
    """Whether grouping a clean rendering yields exactly these lesions.

    On a clean bundle each role's peaks are exactly the true keypoint
    cells, so grouping's own enumeration, with the whole ``grouping``
    section as ``detect`` runs it, runs on those cells and the center
    plane rendered by ``render``'s stride and kernel rule, the only plane
    drawn or read, and must keep the n true quadruples and nothing else.
    """
    stride = render.stride
    out_h, out_w = output_grid(image_size, stride)
    cells, offsets, radii = _lesion_cells(
        extremes_list, stride, out_h, out_w, render.min_overlap
    )
    center = _zero_planes(1, out_h, out_w)
    # only the center kernels are drawn: no extreme, so no offset planes
    _draw_lesions(
        center, None, cells[:, 4:], offsets[:, :0], radii, render.sigma_divisor,
        np.ones((len(radii), 1), dtype=bool),
    )
    # (row, col) per lesion and extreme role
    truth = cells[:, :4].astype(float)
    # each role's peaks: the true rows and columns, with scores of 1.0
    arrays = np.ones((len(EXTREME_ROLES), 3, len(truth)))
    arrays[:, :2] = truth.transpose(1, 2, 0)
    peaks = {role: Peaks(role, a) for role, a in zip(EXTREME_ROLES, arrays)}
    kept = enumerate_quadruples(peaks, center[0], grouping)
    found = kept.rows[:, [1, 0, 3, 2, 5, 4, 7, 6]].tolist()
    return sorted(found) == sorted(truth.reshape(-1, 8).tolist())


def generate_scene(
    n_lesions: int,
    image_size: tuple[int, int] = (768, 768),
    seed: int = 0,
    render: RenderConfig = RenderConfig(),
    grouping: GroupingConfig = GroupingConfig(),
) -> SyntheticScene:
    """Sample non-overlapping elliptical lesions, deterministic per seed.

    Each lesion draws (length, aspect, angle, center x, center y); the long
    diameter runs along the angle, the short one perpendicular through the
    same center. Endpoints snap to the 1/16-px lattice. A draw is rejected
    and retried when the lesion's tight box has a side below
    ``_MIN_BOX_SIDE`` (keeps its Gaussian kernels wide enough for grouping
    at stride 4), any keypoint leaves the padded image interior, or its
    padded box comes within ``_MIN_GAP`` of an already placed one in either
    axis (lesions never share a row or column band, so swapping extremes
    between two lesions cannot reproduce either one's center). Together
    with the narrow size band these make the clearance check below pass
    within a few redraws even for five lesions.

    A finished arrangement is also grouped as a clean rendering, drawn by
    the ``render`` section's stride and kernel rule and enumerated with
    the whole ``grouping`` section, and redrawn unless grouping keeps
    exactly its own lesions, so a clean rendering of the scene decodes to
    exactly those lesions. Packing failure after ``_MAX_ATTEMPTS`` draws
    per lesion and ``_MAX_RESTARTS`` arrangement attempts raises
    ValueError, as do, before any draw, a negative ``n_lesions``, a
    ``grouping.k1`` or ``k2`` below ``n_lesions`` or a ``tau_e`` of 1.0 over
    any lesion (no arrangement could pass: a clean peak scores exactly 1.0
    and ``tau_e`` is a strict bound) and a scene whose padded boxes cannot
    fit side by side on both axes.
    Generation consumes a variable but seed-deterministic number of random
    draws.
    """
    if n_lesions < 0:
        raise ValueError(f"n_lesions must be >= 0, got {n_lesions!r}")
    for key, kept in (("k1", "peaks per map"), ("k2", "quadruples")):
        if getattr(grouping, key) < n_lesions:
            raise ValueError(
                f"grouping.{key} {getattr(grouping, key)} keeps fewer {kept} than "
                f"the {n_lesions} lesion(s) to place"
            )
    if n_lesions and grouping.tau_e >= 1.0:
        raise ValueError(
            f"grouping.tau_e {grouping.tau_e:g} keeps no clean peak: one scores "
            "exactly 1.0, and tau_e is a strict bound"
        )
    rng = SplitMix64(seed)
    width, height = image_size
    need = n_lesions * (_MIN_BOX_SIDE + 2 * BOX_PADDING) + (n_lesions - 1) * _MIN_GAP
    if n_lesions > 0 and need > min(width, height) - 1:
        raise ValueError(
            f"could not place {n_lesions} lesion(s) in {width}x{height}: their "
            f"padded boxes need {need:g} px along each axis"
        )

    for _restart in range(_MAX_RESTARTS):
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
                padded = pad_bbox((x1, y1, x2, y2), BOX_PADDING)
                if not (
                    padded[0] >= 0
                    and padded[1] >= 0
                    and padded[2] <= width - 1
                    and padded[3] <= height - 1
                ):
                    continue
                if any(
                    min(_axis_gaps(padded, other)) < _MIN_GAP
                    for other in placed_boxes
                ):
                    continue

                placed_boxes.append(padded)
                endpoints = _long_first([v for p in zip(xs, ys) for v in p])
                ax, ay, bx, by, cx, cy, dx, dy = endpoints
                annotations.append(
                    RecistAnnotation(
                        file_name=f"syn_{seed}",
                        endpoints=endpoints,
                        bbox=padded,
                        lesion_type=(index % 8) + 1,
                        diameters_px=(
                            math.hypot(ax - bx, ay - by),
                            math.hypot(cx - dx, cy - dy),
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
        if not _decodes_to_itself(
            [ann.extremes() for ann in annotations], image_size, render, grouping
        ):
            continue
        return SyntheticScene(
            image_size=image_size, annotations=annotations, seed=seed
        )

    raise ValueError(
        f"could not place {n_lesions} lesion(s) in {width}x{height} after "
        f"{_MAX_RESTARTS} arrangement attempts at clearance stride {render.stride}"
    )


def flip_scene(scene: SyntheticScene) -> SyntheticScene:
    """The same scene as seen in a horizontally mirrored image: every x
    maps to ``width - 1 - x``, so flipping twice is the identity."""
    mirror = scene.image_size[0] - 1.0
    flipped = [
        dataclasses.replace(
            ann,
            endpoints=_long_first([
                mirror - v if i % 2 == 0 else v for i, v in enumerate(ann.endpoints)
            ]),
            bbox=(mirror - ann.bbox[2], ann.bbox[1], mirror - ann.bbox[0], ann.bbox[3]),
        )
        for ann in scene.annotations
    ]
    return dataclasses.replace(scene, annotations=flipped)


def simulate_heatmaps(
    scene: SyntheticScene,
    cfg: DegradationConfig = DegradationConfig(),
    stride: int = RenderConfig.stride,
    min_overlap: float = RenderConfig.min_overlap,
    sigma_divisor: float = RenderConfig.sigma_divisor,
) -> HeatmapBundle:
    """Render the scene's targets through a controllable degradation model.

    With a zero configuration the output equals the bundle of
    ``render_targets`` for the scene's extremes at the same stride, kernel
    overlap and sigma divisor, bit for bit. Offsets stay exact except at
    dropped peaks (absent) and jittered peaks (the fraction is written at
    the moved cell, so the recovered coordinate inherits the jitter error).
    """
    rng = SplitMix64(cfg.seed)
    out_h, out_w = output_grid(scene.image_size, stride)
    bundle = HeatmapBundle.zeros(out_h, out_w, stride, scene.image_size)
    n_roles = len(KEYPOINT_CHANNELS)
    # (drop, jitter x, jitter y) uniforms per lesion and role, in draw order
    draws = rng.uniforms(3 * n_roles * len(scene.annotations)).reshape(-1, n_roles, 3)
    cells, offsets, radii = _lesion_cells(
        scene.extremes(), stride, out_h, out_w, min_overlap
    )
    # each cell is dropped, or jittered by its (y, x) draws and clipped to the
    # grid, in float64: exact while the jitter is below 2**52 cells
    drawn = draws[:, :, 0] >= cfg.peak_drop_prob
    if cfg.jitter_cells > 0:
        span = 2 * cfg.jitter_cells + 1
        steps = np.minimum(np.floor(draws[:, :, 2:0:-1] * span), span - 1)
        steps -= cfg.jitter_cells
        cells = np.clip(cells + steps, 0, [out_h - 1, out_w - 1]).astype(np.intp)
    _draw_lesions(
        bundle.keypoint_maps, bundle.offset_maps, cells, offsets, radii,
        sigma_divisor, drawn,
    )
    lesions = list(zip(cells.tolist(), drawn.tolist()))
    for role_idx in range(n_roles):
        true_cells = [c[role_idx] for c, kept in lesions if kept[role_idx]]
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
        _add_view_noise(rng, bundle.keypoint_maps, cfg.noise_sigma)

    return bundle


# Box-Muller's even output is radius * cos(angle) and its odd output
# radius * sin(angle), with angle in [0, 2 pi). Inside these angle ranges
# cos (and sin) is at most about -1e-6, far beyond libm's error, so a
# skipped cell never rests on how libm rounds near a zero crossing.
_MARGIN = 1e-6
_NEGATIVE_COS = (math.pi / 2 + _MARGIN, 1.5 * math.pi - _MARGIN)
_NEGATIVE_SIN = (math.pi + _MARGIN, 2.0 * math.pi - _MARGIN)
# (k >> 11) * (2**-53 * 2 pi) equals ((k >> 11) * 2**-53) * 2 pi, the angle
# of raw draw k, since both products with 2**-53 are exact
_ANGLE_SCALE = _INV_2_53 * (2.0 * math.pi)
# uniform pairs per block of the noise pass: the block's two draw arrays,
# its radii and angles over them, and the gathers of its kept cells stay
# near one core's L2 cache
_BLOCK = 1 << 15


def _add_view_noise(rng: SplitMix64, planes: np.ndarray, sigma: float) -> None:
    """``planes[:] = clip(planes + sigma * normals, 0, 1)`` on a
    C-contiguous stack of float32 planes of n cells, with one Box-Muller
    normal per cell, in float64, drawn ``_BLOCK`` uniform pairs at a time.

    Each plane draws n rounded up to even uniforms, so the stack's draws
    are one stream of pairs (u0, u1). A plane's pair j gives its cell 2j
    radius * cos(angle) and its cell 2j + 1, if any, radius * sin(angle),
    with radius sqrt(-2 log1p(-u0)), taken once per pair, and angle
    2 pi u1. A cell that holds +0.0 and whose normal is certainly negative
    clips to the +0.0 it already holds, so it is skipped; about half the
    cells of a mostly empty plane are. Every other cell runs cos or sin,
    the product with its radius, the scale, the add and the clip, in that
    order.
    """
    planes = planes.reshape(len(planes), -1)
    if planes.shape[1] % 2 == 0:
        # no pair spans two planes, so the stack is one long plane
        planes = planes.reshape(1, -1)
    per_plane = (planes.shape[1] + 1) // 2
    total = len(planes) * per_plane
    bits = planes.view(np.uint32)  # any bits but +0.0 (so -0.0 too) is lit
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        radius, angle = rng._u64_pairs(stop - start)
        # -u0 and the angle from the top 53 bits, in place: -u0 is exact
        for k, scale in ((radius, -_INV_2_53), (angle, _ANGLE_SCALE)):
            k >>= np.uint64(11)
            np.multiply(k, scale, out=k.view(np.float64))
        radius, angle = radius.view(np.float64), angle.view(np.float64)
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        # the block's run of pairs within each plane it touches
        for plane in range(start // per_plane, (stop - 1) // per_plane + 1):
            first = plane * per_plane
            lo, hi = max(start, first), min(stop, first + per_plane)
            pairs = slice(lo - start, hi - start)
            cells = slice(2 * (lo - first), 2 * (hi - first))
            for parity, trig, (neg_lo, neg_hi) in ((0, np.cos, _NEGATIVE_COS),
                                                   (1, np.sin, _NEGATIVE_SIN)):
                values = planes[plane, cells][parity::2]
                a = angle[pairs][: len(values)]
                keep = a < neg_lo
                keep |= a > neg_hi
                keep |= bits[plane, cells][parity::2] != 0
                kept = np.flatnonzero(keep)
                noise = a[kept]
                trig(noise, out=noise)
                noise *= radius[pairs][kept]
                with np.errstate(over="ignore"):  # +-inf clips to 0 or 1
                    noise *= sigma
                noise += values[kept]
                np.clip(noise, 0.0, 1.0, out=noise)
                values[kept] = noise
