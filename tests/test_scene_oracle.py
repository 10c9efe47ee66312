"""Scene generation on plain floats and the simulator's batched lesion
draws against the object-per-attempt implementations they replaced.

``frozen_generate_scene`` is the previous ``generate_scene``: it builds the
diameters, extremes, tight box and padded box of every attempt as objects,
through frozen copies of the geometry helpers that ``RecistAnnotation`` and
its endpoints replaced, before its three rejection tests, and stores the
endpoints of its diameters, long first. It checks clearance with
``frozen_decodes_to_itself``, the previous clearance check, which drew the
center plane alone. ``frozen_simulate_heatmaps`` is the
previous ``simulate_heatmaps``, which drew the three uniforms of each
lesion role one scalar call at a time, and drew each keypoint with its own
``draw_keypoint`` and sized its kernel with its own ``lesion_radius``
rather than through the shared lesion path of ``targets``, and added noise
one plane at a time through ``_add_clipped_noise``, the previous noise
helper, which drew each plane's uniforms in one call. They are copied
without change but for their docstrings, the names of what they import,
the ``Peaks`` records the clearance check hands to ``enumerate_quadruples``
and the spurious-peak score floor and radius, which are module constants now
rather than ``DegradationConfig`` fields. Coordinates are
compared by ``float.hex`` and the generator by its state afterwards, so
an extra or a missing draw fails.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from recistkit import synthetic
from recistkit.dataio import BOX_PADDING, RecistAnnotation
from recistkit.geometry import ExtremePoints, Point2, pad_bbox
from recistkit.rng import _GAMMA, SplitMix64
from recistkit.synthetic import (
    _ASPECT_RANGE,
    _MAX_ATTEMPTS,
    _MIN_BOX_SIDE,
    _SIZE_RANGE_MM,
    _SPACING,
    _SPURIOUS_RADIUS,
    _SPURIOUS_SCORE_MIN,
    DegradationConfig,
    SyntheticScene,
    _NEGATIVE_COS,
    _NEGATIVE_SIN,
    _decodes_to_itself,
    _quantize,
    generate_scene,
    simulate_heatmaps,
)
from recistkit.grouping import GroupingConfig, Peaks, enumerate_quadruples
from recistkit.targets import (
    _MAX_OFFSET,
    EXTREME_ROLES,
    KEYPOINT_CHANNELS,
    HeatmapBundle,
    RenderConfig,
    draw_gaussian,
    gaussian_radius,
    keypoint_cell,
    offset_target,
    output_grid,
)

# --- oracles: the object-per-attempt implementations ---------------------------


@dataclass(frozen=True, slots=True)
class RecistDiameters:
    """The two measured diameters of one lesion, long first."""

    long_a: Point2
    long_b: Point2
    short_a: Point2
    short_b: Point2

    @property
    def long_length(self) -> float:
        return math.hypot(self.long_a.x - self.long_b.x, self.long_a.y - self.long_b.y)

    @property
    def short_length(self) -> float:
        return math.hypot(
            self.short_a.x - self.short_b.x, self.short_a.y - self.short_b.y
        )

    def endpoints(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (self.long_a, self.long_b, self.short_a, self.short_b)


def ordered_diameters(
    p1: Point2, p2: Point2, p3: Point2, p4: Point2
) -> RecistDiameters:
    """Build diameters from two segments, assigning long/short by length."""
    if math.hypot(p1.x - p2.x, p1.y - p2.y) >= math.hypot(p3.x - p4.x, p3.y - p4.y):
        return RecistDiameters(p1, p2, p3, p4)
    return RecistDiameters(p3, p4, p1, p2)


def extremes_from_recist(d: RecistDiameters) -> ExtremePoints:
    """Pick the top/left/bottom/right extremes among the four endpoints:
    long-diameter endpoints win ties, then the smaller x (top/bottom) or
    y (left/right)."""
    pts = d.endpoints()
    # rank 0 for long-diameter endpoints, 1 for short: long wins ties
    ranked = [(p, 0 if i < 2 else 1) for i, p in enumerate(pts)]

    top = min(ranked, key=lambda pr: (pr[0].y, pr[1], pr[0].x))[0]
    bottom = min(ranked, key=lambda pr: (-pr[0].y, pr[1], pr[0].x))[0]
    left = min(ranked, key=lambda pr: (pr[0].x, pr[1], pr[0].y))[0]
    right = min(ranked, key=lambda pr: (-pr[0].x, pr[1], pr[0].y))[0]

    center = Point2((left.x + right.x) / 2.0, (top.y + bottom.y) / 2.0)
    return ExtremePoints(top, left, bottom, right, center)


def bbox_from_extremes(e: ExtremePoints) -> tuple[float, float, float, float]:
    """Tight (x1, y1, x2, y2) box spanned by the four extremes."""
    return (e.left.x, e.top.y, e.right.x, e.bottom.y)


def lesion_radius(extremes: ExtremePoints, stride: int, min_overlap: float) -> int:
    """Kernel radius of all five keypoints: gaussian_radius of the cell box."""
    box_w = (extremes.right.x - extremes.left.x) / stride
    box_h = (extremes.bottom.y - extremes.top.y) / stride
    return gaussian_radius(box_w, box_h, min_overlap)


def draw_keypoint(
    bundle: HeatmapBundle,
    role_idx: int,
    cell: tuple[int, int],
    p: Point2,
    radius: int,
    sigma_divisor: float = 3.0,
) -> tuple[float, float] | None:
    """Draw keypoint ``p`` of role ``KEYPOINT_CHANNELS[role_idx]`` at ``cell``.

    For an extreme role this also writes p's offset target at ``cell``,
    float32-rounded and clamped below 1, and returns it as (dx, dy); the
    center role has no offset and returns None.
    """
    draw_gaussian(
        bundle.keypoint_maps[role_idx], cell, radius, sigma_divisor=sigma_divisor
    )
    if KEYPOINT_CHANNELS[role_idx] == "center":
        return None
    dx, dy = (
        min(float(np.float32(v)), _MAX_OFFSET) for v in offset_target(p, bundle.stride)
    )
    row, col = cell
    bundle.offset_maps[2 * role_idx, row, col] = dx
    bundle.offset_maps[2 * role_idx + 1, row, col] = dy
    return dx, dy


def _axis_gaps(a, b) -> tuple[float, float]:
    """Per-axis interval separation of two (x1, y1, x2, y2) boxes; negative
    when overlapping."""
    return (max(b[0] - a[2], a[0] - b[2]), max(b[1] - a[3], a[1] - b[3]))


def frozen_decodes_to_itself(
    extremes_list,
    image_size: tuple[int, int],
    stride: int,
    min_overlap: float,
    sigma_divisor: float,
    tau_c: float,
) -> bool:
    """The previous ``_decodes_to_itself``, which drew the center plane
    alone."""
    center_map = np.zeros(output_grid(image_size, stride), dtype=np.float32)
    truth = np.empty((len(extremes_list), 4, 2))  # (row, col) per extreme role
    for i, e in enumerate(extremes_list):
        *cells, center = (keypoint_cell(p, stride) for p in e)
        radius = lesion_radius(e, stride, min_overlap)
        draw_gaussian(center_map, center, radius, sigma_divisor=sigma_divisor)
        truth[i] = cells
    # each role's peaks: the true rows and columns, with scores of 1.0
    peaks = {
        role: Peaks(role, np.vstack((truth[:, j].T, np.ones(len(truth)))))
        for j, role in enumerate(EXTREME_ROLES)
    }
    kept = enumerate_quadruples(peaks, center_map, GroupingConfig(tau_c=tau_c))
    found = kept.rows[:, [1, 0, 3, 2, 5, 4, 7, 6]].tolist()
    return sorted(found) == sorted(truth.reshape(-1, 8).tolist())


def frozen_generate_scene(
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
    """The previous ``generate_scene``."""
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
                points = [
                    Point2(_quantize(cx + a * ct), _quantize(cy + a * st)),
                    Point2(_quantize(cx - a * ct), _quantize(cy - a * st)),
                    Point2(_quantize(cx - b * st), _quantize(cy + b * ct)),
                    Point2(_quantize(cx + b * st), _quantize(cy - b * ct)),
                ]
                diameters = ordered_diameters(*points)
                extremes = extremes_from_recist(diameters)
                tight = bbox_from_extremes(extremes)
                padded = pad_bbox(tight, BOX_PADDING)

                x1, y1, x2, y2 = tight
                if x2 - x1 < _MIN_BOX_SIDE or y2 - y1 < _MIN_BOX_SIDE:
                    continue
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
                annotations.append(
                    RecistAnnotation(
                        file_name=f"syn_{seed}",
                        endpoints=tuple(
                            v for p in diameters.endpoints() for v in (p.x, p.y)
                        ),
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
        if clearance_stride is not None and not frozen_decodes_to_itself(
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
        + (f" at clearance stride {clearance_stride}" if clearance_stride else "")
    )


def _add_clipped_noise(rng: SplitMix64, plane: np.ndarray, sigma: float) -> None:
    """The previous per-plane noise helper."""
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


def frozen_simulate_heatmaps(
    scene: SyntheticScene,
    cfg: DegradationConfig = DegradationConfig(),
    stride: int = 4,
    min_overlap: float = 0.3,
    sigma_divisor: float = 3.0,
) -> HeatmapBundle:
    """The previous ``simulate_heatmaps``."""
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
            zip(KEYPOINT_CHANNELS, extremes)
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
                score = _SPURIOUS_SCORE_MIN + u_score * (
                    1.0 - _SPURIOUS_SCORE_MIN
                )
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


# --- comparison ------------------------------------------------------------------


def recorded(function, *args, **kwargs):
    """(result or the ValueError raised, the stream's state afterwards) of a
    call that makes one SplitMix64, the oracles' or the library's."""
    streams = []

    class Recording(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthetic, "SplitMix64", Recording)
        patch.setattr(sys.modules[__name__], "SplitMix64", Recording)
        try:
            result = function(*args, **kwargs)
        except ValueError as exc:
            result = str(exc)
    (stream,) = streams
    return result, stream._state


def hexed(value):
    """A scene, or the message it failed with, with every float as
    ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "_fields"):  # a named tuple keeps its type name
        return [type(value).__name__] + [hexed(v) for v in value]
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            hexed(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    return value


def draws(seed: int, state: int) -> int:
    """How many 64-bit outputs took a stream from ``seed`` to ``state``."""
    return (state - seed) * pow(_GAMMA, -1, 2**64) % 2**64


# --- tests ----------------------------------------------------------------------


def test_generate_scene_matches_object_per_attempt_oracle(monkeypatch):
    """Mostly tight images, where most draws are rejected and some
    arrangements fail, and some roomy ones."""
    # few restarts keep a failing arrangement cheap
    monkeypatch.setattr(synthetic, "_MAX_RESTARTS", 4)
    rng = np.random.default_rng(83)
    attempts = placed = failed = 0
    for seed in range(240):
        n = 1 + seed % 5
        need = int(n * (_MIN_BOX_SIDE + 2 * BOX_PADDING) + (n - 1) * 16.0) + 1
        if seed % 4:
            side = need + 90 * (n - 1) + int(rng.integers(0, 60))
        else:
            side = int(rng.integers(need, 769))
        size = (side, side + int(rng.integers(0, 3)))
        new, new_state = recorded(generate_scene, n, size, seed)
        old, old_state = recorded(
            frozen_generate_scene, n, size, seed, max_restarts=4
        )
        assert hexed(new) == hexed(old), (seed, size)
        assert new_state == old_state, (seed, size)
        if isinstance(new, str):
            failed += 1
        else:
            attempts += draws(seed, new_state) // 5
            placed += n
    # most draws are rejected, and both outcomes are common
    assert attempts > 10 * placed
    assert 20 < failed < 120


def test_clearance_check_matches_center_plane_oracle():
    """Crowded arrangements, placed without a gap or a clearance check,
    so that grouping often keeps a quadruple that mixes two lesions."""
    outcomes = []
    for seed in range(60):
        scene = frozen_generate_scene(
            2 + seed % 4, (320, 320), seed=seed, min_gap=-40.0,
            clearance_stride=None,
        )
        extremes = scene.extremes()
        for stride, min_overlap, sigma_divisor, tau_c in [
            (4, 0.3, 3.0, 0.1), (4, 0.7, 3.0, 0.3), (8, 0.3, 2.0, 0.05),
        ]:
            render = RenderConfig(stride=stride, min_overlap=min_overlap,
                                  sigma_divisor=sigma_divisor)
            new = _decodes_to_itself(
                extremes, scene.image_size, render, GroupingConfig(tau_c=tau_c)
            )
            old = frozen_decodes_to_itself(
                extremes, scene.image_size, stride, min_overlap, sigma_divisor,
                tau_c,
            )
            assert new is old, (seed, stride)
            outcomes.append(new)
    assert 20 < sum(outcomes) < len(outcomes) - 20


@pytest.mark.parametrize(
    "degradation",
    [
        {},
        {"peak_drop_prob": 0.3, "jitter_cells": 2},
        {"peak_drop_prob": 0.1, "jitter_cells": 1, "spurious_rate": 2.0,
         "noise_sigma": 0.05},
        {"peak_drop_prob": 1.0},
        # redraws spurious peaks that land within 2 cells of a true peak
        {"spurious_rate": 40.0},
    ],
    ids=["clean", "drop+jitter", "noisy", "all dropped", "crowded spurious"],
)
def test_simulate_heatmaps_matches_scalar_draw_oracle(degradation):
    for seed in range(6):
        scene = generate_scene(seed % 5, (512, 512), seed=seed)
        cfg = DegradationConfig(seed=seed, **degradation)
        new, new_state = recorded(simulate_heatmaps, scene, cfg)
        old, old_state = recorded(frozen_simulate_heatmaps, scene, cfg)
        assert new.keypoint_maps.tobytes() == old.keypoint_maps.tobytes()
        assert new.offset_maps.tobytes() == old.offset_maps.tobytes()
        assert new_state == old_state
