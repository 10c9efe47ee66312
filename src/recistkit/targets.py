"""Ground-truth heatmap and offset rendering at output (strided) resolution.

A lesion is its five (x, y) keypoints in KEYPOINT_CHANNELS order, read as
numbers: an ``ExtremePoints`` or a row of an (n, 5, 2) array. Each lesion
contributes one Gaussian kernel per keypoint role; per-role maps combine
kernels with an element-wise maximum, so values stay in [0, 1] and the
exact keypoint cell is always 1. Offset planes store the sub-cell fraction
lost by the stride, written only at ground-truth cells (and never for the
center role). Rendering is two steps: ``_lesion_cells`` checks every lesion
and returns its cells, offsets and kernel radius as one table, and
``_draw_lesions`` draws the cells a mask selects from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import RenderConfig

# Fixed channel orders; serialization and grouping both rely on them.
KEYPOINT_CHANNELS = ("top", "left", "bottom", "right", "center")
EXTREME_ROLES = ("top", "left", "bottom", "right")
OFFSET_CHANNELS = (
    "top_dx", "top_dy",
    "left_dx", "left_dy",
    "bottom_dx", "bottom_dy",
    "right_dx", "right_dy",
)

# largest float32 strictly below 1: offsets are targets in [0, 1)
_MAX_OFFSET = float(np.nextafter(np.float32(1.0), np.float32(0.0)))

Cell = tuple[int, int]  # (row, col) on the output grid


@dataclass
class HeatmapBundle:
    """Five keypoint maps plus eight offset planes at output resolution.

    ``keypoint_maps`` has shape (5, H, W) in KEYPOINT_CHANNELS order and
    ``offset_maps`` shape (8, H, W) in OFFSET_CHANNELS order, both float32.
    ``input_size`` is (width, height) in input pixels.
    """

    keypoint_maps: np.ndarray
    offset_maps: np.ndarray
    stride: int
    input_size: tuple[int, int]

    def __post_init__(self) -> None:
        kp, off = self.keypoint_maps, self.offset_maps
        if kp.ndim != 3 or kp.shape[0] != len(KEYPOINT_CHANNELS):
            raise ValueError(f"keypoint_maps must be (5, H, W), got {kp.shape}")
        if off.shape != (len(OFFSET_CHANNELS),) + kp.shape[1:]:
            raise ValueError(
                f"offset_maps must be (8, {kp.shape[1]}, {kp.shape[2]}), got {off.shape}"
            )
        if kp.dtype != np.float32 or off.dtype != np.float32:
            raise ValueError("heatmap planes must be float32")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.keypoint_maps.shape[1:]

    def keypoint_map(self, role: str) -> np.ndarray:
        return self.keypoint_maps[KEYPOINT_CHANNELS.index(role)]

    @classmethod
    def zeros(
        cls, out_h: int, out_w: int, stride: int, input_size: tuple[int, int]
    ) -> HeatmapBundle:
        """Zeroed planes; a grid too large to allocate raises MemoryError."""
        return cls(
            _zero_planes(5, out_h, out_w), _zero_planes(8, out_h, out_w),
            stride=stride, input_size=input_size,
        )


def _zero_planes(n: int, out_h: int, out_w: int) -> np.ndarray:
    """(n, out_h, out_w) float32 zeros; a grid too large to allocate raises
    MemoryError."""
    try:
        return np.zeros((n, out_h, out_w), np.float32)
    except ValueError:  # numpy's refusal of more bytes than it can address
        if min(out_h, out_w) < 0:
            raise
        raise MemoryError(f"{out_w}x{out_h} heatmap planes are too large") from None


@dataclass
class TargetBundle:
    """Rendered training targets plus the bookkeeping the losses need.

    ``gt_cells`` (n, 4, 2) holds each annotation's (row, col) cell per
    extreme role in EXTREME_ROLES order, and ``gt_offsets`` (n, 4, 2) the
    matching (dx, dy) offsets as float64 after float32 rounding, so they
    match the planes bit for bit.
    """

    bundle: HeatmapBundle
    gt_cells: np.ndarray
    gt_offsets: np.ndarray

    @property
    def n_objects(self) -> int:
        return len(self.gt_cells)


def gaussian_radius(
    box_width: float, box_height: float, min_overlap: float = RenderConfig.min_overlap
) -> int:
    """Kernel radius in output cells for a box of the given cell dimensions.

    The radius is the largest r such that the box translated diagonally by
    (r, r) still overlaps the original with IoU >= ``min_overlap``; solving
    (1 + o) * (w - r) * (h - r) >= 2 * o * w * h for the smaller root of the
    quadratic gives the closed form. The result is floored to an integer and
    never smaller than 1.
    """
    if box_width <= 0.0 or box_height <= 0.0:
        raise ValueError(
            f"box dimensions must be positive, got {box_width} x {box_height}"
        )
    if not 0.0 < min_overlap < 1.0:
        raise ValueError(f"min_overlap must be in (0, 1), got {min_overlap}")
    kappa = (1.0 - min_overlap) / (1.0 + min_overlap)
    b = box_width + box_height
    c = box_width * box_height * kappa
    r = (b - math.sqrt(b * b - 4.0 * c)) / 2.0
    return max(1, int(math.floor(r)))


def gaussian_kernel(
    radius: int, sigma_divisor: float = RenderConfig.sigma_divisor
) -> np.ndarray:
    """(2r+1)^2 kernel exp(-d^2 / (2 sigma^2)) with sigma = r / divisor."""
    sigma = radius / sigma_divisor
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    d2 = ax[None, :] ** 2 + ax[:, None] ** 2
    return np.exp(-d2 / (2.0 * sigma * sigma))


@functools.lru_cache(maxsize=16, typed=True)
def _shared_kernel(
    radius: int, peak: float, sign: float, sigma_divisor: float
) -> np.ndarray:
    """The float32 kernel :func:`draw_gaussian` draws, computed once per key
    and read-only. ``sign`` is ``peak``'s, since -0.0 and 0.0 are equal keys
    but scale a kernel to different bits."""
    kernel = (gaussian_kernel(radius, sigma_divisor) * peak).astype(np.float32)
    kernel.flags.writeable = False
    return kernel


def draw_gaussian(
    heatmap: np.ndarray,
    cell: Cell,
    radius: int,
    peak: float = 1.0,
    sigma_divisor: float = RenderConfig.sigma_divisor,
) -> None:
    """Max-combine a Gaussian kernel into ``heatmap`` in place.

    The kernel is clipped at grid borders. With peak = 1 the center cell
    becomes exactly 1.0.
    """
    row, col = cell
    h, w = heatmap.shape
    kernel = _shared_kernel(radius, peak, math.copysign(1.0, peak), sigma_divisor)

    top = min(row, radius)
    bottom = min(h - row, radius + 1)
    left = min(col, radius)
    right = min(w - col, radius + 1)

    view = heatmap[row - top : row + bottom, col - left : col + right]
    kview = kernel[radius - top : radius + bottom, radius - left : radius + right]
    np.maximum(view, kview, out=view)


def offset_target(p, stride: int) -> tuple[float, float]:
    """Componentwise fractional part of the (x, y) point p / stride, each
    in [0, 1)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    x, y = p
    qx = x / stride
    qy = y / stride
    return (qx - math.floor(qx), qy - math.floor(qy))


def keypoint_cell(p, stride: int) -> Cell:
    """Output-grid cell floor(p / stride) of the (x, y) point p as (row, col)."""
    x, y = p
    return (int(math.floor(y / stride)), int(math.floor(x / stride)))


def output_grid(input_size: tuple[int, int], stride: int) -> tuple[int, int]:
    """(rows, cols) covering a (width, height) px input: ceil(side / stride)."""
    width, height = input_size
    return -(-height // stride), -(-width // stride)


def _lesion_cells(
    annotations, stride: int, out_h: int, out_w: int, min_overlap: float
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each annotation's five (x, y) keypoints in KEYPOINT_CHANNELS order as
    (cells, offsets, radii): its (row, col) cells, (n, 5, 2) intp; its four
    extremes' offset targets, float32-rounded and clamped below 1, (n, 4, 2)
    float64; and its kernel radius, gaussian_radius of its box in cells.

    Annotations are checked in order. One that is not five (x, y) points,
    or has a keypoint that is not finite or off the (out_h, out_w) grid,
    raises ValueError naming it, before its box is sized.
    """
    cells, offsets, radii = [], [], []
    for index, ann in enumerate(annotations):
        try:
            points = [(x, y) for _, (x, y)
                      in zip(KEYPOINT_CHANNELS, ann, strict=True)]
        except (TypeError, ValueError):
            raise ValueError(
                f"annotation {index}: expected {len(KEYPOINT_CHANNELS)} (x, y) "
                f"keypoints, {', '.join(KEYPOINT_CHANNELS)}"
            ) from None
        for role, p in zip(KEYPOINT_CHANNELS, points):
            x, y = p
            finite = math.isfinite(x) and math.isfinite(y)
            row, col = keypoint_cell(p, stride) if finite else (-1, -1)
            if not (0 <= row < out_h and 0 <= col < out_w):
                raise ValueError(
                    f"annotation {index}: {role} keypoint ({x}, {y}) falls "
                    f"outside the {out_w}x{out_h} output grid at stride {stride}"
                )
            cells.append((row, col))
        (_, top_y), (left_x, _), (_, bottom_y), (right_x, _), _ = points
        radii.append(gaussian_radius(
            (right_x - left_x) / stride, (bottom_y - top_y) / stride, min_overlap
        ))
        offsets += [[min(float(np.float32(v)), _MAX_OFFSET)
                     for v in offset_target(p, stride)] for p in points[:4]]
    return (
        np.array(cells, dtype=np.intp).reshape(-1, len(KEYPOINT_CHANNELS), 2),
        np.array(offsets, dtype=np.float64).reshape(-1, len(EXTREME_ROLES), 2),
        radii,
    )


def _draw_lesions(
    maps, offset_maps, cells: np.ndarray, offsets: np.ndarray, radii: list[int],
    sigma_divisor: float, drawn: np.ndarray,
) -> None:
    """Draw, lesion by lesion, each kernel of radius ``radii[i]`` at
    ``cells[i, k]`` into plane ``maps[k]``, then each extreme's offsets
    ``offsets[i, k]`` at that cell into planes 2k and 2k + 1 of
    ``offset_maps``, for the (i, k) that the bool ``drawn`` selects; so a
    later lesion wins a shared offset cell. A plane that no drawn cell
    reaches is never touched.
    """
    for radius, lesion_cells, lesion_offsets, chosen in zip(
        radii, cells.tolist(), offsets.tolist(), drawn.tolist()
    ):
        for plane, cell, draw in zip(maps, lesion_cells, chosen):
            if draw:
                draw_gaussian(plane, cell, radius, sigma_divisor=sigma_divisor)
        for role, ((row, col), (dx, dy), draw) in enumerate(
            zip(lesion_cells, lesion_offsets, chosen)
        ):
            if draw:
                offset_maps[2 * role, row, col] = dx
                offset_maps[2 * role + 1, row, col] = dy


def render_targets(
    annotations,
    out_h: int,
    out_w: int,
    stride: int,
    min_overlap: float = RenderConfig.min_overlap,
    sigma_divisor: float = RenderConfig.sigma_divisor,
    input_size: tuple[int, int] | None = None,
) -> TargetBundle:
    """Render multi-peak Gaussian targets for a set of lesion keypoints.

    Each annotation is a lesion's five (x, y) keypoints in KEYPOINT_CHANNELS
    order: an ExtremePoints, or a row of an (n, 5, 2) array. One that is not
    five (x, y) points, or has a keypoint that is not finite or, divided by
    the stride, off the output grid, raises ValueError naming it. Rendering
    is order-independent (element-wise max is commutative). If two
    annotations share a ground-truth cell for the same role, the later
    annotation's offsets win at that cell.

    ``input_size`` records the source image dimensions in the bundle;
    it defaults to (out_w * stride, out_h * stride).
    """
    if input_size is None:
        input_size = (out_w * stride, out_h * stride)
    bundle = HeatmapBundle.zeros(out_h, out_w, stride, input_size)
    cells, offsets, radii = _lesion_cells(annotations, stride, out_h, out_w,
                                          min_overlap)
    _draw_lesions(
        bundle.keypoint_maps, bundle.offset_maps, cells, offsets, radii,
        sigma_divisor, np.ones(cells.shape[:2], dtype=bool),
    )
    return TargetBundle(bundle, gt_cells=cells[:, :4].copy(), gt_offsets=offsets)
