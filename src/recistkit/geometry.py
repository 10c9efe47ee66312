"""Geometric primitives for diameter-annotated lesions.

Coordinates are 0-based continuous pixels (a point may sit between pixel
centers). Boxes use the corner convention with width = x2 - x1, no +1.
A horizontal flip maps every x to ``image_width - 1 - x``, so a box's
mirrored x2 becomes its x1 and the left and right extremes trade roles;
flipping twice is the identity. ``synthetic.flip_scene`` and
``fusion.unflip_detections`` mirror by this rule. Matching and Soft-NMS
share one box overlap, :func:`pairwise_iou`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Point2:
    """2D point in continuous input-pixel coordinates."""

    x: float
    y: float


@dataclass(frozen=True, slots=True)
class ExtremePoints:
    """The four directional extremes of a lesion plus its geometric center."""

    top: Point2
    left: Point2
    bottom: Point2
    right: Point2
    center: Point2

    def points(self) -> tuple[Point2, Point2, Point2, Point2, Point2]:
        return (self.top, self.left, self.bottom, self.right, self.center)


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box, corner convention, x1 <= x2 and y1 <= y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def pad_bbox(b: BBox, pad: float) -> BBox:
    """Grow a box by ``pad`` pixels in each direction."""
    return BBox(b.x1 - pad, b.y1 - pad, b.x2 + pad, b.y2 + pad)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union of each row of ``a`` with each row of ``b``,
    as a (len(a), len(b)) matrix; rows are (x1, y1, x2, y2). A pair whose
    intersection width or height is not positive intersects in 0, and a
    pair whose union is not positive gets 0."""
    ax1, ay1, ax2, ay2 = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bx1, by1, bx2, by2 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    # three full-size float arrays and one mask, written in place: a larger
    # temporary costs more in fresh pages than a call saves
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        a_side, b_side = a[:, 2:] - a[:, :2], b[:, 2:] - b[:, :2]  # width, height
        inter = np.minimum.outer(ax2, bx2)
        work = np.maximum.outer(ax1, bx1)
        inter -= work  # intersection width
        ih = np.minimum.outer(ay2, by2)
        np.maximum.outer(ay1, by1, out=work)
        ih -= work
        empty = inter <= 0.0
        empty |= ih <= 0.0
        inter *= ih
        np.copyto(inter, 0.0, where=empty)
        np.add.outer(a_side[:, 0] * a_side[:, 1], b_side[:, 0] * b_side[:, 1], out=work)
        work -= inter  # union
        np.less_equal(work, 0.0, out=empty)
        inter /= work
        np.copyto(inter, 0.0, where=empty)
        return inter
