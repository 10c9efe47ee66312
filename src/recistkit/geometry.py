"""Geometric primitives for diameter-annotated lesions.

Coordinates are 0-based continuous pixels (a point may sit between pixel
centers). Boxes use the corner convention with width = x2 - x1, no +1.
Horizontal flips map x to ``image_width - 1 - x`` so that flipping twice
is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch

import numpy as np


@dataclass(frozen=True, slots=True)
class Point2:
    """2D point in continuous input-pixel coordinates."""

    x: float
    y: float

    def distance_to(self, other: Point2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class RecistDiameters:
    """The two measured diameters of one lesion.

    ``long_a``/``long_b`` are the endpoints of the longest diameter,
    ``short_a``/``short_b`` of the longest perpendicular one. Callers that
    read untrusted data should use :func:`ordered_diameters` to enforce
    the length ordering instead of trusting input order.
    """

    long_a: Point2
    long_b: Point2
    short_a: Point2
    short_b: Point2

    @property
    def long_length(self) -> float:
        return self.long_a.distance_to(self.long_b)

    @property
    def short_length(self) -> float:
        return self.short_a.distance_to(self.short_b)

    def endpoints(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (self.long_a, self.long_b, self.short_a, self.short_b)


def ordered_diameters(
    p1: Point2, p2: Point2, p3: Point2, p4: Point2
) -> RecistDiameters:
    """Build diameters from two segments, assigning long/short by length."""
    if p1.distance_to(p2) >= p3.distance_to(p4):
        return RecistDiameters(p1, p2, p3, p4)
    return RecistDiameters(p3, p4, p1, p2)


@dataclass(frozen=True, slots=True)
class ExtremePoints:
    """The four directional extremes of a lesion plus its geometric center.

    ``degenerate`` flags annotations whose endpoints collapse to zero
    width or height; callers decide whether to keep them.
    """

    top: Point2
    left: Point2
    bottom: Point2
    right: Point2
    center: Point2
    degenerate: bool = False

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


def extremes_from_recist(d: RecistDiameters) -> ExtremePoints:
    """Pick the top/left/bottom/right extremes among the four endpoints.

    One endpoint may fill several roles. Ties are broken deterministically:
    prefer long-diameter endpoints, then the smaller x (for top/bottom) or
    smaller y (for left/right). The center is the midpoint
    ((left.x + right.x) / 2, (top.y + bottom.y) / 2).
    """
    pts = d.endpoints()
    # rank 0 for long-diameter endpoints, 1 for short: long wins ties
    ranked = [(p, 0 if i < 2 else 1) for i, p in enumerate(pts)]

    top = min(ranked, key=lambda pr: (pr[0].y, pr[1], pr[0].x))[0]
    bottom = min(ranked, key=lambda pr: (-pr[0].y, pr[1], pr[0].x))[0]
    left = min(ranked, key=lambda pr: (pr[0].x, pr[1], pr[0].y))[0]
    right = min(ranked, key=lambda pr: (-pr[0].x, pr[1], pr[0].y))[0]

    center = Point2((left.x + right.x) / 2.0, (top.y + bottom.y) / 2.0)
    degenerate = (right.x - left.x) == 0.0 or (bottom.y - top.y) == 0.0
    return ExtremePoints(top, left, bottom, right, center, degenerate)


def bbox_from_extremes(e: ExtremePoints) -> BBox:
    """Tight box spanned by the four extremes."""
    return BBox(e.left.x, e.top.y, e.right.x, e.bottom.y)


def pad_bbox(
    b: BBox, pad: float = 5.0, bounds: tuple[float, float] | None = None
) -> BBox:
    """Grow a box by ``pad`` pixels in each direction.

    When ``bounds`` is given as (image_width, image_height), the result is
    clamped to the valid coordinate range [0, width - 1] x [0, height - 1].
    """
    x1, y1, x2, y2 = b.x1 - pad, b.y1 - pad, b.x2 + pad, b.y2 + pad
    if bounds is not None:
        w, h = bounds
        x1, x2 = max(x1, 0.0), min(x2, w - 1.0)
        y1, y2 = max(y1, 0.0), min(y2, h - 1.0)
    return BBox(x1, y1, x2, y2)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when the union is empty."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
    else:
        inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou` of each row of ``a`` with each row of ``b``, bit for bit,
    as a (len(a), len(b)) matrix; rows are (x1, y1, x2, y2)."""
    ax1, ay1, ax2, ay2 = a.T
    bx1, by1, bx2, by2 = b.T
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        iw = np.minimum.outer(ax2, bx2) - np.maximum.outer(ax1, bx1)
        ih = np.minimum.outer(ay2, by2) - np.maximum.outer(ay1, by1)
        inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
        union = np.add.outer((ax2 - ax1) * (ay2 - ay1), (bx2 - bx1) * (by2 - by1))
        union -= inter
        return np.where(union <= 0.0, 0.0, inter / union)


@singledispatch
def flip_horizontal(obj, image_width: float):
    """Mirror a point, box, or extreme-point set across the vertical axis.

    x maps to ``image_width - 1 - x``. For extreme points the left and
    right roles swap; applying the flip twice restores the input.
    """
    raise TypeError(f"cannot flip object of type {type(obj).__name__}")


@flip_horizontal.register
def _(obj: Point2, image_width: float) -> Point2:
    return Point2(image_width - 1.0 - obj.x, obj.y)


@flip_horizontal.register
def _(obj: BBox, image_width: float) -> BBox:
    return BBox(
        image_width - 1.0 - obj.x2,
        obj.y1,
        image_width - 1.0 - obj.x1,
        obj.y2,
    )


@flip_horizontal.register
def _(obj: ExtremePoints, image_width: float) -> ExtremePoints:
    # center flipped directly rather than recomputed from the swapped
    # extremes: same value in exact arithmetic, and it keeps flip∘flip
    # bit-exact for every stored coordinate
    return ExtremePoints(
        top=flip_horizontal(obj.top, image_width),
        left=flip_horizontal(obj.right, image_width),
        bottom=flip_horizontal(obj.bottom, image_width),
        right=flip_horizontal(obj.left, image_width),
        center=flip_horizontal(obj.center, image_width),
        degenerate=obj.degenerate,
    )
