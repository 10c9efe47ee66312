"""Geometric primitives for diameter-annotated lesions.

Coordinates are 0-based continuous pixels (a point may sit between pixel
centers). A box is a plain ``(x1, y1, x2, y2)`` tuple in the corner
convention, x1 <= x2 and y1 <= y2, with width = x2 - x1, no +1. A lesion's
five keypoints are an :class:`ExtremePoints`, a named tuple of
:class:`Point2` ``(x, y)`` pairs, so ``np.asarray`` of a list of them is an
(n, 5, 2) array. A horizontal flip maps every x to ``image_width - 1 - x``,
so a box's mirrored x2 becomes its x1 and the left and right extremes trade
roles; flipping twice is the identity. ``synthetic.flip_scene`` and
``fusion.unflip_detections`` mirror by this rule. Matching and Soft-NMS
share one box overlap, :func:`pairwise_iou`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Point2(NamedTuple):
    """2D point in continuous input-pixel coordinates."""

    x: float
    y: float


class ExtremePoints(NamedTuple):
    """The four directional extremes of a lesion plus its geometric center,
    in ``targets.KEYPOINT_CHANNELS`` order."""

    top: Point2
    left: Point2
    bottom: Point2
    right: Point2
    center: Point2


def pad_bbox(box, pad: float) -> tuple[float, float, float, float]:
    """Grow an (x1, y1, x2, y2) box by ``pad`` pixels in each direction."""
    x1, y1, x2, y2 = box
    return (x1 - pad, y1 - pad, x2 + pad, y2 + pad)


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
