"""Test-time flip merging and Soft-NMS filtering.

Detections from the horizontally flipped view are mapped back into the
original frame, pooled with the original detections, and filtered with
Soft-NMS, which decays overlapping scores instead of deleting boxes
outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .geometry import pairwise_iou
from .grouping import BOX_COLUMNS, Detection, Detections

# the box columns of a detection row, least significant first: y2, x2, y1, x1
_BOX_KEYS = np.array(BOX_COLUMNS[::-1])

# a row's columns as the mirrored row reads them: left and right swap roles
_MIRRORED_COLUMNS = np.array([0, 1, 6, 7, 4, 5, 2, 3, 8, 9])


@dataclass(frozen=True, slots=True)
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
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.score_floor < 0.0:
            raise ValueError(f"score_floor must be >= 0, got {self.score_floor}")
        if self.method not in ("gaussian", "linear"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.linear_iou_threshold <= 1.0:
            raise ValueError("linear_iou_threshold must lie in [0, 1]")


def unflip_detections(
    detections: Sequence[Detection], image_width: float
) -> Detections:
    """Map detections made on a flipped image back to the original frame.

    Geometry mirrors as ``flip_horizontal`` does (left and right roles
    swap), scores are untouched, and each detection is tagged as coming
    from the flipped view.
    """
    dets = Detections.of(detections)
    # left and right swap roles, and every x mirrors
    rows = dets.rows.take(_MIRRORED_COLUMNS, axis=1)
    np.subtract(image_width - 1.0, rows[:, 0::2], out=rows[:, 0::2])
    return Detections(rows, dets.scores, np.ones(len(rows), dtype=bool))


def soft_nms(
    detections: Sequence[Detection], cfg: SoftNmsConfig = SoftNmsConfig()
) -> Detections:
    """Score-decay non-maximum suppression.

    Repeatedly selects the highest-scoring remaining detection, decays every
    other remaining score according to its overlap with the selection, and
    drops detections once their score falls below the floor. The output
    comes out sorted by final score descending; the top detection's score is
    never changed. Score ties go to the smaller box (x1, y1, x2, y2), then
    to the flipped view, then to the smaller row (top x, ..., right y), and
    then to the earlier input.
    """
    dets = Detections.of(detections)
    pool = (dets.scores >= cfg.score_floor).nonzero()[0]
    rows = dets.rows[pool]
    # the tie order of soft_nms, one key per row, primary key last, so that
    # argmax's first hit below is the first live detection in that order
    keys = np.concatenate((rows.T[7::-1], ~dets.flipped[None, pool], rows.T[_BOX_KEYS]))
    ranked = np.lexsort(keys)
    order = pool[ranked]
    boxes, scores = rows[ranked][:, BOX_COLUMNS], dets.scores[order]
    overlap = pairwise_iou(boxes, boxes)
    index = np.arange(len(order))
    if cfg.method == "gaussian":
        # math.exp, not np.exp, which is 1 ulp off on some inputs; a pair
        # without overlap keeps its exact factor of 1.0. The IoU matrix is
        # bit-symmetric, so each pair's factor is computed once, above the
        # diagonal, and mirrored.
        decay = np.empty_like(overlap)
        decay.fill(1.0)
        hit = index[:, None] < index
        hit &= overlap != 0.0
        pairs = overlap[hit]
        exponent = -(pairs * pairs) / cfg.sigma
        factors = np.fromiter(map(math.exp, exponent.tolist()), np.float64, pairs.size)
        decay[hit] = factors
        decay.T[hit] = factors
    else:
        decay = np.where(overlap > cfg.linear_iou_threshold, 1.0 - overlap, 1.0)
    # a selected detection decays itself to -inf, or to NaN at score 0
    decay[index, index] = -np.inf

    # scores in tie order; once kept or dropped, a detection's is -inf, which
    # decays to -inf or NaN, never to a score at or above the floor
    kept, kept_scores = [], []
    alive = np.empty(scores.shape, dtype=bool)
    with np.errstate(invalid="ignore"):  # -inf * 0
        while scores.size:
            k = int(scores.argmax())
            top = scores.item(k)
            if not top >= cfg.score_floor:
                break
            kept.append(k)
            kept_scores.append(top)
            np.multiply(scores, decay[k], out=scores)
            np.greater_equal(scores, cfg.score_floor, out=alive)
            np.copyto(scores, -np.inf, where=~alive)
    kept = order[kept]
    return Detections(dets.rows[kept], kept_scores, dets.flipped[kept])


def fuse_tta(
    dets_original: Sequence[Detection],
    dets_flipped_raw: Sequence[Detection],
    image_width: float,
    cfg: SoftNmsConfig = SoftNmsConfig(),
) -> Detections:
    """Pool original and un-flipped detections, then Soft-NMS the pool."""
    original = Detections.of(dets_original)
    unflipped = unflip_detections(dets_flipped_raw, image_width)
    pooled = Detections(
        np.concatenate((original.rows, unflipped.rows)),
        np.concatenate((original.scores, unflipped.scores)),
        np.concatenate((original.flipped, unflipped.flipped)),
    )
    return soft_nms(pooled, cfg)
