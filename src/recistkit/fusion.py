"""Test-time flip merging and Soft-NMS filtering.

Detections from the horizontally flipped view are mapped back into the
original frame, pooled with the original detections, and filtered with
Soft-NMS, which decays overlapping scores instead of deleting boxes
outright.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SoftNmsConfig
from .geometry import pairwise_iou
from .grouping import BOX_COLUMNS, Detections

# the box columns of a detection row, least significant first: y2, x2, y1, x1
_BOX_KEYS = np.array(BOX_COLUMNS[::-1])

# a row's columns as the mirrored row reads them: left and right swap roles
_MIRRORED_COLUMNS = np.array([0, 1, 6, 7, 4, 5, 2, 3, 8, 9])


def unflip_detections(detections: Detections, image_width: float) -> Detections:
    """Map detections made on a flipped image back to the original frame.

    Every x maps to ``image_width - 1 - x`` and the left and right roles
    swap, so unflipping a flipped detection restores it; scores are
    untouched, and each detection is tagged as coming from the flipped
    view.
    """
    # left and right swap roles, and every x mirrors
    rows = detections.rows.take(_MIRRORED_COLUMNS, axis=1)
    np.subtract(image_width - 1.0, rows[:, 0::2], out=rows[:, 0::2])
    return Detections(rows, detections.scores, np.ones(len(rows), dtype=bool))


def soft_nms(
    detections: Detections, cfg: SoftNmsConfig = SoftNmsConfig()
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
    pool = (detections.scores >= cfg.score_floor).nonzero()[0]
    rows = detections.rows[pool]
    # the tie order of soft_nms, one key per row, primary key last, so that
    # argmax's first hit below is the first live detection in that order
    flipped = detections.flipped[None, pool]
    keys = np.concatenate((rows.T[7::-1], ~flipped, rows.T[_BOX_KEYS]))
    ranked = np.lexsort(keys)
    order = pool[ranked]
    boxes, scores = rows[ranked][:, BOX_COLUMNS], detections.scores[order]
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
        with np.errstate(over="ignore"):  # a tiny sigma's -inf decays to 0.0
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
    return Detections(detections.rows[kept], kept_scores, detections.flipped[kept])


def fuse_tta(
    dets_original: Detections,
    dets_flipped_raw: Detections,
    image_width: float,
    cfg: SoftNmsConfig = SoftNmsConfig(),
) -> Detections:
    """Pool the original detections and the un-flipped flipped-view ones
    into one record, originals first, then Soft-NMS the pool."""
    pooled = dets_original + unflip_detections(dets_flipped_raw, image_width)
    return soft_nms(pooled, cfg)
