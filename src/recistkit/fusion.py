"""Test-time flip merging and Soft-NMS filtering.

Detections from the horizontally flipped view are mapped back into the
original frame, pooled with the original detections, and filtered with
Soft-NMS, which decays overlapping scores instead of deleting boxes
outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .geometry import pairwise_iou
from .grouping import Detection, detections_from_rows, detections_to_rows, sort_key


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
) -> list[Detection]:
    """Map detections made on a flipped image back to the original frame.

    Geometry mirrors as ``flip_horizontal`` does (left and right roles
    swap), scores are untouched, and each detection is tagged as coming
    from the flipped view.
    """
    # left and right swap roles, and every x mirrors
    rows = detections_to_rows(detections)[:, [0, 1, 6, 7, 4, 5, 2, 3, 8, 9]]
    rows[:, 0::2] = image_width - 1.0 - rows[:, 0::2]
    return detections_from_rows(
        rows, [d.score for d in detections], ["flipped"] * len(rows)
    )


def soft_nms(
    detections: Sequence[Detection], cfg: SoftNmsConfig = SoftNmsConfig()
) -> list[Detection]:
    """Score-decay non-maximum suppression.

    Repeatedly selects the highest-scoring remaining detection, decays every
    other remaining score according to its overlap with the selection, and
    drops detections once their score falls below the floor. The output
    comes out sorted by final score descending; the top detection's score is
    never changed. Score ties go to the detection that comes first in
    ``sort_key`` order.
    """
    # geometry then source break score ties, so argmax's first hit below
    # is the min(key=sort_key) of the live detections
    pool = sorted(
        (d for d in detections if d.score >= cfg.score_floor),
        key=lambda d: sort_key(d)[1:],
    )
    overlap = pairwise_iou(
        np.array([d.bbox.as_tuple() for d in pool], dtype=np.float64).reshape(-1, 4)
    )
    if cfg.method == "gaussian":
        # math.exp, not np.exp, which is 1 ulp off on some inputs; a pair
        # without overlap keeps its exact factor of 1.0
        decay = np.ones_like(overlap)
        hit = overlap != 0.0
        pairs = overlap[hit]
        exponent = -(pairs * pairs) / cfg.sigma
        decay[hit] = list(map(math.exp, exponent.tolist()))
    else:
        decay = np.where(overlap > cfg.linear_iou_threshold, 1.0 - overlap, 1.0)

    live = np.arange(len(pool))
    scores = np.array([d.score for d in pool], dtype=np.float64)
    out: list[Detection] = []
    while live.size:
        k = int(scores.argmax())
        out.append(replace(pool[live[k]], score=float(scores[k])))
        scores = scores * decay[live[k], live]
        keep = scores >= cfg.score_floor
        keep[k] = False
        live, scores = live[keep], scores[keep]
    return out


def fuse_tta(
    dets_original: Sequence[Detection],
    dets_flipped_raw: Sequence[Detection],
    image_width: float,
    cfg: SoftNmsConfig = SoftNmsConfig(),
) -> list[Detection]:
    """Pool original and un-flipped detections, then Soft-NMS the pool."""
    pooled = list(dets_original) + unflip_detections(dets_flipped_raw, image_width)
    return soft_nms(pooled, cfg)
