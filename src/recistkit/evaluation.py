"""Sensitivity at fixed false-positive rates, with optional stratification.

Detections are matched greedily to ground truth on padded-box IoU; the FROC
sweep then walks every distinct detection score as a threshold and reports,
per requested FPs-per-image target, the best sensitivity whose FP rate does
not exceed the target (a step function, no interpolation). Stratified
variants count false positives image-globally while computing recall within
each stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import BBox, pairwise_iou
from .grouping import BOX_COLUMNS, Detection, detections_to_rows

FP_TARGETS_DEFAULT = (0.5, 1.0, 2.0, 3.0, 4.0)

LESION_TYPE_NAMES = {
    1: "BN",  # bone
    2: "AB",  # abdomen
    3: "ME",  # mediastinum
    4: "LV",  # liver
    5: "LU",  # lung
    6: "KD",  # kidney
    7: "ST",  # soft tissue
    8: "PV",  # pelvis
}

STRATIFY_KEYS = ("lesion_type", "diameter", "interval")


@dataclass(frozen=True, slots=True)
class DetectionMatch:
    """One detection's outcome against an image's ground truth."""

    det_index: int
    score: float
    is_tp: bool
    gt_index: int | None


@dataclass
class MatchResult:
    """All detection outcomes for one image plus its lesion count."""

    records: list[DetectionMatch]
    n_gt: int


@dataclass(frozen=True, slots=True)
class FrocPoint:
    """Sensitivity achieved at one FPs-per-image target."""

    fp_target: float
    sensitivity: float
    threshold: float
    fp_per_image: float  # rate actually realized at the threshold


@dataclass
class FrocResult:
    """Sensitivity at each requested operating point."""

    points: list[FrocPoint]
    n_images: int
    n_lesions: int

    def sensitivity_at(self, fp_target: float) -> float:
        for point in self.points:
            if point.fp_target == fp_target:
                return point.sensitivity
        raise KeyError(f"no operating point for fp target {fp_target}")


@dataclass
class Strata:
    """Per-stratum FROC results under one stratification key."""

    key: str
    per_stratum: dict[str, FrocResult]


def match_detections(
    detections: Sequence[Detection],
    gt_boxes: Sequence[BBox],
    iou_threshold: float = 0.5,
    pad: float = 5.0,
) -> MatchResult:
    """Greedy best-IoU matching of one image's detections to its lesions.

    Detections are visited in score-descending order (ties by input index).
    Each detection's box is padded by ``pad`` pixels before comparison; the
    ground-truth boxes are expected to be padded already. A detection is a
    true positive when its best IoU against a still-unmatched ground truth
    reaches the threshold; every ground truth is matched at most once.
    """
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    boxes = detections_to_rows(detections)[:, BOX_COLUMNS]
    # padded as pad_bbox pads: x1 - pad, y1 - pad, x2 + pad, y2 + pad
    padded = boxes + np.array([-pad, -pad, pad, pad])
    gts = np.array([g.as_tuple() for g in gt_boxes], dtype=np.float64).reshape(-1, 4)
    ious = pairwise_iou(padded, gts)
    # only an overlap strictly above 0 can match, which also rules out NaN;
    # the last column, always 0, keeps argmax defined without ground truth
    overlap = np.zeros((len(detections), len(gt_boxes) + 1))
    np.copyto(overlap[:, :-1], ious, where=ious > 0.0)
    records = []
    best = None
    for i in order:
        if best is None:  # after each match: argmax is the scan's first maximum
            best, best_iou = overlap.argmax(axis=1).tolist(), overlap.max(axis=1).tolist()
        if best_iou[i] > 0.0 and best_iou[i] >= iou_threshold:
            overlap[:, best[i]] = 0.0  # every ground truth is matched at most once
            records.append(DetectionMatch(i, detections[i].score, True, best[i]))
            best = None
        else:
            records.append(DetectionMatch(i, detections[i].score, False, None))
    return MatchResult(records=records, n_gt=len(gt_boxes))


@dataclass(frozen=True, slots=True)
class _SweepPoint:
    threshold: float
    fp_rate: float


def _best_at_target(
    points_with_tp: Sequence[tuple[_SweepPoint, int]],
    fp_target: float,
    n_lesions: int,
) -> FrocPoint:
    """Best sensitivity among points with FP rate <= target.

    Among thresholds achieving that sensitivity the highest one wins, which
    keeps reported thresholds non-increasing as the target grows.
    """
    best = None
    for p, tp in points_with_tp:  # descending threshold order
        if p.fp_rate > fp_target:
            continue
        sens = tp / n_lesions
        if best is None or sens > best[0]:
            best = (sens, p.threshold, p.fp_rate)
    sens, threshold, fp_rate = best  # the empty point always qualifies
    return FrocPoint(fp_target, sens, threshold, fp_rate)


def froc(
    matches: Sequence[MatchResult],
    fp_targets: Sequence[float] = FP_TARGETS_DEFAULT,
) -> FrocResult:
    """Sensitivity at the requested FPs-per-image targets.

    This is :func:`stratified_froc` with every lesion in one stratum.
    Raises ValueError when there are no images or no lesions; an image set
    with detections on none of them still yields sensitivity 0 everywhere.
    """
    if len(matches) == 0:
        raise ValueError("froc requires at least one image")
    if sum(m.n_gt for m in matches) == 0:
        raise ValueError("froc requires at least one ground-truth lesion")

    labels = [["all"] * m.n_gt for m in matches]
    return stratified_froc(matches, labels, "all", fp_targets).per_stratum["all"]


def stratified_froc(
    matches: Sequence[MatchResult],
    gt_labels: Sequence[Sequence[str]],
    key: str,
    fp_targets: Sequence[float] = FP_TARGETS_DEFAULT,
) -> Strata:
    """Per-stratum sensitivity with image-global false-positive counting.

    ``gt_labels[i][g]`` is the stratum of ground truth ``g`` on image ``i``.
    A threshold's FP rate is computed over all detections of all images;
    its per-stratum sensitivity counts only true positives matched to that
    stratum's lesions, over that stratum's lesion count.
    """
    if len(gt_labels) != len(matches):
        raise ValueError("gt_labels must align with matches per image")
    for m, labels in zip(matches, gt_labels):
        if len(labels) != m.n_gt:
            raise ValueError("per-image label count must equal n_gt")

    n_per_stratum: dict[str, int] = {}
    for labels in gt_labels:
        for label in labels:
            n_per_stratum[label] = n_per_stratum.get(label, 0) + 1

    # per-threshold TP counts within each stratum
    flat: list[tuple[float, str | None]] = []
    for m, labels in zip(matches, gt_labels):
        for rec in m.records:
            flat.append((rec.score, labels[rec.gt_index] if rec.is_tp else None))
    flat.sort(key=lambda r: -r[0])
    n_images = len(matches)

    sweep: list[tuple[_SweepPoint, dict[str, int]]] = [
        (_SweepPoint(math.inf, 0.0), {s: 0 for s in n_per_stratum})
    ]
    tally = {s: 0 for s in n_per_stratum}
    fp = 0
    for i, (score, stratum) in enumerate(flat):
        if stratum is None:
            fp += 1
        else:
            tally[stratum] += 1
        last_of_score = i + 1 == len(flat) or flat[i + 1][0] != score
        if last_of_score:
            sweep.append((_SweepPoint(score, fp / n_images), dict(tally)))

    per_stratum = {}
    for stratum, n_gt in sorted(n_per_stratum.items()):
        points_with_tp = [(p, t[stratum]) for p, t in sweep]
        result_points = [
            _best_at_target(points_with_tp, target, n_gt) for target in fp_targets
        ]
        per_stratum[stratum] = FrocResult(
            result_points, n_images=n_images, n_lesions=n_gt
        )
    return Strata(key=key, per_stratum=per_stratum)


def diameter_bucket(long_diameter_mm: float) -> str:
    """Size stratum: [0, 10) -> "<10", [10, 30] -> "10-30", else ">30"."""
    if long_diameter_mm < 10.0:
        return "<10"
    if long_diameter_mm <= 30.0:
        return "10-30"
    return ">30"


def interval_bucket(slice_interval_mm: float) -> str:
    """Slice-interval stratum: below 2.5 mm or not."""
    return "<2.5" if slice_interval_mm < 2.5 else ">2.5"


def lesion_type_name(code: int) -> str:
    """Two-letter lesion-type label for a coarse type code; unknown -> other."""
    return LESION_TYPE_NAMES.get(code, "other")
