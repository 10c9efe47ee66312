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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataio import is_finite_number
from .geometry import BBox, pairwise_iou
from .grouping import BOX_COLUMNS, Detection, Detections

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


@dataclass(frozen=True, slots=True)
class DetectionMatch:
    """One detection's outcome: the lesion it matched, or None if none."""

    det_index: int
    score: float
    gt_index: int | None

    @property
    def is_tp(self) -> bool:
        return self.gt_index is not None


@dataclass(frozen=True, slots=True, eq=False)
class MatchResult:
    """One image's detection outcomes as arrays, plus its lesion count.

    ``order`` (intp) holds the detection indices in visit order, score
    descending with ties by input index; ``scores`` (float64) their scores
    in that order; ``gt_index`` (intp) the lesion each one matched, or -1
    for a false positive. Building one raises ValueError, naming the first
    bad record, unless the arrays are 1-D of one length, every
    ``gt_index`` lies in [-1, ``n_gt``), no lesion is matched twice and
    ``n_gt`` >= 0. It equals a result with the same ``records`` and
    ``n_gt``. Its arrays are shared, not copied: do not write to them.
    """

    order: np.ndarray
    scores: np.ndarray
    gt_index: np.ndarray
    n_gt: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", np.asarray(self.order, dtype=np.intp))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "gt_index", np.asarray(self.gt_index, dtype=np.intp))
        order, scores, lesions, n_gt = self.order, self.scores, self.gt_index, self.n_gt
        if not (order.ndim == 1 and order.shape == scores.shape == lesions.shape):
            raise ValueError("order, scores and gt_index must be 1-D and of one length")
        if n_gt < 0:
            raise ValueError(f"n_gt must be >= 0, got {n_gt}")
        tps = lesions[lesions >= 0].tolist()
        if ((lesions >= -1) & (lesions < n_gt)).all() and len(set(tps)) == len(tps):
            return
        matched = set()  # the arrays are bad: name the first bad record
        for k, g in enumerate(lesions.tolist()):
            if not -1 <= g < n_gt:
                raise ValueError(f"record {k}: gt_index {g} is outside [-1, {n_gt})")
            if g in matched:
                raise ValueError(f"record {k}: lesion {g} is matched twice")
            if g >= 0:
                matched.add(g)

    @classmethod
    def of(cls, records: Sequence[DetectionMatch], n_gt: int) -> MatchResult:
        """The record of ``records``, in their order; a negative ``gt_index``,
        which the arrays would read as a false positive, raises ValueError."""
        for k, r in enumerate(records):
            if r.is_tp and r.gt_index < 0:
                raise ValueError(f"record {k}: is_tp True with gt_index {r.gt_index}")
        return cls(
            [r.det_index for r in records],
            [r.score for r in records],
            [-1 if r.gt_index is None else r.gt_index for r in records],
            n_gt,
        )

    @property
    def records(self) -> list[DetectionMatch]:
        """One :class:`DetectionMatch` view per detection, in visit order,
        built as it is read, with Python numbers and None for -1."""
        return [
            DetectionMatch(i, score, g if g >= 0 else None)
            for i, score, g in zip(
                self.order.tolist(), self.scores.tolist(), self.gt_index.tolist()
            )
        ]

    def __eq__(self, other) -> bool:
        if isinstance(other, MatchResult):
            return (self.records, self.n_gt) == (other.records, other.n_gt)
        return NotImplemented

    __hash__ = None


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


@dataclass
class Strata:
    """Per-stratum FROC results under one stratification key."""

    key: str
    per_stratum: dict[str, FrocResult]


def check_match_settings(iou_threshold: float, pad: float) -> None:
    """Matching needs ``iou_threshold`` in [0, 1] and ``pad`` finite and
    >= 0; anything else raises ValueError."""
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold!r}")
    if not 0.0 <= pad < math.inf:
        raise ValueError(f"pad must be finite and >= 0, got {pad!r}")


@dataclass(frozen=True)
class EvalConfig:
    """How detections are scored, and the library's defaults for it (no
    slots, so ``EvalConfig.pad`` reads a default): a detection box padded by
    ``pad`` px matches a lesion at IoU >= ``iou_threshold``, and sensitivity
    is read at the ``fp_targets`` FPs-per-image rates, a list as in a config
    file. Values the checks below refuse raise ValueError."""

    iou_threshold: float = 0.5
    pad: float = 5.0
    fp_targets: list[float] = field(default_factory=lambda: list(FP_TARGETS_DEFAULT))

    def __post_init__(self) -> None:
        check_match_settings(self.iou_threshold, self.pad)
        check_fp_targets(self.fp_targets)


def match_detections(
    detections: Sequence[Detection],
    gt_boxes: Sequence[BBox],
    iou_threshold: float = EvalConfig.iou_threshold,
    pad: float = EvalConfig.pad,
) -> MatchResult:
    """Greedy best-IoU matching of one image's detections to its lesions.

    Detections are visited in score-descending order (ties by input index).
    Each detection's box is padded by ``pad`` pixels before comparison; the
    ground-truth boxes are expected to be padded already. A detection is a
    true positive when its best IoU against a still-unmatched ground truth
    reaches the threshold; every ground truth is matched at most once.
    Settings :func:`check_match_settings` refuses raise ValueError.
    """
    check_match_settings(iou_threshold, pad)
    dets = Detections.of(detections)
    order = (-dets.scores).argsort(kind="stable")
    # padded as pad_bbox pads: x1 - pad, y1 - pad, x2 + pad, y2 + pad
    padded = dets.rows[:, BOX_COLUMNS] + np.array([-pad, -pad, pad, pad])
    gts = np.array([g.as_tuple() for g in gt_boxes], dtype=np.float64).reshape(-1, 4)
    ious = pairwise_iou(padded, gts)
    # only an overlap strictly above 0 can match, which also rules out NaN
    overlap = np.where(ious > 0.0, ious, 0.0)
    # each detection's lesions by overlap, best first, ties to the lower
    # index as argmax breaks them: its best unmatched one is the first
    # unmatched in this order
    ranked = (-overlap).argsort(axis=1, kind="stable").tolist()
    values = overlap.tolist()
    gt_index, matched = [], set()
    for i in order.tolist():
        for g in ranked[i]:
            if g not in matched:
                break
        else:
            g = -1
        if g >= 0 and values[i][g] > 0.0 and values[i][g] >= iou_threshold:
            matched.add(g)  # every ground truth is matched at most once
            gt_index.append(g)
        else:
            gt_index.append(-1)
    return MatchResult(order, dets.scores[order], gt_index, len(gt_boxes))


def check_fp_targets(values: Sequence[float]) -> None:
    """FPs-per-image targets must be a non-empty list of finite numbers >= 0;
    numpy scalars are judged as the Python numbers they hold."""
    targets = [v.item() if isinstance(v, np.generic) else v for v in values]
    if not targets or not all(is_finite_number(v) and v >= 0 for v in targets):
        raise ValueError(
            f"FP targets must be a non-empty list of finite numbers >= 0, "
            f"got {targets!r}"
        )


def froc(
    matches: Sequence[MatchResult],
    fp_targets: Sequence[float] = FP_TARGETS_DEFAULT,
) -> FrocResult:
    """Sensitivity at the requested FPs-per-image targets.

    This is :func:`stratified_froc` with every lesion in one stratum.
    Raises ValueError when there are no images or no lesions, or when
    :func:`check_fp_targets` refuses ``fp_targets``; an image set with
    detections on none of them still yields sensitivity 0 everywhere.
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
    stratum's lesions, over that stratum's lesion count. Raises ValueError
    when :func:`check_fp_targets` refuses ``fp_targets``.
    """
    if len(gt_labels) != len(matches):
        raise ValueError("gt_labels must align with matches per image")
    for m, labels in zip(matches, gt_labels):
        if len(labels) != m.n_gt:
            raise ValueError("per-image label count must equal n_gt")
    check_fp_targets(fp_targets)

    n_per_stratum: dict[str, int] = {}
    for labels in gt_labels:
        for label in labels:
            n_per_stratum[label] = n_per_stratum.get(label, 0) + 1
    strata = sorted(n_per_stratum)

    # every detection's score, and the stratum index of the lesion it
    # matched (-1 for a false positive), in image order: each lesion is
    # found among every image's lesions laid end to end, and a false
    # positive points past them at a -1
    code = {stratum: j for j, stratum in enumerate(strata)}
    lesion_code = np.array(
        [code[label] for labels in gt_labels for label in labels] + [-1], dtype=np.intp
    )
    image_lesions = np.array([m.n_gt for m in matches], dtype=np.intp)
    first_lesion = np.repeat(
        np.cumsum(image_lesions) - image_lesions, [m.scores.size for m in matches]
    )
    scores = np.concatenate([np.empty(0), *(m.scores for m in matches)])
    lesions = np.concatenate([np.empty(0, np.intp), *(m.gt_index for m in matches)])
    codes = lesion_code[np.where(lesions >= 0, first_lesion + lesions, -1)]
    order = np.argsort(-scores, kind="stable")
    ranked, codes = scores[order], codes[order]
    # one operating point per distinct score, at the last detection scoring
    # it, after the empty point that keeps nothing
    last = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    thresholds = np.concatenate(([math.inf], ranked[ends]))
    n_images = len(matches)
    fp_rate = np.concatenate(([0.0], np.cumsum(codes < 0)[ends] / n_images))

    per_stratum = {}
    for j, stratum in enumerate(strata):
        n_gt = n_per_stratum[stratum]
        sensitivity = np.concatenate(([0.0], np.cumsum(codes == j)[ends] / n_gt))
        points = []
        for target in fp_targets:
            # the best sensitivity at an FP rate within the target, at the
            # highest threshold that reaches it; the empty point always
            # qualifies, so thresholds never rise as the target grows
            k = int(np.where(fp_rate > target, -1.0, sensitivity).argmax())
            points.append(FrocPoint(
                target, sensitivity[k].item(), thresholds[k].item(), fp_rate[k].item()
            ))
        per_stratum[stratum] = FrocResult(points, n_images=n_images, n_lesions=n_gt)
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
