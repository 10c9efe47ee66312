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
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import FP_TARGETS_DEFAULT, EvalConfig, check_fp_targets
from .dataio import RecistAnnotation, by_image
from .geometry import pairwise_iou
from .grouping import BOX_COLUMNS, Detections

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
    ``n_gt`` >= 0. Its arrays are shared, not copied: do not write to them.
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


def match_detections(
    detections: Detections,
    gt_boxes: Sequence[Sequence[float]] | np.ndarray,
    cfg: EvalConfig = EvalConfig(),
) -> MatchResult:
    """Greedy best-IoU matching of one image's detections to its lesions,
    whose (x1, y1, x2, y2) boxes ``gt_boxes`` holds as tuples or as the rows
    of an (m, 4) array.

    Detections are visited in score-descending order (ties by input index).
    Each detection's box is padded by ``cfg.pad`` pixels before comparison;
    the ground-truth boxes are expected to be padded already. A detection is
    a true positive when its best IoU against a still-unmatched ground truth
    reaches ``cfg.iou_threshold``; every ground truth is matched at most
    once.
    """
    pad, threshold = cfg.pad, cfg.iou_threshold
    order = (-detections.scores).argsort(kind="stable")
    # padded as pad_bbox pads: x1 - pad, y1 - pad, x2 + pad, y2 + pad
    padded = detections.rows[:, BOX_COLUMNS] + np.array([-pad, -pad, pad, pad])
    gts = np.asarray(gt_boxes, np.float64).reshape(len(gt_boxes), 4)
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
        if g >= 0 and values[i][g] > 0.0 and values[i][g] >= threshold:
            matched.add(g)  # every ground truth is matched at most once
            gt_index.append(g)
        else:
            gt_index.append(-1)
    return MatchResult(order, detections.scores[order], gt_index, len(gts))


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
    return _sweep(matches, None, fp_targets, overall=True)[0]


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
    return Strata(key=key, per_stratum=_sweep(matches, gt_labels, fp_targets)[1])


def _sweep(
    matches: Sequence[MatchResult],
    gt_labels: Sequence[Sequence[str]] | None,
    fp_targets: Sequence[float],
    overall: bool = False,
) -> tuple[FrocResult | None, dict[str, FrocResult]]:
    """One FROC sweep over ``matches``: the result over all lesions if
    ``overall`` (else None, and it raises as :func:`froc` does), and one per
    stratum of ``gt_labels``, labelled as :func:`stratified_froc` takes them."""
    n_lesions = sum(m.n_gt for m in matches)
    if overall and len(matches) == 0:
        raise ValueError("froc requires at least one image")
    if overall and n_lesions == 0:
        raise ValueError("froc requires at least one ground-truth lesion")
    check_fp_targets(fp_targets)
    n_per_stratum = Counter(label for labels in gt_labels or () for label in labels)
    strata = sorted(n_per_stratum)

    # every detection's score, and the stratum index of the lesion it
    # matched (-1 for a false positive), in image order: each lesion is
    # found among every image's lesions laid end to end, and a false
    # positive points past them at a -1; without strata, each lesion's is 0
    code = {stratum: j for j, stratum in enumerate(strata)}
    lesion_code = np.full(n_lesions + 1, -1, dtype=np.intp)
    lesion_code[:-1] = 0 if gt_labels is None else [
        code[label] for labels in gt_labels for label in labels
    ]
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

    def result(hits: np.ndarray, n_gt: int) -> FrocResult:
        """The FROC result of the lesions whose true positives are ``hits``."""
        sensitivity = np.concatenate(([0.0], np.cumsum(hits)[ends] / n_gt))
        points = []
        for target in fp_targets:
            # the best sensitivity at an FP rate within the target, at the
            # highest threshold that reaches it; the empty point always
            # qualifies, so thresholds never rise as the target grows
            k = int(np.where(fp_rate > target, -1.0, sensitivity).argmax())
            points.append(FrocPoint(
                target, sensitivity[k].item(), thresholds[k].item(), fp_rate[k].item()
            ))
        return FrocResult(points, n_images=n_images, n_lesions=n_gt)

    per_stratum = {stratum: result(codes == j, n_per_stratum[stratum])
                   for j, stratum in enumerate(strata)}
    return (result(codes >= 0, n_lesions) if overall else None), per_stratum


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


_STRATUM_LABELS = {
    "type": lambda ann: lesion_type_name(ann.lesion_type),
    "diameter": lambda ann: diameter_bucket(ann.long_diameter_mm),
    "interval": lambda ann: interval_bucket(ann.slice_interval_mm),
}


def _froc_dict(result: FrocResult) -> dict:
    return {
        "n_images": result.n_images,
        "n_lesions": result.n_lesions,
        "points": [
            {
                "fp_target": p.fp_target,
                "sensitivity": p.sensitivity,
                "threshold": None if math.isinf(p.threshold) else p.threshold,
                "fp_per_image": p.fp_per_image,
            }
            for p in result.points
        ],
    }


def evaluate(
    detections: Mapping[str, Detections],
    annotations: Sequence[RecistAnnotation],
    cfg: EvalConfig,
    stratify: str | None,
) -> dict:
    """The ``eval`` report less its config echo: the matching criterion, the
    FROC result and the per-stratum results by ``stratify`` ("type",
    "diameter", "interval", or None for none). Every image key of either
    input is scored, in sorted order; a detection key with no annotation is
    one more image, of false positives only. An unknown ``stratify`` key,
    or no annotation at all, raises ValueError."""
    if stratify is not None and stratify not in _STRATUM_LABELS:
        raise ValueError(f"unknown stratify key {stratify!r}: expected one of "
                         f"{', '.join(_STRATUM_LABELS)}")
    gts = by_image(annotations)
    empty = Detections.of(())
    matches, labels = [], None if stratify is None else []
    for key in sorted(set(detections) | set(gts)):
        anns = gts.get(key, [])
        boxes = [a.bbox for a in anns]
        matches.append(match_detections(detections.get(key, empty), boxes, cfg))
        if labels is not None:
            labels.append([_STRATUM_LABELS[stratify](a) for a in anns])

    # the overall and the per-stratum results of one sweep
    result, per = _sweep(matches, labels, cfg.fp_targets, overall=True)
    strata = None if labels is None else {
        "key": stratify, "per_stratum": {name: _froc_dict(r) for name, r in per.items()}
    }
    return {"criterion": "iou-on-padded-boxes", "froc": _froc_dict(result),
            "strata": strata}


def format_report(report: dict, cfg: EvalConfig) -> str:
    """The text table of an :func:`evaluate` report made under ``cfg``; a
    threshold that keeps nothing reads "-"."""

    def row(label: str, values) -> str:
        return label.ljust(14) + "".join(f"{v:>9}" for v in values)

    def fmt(value) -> str:
        return "-" if value is None else f"{value:.4f}"

    result, strata = report["froc"], report["strata"]
    lines = [
        f"FROC sensitivity (matching: IoU >= {cfg.iou_threshold:g} "
        f"on boxes padded {cfg.pad:g} px)",
        f"images: {result['n_images']}    lesions: {result['n_lesions']}",
        row("FPs/image", [f"{t:g}" for t in cfg.fp_targets]),
        row("sensitivity", [fmt(p["sensitivity"]) for p in result["points"]]),
        row("threshold", [fmt(p["threshold"]) for p in result["points"]]),
    ]
    if strata is not None:
        lines += ["", f"stratified by {strata['key']}"]
        for name, sub in sorted(strata["per_stratum"].items()):
            lines.append(row(f"{name} ({sub['n_lesions']})",
                             [fmt(p["sensitivity"]) for p in sub["points"]]))
    return "\n".join(lines) + "\n"
