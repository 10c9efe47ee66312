"""Evaluation: greedy matching, the hand-enumerated 3-image FROC scenario,
monotonicity properties, stratification boundaries, the array FROC sweep
against the per-detection sweep it replaced, and the match record's storage
and refusals."""

import gc
import math
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recistkit import evaluation
from recistkit.dataio import RecistAnnotation
from recistkit.evaluation import (
    DetectionMatch,
    EvalConfig,
    FrocPoint,
    FrocResult,
    MatchResult,
    Strata,
    check_fp_targets,
    diameter_bucket,
    evaluate,
    format_report,
    froc,
    interval_bucket,
    lesion_type_name,
    match_detections,
    stratified_froc,
)
from recistkit.geometry import pad_bbox
from recistkit.grouping import Detections
from tests.test_fusion import (
    box_of,
    make_detection,
    match_bits,
    match_result,
    match_rows,
    random_detections,
)
from tests.test_geometry import iou


def loop_match_detections(detections, gt_boxes, iou_threshold=0.5, pad=5.0):
    """The per-pair loop ``match_detections`` replaced, copied without change
    but for reading each box from the detection's row."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken = [False] * len(gt_boxes)
    records = []
    for i in order:
        det_box = pad_bbox(box_of(detections[i]), pad)
        best_iou, best_gt = 0.0, None
        for g, gt in enumerate(gt_boxes):
            if taken[g]:
                continue
            overlap = iou(det_box, gt)
            if overlap > best_iou:
                best_iou, best_gt = overlap, g
        if best_gt is not None and best_iou >= iou_threshold:
            taken[best_gt] = True
            records.append((i, detections[i].score, best_gt))
        else:
            records.append((i, detections[i].score, None))
    return match_result(records, len(gt_boxes))


def gt_at(x, y, size=20.0, pad=5.0):
    """A padded ground-truth box whose unpadded core starts at (x, y)."""
    return pad_bbox((x, y, x + size, y + size), pad)


def det_at(x, y, score, size=20.0):
    """A detection whose 5px-padded box equals gt_at(x, y)."""
    return make_detection(x, y, x + size, y + size, score)


class TestMatchDetections:
    def test_exact_match_is_tp(self):
        result = match_detections(Detections.of([det_at(10, 10, 0.9)]), [gt_at(10, 10)])
        assert result.records[0].is_tp
        assert result.records[0].gt_index == 0
        assert result.n_gt == 1

    def test_two_dets_one_gt(self):
        dets = [det_at(10, 10, 0.7), det_at(10, 10, 0.9)]
        result = match_detections(Detections.of(dets), [gt_at(10, 10)])
        by_index = {r.det_index: r for r in result.records}
        assert by_index[1].is_tp  # higher score wins the gt
        assert not by_index[0].is_tp

    def test_score_order_with_index_tiebreak(self):
        dets = [det_at(10, 10, 0.9), det_at(10, 10, 0.9)]
        result = match_detections(Detections.of(dets), [gt_at(10, 10)])
        by_index = {r.det_index: r for r in result.records}
        assert by_index[0].is_tp
        assert not by_index[1].is_tp

    def test_best_iou_gt_chosen(self):
        gts = [gt_at(10, 10), gt_at(18, 10)]
        dets = Detections.of([det_at(17, 10, 0.9)])
        result = match_detections(dets, gts, EvalConfig(iou_threshold=0.3))
        assert result.records[0].gt_index == 1

    def test_below_threshold_is_fp(self):
        dets = Detections.of([det_at(100, 100, 0.9)])
        result = match_detections(dets, [gt_at(10, 10)])
        assert not result.records[0].is_tp

    def test_each_gt_matched_once(self):
        dets = [det_at(10, 10, s) for s in (0.9, 0.8, 0.7)]
        result = match_detections(Detections.of(dets), [gt_at(10, 10), gt_at(10, 10)])
        assert sum(r.is_tp for r in result.records) == 2

    def test_input_order_invariant_for_distinct_scores(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            scores = rng.choice(np.arange(1, 100), size=6, replace=False) / 100
            positions = rng.choice(np.arange(10), size=6, replace=False) * 40.0
            dets = [det_at(x, 10, float(s)) for x, s in zip(positions, scores)]
            gts = [gt_at(positions[i], 10) for i in range(3)]
            base = match_detections(Detections.of(dets), gts)
            outcome = {(r.score, r.is_tp, r.gt_index) for r in base.records}
            order = list(rng.permutation(len(dets)))
            shuffled = match_detections(Detections.of([dets[i] for i in order]), gts)
            assert {(r.score, r.is_tp, r.gt_index) for r in shuffled.records} == outcome

    def test_box_tuples_and_array_match_alike(self):
        rng = np.random.default_rng(84)
        for _ in range(50):
            gts = [gt_at(*rng.integers(0, 8, 2) * 10.0) for _ in range(4)]
            dets = Detections.of([det_at(*rng.integers(0, 8, 2) * 10.0, float(s))
                                  for s in rng.uniform(size=6)])
            cfg = EvalConfig(iou_threshold=0.3)
            listed = match_bits(match_detections(dets, gts, cfg))
            assert match_bits(match_detections(dets, np.asarray(gts), cfg)) == listed
            assert match_bits(match_detections(dets, tuple(gts), cfg)) == listed

    def test_no_ground_truth_as_list_or_empty_array(self):
        dets = Detections.of([det_at(10, 10, 0.9), det_at(50, 10, 0.8)])
        for none in ([], (), np.empty((0, 4))):
            result = match_detections(dets, none)
            assert result.n_gt == 0
            assert [r.gt_index for r in result.records] == [None, None]
        assert match_detections(Detections.of([]), np.empty((0, 4))).records == []

    def test_boxes_not_of_four_numbers_raise(self):
        # three boxes of four numbers are not four boxes of three
        dets = Detections.of([det_at(10, 10, 0.9)])
        with pytest.raises(ValueError):
            match_detections(dets, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            match_detections(dets, [(0.0, 0.0, 1.0)] * 4)

    @pytest.mark.parametrize("iou_threshold,pad,named", [
        (1.5, 5.0, "iou_threshold"), (-0.1, 5.0, "iou_threshold"),
        (math.nan, 5.0, "iou_threshold"), (0.5, -1.0, "pad"),
        (0.5, math.inf, "pad"), (0.5, math.nan, "pad"),
    ])
    def test_out_of_range_settings_raise(self, iou_threshold, pad, named):
        # an IoU above 1 or a negative pad once matched nothing, and a
        # negative IoU any overlap, without a word
        with pytest.raises(ValueError, match=named):
            match_detections(Detections.of([det_at(10, 10, 0.9)]), [gt_at(10, 10)],
                             EvalConfig(iou_threshold=iou_threshold, pad=pad))


class TestMatchOnIouMatrix:
    """One IoU matrix against the per-pair loop, record for record."""

    @staticmethod
    def lattice_box(rng):
        # quarter-pixel corners on a small field: exact IoU ties, shared
        # and zero-area boxes, and many boxes with no overlap at all
        x1, y1 = rng.integers(0, 160, size=2) / 4
        w, h = rng.integers(0, 80, size=2) / 4
        return (x1, y1, x1 + w, y1 + h)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(85)
        tps = 0
        for case in range(400):
            gts = [self.lattice_box(rng) for _ in range(int(rng.integers(0, 6)))]
            if gts and rng.random() < 0.3:
                gts.insert(int(rng.integers(len(gts))), gts[-1])  # IoU ties
            dets = []
            for _ in range(int(rng.integers(0, 25))):
                if gts and rng.random() < 0.3:
                    box = gts[int(rng.integers(len(gts)))]
                else:
                    box = self.lattice_box(rng)
                if rng.random() < 0.5:
                    score = float(rng.choice([0.25, 0.5, 0.75]))  # tied scores
                else:
                    score = float(rng.uniform())
                dets.append(make_detection(*box, score))
            threshold = float(rng.choice([0.0, 0.1, 0.3, 0.5, 1.0]))
            pad = float(rng.choice([0.0, 2.5, 5.0]))
            got = match_detections(
                Detections.of(dets), gts, EvalConfig(iou_threshold=threshold, pad=pad)
            )
            expected = loop_match_detections(dets, gts, threshold, pad)
            assert match_bits(got) == match_bits(expected)
            tps += sum(r.is_tp for r in got.records)
        assert tps > 200

    def test_nan_overlap_never_matches(self):
        # a zero-width box at x = inf has a NaN area, so every IoU with it
        # is NaN, which the strict > 0 test of the loop never picks
        gts = [(math.inf, 0.0, math.inf, 10.0), gt_at(10, 10)]
        dets = [det_at(10, 10, 0.9), det_at(10, 10, 0.8)]
        expected = loop_match_detections(dets, gts)
        assert [r.gt_index for r in expected.records] == [1, None]
        assert match_bits(match_detections(Detections.of(dets), gts)) == match_bits(
            expected
        )


def crafted_three_image_matches():
    """5 gts, 7 dets across 3 images with hand-assigned labels.

    image 1: TP@0.9, FP@0.8, TP@0.7 (2 gts)
    image 2: TP@0.85, FP@0.6, TP@0.5 (2 gts)
    image 3: FP@0.4 (1 gt, never detected)
    """
    img1 = match_detections(
        Detections.of(
            [det_at(10, 10, 0.9), det_at(300, 300, 0.8), det_at(60, 60, 0.7)]
        ),
        [gt_at(10, 10), gt_at(60, 60)],
    )
    img2 = match_detections(
        Detections.of(
            [det_at(10, 10, 0.85), det_at(300, 300, 0.6), det_at(60, 60, 0.5)]
        ),
        [gt_at(10, 10), gt_at(60, 60)],
    )
    img3 = match_detections(Detections.of([det_at(300, 300, 0.4)]), [gt_at(10, 10)])
    return [img1, img2, img3]


class TestFroc:
    def test_crafted_scenario_labels(self):
        img1, img2, img3 = crafted_three_image_matches()
        assert [r.is_tp for r in img1.records] == [True, False, True]
        assert [r.is_tp for r in img2.records] == [True, False, True]
        assert [r.is_tp for r in img3.records] == [False]

    def test_crafted_scenario_hand_enumerated_sensitivities(self):
        # thresholds: 0.9 ->(0, .2) 0.85 ->(0, .4) 0.8 ->(1/3, .4)
        # 0.7 ->(1/3, .6) 0.6 ->(2/3, .6) 0.5 ->(2/3, .8) 0.4 ->(1, .8)
        result = froc(crafted_three_image_matches(), fp_targets=(0.5, 1, 2, 3, 4))
        sens = [p.sensitivity for p in result.points]
        assert sens == [0.6, 0.8, 0.8, 0.8, 0.8]
        assert result.points[0].threshold == 0.7
        assert result.points[1].threshold == 0.5
        assert result.n_images == 3
        assert result.n_lesions == 5

    def test_perfect_detection(self):
        matches = [
            match_detections(Detections.of([det_at(10, 10, 1.0)]), [gt_at(10, 10)])
            for _ in range(4)
        ]
        result = froc(matches)
        for p in result.points:
            assert p.sensitivity == 1.0
            assert p.fp_per_image == 0.0

    def test_no_detections(self):
        matches = [match_result([], 2) for _ in range(3)]
        result = froc(matches)
        for p in result.points:
            assert p.sensitivity == 0.0
            assert math.isinf(p.threshold)

    def test_zero_lesions_error(self):
        with pytest.raises(ValueError, match="lesion"):
            froc([match_result([], 0)])
        with pytest.raises(ValueError, match="image"):
            froc([])

    def test_single_threshold_equals_direct_count(self):
        matches = crafted_three_image_matches()
        flat = [r for m in matches for r in m.records]
        for threshold in sorted({r.score for r in flat}):
            tp = sum(r.is_tp for r in flat if r.score >= threshold)
            fp = sum(not r.is_tp for r in flat if r.score >= threshold)
            target = fp / 3
            point = froc(matches, fp_targets=(target,)).points[0]
            assert point.sensitivity >= tp / 5
            assert point.fp_per_image <= target

    def test_duplicating_images_preserves_operating_points(self):
        matches = crafted_three_image_matches()
        doubled = matches + crafted_three_image_matches()
        a = froc(matches)
        b = froc(doubled)
        assert [p.sensitivity for p in a.points] == [p.sensitivity for p in b.points]
        assert [p.threshold for p in a.points] == [p.threshold for p in b.points]

    def test_sensitivity_nondecreasing_in_target(self):
        rng = np.random.default_rng(80)
        for _ in range(1000):
            matches = random_matches(rng)
            points = froc(matches, fp_targets=(0.5, 1, 2, 3, 4)).points
            sens = [p.sensitivity for p in points]
            assert sens == sorted(sens)
            thresholds = [p.threshold for p in points]
            assert thresholds == sorted(thresholds, reverse=True)

    def test_adding_fp_never_raises_sensitivity(self):
        rng = np.random.default_rng(81)
        for _ in range(300):
            matches = random_matches(rng)
            base = froc(matches).points
            extra = [m for m in matches]
            records = match_rows(extra[0])
            records.append((99, float(rng.uniform(0, 1)), None))
            extra[0] = match_result(records, extra[0].n_gt)
            more = froc(extra).points
            for p_base, p_more in zip(base, more):
                assert p_more.sensitivity <= p_base.sensitivity + 1e-12

    def test_adding_tp_never_lowers_sensitivity(self):
        rng = np.random.default_rng(82)
        for _ in range(300):
            matches = random_matches(rng, spare_gt=True)
            base = froc(matches).points
            extra = [m for m in matches]
            records = match_rows(extra[0])
            taken = {g for _, _, g in records if g is not None}
            free = next(g for g in range(extra[0].n_gt) if g not in taken)
            records.append((99, float(rng.uniform(0, 1)), free))
            extra[0] = match_result(records, extra[0].n_gt)
            more = froc(extra).points
            for p_base, p_more in zip(base, more):
                assert p_more.sensitivity >= p_base.sensitivity - 1e-12


def random_matches(rng, n_images=None, spare_gt=False):
    """Random but consistent MatchResults (each gt matched at most once)."""
    n_images = n_images or int(rng.integers(1, 5))
    out = []
    for _ in range(n_images):
        n_gt = int(rng.integers(1, 4)) + (1 if spare_gt else 0)
        records = []
        available = list(range(n_gt - 1 if spare_gt else n_gt))
        for det_index in range(int(rng.integers(0, 6))):
            score = float(rng.uniform(0, 1))
            if available and rng.random() < 0.5:
                gt = available.pop(0)
                records.append((det_index, score, gt))
            else:
                records.append((det_index, score, None))
        out.append(match_result(records, n_gt))
    return out


class TestStratifiedFroc:
    def test_single_stratum_equals_plain_froc(self):
        matches = crafted_three_image_matches()
        labels = [["LU"] * m.n_gt for m in matches]
        strata = stratified_froc(matches, labels, key="type")
        plain = froc(matches)
        assert strata.key == "type"
        assert list(strata.per_stratum) == ["LU"]
        got = strata.per_stratum["LU"]
        assert [p.sensitivity for p in got.points] == [
            p.sensitivity for p in plain.points
        ]

    def test_two_disjoint_perfect_strata(self):
        img = match_detections(
            Detections.of([det_at(10, 10, 0.9), det_at(60, 60, 0.8)]),
            [gt_at(10, 10), gt_at(60, 60)],
        )
        strata = stratified_froc([img], [["LU", "LV"]], key="type")
        for name in ("LU", "LV"):
            assert all(p.sensitivity == 1.0 for p in strata.per_stratum[name].points)

    def test_fp_counted_globally(self):
        # the LV stratum's detection is clean, but a flood of global FPs
        # above its score pushes it past every FP budget
        img = match_detections(
            Detections.of(
                [det_at(300 + 40 * i, 300, 0.9) for i in range(8)]
                + [det_at(10, 10, 0.5)]
            ),
            [gt_at(10, 10)],
        )
        strata = stratified_froc([img], [["LV"]], key="type")
        points = strata.per_stratum["LV"].points
        assert points[0].sensitivity == 0.0  # 0.5 FP target unreachable
        assert points[-1].sensitivity == 0.0  # even at 4 FP/image: 8 FPs above

    def test_label_validation(self):
        matches = crafted_three_image_matches()
        with pytest.raises(ValueError):
            stratified_froc(matches, [["LU"]], key="type")

    def test_label_count_must_equal_each_images_lesions(self):
        matches = crafted_three_image_matches()
        labels = [["LU"] * m.n_gt for m in matches]
        labels[1].append("LU")
        with pytest.raises(ValueError, match="per-image label count must equal n_gt"):
            stratified_froc(matches, labels, key="type")

    def test_diameter_buckets(self):
        assert diameter_bucket(9.9) == "<10"
        assert diameter_bucket(10.0) == "10-30"
        assert diameter_bucket(30.0) == "10-30"
        assert diameter_bucket(30.1) == ">30"
        assert diameter_bucket(0.5) == "<10"

    def test_interval_buckets(self):
        assert interval_bucket(1.0) == "<2.5"
        assert interval_bucket(2.5) == ">2.5"
        assert interval_bucket(5.0) == ">2.5"

    def test_lesion_type_names(self):
        # every code's label is pinned: with only distinct labels checked, a
        # code mapped to another key reads "other" and still passes
        assert [lesion_type_name(code) for code in range(10)] == [
            "other", "BN", "AB", "ME", "LV", "LU", "KD", "ST", "PV", "other",
        ]
        assert lesion_type_name(-1) == "other"


def lesion(key, x, y, lesion_type, long_px, spacing):
    """An annotation of image ``key`` whose padded box is gt_at(x, y)."""
    endpoints = (x, y + 10, x + 20, y + 10, x + 10, y, x + 10, y + 20)
    return RecistAnnotation(key, endpoints, gt_at(x, y), lesion_type,
                            (long_px, long_px / 2), spacing, "test")


def mixed_key_inputs():
    """Detections and annotations keyed differently: image "a" holds two
    lesions, both found; "b" one lesion and no detection; "c" one false
    positive, scored highest, and no lesion."""
    found, missed = (1, 5.0, (1.0, 1.0, 1.0)), (2, 40.0, (1.0, 1.0, 5.0))
    annotations = [lesion("a", 0, 0, *found), lesion("b", 0, 0, *missed),
                   lesion("a", 100, 0, *found)]
    detections = {
        "a": Detections.of([det_at(100, 0, 0.8), det_at(0, 0, 0.9)]),
        "c": Detections.of([det_at(50, 50, 0.95)]),
    }
    return detections, annotations


class TestEvaluate:
    @staticmethod
    def froc_dict(n_lesions, sensitivity, threshold, fp_per_image):
        points = [{"fp_target": t, "sensitivity": sensitivity, "threshold": threshold,
                   "fp_per_image": fp_per_image} for t in EvalConfig().fp_targets]
        return {"n_images": 3, "n_lesions": n_lesions, "points": points}

    @pytest.mark.parametrize("stratify,found,missed", [
        (None, None, None),
        ("type", "BN", "AB"),
        ("diameter", "<10", ">30"),
        ("interval", "<2.5", ">2.5"),
    ])
    def test_every_key_of_either_input_is_one_image(self, stratify, found, missed):
        # "c" counts as an image of false positives only, "b" as one with a
        # lesion missed: without either the rates below would differ
        report = evaluate(*mixed_key_inputs(), EvalConfig(), stratify)
        assert list(report) == ["criterion", "froc", "strata"]
        assert report["criterion"] == "iou-on-padded-boxes"
        assert report["froc"] == self.froc_dict(3, 2 / 3, 0.8, 1 / 3)
        if stratify is None:
            assert report["strata"] is None
        else:
            assert report["strata"] == {"key": stratify, "per_stratum": {
                found: self.froc_dict(2, 1.0, 0.8, 1 / 3),
                missed: self.froc_dict(1, 0.0, None, 0.0),
            }}

    def test_text_table(self):
        # at 0.25 FPs per image only the empty point qualifies: no threshold
        cfg = EvalConfig(fp_targets=[0.25, 4.0])
        report = evaluate(*mixed_key_inputs(), cfg, "type")
        assert format_report(report, cfg) == (
            "FROC sensitivity (matching: IoU >= 0.5 on boxes padded 5 px)\n"
            "images: 3    lesions: 3\n"
            "FPs/image          0.25        4\n"
            "sensitivity      0.0000   0.6667\n"
            "threshold             -   0.8000\n"
            "\n"
            "stratified by type\n"
            "AB (1)           0.0000   0.0000\n"
            "BN (2)           0.0000   1.0000\n"
        )

    def test_unknown_stratify_key_is_named(self):
        with pytest.raises(ValueError, match="unknown stratify key 'size': "
                                             "expected one of type, diameter"):
            evaluate(*mixed_key_inputs(), EvalConfig(), "size")

    def test_no_annotation_raises(self):
        detections, _ = mixed_key_inputs()
        with pytest.raises(ValueError, match="at least one ground-truth lesion"):
            evaluate(detections, [], EvalConfig(), None)


# --- oracle: the per-detection FROC sweep -------------------------------------
# ``stratified_froc`` and ``_best_at_target`` as they were before the sweep
# ran on arrays, copied without change except for their names.


@dataclass(frozen=True, slots=True)
class _SweepPoint:
    threshold: float
    fp_rate: float


def _best_at_target(points_with_tp, fp_target, n_lesions) -> FrocPoint:
    best = None
    for p, tp in points_with_tp:  # descending threshold order
        if p.fp_rate > fp_target:
            continue
        sens = tp / n_lesions
        if best is None or sens > best[0]:
            best = (sens, p.threshold, p.fp_rate)
    sens, threshold, fp_rate = best  # the empty point always qualifies
    return FrocPoint(fp_target, sens, threshold, fp_rate)


def oracle_stratified_froc(matches, gt_labels, key, fp_targets) -> Strata:
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


def strata_bits(strata: Strata) -> list:
    return [
        (name, result.n_images, result.n_lesions, [
            (p.fp_target, float(p.sensitivity).hex(), float(p.threshold).hex(),
             float(p.fp_per_image).hex())
            for p in result.points
        ])
        for name, result in strata.per_stratum.items()
    ]


@st.composite
def labelled_matches(draw):
    """Images with 0-4 lesions in up to three strata and tied, zero and
    signed-zero scores; each lesion is matched at most once."""
    matches, labels = [], []
    for _ in range(draw(st.integers(1, 6))):
        n_gt = draw(st.integers(0, 4))
        free = list(range(n_gt))
        records = []
        for i in range(draw(st.integers(0, 8))):
            score = draw(st.one_of(
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]), st.floats(0.0, 6.0)
            ))
            if free and draw(st.booleans()):
                records.append((i, score, free.pop(
                    draw(st.integers(0, len(free) - 1)))))
            else:
                records.append((i, score, None))
        matches.append(match_result(records, n_gt))
        labels.append(draw(st.lists(
            st.sampled_from(["<10", "10-30", ">30"]), min_size=n_gt, max_size=n_gt
        )))
    return matches, labels


class TestFrocSweepOracle:
    @settings(max_examples=200)
    @given(
        case=labelled_matches(),
        fp_targets=st.lists(
            st.one_of(st.sampled_from([0, 0.0, 0.25, 1, 4.0]), st.floats(0.0, 10.0)),
            min_size=1, max_size=5,
        ),
    )
    def test_bitwise(self, case, fp_targets):
        matches, labels = case
        assert strata_bits(
            stratified_froc(matches, labels, "diameter", fp_targets)
        ) == strata_bits(oracle_stratified_froc(matches, labels, "diameter", fp_targets))

    def test_crafted_and_random_images(self):
        rng = np.random.default_rng(83)
        cases = [crafted_three_image_matches()] + [
            random_matches(rng) for _ in range(200)
        ]
        for matches in cases:
            labels = [["all"] * m.n_gt for m in matches]
            targets = (0.0, 0.5, 1, 2.0, 3.0, 4.0)
            assert strata_bits(stratified_froc(matches, labels, "all", targets)) == (
                strata_bits(oracle_stratified_froc(matches, labels, "all", targets))
            )


class TestMatchRecord:
    def test_fields_are_three_arrays_and_a_count(self):
        rng = np.random.default_rng(86)
        dets = random_detections(rng, 40)
        gts = [pad_bbox(box_of(d), 5.0) for d in list(dets)[:4]]
        result = match_detections(dets, gts)
        assert [f.name for f in fields(MatchResult)] == [
            "order", "scores", "gt_index", "n_gt"
        ]
        assert MatchResult.__slots__ == ("order", "scores", "gt_index", "n_gt")
        for array, dtype in (
            (result.order, np.intp), (result.scores, np.float64),
            (result.gt_index, np.intp),
        ):
            assert type(array) is np.ndarray and array.dtype == dtype
            assert array.shape == (40,)
        assert result.n_gt == 4 and (result.gt_index >= 0).sum() == 4
        assert match_bits(result) == match_bits(loop_match_detections(list(dets), gts))

    def test_match_and_froc_build_no_detection_match(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a DetectionMatch was built")

        matches = crafted_three_image_matches()  # built before the patch
        monkeypatch.setattr(evaluation, "DetectionMatch", refuse)
        dets = Detections.of([det_at(10, 10, 0.9), det_at(60, 60, 0.8)])
        match_detections(dets, [gt_at(10, 10)])
        froc(matches)
        stratified_froc(matches, [["a", "b"], ["b", "b"], ["a"]], "type")

    def test_retains_under_4_kb_per_112_detection_image(self):
        rng = np.random.default_rng(87)
        dets = random_detections(rng, 112, span=700.0)
        gts = [pad_bbox(box_of(d), 5.0) for d in list(dets)[:3]]
        match_detections(dets, gts)  # lazy set-up happens outside the trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [match_detections(dets, gts) for _ in range(20)]
            gc.collect()
            retained = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        assert len(kept[0].order) == 112
        assert retained < 4096, retained

    def test_views_use_python_numbers_and_none(self):
        result = MatchResult([2, 0], [0.5, 0.25], [-1, 1], 2)
        assert result.records == [
            DetectionMatch(2, 0.5, None), DetectionMatch(0, 0.25, 1)
        ]
        for r in result.records:
            assert type(r.det_index) is int and type(r.score) is float
            assert type(r.is_tp) is bool

    def test_arrays_refused_when_inconsistent(self):
        with pytest.raises(ValueError, match="record 2: lesion 1 is matched twice"):
            MatchResult([0, 1, 2], [0.9, 0.8, 0.7], [1, -1, 1], 2)
        with pytest.raises(ValueError, match=r"record 1: gt_index -2 is outside"):
            MatchResult([0, 1, 2], [0.9, 0.8, 0.7], [0, -2, 7], 2)
        with pytest.raises(ValueError, match="n_gt must be >= 0"):
            MatchResult([], [], [], -1)
        with pytest.raises(ValueError, match="of one length"):
            MatchResult([0, 1], [0.9], [-1, -1], 0)


class TestFpTargets:
    @pytest.mark.parametrize(
        "targets", [[math.nan, -1.0], [], [-1.0], [math.inf], [True], ["1"]]
    )
    def test_froc_and_stratified_froc_refuse(self, targets):
        matches = crafted_three_image_matches()
        labels = [["LU"] * m.n_gt for m in matches]
        with pytest.raises(ValueError, match="FP targets must be"):
            froc(matches, targets)
        with pytest.raises(ValueError, match="FP targets must be"):
            stratified_froc(matches, labels, "type", targets)
        with pytest.raises(ValueError, match="FP targets must be"):
            check_fp_targets(targets)

    def test_numpy_targets_accepted(self):
        matches = crafted_three_image_matches()
        expected = froc(matches, [0.5, 1.0])
        for targets in (np.array([0.5, 1.0]), [np.float32(0.5), np.int64(1)]):
            assert froc(matches, targets) == expected
        with pytest.raises(ValueError, match=r"got \[True, 1\]"):
            froc(matches, [np.bool_(True), np.int64(1)])
