"""Evaluation: greedy matching, the hand-enumerated 3-image FROC scenario,
monotonicity properties, and stratification boundaries."""

import math

import numpy as np
import pytest

from recistkit.evaluation import (
    DetectionMatch,
    MatchResult,
    diameter_bucket,
    froc,
    interval_bucket,
    lesion_type_name,
    match_detections,
    stratified_froc,
)
from recistkit.geometry import BBox, iou, pad_bbox
from tests.test_fusion import make_detection


def loop_match_detections(detections, gt_boxes, iou_threshold=0.5, pad=5.0):
    """The per-pair loop ``match_detections`` replaced, copied without change."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    taken = [False] * len(gt_boxes)
    records = []
    for i in order:
        det_box = pad_bbox(detections[i].bbox, pad)
        best_iou, best_gt = 0.0, None
        for g, gt in enumerate(gt_boxes):
            if taken[g]:
                continue
            overlap = iou(det_box, gt)
            if overlap > best_iou:
                best_iou, best_gt = overlap, g
        if best_gt is not None and best_iou >= iou_threshold:
            taken[best_gt] = True
            records.append(DetectionMatch(i, detections[i].score, True, best_gt))
        else:
            records.append(DetectionMatch(i, detections[i].score, False, None))
    return MatchResult(records=records, n_gt=len(gt_boxes))


def gt_at(x, y, size=20.0, pad=5.0):
    """A padded ground-truth box whose unpadded core starts at (x, y)."""
    return pad_bbox(BBox(x, y, x + size, y + size), pad)


def det_at(x, y, score, size=20.0):
    """A detection whose 5px-padded box equals gt_at(x, y)."""
    return make_detection(x, y, x + size, y + size, score)


class TestMatchDetections:
    def test_exact_match_is_tp(self):
        result = match_detections([det_at(10, 10, 0.9)], [gt_at(10, 10)])
        assert result.records[0].is_tp
        assert result.records[0].gt_index == 0
        assert result.n_gt == 1

    def test_two_dets_one_gt(self):
        dets = [det_at(10, 10, 0.7), det_at(10, 10, 0.9)]
        result = match_detections(dets, [gt_at(10, 10)])
        by_index = {r.det_index: r for r in result.records}
        assert by_index[1].is_tp  # higher score wins the gt
        assert not by_index[0].is_tp

    def test_score_order_with_index_tiebreak(self):
        dets = [det_at(10, 10, 0.9), det_at(10, 10, 0.9)]
        result = match_detections(dets, [gt_at(10, 10)])
        by_index = {r.det_index: r for r in result.records}
        assert by_index[0].is_tp
        assert not by_index[1].is_tp

    def test_best_iou_gt_chosen(self):
        gts = [gt_at(10, 10), gt_at(18, 10)]
        result = match_detections([det_at(17, 10, 0.9)], gts, iou_threshold=0.3)
        assert result.records[0].gt_index == 1

    def test_below_threshold_is_fp(self):
        result = match_detections([det_at(100, 100, 0.9)], [gt_at(10, 10)])
        assert not result.records[0].is_tp

    def test_each_gt_matched_once(self):
        dets = [det_at(10, 10, s) for s in (0.9, 0.8, 0.7)]
        result = match_detections(dets, [gt_at(10, 10), gt_at(10, 10)])
        assert sum(r.is_tp for r in result.records) == 2

    def test_input_order_invariant_for_distinct_scores(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            scores = rng.choice(np.arange(1, 100), size=6, replace=False) / 100
            positions = rng.choice(np.arange(10), size=6, replace=False) * 40.0
            dets = [det_at(x, 10, float(s)) for x, s in zip(positions, scores)]
            gts = [gt_at(positions[i], 10) for i in range(3)]
            base = match_detections(dets, gts)
            outcome = {(r.score, r.is_tp, r.gt_index) for r in base.records}
            order = list(rng.permutation(len(dets)))
            shuffled = match_detections([dets[i] for i in order], gts)
            assert {(r.score, r.is_tp, r.gt_index) for r in shuffled.records} == outcome


class TestMatchOnIouMatrix:
    """One IoU matrix against the per-pair loop, record for record."""

    @staticmethod
    def lattice_box(rng):
        # quarter-pixel corners on a small field: exact IoU ties, shared
        # and zero-area boxes, and many boxes with no overlap at all
        x1, y1 = rng.integers(0, 160, size=2) / 4
        w, h = rng.integers(0, 80, size=2) / 4
        return BBox(x1, y1, x1 + w, y1 + h)

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
                dets.append(make_detection(*box.as_tuple(), score))
            threshold = float(rng.choice([0.0, 0.1, 0.3, 0.5, 1.0]))
            pad = float(rng.choice([0.0, 2.5, 5.0]))
            got = match_detections(dets, gts, threshold, pad)
            expected = loop_match_detections(dets, gts, threshold, pad)
            assert got == expected
            assert [r.score.hex() for r in got.records] == [
                r.score.hex() for r in expected.records
            ]
            tps += sum(r.is_tp for r in got.records)
        assert tps > 200

    def test_nan_overlap_never_matches(self):
        # a zero-width box at x = inf has a NaN area, so every IoU with it
        # is NaN, which the strict > 0 test of the loop never picks
        gts = [BBox(math.inf, 0.0, math.inf, 10.0), gt_at(10, 10)]
        dets = [det_at(10, 10, 0.9), det_at(10, 10, 0.8)]
        expected = loop_match_detections(dets, gts)
        assert [r.gt_index for r in expected.records] == [1, None]
        assert match_detections(dets, gts) == expected


def crafted_three_image_matches():
    """5 gts, 7 dets across 3 images with hand-assigned labels.

    image 1: TP@0.9, FP@0.8, TP@0.7 (2 gts)
    image 2: TP@0.85, FP@0.6, TP@0.5 (2 gts)
    image 3: FP@0.4 (1 gt, never detected)
    """
    img1 = match_detections(
        [det_at(10, 10, 0.9), det_at(300, 300, 0.8), det_at(60, 60, 0.7)],
        [gt_at(10, 10), gt_at(60, 60)],
    )
    img2 = match_detections(
        [det_at(10, 10, 0.85), det_at(300, 300, 0.6), det_at(60, 60, 0.5)],
        [gt_at(10, 10), gt_at(60, 60)],
    )
    img3 = match_detections([det_at(300, 300, 0.4)], [gt_at(10, 10)])
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
            match_detections([det_at(10, 10, 1.0)], [gt_at(10, 10)])
            for _ in range(4)
        ]
        result = froc(matches)
        for p in result.points:
            assert p.sensitivity == 1.0
            assert p.fp_per_image == 0.0

    def test_no_detections(self):
        matches = [MatchResult(records=[], n_gt=2) for _ in range(3)]
        result = froc(matches)
        for p in result.points:
            assert p.sensitivity == 0.0
            assert math.isinf(p.threshold)

    def test_zero_lesions_error(self):
        with pytest.raises(ValueError, match="lesion"):
            froc([MatchResult(records=[], n_gt=0)])
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
            records = list(extra[0].records)
            records.append(DetectionMatch(99, float(rng.uniform(0, 1)), False, None))
            extra[0] = MatchResult(records=records, n_gt=extra[0].n_gt)
            more = froc(extra).points
            for p_base, p_more in zip(base, more):
                assert p_more.sensitivity <= p_base.sensitivity + 1e-12

    def test_adding_tp_never_lowers_sensitivity(self):
        rng = np.random.default_rng(82)
        for _ in range(300):
            matches = random_matches(rng, spare_gt=True)
            base = froc(matches).points
            extra = [m for m in matches]
            records = list(extra[0].records)
            taken = {r.gt_index for r in records if r.is_tp}
            free = next(g for g in range(extra[0].n_gt) if g not in taken)
            records.append(DetectionMatch(99, float(rng.uniform(0, 1)), True, free))
            extra[0] = MatchResult(records=records, n_gt=extra[0].n_gt)
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
                records.append(DetectionMatch(det_index, score, True, gt))
            else:
                records.append(DetectionMatch(det_index, score, False, None))
        out.append(MatchResult(records=records, n_gt=n_gt))
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
            [det_at(10, 10, 0.9), det_at(60, 60, 0.8)],
            [gt_at(10, 10), gt_at(60, 60)],
        )
        strata = stratified_froc([img], [["LU", "LV"]], key="type")
        for name in ("LU", "LV"):
            assert all(p.sensitivity == 1.0 for p in strata.per_stratum[name].points)

    def test_fp_counted_globally(self):
        # the LV stratum's detection is clean, but a flood of global FPs
        # above its score pushes it past every FP budget
        img = match_detections(
            [det_at(300 + 40 * i, 300, 0.9) for i in range(8)]
            + [det_at(10, 10, 0.5)],
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
        assert lesion_type_name(5) == "LU"
        assert lesion_type_name(1) == "BN"
        assert lesion_type_name(-1) == "other"
        assert len({lesion_type_name(code) for code in range(1, 9)}) == 8
