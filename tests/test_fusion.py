"""Flip fusion and Soft-NMS: the decay formula example, round trips through
the flipped view, and the no-increase / identity properties."""

import math
import sys

import numpy as np
import pytest

from recistkit.evaluation import MatchResult
from recistkit.fusion import SoftNmsConfig, fuse_tta, soft_nms, unflip_detections
from recistkit.geometry import pairwise_iou
from recistkit.grouping import BOX_COLUMNS, Detection, Detections, detect
from recistkit.synthetic import flip_scene, generate_scene, simulate_heatmaps


def make_detection(x1, y1, x2, y2, score, source="original"):
    """Edge-midpoint extremes of the box (x1, y1, x2, y2)."""
    cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
    row = (cx, y1, x1, cy, cx, y2, x2, cy, cx, cy)
    return Detection(tuple(float(v) for v in row), score, source)


def sub_record(dets: Detections, index) -> Detections:
    """The record of ``dets``' rows at ``index``, a slice or an index array."""
    return Detections(dets.rows[index], dets.scores[index], dets.flipped[index])


def box_of(det: Detection) -> tuple[float, float, float, float]:
    """The tight (unpadded) (x1, y1, x2, y2) box of ``det``'s extremes, read
    from its row."""
    return tuple(det.row[i] for i in BOX_COLUMNS)


def match_result(rows, n_gt: int) -> MatchResult:
    """The MatchResult of ``rows`` in visit order, each (det_index, score,
    gt_index) with gt_index None for a false positive."""
    rows = list(rows)
    return MatchResult(
        [i for i, _, _ in rows], [score for _, score, _ in rows],
        [-1 if g is None else g for _, _, g in rows], n_gt,
    )


def match_rows(result: MatchResult) -> list[tuple]:
    """The rows :func:`match_result` builds ``result`` from."""
    return [
        (i, score, None if g < 0 else g) for i, score, g in zip(
            result.order.tolist(), result.scores.tolist(), result.gt_index.tolist()
        )
    ]


def match_bits(result: MatchResult) -> tuple:
    """``result``'s lesion count and rows, scores as float.hex: two results
    hold the same outcomes exactly when these are equal."""
    return result.n_gt, [(i, score.hex(), g) for i, score, g in match_rows(result)]


def random_detections(rng, n, span=100.0):
    # 1/16-px lattice coordinates, like all toolkit data: flips stay exact
    dets = []
    for _ in range(n):
        x1, y1 = np.floor(rng.uniform(0, span, size=2) * 16) / 16
        w, h = np.floor(rng.uniform(2, span / 3, size=2) * 16) / 16
        dets.append(make_detection(x1, y1, x1 + w, y1 + h, float(rng.uniform(0.1, 6.0))))
    return Detections.of(dets)


class TestSoftNms:
    def test_identical_boxes_gaussian_decay(self):
        dets = Detections.of([
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(0, 0, 10, 10, 0.8),
        ])
        out = soft_nms(dets, SoftNmsConfig(sigma=0.5))
        assert len(out) == 2
        assert out.scores[0] == 0.9
        assert out.scores[1] == pytest.approx(0.8 * math.exp(-2.0), abs=1e-5)
        assert out.scores[1] == pytest.approx(0.10827, abs=1e-5)

    def test_disjoint_boxes_unchanged_bitwise(self):
        dets = Detections.of([
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(50, 50, 60, 60, 0.7),
            make_detection(200, 0, 210, 10, 0.5),
        ])
        out = soft_nms(dets, SoftNmsConfig())
        assert [d.score for d in out] == [0.9, 0.7, 0.5]

    def test_single_detection_unchanged(self):
        det = make_detection(5, 5, 20, 25, 0.42)
        assert soft_nms(Detections.of([det]), SoftNmsConfig()) == Detections.of([det])

    def test_linear_method(self):
        dets = Detections.of([
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(0, 0, 10, 10, 0.8),
            make_detection(9, 0, 19, 10, 0.6),  # iou 1/19 below threshold
        ])
        out = soft_nms(dets, SoftNmsConfig(method="linear", linear_iou_threshold=0.3))
        # identical boxes have iou 1 -> scaled by (1 - 1) = 0 and dropped;
        # the small-overlap box is below the linear threshold: untouched
        assert [d.score for d in out] == [0.9, pytest.approx(0.6)]

    def test_property_suite_random(self):
        rng = np.random.default_rng(60)
        cfg = SoftNmsConfig()
        for _ in range(1000):
            dets = random_detections(rng, int(rng.integers(1, 12)))
            out = soft_nms(dets, cfg)
            assert len(out) <= len(dets)
            # no score increases: compare against the input multiset by box
            in_by_box = {}
            for d in dets:
                in_by_box.setdefault(box_of(d), []).append(d.score)
            for d in out:
                assert any(
                    d.score <= s + 1e-15 for s in in_by_box[box_of(d)]
                )
            # top-1 score unchanged
            assert out.scores[0] == max(d.score for d in dets)
            # output sorted by final score
            scores = [d.score for d in out]
            assert scores == sorted(scores, reverse=True)

    def test_sigma_infinity_is_resort(self):
        # sigma must be finite; at the largest float exp(-iou^2 / sigma)
        # rounds to 1, so no score decays, as under an infinite sigma
        rng = np.random.default_rng(61)
        dets = random_detections(rng, 8)
        out = soft_nms(dets, SoftNmsConfig(sigma=sys.float_info.max))
        assert sorted((d.score for d in dets), reverse=True) == [d.score for d in out]

    def test_tiny_sigma_drops_every_overlapping_box(self):
        # -iou^2 / sigma overflows to -inf, whose exp is the exact decay 0.0
        rng = np.random.default_rng(62)
        dets = random_detections(rng, 12)
        out = soft_nms(dets, SoftNmsConfig(sigma=5e-324))
        boxes = np.array([box_of(d) for d in out])
        overlap = pairwise_iou(boxes, boxes)
        assert (overlap[~np.eye(len(out), dtype=bool)] == 0.0).all()
        given = {(box_of(d), d.score) for d in dets}
        assert {(box_of(d), d.score) for d in out} <= given  # input scores kept
        assert len(out) < len(dets)

    def test_below_floor_dropped(self):
        dets = Detections.of([
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(0, 0, 10, 10, 0.8),
        ])
        out = soft_nms(dets, SoftNmsConfig(sigma=1e-4))
        assert len(out) == 1  # duplicate decays to ~0.8 * e^-10000


class TestUnflip:
    def test_empty(self):
        assert unflip_detections(Detections.of([]), 64) == Detections.of([])

    def test_round_trip_against_direct_detection(self):
        scene = generate_scene(2, seed=70)
        direct = detect(simulate_heatmaps(scene))
        flipped_view = detect(simulate_heatmaps(flip_scene(scene)))
        unflipped = unflip_detections(flipped_view, scene.image_size[0])
        assert len(unflipped) == len(direct)
        direct_boxes = set(map(box_of, direct))
        for d in unflipped:
            assert box_of(d) in direct_boxes
            assert d.source == "flipped"

    def test_double_unflip_geometric_identity(self):
        rng = np.random.default_rng(71)
        dets = random_detections(rng, 6)
        twice = unflip_detections(unflip_detections(dets, 128), 128)
        for a, b in zip(dets, twice):
            assert a.row == b.row
            assert a.score == b.score
            assert b.source == "flipped"  # provenance tag, not geometry

    def test_scores_unchanged(self):
        rng = np.random.default_rng(72)
        dets = random_detections(rng, 5)
        out = unflip_detections(dets, 200)
        assert [d.score for d in out] == [d.score for d in dets]


class TestFuseTta:
    def test_empty_flipped_equals_plain_nms(self):
        rng = np.random.default_rng(73)
        dets = random_detections(rng, 6)
        fused = fuse_tta(dets, Detections.of([]), 128, SoftNmsConfig())
        assert fused == soft_nms(dets, SoftNmsConfig())

    def test_agreeing_views_duplicate_decays_below_floor(self):
        scene = generate_scene(1, seed=74)
        width = scene.image_size[0]
        original = detect(simulate_heatmaps(scene))
        flipped_raw = detect(simulate_heatmaps(flip_scene(scene)))
        fused = fuse_tta(original, flipped_raw, width, SoftNmsConfig(sigma=1e-4))
        assert len(fused) == 1
        assert fused.scores[0] == original.scores[0]

    def test_pooling_order_independent(self):
        rng = np.random.default_rng(75)
        a = random_detections(rng, 5)
        b = random_detections(rng, 5)
        cfg = SoftNmsConfig()
        first = fuse_tta(a, b, 128, cfg)
        backwards = np.s_[::-1]
        second = fuse_tta(sub_record(a, backwards), sub_record(b, backwards), 128, cfg)
        assert list(map(box_of, first)) == list(map(box_of, second))
        assert [d.score for d in first] == [d.score for d in second]

    def test_self_fusion_same_top1(self):
        rng = np.random.default_rng(76)
        dets = random_detections(rng, 6)
        doubled = soft_nms(dets + dets, SoftNmsConfig())
        single = soft_nms(dets, SoftNmsConfig())
        assert box_of(list(doubled)[0]) == box_of(list(single)[0])
        assert doubled.scores[0] == single.scores[0]
