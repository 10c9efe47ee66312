"""Flip fusion and Soft-NMS: the decay formula example, round trips through
the flipped view, and the no-increase / identity properties."""

import math

import numpy as np
import pytest

from recistkit.fusion import SoftNmsConfig, fuse_tta, soft_nms, unflip_detections
from recistkit.grouping import Detection, detect
from recistkit.synthetic import flip_scene, generate_scene, render_scene


def make_detection(x1, y1, x2, y2, score, source="original"):
    """Edge-midpoint extremes of the box (x1, y1, x2, y2)."""
    cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
    row = (cx, y1, x1, cy, cx, y2, x2, cy, cx, cy)
    return Detection(tuple(float(v) for v in row), score, source)


def random_detections(rng, n, span=100.0):
    # 1/16-px lattice coordinates, like all toolkit data: flips stay exact
    dets = []
    for _ in range(n):
        x1, y1 = np.floor(rng.uniform(0, span, size=2) * 16) / 16
        w, h = np.floor(rng.uniform(2, span / 3, size=2) * 16) / 16
        dets.append(make_detection(x1, y1, x1 + w, y1 + h, float(rng.uniform(0.1, 6.0))))
    return dets


class TestSoftNms:
    def test_identical_boxes_gaussian_decay(self):
        dets = [
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(0, 0, 10, 10, 0.8),
        ]
        out = soft_nms(dets, SoftNmsConfig(sigma=0.5))
        assert len(out) == 2
        assert out[0].score == 0.9
        assert out[1].score == pytest.approx(0.8 * math.exp(-2.0), abs=1e-5)
        assert out[1].score == pytest.approx(0.10827, abs=1e-5)

    def test_disjoint_boxes_unchanged_bitwise(self):
        dets = [
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(50, 50, 60, 60, 0.7),
            make_detection(200, 0, 210, 10, 0.5),
        ]
        out = soft_nms(dets, SoftNmsConfig())
        assert [d.score for d in out] == [0.9, 0.7, 0.5]

    def test_single_detection_unchanged(self):
        det = make_detection(5, 5, 20, 25, 0.42)
        assert soft_nms([det], SoftNmsConfig()) == [det]

    def test_linear_method(self):
        dets = [
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(0, 0, 10, 10, 0.8),
            make_detection(9, 0, 19, 10, 0.6),  # iou 1/19 below threshold
        ]
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
                in_by_box.setdefault(d.bbox.as_tuple(), []).append(d.score)
            for d in out:
                assert any(
                    d.score <= s + 1e-15 for s in in_by_box[d.bbox.as_tuple()]
                )
            # top-1 score unchanged
            assert out[0].score == max(d.score for d in dets)
            # output sorted by final score
            scores = [d.score for d in out]
            assert scores == sorted(scores, reverse=True)

    def test_sigma_infinity_is_resort(self):
        rng = np.random.default_rng(61)
        dets = random_detections(rng, 8)
        out = soft_nms(dets, SoftNmsConfig(sigma=math.inf))
        assert sorted((d.score for d in dets), reverse=True) == [d.score for d in out]

    def test_below_floor_dropped(self):
        dets = [
            make_detection(0, 0, 10, 10, 0.9),
            make_detection(0, 0, 10, 10, 0.8),
        ]
        out = soft_nms(dets, SoftNmsConfig(sigma=1e-4))
        assert len(out) == 1  # duplicate decays to ~0.8 * e^-10000


class TestUnflip:
    def test_empty(self):
        assert unflip_detections([], 64) == []

    def test_round_trip_against_direct_detection(self):
        scene = generate_scene(2, seed=70)
        direct = detect(render_scene(scene).bundle)
        flipped_view = detect(render_scene(flip_scene(scene)).bundle)
        unflipped = unflip_detections(flipped_view, scene.image_size[0])
        assert len(unflipped) == len(direct)
        direct_boxes = {d.bbox.as_tuple() for d in direct}
        for d in unflipped:
            assert d.bbox.as_tuple() in direct_boxes
            assert d.source == "flipped"

    def test_double_unflip_geometric_identity(self):
        rng = np.random.default_rng(71)
        dets = random_detections(rng, 6)
        twice = unflip_detections(unflip_detections(dets, 128), 128)
        for a, b in zip(dets, twice):
            assert a.bbox == b.bbox
            assert a.extremes == b.extremes
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
        assert fuse_tta(dets, [], 128, SoftNmsConfig()) == soft_nms(dets, SoftNmsConfig())

    def test_agreeing_views_duplicate_decays_below_floor(self):
        scene = generate_scene(1, seed=74)
        width = scene.image_size[0]
        original = detect(render_scene(scene).bundle)
        flipped_raw = detect(render_scene(flip_scene(scene)).bundle)
        fused = fuse_tta(original, flipped_raw, width, SoftNmsConfig(sigma=1e-4))
        assert len(fused) == 1
        assert fused[0].score == original[0].score

    def test_pooling_order_independent(self):
        rng = np.random.default_rng(75)
        a = random_detections(rng, 5)
        b = random_detections(rng, 5)
        cfg = SoftNmsConfig()
        first = fuse_tta(a, b, 128, cfg)
        second = fuse_tta(list(reversed(a)), list(reversed(b)), 128, cfg)
        assert [d.bbox for d in first] == [d.bbox for d in second]
        assert [d.score for d in first] == [d.score for d in second]

    def test_self_fusion_same_top1(self):
        rng = np.random.default_rng(76)
        dets = random_detections(rng, 6)
        doubled = soft_nms(dets + dets, SoftNmsConfig())
        single = soft_nms(dets, SoftNmsConfig())
        assert doubled[0].bbox == single[0].bbox
        assert doubled[0].score == single[0].score
