"""Geometry primitives: worked examples, tie rules, and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recistkit.geometry import (
    BBox,
    Point2,
    RecistDiameters,
    bbox_from_extremes,
    extremes_from_recist,
    flip_horizontal,
    iou,
    ordered_diameters,
    pad_bbox,
    pairwise_iou,
)


def diam(lax, lay, lbx, lby, sax, say, sbx, sby):
    return RecistDiameters(
        Point2(lax, lay), Point2(lbx, lby), Point2(sax, say), Point2(sbx, sby)
    )


class TestExtremesFromRecist:
    def test_worked_example(self):
        e = extremes_from_recist(diam(30, 10, 30, 50, 12, 31, 47, 29))
        assert (e.top.x, e.top.y) == (30, 10)
        assert (e.bottom.x, e.bottom.y) == (30, 50)
        assert (e.left.x, e.left.y) == (12, 31)
        assert (e.right.x, e.right.y) == (47, 29)
        assert (e.center.x, e.center.y) == (29.5, 30)
        assert not e.degenerate

    def test_shared_roles_diagonal_cross(self):
        e = extremes_from_recist(diam(0, 0, 10, 10, 0, 10, 10, 0))
        assert (e.top.x, e.top.y) == (0, 0)
        assert (e.left.x, e.left.y) == (0, 0)
        assert (e.bottom.x, e.bottom.y) == (10, 10)
        assert (e.right.x, e.right.y) == (10, 10)
        assert (e.center.x, e.center.y) == (5, 5)

    def test_tie_prefers_long_diameter_endpoint(self):
        # (5,2) on the short diameter and (9,2) on the long tie for top
        d = diam(9, 2, 9, 40, 5, 2, 30, 21)
        e = extremes_from_recist(d)
        assert (e.top.x, e.top.y) == (9, 2)

    def test_tie_same_diameter_prefers_smaller_x(self):
        # both top candidates on the long diameter, plus a short-diameter tie
        e = extremes_from_recist(diam(9, 2, 5, 2, 7, 2, 7, 5))
        assert (e.top.x, e.top.y) == (5, 2)

    def test_tie_left_right_prefers_smaller_y(self):
        e = extremes_from_recist(diam(3, 9, 3, 1, 3, 5, 9, 5))
        # x-ties at 3: long endpoints win; among (3,9) and (3,1), smaller y
        assert (e.left.x, e.left.y) == (3, 1)

    def test_degenerate_flagged_not_rejected(self):
        e = extremes_from_recist(diam(0, 5, 10, 5, 4, 5, 6, 5))
        assert e.degenerate
        assert e.top.y == e.bottom.y

    def test_validity_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            pts = rng.uniform(0, 100, size=8)
            e = extremes_from_recist(ordered_diameters(
                Point2(pts[0], pts[1]), Point2(pts[2], pts[3]),
                Point2(pts[4], pts[5]), Point2(pts[6], pts[7]),
            ))
            assert e.top.y <= e.bottom.y
            assert e.left.x <= e.right.x
            assert e.center.x == (e.left.x + e.right.x) / 2
            assert e.center.y == (e.top.y + e.bottom.y) / 2


class TestBBoxFromExtremes:
    def test_worked_example(self):
        e = extremes_from_recist(diam(30, 10, 30, 50, 12, 31, 47, 29))
        assert bbox_from_extremes(e).as_tuple() == (12, 10, 47, 50)

    def test_degenerate_point(self):
        e = extremes_from_recist(diam(12, 10, 12, 10, 12, 10, 12, 10))
        assert bbox_from_extremes(e).as_tuple() == (12, 10, 12, 10)

    def test_matches_minmax_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            pts = rng.uniform(0, 200, size=8)
            corners = [(pts[2 * i], pts[2 * i + 1]) for i in range(4)]
            e = extremes_from_recist(ordered_diameters(
                *(Point2(x, y) for x, y in corners)
            ))
            box = bbox_from_extremes(e)
            xs = [x for x, _ in corners]
            ys = [y for _, y in corners]
            assert box.as_tuple() == (min(xs), min(ys), max(xs), max(ys))

    def test_contains_all_five_points(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pts = rng.uniform(0, 64, size=8)
            e = extremes_from_recist(ordered_diameters(
                Point2(pts[0], pts[1]), Point2(pts[2], pts[3]),
                Point2(pts[4], pts[5]), Point2(pts[6], pts[7]),
            ))
            box = bbox_from_extremes(e)
            for p in e.points():
                assert box.x1 <= p.x <= box.x2
                assert box.y1 <= p.y <= box.y2


class TestPadBBox:
    def test_basic(self):
        assert pad_bbox(BBox(100, 50, 140, 90), 5).as_tuple() == (95, 45, 145, 95)

    def test_zero_pad_identity(self):
        box = BBox(3.5, 4.25, 9.75, 11.5)
        assert pad_bbox(box, 0) == box

    def test_clamped_to_image(self):
        padded = pad_bbox(BBox(2, 2, 10, 10), 5, bounds=(512, 512))
        assert padded.as_tuple() == (0, 0, 15, 15)

    def test_pad_additivity_without_clamp(self):
        # dyadic pads and corners make the split and combined paths bit-equal
        rng = np.random.default_rng(3)
        for _ in range(100):
            x1, y1, w, h = np.floor(rng.uniform(0, 200, size=4) * 16) / 16
            a, c = np.floor(rng.uniform(0, 40, size=2) * 16) / 16
            box = BBox(x1, y1, x1 + w, y1 + h)
            assert pad_bbox(pad_bbox(box, a), c) == pad_bbox(box, a + c)

    def test_pad_additivity_approx_for_arbitrary_floats(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            x1, y1, w, h = rng.uniform(0, 50, size=4)
            a, c = rng.uniform(0, 10, size=2)
            box = BBox(x1, y1, x1 + w, y1 + h)
            split = pad_bbox(pad_bbox(box, a), c)
            joint = pad_bbox(box, a + c)
            assert np.allclose(split.as_tuple(), joint.as_tuple(), atol=1e-12)


class TestIou:
    def test_half_overlap(self):
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_identity(self):
        assert iou(BBox(2, 3, 8, 9), BBox(2, 3, 8, 9)) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_zero_union(self):
        assert iou(BBox(1, 1, 1, 1), BBox(1, 1, 1, 1)) == 0.0

    def test_symmetry_and_range_random(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            vals = rng.uniform(0, 30, size=8)
            a = BBox(min(vals[0], vals[1]), min(vals[2], vals[3]),
                     max(vals[0], vals[1]), max(vals[2], vals[3]))
            b = BBox(min(vals[4], vals[5]), min(vals[6], vals[7]),
                     max(vals[4], vals[5]), max(vals[6], vals[7]))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0


# coordinates in any order, so boxes may be inverted or of zero area; the
# float limits make widths, areas and unions overflow to inf or NaN, and
# thirds make areas and unions round, so the order of operations shows
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e308, -1e308, 5e-324]),
    st.integers(-3000, 3000).map(lambda k: k / 3),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def box_arrays(draw):
    """(n, 4) float64 rows (x1, y1, x2, y2), some of them exact duplicates."""
    boxes = draw(st.lists(st.tuples(COORDS, COORDS, COORDS, COORDS),
                          min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(range(len(boxes))), max_size=3))
    return np.array(boxes + [boxes[i] for i in repeats], dtype=np.float64)


def as_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestPairwiseIou:
    @settings(max_examples=150)
    @given(box_arrays(), box_arrays())
    def test_scalar_iou_bit_for_bit_and_symmetric(self, a, b):
        matrix = pairwise_iou(a, b)
        scalar = [[iou(BBox(*p), BBox(*q)) for q in b.tolist()] for p in a.tolist()]
        assert matrix.shape == (len(a), len(b))
        assert np.array_equal(as_bits(matrix), as_bits(scalar))
        # Soft-NMS computes each pair's decay once and mirrors it
        square = pairwise_iou(a, a)
        assert np.array_equal(as_bits(square), as_bits(square.T))


class TestFlipHorizontal:
    def test_point(self):
        assert flip_horizontal(Point2(10, 7), 100) == Point2(89, 7)

    def test_involution_all_types(self):
        # coordinates on the 1/16-px lattice flip without rounding, so the
        # double flip is bit-exact; arbitrary doubles may move by 1 ulp
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = np.floor(rng.uniform(0, 63, size=2) * 16) / 16
            assert flip_horizontal(flip_horizontal(Point2(x, y), 64), 64) == Point2(x, y)
            box = BBox(min(x, y), 0, max(x, y), 5)
            assert flip_horizontal(flip_horizontal(box, 64), 64) == box
            pts = np.floor(rng.uniform(0, 63, size=8) * 16) / 16
            e = extremes_from_recist(ordered_diameters(
                Point2(pts[0], pts[1]), Point2(pts[2], pts[3]),
                Point2(pts[4], pts[5]), Point2(pts[6], pts[7]),
            ))
            assert flip_horizontal(flip_horizontal(e, 64), 64) == e

    def test_involution_approx_for_arbitrary_floats(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            x, y = rng.uniform(0, 63, size=2)
            back = flip_horizontal(flip_horizontal(Point2(x, y), 64), 64)
            assert back.x == pytest.approx(x, abs=1e-12)
            assert back.y == y

    def test_extremes_role_swap_worked_example(self):
        e = extremes_from_recist(diam(30, 10, 30, 50, 12, 31, 47, 29))
        f = flip_horizontal(e, 64)
        assert (f.left.x, f.left.y) == (16, 29)
        assert (f.right.x, f.right.y) == (51, 31)
        assert (f.top.x, f.top.y) == (33, 10)

    def test_flipped_extremes_stay_valid(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pts = rng.uniform(0, 100, size=8)
            e = extremes_from_recist(ordered_diameters(
                Point2(pts[0], pts[1]), Point2(pts[2], pts[3]),
                Point2(pts[4], pts[5]), Point2(pts[6], pts[7]),
            ))
            f = flip_horizontal(e, 101)
            assert f.top.y <= f.bottom.y
            assert f.left.x <= f.right.x
