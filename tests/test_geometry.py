"""Geometry primitives and the RECIST rules of ``RecistAnnotation``:
worked examples, tie rules, and brute-force oracles, among them the scalar
:func:`iou` that ``pairwise_iou`` must match bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recistkit.dataio import RecistAnnotation, _long_first
from recistkit.geometry import pad_bbox, pairwise_iou
from recistkit.synthetic import SyntheticScene, flip_scene


def iou(a, b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 when the
    union is empty."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
    else:
        inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def ann(*endpoints, bbox=(0, 0, 0, 0)):
    """An annotation whose endpoints are the 8 coordinates as given."""
    return RecistAnnotation("k", tuple(endpoints), bbox, 1, (0.0, 0.0),
                            (1.0, 1.0, 1.0), "test")


def long_first(pts):
    """An annotation of 8 coordinates, its longer diameter put first."""
    return ann(*_long_first(list(pts)))


def tight_box(e):
    return (e.left.x, e.top.y, e.right.x, e.bottom.y)


class TestExtremes:
    def test_worked_example(self):
        e = ann(30, 10, 30, 50, 12, 31, 47, 29).extremes()
        assert (e.top.x, e.top.y) == (30, 10)
        assert (e.bottom.x, e.bottom.y) == (30, 50)
        assert (e.left.x, e.left.y) == (12, 31)
        assert (e.right.x, e.right.y) == (47, 29)
        assert (e.center.x, e.center.y) == (29.5, 30)

    def test_shared_roles_diagonal_cross(self):
        e = ann(0, 0, 10, 10, 0, 10, 10, 0).extremes()
        assert (e.top.x, e.top.y) == (0, 0)
        assert (e.left.x, e.left.y) == (0, 0)
        assert (e.bottom.x, e.bottom.y) == (10, 10)
        assert (e.right.x, e.right.y) == (10, 10)
        assert (e.center.x, e.center.y) == (5, 5)

    def test_tie_prefers_long_diameter_endpoint(self):
        # (5,2) on the short diameter and (9,2) on the long tie for top
        e = ann(9, 2, 9, 40, 5, 2, 30, 21).extremes()
        assert (e.top.x, e.top.y) == (9, 2)

    def test_tie_same_diameter_prefers_smaller_x(self):
        # both top candidates on the long diameter, plus a short-diameter tie
        e = ann(9, 2, 5, 2, 7, 2, 7, 5).extremes()
        assert (e.top.x, e.top.y) == (5, 2)

    def test_tie_left_right_prefers_smaller_y(self):
        e = ann(3, 9, 3, 1, 3, 5, 9, 5).extremes()
        # x-ties at 3: long endpoints win; among (3,9) and (3,1), smaller y
        assert (e.left.x, e.left.y) == (3, 1)

    def test_degenerate_flagged_not_rejected(self):
        e = ann(0, 5, 10, 5, 4, 5, 6, 5).extremes()
        assert e.top.y == e.bottom.y

    def test_validity_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            e = long_first(rng.uniform(0, 100, size=8)).extremes()
            assert e.top.y <= e.bottom.y
            assert e.left.x <= e.right.x
            assert e.center.x == (e.left.x + e.right.x) / 2
            assert e.center.y == (e.top.y + e.bottom.y) / 2


class TestTightBox:
    def test_worked_example(self):
        e = ann(30, 10, 30, 50, 12, 31, 47, 29).extremes()
        assert tight_box(e) == (12, 10, 47, 50)

    def test_degenerate_point(self):
        e = ann(12, 10, 12, 10, 12, 10, 12, 10).extremes()
        assert tight_box(e) == (12, 10, 12, 10)

    def test_matches_minmax_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            pts = rng.uniform(0, 200, size=8)
            box = tight_box(long_first(pts).extremes())
            xs, ys = pts[0::2], pts[1::2]
            assert box == (min(xs), min(ys), max(xs), max(ys))

    def test_contains_all_five_points(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            e = long_first(rng.uniform(0, 64, size=8)).extremes()
            box = tight_box(e)
            for p in e:
                assert box[0] <= p.x <= box[2]
                assert box[1] <= p.y <= box[3]


class TestPadBBox:
    def test_basic(self):
        assert pad_bbox((100, 50, 140, 90), 5) == (95, 45, 145, 95)

    def test_zero_pad_identity(self):
        box = (3.5, 4.25, 9.75, 11.5)
        assert pad_bbox(box, 0) == box

    def test_pad_additivity_without_clamp(self):
        # dyadic pads and corners make the split and combined paths bit-equal
        rng = np.random.default_rng(3)
        for _ in range(100):
            x1, y1, w, h = np.floor(rng.uniform(0, 200, size=4) * 16) / 16
            a, c = np.floor(rng.uniform(0, 40, size=2) * 16) / 16
            box = (x1, y1, x1 + w, y1 + h)
            assert pad_bbox(pad_bbox(box, a), c) == pad_bbox(box, a + c)

    def test_pad_additivity_approx_for_arbitrary_floats(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            x1, y1, w, h = rng.uniform(0, 50, size=4)
            a, c = rng.uniform(0, 10, size=2)
            box = (x1, y1, x1 + w, y1 + h)
            split = pad_bbox(pad_bbox(box, a), c)
            joint = pad_bbox(box, a + c)
            assert np.allclose(split, joint, atol=1e-12)


class TestIou:
    def test_half_overlap(self):
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_identity(self):
        assert iou((2, 3, 8, 9), (2, 3, 8, 9)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_zero_union(self):
        assert iou((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0

    def test_symmetry_and_range_random(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            vals = rng.uniform(0, 30, size=8)
            a = (min(vals[0], vals[1]), min(vals[2], vals[3]),
                 max(vals[0], vals[1]), max(vals[2], vals[3]))
            b = (min(vals[4], vals[5]), min(vals[6], vals[7]),
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


# (a, b, their IoU): the scalar examples above, then boxes that touch at an
# edge or a corner, one inside another, and two crossing bars
WORKED_PAIRS = {
    "half overlap": ((0, 0, 10, 10), (5, 0, 15, 10), 1 / 3),
    "identity": ((2, 3, 8, 9), (2, 3, 8, 9), 1.0),
    "disjoint": ((0, 0, 1, 1), (5, 5, 6, 6), 0.0),
    "zero union": ((1, 1, 1, 1), (1, 1, 1, 1), 0.0),
    "shared edge": ((0, 0, 2, 2), (2, 0, 4, 2), 0.0),
    "shared corner": ((0, 0, 2, 2), (2, 2, 4, 4), 0.0),
    "nested": ((0, 0, 4, 4), (1, 1, 3, 3), 0.25),
    "cross": ((0, 1, 4, 2), (1, 0, 2, 4), 1 / 7),
}


class TestPairwiseIou:
    @pytest.mark.parametrize("a,b,expected", WORKED_PAIRS.values(),
                             ids=list(WORKED_PAIRS))
    def test_worked_pair(self, a, b, expected):
        for p, q in ((a, b), (b, a)):
            matrix = pairwise_iou(np.array([p], dtype=np.float64),
                                  np.array([q], dtype=np.float64))
            assert matrix.tolist() == [[expected]]
            assert as_bits(matrix)[0, 0] == as_bits(iou(p, q))

    @settings(max_examples=150)
    @given(box_arrays(), box_arrays())
    def test_scalar_iou_bit_for_bit_and_symmetric(self, a, b):
        matrix = pairwise_iou(a, b)
        scalar = [[iou(p, q) for q in b.tolist()] for p in a.tolist()]
        assert matrix.shape == (len(a), len(b))
        assert np.array_equal(as_bits(matrix), as_bits(scalar))
        # Soft-NMS computes each pair's decay once and mirrors it
        square = pairwise_iou(a, a)
        assert np.array_equal(as_bits(square), as_bits(square.T))


    def test_empty_inputs(self):
        boxes = np.array([[0.0, 0.0, 2.0, 2.0], [1.0, 1.0, 3.0, 3.0]])
        none = np.empty((0, 4))
        for a, b in ((none, boxes), (boxes, none), (none, none)):
            matrix = pairwise_iou(a, b)
            assert matrix.shape == (len(a), len(b))
            assert matrix.dtype == np.float64

    def test_zero_area_boxes(self):
        # points, segments, signed zeros and an inverted box, against each
        # other and a proper box: 0 where the scalar iou gives 0, never NaN
        boxes = np.array([
            [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 3.0, 1.0], [1.0, 1.0, 1.0, 3.0],
            [0.0, 0.0, 4.0, 4.0], [-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0],
            [3.0, 3.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0],
        ])
        matrix = pairwise_iou(boxes, boxes)
        rows = boxes.tolist()
        scalar = [[iou(p, q) for q in rows] for p in rows]
        assert np.array_equal(as_bits(matrix), as_bits(scalar))
        assert not np.isnan(matrix).any()
        assert matrix[3].tolist() == [0.0] * 3 + [1.0] + [0.0] * 4


def flipped(annotation, width):
    """``annotation`` as ``flip_scene`` mirrors it in an image ``width`` px
    wide."""
    scene = SyntheticScene((width, width), [annotation], seed=0)
    return flip_scene(scene).annotations[0]


class TestFlipScene:
    def test_point(self):
        f = flipped(ann(10, 7, 10, 7, 10, 7, 10, 7, bbox=(10, 7, 10, 7)), 100)
        assert f.endpoints == (89, 7, 89, 7, 89, 7, 89, 7)
        assert f.bbox == (89, 7, 89, 7)

    def test_involution_endpoints_and_box(self):
        # coordinates on the 1/16-px lattice flip without rounding, so the
        # double flip is bit-exact; arbitrary doubles may move by 1 ulp
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y = np.floor(rng.uniform(0, 63, size=2) * 16) / 16
            box = (min(x, y), 0, max(x, y), 5)
            pts = np.floor(rng.uniform(0, 63, size=8) * 16) / 16
            a = ann(*_long_first(pts.tolist()), bbox=box)
            back = flipped(flipped(a, 64), 64)
            assert back == a
            assert back.extremes() == a.extremes()

    def test_involution_approx_for_arbitrary_floats(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            x, y = rng.uniform(0, 63, size=2)
            a = ann(x, y, x, y, x, y, x, y, bbox=(x, y, x, y))
            back = flipped(flipped(a, 64), 64)
            assert back.endpoints[0] == pytest.approx(x, abs=1e-12)
            assert back.endpoints[1] == y
            assert back.bbox[2] == pytest.approx(x, abs=1e-12)

    def test_extremes_role_swap_worked_example(self):
        f = flipped(ann(30, 10, 30, 50, 12, 31, 47, 29), 64).extremes()
        assert (f.left.x, f.left.y) == (16, 29)
        assert (f.right.x, f.right.y) == (51, 31)
        assert (f.top.x, f.top.y) == (33, 10)

    def test_flipped_extremes_stay_valid(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            f = flipped(long_first(rng.uniform(0, 100, size=8)), 101).extremes()
            assert f.top.y <= f.bottom.y
            assert f.left.x <= f.right.x
            assert f.center.x == (f.left.x + f.right.x) / 2

    def test_mirror_keeps_the_long_diameter_first(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f = flipped(long_first(rng.uniform(0, 100, size=8)), 101)
            ax, ay, bx, by, cx, cy, dx, dy = f.endpoints
            assert math.hypot(ax - bx, ay - by) >= math.hypot(cx - dx, cy - dy)
