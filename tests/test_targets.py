"""Target rendering: radius rule vs a shifted-IoU oracle, kernel maxima,
the shared kernel memo, offset exactness, and bounds checking."""

import dataclasses
import math

import numpy as np
import pytest

from recistkit import targets
from recistkit.geometry import Point2
from recistkit.targets import (
    EXTREME_ROLES,
    KEYPOINT_CHANNELS,
    draw_gaussian,
    gaussian_kernel,
    gaussian_radius,
    keypoint_cell,
    offset_target,
    render_targets,
)
from tests.test_geometry import iou


def square_extremes(cx, cy, half_w, half_h):
    """Axis-aligned diamond annotation centered at (cx, cy)."""
    from recistkit.geometry import ExtremePoints

    return ExtremePoints(
        top=Point2(cx, cy - half_h),
        left=Point2(cx - half_w, cy),
        bottom=Point2(cx, cy + half_h),
        right=Point2(cx + half_w, cy),
        center=Point2(cx, cy),
    )


def radius_oracle(w: float, h: float, min_overlap: float) -> int:
    """Largest r with iou(box, box shifted by (r, r)) >= min_overlap.

    Binary search on the continuous shift, independent of the closed form.
    """
    box = (0.0, 0.0, w, h)

    def ok(r: float) -> bool:
        return iou(box, (r, r, w + r, h + r)) >= min_overlap

    lo, hi = 0.0, max(w, h)
    for _ in range(80):
        mid = (lo + hi) / 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return max(1, int(math.floor(lo)))


class TestGaussianRadius:
    def test_matches_shift_iou_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            w, h = rng.uniform(1.0, 60.0, size=2)
            assert gaussian_radius(w, h) == radius_oracle(w, h, 0.3)

    def test_subcell_box_floors_to_one(self):
        assert gaussian_radius(0.5, 0.8) == 1

    def test_monotone_in_box_size(self):
        for o in (0.3, 0.5, 0.7):
            sizes = np.linspace(1.0, 64.0, 40)
            for h in (3.0, 10.0, 25.0):
                radii = [gaussian_radius(w, h, o) for w in sizes]
                assert radii == sorted(radii)
        assert gaussian_radius(20, 20) >= gaussian_radius(10, 10)

    def test_higher_overlap_never_larger(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w, h = rng.uniform(1.0, 50.0, size=2)
            assert gaussian_radius(w, h, 0.7) <= gaussian_radius(w, h, 0.3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gaussian_radius(0.0, 5.0)
        with pytest.raises(ValueError):
            gaussian_radius(5.0, -1.0)
        for min_overlap in (0.0, 1.0):
            with pytest.raises(ValueError, match="min_overlap must be in"):
                gaussian_radius(5.0, 5.0, min_overlap)


def drawn(radius, peak=1.0, sigma_divisor=3.0) -> np.ndarray:
    """The kernel window ``draw_gaussian`` leaves in an empty map."""
    side = 2 * radius + 1
    heatmap = np.zeros((side + 4, side + 4), dtype=np.float32)
    draw_gaussian(heatmap, (radius + 2, radius + 2), radius, peak, sigma_divisor)
    return heatmap[2 : 2 + side, 2 : 2 + side]


def fresh(radius, peak=1.0, sigma_divisor=3.0, background=0.0) -> np.ndarray:
    """What ``draw_gaussian`` drew into a map of ``background`` before its
    kernels were shared."""
    kernel = (gaussian_kernel(radius, sigma_divisor) * peak).astype(np.float32)
    return np.maximum(np.float32(background), kernel)


class TestKernelMemo:
    def test_gaussian_kernel_returns_a_fresh_writable_array(self):
        a, b = gaussian_kernel(3), gaussian_kernel(3)
        assert a is not b and a.flags.writeable
        a[:] = 7.0
        assert drawn(3).tobytes() == fresh(3).tobytes()
        shared = targets._shared_kernel(3, 1.0, 1.0, 3.0)
        assert not np.shares_memory(gaussian_kernel(3), shared)

    def test_memo_array_is_read_only(self):
        drawn(3)
        kernel = targets._shared_kernel(3, 1.0, 1.0, 3.0)
        assert not kernel.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 1.0

    def test_writing_a_drawn_map_changes_no_later_draw(self):
        heatmap = np.zeros((9, 9), dtype=np.float32)
        draw_gaussian(heatmap, (4, 4), 3)
        heatmap[:] = -1.0
        assert drawn(3).tobytes() == fresh(3).tobytes()

    def test_arbitrary_peaks_draw_the_unshared_bits(self):
        rng = np.random.default_rng(29)
        peaks = [1.0, 0.1, 0.5, 3.0, 1e-30, 5e-324, 0.0, *rng.uniform(0.1, 1.0, 40)]
        for peak in peaks:
            for radius in (1, 2, 3, 7):
                for divisor in (3.0, 2.5, 6):
                    expected = fresh(radius, peak, divisor).tobytes()
                    for _ in range(2):  # a miss, then a hit
                        assert drawn(radius, peak, divisor).tobytes() == expected

    def test_signed_zero_peaks_are_kept_apart(self):
        # on a negative map the kernel's zeros show their sign
        for peak in (0.0, -0.0, 0.0, -0.0):
            heatmap = np.full((3, 3), -1.0, dtype=np.float32)
            draw_gaussian(heatmap, (1, 1), 1, peak)
            assert heatmap.tobytes() == fresh(1, peak, background=-1.0).tobytes()
            assert np.signbit(heatmap).all() == (str(peak) == "-0.0")

    def test_divisor_types_are_kept_apart(self):
        # 3 / 2.5 rounds differently in float32, so the two kernels differ
        for divisor in (2.5, np.float32(2.5), 2.5):
            got = drawn(3, 0.75, divisor)
            assert got.tobytes() == fresh(3, 0.75, divisor).tobytes()
        assert drawn(3, 1.0, 2.5).tobytes() != drawn(3, 1.0, np.float32(2.5)).tobytes()


class TestOffsetTarget:
    def test_worked_example(self):
        assert offset_target(Point2(10, 7), 4) == (0.5, 0.75)

    def test_exact_multiple(self):
        assert offset_target(Point2(8, 4), 4) == (0.0, 0.0)

    def test_stride_one(self):
        assert offset_target(Point2(3.25, 9.875), 1) == (0.25, 0.875)
        with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
            offset_target(Point2(3.25, 9.875), 0)

    def test_exact_reconstruction_10k_points(self):
        rng = np.random.default_rng(12)
        for stride in (1, 2, 4, 8):
            xs = rng.uniform(0, 500, size=2500)
            ys = rng.uniform(0, 500, size=2500)
            for x, y in zip(xs, ys):
                dx, dy = offset_target(Point2(x, y), stride)
                assert 0.0 <= dx < 1.0 and 0.0 <= dy < 1.0
                assert stride * (math.floor(x / stride) + dx) == x
                assert stride * (math.floor(y / stride) + dy) == y


class TestRenderTargets:
    def test_single_annotation_peak_cells(self):
        ann = square_extremes(40.5, 30.25, 20, 16)
        tb = render_targets([ann], 32, 32, 4)
        for role_idx, role in enumerate(KEYPOINT_CHANNELS):
            plane = tb.bundle.keypoint_maps[role_idx]
            peak_cells = np.argwhere(plane == 1.0)
            assert len(peak_cells) == 1
            expected = keypoint_cell(getattr(ann, role), 4)
            assert tuple(peak_cells[0]) == expected

    def test_offset_example_cell_and_value(self):
        ann = square_extremes(10, 17, 6, 10)  # top keypoint at (10, 7)
        tb = render_targets([ann], 16, 16, 4)
        top = EXTREME_ROLES.index("top")
        assert tuple(tb.gt_cells[0, top]) == (1, 2)  # (row, col) of pixel (10, 7)
        dx, dy = tb.gt_offsets[0, top]
        assert (dx, dy) == (0.5, 0.75)
        assert tb.bundle.offset_maps[0][1, 2] == np.float32(0.5)
        assert tb.bundle.offset_maps[1][1, 2] == np.float32(0.75)

    def test_overlapping_kernels_cellwise_max_oracle(self):
        a = square_extremes(30, 30, 12, 12)
        b = square_extremes(42, 38, 14, 10)
        both = render_targets([a, b], 24, 24, 4)
        only_a = render_targets([a], 24, 24, 4)
        only_b = render_targets([b], 24, 24, 4)
        for idx in range(5):
            expected = np.maximum(
                only_a.bundle.keypoint_maps[idx], only_b.bundle.keypoint_maps[idx]
            )
            assert np.array_equal(both.bundle.keypoint_maps[idx], expected)

    def test_permutation_invariance(self):
        a = square_extremes(20, 20, 10, 8)
        b = square_extremes(50, 52, 9, 12)
        c = square_extremes(80, 30, 11, 11)
        ab = render_targets([a, b, c], 32, 32, 4)
        ba = render_targets([c, b, a], 32, 32, 4)
        assert np.array_equal(ab.bundle.keypoint_maps, ba.bundle.keypoint_maps)

    def test_empty_annotation_list(self):
        tb = render_targets([], 16, 16, 4)
        assert tb.n_objects == 0
        assert not tb.bundle.keypoint_maps.any()
        assert not tb.bundle.offset_maps.any()

    def test_max_value_is_one_and_range(self):
        rng = np.random.default_rng(13)
        anns = [
            square_extremes(
                rng.uniform(30, 200), rng.uniform(30, 200),
                rng.uniform(8, 25), rng.uniform(8, 25),
            )
            for _ in range(4)
        ]
        tb = render_targets(anns, 64, 64, 4)
        for idx in range(5):
            plane = tb.bundle.keypoint_maps[idx]
            assert plane.max() == 1.0
            assert plane.min() >= 0.0
        assert tb.bundle.offset_maps.min() >= 0.0
        assert tb.bundle.offset_maps.max() < 1.0

    def test_no_offsets_for_center_role(self):
        empty = render_targets([], 8, 8, 4)
        assert empty.gt_cells.shape == empty.gt_offsets.shape == (0, 4, 2)
        ann = square_extremes(40.5, 30.25, 20, 16)
        tb = render_targets([ann], 32, 32, 4)
        assert tb.gt_cells.tolist() == [
            [list(keypoint_cell(getattr(ann, role), 4)) for role in EXTREME_ROLES]
        ]

    def test_out_of_bounds_errors_with_annotation_index(self):
        good = square_extremes(20, 20, 8, 8)
        bad = square_extremes(70, 20, 8, 8)  # right point at x=78, grid 16 cells
        with pytest.raises(ValueError, match="annotation 1"):
            render_targets([good, bad], 16, 16, 4)

    def test_first_failing_annotation_is_reported(self):
        off_grid = square_extremes(70, 20, 8, 8)
        flat = square_extremes(20, 20, 8, 0)  # zero box height
        with pytest.raises(
            ValueError,
            match=r"^annotation 0: top keypoint \(70, 12\) falls outside the "
            r"16x16 output grid at stride 4$",
        ):
            render_targets([off_grid, flat], 16, 16, 4)
        with pytest.raises(
            ValueError, match=r"^box dimensions must be positive, got 4.0 x 0.0$"
        ):
            render_targets([flat, off_grid], 16, 16, 4)

    @pytest.mark.parametrize("bad", [
        square_extremes(20, 20, 8, 8)[:4],
        square_extremes(20, 20, 8, 8) + (Point2(20, 20),),
        tuple(p + (0.0,) for p in square_extremes(20, 20, 8, 8)),
        tuple(p[:1] for p in square_extremes(20, 20, 8, 8)),
        20.0,
    ], ids=["4 points", "6 points", "(x, y, z) points", "(x,) points", "a number"])
    def test_annotation_not_five_points_names_it(self, bad):
        # a short annotation is not zipped short, and a long one not cut
        good = square_extremes(20, 20, 8, 8)
        with pytest.raises(ValueError, match=(
            r"^annotation 1: expected 5 \(x, y\) keypoints, top, left, bottom, "
            r"right, center$"
        )):
            render_targets([good, bad], 16, 16, 4)

    def test_first_error_in_order_among_shape_and_grid(self):
        off_grid = square_extremes(70, 20, 8, 8)
        short = square_extremes(20, 20, 8, 8)[:4]
        with pytest.raises(ValueError, match="^annotation 0: top keypoint"):
            render_targets([off_grid, short], 16, 16, 4)
        with pytest.raises(ValueError, match="^annotation 0: expected 5"):
            render_targets([short, off_grid], 16, 16, 4)

    def test_array_of_keypoints_renders_as_the_list(self):
        rng = np.random.default_rng(14)
        anns = [
            square_extremes(*rng.uniform(30, 200, 2), *rng.uniform(8, 25, 2))
            for _ in range(4)
        ]
        listed = render_targets(anns, 64, 64, 4, input_size=(250, 256))
        arrayed = render_targets(np.asarray(anns), 64, 64, 4, input_size=(250, 256))
        for field in ("keypoint_maps", "offset_maps"):
            assert np.array_equal(getattr(arrayed.bundle, field).view(np.uint32),
                                  getattr(listed.bundle, field).view(np.uint32))
        assert arrayed.bundle.input_size == listed.bundle.input_size
        assert arrayed.gt_cells.dtype == listed.gt_cells.dtype == np.intp
        assert np.array_equal(arrayed.gt_cells, listed.gt_cells)
        assert arrayed.gt_offsets.tobytes() == listed.gt_offsets.tobytes()
        empty = render_targets(np.empty((0, 5, 2)), 8, 8, 4)
        assert empty.gt_cells.shape == empty.gt_offsets.shape == (0, 4, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_keypoint_names_its_annotation(self, bad):
        good = square_extremes(20, 20, 8, 8)
        broken = good._replace(left=Point2(12.0, bad))
        with pytest.raises(ValueError, match=(
            rf"^annotation 1: left keypoint \(12.0, {bad}\) falls outside"
        )):
            render_targets([good, broken], 16, 16, 4)

    def test_later_annotation_wins_a_shared_offset_cell(self):
        first = square_extremes(20.25, 20, 8, 8)
        second = square_extremes(21.5, 20, 9, 8)  # same top cell (3, 5)
        tb = render_targets([first, second], 16, 16, 4)
        assert tb.gt_cells[0, 0].tolist() == tb.gt_cells[1, 0].tolist() == [3, 5]
        assert tb.gt_offsets[:, 0, 0].tolist() == [0.0625, 0.375]
        assert tb.bundle.offset_maps[0, 3, 5] == np.float32(0.375)

    def test_unaddressable_grid_is_a_memory_error(self):
        with pytest.raises(MemoryError, match="2147483647x2147483647 heatmap"):
            targets.HeatmapBundle.zeros(2**31 - 1, 2**31 - 1, 1, (1, 1))
        with pytest.raises(ValueError, match="negative dimensions"):
            targets.HeatmapBundle.zeros(-1, 4, 1, (1, 1))
        # the bundle's own checks of the planes it is given
        good = targets.HeatmapBundle.zeros(2, 3, 4, (12, 8))
        for change, message in (
            ({"keypoint_maps": good.keypoint_maps[:4]}, r"must be \(5, H, W\)"),
            ({"offset_maps": good.offset_maps[:, :1]}, r"must be \(8, 2, 3\)"),
            ({"offset_maps": good.offset_maps.astype(np.float64)}, "float32"),
            ({"stride": 0}, "stride must be >= 1, got 0"),
        ):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(good, **change)

    def test_argmax_recovers_cells(self):
        ann = square_extremes(33.75, 41.5, 13, 9)
        tb = render_targets([ann], 32, 32, 4)
        for role_idx, role in enumerate(KEYPOINT_CHANNELS):
            plane = tb.bundle.keypoint_maps[role_idx]
            flat = int(plane.argmax())
            cell = (flat // plane.shape[1], flat % plane.shape[1])
            assert cell == keypoint_cell(getattr(ann, role), 4)
