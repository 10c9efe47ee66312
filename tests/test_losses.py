"""Loss functions: the worked heatmap-loss example, an independent
branch-explicit oracle, finite-difference gradient checks, and the exact
1/N scaling."""

import math
import tracemalloc

import numpy as np
import pytest

from recistkit.losses import (
    GradCheckReport,
    finite_diff_check,
    focal_loss,
    focal_loss_grad,
    offset_loss,
    offset_loss_grad,
)
from recistkit.targets import render_targets
from tests.test_losses_oracle import real_planes
from tests.test_targets import square_extremes


def focal_loss_oracle(pred, target, n, alpha=2.0, beta=4.0, eps=1e-12):
    """Cell-by-cell scalar reimplementation of the focal loss."""
    total = 0.0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            p = min(max(float(pred[i, j]), eps), 1.0 - eps)
            y = float(target[i, j])
            if y == 1.0:
                total += (1.0 - p) ** alpha * math.log(p)
            else:
                total += (1.0 - y) ** beta * p ** alpha * math.log(1.0 - p)
    return -total / max(n, 1)


def random_focal_instance(rng, shape=(8, 8)):
    pred = rng.uniform(0.05, 0.95, size=shape)
    target = np.zeros(shape)
    n_peaks = int(rng.integers(1, 4))
    for _ in range(n_peaks):
        r, c = rng.integers(0, shape[0]), rng.integers(0, shape[1])
        target[r, c] = 1.0
    shoulder_mask = (rng.random(shape) < 0.4) & (target != 1.0)
    target[shoulder_mask] = rng.uniform(0.01, 0.99, size=int(shoulder_mask.sum()))
    return pred, target, n_peaks


class TestFocalLoss:
    def test_worked_2x2_example(self):
        pred = np.full((2, 2), 0.5)
        target = np.array([[1.0, 0.0], [0.0, 0.0]])
        value = focal_loss(pred, target, n_objects=1)
        assert value == pytest.approx(4 * 0.25 * math.log(2), abs=1e-6)
        assert value == pytest.approx(0.693147, abs=1e-6)

    def test_exact_binary_target_is_near_zero(self):
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert focal_loss(target.copy(), target, 2) == pytest.approx(0.0, abs=1e-9)

    def test_matches_branch_explicit_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            pred, target, n = random_focal_instance(rng)
            assert focal_loss(pred, target, n) == pytest.approx(
                focal_loss_oracle(pred, target, n), rel=1e-12
            )

    def test_shoulder_cells_use_otherwise_branch(self):
        pred = np.array([[0.4]])
        target = np.array([[0.6]])
        expected = -((1 - 0.6) ** 4) * 0.4**2 * math.log(1 - 0.4)
        assert focal_loss(pred, target, 1) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            pred, target, n = random_focal_instance(rng, shape=(4, 4))
            assert focal_loss(pred, target, n) >= 0.0

    def test_doubling_n_halves_exactly(self):
        rng = np.random.default_rng(22)
        pred, target, _ = random_focal_instance(rng)
        assert focal_loss(pred, target, 2) == focal_loss(pred, target, 1) / 2
        assert focal_loss(pred, target, 6) == focal_loss(pred, target, 3) / 2

    def test_zero_objects_uses_divisor_one(self):
        pred = np.full((2, 2), 0.5)
        target = np.zeros((2, 2))
        assert focal_loss(pred, target, 0) == focal_loss(pred, target, 1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            focal_loss(np.zeros((2, 2)), np.zeros((2, 3)), 1)
        with pytest.raises(ValueError, match="shape"):
            offset_loss(np.zeros((8, 8, 9)), render_targets([], 8, 8, 4))

    def test_moving_toward_branch_optimum_decreases(self):
        # peak cells: optimum pred 1; all other cells: optimum pred 0
        rng = np.random.default_rng(23)
        for _ in range(50):
            pred, target, n = random_focal_instance(rng, shape=(4, 4))
            base = focal_loss(pred, target, n)
            i, j = rng.integers(0, 4), rng.integers(0, 4)
            moved = pred.copy()
            if target[i, j] == 1.0:
                moved[i, j] = pred[i, j] + 0.5 * (1.0 - pred[i, j])
            else:
                moved[i, j] = pred[i, j] * 0.5
            assert focal_loss(moved, target, n) < base


class TestFocalGrad:
    def test_symmetry(self):
        pred = np.array([[0.3, 0.7], [0.7, 0.3]])
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        grad = focal_loss_grad(pred, target, 1)
        assert grad[0, 0] == grad[1, 1]
        assert grad[0, 1] == grad[1, 0]

    def test_matches_central_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            pred, target, n = random_focal_instance(rng)
            report = finite_diff_check(
                lambda x: focal_loss(x, target, n),
                lambda x: focal_loss_grad(x, target, n),
                pred,
                tol=1e-5,
            )
            assert report.passed, report

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            focal_loss_grad(np.zeros((2, 2)), np.zeros((2, 3)), 1)
        with pytest.raises(ValueError, match="shape"):
            offset_loss_grad(np.zeros((8, 8, 9)), render_targets([], 8, 8, 4))

    @pytest.mark.parametrize("fn", [focal_loss, focal_loss_grad])
    def test_negative_n_objects_raises(self, fn):
        with pytest.raises(ValueError, match="n_objects must be >= 0"):
            fn(np.full((2, 2), 0.5), np.zeros((2, 2)), -1)

    def test_clamped_cells_report_zero(self):
        pred = np.array([[0.0, 0.5], [1.0, 0.5]])
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        grad = focal_loss_grad(pred, target, 1)
        assert grad[0, 0] == 0.0
        assert grad[1, 0] == 0.0
        assert grad[0, 1] != 0.0

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_zero_exactly_where_the_clip_moves_the_prediction(self, dtype):
        # 1.0 and float32(1e-12) = 9.99999996e-13 lie outside the clamp in
        # every dtype, float16 cannot hold 1e-12 at all, and a value on a
        # bound or inside the clamp keeps its gradient
        eps = 1e-12
        values = [1.0, np.float32(eps), 0.0, -0.0, 0.5, eps, 1.0 - eps]
        pred = np.array([values, values], dtype=dtype)
        target = np.array([[0.0] * len(values), [1.0] * len(values)])
        grad = focal_loss_grad(pred, target, 1)
        moved = np.clip(pred.astype(np.float64), eps, 1.0 - eps) != pred
        assert np.array_equal(grad == 0.0, moved)
        assert moved[:, :4].all() and not moved[:, 4].any()

    # longdouble is float64 itself on some platforms
    @pytest.mark.parametrize("dtype", [np.complex128] + (
        [] if np.can_cast(np.longdouble, np.float64) else [np.longdouble]))
    def test_pred_dtype_beyond_float64_raises(self, dtype):
        # a third would be clipped as its float64 rounding, a value the
        # clip did not move but that differs from the prediction
        pred = np.full((2, 2), 1, dtype=dtype) / 3
        for fn in (focal_loss, focal_loss_grad):
            with pytest.raises(ValueError, match="cast safely to float64"):
                fn(pred, np.zeros((2, 2)), 1)


def traced_peak(fn, *args):
    """Bytes ``fn(*args)`` allocates at its peak, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFocalAllocation:
    """A training-sized call allocates little beyond its one float64 grid
    (and the gradient it returns): the dense branch's scratch is one block,
    not a grid."""

    @pytest.fixture(scope="class")
    def sample(self):
        planes, n = real_planes(4)
        rng = np.random.default_rng(0)
        return rng.uniform(0.001, 0.5, planes.shape).astype(np.float32), planes, n

    @pytest.mark.parametrize("fn,budget", [(focal_loss, 1.5), (focal_loss_grad, 2.75)])
    def test_peak_in_float64_grids(self, sample, fn, budget):
        heat, planes, n = sample
        grid = heat.size * np.dtype(np.float64).itemsize
        assert traced_peak(fn, heat, planes, n) / grid <= budget


class TestSmoothL1:
    """The smooth-L1 term of the offset loss, read through one annotation
    whose offsets are all 0, so that a prediction at a ground-truth cell is
    its residual."""

    @pytest.fixture(scope="class")
    def targets(self):
        tb = render_targets([square_extremes(40, 40, 16, 12)], 24, 24, 4)
        assert tb.n_objects == 1 and not tb.gt_offsets.any()
        return tb

    @staticmethod
    def residual(tb, x):
        """A prediction whose top extreme's dx residual is ``x``, and every
        other residual 0."""
        pred = np.zeros(tb.bundle.offset_maps.shape)
        row, col = tb.gt_cells[0, 0]
        pred[0, row, col] = x
        return pred

    def loss(self, tb, x):
        return offset_loss(self.residual(tb, x), tb)

    def slope(self, tb, x):
        row, col = tb.gt_cells[0, 0]
        return offset_loss_grad(self.residual(tb, x), tb)[0, row, col]

    def test_values(self, targets):
        assert self.loss(targets, 0.0) == 0.0
        assert self.loss(targets, 0.5) == 0.125
        assert self.loss(targets, 2.0) == 1.5
        assert self.loss(targets, -2.0) == 1.5

    def test_even_nonnegative_zero_only_at_zero(self, targets):
        xs = np.linspace(-3, 3, 201)
        vals = np.array([self.loss(targets, x) for x in xs])
        assert np.array_equal(vals, [self.loss(targets, -x) for x in xs])
        assert (vals[xs != 0] > 0).all()
        assert self.loss(targets, 0.0) == 0.0

    def test_c1_at_breakpoint(self, targets):
        h = 1e-7
        left = (self.loss(targets, 1.0) - self.loss(targets, 1.0 - h)) / h
        right = (self.loss(targets, 1.0 + h) - self.loss(targets, 1.0)) / h
        assert left == pytest.approx(1.0, abs=1e-6)
        assert right == pytest.approx(1.0, abs=1e-6)
        assert self.slope(targets, 1.0) == 1.0
        assert self.slope(targets, -1.0) == -1.0


def smooth_l1(x: float) -> float:
    """Smooth L1 of one residual, with its breakpoint at 1."""
    return 0.5 * x * x if abs(x) < 1.0 else abs(x) - 0.5


def smooth_l1_grad(x: float) -> float:
    """Derivative of :func:`smooth_l1`: x inside, sign(x) outside."""
    return x if abs(x) < 1.0 else float(np.sign(x))


def offset_loss_oracle(pred, tb):
    """Scalar loop: the loss adds each (annotation, role) x + y term in
    order, the gradient adds into each cell in the same order."""
    total = 0.0
    grad = np.zeros(pred.shape)
    n = tb.n_objects
    for k in range(n):
        for role_idx in range(4):
            row, col = (int(v) for v in tb.gt_cells[k, role_idx])
            ex, ey = (
                float(pred[2 * role_idx + c, row, col])
                - float(tb.gt_offsets[k, role_idx, c])
                for c in (0, 1)
            )
            total += smooth_l1(ex) + smooth_l1(ey)
            grad[2 * role_idx, row, col] += smooth_l1_grad(ex) / n
            grad[2 * role_idx + 1, row, col] += smooth_l1_grad(ey) / n
    return total / max(n, 1), grad


def two_lesion_targets():
    anns = [square_extremes(20.5, 24.25, 8, 9), square_extremes(60, 52.75, 10, 7)]
    return render_targets(anns, 24, 24, 4)


class TestOffsetLoss:
    def test_perfect_prediction_is_zero(self):
        tb = two_lesion_targets()
        assert offset_loss(tb.bundle.offset_maps, tb) == 0.0

    def test_off_by_half_on_all_components(self):
        tb = render_targets([square_extremes(20.5, 24.25, 8, 9)], 24, 24, 4)
        pred = tb.bundle.offset_maps.astype(np.float64) + 0.5
        assert offset_loss(pred, tb) == 1.0

    def test_non_gt_cells_have_no_effect(self):
        tb = two_lesion_targets()
        base = offset_loss(tb.bundle.offset_maps, tb)
        noisy = tb.bundle.offset_maps.astype(np.float64).copy()
        gt_cells = {
            (role_idx, int(row), int(col))
            for cells in tb.gt_cells
            for role_idx, (row, col) in enumerate(cells)
        }
        rng = np.random.default_rng(25)
        for _ in range(50):
            plane = int(rng.integers(0, 8))
            row, col = int(rng.integers(0, 24)), int(rng.integers(0, 24))
            if (plane // 2, row, col) in gt_cells:
                continue
            noisy[plane, row, col] = rng.uniform(-5, 5)
        assert offset_loss(noisy, tb) == base

    def test_doubling_n_halves(self):
        tb = two_lesion_targets()
        pred = tb.bundle.offset_maps.astype(np.float64) + 0.25
        loss_n2 = offset_loss(pred, tb)
        tb_half = render_targets([square_extremes(20.5, 24.25, 8, 9)], 24, 24, 4)
        pred_half = tb_half.bundle.offset_maps.astype(np.float64) + 0.25
        assert loss_n2 == offset_loss(pred_half, tb_half)  # same per-lesion error

    def test_empty_targets_zero(self):
        tb = render_targets([], 8, 8, 4)
        pred = np.ones((8, 8, 8))
        assert offset_loss(pred, tb) == 0.0
        grad = offset_loss_grad(pred, tb)
        assert grad.dtype == np.float64 and not grad.any()

    def test_matches_scalar_loop_bitwise(self):
        a, b = square_extremes(20.5, 24.25, 8, 9), square_extremes(60, 52.75, 10, 7)
        tb = render_targets([a, b, a], 24, 24, 4)  # the third shares a's cells
        rng = np.random.default_rng(27)
        for dtype in (np.float64, np.float32):
            pred = rng.uniform(-2.0, 2.0, size=tb.bundle.offset_maps.shape)
            pred = pred.astype(dtype)
            want_loss, want_grad = offset_loss_oracle(pred, tb)
            assert offset_loss(pred, tb) == want_loss
            assert np.array_equal(offset_loss_grad(pred, tb), want_grad)

    def test_grad_matches_central_differences(self):
        tb = two_lesion_targets()
        rng = np.random.default_rng(26)
        for _ in range(10):
            pred = rng.uniform(0.0, 1.0, size=tb.bundle.offset_maps.shape)
            report = finite_diff_check(
                lambda x: offset_loss(x, tb),
                lambda x: offset_loss_grad(x, tb),
                pred,
                tol=1e-5,
            )
            assert report.passed, report


class TestFiniteDiffCheck:
    def test_constant_function_zero_both_ways(self):
        report = finite_diff_check(
            lambda x: 3.25, lambda x: np.zeros_like(x), np.ones((3, 3))
        )
        assert report.max_rel_err == 0.0
        assert report.passed

    def test_detects_wrong_gradient(self):
        report = finite_diff_check(
            lambda x: float(np.sum(x**2)),
            lambda x: 3.0 * x,  # wrong: should be 2x
            np.full((2, 2), 1.5),
        )
        assert not report.passed

    def test_worst_cell_holds_python_ints(self):
        x = np.full((2, 3), 1.5)
        x[1, 2] = 2.0
        report = finite_diff_check(
            lambda v: float(np.sum(v**3)), lambda v: 3.0 * v * v + (v == 2.0), x
        )
        assert report.worst_cell == (1, 2)
        assert all(type(i) is int for i in report.worst_cell)
        assert str(report.worst_cell) == "(1, 2)"

    def test_empty_input_passes_like_a_constant_loss(self):
        for shape in [(0,), (0, 3), (4, 0, 2)]:
            target = np.zeros(shape)
            report = finite_diff_check(
                lambda x: focal_loss(x, target, 1),
                lambda x: focal_loss_grad(x, target, 1),
                np.zeros(shape),
            )
            assert report == GradCheckReport(0.0, (0,) * len(shape), True)
