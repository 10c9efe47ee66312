"""Training losses for keypoint heatmaps and sub-cell offsets.

Both losses are implemented with analytic gradients plus a generic central
finite-difference checker, so gradient correctness can be verified without
any autograd framework. Sums run in float64 in a fixed order, so results
are bit-reproducible across runs.

``focal_loss`` and ``focal_loss_grad`` evaluate the positive branch only at
the cells where the target is exactly 1, and (1 - Y)^beta only where the
target is not 0 (everywhere else it is exactly 1); the rest of the negative
branch runs over the whole grid in blocks of 2**15 cells of the
prediction's memory order, so that a block and its scratch stay in cache.
Every cell still goes through the same operations on the same operands as
when both branches are evaluated everywhere. The prediction is clipped to
the clamp, and the gradient zeroed where the clip moved it, only when some
value lies outside the clamp; otherwise it is copied to float64 as it is.
``focal_loss`` sums each term (numpy's pairwise summation) over a full
grid that is zero off that term's cells, then adds positive + negative, so
the summation order is unchanged too. The grids follow the prediction's
memory layout; that is the order of the all-cells evaluation when the
prediction is laid out like the target. A NaN prediction raises
ValueError: numpy's SIMD kernels at different dispatch levels give its
result different NaN signs, so no result for it would be the same on every
CPU.

``offset_loss`` scores each offset residual x by smooth L1 with its
breakpoint at 1, 0.5 * x^2 for |x| < 1 and |x| - 0.5 beyond (C1 at the
breakpoint; the gradient is x, then sign(x)). It adds one x + y term per
(annotation, extreme role) strictly left to right, annotation by
annotation, roles in EXTREME_ROLES order; its gradient accumulates into
shared cells in that same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FocalParams
from .targets import EXTREME_ROLES, TargetBundle

# finite_diff_check's central-difference step
_FD_STEP = 1e-6
# cells per block of the focal losses' dense branch: 256 KiB of float64, so a
# block of the grid and its scratch stay in one core's L2 cache
_BLOCK = 1 << 15


def _focal_inputs(
    pred: np.ndarray, target: np.ndarray, n_objects: int, params: FocalParams
):
    """Checks the arguments (a NaN prediction, or one of a dtype that does
    not cast safely to float64, such as longdouble, raises ValueError),
    then returns what both focal functions read.

    That is the prediction clamped to [clamp_eps, 1 - clamp_eps] as a fresh
    float64 array the caller may overwrite, laid out like the prediction;
    whether the clamp moved any value; the flat indices, in that array's
    memory order, of the cells where the target is exactly 1 and of those
    where it is not 0 (NaN is not 0, -0.0 is); and (1 - target)^beta at the
    latter.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, got {n_objects}")
    if not np.can_cast(pred.dtype, np.float64):
        raise ValueError(f"pred dtype must cast safely to float64, got {pred.dtype}")
    lo, hi = params.clamp_eps, 1.0 - params.clamp_eps
    clipped = False
    if pred.size:
        # max is NaN iff some value is, and allocates nothing
        top = float(pred.max())
        if math.isnan(top):
            raise ValueError("pred holds NaN")
        clipped = not (lo <= float(pred.min()) and top <= hi)
    # both keep the prediction's layout; float64 holds its values exactly
    if clipped:
        p = np.clip(pred, lo, hi, dtype=np.float64)
    else:
        p = pred.astype(np.float64)
    # with its axes in p's memory order, the target's C order is that order
    if not p.flags.c_contiguous:
        target = target.transpose(np.argsort(p.strides)[::-1])
    near = (target != 0.0).ravel().nonzero()[0]
    values = target.take(near)
    pos = near[values == 1.0]
    weight = (1.0 - values.astype(np.float64)) ** params.beta
    return p, clipped, pos, near, weight


def _blocks(size: int, *cells: tuple[np.ndarray, np.ndarray]):
    """The slice of each ``_BLOCK``-cell block of a flat grid of ``size``
    cells, in order, with each (indices, values) pair in ``cells`` cut to
    the indices (ascending) that fall in the block, made local to it. A
    grid of at most one block is one block."""
    if size <= _BLOCK:
        yield slice(None), *cells
        return
    starts = range(0, size, _BLOCK)
    cuts = [np.searchsorted(index, [*starts, size]) for index, _ in cells]
    for k, start in enumerate(starts):
        parts = [
            (index[cut[k] : cut[k + 1]] - start, values[cut[k] : cut[k + 1]])
            for (index, values), cut in zip(cells, cuts)
        ]
        yield slice(start, start + _BLOCK), *parts


def focal_loss(
    pred: np.ndarray,
    target: np.ndarray,
    n_objects: int,
    params: FocalParams = FocalParams(),
) -> float:
    """Penalty-reduced focal loss over one heatmap.

    Cells where the target is exactly 1 contribute (1-p)^alpha * log(p);
    every other cell, including Gaussian shoulders with 0 < target < 1,
    contributes (1-Y)^beta * p^alpha * log(1-p). The sum is negated and
    divided by ``n_objects`` (by 1 when there are zero objects).

    The positive term is evaluated only at the target-1 cells and
    (1-Y)^beta only where the target is not 0; the rest of the negative
    term runs over the whole grid, block by block. Each term is summed over
    a full grid that is zero off its own cells, so the summation order, and
    every bit of the result, is that of evaluating both terms on every cell.
    """
    p, _, pos, near, weight = _focal_inputs(pred, target, n_objects, params)
    a = params.alpha
    flat = p.ravel(order="K")
    pp = flat.take(pos)
    pos_terms = (1.0 - pp) ** a * np.log(pp)

    # each cell's negative term replaces its p
    for span, (cells, w) in _blocks(flat.size, (near, weight)):
        block = flat[span]
        t = np.negative(block)
        np.log1p(t, out=t)
        block **= a
        # left to right as in the formula: (1-Y)^beta * p^alpha, then the
        # log factor; another order can change the last bit
        block.put(cells, w * block.take(cells))
        block *= t
    flat.put(pos, 0.0)
    neg_sum = p.sum()

    p.fill(0.0)
    flat.put(pos, pos_terms)
    total = p.sum() + neg_sum
    return float(-total / max(n_objects, 1))


def focal_loss_grad(
    pred: np.ndarray,
    target: np.ndarray,
    n_objects: int,
    params: FocalParams = FocalParams(),
) -> np.ndarray:
    """Analytic d(loss)/d(pred), zero exactly at the cells where the clamp
    to [clamp_eps, 1 - clamp_eps] moved the prediction, in every dtype
    accepted.

    Like :func:`focal_loss`, the positive branch is evaluated only at the
    target-1 cells and (1-Y)^beta only where the target is not 0; the
    bracket of the negative branch runs over the whole grid, block by block.
    """
    p, clipped, pos, near, weight = _focal_inputs(pred, target, n_objects, params)
    # float64 holds pred's values exactly (an integer it cannot is clamped
    # anyway), so this is exactly where the clip moved the prediction
    clamped = p != pred if clipped else None
    a = params.alpha
    flat = p.ravel(order="K")
    pp = flat.take(pos)
    d_pos = -a * (1.0 - pp) ** (a - 1.0) * np.log(pp) + (1.0 - pp) ** a / pp

    # d_neg = (1-Y)^beta * (a * p^(a-1) * log(1-p) - p^a / (1-p)), with
    # (1-Y)^beta applied to the finished bracket
    grad = np.empty_like(p)
    out = grad.ravel(order="K")
    n = max(n_objects, 1)
    blocks = _blocks(flat.size, (near, weight), (pos, d_pos))
    for span, (cells, w), (peaks, d) in blocks:
        block, g = flat[span], out[span]
        np.negative(block, out=g)
        np.log1p(g, out=g)
        work = block ** (a - 1.0)
        np.multiply(a, work, out=work)
        np.multiply(work, g, out=g)
        np.subtract(1.0, block, out=work)
        block **= a
        block /= work
        g -= block
        g.put(cells, w * g.take(cells))
        g.put(peaks, d)
        np.negative(g, out=g)
        g /= n
    if clamped is not None:
        grad[clamped] = 0.0
    return grad


def _gt_residuals(pred_offsets: np.ndarray, targets: TargetBundle):
    """Index of every ground-truth offset and prediction minus target there.

    Both are (n, 4, 2): annotation, extreme role, then (dx, dy), so one
    fancy index reads or updates all of them in the loss's term order.
    """
    expected = targets.bundle.offset_maps.shape
    if pred_offsets.shape != expected:
        raise ValueError(
            f"shape mismatch: pred {pred_offsets.shape} vs target {expected}"
        )
    planes = np.arange(2 * len(EXTREME_ROLES)).reshape(len(EXTREME_ROLES), 2)
    cells = targets.gt_cells
    index = (planes, cells[..., :1], cells[..., 1:])
    residual = pred_offsets[index].astype(np.float64) - targets.gt_offsets
    return index, residual


def offset_loss(pred_offsets: np.ndarray, targets: TargetBundle) -> float:
    """Smooth-L1 offset loss read only at ground-truth extreme cells.

    Sums over annotations, the four extreme roles, and the two offset
    components, then divides by the annotation count. The center role has
    no offsets; predictions anywhere else in the planes are ignored.
    Returns 0 for an empty annotation set.
    """
    _, residual = _gt_residuals(pred_offsets, targets)
    n = targets.n_objects
    if n == 0:
        return 0.0
    a = np.abs(residual)
    terms = np.where(a < 1.0, 0.5 * a * a, a - 0.5)
    # one x + y term per (annotation, role), added left to right: np.sum
    # would add them pairwise and change the last bits
    total = np.add.accumulate((terms[..., 0] + terms[..., 1]).ravel())[-1]
    return float(total / n)


def offset_loss_grad(pred_offsets: np.ndarray, targets: TargetBundle) -> np.ndarray:
    """Analytic gradient of :func:`offset_loss` w.r.t. the offset planes."""
    index, residual = _gt_residuals(pred_offsets, targets)
    slope = np.where(np.abs(residual) < 1.0, residual, np.sign(residual))
    grad = np.zeros(pred_offsets.shape, dtype=np.float64)
    # annotations sharing a cell accumulate there in annotation order; with
    # none, the index is empty and the gradient stays zero
    np.add.at(grad, index, slope / targets.n_objects)
    return grad


@dataclass(frozen=True, slots=True)
class GradCheckReport:
    """Outcome of comparing an analytic gradient to central differences."""

    max_rel_err: float
    worst_cell: tuple[int, ...]
    passed: bool


def finite_diff_check(
    loss_fn,
    grad_fn,
    x: np.ndarray,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Compare ``grad_fn(x)`` against central differences of ``loss_fn``.

    Each cell's error is scored relative to its own gradient magnitude,
    floored at 1e-3 of the grid's largest gradient: cells near a gradient
    zero-crossing would otherwise amplify finite-difference roundoff (the
    difference quotient with step h = ``_FD_STEP`` carries absolute noise
    around eps * |loss| / h) into meaningless relative errors. A constant
    loss, or an empty ``x``, reports 0.
    ``loss_fn`` maps an array like ``x`` to a scalar; ``grad_fn`` maps it
    to an array of the same shape.
    """
    analytic = np.asarray(grad_fn(x), dtype=np.float64)
    numeric = np.zeros_like(analytic)
    flat = x.astype(np.float64)
    it = np.nditer(flat, flags=["multi_index", "zerosize_ok"])
    for _ in it:
        idx = it.multi_index
        orig = flat[idx]
        flat[idx] = orig + _FD_STEP
        up = loss_fn(flat)
        flat[idx] = orig - _FD_STEP
        down = loss_fn(flat)
        flat[idx] = orig
        numeric[idx] = (up - down) / (2.0 * _FD_STEP)

    grid_scale = max(
        float(np.abs(analytic).max(initial=0.0)),
        float(np.abs(numeric).max(initial=0.0)),
    )
    if grid_scale == 0.0:
        return GradCheckReport(0.0, (0,) * x.ndim, True)
    scale = np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3 * grid_scale
    )
    rel = np.abs(analytic - numeric) / scale
    worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(rel)), rel.shape))
    max_rel = float(rel[worst])
    return GradCheckReport(
        max_rel_err=max_rel, worst_cell=worst, passed=max_rel < tol
    )
