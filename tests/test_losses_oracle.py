"""The focal loss and its gradient against the dense implementations they
replaced, bit for bit.

``dense_focal_loss`` and ``dense_focal_loss_grad`` evaluate both branches
and (1-Y)^beta on every cell, as ``losses`` did before it evaluated each
branch only where it applies; their bodies are copied without change but
for the gradient's clamp mask, which now compares the prediction with the
clamp bounds in float64, the dtype the clip runs in: the copied mask
compared in the prediction's own dtype and missed a float16 or float32
prediction of exactly 1.0.
Floats are compared through ``.view(np.uint64)``, so a sign of zero, a
NaN's sign or a last-ulp difference fails. Three orderings carry the bits,
and each case group below exercises them:

- (1-Y)^beta multiplies p^alpha before the log(1-p) factor, and the whole
  bracket of the gradient;
- the positive terms are summed with ``np.sum`` over a full grid that is
  zero off the positive cells, so numpy's pairwise order is unchanged;
- the total is sum(positive) + sum(negative), in that order.

A NaN prediction is refused with ValueError, which the dense code never
raises, so the cases holding one expect that error; NaN targets still
compare bit for bit.
"""

import numpy as np
import pytest

from recistkit.losses import FocalParams, focal_loss, focal_loss_grad
from recistkit.synthetic import generate_scene
from recistkit.targets import render_targets

# --- oracles: the dense implementations ---------------------------------------


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")


def dense_focal_loss(
    pred: np.ndarray,
    target: np.ndarray,
    n_objects: int,
    params: FocalParams = FocalParams(),
) -> float:
    _check_shapes(pred, target)
    if n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, got {n_objects}")
    p = np.clip(pred.astype(np.float64), params.clamp_eps, 1.0 - params.clamp_eps)
    y = target.astype(np.float64)
    pos = y == 1.0

    pos_terms = np.where(pos, (1.0 - p) ** params.alpha * np.log(p), 0.0)
    neg_terms = np.where(
        pos, 0.0, (1.0 - y) ** params.beta * p ** params.alpha * np.log1p(-p)
    )
    total = np.sum(pos_terms) + np.sum(neg_terms)
    return float(-total / max(n_objects, 1))


def dense_focal_loss_grad(
    pred: np.ndarray,
    target: np.ndarray,
    n_objects: int,
    params: FocalParams = FocalParams(),
) -> np.ndarray:
    _check_shapes(pred, target)
    if n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, got {n_objects}")
    a, b = params.alpha, params.beta
    p = np.clip(pred.astype(np.float64), params.clamp_eps, 1.0 - params.clamp_eps)
    y = target.astype(np.float64)
    pos = y == 1.0

    d_pos = -a * (1.0 - p) ** (a - 1.0) * np.log(p) + (1.0 - p) ** a / p
    d_neg = (1.0 - y) ** b * (
        a * p ** (a - 1.0) * np.log1p(-p) - p ** a / (1.0 - p)
    )
    grad = -np.where(pos, d_pos, d_neg) / max(n_objects, 1)

    pred64 = pred.astype(np.float64)
    clamped = (pred64 < params.clamp_eps) | (pred64 > 1.0 - params.clamp_eps)
    grad[clamped] = 0.0
    return grad


# --- oracles: the unblocked implementations ------------------------------------
#
# ``losses`` as it was before its dense branch ran in blocks, bodies copied
# without change. It follows the prediction's memory layout as the blocked
# code does, where the dense code above does not when the prediction and the
# target are laid out differently, so it is the reference for those pairs.


def _unblocked_inputs(pred, target, n_objects, params):
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if n_objects < 0:
        raise ValueError(f"n_objects must be >= 0, got {n_objects}")
    if not np.can_cast(pred.dtype, np.float64):
        raise ValueError(f"pred dtype must cast safely to float64, got {pred.dtype}")
    if pred.size and np.isnan(pred.max()):
        raise ValueError("pred holds NaN")
    p = np.clip(pred, params.clamp_eps, 1.0 - params.clamp_eps, dtype=np.float64)
    near = (target != 0.0).ravel().nonzero()[0]
    values = target.take(near)
    pos = near[values == 1.0]
    weight = (1.0 - values.astype(np.float64)) ** params.beta
    return p, pos, near, weight


def unblocked_focal_loss(pred, target, n_objects, params=FocalParams()):
    p, pos, near, weight = _unblocked_inputs(pred, target, n_objects, params)
    a = params.alpha
    pp = p.take(pos)
    pos_terms = (1.0 - pp) ** a * np.log(pp)

    terms = np.negative(p)
    np.log1p(terms, out=terms)
    p **= a
    p.put(near, weight * p.take(near))
    p *= terms
    p.put(pos, 0.0)
    neg_sum = p.sum()

    terms.fill(0.0)
    terms.put(pos, pos_terms)
    total = terms.sum() + neg_sum
    return float(-total / max(n_objects, 1))


def unblocked_focal_loss_grad(pred, target, n_objects, params=FocalParams()):
    p, pos, near, weight = _unblocked_inputs(pred, target, n_objects, params)
    clamped = p != pred
    a = params.alpha
    pp = p.take(pos)
    d_pos = -a * (1.0 - pp) ** (a - 1.0) * np.log(pp) + (1.0 - pp) ** a / pp

    grad = np.negative(p)
    np.log1p(grad, out=grad)
    work = p ** (a - 1.0)
    np.multiply(a, work, out=work)
    np.multiply(work, grad, out=grad)
    np.subtract(1.0, p, out=work)
    p **= a
    p /= work
    grad -= p
    grad.put(near, weight * grad.take(near))
    grad.put(pos, d_pos)

    np.negative(grad, out=grad)
    grad /= max(n_objects, 1)
    grad[clamped] = 0.0
    return grad


DENSE = (dense_focal_loss, dense_focal_loss_grad)
UNBLOCKED = (unblocked_focal_loss, unblocked_focal_loss_grad)

# --- cases ---------------------------------------------------------------------

ALPHAS = (1.0, 1.5, 2.0, 3.0)
BETAS = (0.0, 3.0, 4.0)
PARAMS = [FocalParams(a, b) for a in ALPHAS for b in BETAS]
EPS = FocalParams().clamp_eps


def assert_same_bits(pred, target, n, params, oracle=DENSE):
    loss = focal_loss(pred, target, n, params)
    expected = oracle[0](pred, target, n, params)
    assert np.float64(loss).view(np.uint64) == np.float64(expected).view(np.uint64), (
        loss.hex(), expected.hex()
    )
    grad = focal_loss_grad(pred, target, n, params)
    dense = oracle[1](pred, target, n, params)
    assert grad.dtype == np.float64 and grad.shape == dense.shape
    assert np.array_equal(grad.view(np.uint64), dense.view(np.uint64))


def assert_refused(pred, target, n, params):
    for fn in (focal_loss, focal_loss_grad):
        with pytest.raises(ValueError, match="pred holds NaN"):
            fn(pred, target, n, params)


def real_planes(n_lesions: int) -> tuple[np.ndarray, int]:
    scene = generate_scene(n_lesions, image_size=(768, 768), seed=40 + n_lesions)
    targets = render_targets(
        [ann.extremes() for ann in scene.annotations], 192, 192, 4,
        input_size=(768, 768),
    )
    return targets.bundle.keypoint_maps, targets.n_objects


def random_grid(rng, shape):
    """Shoulders in (0, 1), a few exact peaks, zeros, and -0.0 cells."""
    target = np.where(rng.random(shape) < 0.6, rng.uniform(0.0, 1.0, shape), 0.0)
    target[rng.random(shape) < 0.1] = 1.0
    target[rng.random(shape) < 0.1] = -0.0
    pred = rng.uniform(0.0, 1.0, shape)
    return pred, target


@pytest.mark.parametrize("n_lesions", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rendered_planes(n_lesions, dtype):
    planes, n = real_planes(n_lesions)
    rng = np.random.default_rng(n_lesions)
    pred = rng.uniform(0.001, 0.5, planes.shape).astype(dtype)
    assert_same_bits(pred, planes, n, FocalParams())


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha:g}-b{p.beta:g}")
def test_rendered_planes_every_exponent(params):
    planes, n = real_planes(3)
    rng = np.random.default_rng(7)
    pred = rng.uniform(0.001, 0.999, planes.shape).astype(np.float32)
    assert_same_bits(pred, planes, n, params)


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha:g}-b{p.beta:g}")
def test_random_small_grids(params):
    rng = np.random.default_rng(int(10 * params.alpha + params.beta))
    for trial in range(40):
        shape = tuple(int(s) for s in rng.integers(1, 13, size=3))
        pred, target = random_grid(rng, shape)
        for dtype in (np.float32, np.float64):
            assert_same_bits(pred.astype(dtype), target.astype(dtype), trial % 3, params)


NAN_PREDS = [np.nan, -np.nan]
SPECIAL_PREDS = [
    0.0, 1.0,
    EPS, np.nextafter(EPS, 0.0), np.nextafter(EPS, 1.0),
    1.0 - EPS, np.nextafter(1.0 - EPS, 0.0), np.nextafter(1.0 - EPS, 2.0),
    0.25, 0.5, 0.75,
]
SPECIAL_TARGETS = [0.0, -0.0, 1.0, 0.5, 0.999, 1.5, 2.0, -0.5, np.nan]


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"a{p.alpha:g}-b{p.beta:g}")
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("n", [0, 1])
def test_special_values(params, dtype, n):
    # every special prediction against every special target
    pred, target = np.meshgrid(SPECIAL_PREDS, SPECIAL_TARGETS, indexing="ij")
    assert_same_bits(pred.astype(dtype), target.astype(dtype), n, params)
    pred, target = np.meshgrid(
        SPECIAL_PREDS + NAN_PREDS, SPECIAL_TARGETS, indexing="ij"
    )
    assert_refused(pred.astype(dtype), target.astype(dtype), n, params)
    # and each special prediction alone on a peak and on a shoulder, so a
    # NaN prediction is refused wherever it is
    for value in SPECIAL_PREDS + NAN_PREDS:
        check = assert_refused if np.isnan(value) else assert_same_bits
        for peak in (True, False):
            pred = np.full((2, 3), 0.3)
            pred[0, 1] = value
            target = np.array([[0.0, 1.0 if peak else 0.7, 0.4], [1.0, -0.0, 0.9]])
            check(pred.astype(dtype), target.astype(dtype), n, params)


def test_nan_signs_in_both_sums():
    """A NaN of either sign, in either term's sum, is refused."""
    pred = np.array([[np.nan, 0.4, -np.nan], [0.2, 0.3, 0.6]])
    target = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3]])
    for params in PARAMS:
        assert_refused(pred, target, 2, params)
        assert_refused(pred[:, ::-1].copy(), target[:, ::-1].copy(), 2, params)
        flipped = np.where(np.isnan(pred), -pred, pred)
        assert_refused(flipped, target, 2, params)
        for cell in ((0, 0), (0, 2)):  # a single NaN, in one sum only
            one = np.where(np.isnan(pred), 0.5, pred)
            one[cell] = np.nan
            assert_refused(one.astype(np.float32), target, 2, params)


def _strided(a):
    """``a`` as a view with a gap after each row of its last axis."""
    padded = np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, 3)])
    return padded[..., : a.shape[-1]]


def _permuted(a):
    """``a`` in memory with its first axis last: neither C- nor F-ordered
    when it has three axes."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "strided": _strided,
    "permuted": _permuted,
}


@pytest.mark.parametrize(
    "pred_layout,target_layout",
    [("C", "F"), ("C", "strided"), ("F", "F"), ("strided", "C")],
)
def test_memory_layouts(pred_layout, target_layout):
    """The sums follow the prediction's memory order, which is the dense
    code's when the prediction is laid out like the target. On grids this
    small the mixed pairs below agree too; on larger ones they can differ in
    the loss's last bit (see ``test_block_edges``)."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        pred, target = random_grid(rng, (3, 40, 57))
        assert_same_bits(
            LAYOUTS[pred_layout](pred), LAYOUTS[target_layout](target), 2,
            FocalParams(1.5, 4.0),
        )


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_memory_layouts_large_grids(layout):
    """A prediction laid out like its target sums in the dense code's order
    on a training-sized grid too."""
    rng = np.random.default_rng(12)
    for _ in range(4):
        pred, target = random_grid(rng, (3, 150, 211))
        assert_same_bits(
            LAYOUTS[layout](pred), LAYOUTS[layout](target), 2, FocalParams(1.5, 4.0)
        )


# --- block edges ---------------------------------------------------------------
#
# The dense branch runs in blocks of 2**15 cells of the prediction's memory
# order. These grids span several blocks and end in a partial one, in every
# layout, so a cell mapped to the wrong block, or a target index mapped to
# the wrong memory position, shows as a bit difference.

BLOCK = 1 << 15
BLOCK_SHAPES = [(3, 150, 211), (2, BLOCK + 1)]


SAME_LAYOUTS = [(name, name) for name in LAYOUTS]
MIXED_LAYOUTS = [("C", "F"), ("F", "C"), ("strided", "C"), ("C", "permuted"),
                 ("permuted", "F")]


def clamp_edges(dtype):
    """The dtype's values on or nearest inside each clamp bound, then the
    nearest outside: EPS, 1 - EPS and their neighbours in float64, while
    float16 cannot hold EPS at all."""
    zero, one = dtype(0.0), dtype(1.0)
    lo, hi = dtype(EPS), dtype(1.0 - EPS)
    if float(lo) < EPS:
        lo = np.nextafter(lo, one)
    if float(hi) > 1.0 - EPS:
        hi = np.nextafter(hi, zero)
    return lo, hi, np.nextafter(lo, zero), np.nextafter(hi, one)


def edge_predictions(rng, shape, dtype):
    """Predictions inside the clamp, then also on its bounds, then also one
    ulp outside, as (name, prediction, whether the clip moves a value)."""
    lo, hi, below, above = clamp_edges(dtype)
    inside = np.clip(rng.uniform(0.0, 1.0, shape).astype(dtype), lo, hi)
    size = inside.size
    # cells at both ends of a block, and the last cell of the grid
    cells = np.unravel_index([0, BLOCK - 1, BLOCK, size - 1], shape)
    bounds = inside.copy()
    bounds[cells] = [lo, hi, hi, lo]
    outside = bounds.copy()
    outside[tuple(c[1:3] for c in cells)] = [below, above]
    return [("inside", inside, False), ("bounds", bounds, False),
            ("outside", outside, True)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("pred_layout,target_layout", SAME_LAYOUTS + MIXED_LAYOUTS)
def test_block_edges(shape, dtype, pred_layout, target_layout):
    """Bit for bit against the dense code where prediction and target share
    a layout, and against the unblocked code where they do not, with the
    prediction inside the clamp (copied to float64), on its bounds (copied)
    and one ulp outside (clipped)."""
    rng = np.random.default_rng(sum(shape))
    _, target = random_grid(rng, shape)
    target = LAYOUTS[target_layout](target.astype(dtype))
    oracle = DENSE if pred_layout == target_layout else UNBLOCKED
    for name, pred, moved in edge_predictions(rng, shape, dtype):
        # which branch the prediction takes: the clip only when it moves a value
        outside = float(pred.min()) < EPS or float(pred.max()) > 1.0 - EPS
        assert outside == moved, name
        pred = LAYOUTS[pred_layout](pred)
        assert_same_bits(pred, target, 2, FocalParams(), oracle)
