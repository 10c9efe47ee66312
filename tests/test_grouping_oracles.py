"""Sparse center-cell enumeration, separable window max and flat-index peak
extraction against the dense implementations they replaced, bit for bit.

The three oracles below are the dense implementations, copied without
change. The enumeration oracle is swapped in for the block function, so
both sides share the peak packing, the worker partition and the top-k2
merge. Results are compared by ``float.hex`` of every coordinate and score.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recistkit import grouping
from recistkit.grouping import (
    Detection,
    GroupingConfig,
    Peak,
    _PairBlock,
    detect,
    enumerate_quadruples,
    extract_peaks,
    refine_with_offsets,
)
from recistkit.targets import EXTREME_ROLES
from tests.test_detection_rows import bits, noisy_views

# -inf center cells make bilinear weights of 0 multiply -inf, on both sides
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

# --- oracles: the dense implementations ---------------------------------------


def dense_window_max(grid: np.ndarray, kernel: int) -> np.ndarray:
    """Max of the kernel x kernel neighborhood, borders use in-bounds cells."""
    pad = kernel // 2
    h, w = grid.shape
    padded = np.full((h + 2 * pad, w + 2 * pad), -np.inf, dtype=grid.dtype)
    padded[pad : pad + h, pad : pad + w] = grid
    out = np.full_like(grid, -np.inf)
    for di in range(kernel):
        for dj in range(kernel):
            np.maximum(out, padded[di : di + h, dj : dj + w], out=out)
    return out


def dense_extract_peaks(
    heatmap: np.ndarray, cfg: GroupingConfig, role: str
) -> list[Peak]:
    """Local peaks of one map: neighborhood-max cells scoring above tau_e."""
    win = dense_window_max(heatmap, cfg.kernel)
    mask = (heatmap == win) & (heatmap > cfg.tau_e)
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        return []
    scores = heatmap[rows, cols].astype(np.float64)
    order = np.lexsort((cols, rows, -scores))[: cfg.k1]
    return [
        Peak(cell=(int(rows[i]), int(cols[i])), score=float(scores[i]), role=role)
        for i in order
    ]


def _center_scores_nearest(
    center_map: np.ndarray, crow: np.ndarray, ccol: np.ndarray
) -> np.ndarray:
    """Sample at the nearest cell, rounding halves up per component."""
    r = np.floor(crow + 0.5).astype(np.intp)
    c = np.floor(ccol + 0.5).astype(np.intp)
    np.clip(r, 0, center_map.shape[0] - 1, out=r)
    np.clip(c, 0, center_map.shape[1] - 1, out=c)
    return center_map[r[:, None], c[None, :]].astype(np.float64)


def _center_scores_bilinear(
    center_map: np.ndarray, crow: np.ndarray, ccol: np.ndarray
) -> np.ndarray:
    """Bilinear interpolation of the center map at fractional coordinates."""
    h, w = center_map.shape
    r0 = np.clip(np.floor(crow).astype(np.intp), 0, h - 1)
    c0 = np.clip(np.floor(ccol).astype(np.intp), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (crow - r0)[:, None]
    fc = (ccol - c0)[None, :]
    m = center_map.astype(np.float64)
    top = m[r0[:, None], c0[None, :]] * (1 - fc) + m[r0[:, None], c1[None, :]] * fc
    bot = m[r1[:, None], c0[None, :]] * (1 - fc) + m[r1[:, None], c1[None, :]] * fc
    return top * (1 - fr) + bot * fr


def dense_enumerate_block(top, bottom, left, right, center_map, cfg):
    """Vectorized enumeration over one block of (t, b) pairs.

    Each role's peaks come as a (3, n) array of rows, columns and scores.
    Center row depends only on the (t, b) pair and center column only on
    (l, r), so the O(n^4) loop reduces to one gather over the outer product
    of valid pair lists.
    """
    t_rows, t_cols, t_scores = top
    b_rows, b_cols, b_scores = bottom
    l_rows, l_cols, l_scores = left
    r_rows, r_cols, r_scores = right
    ti, bi = np.nonzero(t_rows[:, None] <= b_rows[None, :])
    li, ri = np.nonzero(l_cols[:, None] <= r_cols[None, :])
    if ti.size == 0 or li.size == 0:
        return None

    crow = (t_rows[ti] + b_rows[bi]) * 0.5
    ccol = (l_cols[li] + r_cols[ri]) * 0.5
    if cfg.center_interp == "nearest":
        cscores = _center_scores_nearest(center_map, crow, ccol)
    else:
        cscores = _center_scores_bilinear(center_map, crow, ccol)

    s_tb = t_scores[ti] + b_scores[bi]
    s_lr = l_scores[li] + r_scores[ri]
    total = (s_tb[:, None] + s_lr[None, :]) + 2.0 * cscores

    keep_tb, keep_lr = np.nonzero(cscores > cfg.tau_c)
    if keep_tb.size == 0:
        return None

    scores = total[keep_tb, keep_lr]
    if scores.size > cfg.k2:
        cut = np.partition(scores, scores.size - cfg.k2)[scores.size - cfg.k2]
        local = scores >= cut
        scores = scores[local]
        keep_tb, keep_lr = keep_tb[local], keep_lr[local]

    tk, bk = ti[keep_tb], bi[keep_tb]
    lk, rk = li[keep_lr], ri[keep_lr]
    rows = np.column_stack(
        (
            t_cols[tk], t_rows[tk], l_cols[lk], l_rows[lk],
            b_cols[bk], b_rows[bk], r_cols[rk], r_rows[rk],
            ccol[keep_lr], crow[keep_tb],
        )
    )
    return _PairBlock(scores=scores, rows=rows)


# --- comparison and inputs ------------------------------------------------------

# float32 levels, so that scores tie and tau_c can equal a map value exactly
LEVELS = [float(np.float32(v)) for v in (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0)]


def peak_bits(peaks):
    return [(p.cell, p.score.hex(), p.role) for p in peaks]


def dense_enumerate(peaks, center, cfg, workers):
    """``enumerate_quadruples`` with the dense block swapped in."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(grouping, "_enumerate_block", dense_enumerate_block)
        return enumerate_quadruples(peaks, center, cfg, workers=workers)


def random_enumeration_case(rng):
    """Peaks per role, a center map with ties, NaN and -inf, and a config."""
    h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
    if rng.random() < 0.5:
        center = rng.choice(LEVELS, size=(h, w)).astype(np.float32)
    else:
        center = rng.uniform(0.0, 1.0, size=(h, w)).astype(np.float32)
    center[rng.random((h, w)) < 0.05] = np.nan
    center[rng.random((h, w)) < 0.05] = -np.inf
    peaks = {}
    for role in EXTREME_ROLES:
        n = min(int(rng.integers(0, 13)) if rng.random() < 0.9 else 0, h * w)
        cells = rng.choice(h * w, size=n, replace=False)
        kind = rng.random()
        if kind < 0.4:
            scores = rng.choice(LEVELS[1:], size=n)
        elif kind < 0.7:
            scores = rng.uniform(0.1, 1.0, size=n).astype(np.float32)
        else:  # float64 scores, whose sums show the association
            scores = rng.uniform(0.1, 1.0, size=n)
        peaks[role] = [
            Peak((int(c // w), int(c % w)), float(s), role)
            for c, s in zip(cells, scores)
        ]
    finite = center[np.isfinite(center)]
    if finite.size and rng.random() < 0.5:
        tau_c = float(rng.choice(finite[finite <= 1.0]))  # strict > at a map value
    else:
        tau_c = float(rng.choice([0.0, 0.1, rng.uniform(0.0, 1.0)]))
    k2 = int(rng.integers(1, 30)) if rng.random() < 0.7 else 2000
    return peaks, center, tau_c, k2


def random_peak_grid(rng):
    h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    if rng.random() < 0.5:
        grid = rng.choice(LEVELS, size=(h, w)).astype(np.float32)  # plateaus
    else:
        grid = rng.uniform(0.0, 1.0, size=(h, w)).astype(np.float32)
    grid[rng.random((h, w)) < 0.03] = np.nan
    grid[rng.random((h, w)) < 0.03] = -np.inf
    return grid


# --- enumeration ------------------------------------------------------------------


@pytest.mark.parametrize("center_interp", ["nearest", "bilinear"])
def test_enumeration_matches_dense_oracle(center_interp):
    rng = np.random.default_rng(51 if center_interp == "nearest" else 52)
    kept = 0
    for _ in range(300):
        peaks, center, tau_c, k2 = random_enumeration_case(rng)
        cfg = GroupingConfig(tau_c=tau_c, k2=k2, center_interp=center_interp)
        workers = int(rng.integers(1, 5))
        got = enumerate_quadruples(peaks, center, cfg, workers=workers)
        expected = dense_enumerate(peaks, center, cfg, workers)
        assert [bits(d) for d in got] == [bits(d) for d in expected]
        kept += len(got)
    assert kept > 1000  # the cases are not mostly empty


def test_ties_at_the_k2_cut():
    """Every candidate scores the same, so the cut falls inside one tie."""
    peaks = {
        role: [Peak((r, c), 0.5, role) for r in range(3) for c in range(4)]
        for role in EXTREME_ROLES
    }
    center = np.full((3, 4), 0.75, dtype=np.float32)
    center[1, 2] = 0.25
    for k2 in (1, 7, 100, 5000):
        for interp in ("nearest", "bilinear"):
            cfg = GroupingConfig(tau_c=0.25, k2=k2, center_interp=interp)
            for workers in (1, 3):
                got = enumerate_quadruples(peaks, center, cfg, workers=workers)
                expected = dense_enumerate(peaks, center, cfg, workers)
                assert len(got) == min(k2, len(expected))
                assert [bits(d) for d in got] == [bits(d) for d in expected]


def test_one_by_one_map_and_empty_role():
    cfg = GroupingConfig()
    center = np.full((1, 1), 0.5, dtype=np.float32)
    peaks = {role: [Peak((0, 0), 0.5, role)] for role in EXTREME_ROLES}
    (det,) = enumerate_quadruples(peaks, center, cfg)
    assert det.score == (0.5 + 0.5) + (0.5 + 0.5) + 2.0 * 0.5
    assert enumerate_quadruples({**peaks, "left": []}, center, cfg) == []


def test_detect_matches_dense_pipeline():
    """``detect`` on arrays equals the parent's object pipeline built from
    the dense oracles, at every worker count."""
    cfg = GroupingConfig()
    for bundle in noisy_views(4):
        peaks = {
            role: dense_extract_peaks(bundle.keypoint_map(role), cfg, role)
            for role in EXTREME_ROLES
        }
        center = bundle.keypoint_map("center")
        for workers in (1, 2, 3, 4):
            expected = refine_with_offsets(
                dense_enumerate(peaks, center, cfg, workers),
                bundle.offset_maps, bundle.stride,
            )
            got = detect(bundle, cfg, workers=workers)
            assert len(got) == cfg.k2
            assert all(isinstance(d, Detection) for d in got)
            assert [bits(d) for d in got] == [bits(d) for d in expected]


@st.composite
def grouping_cases(draw):
    """Peak sets without repeated cells per role, and a small center map."""
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    value = st.sampled_from(LEVELS + [math.nan, -math.inf])
    center = np.array(
        draw(st.lists(value, min_size=h * w, max_size=h * w)), dtype=np.float32
    ).reshape(h, w)
    peak = st.tuples(
        st.integers(0, h - 1), st.integers(0, w - 1), st.sampled_from(LEVELS[1:])
    )
    peaks = {
        role: [
            Peak((r, c), s, role)
            for r, c, s in draw(st.lists(peak, max_size=6, unique_by=lambda p: p[:2]))
        ]
        for role in EXTREME_ROLES
    }
    cfg = GroupingConfig(
        tau_c=draw(st.sampled_from(LEVELS)),
        k2=draw(st.integers(1, 40)),
        center_interp=draw(st.sampled_from(["nearest", "bilinear"])),
    )
    return peaks, center, cfg, draw(st.integers(1, 4))


@settings(max_examples=200)
@given(grouping_cases())
def test_property_sparse_join_equals_dense(case):
    peaks, center, cfg, workers = case
    got = enumerate_quadruples(peaks, center, cfg, workers=workers)
    expected = dense_enumerate(peaks, center, cfg, workers)
    assert [bits(d) for d in got] == [bits(d) for d in expected]


# --- peak extraction --------------------------------------------------------------


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_window_max_matches_dense_oracle(kernel):
    rng = np.random.default_rng(60 + kernel)
    for _ in range(200):
        grid = random_peak_grid(rng)
        got = grouping._window_max(grid, kernel)
        assert got.dtype == grid.dtype
        assert got.tobytes() == dense_window_max(grid, kernel).tobytes()


@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_extract_peaks_matches_dense_oracle(kernel):
    rng = np.random.default_rng(70 + kernel)
    found = 0
    for _ in range(200):
        grid = random_peak_grid(rng)
        finite = grid[np.isfinite(grid)]
        if finite.size and rng.random() < 0.5:
            tau_e = float(rng.choice(finite[finite <= 1.0]))  # strict > at a value
        else:
            tau_e = float(rng.uniform(0.0, 0.5))
        k1 = int(rng.integers(1, 30)) if rng.random() < 0.5 else 100000
        cfg = GroupingConfig(tau_e=tau_e, k1=k1, kernel=kernel)
        got = extract_peaks(grid, cfg, "left")
        assert peak_bits(got) == peak_bits(dense_extract_peaks(grid, cfg, "left"))
        assert all(type(p.cell[0]) is int and type(p.score) is float for p in got)
        found += len(got)
    assert found > 500


def test_nan_cell_suppresses_its_window_as_before():
    grid = np.zeros((5, 5), dtype=np.float32)
    grid[1, 1] = 0.9
    grid[2, 2] = np.nan
    grid[4, 4] = 0.8
    cfg = GroupingConfig()
    assert extract_peaks(grid, cfg, "top") == dense_extract_peaks(grid, cfg, "top")
    assert [p.cell for p in extract_peaks(grid, cfg, "top")] == [(4, 4)]
