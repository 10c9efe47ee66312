"""Geometric grouping: heatmap bundle in, scored candidate detections out.

Three steps: per-role local-peak extraction, brute-force association of one
peak per extreme role validated by the center-map response at the
quadruple's geometric center, and sub-cell refinement from the offset
planes. The center row depends only on the (top, bottom) pair and the
center column only on the (left, right) pair, so enumeration samples the
center map once per distinct center row and column and scores only the
pairs whose center passes; the detection score is computed as

    (s_top + s_bottom) + (s_left + s_right) + 2 * s_center

with exactly that float64 association, so results are bit-reproducible and
independent of how the work is partitioned across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .geometry import BBox, ExtremePoints, Point2
from .targets import EXTREME_ROLES, HeatmapBundle

Cell = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Peak:
    """One retained local maximum of a keypoint map."""

    cell: Cell  # (row, col)
    score: float
    role: str


@dataclass(frozen=True, slots=True)
class GroupingConfig:
    """Thresholds and caps for the grouping pipeline.

    ``tau_e``/``tau_c`` are strict lower bounds on extreme / center scores,
    ``k1`` caps peaks kept per map, ``k2`` caps retained combinations, and
    ``kernel`` is the odd window size for peak suppression. ``center_interp``
    selects how the center map is sampled at fractional coordinates.
    """

    tau_e: float = 0.1
    tau_c: float = 0.1
    k1: int = 40
    k2: int = 100
    kernel: int = 3
    center_interp: Literal["nearest", "bilinear"] = "nearest"

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau_e <= 1.0 or not 0.0 <= self.tau_c <= 1.0:
            raise ValueError("thresholds must lie in [0, 1]")
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be >= 1")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.center_interp not in ("nearest", "bilinear"):
            raise ValueError(f"unknown center_interp {self.center_interp!r}")


# the (x1, y1, x2, y2) columns of a detection row: left x, top y, right x, bottom y
BOX_COLUMNS = [2, 1, 6, 5]


@dataclass(frozen=True, slots=True)
class Detection:
    """One grouped quadruple with its combination score.

    ``row`` holds ten floats: the (x, y) of the top, left, bottom and right
    extremes and of the center, the layout of :func:`detections_to_rows`.
    From :func:`enumerate_quadruples` the coordinates are output-grid cells;
    after :func:`refine_with_offsets` they are input pixels. ``source``
    records test-time augmentation provenance.
    """

    row: tuple[float, ...]
    score: float
    source: Literal["original", "flipped"] = "original"

    @property
    def extremes(self) -> ExtremePoints:
        r = self.row
        return ExtremePoints(*(Point2(r[i], r[i + 1]) for i in range(0, 10, 2)))

    @property
    def bbox(self) -> BBox:
        """The tight (unpadded) box of the extremes."""
        return BBox(*(self.row[i] for i in BOX_COLUMNS))


def detections_to_rows(detections: Sequence[Detection]) -> np.ndarray:
    """(n, 10) float64 rows: (x, y) of top, left, bottom, right, center."""
    rows = np.array([d.row for d in detections], dtype=np.float64)
    return rows.reshape(len(detections), 10)


def detections_from_rows(
    rows: np.ndarray, scores: Sequence[float], sources: Sequence[str]
) -> list[Detection]:
    """Detections from :func:`detections_to_rows` rows, scores and sources,
    with Python floats."""
    scores = np.asarray(scores, dtype=np.float64).tolist()
    return list(map(Detection, map(tuple, rows.tolist()), scores, sources))


def _window_max(grid: np.ndarray, kernel: int) -> np.ndarray:
    """Max of the kernel x kernel neighborhood, borders use in-bounds cells.

    Separable: a running max along each row, then along each column. NaN
    propagates through both passes, as through one 2-D window.
    """
    across = grid.copy()
    for d in range(1, kernel // 2 + 1):
        np.maximum(across[:, d:], grid[:, :-d], out=across[:, d:])
        np.maximum(across[:, :-d], grid[:, d:], out=across[:, :-d])
    out = across.copy()
    for d in range(1, kernel // 2 + 1):
        np.maximum(out[d:], across[:-d], out=out[d:])
        np.maximum(out[:-d], across[d:], out=out[:-d])
    return out


def _peak_array(heatmap: np.ndarray, cfg: GroupingConfig) -> np.ndarray:
    """(3, n) float64 rows, columns and scores of one map's kept peaks."""
    mask = (heatmap == _window_max(heatmap, cfg.kernel)) & (heatmap > cfg.tau_e)
    rows, cols = np.divmod(np.flatnonzero(mask), heatmap.shape[1])
    scores = heatmap[rows, cols].astype(np.float64)
    # cells come in row-major order, so a stable sort breaks ties on (row, col)
    order = np.argsort(-scores, kind="stable")[: cfg.k1]
    return np.stack((rows[order], cols[order], scores[order]))


def extract_peaks(
    heatmap: np.ndarray, cfg: GroupingConfig, role: str
) -> list[Peak]:
    """Local peaks of one map: neighborhood-max cells scoring above tau_e.

    A cell qualifies when it equals the maximum of its window (plateau cells
    all qualify) and its score strictly exceeds the threshold. Results are
    ordered by score descending, ties by row then column ascending, and
    truncated to ``k1``.
    """
    rows, cols, scores = _peak_array(heatmap, cfg).tolist()
    return [
        Peak(cell=(int(r), int(c)), score=s, role=role)
        for r, c, s in zip(rows, cols, scores)
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


@dataclass
class _PairBlock:
    """Candidate arrays for one (top, bottom) x (left, right) block."""

    scores: np.ndarray
    rows: np.ndarray  # (n, 10) detection rows, in grid cells


def _runs(values: np.ndarray):
    """(distinct, order, starts, counts): ``order`` is the stable argsort of
    ``values``, and the i-th distinct value, ascending, is at the indices
    ``order[starts[i] : starts[i] + counts[i]]``."""
    order = values.argsort(kind="stable")
    ordered = values[order]
    # bounds: the start of each run, then the end of the last one
    first = np.ones(ordered.size + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:-1])
    bounds = first.nonzero()[0]
    starts = bounds[:-1]
    return ordered[starts], order, starts, bounds[1:] - starts


def _enumerate_block(top, bottom, left, right, center_map, cfg) -> _PairBlock | None:
    """Sparse enumeration over one block of (t, b) pairs.

    Each role's peaks come as a (3, n) array of rows, columns and scores.
    The center row depends only on the (t, b) pair and the center column
    only on the (l, r) pair, so the center map is sampled once on the table
    of distinct center rows x distinct center columns (with ``nearest``, of
    distinct rounded rows x rounded columns). Only the table cells
    above ``tau_c`` are expanded into their (t, b) x (l, r) pairs and scored.
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
        # key the table by the cell each center rounds to, so a half-integer
        # center shares its row or column with the whole one that reaches
        # the same cell; the sampler's own rounding then changes nothing
        u_row, tb_order, tb_start, tb_count = _runs(np.floor(crow + 0.5))
        u_col, lr_order, lr_start, lr_count = _runs(np.floor(ccol + 0.5))
        table = _center_scores_nearest(center_map, u_row, u_col)
    else:
        u_row, tb_order, tb_start, tb_count = _runs(crow)
        u_col, lr_order, lr_start, lr_count = _runs(ccol)
        table = _center_scores_bilinear(center_map, u_row, u_col)
    kr, kc = np.nonzero(table > cfg.tau_c)
    if kr.size == 0:
        return None

    # cell j covers tb_count[kr[j]] x lr_count[kc[j]] pairs, laid out
    # (t, b)-major; `local` is a pair's position within its cell
    width = lr_count[kc]
    sizes = tb_count[kr] * width
    cell = np.arange(kr.size).repeat(sizes)
    local = np.arange(cell.size) - (sizes.cumsum() - sizes).repeat(sizes)
    tb_off, lr_off = np.divmod(local, width[cell])
    tb = tb_order[tb_start[kr][cell] + tb_off]
    lr = lr_order[lr_start[kc][cell] + lr_off]

    s_tb = t_scores[ti] + b_scores[bi]
    s_lr = l_scores[li] + r_scores[ri]
    scores = (s_tb[tb] + s_lr[lr]) + 2.0 * table[kr, kc][cell]
    if scores.size > cfg.k2:
        # block-local prune; ties at the cut are kept so the cross-block
        # merge still sees every candidate the global top-k2 could select
        cut = np.partition(scores, scores.size - cfg.k2)[scores.size - cfg.k2]
        kept = scores >= cut
        scores, tb, lr = scores[kept], tb[kept], lr[kept]

    tk, bk = ti[tb], bi[tb]
    lk, rk = li[lr], ri[lr]
    rows = np.column_stack(
        (
            t_cols[tk], t_rows[tk], l_cols[lk], l_rows[lk],
            b_cols[bk], b_rows[bk], r_cols[rk], r_rows[rk],
            ccol[lr], crow[tb],
        )
    )
    return _PairBlock(scores=scores, rows=rows)


def _select_top_k2(blocks: list[_PairBlock], k2: int) -> _PairBlock | None:
    """Deterministic top-k2 across blocks: score desc, then cells ascending.

    The cell tuple orders distinct candidates totally and the cut keeps
    ties, so the result does not depend on the order blocks list them in.
    """
    blocks = [b for b in blocks if b is not None]
    if not blocks:
        return None
    scores = np.concatenate([b.scores for b in blocks])
    rows = np.concatenate([b.rows for b in blocks])

    if scores.size > k2:
        # prune on score alone first, keeping everything tied at the cut
        cut = np.partition(scores, scores.size - k2)[scores.size - k2]
        keep = scores >= cut
        scores, rows = scores[keep], rows[keep]

    # primary key last: -score, then (row, col) of top, left, bottom, right
    order = np.lexsort((*rows[:, [6, 7, 4, 5, 2, 3, 0, 1]].T, -scores))[:k2]
    return _PairBlock(scores[order], rows[order])


def _enumerate_rows(
    arrays: Mapping[str, np.ndarray],
    center_map: np.ndarray,
    cfg: GroupingConfig,
    workers: int = 1,
) -> _PairBlock | None:
    """The top ``k2`` scores and grid-cell detection rows for each role's
    (3, n) peak array; see :func:`enumerate_quadruples`."""
    if any(arrays[role].shape[1] == 0 for role in EXTREME_ROLES):
        return None

    n_tops = arrays["top"].shape[1]
    n_chunks = max(1, min(workers, n_tops))

    def run_chunk(lo: int, hi: int) -> _PairBlock | None:
        return _enumerate_block(
            arrays["top"][:, lo:hi], arrays["bottom"], arrays["left"],
            arrays["right"], center_map, cfg,
        )

    if n_chunks == 1:
        blocks = [run_chunk(0, n_tops)]
    else:
        chunk_bounds = np.linspace(0, n_tops, n_chunks + 1).astype(int)
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            futures = [
                pool.submit(run_chunk, int(lo), int(hi))
                for lo, hi in zip(chunk_bounds[:-1], chunk_bounds[1:])
                if hi > lo
            ]
            blocks = [f.result() for f in futures]
    return _select_top_k2(blocks, cfg.k2)


def enumerate_quadruples(
    peaks_by_role: Mapping[str, Sequence[Peak]],
    center_map: np.ndarray,
    cfg: GroupingConfig,
    workers: int = 1,
) -> list[Detection]:
    """Associate one peak per extreme role into scored detections.

    A quadruple is kept when its ordering is geometrically coherent
    (top row <= bottom row, left column <= right column) and the center map
    responds strictly above ``tau_c`` at the quadruple's geometric center.
    The top ``k2`` combinations by score survive, ties broken on the cell
    tuple. Coordinates in the result are output-grid cells.

    ``workers`` > 1 partitions the (top, bottom) pair space; the merged
    result is bit-identical to the sequential one.
    """
    arrays = {
        role: np.array(
            [(*p.cell, p.score) for p in peaks_by_role.get(role, [])],
            dtype=np.float64,
        ).reshape(-1, 3).T
        for role in EXTREME_ROLES
    }
    top = _enumerate_rows(arrays, center_map, cfg, workers)
    if top is None:
        return []
    return detections_from_rows(top.rows, top.scores, ["original"] * len(top.rows))


def _refine_rows(rows: np.ndarray, offset_maps: np.ndarray, stride: int) -> np.ndarray:
    """Grid-cell detection rows to input-pixel rows; see
    :func:`refine_with_offsets`."""
    col = rows[:, 0:8:2].astype(np.intp)  # one column per extreme role
    row = rows[:, 1:8:2].astype(np.intp)
    dx_plane = 2 * np.arange(len(EXTREME_ROLES))
    dx = offset_maps[dx_plane, row, col].astype(np.float64)
    dy = offset_maps[dx_plane + 1, row, col].astype(np.float64)
    refined = np.empty_like(rows)
    refined[:, 0:8:2] = stride * (col + dx)
    refined[:, 1:8:2] = stride * (row + dy)
    refined[:, 8] = (refined[:, 2] + refined[:, 6]) / 2.0
    refined[:, 9] = (refined[:, 1] + refined[:, 5]) / 2.0
    return refined


def refine_with_offsets(
    detections: Sequence[Detection], offset_maps: np.ndarray, stride: int
) -> list[Detection]:
    """Map grid-cell detections to input pixels using the offset planes.

    Each extreme coordinate becomes stride * (cell + offset-at-cell); the
    center is recomputed from the refined extremes (the center role has no
    offsets).
    """
    refined = _refine_rows(detections_to_rows(detections), offset_maps, stride)
    return detections_from_rows(
        refined, [d.score for d in detections], [d.source for d in detections]
    )


def detect(
    bundle: HeatmapBundle, cfg: GroupingConfig = GroupingConfig(), workers: int = 1
) -> list[Detection]:
    """Full grouping pipeline for one heatmap bundle.

    Extracts peaks per extreme role, enumerates center-validated quadruples,
    and refines coordinates to input pixels. Output is ordered by score
    descending with deterministic tie-breaking.
    """
    arrays = {
        role: _peak_array(bundle.keypoint_map(role), cfg) for role in EXTREME_ROLES
    }
    top = _enumerate_rows(arrays, bundle.keypoint_map("center"), cfg, workers)
    if top is None:
        return []
    refined = _refine_rows(top.rows, bundle.offset_maps, bundle.stride)
    return detections_from_rows(refined, top.scores, ["original"] * len(refined))
