"""Geometric grouping: heatmap bundle in, scored candidate detections out.

Three steps: per-role local-peak extraction, brute-force association of one
peak per extreme role validated by the center-map response at the
quadruple's geometric center, and sub-cell refinement from the offset
planes. Enumeration is vectorized over (top, bottom) x (left, right) pair
blocks; the detection score is computed as

    (s_top + s_bottom) + (s_left + s_right) + 2 * s_center

with exactly that float64 association, so results are bit-reproducible and
independent of how the work is partitioned across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .geometry import BBox, ExtremePoints, Point2, bbox_from_extremes
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


@dataclass(frozen=True, slots=True)
class Detection:
    """One grouped quadruple with its combination score.

    From :func:`enumerate_quadruples` the coordinates are output-grid cells;
    after :func:`refine_with_offsets` they are input pixels. ``bbox`` is the
    tight (unpadded) box of the extremes. ``source`` records test-time
    augmentation provenance.
    """

    extremes: ExtremePoints
    score: float
    bbox: BBox
    source: Literal["original", "flipped"] = "original"


def sort_key(det: Detection):
    """Total order: score desc, then geometry, then source.

    Deterministic regardless of list order, which makes pooled and
    partitioned pipelines reproduce sequential output exactly.
    """
    e = det.extremes
    return (
        -det.score,
        det.bbox.x1, det.bbox.y1, det.bbox.x2, det.bbox.y2,
        det.source,
        e.top.x, e.top.y, e.left.x, e.left.y,
        e.bottom.x, e.bottom.y, e.right.x, e.right.y,
    )


def detections_to_rows(detections: Sequence[Detection]) -> np.ndarray:
    """(n, 10) float64 rows: (x, y) of top, left, bottom, right, center."""
    return np.array(
        [[v for p in d.extremes.points() for v in (p.x, p.y)] for d in detections],
        dtype=np.float64,
    ).reshape(len(detections), 10)


def detections_from_rows(
    rows: np.ndarray, scores: Sequence[float], sources: Sequence[str]
) -> list[Detection]:
    """Detections from :func:`detections_to_rows` rows, scores and sources,
    with Python floats and each box the tight box of its extremes."""
    out = []
    for (tx, ty, lx, ly, bx, by, rx, ry, cx, cy), score, source in zip(
        rows.tolist(), np.asarray(scores, dtype=np.float64).tolist(), sources
    ):
        extremes = ExtremePoints(
            Point2(tx, ty), Point2(lx, ly), Point2(bx, by), Point2(rx, ry),
            Point2(cx, cy),
        )
        out.append(Detection(extremes, score, bbox_from_extremes(extremes), source))
    return out


def _window_max(grid: np.ndarray, kernel: int) -> np.ndarray:
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


def extract_peaks(
    heatmap: np.ndarray, cfg: GroupingConfig, role: str
) -> list[Peak]:
    """Local peaks of one map: neighborhood-max cells scoring above tau_e.

    A cell qualifies when it equals the maximum of its window (plateau cells
    all qualify) and its score strictly exceeds the threshold. Results are
    ordered by score descending, ties by row then column ascending, and
    truncated to ``k1``.
    """
    win = _window_max(heatmap, cfg.kernel)
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


@dataclass
class _PairBlock:
    """Candidate arrays for one (top, bottom) x (left, right) block."""

    scores: np.ndarray
    rows: np.ndarray  # (n, 10) detection rows, in grid cells


def _enumerate_block(top, bottom, left, right, center_map, cfg) -> _PairBlock | None:
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
        # block-local prune; ties at the cut are kept so the cross-block
        # merge still sees every candidate the global top-k2 could select
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


def _select_top_k2(blocks: list[_PairBlock], k2: int) -> _PairBlock | None:
    """Deterministic top-k2 across blocks: score desc, then cells ascending."""
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
    if any(arrays[role][0].size == 0 for role in EXTREME_ROLES):
        return []

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

    top = _select_top_k2(blocks, cfg.k2)
    if top is None:
        return []
    return detections_from_rows(top.rows, top.scores, ["original"] * len(top.rows))


def refine_with_offsets(
    detections: Sequence[Detection], offset_maps: np.ndarray, stride: int
) -> list[Detection]:
    """Map grid-cell detections to input pixels using the offset planes.

    Each extreme coordinate becomes stride * (cell + offset-at-cell); the
    center is recomputed from the refined extremes (the center role has no
    offsets) and the box regenerated.
    """
    rows = detections_to_rows(detections)
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
    peaks = {
        role: extract_peaks(bundle.keypoint_map(role), cfg, role)
        for role in EXTREME_ROLES
    }
    candidates = enumerate_quadruples(
        peaks, bundle.keypoint_map("center"), cfg, workers=workers
    )
    return refine_with_offsets(candidates, bundle.offset_maps, bundle.stride)
