"""Geometric grouping: heatmap bundle in, scored candidate detections out.

Three steps: per-role local-peak extraction, brute-force association of one
peak per extreme role validated by the center-map response at the
quadruple's geometric center, and sub-cell refinement from the offset
planes. The center row depends only on the (top, bottom) pair and the
center column only on the (left, right) pair, so enumeration samples the
center map once per distinct center row and column and scores only the
pairs whose center passes; the detection score is computed as

    (s_top + s_bottom) + (s_left + s_right) + 2 * s_center

with exactly that float64 association, so results are bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .config import GroupingConfig
from .targets import EXTREME_ROLES, HeatmapBundle

# window cells gathered at once in peak extraction, which bounds its memory
_WINDOW_CELLS = 1 << 20


@dataclass(frozen=True, slots=True, eq=False)
class Peaks:
    """One keypoint map's kept peaks: ``array`` is (3, n) float64 rows,
    columns and scores, best first; ``len()`` gives n."""

    role: str
    array: np.ndarray

    def __len__(self) -> int:
        return self.array.shape[1]


# the (x1, y1, x2, y2) columns of a detection row: left x, top y, right x, bottom y
BOX_COLUMNS = [2, 1, 6, 5]

SOURCES = ("original", "flipped")  # a detection's source, by its flipped flag

# the row columns of the cell tie-break key, least significant first:
# right (col, row), bottom, left, top
_CELL_KEYS = np.array([6, 7, 4, 5, 2, 3, 0, 1])


@dataclass(frozen=True, slots=True)
class Detection:
    """One grouped quadruple with its combination score.

    ``row`` holds ten floats: the (x, y) of the top, left, bottom and right
    extremes and of the center, the layout of :attr:`Detections.rows`.
    From :func:`enumerate_quadruples` the coordinates are output-grid cells;
    after :func:`refine_with_offsets` they are input pixels. ``source``
    records test-time augmentation provenance.
    """

    row: tuple[float, ...]
    score: float
    source: Literal["original", "flipped"]


class Detections:
    """One image's detections as arrays: ``rows`` (n, 10) float64, the
    (x, y) of top, left, bottom, right and center; ``scores`` (n,) float64;
    ``flipped`` (n,) bool, True for the flipped view (else TypeError).

    The one type the detection stages take. It has a length, and iterates
    as one :class:`Detection` view per row, built as it is read, with
    Python floats and source ``SOURCES[flipped]``. It does not index: row
    i is ``rows[i]``. Records are equal when their arrays are elementwise
    equal; a record never equals a list.
    ``+`` joins records, or a record and a list, into one record, rows in
    order. Its arrays are shared, not copied: do not write to them.
    """

    __slots__ = ("rows", "scores", "flipped")

    def __init__(self, rows, scores, flipped):
        self.rows = np.asarray(rows, dtype=np.float64).reshape(-1, 10)
        self.scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        # not cast: numpy reads any non-empty string, such as a source, as True
        self.flipped = np.asarray(flipped).reshape(-1)
        if self.flipped.dtype != bool:
            raise TypeError(f"flipped must be bool, got {self.flipped.dtype}")
        if not len(self.rows) == len(self.scores) == len(self.flipped):
            raise ValueError("rows, scores and flipped differ in length")

    @classmethod
    def of(cls, detections: Collection[Detection]) -> Detections:
        """``detections`` itself if it is a record, else its arrays; ValueError
        names the first source not in SOURCES, as ``[i].source``."""
        if isinstance(detections, Detections):
            return detections
        detections = list(detections)  # read once: it may be an iterator
        sources = [d.source for d in detections]
        for i, source in enumerate(sources):
            if source not in SOURCES:
                raise ValueError(
                    f"[{i}].source: expected 'original' or 'flipped', got {source!r}"
                )
        return cls(
            [d.row for d in detections],
            [d.score for d in detections],
            np.array([s == "flipped" for s in sources], dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return map(
            Detection, map(tuple, self.rows.tolist()), self.scores.tolist(),
            map(SOURCES.__getitem__, self.flipped.tolist()),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        return all(map(np.array_equal, self._arrays(), other._arrays()))

    def __add__(self, other) -> Detections:
        pairs = zip(self._arrays(), Detections.of(other)._arrays())
        return Detections(*map(np.concatenate, pairs))

    def __radd__(self, other) -> Detections:
        return Detections.of(other) + self

    def __repr__(self) -> str:
        return f"Detections({list(self)!r})"

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.rows, self.scores, self.flipped


def extract_peaks(heatmap: np.ndarray, cfg: GroupingConfig, role: str) -> Peaks:
    """Local peaks of one map: neighborhood-max cells scoring above tau_e.

    A cell qualifies when it equals the maximum of its ``kernel`` x
    ``kernel`` window, which at the border holds only in-bounds cells
    (plateau cells all qualify), and its score strictly exceeds the
    threshold: the 3 x 3 max-pooling peak rule of ExtremeNet and CenterNet.
    Results are ordered by score descending, ties by row then column
    ascending, and truncated to ``k1``.

    Only cells above the threshold are tested, each against its window by
    ``>=``. That is the same rule: the cell lies in its own window, so it
    equals the window's maximum exactly when no window cell is greater; a
    NaN in the window makes that maximum NaN, which equals nothing, and
    fails ``>=`` just the same; a NaN cell is never above the threshold.
    Window indices are clipped to the grid, which reads the map through an
    edge-replicated pad without building it; a border window then holds
    copies of in-bounds cells only, so no fill value is needed and any
    dtype works. A window reaching past the grid from every cell covers
    the whole grid, so a wider one is cut to that size, and windows are
    gathered a bounded number of cells at a time.
    """
    h, w = heatmap.shape
    flat = heatmap.ravel()
    cells = (flat > cfg.tau_e).nonzero()[0]
    rows, cols = np.divmod(cells, w)
    values = flat[cells]
    half = min(cfg.kernel // 2, max(h, w) - 1)
    reach = np.arange(-half, half + 1)[:, None]
    keep = np.empty(cells.size, dtype=bool)
    step = max(1, _WINDOW_CELLS // reach.size**2)
    for lo in range(0, cells.size, step):
        part = slice(lo, lo + step)
        near_rows = _clamp(rows[part] + reach, h)
        near_rows *= w
        near_cols = _clamp(cols[part] + reach, w)
        # (width, width, m) window cells, this part's candidates along the last axis
        window = flat[near_rows[:, None, :] + near_cols[None, :, :]]
        np.logical_and.reduce(window <= values[part], axis=(0, 1), out=keep[part])
    kept = keep.nonzero()[0]
    scores = values[kept].astype(np.float64)
    # cells come in row-major order, so a stable sort breaks ties on (row, col)
    order = (-scores).argsort(kind="stable")[: cfg.k1]
    kept = kept[order]
    table = np.concatenate((rows[kept], cols[kept], scores[order]))
    return Peaks(role, table.reshape(3, -1))


def _clamp(index: np.ndarray, n: int) -> np.ndarray:
    """``index`` clipped in place to [0, n - 1]; ``np.clip``'s result
    without its Python-level setup."""
    np.maximum(index, 0, out=index)
    return np.minimum(index, n - 1, out=index)


def _center_scores_nearest(
    center_map: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """The map at the cells given as whole-number float rows and columns,
    clipped to the grid."""
    h, w = center_map.shape
    r = _clamp(rows.astype(np.intp), h)
    c = _clamp(cols.astype(np.intp), w)
    return center_map[r[:, None], c].astype(np.float64)


def _center_scores_bilinear(
    center_map: np.ndarray, crow: np.ndarray, ccol: np.ndarray
) -> np.ndarray:
    """Bilinear interpolation of the center map at fractional coordinates."""
    h, w = center_map.shape
    r0 = _clamp(np.floor(crow).astype(np.intp), h)
    c0 = _clamp(np.floor(ccol).astype(np.intp), w)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (crow - r0)[:, None]
    fc = (ccol - c0)[None, :]
    m = center_map.astype(np.float64)
    top = m[r0[:, None], c0[None, :]] * (1 - fc) + m[r0[:, None], c1[None, :]] * fc
    bot = m[r1[:, None], c0[None, :]] * (1 - fc) + m[r1[:, None], c1[None, :]] * fc
    return top * (1 - fr) + bot * fr


def _runs(values: np.ndarray):
    """(distinct, order, starts, counts): ``order`` is the stable argsort of
    ``values``, and the i-th distinct value, ascending, is at the indices
    ``order[starts[i] : starts[i] + counts[i]]``."""
    order = values.argsort(kind="stable")
    ordered = values[order]
    # bounds: the start of each run, then the end of the last one
    first = np.empty(ordered.size + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:-1])
    bounds = first.nonzero()[0]
    starts = bounds[:-1]
    return ordered[starts], order, starts, bounds[1:] - starts


def _enumerate_block(top, bottom, left, right, center_map, cfg):
    """Sparse enumeration over one image's peaks: the candidates' scores
    and (n, 10) grid-cell detection rows, or None when none passes.

    Each role's peaks come as a (3, n) array of rows, columns and scores.
    The center row depends only on the (t, b) pair and the center column
    only on the (l, r) pair, so the center map is sampled once on the table
    of distinct center rows x distinct center columns (with ``nearest``, of
    distinct rounded rows x rounded columns). Only the table cells
    above ``tau_c`` are expanded into their (t, b) x (l, r) pairs and scored.
    """
    # indexed, not unpacked: unpacking an array iterates it to the end
    t_rows, t_scores = top[0], top[2]
    b_rows, b_scores = bottom[0], bottom[2]
    l_cols, l_scores = left[1], left[2]
    r_cols, r_scores = right[1], right[2]
    ti, bi = (t_rows[:, None] <= b_rows).nonzero()
    li, ri = (l_cols[:, None] <= r_cols).nonzero()
    if ti.size == 0 or li.size == 0:
        return None

    crow = (t_rows[ti] + b_rows[bi]) * 0.5
    ccol = (l_cols[li] + r_cols[ri]) * 0.5
    if cfg.center_interp == "nearest":
        # key the table by the cell each center rounds to, halves up, so a
        # half-integer center shares its row or column with the whole one
        # that reaches the same cell
        u_row, tb_order, tb_start, tb_count = _runs(np.floor(crow + 0.5))
        u_col, lr_order, lr_start, lr_count = _runs(np.floor(ccol + 0.5))
        table = _center_scores_nearest(center_map, u_row, u_col)
    else:
        u_row, tb_order, tb_start, tb_count = _runs(crow)
        u_col, lr_order, lr_start, lr_count = _runs(ccol)
        table = _center_scores_bilinear(center_map, u_row, u_col)
    kr, kc = (table > cfg.tau_c).nonzero()
    if kr.size == 0:
        return None

    # cell j covers tb_count[kr[j]] x lr_count[kc[j]] pairs, laid out
    # (t, b)-major; `local` is a pair's position within its cell
    width = lr_count[kc]
    sizes = tb_count[kr] * width
    ends = sizes.cumsum()
    local = np.arange(ends[-1]) - (ends - sizes).repeat(sizes)
    tb_off, lr_off = np.divmod(local, width.repeat(sizes))
    tb = tb_order[tb_start[kr].repeat(sizes) + tb_off]
    lr = lr_order[lr_start[kc].repeat(sizes) + lr_off]

    s_tb = t_scores[ti] + b_scores[bi]
    s_lr = l_scores[li] + r_scores[ri]
    scores = (s_tb[tb] + s_lr[lr]) + 2.0 * table[kr, kc].repeat(sizes)
    if scores.size > cfg.k2:
        # ties at the cut are kept: the cell tie-break in _select_top_k2
        # decides which of them survive
        cut = np.partition(scores, scores.size - cfg.k2)[scores.size - cfg.k2]
        kept = scores >= cut
        scores, tb, lr = scores[kept], tb[kept], lr[kept]

    # each role's (col, row) of every candidate, then the center's
    columns = (
        top[1::-1, ti[tb]], left[1::-1, li[lr]], bottom[1::-1, bi[tb]],
        right[1::-1, ri[lr]], ccol[lr][None], crow[tb][None],
    )
    return scores, np.concatenate(columns).T


def _select_top_k2(block, k2: int) -> Detections:
    """Deterministic top-k2 of one ``(scores, rows)`` block, or of None:
    score desc, then cells ascending, an order that is total on distinct
    candidates."""
    if block is None:
        return Detections.of(())
    scores, rows = block
    # primary key last: -score, then (row, col) of top, left, bottom, right
    keys = rows.take(_CELL_KEYS, axis=1).T
    order = np.lexsort((*keys, -scores))[:k2]
    return Detections(rows[order], scores[order], np.zeros(order.size, dtype=bool))


def enumerate_quadruples(
    peaks_by_role: Mapping[str, Peaks],
    center_map: np.ndarray,
    cfg: GroupingConfig,
    workers: int = 1,
) -> Detections:
    """Associate one peak per extreme role into scored detections.

    A quadruple is kept when its ordering is geometrically coherent
    (top row <= bottom row, left column <= right column) and the center map
    responds strictly above ``tau_c`` at the quadruple's geometric center.
    The top ``k2`` combinations by score survive, ties broken on the cell
    tuple. Coordinates in the result are output-grid cells.

    ``workers`` must be 1; ``recistkit detect --workers`` runs images in
    parallel.
    """
    if workers != 1:
        raise ValueError(
            f"workers must be 1, got {workers!r}: one image is grouped on one "
            "thread; run images in parallel with `recistkit detect --workers`"
        )
    top, left, bottom, right = (peaks_by_role[role].array for role in EXTREME_ROLES)
    block = _enumerate_block(top, bottom, left, right, center_map, cfg)
    return _select_top_k2(block, cfg.k2)


def refine_with_offsets(
    detections: Detections, offset_maps: np.ndarray, stride: int
) -> Detections:
    """Map grid-cell detections to input pixels using the offset planes.

    Each extreme coordinate becomes stride * (cell + offset-at-cell); the
    center is recomputed from the refined extremes (the center role has no
    offsets).
    """
    cells = detections.rows[:, :8].astype(np.intp)  # (x, y) per extreme role
    # row column k's fraction is on offset plane k, at its extreme's cell
    col, row = cells[:, 0::2].repeat(2, axis=1), cells[:, 1::2].repeat(2, axis=1)
    fraction = offset_maps[np.arange(8), row, col].astype(np.float64)
    refined = np.empty_like(detections.rows)
    np.multiply(stride, cells + fraction, out=refined[:, :8])
    # the center x from the left and right x, its y from the top and bottom y
    refined[:, 8:] = (refined[:, [2, 1]] + refined[:, [6, 5]]) / 2.0
    return Detections(refined, detections.scores, detections.flipped)


def detect(
    bundle: HeatmapBundle, cfg: GroupingConfig = GroupingConfig(), workers: int = 1
) -> Detections:
    """Full grouping pipeline for one heatmap bundle: :func:`extract_peaks`
    per extreme role, :func:`enumerate_quadruples` and
    :func:`refine_with_offsets` in turn. Output is ordered by score
    descending with deterministic tie-breaking. ``workers`` must be 1.
    """
    peaks = {
        role: extract_peaks(bundle.keypoint_map(role), cfg, role)
        for role in EXTREME_ROLES
    }
    candidates = enumerate_quadruples(peaks, bundle.keypoint_map("center"), cfg, workers)
    return refine_with_offsets(candidates, bundle.offset_maps, bundle.stride)
