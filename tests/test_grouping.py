"""Grouping pipeline: peak extraction and quadruple enumeration against
independent brute-force oracles, refinement round trips, and determinism."""

import math

import numpy as np
import pytest

from recistkit.grouping import (
    Detection,
    Detections,
    GroupingConfig,
    Peaks,
    detect,
    enumerate_quadruples,
    extract_peaks,
    refine_with_offsets,
)
from recistkit.synthetic import generate_scene, simulate_heatmaps
from recistkit.targets import EXTREME_ROLES, HeatmapBundle
from tests.test_fusion import sub_record


def naive_peaks(grid: np.ndarray, tau: float, kernel: int = 3):
    """Per-cell neighborhood scan: the definition, written the slow way."""
    h, w = grid.shape
    half = kernel // 2
    out = []
    for r in range(h):
        for c in range(w):
            window = grid[
                max(0, r - half) : min(h, r + half + 1),
                max(0, c - half) : min(w, c + half + 1),
            ]
            if grid[r, c] == window.max() and grid[r, c] > tau:
                out.append(((r, c), float(grid[r, c])))
    out.sort(key=lambda item: (-item[1], item[0][0], item[0][1]))
    return out


def make_peaks(role: str, triples) -> Peaks:
    """The ``Peaks`` record of (row, col, score) triples, in their order."""
    return Peaks(role, np.array(triples, dtype=np.float64).reshape(-1, 3).T)


def peak_tuples(peaks: Peaks):
    """((row, col), score) per peak, as Python ints and floats."""
    rows, cols, scores = peaks.array.tolist()
    return [((int(r), int(c)), s) for r, c, s in zip(rows, cols, scores)]


def exhaustive_quadruples(peaks_by_role, center_map, tau_c):
    """Nested-loop enumerator with the documented contract, no truncation.

    Scores use the same fixed float64 association the contract states:
    (s_t + s_b) + (s_l + s_r) + 2 * s_c.
    """
    top, left, bottom, right = (
        peak_tuples(peaks_by_role[role]) for role in ("top", "left", "bottom", "right")
    )
    results = []
    for t, t_score in top:
        for l, l_score in left:
            for b, b_score in bottom:
                for r, r_score in right:
                    if t[0] > b[0] or l[1] > r[1]:
                        continue
                    crow = (t[0] + b[0]) * 0.5
                    ccol = (l[1] + r[1]) * 0.5
                    cell_r = math.floor(crow + 0.5)
                    cell_c = math.floor(ccol + 0.5)
                    cscore = float(center_map[cell_r, cell_c])
                    if not cscore > tau_c:
                        continue
                    score = (t_score + b_score) + (l_score + r_score) + 2.0 * cscore
                    results.append((score, t, l, b, r, (ccol, crow)))
    results.sort(key=lambda item: (-item[0],) + item[1:5])
    return results


def detection_tuple(det: Detection):
    """The score, the (row, col) cell of top, left, bottom and right, and the
    (x, y) center."""
    r = det.row
    cells = tuple((int(r[i + 1]), int(r[i])) for i in range(0, 8, 2))
    return (det.score, *cells, (r[8], r[9]))


def random_peak_bundle(rng, grid=24, n_per_role=6, tau_e=0.1):
    """Random peaks per role plus a random center map, for oracle comparisons."""
    peaks = {}
    for role in EXTREME_ROLES:
        n = int(rng.integers(1, n_per_role + 1))
        cells = rng.choice(grid * grid, size=n, replace=False)
        peaks[role] = make_peaks(
            role,
            [(c // grid, c % grid, rng.uniform(tau_e + 1e-6, 1.0)) for c in cells],
        )
    center = rng.uniform(0.0, 1.0, size=(grid, grid)).astype(np.float32)
    # sparsify so the center test actually filters
    center[rng.random((grid, grid)) < 0.5] = 0.0
    return peaks, center


class TestExtractPeaks:
    def test_single_peak(self):
        grid = np.zeros((5, 5), dtype=np.float32)
        grid[2, 3] = 0.9
        peaks = extract_peaks(grid, GroupingConfig(), "top")
        assert isinstance(peaks, Peaks)
        assert len(peaks) == 1
        ((cell, score),) = peak_tuples(peaks)
        assert cell == (2, 3)
        assert score == pytest.approx(0.9)
        assert peaks.role == "top"

    def test_all_below_threshold_empty(self):
        grid = np.full((5, 5), 0.1, dtype=np.float32)  # exactly tau: excluded
        peaks = extract_peaks(grid, GroupingConfig(), "top")
        assert len(peaks) == 0 and peaks.array.shape == (3, 0)

    def test_matches_naive_scan_random(self):
        rng = np.random.default_rng(30)
        cfg = GroupingConfig(k1=1000)
        for _ in range(50):
            grid = rng.uniform(0, 1, size=(16, 16)).astype(np.float32)
            got = peak_tuples(extract_peaks(grid, cfg, "top"))
            assert got == naive_peaks(grid, cfg.tau_e)

    def test_plateau_cells_all_qualify(self):
        grid = np.zeros((5, 5), dtype=np.float32)
        grid[2, 2] = grid[2, 3] = 0.7
        peaks = extract_peaks(grid, GroupingConfig(), "top")
        assert {cell for cell, _ in peak_tuples(peaks)} == {(2, 2), (2, 3)}

    def test_truncation_tie_break_row_then_col(self):
        grid = np.full((8, 8), 0.5, dtype=np.float32)  # all cells tie
        peaks = extract_peaks(grid, GroupingConfig(k1=10), "top")
        assert [cell for cell, _ in peak_tuples(peaks)] == [
            (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 0), (1, 1),
        ]

    def test_border_cells_use_inbounds_window(self):
        grid = np.zeros((4, 4), dtype=np.float32)
        grid[0, 0] = 0.8
        peaks = extract_peaks(grid, GroupingConfig(), "top")
        assert peak_tuples(peaks)[0][0] == (0, 0)

    def test_kernel_five(self):
        grid = np.zeros((7, 7), dtype=np.float32)
        grid[3, 3] = 0.9
        grid[3, 5] = 0.8  # within the 5x5 window of (3,3): suppressed
        cfg = GroupingConfig(kernel=5)
        got = peak_tuples(extract_peaks(grid, cfg, "top"))
        assert [cell for cell, _ in got] == [(3, 3)]
        assert got == naive_peaks(grid, cfg.tau_e, kernel=5)


class TestEnumerateQuadruples:
    def test_score_arithmetic_example(self):
        center = np.zeros((10, 10), dtype=np.float32)
        center[5, 5] = 0.5
        peaks = {
            "top": make_peaks("top", [(2, 5, 0.9)]),
            "left": make_peaks("left", [(5, 2, 0.8)]),
            "bottom": make_peaks("bottom", [(8, 5, 0.7)]),
            "right": make_peaks("right", [(5, 8, 0.6)]),
        }
        dets = enumerate_quadruples(peaks, center, GroupingConfig())
        assert len(dets) == 1
        assert dets.scores[0] == pytest.approx(0.9 + 0.8 + 0.7 + 0.6 + 2 * 0.5)

    # equal scores at a k2 = 1 cut: the top row decides, then the top
    # column, then the left row and column; tops are listed largest first,
    # so the input order would pick the other candidate
    @pytest.mark.parametrize("tops,lefts,centers,kept", [
        # one top row: the top column decides
        ([(2, 9), (2, 5)], [(5, 1)], [(5, 5)], (5, 2, 1, 5)),
        # only (top 2, left col 2) and (top 3, left col 1) pass: the top row
        # decides before any left coordinate
        ([(3, 5), (2, 5)], [(5, 2), (5, 1)], [(5, 6), (6, 5)], (5, 2, 2, 5)),
    ], ids=["top col", "top row before left col"])
    def test_tied_cut_keeps_the_smallest_cells(self, tops, lefts, centers, kept):
        center = np.zeros((10, 10), dtype=np.float32)
        for cell in centers:
            center[cell] = 0.5
        peaks = {
            "top": make_peaks("top", [(r, c, 1.0) for r, c in tops]),
            "left": make_peaks("left", [(r, c, 1.0) for r, c in lefts]),
            "bottom": make_peaks("bottom", [(8, 5, 1.0)]),
            "right": make_peaks("right", [(5, 9, 1.0)]),
        }
        every = enumerate_quadruples(peaks, center, GroupingConfig(k2=10))
        assert len(every) == 2 and len(set(every.scores.tolist())) == 1
        dets = enumerate_quadruples(peaks, center, GroupingConfig(k2=1))
        assert len(dets) == 1
        assert tuple(dets.rows[0, :4].tolist()) == kept  # top (x, y), left (x, y)

    def test_center_score_at_threshold_rejected(self):
        center = np.zeros((10, 10), dtype=np.float32)
        center[5, 5] = np.float32(0.1)  # exactly tau_c: strict inequality
        peaks = {
            "top": make_peaks("top", [(2, 5, 0.9)]),
            "left": make_peaks("left", [(5, 2, 0.8)]),
            "bottom": make_peaks("bottom", [(8, 5, 0.7)]),
            "right": make_peaks("right", [(5, 8, 0.6)]),
        }
        cfg = GroupingConfig(tau_c=float(np.float32(0.1)))
        assert list(enumerate_quadruples(peaks, center, cfg)) == []

    def test_invalid_order_rejected(self):
        center = np.ones((10, 10), dtype=np.float32)
        peaks = {
            "top": make_peaks("top", [(8, 5, 0.9)]),  # below the bottom peak
            "left": make_peaks("left", [(5, 2, 0.8)]),
            "bottom": make_peaks("bottom", [(2, 5, 0.7)]),
            "right": make_peaks("right", [(5, 8, 0.6)]),
        }
        assert list(enumerate_quadruples(peaks, center, GroupingConfig())) == []

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(31)
        cfg = GroupingConfig(k2=2000)  # no truncation for <= 6^4 candidates
        for _ in range(100):
            peaks, center = random_peak_bundle(rng)
            got = [detection_tuple(d) for d in enumerate_quadruples(peaks, center, cfg)]
            expected = exhaustive_quadruples(peaks, center, cfg.tau_c)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g[0] == e[0]  # float-exact score
                assert g[1:5] == e[1:5]
                assert g[5] == e[5]

    def test_top_k2_truncation_matches_oracle_prefix(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            peaks, center = random_peak_bundle(rng)
            cfg = GroupingConfig(k2=10)
            got = [detection_tuple(d)[:5] for d in enumerate_quadruples(peaks, center, cfg)]
            expected = [e[:5] for e in exhaustive_quadruples(peaks, center, cfg.tau_c)][:10]
            assert got == expected

    def test_empty_role_gives_empty_output(self):
        center = np.ones((4, 4), dtype=np.float32)
        peaks = {role: make_peaks(role, []) for role in EXTREME_ROLES}
        assert list(enumerate_quadruples(peaks, center, GroupingConfig())) == []

    def test_permutation_of_peak_lists_irrelevant(self):
        rng = np.random.default_rng(33)
        peaks, center = random_peak_bundle(rng)
        cfg = GroupingConfig()
        base = enumerate_quadruples(peaks, center, cfg)
        shuffled = {
            role: Peaks(role, p.array[:, rng.permutation(len(p))])
            for role, p in peaks.items()
        }
        assert enumerate_quadruples(shuffled, center, cfg) == base

    def test_monotone_in_thresholds_without_truncation(self):
        rng = np.random.default_rng(35)
        for _ in range(30):
            peaks, center = random_peak_bundle(rng)
            cfg_lo = GroupingConfig(tau_c=0.1, k2=100000)
            cfg_hi = GroupingConfig(tau_c=0.3, k2=100000)
            lo = {detection_tuple(d)[:5] for d in enumerate_quadruples(peaks, center, cfg_lo)}
            hi = {detection_tuple(d)[:5] for d in enumerate_quadruples(peaks, center, cfg_hi)}
            assert hi <= lo

    def test_lower_k2_is_prefix(self):
        rng = np.random.default_rng(36)
        peaks, center = random_peak_bundle(rng)
        big = enumerate_quadruples(peaks, center, GroupingConfig(k2=50))
        small = enumerate_quadruples(peaks, center, GroupingConfig(k2=5))
        assert small == sub_record(big, np.s_[:5])

    def test_lower_k1_never_adds_detections(self):
        # peak lists are deterministic prefixes, so with non-binding k2 a
        # smaller k1 can only shrink the detection set
        rng = np.random.default_rng(37)
        for _ in range(20):
            grids = {
                role: rng.uniform(0, 1, size=(24, 24)).astype(np.float32)
                for role in EXTREME_ROLES
            }
            center = rng.uniform(0, 1, size=(24, 24)).astype(np.float32)
            dets = {}
            for k1 in (3, 8):
                cfg = GroupingConfig(k1=k1, k2=100000)
                peaks = {
                    role: extract_peaks(grids[role], cfg, role)
                    for role in EXTREME_ROLES
                }
                dets[k1] = {
                    detection_tuple(d)[:5]
                    for d in enumerate_quadruples(peaks, center, cfg)
                }
            assert dets[3] <= dets[8]


class TestRefineWithOffsets:
    def test_zero_offsets_scale_by_stride(self):
        offsets = np.zeros((8, 10, 10), dtype=np.float32)
        det = Detection(_grid_row((2, 5), (5, 2), (8, 5), (5, 8)), 4.0, "original")
        [refined] = refine_with_offsets(Detections.of([det]), offsets, 4)
        assert refined.row[0:4] == (20, 8, 8, 20)  # top (x, y), left (x, y)

    def test_offset_example(self):
        offsets = np.zeros((8, 10, 10), dtype=np.float32)
        offsets[0, 1, 2] = 0.5   # top dx at cell (row 1, col 2)
        offsets[1, 1, 2] = 0.75  # top dy
        det = Detection(_grid_row((1, 2), (5, 0), (9, 2), (5, 4)), 4.0, "original")
        [refined] = refine_with_offsets(Detections.of([det]), offsets, 4)
        assert refined.row[0:2] == (10, 7)  # top (x, y)

    def test_round_trip_with_exact_target_offsets(self):
        scene = generate_scene(2, seed=40)
        dets = detect(simulate_heatmaps(scene))
        recovered = {(d.row[0], d.row[1], d.row[6]) for d in dets}
        expected = {
            (e.top.x, e.top.y, e.right.x) for e in scene.extremes()
        }
        assert recovered == expected


def extreme_row(e) -> tuple[float, ...]:
    """The detection row of extreme points ``e``, center last."""
    return tuple(v for p in e for v in p)


def _grid_row(t, l, b, r):
    """The detection row of (row, col) cells for top, left, bottom, right."""
    return tuple(float(v) for v in (
        t[1], t[0], l[1], l[0], b[1], b[0], r[1], r[0],
        (l[1] + r[1]) / 2, (t[0] + b[0]) / 2,
    ))


class TestDetect:
    def test_round_trip_single_aligned_annotation_scores_six(self):
        # cell-aligned geometry: the center lookup lands exactly on the
        # rendered center cell, so all five responses read 1.0
        from recistkit.targets import render_targets
        from tests.test_targets import square_extremes

        e = square_extremes(48, 48, 24, 20)
        targets = render_targets([e], 32, 32, 4)
        dets = detect(targets.bundle)
        [d] = dets
        assert d.score == 6.0
        assert d.row[:8] == extreme_row(e)[:8]

    def test_round_trip_single_random_annotation_exact_coords(self):
        scene = generate_scene(1, seed=41)
        dets = detect(simulate_heatmaps(scene))
        [d] = dets
        e = scene.extremes()[0]
        assert d.score > 4.0  # four exact extremes plus a positive center
        assert d.row[:8] == extreme_row(e)[:8]

    def test_empty_bundle(self):
        bundle = HeatmapBundle.zeros(16, 16, 4, (64, 64))
        assert list(detect(bundle)) == []

    def test_two_separated_annotations(self):
        from recistkit.geometry import pad_bbox
        from tests.test_fusion import box_of
        from tests.test_geometry import iou

        scene = generate_scene(2, seed=42)
        dets = detect(simulate_heatmaps(scene))
        assert len(dets) == 2
        for e in scene.extremes():
            gt_padded = pad_bbox((e.left.x, e.top.y, e.right.x, e.bottom.y), 5)
            assert any(iou(pad_bbox(box_of(d), 5), gt_padded) == 1.0 for d in dets)

    def test_detection_invariants(self):
        scene = generate_scene(3, seed=43)
        dets = detect(simulate_heatmaps(scene))
        for d in dets:
            assert 0.0 <= d.score <= 6.0
            top_y, left_x, bottom_y, right_x = d.row[1], d.row[2], d.row[5], d.row[6]
            assert top_y <= bottom_y
            assert left_x <= right_x
            assert d.source == "original"

    def test_scores_sorted_descending(self):
        scene = generate_scene(4, seed=44)
        dets = detect(simulate_heatmaps(scene))
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)
