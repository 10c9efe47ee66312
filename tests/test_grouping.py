"""Grouping pipeline: peak extraction and quadruple enumeration against
independent brute-force oracles, refinement round trips, and determinism."""

import math

import numpy as np
import pytest

from recistkit.grouping import (
    Detection,
    GroupingConfig,
    Peak,
    detect,
    enumerate_quadruples,
    extract_peaks,
    refine_with_offsets,
)
from recistkit.synthetic import generate_scene, render_scene
from recistkit.targets import EXTREME_ROLES, HeatmapBundle


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


def exhaustive_quadruples(peaks_by_role, center_map, tau_c):
    """Nested-loop enumerator with the documented contract, no truncation.

    Scores use the same fixed float64 association the contract states:
    (s_t + s_b) + (s_l + s_r) + 2 * s_c.
    """
    results = []
    for t in peaks_by_role["top"]:
        for l in peaks_by_role["left"]:
            for b in peaks_by_role["bottom"]:
                for r in peaks_by_role["right"]:
                    if t.cell[0] > b.cell[0] or l.cell[1] > r.cell[1]:
                        continue
                    crow = (t.cell[0] + b.cell[0]) * 0.5
                    ccol = (l.cell[1] + r.cell[1]) * 0.5
                    cell_r = math.floor(crow + 0.5)
                    cell_c = math.floor(ccol + 0.5)
                    cscore = float(center_map[cell_r, cell_c])
                    if not cscore > tau_c:
                        continue
                    score = (t.score + b.score) + (l.score + r.score) + 2.0 * cscore
                    results.append(
                        (score, t.cell, l.cell, b.cell, r.cell, (ccol, crow))
                    )
    results.sort(key=lambda item: (-item[0],) + item[1:5])
    return results


def detection_tuple(det: Detection):
    e = det.extremes
    return (
        det.score,
        (int(e.top.y), int(e.top.x)),
        (int(e.left.y), int(e.left.x)),
        (int(e.bottom.y), int(e.bottom.x)),
        (int(e.right.y), int(e.right.x)),
        (e.center.x, e.center.y),
    )


def random_peak_bundle(rng, grid=24, n_per_role=6, tau_e=0.1):
    """Random peak lists plus a random center map, for oracle comparisons."""
    peaks = {}
    for role in EXTREME_ROLES:
        n = int(rng.integers(1, n_per_role + 1))
        cells = rng.choice(grid * grid, size=n, replace=False)
        peaks[role] = [
            Peak(
                cell=(int(c // grid), int(c % grid)),
                score=float(rng.uniform(tau_e + 1e-6, 1.0)),
                role=role,
            )
            for c in cells
        ]
    center = rng.uniform(0.0, 1.0, size=(grid, grid)).astype(np.float32)
    # sparsify so the center test actually filters
    center[rng.random((grid, grid)) < 0.5] = 0.0
    return peaks, center


class TestExtractPeaks:
    def test_single_peak(self):
        grid = np.zeros((5, 5), dtype=np.float32)
        grid[2, 3] = 0.9
        peaks = extract_peaks(grid, GroupingConfig(), "top")
        assert len(peaks) == 1
        assert peaks[0].cell == (2, 3)
        assert peaks[0].score == pytest.approx(0.9)
        assert peaks[0].role == "top"

    def test_all_below_threshold_empty(self):
        grid = np.full((5, 5), 0.1, dtype=np.float32)  # exactly tau: excluded
        assert extract_peaks(grid, GroupingConfig(), "top") == []

    def test_matches_naive_scan_random(self):
        rng = np.random.default_rng(30)
        cfg = GroupingConfig(k1=1000)
        for _ in range(50):
            grid = rng.uniform(0, 1, size=(16, 16)).astype(np.float32)
            got = [(p.cell, p.score) for p in extract_peaks(grid, cfg, "top")]
            assert got == naive_peaks(grid, cfg.tau_e)

    def test_plateau_cells_all_qualify(self):
        grid = np.zeros((5, 5), dtype=np.float32)
        grid[2, 2] = grid[2, 3] = 0.7
        cells = {p.cell for p in extract_peaks(grid, GroupingConfig(), "top")}
        assert cells == {(2, 2), (2, 3)}

    def test_truncation_tie_break_row_then_col(self):
        grid = np.full((8, 8), 0.5, dtype=np.float32)  # all cells tie
        peaks = extract_peaks(grid, GroupingConfig(k1=10), "top")
        assert [p.cell for p in peaks] == [
            (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
            (1, 0), (1, 1),
        ]

    def test_border_cells_use_inbounds_window(self):
        grid = np.zeros((4, 4), dtype=np.float32)
        grid[0, 0] = 0.8
        assert extract_peaks(grid, GroupingConfig(), "top")[0].cell == (0, 0)

    def test_kernel_five(self):
        grid = np.zeros((7, 7), dtype=np.float32)
        grid[3, 3] = 0.9
        grid[3, 5] = 0.8  # within the 5x5 window of (3,3): suppressed
        cfg = GroupingConfig(kernel=5)
        cells = [p.cell for p in extract_peaks(grid, cfg, "top")]
        assert cells == [(3, 3)]
        got = [(p.cell, p.score) for p in extract_peaks(grid, cfg, "top")]
        assert got == naive_peaks(grid, cfg.tau_e, kernel=5)


class TestEnumerateQuadruples:
    def test_score_arithmetic_example(self):
        center = np.zeros((10, 10), dtype=np.float32)
        center[5, 5] = 0.5
        peaks = {
            "top": [Peak((2, 5), 0.9, "top")],
            "left": [Peak((5, 2), 0.8, "left")],
            "bottom": [Peak((8, 5), 0.7, "bottom")],
            "right": [Peak((5, 8), 0.6, "right")],
        }
        dets = enumerate_quadruples(peaks, center, GroupingConfig())
        assert len(dets) == 1
        assert dets[0].score == pytest.approx(0.9 + 0.8 + 0.7 + 0.6 + 2 * 0.5)

    def test_center_score_at_threshold_rejected(self):
        center = np.zeros((10, 10), dtype=np.float32)
        center[5, 5] = np.float32(0.1)  # exactly tau_c: strict inequality
        peaks = {
            "top": [Peak((2, 5), 0.9, "top")],
            "left": [Peak((5, 2), 0.8, "left")],
            "bottom": [Peak((8, 5), 0.7, "bottom")],
            "right": [Peak((5, 8), 0.6, "right")],
        }
        cfg = GroupingConfig(tau_c=float(np.float32(0.1)))
        assert enumerate_quadruples(peaks, center, cfg) == []

    def test_invalid_order_rejected(self):
        center = np.ones((10, 10), dtype=np.float32)
        peaks = {
            "top": [Peak((8, 5), 0.9, "top")],  # below the bottom peak
            "left": [Peak((5, 2), 0.8, "left")],
            "bottom": [Peak((2, 5), 0.7, "bottom")],
            "right": [Peak((5, 8), 0.6, "right")],
        }
        assert enumerate_quadruples(peaks, center, GroupingConfig()) == []

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
        peaks = {"top": [], "left": [], "bottom": [], "right": []}
        assert enumerate_quadruples(peaks, center, GroupingConfig()) == []

    def test_permutation_of_peak_lists_irrelevant(self):
        rng = np.random.default_rng(33)
        peaks, center = random_peak_bundle(rng)
        cfg = GroupingConfig()
        base = enumerate_quadruples(peaks, center, cfg)
        shuffled = {
            role: list(rng.permutation(np.array(plist, dtype=object)))
            for role, plist in peaks.items()
        }
        assert enumerate_quadruples(shuffled, center, cfg) == base

    def test_workers_bit_identical(self):
        rng = np.random.default_rng(34)
        peaks, center = random_peak_bundle(rng, grid=32, n_per_role=12)
        cfg = GroupingConfig()
        sequential = enumerate_quadruples(peaks, center, cfg, workers=1)
        for workers in (2, 3, 8):
            assert enumerate_quadruples(peaks, center, cfg, workers=workers) == sequential

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
        assert small == big[:5]

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
        det = Detection(row=_grid_row((2, 5), (5, 2), (8, 5), (5, 8)), score=4.0)
        refined = refine_with_offsets([det], offsets, 4)[0]
        assert (refined.extremes.top.x, refined.extremes.top.y) == (20, 8)
        assert (refined.extremes.left.x, refined.extremes.left.y) == (8, 20)

    def test_offset_example(self):
        offsets = np.zeros((8, 10, 10), dtype=np.float32)
        offsets[0, 1, 2] = 0.5   # top dx at cell (row 1, col 2)
        offsets[1, 1, 2] = 0.75  # top dy
        det = Detection(row=_grid_row((1, 2), (5, 0), (9, 2), (5, 4)), score=4.0)
        refined = refine_with_offsets([det], offsets, 4)[0]
        assert (refined.extremes.top.x, refined.extremes.top.y) == (10, 7)

    def test_round_trip_with_exact_target_offsets(self):
        scene = generate_scene(2, seed=40)
        targets = render_scene(scene)
        dets = detect(targets.bundle)
        recovered = {
            (d.extremes.top.x, d.extremes.top.y, d.extremes.right.x) for d in dets
        }
        expected = {
            (e.top.x, e.top.y, e.right.x) for e in scene.extremes()
        }
        assert recovered == expected


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
        assert len(dets) == 1
        d = dets[0]
        assert d.score == 6.0
        assert d.extremes.top == e.top
        assert d.extremes.left == e.left
        assert d.extremes.bottom == e.bottom
        assert d.extremes.right == e.right
        assert d.bbox.as_tuple() == (e.left.x, e.top.y, e.right.x, e.bottom.y)

    def test_round_trip_single_random_annotation_exact_coords(self):
        scene = generate_scene(1, seed=41)
        targets = render_scene(scene)
        dets = detect(targets.bundle)
        assert len(dets) == 1
        e = scene.extremes()[0]
        d = dets[0]
        assert d.score > 4.0  # four exact extremes plus a positive center
        assert d.extremes.top == e.top
        assert d.extremes.left == e.left
        assert d.extremes.bottom == e.bottom
        assert d.extremes.right == e.right
        assert d.bbox.as_tuple() == (e.left.x, e.top.y, e.right.x, e.bottom.y)

    def test_empty_bundle(self):
        bundle = HeatmapBundle.zeros(16, 16, 4, (64, 64))
        assert detect(bundle) == []

    def test_two_separated_annotations(self):
        from recistkit.geometry import bbox_from_extremes, iou, pad_bbox

        scene = generate_scene(2, seed=42)
        targets = render_scene(scene)
        dets = detect(targets.bundle)
        assert len(dets) == 2
        for e in scene.extremes():
            gt_padded = pad_bbox(bbox_from_extremes(e), 5)
            assert any(iou(pad_bbox(d.bbox, 5), gt_padded) == 1.0 for d in dets)

    def test_detection_invariants(self):
        scene = generate_scene(3, seed=43)
        dets = detect(render_scene(scene).bundle)
        for d in dets:
            assert 0.0 <= d.score <= 6.0
            e = d.extremes
            assert e.top.y <= e.bottom.y
            assert e.left.x <= e.right.x
            assert d.bbox.as_tuple() == (e.left.x, e.top.y, e.right.x, e.bottom.y)
            assert d.source == "original"

    def test_scores_sorted_descending(self):
        scene = generate_scene(4, seed=44)
        dets = detect(render_scene(scene).bundle)
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)
