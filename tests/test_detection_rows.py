"""Row-array refine, un-flip and Soft-NMS against the per-detection loops
they replaced, bit for bit, plus the staged grouping/fusion call chain
against ``detect`` and ``fuse_tta``.

The three oracles below are the per-row implementations, copied without
change except that they build each ``Detection`` from its extremes through
``from_extremes``; ``sort_key`` is the tree-based tie order Soft-NMS used,
copied verbatim. Outputs are compared by value and by ``float.hex`` of every
coordinate and score: an oracle passes numpy scalars through where the row
code returns Python floats, so reprs may differ while the values agree.
"""

import math
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from recistkit import fusion, grouping
from recistkit.dataio import detection_to_dict, read_detections, write_detections
from recistkit.fusion import SoftNmsConfig, fuse_tta
from recistkit.geometry import (
    ExtremePoints,
    Point2,
    bbox_from_extremes,
    flip_horizontal,
    iou,
)
from recistkit.grouping import (
    Detection,
    GroupingConfig,
    Peaks,
    detect,
    enumerate_quadruples,
    extract_peaks,
)
from recistkit.synthetic import (
    DegradationConfig,
    flip_scene,
    generate_scene,
    simulate_heatmaps,
)
from recistkit.targets import EXTREME_ROLES
from tests.test_grouping import make_peaks

# --- oracles: the per-detection implementations -----------------------------


def from_extremes(extremes: ExtremePoints, score, source) -> Detection:
    """The detection whose row holds ``extremes``, center last."""
    row = tuple(v for p in extremes.points() for v in (p.x, p.y))
    return Detection(row, score, source)


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


def refine_with_offsets(
    detections: Sequence[Detection], offset_maps: np.ndarray, stride: int
) -> list[Detection]:
    """Map grid-cell detections to input pixels using the offset planes.

    Each extreme coordinate becomes stride * (cell + offset-at-cell); the
    center is recomputed from the refined extremes (the center role has no
    offsets) and the box regenerated.
    """
    refined = []
    for det in detections:
        e = det.extremes
        points = {}
        for role_idx, role in enumerate(EXTREME_ROLES):
            p = getattr(e, role)
            row, col = int(p.y), int(p.x)
            dx = float(offset_maps[2 * role_idx][row, col])
            dy = float(offset_maps[2 * role_idx + 1][row, col])
            points[role] = Point2(stride * (col + dx), stride * (row + dy))
        center = Point2(
            (points["left"].x + points["right"].x) / 2.0,
            (points["top"].y + points["bottom"].y) / 2.0,
        )
        extremes = ExtremePoints(
            top=points["top"], left=points["left"],
            bottom=points["bottom"], right=points["right"],
            center=center,
        )
        refined.append(from_extremes(extremes, det.score, det.source))
    return refined


def unflip_detections(
    detections: Sequence[Detection], image_width: float
) -> list[Detection]:
    """Map detections made on a flipped image back to the original frame.

    Geometry mirrors through ``flip_horizontal`` (left and right roles
    swap), scores are untouched, and each detection is tagged as coming
    from the flipped view.
    """
    out = []
    for det in detections:
        extremes = flip_horizontal(det.extremes, image_width)
        out.append(from_extremes(extremes, det.score, "flipped"))
    return out


def soft_nms(
    detections: Sequence[Detection], cfg: SoftNmsConfig = SoftNmsConfig()
) -> list[Detection]:
    """Score-decay non-maximum suppression.

    Repeatedly selects the highest-scoring remaining detection, decays every
    other remaining score according to its overlap with the selection, and
    drops detections once their score falls below the floor. The output
    comes out sorted by final score descending; the top detection's score is
    never changed.
    """
    remaining = [d for d in detections if d.score >= cfg.score_floor]
    out: list[Detection] = []
    while remaining:
        best = min(remaining, key=sort_key)
        remaining.remove(best)
        out.append(best)
        decayed = []
        for det in remaining:
            overlap = iou(best.bbox, det.bbox)
            if cfg.method == "gaussian":
                factor = math.exp(-(overlap * overlap) / cfg.sigma)
            else:
                factor = (1.0 - overlap) if overlap > cfg.linear_iou_threshold else 1.0
            score = det.score * factor
            if score >= cfg.score_floor:
                decayed.append(replace(det, score=score))
        remaining = decayed
    return out


# --- comparison and inputs --------------------------------------------------


def bits(det: Detection) -> tuple:
    """Every coordinate and the score as float.hex, plus the source."""
    coords = [v for p in det.extremes.points() for v in (p.x, p.y)]
    coords += det.bbox.as_tuple()
    return (*(float(v).hex() for v in coords), float(det.score).hex(), det.source)


def assert_same(new, old: list, kind=grouping.Detections) -> None:
    """``new``, a stage function's record unless ``kind`` says otherwise,
    equals ``old`` by value and bit for bit."""
    assert isinstance(new, kind)
    assert new == old  # by value: dataclass fields compare as numbers
    assert [bits(d) for d in new] == [bits(d) for d in old]


def lattice(rng, size, lo, hi):
    return np.floor(rng.uniform(lo, hi, size=size) * 16) / 16


def random_pool(rng, n, span=120.0):
    """1/16-px lattice detections with tied scores, duplicate and zero-area
    boxes, and both sources."""
    score_levels = lattice(rng, 6, 0.0, 6.0)
    dets = []
    for i in range(n):
        if dets and rng.uniform() < 0.2:  # a duplicate, rescored or reshaped
            twin = dets[int(rng.integers(len(dets)))]
            kind = rng.uniform()
            if kind < 0.33:
                twin = replace(twin, score=float(rng.choice(score_levels)))
            elif kind < 0.67:  # same box and score, other edge points
                e = twin.extremes
                twin = from_extremes(replace(
                    e, top=Point2(e.left.x, e.top.y),
                    bottom=Point2(e.right.x, e.bottom.y),
                ), twin.score, twin.source)
            dets.append(twin)
            continue
        x1, y1 = lattice(rng, 2, 0.0, span)
        w, h = lattice(rng, 2, 0.0, span / 3)
        if rng.uniform() < 0.1:
            w = 0.0
        if rng.uniform() < 0.1:
            h = 0.0
        x2, y2 = x1 + w, y1 + h
        tx, bx = lattice(rng, 2, x1, x2 + 1 / 32)
        ly, ry = lattice(rng, 2, y1, y2 + 1 / 32)
        extremes = ExtremePoints(
            top=Point2(float(min(tx, x2)), float(y1)),
            left=Point2(float(x1), float(min(ly, y2))),
            bottom=Point2(float(min(bx, x2)), float(y2)),
            right=Point2(float(x2), float(min(ry, y2))),
            center=Point2(float((x1 + x2) / 2), float((y1 + y2) / 2)),
        )
        score = float(rng.choice(score_levels)) if i % 3 else float(rng.uniform(0, 6))
        dets.append(
            from_extremes(
                extremes, score, "flipped" if rng.uniform() < 0.5 else "original"
            )
        )
    return dets


CONFIGS = [
    SoftNmsConfig(),
    SoftNmsConfig(method="linear"),
    SoftNmsConfig(method="linear", linear_iou_threshold=0.0),
    SoftNmsConfig(sigma=0.05),
    SoftNmsConfig(score_floor=0.0),
]
CONFIG_IDS = ["default", "linear", "linear-thr0", "sigma0.05", "floor0"]
POOL_SIZES = [0, 1, 2, 7, 50, 300]


def noisy_views(seed):
    """Both views of one scene under the benchmark's noisy degradation."""
    scene = generate_scene(3, image_size=(768, 768), seed=seed)
    return [
        simulate_heatmaps(
            view,
            DegradationConfig(
                noise_sigma=0.05, peak_drop_prob=0.1, spurious_rate=2.0,
                jitter_cells=1, seed=seed + v,
            ),
            4,
        )
        for v, view in enumerate((scene, flip_scene(scene)))
    ]


@pytest.fixture(scope="module")
def noisy_pools():
    pools = []
    for seed in (0, 2):
        original, flipped = (detect(b, workers=1) for b in noisy_views(seed))
        pools.append(original + unflip_detections(flipped, 768))
    return pools


# --- tests ------------------------------------------------------------------


class TestSoftNmsOracle:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("n", POOL_SIZES)
    def test_random_pools_bitwise(self, n, cfg):
        for seed in range(3 if n < 300 else 1):
            pool = random_pool(np.random.default_rng(1000 * n + seed), n)
            assert_same(fusion.soft_nms(pool, cfg), soft_nms(pool, cfg))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
    def test_noisy_pools_bitwise(self, cfg, noisy_pools):
        for pool in noisy_pools:
            assert len(pool) >= 150
            assert_same(fusion.soft_nms(pool, cfg), soft_nms(pool, cfg))

    def test_pool_order_irrelevant(self):
        pool = random_pool(np.random.default_rng(7), 50)
        shuffled = [pool[i] for i in np.random.default_rng(8).permutation(50)]
        assert_same(fusion.soft_nms(shuffled), soft_nms(pool))

    def test_numpy_scalar_scores(self):
        pool = [
            replace(d, score=np.float64(d.score))
            for d in random_pool(np.random.default_rng(9), 20)
        ]
        assert_same(fusion.soft_nms(pool), soft_nms(pool))

    @pytest.mark.parametrize("cfg", CONFIGS[:2], ids=CONFIG_IDS[:2])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_small_pools_with_tied_scores(self, n, cfg):
        # a clean image's pool sizes, every score tied, so the tie order
        # alone picks each selection; every other pool repeats one box
        rng = np.random.default_rng(30 + n)
        for trial in range(20):
            pool = random_pool(rng, n)
            if trial % 2 and n > 1:
                pool[-1] = replace(pool[0], source=pool[-1].source)
            pool = [replace(d, score=1.5) for d in pool]
            assert_same(fusion.soft_nms(pool, cfg), soft_nms(pool, cfg))

    @pytest.mark.parametrize("cfg", CONFIGS[:2], ids=CONFIG_IDS[:2])
    def test_exact_duplicate_boxes(self, cfg):
        # each box four times: twice as is, once from the other view and
        # once at half the score; copies overlap with IoU 1, or 0 at zero area
        twins = []
        for d in random_pool(np.random.default_rng(11), 15):
            other = "original" if d.source == "flipped" else "flipped"
            twins += [d, d, replace(d, source=other), replace(d, score=d.score / 2)]
        pool = [twins[i] for i in np.random.default_rng(12).permutation(len(twins))]
        assert_same(fusion.soft_nms(pool, cfg), soft_nms(pool, cfg))


class TestUnflipOracle:
    @pytest.mark.parametrize("width", [768, 511.5, 97])
    @pytest.mark.parametrize("n", POOL_SIZES)
    def test_random_pools_bitwise(self, n, width):
        pool = random_pool(np.random.default_rng(n), n)
        assert_same(
            fusion.unflip_detections(pool, width), unflip_detections(pool, width)
        )

    def test_numpy_scalar_scores(self):
        pool = [
            replace(d, score=np.float64(d.score))
            for d in random_pool(np.random.default_rng(3), 10)
        ]
        assert_same(fusion.unflip_detections(pool, 768), unflip_detections(pool, 768))


class TestRefineOracle:
    @pytest.mark.parametrize("stride", [1, 4, 8])
    def test_random_grid_detections_bitwise(self, stride):
        rng = np.random.default_rng(stride)
        grid = 24
        for trial in range(5):
            peaks = {
                role: make_peaks(role, list(zip(
                    rng.integers(grid, size=6), rng.integers(grid, size=6),
                    rng.uniform(0.1, 1.0, size=6),
                )))
                for role in EXTREME_ROLES
            }
            center = rng.uniform(0, 1, (grid, grid)).astype(np.float32)
            offsets = rng.uniform(0, 1, (8, grid, grid)).astype(np.float32)
            candidates = enumerate_quadruples(peaks, center, GroupingConfig())
            if trial % 2:
                candidates = [
                    replace(d, source="flipped", score=np.float64(d.score))
                    for d in candidates
                ]
            assert candidates or trial
            assert_same(
                grouping.refine_with_offsets(candidates, offsets, stride),
                refine_with_offsets(candidates, offsets, stride),
            )

    def test_noisy_bundle_bitwise(self):
        bundle = noisy_views(4)[0]
        cfg = GroupingConfig()
        peaks = {
            role: extract_peaks(bundle.keypoint_map(role), cfg, role)
            for role in EXTREME_ROLES
        }
        candidates = enumerate_quadruples(peaks, bundle.keypoint_map("center"), cfg)
        assert len(candidates) == cfg.k2
        assert_same(
            grouping.refine_with_offsets(candidates, bundle.offset_maps, 4),
            refine_with_offsets(candidates, bundle.offset_maps, 4),
        )


class TestStagedChain:
    """The stage-by-stage calls a traced benchmark run makes reproduce
    ``detect`` and ``fuse_tta``."""

    def test_stages_match_detect_and_fuse_tta(self):
        cfg = GroupingConfig()
        views = noisy_views(6)
        staged = []
        for bundle in views:
            peaks = {
                role: extract_peaks(bundle.keypoint_map(role), cfg, role)
                for role in EXTREME_ROLES
            }
            assert all(isinstance(p, Peaks) for p in peaks.values())
            assert [len(p) for p in peaks.values()] == [cfg.k1] * len(EXTREME_ROLES)
            candidates = enumerate_quadruples(
                peaks, bundle.keypoint_map("center"), cfg, workers=1
            )
            assert isinstance(candidates, grouping.Detections)
            refined = grouping.refine_with_offsets(
                candidates, bundle.offset_maps, bundle.stride
            )
            assert isinstance(refined, grouping.Detections)
            assert [detection_to_dict(d) for d in refined] == [
                detection_to_dict(d) for d in detect(bundle, cfg, workers=1)
            ]
            staged.append(refined)

        original, flipped = staged
        unflipped = fusion.unflip_detections(flipped, 768)
        assert isinstance(unflipped, grouping.Detections)
        pooled = list(original) + unflipped  # the traced benchmark's idiom
        assert isinstance(pooled, list)
        assert len(pooled) == len(original) + len(unflipped)
        fused = fusion.soft_nms(pooled, SoftNmsConfig())
        assert isinstance(fused, grouping.Detections)
        assert len(fused) > 0
        assert [detection_to_dict(d) for d in fused] == [
            detection_to_dict(d) for d in fuse_tta(original, flipped, 768)
        ]


class TestRowViews:
    """Each detection's box is the tight box of its extremes, and rows
    round-trip through the array form unchanged."""

    @staticmethod
    def assert_row_views(dets):
        assert dets
        for d in dets:
            assert d.bbox == bbox_from_extremes(d.extremes)
        back = list(grouping.Detections(
            [d.row for d in dets], [d.score for d in dets],
            [d.source == "flipped" for d in dets],
        ))
        assert_same(back, dets, list)

    def test_detect_read_detections_and_fuse_tta(self, tmp_path):
        original, flipped = (detect(b) for b in noisy_views(8))
        self.assert_row_views(original)
        self.assert_row_views(fuse_tta(original, flipped, 768))
        path = tmp_path / "dets.json"
        write_detections({"a": original, "b": flipped}, path)
        back, _ = read_detections(path)
        self.assert_row_views(back["a"] + back["b"])
        assert_same(back["a"] + back["b"], original + flipped, list)
