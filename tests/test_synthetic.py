"""Synthetic simulator: seeded determinism, the zero-degradation identity,
packing guarantees, and degradation semantics."""

import math
import re

import numpy as np
import pytest

from recistkit import synthetic
from recistkit.config import GroupingConfig, RenderConfig
from recistkit.grouping import BOX_COLUMNS, detect
from recistkit.rng import SplitMix64
from recistkit.synthetic import (
    DegradationConfig,
    _axis_gaps,
    flip_scene,
    generate_scene,
    simulate_heatmaps,
)
from recistkit.targets import keypoint_cell, output_grid, render_targets


def tight_box(e):
    """The box spanned by the extremes ``e``."""
    return (e.left.x, e.top.y, e.right.x, e.bottom.y)


def diameter_lengths(ann):
    """The long and the short diameter's lengths, from the endpoints."""
    ax, ay, bx, by, cx, cy, dx, dy = ann.endpoints
    return math.hypot(ax - bx, ay - by), math.hypot(cx - dx, cy - dy)


class TestSplitMix64:
    def test_reference_sequence_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_scalar_and_vector_streams_identical(self):
        a = SplitMix64(0xDEADBEEF)
        b = SplitMix64(0xDEADBEEF)
        scalars = [a.uniform() for _ in range(17)]
        assert scalars == list(b.uniforms(17))

    def test_uniform_range_and_determinism(self):
        rng = SplitMix64(123)
        vals = rng.uniforms(10000)
        assert (vals >= 0).all() and (vals < 1).all()
        assert abs(vals.mean() - 0.5) < 0.02
        assert list(SplitMix64(123).uniforms(10000)) == list(vals)

    def test_poisson_zero_rate(self):
        rng = SplitMix64(11)
        assert rng.poisson(0.0) == 0

    def test_poisson_mean(self):
        rng = SplitMix64(13)
        counts = [rng.poisson(2.0) for _ in range(5000)]
        assert abs(np.mean(counts) - 2.0) < 0.1


class TestGenerateScene:
    def test_empty_scene(self):
        scene = generate_scene(0, seed=1)
        assert scene.annotations == []

    def test_same_seed_identical(self):
        a = generate_scene(4, seed=5)
        b = generate_scene(4, seed=5)
        assert a.annotations == b.annotations

    def test_different_seeds_differ(self):
        a = generate_scene(3, seed=5)
        b = generate_scene(3, seed=6)
        assert a.annotations != b.annotations

    def test_three_lesions_at_512_with_gaps(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_MIN_GAP", 16.0)
        scene = generate_scene(3, image_size=(512, 512), seed=8)
        assert len(scene.annotations) == 3
        boxes = [ann.bbox for ann in scene.annotations]
        for i in range(3):
            for j in range(i + 1, 3):
                assert min(_axis_gaps(boxes[i], boxes[j])) >= 16.0

    def test_keypoints_inside_image(self):
        scene = generate_scene(5, seed=9)
        w, h = scene.image_size
        for ann in scene.annotations:
            for p in ann.extremes():
                assert 0 <= p.x <= w - 1
                assert 0 <= p.y <= h - 1

    def test_long_at_least_short(self):
        for seed in range(20):
            scene = generate_scene(2, seed=seed)
            for ann in scene.annotations:
                long_length, short_length = diameter_lengths(ann)
                assert long_length >= short_length

    def test_infeasible_packing_raises(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_MAX_RESTARTS", 3)
        # the padded boxes need 314 of 359 px, so only the restart loop refuses
        with pytest.raises(ValueError, match="after 3 arrangement attempts"):
            generate_scene(5, image_size=(360, 360), seed=0)

    def test_unplaceable_scene_fails_before_drawing(self, monkeypatch):
        # two padded boxes of >= 50 px plus a 16 px gap need 116 px per axis
        def no_draws(self, n=1):
            raise AssertionError("drew random numbers for an unplaceable scene")

        # generate_scene draws with uniform(), one scalar at a time
        monkeypatch.setattr(SplitMix64, "uniform", no_draws)
        monkeypatch.setattr(SplitMix64, "uniforms", no_draws)
        with pytest.raises(ValueError, match="could not place"):
            generate_scene(2, image_size=(64, 64))
        with pytest.raises(ValueError, match="could not place"):
            generate_scene(40, image_size=(256, 256))
        # grouping keeps at most k2 quadruples, so no arrangement could pass
        with pytest.raises(ValueError, match=re.escape(
            "grouping.k2 2 keeps fewer quadruples than the 3 lesion(s) to place"
        )):
            generate_scene(3, grouping=GroupingConfig(k2=2))
        # nor when it keeps fewer peaks per map, or none of a clean rendering
        with pytest.raises(ValueError, match=re.escape(
            "grouping.k1 2 keeps fewer peaks per map than the 3 lesion(s) to place"
        )):
            generate_scene(3, grouping=GroupingConfig(k1=2))
        with pytest.raises(ValueError, match=re.escape(
            "grouping.tau_e 1 keeps no clean peak: one scores exactly 1.0"
        )):
            generate_scene(3, grouping=GroupingConfig(tau_e=1.0))

    def test_k2_of_n_lesions_is_enough(self):
        scene = generate_scene(3, seed=4, grouping=GroupingConfig(k2=3))
        assert scene.annotations == generate_scene(3, seed=4).annotations

    @pytest.mark.parametrize("grouping", [
        GroupingConfig(k1=3), GroupingConfig(tau_e=0.99),
    ], ids=["k1 3", "tau_e 0.99"])
    def test_k1_of_n_lesions_and_tau_e_below_1_are_enough(self, grouping):
        # the clearance check hands grouping the true cells at score 1.0, so
        # neither key changes the arrangement; a clean rendering decodes
        scene = generate_scene(3, seed=4, grouping=grouping)
        assert scene.annotations == generate_scene(3, seed=4).annotations
        found = detect(simulate_heatmaps(scene), grouping)
        assert sorted(found.rows[:, BOX_COLUMNS].tolist()) == sorted(
            list(tight_box(e)) for e in scene.extremes()
        )

    def test_no_lesion_is_placed_under_any_tau_e(self):
        scene = generate_scene(0, grouping=GroupingConfig(tau_e=1.0, k1=1))
        assert scene.annotations == []

    @pytest.mark.parametrize("center_interp", ["nearest", "bilinear"])
    def test_clean_scene_decodes_to_itself_with_its_grouping(self, center_interp):
        # the clearance check enumerates with the whole grouping section, as
        # detect does; with tau_c alone, 8 of these 60 bilinear scenes
        # decoded to extra quadruples
        grouping = GroupingConfig(center_interp=center_interp)
        for n_lesions in (3, 5):
            for seed in range(30):
                scene = generate_scene(n_lesions, seed=seed, grouping=grouping)
                found = detect(simulate_heatmaps(scene), grouping)
                assert sorted(found.rows[:, BOX_COLUMNS].tolist()) == sorted(
                    list(tight_box(e)) for e in scene.extremes()
                ), (n_lesions, seed)

    def test_clearance_check_takes_both_sections_whole(self, monkeypatch):
        render = RenderConfig(stride=8, min_overlap=0.5, sigma_divisor=2.0)
        grouping = GroupingConfig(tau_c=0.3, center_interp="bilinear")
        checked = []

        def check(extremes, image_size, *sections):
            checked.append(sections)
            return True

        monkeypatch.setattr(synthetic, "_decodes_to_itself", check)
        generate_scene(2, seed=3, render=render, grouping=grouping)
        assert checked == [(render, grouping)]

    def test_provided_bbox_is_padded_tight_box(self):
        from recistkit.geometry import pad_bbox

        scene = generate_scene(3, seed=11)
        for ann in scene.annotations:
            derived = pad_bbox(tight_box(ann.extremes()), 5.0)
            assert derived == ann.bbox


class TestFlipScene:
    def test_flip_is_involution(self):
        scene = generate_scene(3, seed=12)
        back = flip_scene(flip_scene(scene))
        assert back.annotations == scene.annotations

    def test_flip_preserves_lengths(self):
        scene = generate_scene(2, seed=13)
        flipped = flip_scene(scene)
        for a, f in zip(scene.annotations, flipped.annotations):
            assert diameter_lengths(f)[0] == pytest.approx(diameter_lengths(a)[0])
            assert f.diameters_px == a.diameters_px


class TestSimulateHeatmaps:
    def test_zero_degradation_bitwise_identity(self):
        for seed in (0, 3, 14):
            scene = generate_scene(3, seed=seed)
            clean = render_targets(
                scene.extremes(), *output_grid(scene.image_size, 4), 4,
                input_size=scene.image_size,
            ).bundle
            simulated = simulate_heatmaps(scene, DegradationConfig(seed=seed))
            assert np.array_equal(
                simulated.keypoint_maps.view(np.uint32),
                clean.keypoint_maps.view(np.uint32),
            )
            assert np.array_equal(
                simulated.offset_maps.view(np.uint32),
                clean.offset_maps.view(np.uint32),
            )

    def test_fixed_seed_bitwise_identical_bundles(self):
        scene = generate_scene(2, seed=15)
        cfg = DegradationConfig(
            noise_sigma=0.1, peak_drop_prob=0.3, spurious_rate=2.0,
            jitter_cells=2, seed=99,
        )
        a = simulate_heatmaps(scene, cfg)
        b = simulate_heatmaps(scene, cfg)
        assert np.array_equal(a.keypoint_maps.view(np.uint32),
                              b.keypoint_maps.view(np.uint32))
        assert np.array_equal(a.offset_maps.view(np.uint32),
                              b.offset_maps.view(np.uint32))

    def test_full_drop_leaves_no_true_detections(self):
        scene = generate_scene(3, seed=16)
        cfg = DegradationConfig(peak_drop_prob=1.0, seed=16)
        bundle = simulate_heatmaps(scene, cfg)
        assert not bundle.keypoint_maps.any()
        assert list(detect(bundle)) == []

    def test_spurious_peaks_respect_exclusion_zone(self):
        scene = generate_scene(2, seed=17)
        cfg = DegradationConfig(spurious_rate=4.0, seed=17)
        bundle = simulate_heatmaps(scene, cfg)
        clean = simulate_heatmaps(scene)
        stride = bundle.stride
        for role_idx, role in enumerate(
            ("top", "left", "bottom", "right", "center")
        ):
            true_cells = [
                keypoint_cell(getattr(e, role), stride) for e in scene.extremes()
            ]
            extra = (bundle.keypoint_maps[role_idx] == 1.0) & (
                clean.keypoint_maps[role_idx] != 1.0
            )
            # spurious kernels peak below 1.0; their added mass must sit
            # at least 3 cells (Chebyshev) from every true peak cell
            diff = bundle.keypoint_maps[role_idx] - clean.keypoint_maps[role_idx]
            rows, cols = np.nonzero(diff > 0.5)
            for r, c in zip(rows, cols):
                assert all(
                    max(abs(int(r) - tr), abs(int(c) - tc)) > 2
                    or clean.keypoint_maps[role_idx][r, c] > 0
                    for tr, tc in true_cells
                )
            assert not extra.any()

    def test_noise_applies_to_keypoint_maps_only(self):
        scene = generate_scene(2, seed=18)
        noisy = simulate_heatmaps(scene, DegradationConfig(noise_sigma=0.2, seed=5))
        clean = simulate_heatmaps(scene)
        assert not np.array_equal(noisy.keypoint_maps, clean.keypoint_maps)
        assert np.array_equal(noisy.offset_maps, clean.offset_maps)
        assert noisy.keypoint_maps.min() >= 0.0
        assert noisy.keypoint_maps.max() <= 1.0

    def test_jitter_moves_peaks_within_bound(self):
        scene = generate_scene(1, seed=19)
        cfg = DegradationConfig(jitter_cells=2, seed=20)
        bundle = simulate_heatmaps(scene, cfg)
        stride = bundle.stride
        e = scene.extremes()[0]
        for role_idx, role in enumerate(
            ("top", "left", "bottom", "right", "center")
        ):
            true_cell = keypoint_cell(getattr(e, role), stride)
            peaks = np.argwhere(bundle.keypoint_maps[role_idx] == 1.0)
            assert len(peaks) == 1
            assert abs(int(peaks[0][0]) - true_cell[0]) <= 2
            assert abs(int(peaks[0][1]) - true_cell[1]) <= 2

    def test_noise_levels_share_lesion_draws(self):
        # the noise stream comes after lesion/spurious draws, so two
        # configs differing only in noise level share peak placements
        scene = generate_scene(2, seed=21)
        a = simulate_heatmaps(scene, DegradationConfig(
            jitter_cells=1, noise_sigma=0.05, seed=42))
        b = simulate_heatmaps(scene, DegradationConfig(
            jitter_cells=1, noise_sigma=0.2, seed=42))
        assert np.array_equal(a.offset_maps, b.offset_maps)

    # each value a simulate flag passes on: DegradationConfig's fields and
    # generate_scene's lesion count, which once gave an empty scene at -1
    @pytest.mark.parametrize("field,value,message", [
        *[("noise_sigma", v, r"noise_sigma must lie in \[0, inf\)")
          for v in (-0.1, float("inf"), float("nan"))],
        *[("spurious_rate", v, r"spurious_rate must lie in \[0, inf\)")
          for v in (-0.1, float("inf"), float("nan"))],
        *[("peak_drop_prob", v, r"peak_drop_prob must lie in \[0, 1\]")
          for v in (-0.1, 1.5)],
        ("jitter_cells", -1, r"jitter_cells must lie in \[0, inf\)"),
        ("n_lesions", -1, "n_lesions must be >= 0"),
    ])
    def test_out_of_range_field_refused(self, field, value, message):
        build = generate_scene if field == "n_lesions" else DegradationConfig
        with pytest.raises(ValueError, match=message) as excinfo:
            build(**{field: value})
        assert str(excinfo.value).endswith(f", got {value!r}")
