"""The in-place splitmix64 block draws and the simulator's noise path
against the allocating implementations they replaced, bit for bit.

``FrozenSplitMix64`` keeps ``_u64_block``, ``uniforms`` and ``gaussians``
as they were, copied without change; its ``gaussians`` is the dense
Box-Muller reference, which the library no longer has. The library's
``_u64_pairs`` must be its ``_u64_block`` split into even and odd steps.
``frozen_noisy_bundle`` keeps the noise loop of ``simulate_heatmaps`` as it
was: dense Box-Muller on every cell, plane by plane, then
``clip(plane + sigma * noise, 0, 1)``. The simulator evaluates
Box-Muller only where that clip can leave a value above 0, in blocks of
``_BLOCK`` uniform pairs over the whole view; grids of 192 x 192 and
193 x 193 cells span several blocks, whose edges fall inside planes.
``TestClippedNoiseBoundaries`` feeds its pass crafted uniforms at the zeros
of cos and sin and at its skip bounds. Floats are compared as unsigned
integers of their width, so a sign of zero or a last-ulp difference fails.
"""

from dataclasses import replace

import numpy as np
import pytest

from recistkit import synthetic
from recistkit.rng import _GAMMA, _INV_2_53, _MASK, _MIX1, _MIX2, SplitMix64
from recistkit.synthetic import (
    _NEGATIVE_COS,
    _NEGATIVE_SIN,
    DegradationConfig,
    _add_view_noise,
    generate_scene,
    simulate_heatmaps,
)
from recistkit.targets import KEYPOINT_CHANNELS
from tests.test_losses import traced_peak

# --- oracles: the allocating implementations ----------------------------------


class FrozenSplitMix64(SplitMix64):
    def _u64_block(self, n: int) -> np.ndarray:
        """n raw outputs as uint64, advancing the stream by n steps."""
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GAMMA) & _MASK
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), identical to n scalar ``uniform()`` calls."""
        if n == 0:
            return np.empty(0, dtype=np.float64)
        block = self._u64_block(n)
        return (block >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs.

        Pair k uses uniforms (2k, 2k+1); the log argument is 1 - u to stay
        in (0, 1]. An odd n still consumes the full last pair.
        """
        if n == 0:
            return np.empty(0, dtype=np.float64)
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]


def simulated(scene, cfg, stride, monkeypatch):
    """``simulate_heatmaps(scene, cfg, stride)`` and the state of its
    stream afterwards."""
    streams = []

    class Recording(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(synthetic, "SplitMix64", Recording)
        bundle = simulate_heatmaps(scene, cfg, stride)
    (stream,) = streams
    return bundle, stream._state


def frozen_noisy_bundle(scene, cfg, stride, monkeypatch):
    """``simulate_heatmaps(scene, cfg, stride)`` with the noise loop as it
    was, and the state of its stream afterwards: the noise-free bundle of
    the same stream, then that loop on a frozen generator that resumes
    where the noise-free run stopped."""
    bundle, state = simulated(scene, replace(cfg, noise_sigma=0.0), stride,
                              monkeypatch)
    rng = FrozenSplitMix64(0)
    rng._state = state

    out_h, out_w = bundle.grid_shape
    for role_idx in range(len(KEYPOINT_CHANNELS)):
        noise = rng.gaussians(out_h * out_w).reshape(out_h, out_w)
        plane = bundle.keypoint_maps[role_idx].astype(np.float64)
        plane = np.clip(plane + cfg.noise_sigma * noise, 0.0, 1.0)
        bundle.keypoint_maps[role_idx] = plane.astype(np.float32)
    return bundle, rng._state


# --- tests ------------------------------------------------------------------

SEEDS = [0, 1, 2**64 - 1]
COUNTS = [0, 1, 2, 3, 36_863, 36_864]


def same_bits(new: np.ndarray, old: np.ndarray) -> bool:
    bits = f"u{new.itemsize}"
    return new.dtype == old.dtype and np.array_equal(new.view(bits), old.view(bits))


class TestBlockDrawOracle:
    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2**64-1"])
    @pytest.mark.parametrize("n", COUNTS)
    def test_each_draw_and_the_state_after_it(self, seed, n):
        new, old = SplitMix64(seed), FrozenSplitMix64(seed)
        # the same call sequence on both, so later calls start mid-stream
        for method in ("_u64_block", "uniforms", "uniforms", "_u64_block"):
            assert same_bits(getattr(new, method)(n), getattr(old, method)(n)), method
            assert new._state == old._state, method
        assert new.next_u64() == old.next_u64()

    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2**64-1"])
    @pytest.mark.parametrize("n", COUNTS)
    def test_pairs_split_the_block_and_advance_as_far(self, seed, n):
        new, old = SplitMix64(seed), FrozenSplitMix64(seed)
        for _ in range(2):
            first, second = new._u64_pairs(n)
            block = old._u64_block(2 * n)
            assert same_bits(first, block[0::2]) and same_bits(second, block[1::2])
            assert new._state == old._state
        assert new.next_u64() == old.next_u64()


class TestNoisePathOracle:
    @pytest.mark.parametrize(
        "image_size,parity",
        [((256, 256), 0), ((260, 260), 1), ((768, 768), 0), ((772, 772), 1)],
        ids=["even HxW 64x64", "odd HxW 65x65", "even HxW 192x192, 3 blocks",
             "odd HxW 193x193, 3 blocks"],
    )
    # at 1.0 and 3.0 the upper clip at 1.0 matters too
    @pytest.mark.parametrize("noise", [0.02, 0.05, 0.3, 1.0, 3.0])
    def test_noisy_bundle_bitwise(self, image_size, parity, noise, monkeypatch):
        scene = generate_scene(2, image_size=image_size, seed=3)
        cfg = DegradationConfig(
            noise_sigma=noise, peak_drop_prob=0.1, spurious_rate=2.0,
            jitter_cells=1, seed=5,
        )
        new, new_state = simulated(scene, cfg, 4, monkeypatch)
        old, old_state = frozen_noisy_bundle(scene, cfg, 4, monkeypatch)
        assert new.grid_shape[0] * new.grid_shape[1] % 2 == parity
        assert new.keypoint_maps.tobytes() == old.keypoint_maps.tobytes()
        assert new.offset_maps.tobytes() == old.offset_maps.tobytes()
        assert new_state == old_state

    def test_the_large_grids_span_blocks_that_end_inside_planes(self):
        for side in (192, 193):
            pairs_per_plane = (side * side + 1) // 2
            pairs = len(KEYPOINT_CHANNELS) * pairs_per_plane
            # more than two blocks, the last one short, and block edges
            # that fall inside planes
            assert pairs > 2 * synthetic._BLOCK
            assert pairs % synthetic._BLOCK != 0
            assert synthetic._BLOCK % pairs_per_plane != 0


class TestNoiseAllocation:
    """A noisy 192 x 192 view allocates little beyond its bundle: the noise
    pass's scratch is one block of pairs, not a view."""

    def test_peak_in_bundles(self):
        scene = generate_scene(3, image_size=(768, 768), seed=3)
        cfg = DegradationConfig(
            noise_sigma=0.05, peak_drop_prob=0.1, spurious_rate=2.0,
            jitter_cells=1, seed=5,
        )
        bundle = simulate_heatmaps(scene, cfg, 4)
        assert bundle.grid_shape == (192, 192)
        size = bundle.keypoint_maps.nbytes + bundle.offset_maps.nbytes
        assert traced_peak(simulate_heatmaps, scene, cfg, 4) / size <= 2.0


class CraftedUniforms(FrozenSplitMix64):
    """A stream whose first draws are the uniforms ``crafted`` instead of
    its own, through ``uniforms`` (the dense reference's draw) or through
    ``_u64_pairs`` (the simulator's), one call or several. Each call still
    advances the state by as many steps, and draws past ``crafted`` are the
    stream's own. The crafted uniforms are multiples of 2**-53, as every
    drawn uniform is; their raw outputs set the low 11 bits, which a
    uniform drops."""

    def __init__(self, seed, crafted):
        super().__init__(seed)
        raw = (np.asarray(crafted) * 2.0**53).astype(np.uint64)
        assert same_bits(raw * _INV_2_53, np.asarray(crafted, dtype=np.float64))
        self.crafted = raw << np.uint64(11) | np.uint64(0x7FF)

    def take(self, n):
        raw, self.crafted = self.crafted[:n], self.crafted[n:]
        return raw

    def uniforms(self, n):
        drawn = super().uniforms(n)
        raw = self.take(n)
        drawn[: len(raw)] = (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return drawn

    def _u64_pairs(self, n):
        first, second = super()._u64_pairs(n)
        raw = self.take(2 * n)
        first[: len(raw) // 2] = raw[0::2]
        second[: len(raw) // 2] = raw[1::2]
        return first, second


def around(x, steps):
    """The multiple of 2**-53 nearest x, the grid of drawn uniforms, and
    ``steps`` grid neighbours on each side of it, ascending."""
    k = round(x * 2**53)
    return [(k + i) * 2.0**-53 for i in range(-steps, steps + 1)]


TWO_PI = 2.0 * np.pi
# u2 at the zeros of cos (angle pi/2, 3 pi/2) and of sin (angle 0 = 2 pi,
# pi), one float64 step either side; the angle wraps at 0
CROSSINGS = [
    [np.nextafter(1.0, 0.0), 0.0, 2.0**-53],
    around(0.25, 1),
    around(0.5, 1),
    around(0.75, 1),
]
# u2 whose angle lies on a skip bound of the helper, two steps either side
SKIP_EDGES = [around(bound / TWO_PI, 2) for bound in _NEGATIVE_COS + _NEGATIVE_SIN]
# radius 0 (signed-zero products), about 1.18, and the largest, about 8.57
RADIUS_U1 = [0.0, 0.5, np.nextafter(1.0, 0.0)]
# +0.0 everywhere but every 7th cell, which covers both parities
LIT = np.array([0.5, 1.0, -0.0, 1e-45, 0.75], dtype=np.float32)


def crafted_plane(n: int) -> np.ndarray:
    plane = np.zeros(n, dtype=np.float32)
    lit = plane[::7]
    lit[...] = np.resize(LIT, lit.size)
    return plane


def dense_clipped_noise(rng, plane, sigma):
    """The dense formula: a normal for every cell, then the clip; a product
    that overflows clips to 0 or 1."""
    noise = rng.gaussians(plane.size)
    with np.errstate(over="ignore"):
        return np.clip(plane + sigma * noise, 0.0, 1.0).astype(np.float32)


class TestClippedNoiseBoundaries:
    def test_crafted_angles_straddle_each_zero_and_skip_bound(self):
        def changes_sign(values):
            return (values > 0).any() and (values < 0).any()

        for u2s in CROSSINGS:
            angles = np.array(u2s) * TWO_PI
            assert changes_sign(np.cos(angles)) or changes_sign(np.sin(angles)), u2s
        for bound, u2s in zip(_NEGATIVE_COS + _NEGATIVE_SIN, SKIP_EDGES):
            angles = np.array(u2s) * TWO_PI
            assert angles.min() < bound < angles.max()

    @pytest.mark.parametrize("odd", [False, True], ids=["even n", "odd n"])
    # at 1e308 the product overflows to +-inf, and no warning may escape
    @pytest.mark.parametrize("sigma", [0.05, 1.0, 3.0, 1e308])
    def test_helper_matches_dense_formula_bitwise(self, sigma, odd, monkeypatch):
        u2s = [u2 for group in CROSSINGS + SKIP_EDGES for u2 in group]
        crafted = np.array([(u1, u2) for u2 in u2s for u1 in RADIUS_U1]).ravel()
        n = crafted.size - odd
        # the crafted pairs in one block, then in blocks of 7 pairs, whose
        # edges fall at every offset into a plane
        for block in (synthetic._BLOCK, 7):
            monkeypatch.setattr(synthetic, "_BLOCK", block)
            dense = CraftedUniforms(7, crafted)
            sparse = CraftedUniforms(7, crafted)
            # the crafted plane, then one drawn as usual, then three more in
            # one pass: the state after each pass is the dense path's
            for planes in (crafted_plane(n)[None], crafted_plane(n + 40)[None],
                           np.stack([crafted_plane(n + 1)] * 3)):
                expected = [dense_clipped_noise(dense, p, sigma) for p in planes]
                _add_view_noise(sparse, planes, sigma)
                assert same_bits(planes, np.stack(expected))
                assert sparse._state == dense._state
            assert sparse.next_u64() == dense.next_u64()
