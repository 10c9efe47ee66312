"""The in-place splitmix64 block draws and the simulator's noise path
against the allocating implementations they replaced, bit for bit.

``FrozenSplitMix64`` keeps ``_u64_block``, ``uniforms`` and ``gaussians``
as they were, copied without change; ``frozen_noisy_bundle`` keeps the
noise loop of ``simulate_heatmaps`` as it was: dense Box-Muller on every
cell, then ``clip(plane + sigma * noise, 0, 1)``. The simulator evaluates
Box-Muller only where that clip can leave a value above 0;
``TestClippedNoiseBoundaries`` feeds its helper crafted uniforms at the
zeros of cos and sin and at its skip bounds. Floats are compared as
unsigned integers of their width, so a sign of zero or a last-ulp
difference fails.
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
    _add_clipped_noise,
    generate_scene,
    simulate_heatmaps,
)
from recistkit.targets import KEYPOINT_CHANNELS

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


def frozen_noisy_bundle(scene, cfg, stride, monkeypatch):
    """``simulate_heatmaps(scene, cfg, stride)`` with the noise loop as it
    was: the noise-free bundle of the same stream, then that loop on a
    frozen generator that resumes where the noise-free run stopped."""
    streams = []

    class Recording(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(synthetic, "SplitMix64", Recording)
        bundle = simulate_heatmaps(scene, replace(cfg, noise_sigma=0.0), stride)
    (stream,) = streams
    rng = FrozenSplitMix64(0)
    rng._state = stream._state

    out_h, out_w = bundle.grid_shape
    for role_idx in range(len(KEYPOINT_CHANNELS)):
        noise = rng.gaussians(out_h * out_w).reshape(out_h, out_w)
        plane = bundle.keypoint_maps[role_idx].astype(np.float64)
        plane = np.clip(plane + cfg.noise_sigma * noise, 0.0, 1.0)
        bundle.keypoint_maps[role_idx] = plane.astype(np.float32)
    return bundle


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
        for method in ("_u64_block", "uniforms", "gaussians", "gaussians",
                       "uniforms", "_u64_block"):
            assert same_bits(getattr(new, method)(n), getattr(old, method)(n)), method
            assert new._state == old._state, method
        assert new.next_u64() == old.next_u64()


class TestNoisePathOracle:
    @pytest.mark.parametrize("image_size,parity", [((256, 256), 0), ((260, 260), 1)],
                             ids=["even HxW 64x64", "odd HxW 65x65"])
    # at 1.0 and 3.0 the upper clip at 1.0 matters too
    @pytest.mark.parametrize("noise", [0.02, 0.05, 0.3, 1.0, 3.0])
    def test_noisy_bundle_bitwise(self, image_size, parity, noise, monkeypatch):
        scene = generate_scene(2, image_size=image_size, seed=3)
        cfg = DegradationConfig(
            noise_sigma=noise, peak_drop_prob=0.1, spurious_rate=2.0,
            jitter_cells=1, seed=5,
        )
        new = simulate_heatmaps(scene, cfg, 4)
        old = frozen_noisy_bundle(scene, cfg, 4, monkeypatch)
        assert new.grid_shape[0] * new.grid_shape[1] % 2 == parity
        assert new.keypoint_maps.tobytes() == old.keypoint_maps.tobytes()
        assert new.offset_maps.tobytes() == old.offset_maps.tobytes()


class CraftedUniforms(SplitMix64):
    """A stream whose first ``uniforms`` call returns ``crafted`` instead of
    its draws. That call still advances the state by as many steps, and
    later calls draw as usual."""

    def __init__(self, seed, crafted):
        super().__init__(seed)
        self.crafted = crafted

    def uniforms(self, n):
        drawn = super().uniforms(n)
        if self.crafted is None:
            return drawn
        assert n == len(self.crafted)
        crafted, self.crafted = self.crafted.copy(), None
        return crafted


def around(x, steps):
    """x and ``steps`` float64 neighbours on each side of it, ascending."""
    below = [x]
    above = [x]
    for _ in range(steps):
        below.insert(0, np.nextafter(below[0], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:-1] + above


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
    def test_helper_matches_dense_formula_bitwise(self, sigma, odd):
        u2s = [u2 for group in CROSSINGS + SKIP_EDGES for u2 in group]
        crafted = np.array([(u1, u2) for u2 in u2s for u1 in RADIUS_U1]).ravel()
        n = crafted.size - odd
        dense = CraftedUniforms(7, crafted)
        sparse = CraftedUniforms(7, crafted)
        # the crafted plane, then one drawn as usual: the state after each
        # plane is the dense path's
        for plane in (crafted_plane(n), crafted_plane(n + 40)):
            expected = dense_clipped_noise(dense, plane, sigma)
            _add_clipped_noise(sparse, plane, sigma)
            assert same_bits(plane, expected)
            assert sparse._state == dense._state
        assert sparse.next_u64() == dense.next_u64()
