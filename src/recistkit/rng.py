"""Deterministic pseudo-random generator for reproducible test fixtures.

The generator is splitmix64: the 64-bit state advances by the golden-ratio
increment and each output is a fixed avalanche mix of the new state. It is
simple enough to reimplement bit-for-bit in any language, which is the
point: fixtures generated here can be regenerated elsewhere and compared
byte by byte.

Draw accounting is part of the contract. Every uniform consumes exactly one
64-bit output; ``gaussians(n)`` consumes ``2 * ceil(n / 2)`` outputs
(Box-Muller pairs); ``poisson`` consumes one. Scalar and vectorized calls
advance the same stream identically.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# float64 has a 53-bit mantissa; top 53 bits of the output map to [0, 1)
_INV_2_53 = 2.0 ** -53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Seeded splitmix64 stream with scalar and vectorized draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def _u64_block(self, n: int) -> np.ndarray:
        """n raw outputs as uint64, advancing the stream by n steps."""
        # in place on one work array and one shift temporary; uint64
        # arithmetic wraps, so the order of the state add does not matter
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=shifted)
            z ^= shifted
            z *= np.uint64(mix)
        np.right_shift(z, np.uint64(31), out=shifted)
        z ^= shifted
        self._state = (self._state + n * _GAMMA) & _MASK
        return z

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), identical to n scalar ``uniform()`` calls."""
        if n == 0:
            return np.empty(0, dtype=np.float64)
        block = self._u64_block(n)
        block >>= np.uint64(11)
        u = block.astype(np.float64)
        u *= _INV_2_53
        return u

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs.

        Pair k uses uniforms (2k, 2k+1); the log argument is 1 - u to stay
        in (0, 1]. An odd n still consumes the full last pair.
        """
        if n == 0:
            return np.empty(0, dtype=np.float64)
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        # the same IEEE operations on the same operands as
        # radius * cos(2 pi u2) and radius * sin(2 pi u2), written over u
        radius = np.negative(u[0::2])
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = u[1::2] * (2.0 * np.pi)
        np.cos(angle, out=u[0::2])
        np.sin(angle, out=u[1::2])
        u[0::2] *= radius
        u[1::2] *= radius
        return u[:n]

    def poisson(self, lam: float, cap: int = 64) -> int:
        """Poisson count by CDF inversion of a single uniform, capped."""
        if lam <= 0.0:
            self.uniform()  # keep draw accounting independent of lam
            return 0
        u = self.uniform()
        pmf = math.exp(-lam)
        cdf = pmf
        k = 0
        while u >= cdf and k < cap:
            k += 1
            pmf *= lam / k
            cdf += pmf
        return k
