"""Deterministic pseudo-random generator for reproducible test fixtures.

The generator is splitmix64: the 64-bit state advances by the golden-ratio
increment and each output is a fixed avalanche mix of the new state. Its
64-bit outputs and ``uniform``/``uniforms`` doubles are simple enough to
reimplement bit-for-bit in any language, so those draws can be regenerated
elsewhere and compared byte by byte. Normals are not drawn here: the
simulator turns pairs of these uniforms into Box-Muller normals itself.

Draw accounting is part of the contract. Every uniform consumes exactly one
64-bit output, and ``poisson`` consumes one whatever its rate. Scalar and
vectorized calls advance the same stream identically.
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

# the largest count poisson returns
_POISSON_CAP = 64


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

    def poisson(self, lam: float) -> int:
        """Poisson count by CDF inversion of one uniform, capped at
        ``_POISSON_CAP``."""
        if lam <= 0.0:
            self.uniform()  # keep draw accounting independent of lam
            return 0
        u = self.uniform()
        pmf = math.exp(-lam)
        cdf = pmf
        k = 0
        while u >= cdf and k < _POISSON_CAP:
            k += 1
            pmf *= lam / k
            cdf += pmf
        return k
