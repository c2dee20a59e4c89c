"""Deterministic 64-bit SplitMix generator.

All sampling in the package goes through this generator so that a fixed
seed reproduces sample points bit-for-bit across runs and platforms.
Update constants (documented for reimplementation):

    state    += 0x9E3779B97F4A7C15            (golden-ratio increment)
    z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;            z *= 0x94D049BB133111EB
    z ^= z >> 31

Doubles are produced as (z >> 11) * 2**-53, uniform on [0, 1).
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny deterministic PRNG; never touches global random state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def complex_annulus(self, r_min: float, r_max: float,
                        arg_min: float = 0.0, arg_max: float = 2.0 * math.pi) -> complex:
        """Uniform-in-(radius, argument) point of an annulus sector."""
        r = self.uniform(r_min, r_max)
        th = self.uniform(arg_min, arg_max)
        return complex(r * math.cos(th), r * math.sin(th))

    def split(self) -> "SplitMix64":
        """Child generator with a state derived from this one."""
        return SplitMix64(self.next_u64())
