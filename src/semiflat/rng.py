"""Deterministic 64-bit SplitMix generator.

All sampling in the package goes through this generator so that a fixed
seed reproduces sample points bit-for-bit across runs and platforms.
Update constants (documented for reimplementation):

    state    += 0x9E3779B97F4A7C15            (golden-ratio increment)
    z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;            z *= 0x94D049BB133111EB
    z ^= z >> 31

Doubles are produced as (z >> 11) * 2**-53, uniform on [0, 1).

The state is a Weyl sequence, so the i-th draw after a state x is the mix
of x + i * gamma (mod 2**64), and n draws can be made as one array pass
(Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014).  The rule for array draws: `uniforms(n)` gives the doubles of
n `uniform()` calls bit for bit and leaves the same state, because one
body (`_mix`, `_unit`) serves Python ints and numpy uint64 arrays alike.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z):
    """The SplitMix64 output function of a state: a Python int, or a numpy
    uint64 array, whose products wrap mod 2**64 as the mask does."""
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _unit(z):
    """A 64-bit draw (or an array of them) as a double on [0, 1)."""
    return (z >> 11) * 2.0**-53


class SplitMix64:
    """Tiny deterministic PRNG; never touches global random state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * _unit(self.next_u64())

    def uniforms(self, n: int):
        """The next n doubles on [0, 1) as a numpy array: those of n
        `uniform()` calls, bit for bit, ending in the same state."""
        import numpy as np
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        out = _unit(_mix(steps + np.uint64(self._state)))
        self._state = (self._state + n * _GAMMA) & _MASK
        return out

    def complex_annulus(self, r_min: float, r_max: float,
                        arg_min: float = 0.0, arg_max: float = 2.0 * math.pi) -> complex:
        """Uniform-in-(radius, argument) point of an annulus sector."""
        r = self.uniform(r_min, r_max)
        th = self.uniform(arg_min, arg_max)
        return complex(r * math.cos(th), r * math.sin(th))

    def split(self) -> "SplitMix64":
        """Child generator with a state derived from this one."""
        return SplitMix64(self.next_u64())
