"""Seeded pseudo-random stream used by the scenario generator.

A self-contained splitmix64 generator: 64-bit seed, platform-independent
sequence.  The standard library's Mersenne twister would also be
deterministic, but pinning the algorithm here keeps generated scenarios
bit-identical across Python versions and makes reproducer seeds a stable
external contract.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; every method consumes exactly one 64-bit draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n
