"""Seeded pseudo-random stream used by the scenario generator.

A self-contained splitmix64 generator: 64-bit seed, platform-independent
sequence.  The standard library's Mersenne twister would also be
deterministic, but pinning the algorithm here keeps generated scenarios
bit-identical across Python versions and makes reproducer seeds a stable
external contract.

Draws are made a batch at a time, one per 128-bit lane of a single Python
int (SIMD within a register): the lanes hold the consecutive states
``s + γ, …, s + Kγ``, and each xor-shift/multiply round of the mix runs
once on the packed int.  A lane's 64-bit value times a 64-bit constant
fits in its 128 bits; the bits a right shift brings in from the next lane
land above bit 64, and masking with the lane mask clears them before they
can reach a product.  The lanes are read back little-endian, so the
stream does not depend on the platform's byte order.
"""

from __future__ import annotations

import struct
from itertools import chain

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _batch(k: int) -> tuple:
    """Packing constants of a batch of ``k`` draws: lane ones, the lanes'
    state offsets ``γ, …, kγ``, the lane mask, the state step, the byte
    length and the little-endian unpacker."""
    ones = sum(1 << (128 * i) for i in range(k))
    ramp = _GAMMA * sum((i + 1) << (128 * i) for i in range(k))
    return (ones, ramp, _MASK * ones, _GAMMA * k, 16 * k,
            struct.Struct("<" + "Q8x" * k).unpack)


# A batch costs about as much as its first few draws did one at a time, so
# the first batch is small (a fuzz campaign's knobs take at most n + 1
# draws) and later ones are large (a 40-event scenario takes about 117).
_FIRST = _batch(8)
_REST = _batch(32)


def _batches(state: int):
    """Tuples of consecutive draws after ``state``; holds ints only, so a
    stream refers to nothing that refers back to it."""
    ones, ramp, lanes, step, size, unpack = _FIRST
    while True:
        z = (state * ones + ramp) & lanes
        state = (state + step) & _MASK
        z = (((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9) & lanes
        z = (((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB) & lanes
        yield unpack(((z ^ (z >> 31)) & lanes).to_bytes(size, "little"))
        ones, ramp, lanes, step, size, unpack = _REST


class SplitMix64:
    """splitmix64 stream; every method consumes exactly one 64-bit draw.

    ``draws`` is the stream itself, an iterator of 64-bit ints that the
    methods share; a hot loop may bind ``draws.__next__`` once.
    """

    def __init__(self, seed: int):
        self.draws = chain.from_iterable(_batches(seed & _MASK))

    def next_u64(self) -> int:
        return next(self.draws)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (next(self.draws) >> 11) * 2.0 ** -53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n); ``n`` is an exact int of at least 1."""
        if type(n) is not int or n < 1:
            raise ValueError(f"below() needs an int bound of at least 1, got {n!r}")
        return next(self.draws) % n
