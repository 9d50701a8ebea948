"""Deterministic counter-based random numbers.

Draws come from the splitmix64 hash of (seed, counter) pairs, turned
into uniforms from the top 53 bits and into normals by Box-Muller.  The
whole pipeline is an explicit, named algorithm so other implementations
can reproduce the streams bit for bit; nothing here depends on numpy's
generator internals.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(2.0**-53)
# counters per block (even, so a block holds whole Box-Muller pairs): the
# pipeline's temporaries are one block long, so a draw's memory is its
# output plus a fixed amount, whatever its length
_BLOCK = 1 << 15


def _uniform_block(seed, first, count):
    """The uniforms of counters first + 1, ..., first + count: the top 53
    bits of each counter's splitmix64 hash, scaled to [0, 1)."""
    idx = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA * idx
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * _U53


def uniforms(seed, count):
    """`count` uniforms in [0, 1) from the counter stream of `seed`."""
    out = np.empty(count)
    for first in range(0, count, _BLOCK):
        stop = min(first + _BLOCK, count)
        out[first:stop] = _uniform_block(seed, first, stop - first)
    return out


def normals(seed, count):
    """`count` standard normals via Box-Muller over the uniform stream.

    Pairs of uniforms (u1, u2) map to
    sqrt(-2 ln u1) * (cos, sin)(2 pi u2); a zero u1 is nudged to 2^-53.
    """
    size = 2 * ((count + 1) // 2)
    out = np.empty(size)
    for first in range(0, size, _BLOCK):
        stop = min(first + _BLOCK, size)
        u = _uniform_block(seed, first, stop - first)
        radius = np.sqrt(-2.0 * np.log(np.maximum(u[0::2], _U53)))
        angle = 2.0 * np.pi * u[1::2]
        out[first:stop:2] = radius * np.cos(angle)
        out[first + 1 : stop : 2] = radius * np.sin(angle)
    return out[:count]
