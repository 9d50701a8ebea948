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


def _splitmix64(seed, count):
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA * idx
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniforms(seed, count):
    """`count` uniforms in [0, 1) from the counter stream of `seed`."""
    bits = _splitmix64(seed, count)
    return (bits >> np.uint64(11)).astype(np.float64) * _U53


def normals(seed, count):
    """`count` standard normals via Box-Muller over the uniform stream.

    Pairs of uniforms (u1, u2) map to
    sqrt(-2 ln u1) * (cos, sin)(2 pi u2); a zero u1 is nudged to 2^-53.
    """
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    u1 = np.maximum(u[0::2], _U53)
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]
