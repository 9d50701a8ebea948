"""Scalar and local-oracle kernels.

The curvature scalars and the local simplex oracle core exist twice: a
numpy version (``*_np``) and a loop version compiled with numba
(``*_nb``) when numba is importable.  The objectives themselves live in
:mod:`condgrad.problems`, where one matrix-vector product per iteration
dominates and a compiled loop has nothing to add.

The module-level names (no suffix) point at the active implementation.
Set ``CONDGRAD_NUMBA=0`` to force the pure-numpy path; the default is
the jitted path whenever numba is available.
"""

import math
import os

import numpy as np

_FLAG = os.environ.get("CONDGRAD_NUMBA", "1").strip().lower()
_WANT_NUMBA = _FLAG not in {"0", "false", "off", "no"}

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA and _WANT_NUMBA


# ---------------------------------------------------------------------------
# scalar curvature functions: omega(t) = t - ln(1+t), omega_star(t) = -t - ln(1-t)
# Series with terms t^j/j, j=2..7, below |t| = 1e-4: the direct formula
# cancels catastrophically as t -> 0.

_SERIES_CUTOFF = 1e-4


def omega_np(t):
    if abs(t) < _SERIES_CUTOFF:
        return (
            (((((-t / 7.0 + 1.0 / 6.0) * t - 0.2) * t + 0.25) * t - 1.0 / 3.0) * t + 0.5)
            * t
            * t
        )
    return t - math.log1p(t)


def omega_star_np(t):
    if abs(t) < _SERIES_CUTOFF:
        return (
            (((((t / 7.0 + 1.0 / 6.0) * t + 0.2) * t + 0.25) * t + 1.0 / 3.0) * t + 0.5)
            * t
            * t
        )
    return -t - math.log1p(-t)


# ---------------------------------------------------------------------------
# local simplex oracle core: move mass m = min(d/2, 1) onto the cheapest
# coordinate, removing it from the most expensive coordinates of x.
# Equal costs keep ascending index order (stable descending sort).


def lloo_simplex_core_np(x, d, c):
    n = x.shape[0]
    m = min(d / 2.0, 1.0)
    istar = int(np.argmin(c))
    order = np.argsort(-c, kind="stable")
    p = x.copy()
    p[istar] += m
    cs = np.cumsum(x[order])
    k = int(np.searchsorted(cs, m, side="left"))
    if k >= n:
        k = n - 1
    if k > 0:
        p[order[:k]] -= x[order[:k]]
    prev = cs[k - 1] if k > 0 else 0.0
    p[order[k]] -= m - prev
    return p


def _lloo_simplex_core_loops(x, d, c):
    n = x.shape[0]
    m = d / 2.0
    if m > 1.0:
        m = 1.0
    istar = 0
    cmin = c[0]
    for i in range(1, n):
        if c[i] < cmin:
            cmin = c[i]
            istar = i
    order = np.argsort(-c, kind="mergesort")
    p = x.copy()
    p[istar] += m
    acc = 0.0
    done = False
    for j in range(n):
        idx = order[j]
        xi = x[idx]
        if acc + xi >= m:
            p[idx] -= m - acc
            done = True
            break
        p[idx] -= xi
        acc += xi
    if not done:
        p[order[n - 1]] -= m - acc
    return p


# ---------------------------------------------------------------------------
# compile + select

if HAVE_NUMBA:
    omega_nb = njit(cache=True)(omega_np)
    omega_star_nb = njit(cache=True)(omega_star_np)
    lloo_simplex_core_nb = njit(cache=True)(_lloo_simplex_core_loops)

if USING_NUMBA:
    omega = omega_nb
    omega_star = omega_star_nb
    lloo_simplex_core = lloo_simplex_core_nb
else:
    omega = omega_np
    omega_star = omega_star_np
    lloo_simplex_core = lloo_simplex_core_np


def warm_up():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    if not USING_NUMBA:
        return
    x = np.array([0.5, 0.5])
    u = np.array([1.0, -1.0])
    omega(0.5)
    omega_star(0.5)
    lloo_simplex_core(x, 0.5, u)
