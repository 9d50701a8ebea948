"""Local linear minimization oracle for the unit simplex.

Given a center x on the simplex, a Euclidean radius r, and a cost vector
c, the oracle returns a simplex point p beating every feasible point of
the ball B(x, r) on <c, .>, while moving at most sqrt(n)*r from x.  The
construction works in the l1 metric with budget d = sqrt(n)*r: mass
m = min(d/2, 1) moves onto the cheapest coordinate, taken from the most
expensive coordinates of x.
"""

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-9


@dataclass
class LlooResult:
    point: np.ndarray
    l1_moved: float


def lloo_simplex(x, r, c):
    """Run the local oracle at center x with radius r for cost c.

    The output satisfies <c, p> <= <c, y> for every y in B(x, r)
    intersected with the simplex, and ||x - p||_2 <= sqrt(n)*r.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape != c.shape or x.ndim != 1:
        raise ValueError("center and cost must be 1-D vectors of equal length")
    if not (np.all(x >= -SIMPLEX_TOL) and abs(float(np.sum(x)) - 1.0) <= SIMPLEX_TOL):
        raise ValueError("lloo_simplex center must lie on the unit simplex")
    if not r > 0:
        raise ValueError("lloo_simplex radius must be positive")
    if not np.all(np.isfinite(c)):
        raise ValueError("lloo_simplex cost has non-finite entries")
    d = float(np.sqrt(x.shape[0])) * float(r)
    p = _lloo_simplex_core(x, d, c)
    return LlooResult(point=p, l1_moved=float(np.sum(np.abs(x - p))))


def _lloo_simplex_core(x, d, c):
    """Move mass m = min(d/2, 1) onto the cheapest coordinate, removing it
    from the most expensive coordinates of x.  Equal costs keep ascending
    index order (stable descending sort)."""
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
