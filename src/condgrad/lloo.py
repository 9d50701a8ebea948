"""Local linear minimization oracle for the unit simplex.

Given a center x on the simplex, a Euclidean radius r, and a cost vector
c, the oracle returns a simplex point p beating every feasible point of
the ball B(x, r) on <c, .>, while moving at most sqrt(n)*r from x.  The
construction works in the l1 metric with budget d = sqrt(n)*r: mass
m = min(d/2, 1) moves onto the cheapest coordinate, taken from the most
expensive coordinates of x.
"""

import numpy as np

from .sets import Simplex, _argmin_finite


def lloo_simplex(x, r, c):
    """Run the local oracle at center x with radius r for cost c; returns the point p.

    The output satisfies <c, p> <= <c, y> for every y in B(x, r)
    intersected with the simplex, and ||x - p||_2 <= sqrt(n)*r.  Mass
    leaves the coordinates of x in descending cost order; equal costs
    keep ascending index order (stable sort).  When sqrt(n)*r/2 >= 1 the
    point is the exact vertex e_i, i the lowest index of minimal cost.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape != c.shape or x.ndim != 1:
        raise ValueError("center and cost must be 1-D vectors of equal length")
    n = x.shape[0]
    if not Simplex(n).contains(x):
        raise ValueError("lloo_simplex center must lie on the unit simplex")
    istar = _argmin_finite(c)
    if not r > 0:
        raise ValueError("lloo_simplex radius must be positive")
    m = float(np.sqrt(n)) * float(r) / 2.0
    if m >= 1.0:
        # the whole unit mass moves onto the cheapest coordinate: the point
        # is the linear oracle's vertex, exactly and with no sort
        p = np.zeros(n)
        p[istar] = 1.0
        return p
    order = np.argsort(-c, kind="stable")
    p = x.copy()
    p[istar] += m
    cs = np.cumsum(x[order])
    k = min(int(np.searchsorted(cs, m, side="left")), n - 1)
    if k > 0:
        p[order[:k]] -= x[order[:k]]
    prev = cs[k - 1] if k > 0 else 0.0
    p[order[k]] -= m - prev
    return p
