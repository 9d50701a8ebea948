"""Compact convex feasible sets with exact linear minimization oracles.

Three set families cover the benchmark problems: the unit simplex, the
l1-ball of radius R, and the nonnegative orthant intersected with an
l1-ball.  Every vertex of each lies on a coordinate axis, so a linear
oracle returns its vertex as a pair (i, value), meaning value * e_i.
Ties in every vertex argmin break toward the lowest index so that runs
are fully deterministic.  The simplex also has a local linear oracle,
``lloo_simplex``, which the locally-restricted solver queries.
"""

import math
import sys

import numpy as np

from .core import positive_int, positive_real

CONTAINS_TOL = 1e-9
# A sum is one dot with the set's vector of ones, x.dot(ones): at 20 to 200
# entries ndarray.dot costs under half the fixed cost of the ufunc's
# reduce, and a NaN or an inf entry still makes the sum NaN or inf.  A
# yes/no test reads the one element that argmin or argmax picks instead
# of reducing: each picks the first NaN, so a test on that element rejects
# a NaN as the min- or max-reduction did.


def _cost(c, dim):
    """A linear oracle's cost c as a float vector, checked to have shape (dim,)."""
    c = np.asarray(c, dtype=float)
    if c.shape != (dim,):
        raise ValueError(f"linear oracle input has shape {c.shape}; the set needs {(dim,)}")
    return c


def _argmin_finite(c):
    """c.argmin() for a float vector c, raising ValueError unless c is finite.

    A NaN shows at both picks, a -inf at argmin's and a +inf at argmax's.
    """
    i = int(c.argmin())
    if not (math.isfinite(c[i]) and math.isfinite(c[c.argmax()])):
        raise ValueError("linear oracle input has non-finite entries")
    return i


class FeasibleSet:
    """What the solvers read of a set: dim, kind, lmo, contains, start_point.

    ``lmo(c)`` returns a vertex minimizing <c, .> as (i, value), the point
    value * e_i; a set whose vertices do not all lie on coordinate axes
    cannot use this surface.  A cost that is not a finite vector of shape
    (dim,) raises ValueError.  ``contains(x)`` returns a Python bool: x has
    shape (dim,) and lies in the set up to ``CONTAINS_TOL``, times R on a
    ball of radius R.
    """

    dim: int
    kind: str

    def __init__(self, dim):
        self.dim = positive_int("dimension", dim)
        self._ones = np.ones(self.dim)

    def lmo(self, c):
        raise NotImplementedError

    def contains(self, x):
        raise NotImplementedError

    def start_point(self):
        raise NotImplementedError


class Simplex(FeasibleSet):
    """Unit simplex {x >= 0, sum x = 1}."""

    kind = "simplex"

    def lmo(self, c):
        """Vertex e_i minimizing <c, .>, lowest-index ties: (i, 1.0)."""
        return _argmin_finite(_cost(c, self.dim)), 1.0

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x.shape == (self.dim,) and _on_simplex(x, self._ones)

    def start_point(self):
        return np.full(self.dim, 1.0 / self.dim)


def _on_simplex(x, ones):
    """Whether a float vector x lies on the unit simplex up to CONTAINS_TOL; `ones` has x's length."""
    # x's smallest entry, or its first NaN, decides x >= -CONTAINS_TOL
    return bool(x[x.argmin()] >= -CONTAINS_TOL) and abs(float(x.dot(ones)) - 1.0) <= CONTAINS_TOL


def lloo_simplex(x, r, c):
    """Run the simplex's local oracle at center x with radius r for cost c; returns the point p.

    The output satisfies <c, p> <= <c, y> for every y in B(x, r)
    intersected with the simplex, and ||x - p||_2 <= sqrt(n)*r.  The
    construction works in the l1 metric with budget d = sqrt(n)*r: mass
    m = min(d/2, 1) moves onto the cheapest coordinate, taken from the
    most expensive coordinates of x.  Mass leaves the coordinates of x
    in descending cost order; equal costs keep ascending index order
    (stable sort).  When sqrt(n)*r/2 >= 1 the point is the exact vertex
    e_i, i the lowest index of minimal cost.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.shape != c.shape or x.ndim != 1:
        raise ValueError("center and cost must be 1-D vectors of equal length")
    n = x.shape[0]
    if not _on_simplex(x, np.ones(n)):
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


class L1Ball(FeasibleSet):
    """l1-ball {|x|_1 <= R}."""

    kind = "l1_ball"

    def __init__(self, dim, radius):
        super().__init__(dim)
        self.radius = positive_real("radius", radius)
        # the slack scales with R, as one ulp of R does; a bound that
        # overflows would admit an infinite x
        self._high = min(self.radius + CONTAINS_TOL * self.radius, sys.float_info.max)

    def lmo(self, c):
        """Vertex +-R*e_i minimizing <c, .>: (i, +-R).

        The winning coordinate has maximal |c_i| (lowest-index ties) and
        the sign opposes c_i, with sign(0) treated as +1.
        """
        c = _cost(c, self.dim)
        i = int(np.abs(c).argmax())
        # |c_i| is the largest, or c_i the first NaN: one entry decides finiteness
        if not math.isfinite(c[i]):
            raise ValueError("linear oracle input has non-finite entries")
        # c[i] == 0 only when c == 0: sign(0) = +1 gives -R * e_i
        return i, (self.radius if c[i] < 0.0 else -self.radius)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return (
            x.shape == (self.dim,)
            and float(np.abs(x).dot(self._ones)) <= self._high
        )

    def start_point(self):
        return np.zeros(self.dim)


class NonnegL1Ball(FeasibleSet):
    """Nonnegative orthant cut with an l1-ball: {x >= 0, |x|_1 <= R}."""

    kind = "nonneg_l1"

    def __init__(self, dim, radius):
        super().__init__(dim)
        self.radius = positive_real("radius", radius)
        self._low = -CONTAINS_TOL * self.radius
        self._high = min(self.radius + CONTAINS_TOL * self.radius, sys.float_info.max)

    def lmo(self, c):
        """The origin (i, 0.0) or R*e_i (i, R), whichever minimizes <c, .>."""
        c = _cost(c, self.dim)
        i = _argmin_finite(c)
        return i, (self.radius if c[i] < 0.0 else 0.0)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return (
            x.shape == (self.dim,)
            and bool(x[x.argmin()] >= self._low)
            and float(x.dot(self._ones)) <= self._high
        )

    def start_point(self):
        # strictly interior so barrier-type objectives are finite at the start
        return np.full(self.dim, self.radius / (2.0 * self.dim))
