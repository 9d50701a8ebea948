"""Compact convex feasible sets with exact linear minimization oracles.

Three set families cover the benchmark problems: the unit simplex, the
l1-ball of radius R, and the nonnegative orthant intersected with an
l1-ball.  Every vertex of each lies on a coordinate axis, so a linear
oracle returns its vertex as a pair (i, value), meaning value * e_i.
Ties in every vertex argmin break toward the lowest index so that runs
are fully deterministic.
"""

import math

import numpy as np

CONTAINS_TOL = 1e-9


def _check_finite(c):
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("linear oracle input has non-finite entries")
    return c


def _check_radius(radius):
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return float(radius)


class FeasibleSet:
    """Common surface: lmo, contains, diameter, vertices, start_point.

    ``lmo(c)`` returns a vertex minimizing <c, .> as (i, value), the point
    value * e_i; a set whose vertices do not all lie on coordinate axes
    cannot use this surface.  ``contains`` returns a Python bool.
    """

    dim: int
    kind: str

    def lmo(self, c):
        raise NotImplementedError

    def contains(self, x, tol=CONTAINS_TOL):
        raise NotImplementedError

    @property
    def diameter(self):
        raise NotImplementedError

    def vertices(self):
        raise NotImplementedError

    def start_point(self):
        raise NotImplementedError


class Simplex(FeasibleSet):
    """Unit simplex {x >= 0, sum x = 1}."""

    kind = "simplex"

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def lmo(self, c):
        """Vertex e_i minimizing <c, .>, lowest-index ties: (i, 1.0)."""
        return int(_check_finite(c).argmin()), 1.0

    def contains(self, x, tol=CONTAINS_TOL):
        x = np.asarray(x, dtype=float)
        return (
            x.shape == (self.dim,)
            and bool((x >= -tol).all())
            and abs(float(x.sum()) - 1.0) <= tol
        )

    @property
    def diameter(self):
        return float(np.sqrt(2.0)) if self.dim > 1 else 0.0

    def vertices(self):
        return [v for v in np.eye(self.dim)]

    def start_point(self):
        return np.full(self.dim, 1.0 / self.dim)


class L1Ball(FeasibleSet):
    """l1-ball {|x|_1 <= R}."""

    kind = "l1_ball"

    def __init__(self, dim, radius):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.radius = _check_radius(radius)
        self.dim = int(dim)

    def lmo(self, c):
        """Vertex +-R*e_i minimizing <c, .>: (i, +-R).

        The winning coordinate has maximal |c_i| (lowest-index ties) and
        the sign opposes c_i, with sign(0) treated as +1.
        """
        c = _check_finite(c)
        i = int(np.abs(c).argmax())
        # c[i] == 0 only when c == 0: sign(0) = +1 gives -R * e_i
        return i, (self.radius if c[i] < 0.0 else -self.radius)

    def contains(self, x, tol=CONTAINS_TOL):
        x = np.asarray(x, dtype=float)
        return x.shape == (self.dim,) and float(np.abs(x).sum()) <= self.radius + tol

    @property
    def diameter(self):
        return 2.0 * self.radius

    def vertices(self):
        eye = np.eye(self.dim)
        return [self.radius * v for v in eye] + [-self.radius * v for v in eye]

    def start_point(self):
        return np.zeros(self.dim)


class NonnegL1Ball(FeasibleSet):
    """Nonnegative orthant cut with an l1-ball: {x >= 0, |x|_1 <= R}."""

    kind = "nonneg_l1"

    def __init__(self, dim, radius):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.radius = _check_radius(radius)
        self.dim = int(dim)

    def lmo(self, c):
        """The origin (i, 0.0) or R*e_i (i, R), whichever minimizes <c, .>."""
        c = _check_finite(c)
        i = int(c.argmin())
        return i, (self.radius if c[i] < 0.0 else 0.0)

    def contains(self, x, tol=CONTAINS_TOL):
        x = np.asarray(x, dtype=float)
        return (
            x.shape == (self.dim,)
            and bool((x >= -tol).all())
            and float(x.sum()) <= self.radius + tol
        )

    @property
    def diameter(self):
        # farthest vertex pair is R*e_i, R*e_j; the origin is closer
        return float(np.sqrt(2.0)) * self.radius if self.dim > 1 else self.radius

    def vertices(self):
        return [np.zeros(self.dim)] + [self.radius * v for v in np.eye(self.dim)]

    def start_point(self):
        # strictly interior so barrier-type objectives are finite at the start
        return np.full(self.dim, self.radius / (2.0 * self.dim))
