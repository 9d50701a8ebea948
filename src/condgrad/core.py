"""Self-concordant objective machinery.

An objective enters the solvers through the :class:`ScOracle` call surface:
value, gradient, Hessian-vector product, domain membership, and the
curvature parameter ``M``.  The drivers and step rules see it through a
point object (:meth:`ScOracle.point`) that holds what they need at one
iterate.  This module provides the scalar curvature functions, local
norms, the duality-gap computation against a feasible set's linear
oracle, and the Bregman divergence.
"""

import math
from functools import cached_property

import numpy as np

GAP_SLACK = 1e-12
# below this |t| the curvature functions use their series t^j/j, j=2..7:
# the direct formula cancels catastrophically as t -> 0
_SERIES_CUTOFF = 1e-4


class DomainError(ValueError):
    """A point lies outside the objective's open domain."""


class InvariantError(RuntimeError):
    """A numeric invariant failed badly enough to indicate a bug."""


class ScOracle:
    """Evaluation interface for a self-concordant objective.

    Subclasses set ``dim`` (ambient dimension) and ``M`` (curvature
    parameter) and implement the four methods.  ``value`` returns ``+inf``
    outside the domain so that line-search probes are cheap to reject;
    ``gradient`` and ``hess_vec`` are only defined on the domain and raise
    :class:`DomainError` elsewhere.  Instances are immutable after
    construction and safe for concurrent read-only use.
    """

    dim: int
    M: float

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hess_vec(self, x, u):
        raise NotImplementedError

    def in_domain(self, x):
        raise NotImplementedError

    def point(self, x):
        """The objective at x, as the solvers use it (see :class:`OraclePoint`).

        The default evaluates through the four methods above.  An oracle
        that can carry state from one iterate to the next overrides it
        with a point of the same surface.
        """
        return OraclePoint(self, x)


class OraclePoint:
    """What the drivers, step rules and `estimate_sigma` need at one point x.

    ``in_domain`` and ``f`` are set when the point is made, f as +inf
    outside the domain without a ``value`` call; ``gradient`` is
    evaluated once, on first use.  A target is a point of the feasible
    set: a vertex (i, value), meaning value * e_i, as a linear oracle
    returns it, or a dense array.
    ``direction(target)`` is ``v = target - x``, ``norm_to(target)`` the
    local norm of v, ``line(target)`` the function t -> f(x + t v), and
    ``move(alpha, target)`` the point at t = alpha.  The direction to the
    last target is kept, so the calls of one iteration share it.
    ``refreshed()`` returns a point free of carried state; this one
    carries none.  A point belongs to one run.
    """

    def __init__(self, oracle, x):
        self.oracle = oracle
        self.x = np.asarray(x, dtype=float)
        self.in_domain = bool(oracle.in_domain(self.x))
        self.f = float(oracle.value(self.x)) if self.in_domain else np.inf
        self._target = None

    @cached_property
    def gradient(self):
        return self.oracle.gradient(self.x)

    def hess_vec(self, u):
        return self.oracle.hess_vec(self.x, u)

    def direction(self, target):
        """target - x, computed once per target."""
        if target is not self._target:
            if isinstance(target, tuple):
                self._v = vertex_direction(self.x, target)
            else:
                self._v = np.asarray(target, dtype=float) - self.x
            self._target = target
        return self._v

    def norm_to(self, target):
        if not self.in_domain:
            raise DomainError("norm_to: point outside the objective domain")
        v = self.direction(target)
        q = float(np.dot(self.hess_vec(v), v))
        if q < 0.0:
            # rounding noise is clipped; a clearly negative form is a bug
            if q < -1e-12 * (1.0 + float(np.dot(v, v))):
                raise InvariantError(f"negative Hessian quadratic form: {q}")
            q = 0.0
        return math.sqrt(q)

    def line(self, target):
        x, v, value = self.x, self.direction(target), self.oracle.value
        return lambda t: value(x + t * v)

    def move(self, alpha, target):
        return OraclePoint(self.oracle, self.x + alpha * self.direction(target))

    def refreshed(self):
        return self


def vertex_direction(x, vertex):
    """value * e_i - x for a vertex (i, value), without forming the vertex."""
    i, value = vertex
    v = -x
    v[i] += value
    return v


def omega(t):
    """t - ln(1+t) for t > -1; the lower curvature profile."""
    if not t > -1.0:
        raise DomainError(f"omega requires t > -1, got {t}")
    t = float(t)
    if abs(t) < _SERIES_CUTOFF:
        return (
            (((((-t / 7.0 + 1.0 / 6.0) * t - 0.2) * t + 0.25) * t - 1.0 / 3.0) * t + 0.5)
            * t
            * t
        )
    return t - math.log1p(t)


def omega_star(t):
    """-t - ln(1-t) for t < 1; the upper curvature profile."""
    if not t < 1.0:
        raise DomainError(f"omega_star requires t < 1, got {t}")
    t = float(t)
    if abs(t) < _SERIES_CUTOFF:
        return (
            (((((t / 7.0 + 1.0 / 6.0) * t + 0.2) * t + 0.25) * t + 1.0 / 3.0) * t + 0.5)
            * t
            * t
        )
    return -t - math.log1p(-t)


def dist_like(point, y):
    """Scaled local distance (M/2)*||y - x||_x from a point at x."""
    return 0.5 * point.oracle.M * point.norm_to(y)


def gap_and_target(feasible_set, point):
    """Duality gap and linear-oracle target (gap, (i, value)) at a point.

    The target is the vertex value * e_i; the gap is <g, x> - g_i value.
    Requires the point feasible and inside the domain.  The raw gap may
    round to a tiny negative number; anything below -1e-12 indicates a
    broken linear oracle and raises :class:`InvariantError`.
    """
    if not point.in_domain:
        raise DomainError("gap_and_target: point outside the objective domain")
    if not feasible_set.contains(point.x):
        raise ValueError("gap_and_target: point outside the feasible set")
    g = point.gradient
    i, value = target = feasible_set.lmo(g)
    gap_raw = float(np.dot(g, point.x)) - float(g[i]) * value
    if gap_raw < -GAP_SLACK:
        raise InvariantError(f"negative duality gap {gap_raw}: broken linear oracle?")
    return max(gap_raw, 0.0), target


def bregman(oracle, y, x):
    """Bregman divergence f(y) - f(x) - <grad f(x), y - x> (both points in-domain)."""
    if not oracle.in_domain(x):
        raise DomainError("bregman: base point outside the objective domain")
    if not oracle.in_domain(y):
        raise DomainError("bregman: argument outside the objective domain")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(oracle.value(y) - oracle.value(x) - np.dot(oracle.gradient(x), y - x))
