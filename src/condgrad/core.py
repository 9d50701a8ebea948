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
from dataclasses import dataclass
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

    ``f``, ``gradient`` and ``in_domain`` are evaluated once, on first
    use.  A target is a point of the feasible set; ``norm_to(target)`` is
    the local norm of ``target - x``, ``line(target)`` the function
    t -> f(x + t (target - x)), and ``move(alpha, target)`` the point at
    t = alpha.  The direction to the last target is kept, so the calls
    of one iteration share it.  ``refreshed()`` returns a point free of
    carried state; this one carries none.  A point belongs to one run.
    """

    def __init__(self, oracle, x):
        self.oracle = oracle
        self.M = oracle.M
        self.x = np.asarray(x, dtype=float)
        self._target = None

    @cached_property
    def f(self):
        return float(self.oracle.value(self.x))

    @cached_property
    def in_domain(self):
        return bool(self.oracle.in_domain(self.x))

    @cached_property
    def gradient(self):
        return self.oracle.gradient(self.x)

    def hess_vec(self, u):
        return self.oracle.hess_vec(self.x, u)

    def _direction(self, target):
        """target - x, computed once per target."""
        if target is not self._target:
            self._v = np.asarray(target, dtype=float) - self.x
            self._target = target
        return self._v

    def norm_to(self, target):
        if not self.in_domain:
            raise DomainError("local_norm: point outside the objective domain")
        v = self._direction(target)
        return _form_root(float(np.dot(self.hess_vec(v), v)), v)

    def line(self, target):
        x, v, value = self.x, self._direction(target), self.oracle.value
        return lambda t: value(x + t * v)

    def move(self, alpha, target):
        return OraclePoint(self.oracle, self.x + alpha * self._direction(target))

    def refreshed(self):
        return self


@dataclass
class GapResult:
    """Linear-oracle target and duality gap at a feasible point.

    ``e`` is the scaled local distance (M/2)*||target - x||_x that controls
    how far a step may go while provably staying inside the domain.
    """

    target: np.ndarray
    gap: float
    e: float
    lmo_value: float


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


def _form_root(q, u):
    """sqrt of a Hessian quadratic form q = <H u, u>, rounding noise clipped."""
    if q < 0.0:
        if q < -1e-12 * (1.0 + float(np.dot(u, u))):
            raise InvariantError(f"negative Hessian quadratic form: {q}")
        q = 0.0
    return float(np.sqrt(q))


def local_norm(oracle, x, u):
    """Hessian-induced norm sqrt(<hess_vec(x,u), u>) at x."""
    if not oracle.in_domain(x):
        raise DomainError("local_norm: point outside the objective domain")
    return _form_root(float(np.dot(oracle.hess_vec(x, u), u)), u)


def dist_like(point, y):
    """Scaled local distance (M/2)*||y - x||_x from a point at x."""
    return 0.5 * point.M * point.norm_to(y)


def gap_and_target(feasible_set, point):
    """Duality gap, linear-oracle target, and local step bound at a point.

    Requires the point feasible and inside the domain.  The raw gap may
    round to a tiny negative number; anything below -1e-12 indicates a
    broken linear oracle and raises :class:`InvariantError`.
    """
    if not point.in_domain:
        raise DomainError("gap_and_target: point outside the objective domain")
    if not feasible_set.contains(point.x):
        raise ValueError("gap_and_target: point outside the feasible set")
    g = point.gradient
    target = feasible_set.lmo(g)
    lmo_value = float(np.dot(g, target))
    gap_raw = float(np.dot(g, point.x)) - lmo_value
    if gap_raw < -GAP_SLACK:
        raise InvariantError(f"negative duality gap {gap_raw}: broken linear oracle?")
    return GapResult(
        target=target,
        gap=max(gap_raw, 0.0),
        e=dist_like(point, target),
        lmo_value=lmo_value,
    )


def bregman(oracle, y, x):
    """Bregman divergence f(y) - f(x) - <grad f(x), y - x> (both points in-domain)."""
    if not oracle.in_domain(x):
        raise DomainError("bregman: base point outside the objective domain")
    if not oracle.in_domain(y):
        raise DomainError("bregman: argument outside the objective domain")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(oracle.value(y) - oracle.value(x) - np.dot(oracle.gradient(x), y - x))
