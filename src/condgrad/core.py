"""Self-concordant objective machinery.

An objective enters the solvers through the :class:`ScOracle` call surface:
value, gradient, Hessian-vector product, domain membership, and the
curvature parameter ``M``.  The drivers and step rules see it through a
point object (:meth:`ScOracle.point`) that holds what they need at one
iterate.  This module provides the scalar curvature functions, local
norms, the duality-gap computation against a feasible set's linear
oracle and the checks of every scalar argument of the library.
"""

import math
import numbers

import numpy as np

GAP_SLACK = 1e-12
# below this |t| the curvature functions use their series t^j/j, j=2..7:
# the direct formula cancels catastrophically as t -> 0
_SERIES_CUTOFF = 1e-4


class DomainError(ValueError):
    """A point lies outside the objective's open domain."""


class InvariantError(RuntimeError):
    """A numeric invariant failed badly enough to indicate a bug."""


def finite_real(name, v):
    """v as a float; a ValueError naming `name` unless v is a finite real
    number (numpy's too): "must be a number" for a bool, a string, None or a
    list, "must be finite" for NaN, an infinity or an int beyond float range."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an int beyond float range
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite")
    return v


def positive_real(name, v):
    """`finite_real(name, v)`, if it is > 0; else "must be positive"."""
    v = finite_real(name, v)
    if not v > 0.0:
        raise ValueError(f"{name} must be positive")
    return v


def integer(name, v):
    """v as an int; a ValueError naming `name` unless v is an integer (numpy's
    too): "must be an integer" for a bool, a float (2.0 too), a string or None."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def positive_int(name, v):
    """`integer(name, v)`, if it is >= 1; else "must be at least 1"."""
    v = integer(name, v)
    if v < 1:
        raise ValueError(f"{name} must be at least 1, got {v}")
    return v


class ScOracle:
    """Evaluation interface for a self-concordant objective.

    An oracle gives what the solvers read: ``dim`` (ambient dimension),
    ``M`` (curvature parameter) and ``point(x)``.  This class is the
    adapter for an objective given by its four methods: a subclass sets
    ``dim`` and ``M`` and implements them, and the default ``point``
    evaluates through them.  ``value`` returns ``+inf`` outside the
    domain; ``gradient`` and ``hess_vec`` are only defined on the domain
    and raise :class:`DomainError` elsewhere.  Instances are immutable
    after construction and safe for concurrent read-only use.
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
        with an :class:`OraclePoint` subclass.
        """
        return OraclePoint(self, x)


class OraclePoint:
    """What the drivers, step rules and `estimate_sigma` need at one point x.

    ``in_domain`` and ``f`` are set when the point is made, f as +inf
    outside the domain without a ``value`` call; ``gradient`` is
    evaluated once, on first read, by the hook ``_gradient_at()``.  A
    target is a point of the feasible set: a vertex (i, value), meaning
    value * e_i, as a linear oracle returns it, or a dense array.
    ``direction(target)`` is ``v = target - x``, ``norm_to(target)`` the
    local norm of v, ``slope(target)`` the function
    t -> (phi'(t), phi''(t)) of phi(t) = f(x + t v) (None outside the
    domain), ``move(alpha, target)`` the point at t = alpha,
    ``change(alpha, target)`` phi(alpha) - phi(0) (+inf outside the
    domain), and ``hessian()`` the dense Hessian at x.  The direction to
    the last target is kept, so the calls of one iteration share it.
    The step rules judge a trial by its ``change``; the driver's
    ``move`` makes the next iterate.
    ``refreshed()`` returns a point free of carried state; this one
    carries none.  A point that carries state subclasses this one and
    overrides ``_gradient_at()``, ``_image_of(target)`` (a tuple led by v)
    and ``move(alpha, target)``.  A point belongs to one run.
    """

    _gradient = _target = None

    def __init__(self, oracle, x):
        self.oracle = oracle
        self.x = np.asarray(x, dtype=float)
        self.in_domain = bool(oracle.in_domain(self.x))
        self.f = float(oracle.value(self.x)) if self.in_domain else np.inf

    def _require_domain(self, what):
        if not self.in_domain:
            raise DomainError(f"{what}: point outside the objective domain")

    @property
    def gradient(self):
        g = self._gradient
        if g is None:
            g = self._gradient = self._gradient_at()
        return g

    def _gradient_at(self):
        # an oracle may return any sequence; the point holds a float array
        return np.asarray(self.oracle.gradient(self.x), dtype=float)

    def hessian(self):
        """`dim` Hessian products with the unit vectors, symmetrized."""
        h = np.column_stack([self.oracle.hess_vec(self.x, e) for e in np.eye(self.oracle.dim)])
        return 0.5 * (h + h.T)

    def _image(self, target):
        """``_image_of(target)``, computed once per target (kept by identity)."""
        if target is not self._target:
            self._target, self._target_image = target, self._image_of(target)
        return self._target_image

    def _image_of(self, target):
        if isinstance(target, tuple):
            return (vertex_direction(self.x, target),)
        return (np.asarray(target, dtype=float) - self.x,)

    def direction(self, target):
        """target - x, computed once per target."""
        return self._image(target)[0]

    def norm_to(self, target):
        self._require_domain("norm_to")
        v = self.direction(target)
        q = float(np.dot(self.oracle.hess_vec(self.x, v), v))
        if q < 0.0:
            # rounding noise is clipped; a clearly negative form is a bug
            if q < -1e-12 * (1.0 + float(np.dot(v, v))):
                raise InvariantError(f"negative Hessian quadratic form: {q}")
            q = 0.0
        return math.sqrt(q)

    def slope(self, target):
        x, v, oracle = self.x, self.direction(target), self.oracle

        def derivatives(t):
            y = x + t * v
            try:
                return float(np.dot(oracle.gradient(y), v)), float(np.dot(oracle.hess_vec(y, v), v))
            except DomainError:
                return None

        return derivatives

    def move(self, alpha, target):
        return OraclePoint(self.oracle, self.x + alpha * self.direction(target))

    def change(self, alpha, target):
        """f(x + alpha v) - f(x), as the difference of the trial's f and this f.

        A trial inside the domain whose f is not finite breaks the
        ``ScOracle`` contract and raises :class:`InvariantError`.
        """
        self._require_domain("change")
        trial = self.move(alpha, target)
        if trial.in_domain and not trial.f < math.inf:
            raise InvariantError(f"objective value {trial.f} inside the domain: oracle inconsistent")
        return trial.f - self.f

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
    """-t - ln(1-t) = omega(-t) for t < 1; the upper curvature profile."""
    if not t < 1.0:
        raise DomainError(f"omega_star requires t < 1, got {t}")
    return omega(-t)


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
    point._require_domain("gap_and_target")
    if not feasible_set.contains(point.x):
        raise ValueError("gap_and_target: point outside the feasible set")
    g = point.gradient
    i, value = target = feasible_set.lmo(g)
    gap_raw = float(g.dot(point.x)) - float(g[i]) * value
    if gap_raw < -GAP_SLACK:
        raise InvariantError(f"negative duality gap {gap_raw}: broken linear oracle?")
    return max(gap_raw, 0.0), target
