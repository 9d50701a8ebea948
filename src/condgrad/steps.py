"""Step-size policies for the conditional-gradient drivers.

Four strategies: the classic open-loop 2/(k+2), exact line search by
bracketed Newton steps on the line, a closed-form step minimizing the
self-concordant upper model, and backtracking over an adaptive local
Lipschitz estimate.  The two adaptive rules judge a trial by its
change ``point.change(alpha, target)``, which makes no point on a GLM
objective; only the driver moves to a new point.
"""

import math

import numpy as np

from .core import InvariantError, omega_star

GAMMA_DOWN = 0.9
GAMMA_UP = 2.0
EPS = float(np.finfo(float).eps)
# a step below this length is negligible: a backtracking search ends in a
# null step there, and the driver counts such steps toward a stall
STALL_ALPHA = 1e-16


def standard_step(k):
    """Open-loop step 2/(k+2)."""
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    return 2.0 / (k + 2.0)


def analytic_step(gap, e, M):
    """Closed-form step from the self-concordant upper model: (alpha, model_decrease).

    Maximizes t*gap - (4/M^2)*omega_star(t*e) over the admissible range,
    then caps at 1; the model decrease is that objective at t = alpha.
    The returned alpha always satisfies alpha*e < 1, so the step
    provably stays inside the objective domain.
    """
    if not gap > 0:
        raise ValueError("analytic_step requires a positive gap")
    if e < 0:
        raise ValueError("local distance e must be nonnegative")
    if e == 0.0:
        # zero local norm of the direction: defensive, degenerate problems only
        return 1.0, gap
    c = 4.0 / (M * M)
    t = gap / (e * (gap + c * e))
    alpha = min(1.0, t)
    if not alpha * e < 1.0:
        # alpha e = gap / (gap + c e) < 1 rounds to 1 when c e vanishes beside the gap
        raise ValueError(f"step {alpha} * e {e} rounds to 1: 4/M^2 = {c} is too small beside the gap {gap}")
    return alpha, alpha * gap - c * omega_star(alpha * e)


def exact_line_search(point, target):
    """Minimize phi(t) = f(x + t*(target - x)) over t in [0, 1] by Newton steps.

    Each probe reads (phi'(t), phi''(t)) from ``point.slope``.  The step
    goes to Newton's t - phi'/phi'', or, where phi'' = 0, to the downhill
    end of the bracket.  The bracket [lo, hi] around the minimizer
    narrows by the sign of phi' at each probe, and to any probe outside
    the domain, so it alone keeps the search inside the domain; a step
    leaving it bisects, except that a step past 1 probes t = 1 once.
    The step depends on the line alone, not on the oracle's M.  The
    search stops when the predicted decrease phi'^2/phi''
    falls below eps times the smaller of max(1, |f(x)|) and its own value
    at t = 0, or when the bracket is at rounding width.
    Returns 0 when phi'(0) >= 0 or when the change
    ``point.change(t, target)`` is not negative, so a decrease below f's
    rounding still counts.
    """
    point._require_domain("exact_line_search")
    slope = point.slope(target)
    d1, d2 = slope(0.0)
    if not d1 < 0.0:
        return 0.0
    tol = EPS * max(1.0, abs(point.f))
    if d2 > 0.0:
        tol = min(tol, EPS * d1 * d1 / d2)
    t = lo = 0.0
    hi = 1.0
    capped = False
    while d1 * d1 > tol * d2:
        if d2 > 0.0:
            nt = t - d1 / d2
        else:
            # no curvature here: phi is linear, so head for the downhill end
            nt = hi if d1 < 0.0 else lo
        if nt >= hi == 1.0 and not capped:
            nt = 1.0
            capped = True
        elif not lo < nt < hi:
            nt = 0.5 * (lo + hi)
            if not lo < nt < hi:
                break
        probe = slope(nt)
        if probe is None:
            hi = nt
        else:
            t, (d1, d2) = nt, probe
            if d1 < 0.0:
                lo = t
            else:
                hi = t
    if not point.change(t, target) < 0.0:
        return 0.0
    return t


def _direction_norm2(caller, v):
    """v'v as a float; one that overflows is a ValueError naming it."""
    vv = float(v.dot(v))
    if not math.isfinite(vv):
        raise ValueError(f"{caller}: v'v is {vv}, not finite; the problem's scale overflows floating point")
    return vv


def backtrack_step(point, target, gap, lipschitz):
    """Backtracking step toward `target` against the quadratic model: (alpha, mu, evals).

    With v = target - x, the trial Lipschitz value mu starts at
    GAMMA_DOWN x `lipschitz` (the running estimate) and doubles until
    f(x + alpha*v) - f(x) <= -alpha*gap + (alpha^2 mu / 2)|v|^2 holds with
    alpha = min(gap/(mu |v|^2), 1), the change read from
    ``point.change(alpha, target)``, so a decrease below f's rounding
    still counts.  A trial outside the domain has change +inf and fails
    the check like any insufficient decrease.  A search whose alpha falls
    below STALL_ALPHA before a trial passes returns the null step
    alpha = 0.0, which the driver counts toward a stall.  `evals` is the
    number of checks made; mu is the next call's `lipschitz`.
    """
    point._require_domain("backtrack_step")
    if not lipschitz > 0:
        raise ValueError("Lipschitz estimate must be positive")
    if not gap > 0:
        raise ValueError("backtrack_step requires a positive gap")
    v = point.direction(target)
    vv = _direction_norm2("backtrack_step", v)
    if vv == 0.0:
        raise ValueError("backtrack_step requires a nonzero direction")

    mu = GAMMA_DOWN * lipschitz
    evals = 0
    while True:
        alpha = min(gap / (mu * vv), 1.0)
        if evals and alpha < STALL_ALPHA:
            return 0.0, mu, evals
        evals += 1
        change = point.change(alpha, target)
        if change <= -alpha * gap + 0.5 * alpha * alpha * mu * vv:
            return alpha, mu, evals
        if math.isnan(change):
            raise InvariantError(f"backtracking: objective change at alpha = {alpha} is NaN")
        mu *= GAMMA_UP


def init_lipschitz(point, s0):
    """Seed for the local Lipschitz estimate at x0: the curvature v'Hv / v'v along v = s0 - x0.

    That is the curvature the quadratic model of `backtrack_step` needs
    along v, and one local norm gives it.  Where f has none (v'Hv = 0, as
    for a linear objective) the seed is the slope -<grad f(x0), v> / v'v,
    so that the first trial is the full step.
    """
    point._require_domain("init_lipschitz")
    v = point.direction(s0)
    vv = _direction_norm2("init_lipschitz", v)
    if vv == 0.0:
        raise ValueError("init_lipschitz: target coincides with the start point")
    seed = point.norm_to(s0) ** 2
    if seed == 0.0:
        seed = -float(point.gradient.dot(v))
    if not seed > 0:
        raise ValueError("init_lipschitz: no curvature and no descent toward the target")
    return seed / vv
