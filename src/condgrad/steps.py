"""Step-size policies for the conditional-gradient drivers.

Four strategies: the classic open-loop 2/(k+2), exact line search by
golden section, a closed-form step minimizing the self-concordant upper
model, and backtracking over an adaptive local Lipschitz estimate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, InvariantError, omega_star

GAMMA_DOWN = 0.9
GAMMA_UP = 2.0
MAX_DOUBLINGS = 100
LINE_SEARCH_WIDTH = 1e-10
# stay 1% inside the unit local-distance ball that guarantees domain membership
DOMAIN_SAFETY = 0.99


@dataclass
class BacktrackState:
    """Mutable per-run state of the backtracking policy.

    ``lipschitz`` is the running local estimate, ``eval_count`` the
    cumulative number of sufficient-decrease checks, ``prev_decrease``
    the last observed drop f(x_{k-1}) - f(x_k) feeding the initial
    guess for the next iteration.  One solver run owns one instance.
    """

    lipschitz: float
    gamma_up: float = GAMMA_UP
    gamma_down: float = GAMMA_DOWN
    eval_count: int = 0
    prev_decrease: float | None = None

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz estimate must be positive")
        if not self.gamma_up > 1:
            raise ValueError("gamma_up must exceed 1")
        if not 0 < self.gamma_down < 1:
            raise ValueError("gamma_down must lie in (0, 1)")


@dataclass
class StepResult:
    alpha: float
    lipschitz: float | None = None
    evals_used: int = 0
    model_decrease: float = 0.0


def standard_step(k):
    """Open-loop step 2/(k+2)."""
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    return 2.0 / (k + 2.0)


def analytic_step(gap, e, M):
    """Closed-form step from the self-concordant upper model.

    Maximizes t*gap - (4/M^2)*omega_star(t*e) over the admissible range,
    then caps at 1.  The returned alpha always satisfies alpha*e < 1, so
    the step provably stays inside the objective domain.
    """
    if not gap > 0:
        raise ValueError("analytic_step requires a positive gap")
    if e < 0:
        raise ValueError("local distance e must be nonnegative")
    if e == 0.0:
        # zero local norm of the direction: defensive, degenerate problems only
        return StepResult(alpha=1.0, model_decrease=gap)
    t = gap / (e * (gap + (4.0 / (M * M)) * e))
    alpha = min(1.0, t)
    if not alpha * e < 1.0:
        raise InvariantError(f"step {alpha} * e {e} >= 1; curvature model violated")
    decrease = alpha * gap - (4.0 / (M * M)) * omega_star(alpha * e)
    return StepResult(alpha=alpha, model_decrease=decrease)


def _golden_section(phi, lo, hi, width):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    inv2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    c = a + inv2 * h
    d = a + inv * h
    fc = phi(c)
    fd = phi(d)
    while h > width:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + inv2 * h
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + inv * h
            fd = phi(d)
    return 0.5 * (a + b)


def exact_line_search(point, target, e):
    """Golden-section minimization of f(x + t*(target - x)) over t in [0, t_max].

    t_max = min(1, 0.99/e) keeps every probe inside the domain whenever
    e is the scaled local distance of the full step; probes landing
    outside evaluate to +inf and are rejected naturally.  Returns 0 when
    no probed step improves on staying put.
    """
    t_max = 1.0 if e == 0.0 else min(1.0, DOMAIN_SAFETY / e)
    phi = point.line(target)
    t = _golden_section(phi, 0.0, t_max, LINE_SEARCH_WIDTH)
    if not phi(t) < phi(0.0):
        return 0.0
    return t


def backtrack_step(point, target, gap, state):
    """Backtracking step toward `target` against the quadratic model with estimate mu.

    With v = target - x, the trial Lipschitz value starts from a clipped
    curvature guess based on the previous decrease, and doubles until
    f(x + alpha*v) <= f(x) - alpha*gap + (alpha^2 mu / 2)|v|^2 holds with
    alpha = min(gap/(mu |v|^2), 1).  Probes outside the domain count as
    +inf and fail the check like any insufficient decrease.
    """
    if not gap > 0:
        raise ValueError("backtrack_step requires a positive gap")
    v = np.asarray(target, dtype=float) - point.x
    vv = float(np.dot(v, v))
    if vv == 0.0:
        raise ValueError("backtrack_step requires a nonzero direction")
    f_x = point.f
    if not np.isfinite(f_x):
        raise DomainError("backtrack_step: base point outside the objective domain")
    phi = point.line(target)

    lo = state.gamma_down * state.lipschitz
    if state.prev_decrease is not None and state.prev_decrease > 0.0:
        guess = gap * gap / (2.0 * state.prev_decrease * vv)
        mu = min(max(guess, lo), state.lipschitz)
    else:
        mu = lo

    evals = 0
    while True:
        alpha = min(gap / (mu * vv), 1.0)
        quad = f_x - alpha * gap + 0.5 * alpha * alpha * mu * vv
        evals += 1
        if phi(alpha) <= quad:
            break
        if evals > MAX_DOUBLINGS:
            raise InvariantError(
                "backtracking exceeded %d doublings; oracle inconsistent" % MAX_DOUBLINGS
            )
        mu *= state.gamma_up

    state.lipschitz = mu
    state.eval_count += evals
    return StepResult(
        alpha=alpha,
        lipschitz=mu,
        evals_used=evals,
        model_decrease=alpha * gap - 0.5 * alpha * alpha * mu * vv,
    )


def init_lipschitz(point, s0, eps=1e-3):
    """Finite-difference seed for the local Lipschitz estimate at a point x0.

    Measures ||grad f(x0) - grad f(x0 + eps*(s0-x0))|| / (eps*||s0-x0||),
    halving eps (up to 60 times) until the probe lies in the domain.
    """
    norm = float(np.linalg.norm(np.asarray(s0, dtype=float) - point.x))
    if norm == 0.0:
        raise ValueError("init_lipschitz: target coincides with the start point")
    if not point.in_domain:
        raise DomainError("init_lipschitz: start point outside the objective domain")
    for _ in range(60):
        probe = point.move(eps, s0)
        if probe.in_domain:
            break
        eps *= 0.5
    else:
        raise DomainError("init_lipschitz: could not find an in-domain probe")
    return float(np.linalg.norm(point.gradient - probe.gradient)) / (eps * norm)
