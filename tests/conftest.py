"""Shared fixtures: toy oracles and calculus/curvature check helpers."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from condgrad.core import DomainError, ScOracle, dist_like

DATA_DIR = Path(__file__).parent / "data"

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class LogBarrierOracle(ScOracle):
    """f(x) = -sum_i ln(x_i) on the open positive orthant."""

    def __init__(self, dim):
        self.dim = dim
        self.M = 2.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            return float("inf")
        return -float(np.sum(np.log(x)))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if not self.in_domain(x):
            raise DomainError("outside the positive orthant")
        return -1.0 / x

    def hess_vec(self, x, u):
        x = np.asarray(x, dtype=float)
        if not self.in_domain(x):
            raise DomainError("outside the positive orthant")
        return np.asarray(u, dtype=float) / (x * x)

    def in_domain(self, x):
        return bool(np.all(np.asarray(x) > 0.0))


class QuadOracle(ScOracle):
    """f(x) = 0.5 * x . diag(d) . x; domain is all of R^n.

    Not self-concordant for any fixed M; used to exercise step and
    solver mechanics where exact arithmetic is available.
    """

    def __init__(self, diag):
        self.diag = np.asarray(diag, dtype=float)
        self.dim = self.diag.shape[0]
        self.M = 2.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(np.dot(self.diag * x, x))

    def gradient(self, x):
        return self.diag * np.asarray(x, dtype=float)

    def hess_vec(self, x, u):
        return self.diag * np.asarray(u, dtype=float)

    def in_domain(self, x):
        return True


class EdgeOracle(ScOracle):
    """f = 0 on the line x[1] = 0 of the plane: a domain without interior,
    whose Hessian form -1e-15 * |u|^2 is negative by rounding only."""

    dim = 2
    M = 2.0

    def value(self, x):
        return 0.0 if self.in_domain(x) else float("inf")

    def gradient(self, x):
        return np.zeros(2)

    def hess_vec(self, x, u):
        return -1e-15 * np.asarray(u, dtype=float)

    def in_domain(self, x):
        return x[1] == 0.0


class FourCalls(ScOracle):
    """The four oracle calls of `inner` alone: its point is the base
    `OraclePoint`, the path a custom oracle and a traced solve take.
    The calls are instance attributes, so a test can replace one."""

    def __init__(self, inner):
        self.dim, self.M = inner.dim, inner.M
        self.value, self.gradient = inner.value, inner.gradient
        self.hess_vec, self.in_domain = inner.hess_vec, inner.in_domain


@pytest.fixture
def log_barrier2():
    return LogBarrierOracle(2)


@pytest.fixture
def quad2():
    return QuadOracle(np.ones(2))


def check_gradient_fd(oracle, x, rel=1e-5, delta=1e-6):
    """Central finite differences of value vs the analytic gradient."""
    x = np.asarray(x, dtype=float)
    g = oracle.gradient(x)
    fd = np.empty_like(g)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = delta
        fd[i] = (oracle.value(x + step) - oracle.value(x - step)) / (2 * delta)
    err = np.linalg.norm(fd - g)
    assert err <= rel * (np.linalg.norm(g) + 1e-12), f"gradient FD error {err}"


def check_hessvec_fd(oracle, x, u, delta=1e-6):
    """Directional finite difference of the gradient vs hess_vec."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    hv = oracle.hess_vec(x, u)
    fd = (oracle.gradient(x + delta * u) - oracle.gradient(x)) / delta
    err = np.linalg.norm(hv - fd)
    assert err <= 1e-4 * np.linalg.norm(hv) + 1e-6, f"hess_vec FD error {err}"


def check_curvature_bounds(oracle, x, x_new, slack=1e-9):
    """Two-sided curvature envelopes around the linearization at x.

    Only meaningful when the scaled local distance stays below 0.9,
    which also guarantees x_new lies inside the domain.
    """
    from condgrad.core import omega, omega_star

    d = dist_like(oracle.point(x), x_new)
    assert d < 0.9, "test point too far for the upper envelope"
    f_x = oracle.value(x)
    f_new = oracle.value(x_new)
    lin = f_x + float(np.dot(oracle.gradient(x), np.asarray(x_new) - np.asarray(x)))
    scale = 4.0 / (oracle.M * oracle.M)
    assert f_new >= lin + scale * omega(d) - slack
    assert f_new <= lin + scale * omega_star(d) + slack


def dense(dim, vertex):
    """The point value * e_i of a linear oracle's vertex (i, value)."""
    i, value = vertex
    out = np.zeros(dim)
    out[i] = value
    return out


def vertices(fs):
    """Every vertex of one of the three sets as a dense vector, listed from
    the set's kind and radius (so a check of `lmo` against this list does not
    rest on `lmo`)."""
    eye = np.eye(fs.dim)
    if fs.kind == "simplex":
        return list(eye)
    if fs.kind == "l1_ball":
        return list(fs.radius * eye) + list(-fs.radius * eye)
    if fs.kind == "nonneg_l1":
        return [np.zeros(fs.dim)] + list(fs.radius * eye)
    raise ValueError(f"no vertex list for a set of kind {fs.kind!r}")


def diameter(fs):
    """The largest distance between two vertices of `fs`, by brute force."""
    verts = vertices(fs)
    return max(np.linalg.norm(a - b) for i, a in enumerate(verts) for b in verts[i:])


def scale_to_local_distance(oracle, x, direction, target=0.85):
    """Rescale `direction` so dist_like(x, x + direction) == target."""
    d = dist_like(oracle.point(x), np.asarray(x) + direction)
    if d == 0.0:
        return direction
    return direction * (target / d)


def interior_simplex_points(gen, count, dim):
    """Strictly interior simplex samples (Dirichlet via exponentials)."""
    e = -np.log(gen.uniform(1e-12, 1.0, size=(count, dim)))
    return 0.02 / dim + 0.98 * e / e.sum(axis=1, keepdims=True)


# the 8-byte offsets from a 64-byte boundary other than 0
OFFSETS = tuple(range(8, 64, 8))


def at_offset(a, offset):
    """A copy of the float vector a whose data starts `offset` bytes past a
    64-byte boundary (offset a multiple of 8 below 64)."""
    buf = np.empty(a.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start : start + a.size]
    out[:] = a
    assert out.ctypes.data % 64 == offset
    return out
