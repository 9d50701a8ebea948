"""Benchmark problem oracles and data ingestion.

Three self-concordant families: log-utility allocation over the simplex,
count-data (Poisson-likelihood) recovery over the nonnegative l1-ball,
and l1-constrained regularized logistic regression.  All three are
generalized linear models, f(x) = sum_i phi_i(a_i . x) + (gamma/2)|x|^2,
so they share one oracle, :class:`GlmOracle`, whose point carries the
image z = A x from one iterate to the next.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rng
from .core import DomainError, InvariantError, ScOracle, vertex_direction
from .sets import FeasibleSet, L1Ball, NonnegL1Ball, Simplex

PORTFOLIO_CLAMP = 0.01
DEFAULT_RADIUS = 10.0

# z is recomputed as A x after this many carried moves ...
REFRESH_INTERVAL = 100
# ... and may then differ from it by at most DRIFT_RTOL * max|a_ij| * reach,
# reach being the largest l1 norm among the last exact x and the targets
# since (every carried value is a combination of those).
DRIFT_RTOL = 1e-9
# For a dense target s (the local oracle's), A (s - x) is gathered as A s - z
# from the columns of s's support when that support has at most
# n / GATHER_RATIO entries: a column read touches one cache line (8 doubles)
# per row, a full pass one per 8 entries.  A vertex is always one column.
GATHER_RATIO = 8


class GlmOracle(ScOracle):
    """f(x) = sum_i phi_i(a_i . x) + (gamma/2)|x|^2 over the rows a_i of a matrix.

    Subclasses call ``_set_matrix`` (m x n data, m >= 1), set ``M`` and, when
    there is a quadratic term, ``gamma``, and define phi on the image
    z = A x: ``_domain(z)``, ``_loss(z)`` (the sum over rows, called on
    the domain only) and ``_derivatives(z)``, the per-row phi' and phi''
    as one pair (called on the domain only).
    The four :class:`ScOracle` methods evaluate through a fresh
    :class:`GlmPoint`; the solvers move one along the run.
    """

    gamma = 0.0

    def _set_matrix(self, matrix):
        if matrix.shape[0] == 0:
            raise ValueError(f"{type(self).__name__}: the data matrix has no rows")
        # max |a_ij|, the scale of the drift test; NaN and inf propagate to it,
        # and initial=0.0 leaves a matrix without columns to the set's check
        amax = max(float(matrix.max(initial=0.0)), -float(matrix.min(initial=0.0)))
        if not math.isfinite(amax):
            raise ValueError(f"{type(self).__name__}: the data matrix has non-finite entries")
        self.matrix = matrix
        self.dim = matrix.shape[1]
        self._amax = amax

    def point(self, x):
        return GlmPoint(self, x)

    def value(self, x):
        return self.point(x).f

    def gradient(self, x):
        return self.point(x).gradient

    def hess_vec(self, x, u):
        return self.point(x).hess_vec(u)

    def in_domain(self, x):
        return self.point(x).in_domain


class GlmPoint:
    """A point of a :class:`GlmOracle` that carries z = A x.

    Same surface as :class:`~condgrad.core.OraclePoint`.  A move to
    x + alpha (s - x) updates z <- z + alpha A (s - x): a vertex
    (i, value) of the feasible set costs one scaled column, value a_i,
    and a dense local-oracle target is gathered from its support, or
    costs one full product when that support is large.  Domain tests,
    f, local norms and line probes then cost O(m); the gradient's
    A^T phi'(z) is the one full pass over the data per iterate, a
    Hessian product takes two.  After REFRESH_INTERVAL
    carried moves, and on ``refreshed()``, z is recomputed as A x; a
    carried z that drifted beyond DRIFT_RTOL raises InvariantError.
    ``in_domain``, f and, inside the domain, the pair (phi'(z), phi''(z))
    are set when the point is made; the gradient is formed on first use.
    """

    def __init__(self, oracle, x, z=None, age=0, reach=None):
        self.oracle = oracle
        self.x = np.asarray(x, dtype=float)
        self.z = oracle.matrix @ self.x if z is None else z
        self.age = age
        self.reach = float(np.sum(np.abs(self.x))) if reach is None else reach
        self.in_domain = bool(oracle._domain(self.z))
        if self.in_domain:
            self.f = self._objective(self.z, self.x)
            self._derivatives = oracle._derivatives(self.z)
        else:
            self.f = np.inf
        self._target = None

    def _value(self, z, x):
        return self._objective(z, x) if self.oracle._domain(z) else np.inf

    def _objective(self, z, x):
        """f from z = A x; z must lie in the domain."""
        f = float(self.oracle._loss(z))
        gamma = self.oracle.gamma
        return f + 0.5 * gamma * float(np.dot(x, x)) if gamma else f

    def _require_domain(self, what):
        if not self.in_domain:
            raise DomainError(f"{what}: point outside the objective domain")

    @cached_property
    def gradient(self):
        self._require_domain("gradient")
        g = self.oracle.matrix.T @ self._derivatives[0]
        gamma = self.oracle.gamma
        return g + gamma * self.x if gamma else g

    def hess_vec(self, u):
        self._require_domain("hess_vec")
        u = np.asarray(u, dtype=float)
        a = self.oracle.matrix
        hv = a.T @ (self._derivatives[1] * (a @ u))
        gamma = self.oracle.gamma
        return hv + gamma * u if gamma else hv

    def _image(self, target):
        """(v, A v, |target|_1) for v = target - x, computed once per target."""
        if target is not self._target:
            a = self.oracle.matrix
            if isinstance(target, tuple):
                i, value = target
                v = vertex_direction(self.x, target)
                av = value * a[:, i] - self.z
                s_norm = abs(value)
            else:
                s = np.asarray(target, dtype=float)
                v = s - self.x
                support = np.flatnonzero(s)
                if support.size * GATHER_RATIO <= v.size:
                    av = a[:, support] @ s[support] - self.z
                else:
                    av = a @ v
                s_norm = float(np.abs(s).sum())
            self._target = target
            self._image_of_target = (v, av, s_norm)
        return self._image_of_target

    def direction(self, target):
        return self._image(target)[0]

    def norm_to(self, target):
        self._require_domain("norm_to")
        v, av, _ = self._image(target)
        q = float(np.dot(self._derivatives[1], av * av))
        gamma = self.oracle.gamma
        if gamma:
            q += gamma * float(np.dot(v, v))
        return math.sqrt(q)

    def line(self, target):
        v, av, _ = self._image(target)
        x, z = self.x, self.z
        if not self.oracle.gamma:
            # x enters f only through the quadratic term
            return lambda t: self._value(z + t * av, None)
        return lambda t: self._value(z + t * av, x + t * v)

    def move(self, alpha, target):
        v, av, s_norm = self._image(target)
        x = self.x + alpha * v
        z = self.z + alpha * av
        reach = max(self.reach, s_norm)
        if self.age + 1 >= REFRESH_INTERVAL:
            return GlmPoint(self.oracle, x, self._exact_image(x, z, reach))
        return GlmPoint(self.oracle, x, z, self.age + 1, reach)

    def refreshed(self):
        if self.age == 0:
            return self
        return GlmPoint(self.oracle, self.x, self._exact_image(self.x, self.z, self.reach))

    def _exact_image(self, x, z, reach):
        exact = self.oracle.matrix @ x
        drift = float(np.max(np.abs(z - exact)))
        bound = DRIFT_RTOL * self.oracle._amax * reach
        if not drift <= bound:
            raise InvariantError(f"carried image z = A x drifted by {drift:.3e} (bound {bound:.3e})")
        return exact


class PortfolioOracle(GlmOracle):
    """f(x) = -sum_t ln(r_t . x) over rows of a positive returns matrix."""

    def __init__(self, returns):
        returns = np.ascontiguousarray(returns, dtype=float)
        if returns.ndim != 2:
            raise ValueError("returns must be a T x n matrix")
        if not np.all(returns > 0.0):
            raise ValueError("returns matrix must be strictly positive")
        self._set_matrix(returns)
        self.M = 2.0

    @property
    def returns(self):
        return self.matrix

    def _domain(self, z):
        return z.min() > 0.0

    def _loss(self, z):
        return -np.log(z).sum()

    def _derivatives(self, z):
        return -1.0 / z, 1.0 / (z * z)


class PoissonOracle(GlmOracle):
    """f(x) = sum_i w_i . x - sum_i y_i ln(w_i . x) for counts y >= 0.

    Rows with y_i = 0 contribute only the linear part and impose no
    positivity constraint.
    """

    def __init__(self, weights, counts):
        weights = np.ascontiguousarray(weights, dtype=float)
        counts = np.ascontiguousarray(counts, dtype=float)
        if weights.ndim != 2 or counts.shape != (weights.shape[0],):
            raise ValueError("weights must be m x n with one count per row")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if not np.isfinite(counts).all() or np.any(counts < 0.0) or np.any(counts != np.floor(counts)):
            raise ValueError("counts must be nonnegative integers")
        pos = counts > 0
        if np.any(~np.any(weights[pos] > 0.0, axis=1)):
            raise ValueError("every row with a positive count needs a positive entry")
        self._set_matrix(weights)
        self.counts = counts
        # rows with a positive count; a slice when that is every row
        self._rows = slice(None) if np.all(pos) else np.flatnonzero(pos)
        self._y = counts[self._rows]
        # linear objective when every count is zero; curvature then vacuous
        self.M = float(np.max(2.0 / np.sqrt(counts[pos]))) if np.any(pos) else 2.0

    @property
    def weights(self):
        return self.matrix

    def _domain(self, z):
        zp = z[self._rows]
        return zp.size == 0 or zp.min() > 0.0

    def _loss(self, z):
        return z.sum() - (self._y * np.log(z[self._rows])).sum()

    def _derivatives(self, z):
        zp = z[self._rows]
        d1 = np.ones_like(z)
        d1[self._rows] -= self._y / zp
        d2 = np.zeros_like(z)
        d2[self._rows] = self._y / (zp * zp)
        return d1, d2


class LogisticOracle(GlmOracle):
    """(1/N) sum_i log(1 + exp(-y_i (phi_i . x + mu))) + (gamma/2)|x|^2."""

    def __init__(self, features, labels, mu=0.0, gamma=None):
        features = np.ascontiguousarray(features, dtype=float)
        labels = np.ascontiguousarray(labels, dtype=float)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("features must be N x n with one label per row")
        if not np.isfinite(labels).all():
            raise ValueError("labels must be finite")
        self._set_matrix(features)
        if gamma is None:
            gamma = 1.0 / features.shape[0]
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        if not (math.isfinite(mu) and math.isfinite(gamma)):
            raise ValueError("mu and gamma must be finite")
        self.labels = labels
        self.mu = float(mu)
        self.gamma = float(gamma)
        self.M = float(np.max(np.linalg.norm(features, axis=1)) / np.sqrt(gamma))

    @property
    def features(self):
        return self.matrix

    def _margins(self, z):
        t = self.labels * (z + self.mu)
        return t, np.exp(-np.abs(t))

    def _domain(self, z):
        return True

    def _loss(self, z):
        # log(1 + exp(-t)) without overflow
        t, e = self._margins(z)
        return np.mean(np.maximum(-t, 0.0) + np.log1p(e))

    def _sigmoid(self, z):
        t, e = self._margins(z)
        return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))

    def _derivatives(self, z):
        # l'(t) = sigmoid(t) - 1 and l''(t) = sigmoid(t) (1 - sigmoid(t)),
        # chained through t = y (z + mu)
        sig = self._sigmoid(z)
        m = z.shape[0]
        return (sig - 1.0) * self.labels / m, sig * (1.0 - sig) * self.labels * self.labels / m


@dataclass
class Problem:
    """An objective and the feasible set it is minimized over."""

    oracle: GlmOracle
    feasible_set: FeasibleSet


def portfolio_problem(returns):
    oracle = PortfolioOracle(returns)
    return Problem(oracle, Simplex(oracle.dim))


def poisson_problem(weights, counts, radius=DEFAULT_RADIUS):
    oracle = PoissonOracle(weights, counts)
    problem = Problem(oracle, NonnegL1Ball(oracle.dim, radius))
    # the canonical interior start must give a finite objective
    if not oracle.in_domain(problem.feasible_set.start_point()):
        raise ValueError("count rows leave the canonical start outside the domain")
    return problem


def logistic_problem(features, labels, mu=0.0, gamma=None, radius=DEFAULT_RADIUS):
    oracle = LogisticOracle(features, labels, mu=mu, gamma=gamma)
    return Problem(oracle, L1Ball(oracle.dim, radius))


def gen_portfolio_data(T, n, seed):
    """Synthetic price-ratio matrix: 1 + 0.1 * N(0,1), clamped at 0.01.

    Entries come row-major from the counter stream of `seed`, so equal
    (T, n, seed) always reproduce the same matrix bit for bit.  The
    clamp keeps the log-utility objective defined unconditionally; it
    fires with probability ~ Phi(-10) per entry.
    """
    if T < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    z = rng.normals(seed, T * n)
    return np.maximum(1.0 + 0.1 * z, PORTFOLIO_CLAMP).reshape(T, n)


class ParseError(ValueError):
    pass


def parse_libsvm(stream):
    """Parse sparse `<label> <idx>:<val> ...` lines into dense rows.

    `stream` is an iterable of lines (an open file works).  Indices are
    1-based and must be strictly ascending within a line, labels and
    values finite; blank lines and lines starting with '#' are skipped.
    Returns (features, labels) with features dense N x n, n the largest
    index seen.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    rows = []
    labels = []
    width = 0
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(f"line {lineno}: non-finite label {tokens[0]!r}")
        labels.append(label)
        entries = []
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value in {tok!r}")
            if idx <= 0:
                raise ParseError(f"line {lineno}: index {idx} must be positive")
            if idx <= prev:
                raise ParseError(f"line {lineno}: indices must be strictly ascending")
            entries.append((idx - 1, val))
            prev = idx
        rows.append(entries)
        width = max(width, prev)
    features = np.zeros((len(rows), width))
    for i, entries in enumerate(rows):
        for j, val in entries:
            features[i, j] = val
    return features, np.asarray(labels)


def format_libsvm(features, labels):
    """Serialize dense rows back to the sparse text format (nonzeros only)."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    lines = []
    for row, label in zip(features, labels):
        parts = ["%+g" % label]
        for j in np.nonzero(row)[0]:
            parts.append(f"{j + 1}:{format(row[j], '.17g')}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_returns_csv(path, returns, seed):
    """Write a synthetic returns matrix: header line `T,n,seed`, then rows."""
    returns = np.asarray(returns, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{returns.shape[0]},{returns.shape[1]},{seed}\n")
        for row in returns:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_returns_csv(path):
    """Read back a returns matrix; returns (matrix, seed)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 3:
            raise ValueError("returns CSV must start with a `T,n,seed` line")
        T, n, seed = int(header[0]), int(header[1]), int(header[2])
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (T, n):
        raise ValueError(f"returns CSV body {data.shape} does not match header ({T}, {n})")
    return data, seed


def gen_binary_design(m, n, density, seed):
    """Synthetic 0/1 design matrix with at least one active column per row."""
    u = rng.uniforms(seed, m * n).reshape(m, n)
    w = (u < density).astype(float)
    for i in range(m):
        if not np.any(w[i] > 0.0):
            w[i, i % n] = 1.0
    return w


def gen_logistic_data(N, n, seed):
    """Synthetic classification data: normal features, separator labels."""
    feats = rng.normals(seed, N * n).reshape(N, n)
    plane = rng.normals(seed + 1, n)
    margins = feats @ plane
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    return feats, labels
