"""Benchmark problem oracles and data ingestion.

Three self-concordant families: log-utility allocation over the simplex,
count-data (Poisson-likelihood) recovery over the nonnegative l1-ball,
and l1-constrained regularized logistic regression.  All three are
generalized linear models, f(x) = sum_i phi_i(a_i . x) + (gamma/2)|x|^2,
so they share one oracle, :class:`GlmOracle`, whose point carries the
image z = A x from one iterate to the next.
"""

import math
import warnings
from itertools import chain, islice, repeat

import numpy as np

from . import rng
from .core import DomainError, InvariantError, OraclePoint, ScOracle, vertex_direction
from .sets import L1Ball, NonnegL1Ball, Simplex

PORTFOLIO_CLAMP = 0.01
DEFAULT_RADIUS = 10.0

# z is recomputed as A x after this many carried moves ...
REFRESH_INTERVAL = 100
# ... and may then differ from it by at most DRIFT_RTOL * max|a_ij| * reach,
# reach being the largest l1 norm among the last exact x and the targets
# since (every carried value is a combination of those).
DRIFT_RTOL = 1e-9
# expm1 overflows above log(max float) = 709.78
_EXPM1_MAX = 709.0
# Every sum is one ndarray.dot: with the oracle's ones(m) for a sum over
# rows, ones(n) for an l1 norm, and with the counts for the Poisson loss's
# weighted sum, whose multiply it absorbs.  At 20 to 200 entries a dot
# costs under half the fixed cost of the ufunc's reduce.  A yes/no test (a
# domain test, a guard of `_change`) reads the one element that argmin or
# argmax picks, z[z.argmin()] > 0 for min(z) > 0: each picks the first
# NaN, so the test rejects a NaN as the reduction did, for under half of
# the reduction's fixed cost.


class GlmOracle(ScOracle):
    """f(x) = sum_i phi_i(a_i . x) + (gamma/2)|x|^2 over the rows a_i of a matrix.

    Subclasses call ``_set_matrix`` (m x n data, m >= 1) before any check
    of the entries' signs, so that a NaN or an inf gets its own message,
    set ``M`` and, when there is a quadratic term, ``gamma``, and define
    phi on the image z = A x: ``_domain(z)``, ``_loss(z)`` (the sum over rows, called on
    the domain only), ``_derivatives(z)``, a tuple led by the per-row
    phi' and phi'' (called on the domain only), and
    ``_change(z, av, alpha, derivatives)``, the loss at z + alpha av minus
    the loss at z, formed without their cancellation, or +inf where
    z + alpha av leaves the domain (called with z on the domain and its
    ``_derivatives`` tuple).
    The four methods evaluate from z alone, f and the gradient with the
    arithmetic of :class:`GlmPoint`; the solvers move one point along the run.
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
        # the sums over rows and the l1 norms of points are dots with these
        self._ones = np.ones(matrix.shape[0])
        self._ones_dim = np.ones(self.dim)

    def point(self, x):
        return GlmPoint(self, np.asarray(x, dtype=float))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        z = self.matrix @ x
        return self._objective(z, x) if self._domain(z) else np.inf

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return self._gradient(self._derivatives_at(x, "gradient")[0], x)

    def hess_vec(self, x, u):
        """A^T (phi''(z) * A u) + gamma u."""
        d2 = self._derivatives_at(np.asarray(x, dtype=float), "hess_vec")[1]
        u = np.asarray(u, dtype=float)
        a = self.matrix
        hv = a.T @ (d2 * (a @ u))
        return hv + self.gamma * u if self.gamma else hv

    def in_domain(self, x):
        return bool(self._domain(self.matrix @ np.asarray(x, dtype=float)))

    def _derivatives_at(self, x, what):
        z = self.matrix @ x
        if not self._domain(z):
            raise DomainError(f"{what}: point outside the objective domain")
        return self._derivatives(z)

    def _gradient(self, d1, x):
        """A^T phi'(z) + gamma x."""
        g = self.matrix.T @ d1
        return g + self.gamma * x if self.gamma else g

    def _objective(self, z, x):
        """f from z = A x; z must lie in the domain."""
        f = float(self._loss(z))
        return f + 0.5 * self.gamma * float(x.dot(x)) if self.gamma else f


class GlmPoint(OraclePoint):
    """An :class:`OraclePoint` of a :class:`GlmOracle` that carries z = A x.

    A move to x + alpha (s - x) updates z <- z + alpha A (s - x):
    a vertex (i, value) of the feasible set, and a dense local-oracle
    target with at most one nonzero, which is such a vertex, cost one
    scaled column, value a_i; any other dense target costs one full product.
    Domain tests, f, local norms, trial changes and probes of the two
    derivatives along the line then cost O(m); the gradient's
    A^T phi'(z) is the one full pass over the data per iterate, and the
    dense Hessian (``hessian()``) one Gram product.  After
    REFRESH_INTERVAL carried moves, and on ``refreshed()``, z is
    recomputed as A x; a carried z that drifted beyond DRIFT_RTOL raises
    InvariantError.
    Inside the domain the tuple ``_derivatives(z)`` is set with f, and
    ``slope`` reads it at t = 0.
    x is a float array: ``GlmOracle.point`` converts its argument.
    """

    def __init__(self, oracle, x, z=None, age=0, reach=None):
        self.oracle = oracle
        self.x = x
        self.z = oracle.matrix @ x if z is None else z
        self.age = age
        self.reach = float(np.abs(x).dot(oracle._ones_dim)) if reach is None else reach
        self.in_domain = bool(oracle._domain(self.z))
        if self.in_domain:
            self.f = oracle._objective(self.z, self.x)
            self._derivatives = oracle._derivatives(self.z)
        else:
            self.f = np.inf

    def _gradient_at(self):
        self._require_domain("gradient")
        return self.oracle._gradient(self._derivatives[0], self.x)

    def hessian(self):
        # B^T B for B = diag(sqrt(phi'')) A (phi'' >= 0 in every family):
        # numpy makes a product of an array with its own transpose one
        # symmetric rank-k update, exactly symmetric at half the flops
        self._require_domain("hessian")
        b = self.oracle.matrix * np.sqrt(self._derivatives[1])[:, None]
        h = b.T @ b
        gamma = self.oracle.gamma
        if gamma:
            h[np.diag_indices_from(h)] += gamma
        return h

    def _image_of(self, target):
        """(v, A v, |target|_1) for v = target - x."""
        a = self.oracle.matrix
        if not isinstance(target, tuple):
            s = np.asarray(target, dtype=float)
            support = np.flatnonzero(s)
            if support.size > 1:
                v = s - self.x
                return v, a @ v, float(np.abs(s).dot(self.oracle._ones_dim))
            # at most one nonzero: the vertex (i, s_i), or (0, 0.0) for none
            i = int(support[0]) if support.size else 0
            target = (i, float(s[i]))
        i, value = target
        # value * a_i is a_i itself at value 1 (each simplex vertex)
        col = a[:, i] if value == 1.0 else value * a[:, i]
        return vertex_direction(self.x, target), col - self.z, abs(value)

    def norm_to(self, target):
        self._require_domain("norm_to")
        v, av, _ = self._image(target)
        # ndarray.dot is np.dot without its dispatch wrapper
        q = float(self._derivatives[1].dot(av * av))
        gamma = self.oracle.gamma
        if gamma:
            q += gamma * float(v.dot(v))
        return math.sqrt(q)

    def change(self, alpha, target):
        """f(x + alpha v) - f(x) from z and A v, in O(m): the family's
        ``_change`` plus gamma (alpha <x, v> + alpha^2 |v|^2 / 2), without
        the cancellation of f(y) - f(x); +inf outside the domain."""
        self._require_domain("change")
        v, av, _ = self._image(target)
        oracle = self.oracle
        d = float(oracle._change(self.z, av, alpha, self._derivatives))
        if oracle.gamma:
            d += oracle.gamma * alpha * (float(self.x.dot(v)) + 0.5 * alpha * float(v.dot(v)))
        return d

    def slope(self, target):
        v, av, _ = self._image(target)
        oracle, z = self.oracle, self.z
        av2 = av * av
        gamma = oracle.gamma
        if gamma:
            xv, vv = float(self.x.dot(v)), float(v.dot(v))

        def derivatives(t):
            if t == 0.0:
                # z + 0 A v is z: the point's own tuple, or None off the domain
                if not self.in_domain:
                    return None
                d1, d2 = self._derivatives[:2]
            else:
                y = z + t * av
                if not oracle._domain(y):
                    return None
                d1, d2 = oracle._derivatives(y)[:2]
            p1, p2 = float(d1.dot(av)), float(d2.dot(av2))
            if gamma:
                return p1 + gamma * (xv + t * vv), p2 + gamma * vv
            return p1, p2

        return derivatives

    def move(self, alpha, target):
        v, av, s_norm = self._image(target)
        x, z = self.x + alpha * v, self.z + alpha * av
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
        self._set_matrix(returns)
        if not np.all(returns > 0.0):
            raise ValueError("returns matrix must be strictly positive")
        self.M = 2.0

    @property
    def returns(self):
        return self.matrix

    def _domain(self, z):
        return z[z.argmin()] > 0.0

    def _loss(self, z):
        return -np.log(z).dot(self._ones)

    def _derivatives(self, z):
        return -1.0 / z, 1.0 / (z * z)

    def _change(self, z, av, alpha, derivatives):
        # r > -1 is the trial's domain test: it implies z + alpha av > 0
        r = alpha * av / z
        return -np.log1p(r).dot(self._ones) if r[r.argmin()] > -1.0 else np.inf


class PoissonOracle(GlmOracle):
    """f(x) = sum_i w_i . x - sum_i y_i ln(w_i . x) for counts y >= 0.

    Rows with y_i = 0 contribute only the linear part and impose no
    positivity constraint.  When every count is positive, as in every
    problem the benchmark builds, the family's methods work on z whole;
    only an oracle with a zero count selects and scatters its rows.
    """

    def __init__(self, weights, counts):
        weights = np.ascontiguousarray(weights, dtype=float)
        counts = np.ascontiguousarray(counts, dtype=float)
        if weights.ndim != 2 or counts.shape != (weights.shape[0],):
            raise ValueError("weights must be m x n with one count per row")
        self._set_matrix(weights)
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if not np.isfinite(counts).all() or np.any(counts < 0.0) or np.any(counts != np.floor(counts)):
            raise ValueError("counts must be nonnegative integers")
        pos = counts > 0
        if np.any(~np.any(weights[pos] > 0.0, axis=1)):
            raise ValueError("every row with a positive count needs a positive entry")
        self.counts = counts
        # rows with a positive count; None when that is every row
        self._rows = None if np.all(pos) else np.flatnonzero(pos)
        self._y = counts if self._rows is None else counts[self._rows]
        # linear objective when every count is zero; curvature then vacuous
        self.M = float(np.max(2.0 / np.sqrt(counts[pos]))) if np.any(pos) else 2.0

    @property
    def weights(self):
        return self.matrix

    def _domain(self, z):
        zp = z if self._rows is None else z[self._rows]
        return zp.size == 0 or zp[zp.argmin()] > 0.0

    def _loss(self, z):
        zp = z if self._rows is None else z[self._rows]
        return z.dot(self._ones) - np.log(zp).dot(self._y)

    def _derivatives(self, z):
        # phi' = 1 - y/z and phi'' = y/z^2, both from r = y/z
        rows = self._rows
        if rows is None:
            r = self._y / z
            return 1.0 - r, r / z
        # a row with a zero count is linear: phi' = 1 and phi'' = 0 there
        zp = z[rows]
        r = self._y / zp
        d1 = np.ones_like(z)
        d1[rows] -= r
        d2 = np.zeros_like(z)
        d2[rows] = r / zp
        return d1, d2

    def _change(self, z, av, alpha, derivatives):
        w = alpha * av
        r = w / z if self._rows is None else w[self._rows] / z[self._rows]
        if r.size and not r[r.argmin()] > -1.0:
            return np.inf
        return w.dot(self._ones) - np.log1p(r).dot(self._y)


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
        # -y, the factor of the loss's exponent, and the chain rule's
        # factors of l'(t) and l''(t) through t = y (z + mu), over the count
        m = features.shape[0]
        self._neg_labels = -labels
        self._d1_factor = self._neg_labels / m
        self._d2_factor = labels * labels / m
        self.mu = float(mu)
        self.gamma = float(gamma)
        self.M = float(np.max(np.linalg.norm(features, axis=1)) / np.sqrt(gamma))

    @property
    def features(self):
        return self.matrix

    def _domain(self, z):
        return True

    def _loss(self, z):
        # l(t) = log(1 + exp(-t)) without overflow, t = y (z + mu), averaged
        return np.logaddexp(0.0, self._neg_labels * (z + self.mu)).dot(self._ones) / z.size

    def _derivatives(self, z):
        # l'(t) = -sigmoid(-t) and l''(t) = sigmoid(t) sigmoid(-t), chained
        # through t = y (z + mu).  For e = exp(-|t|) the two sigmoids are
        # big = 1 / (1 + e) and small = e big, so neither is 1 minus the
        # other, which would cancel, and their product is small big for
        # either sign of t
        t = self.labels * (z + self.mu)
        e = np.exp(-np.abs(t))
        big = 1.0 / (1.0 + e)
        small = e * big
        sig_neg = np.where(t >= 0.0, small, big)
        return sig_neg * self._d1_factor, (small * big) * self._d2_factor, sig_neg

    def _change(self, z, av, alpha, derivatives):
        # l(t + s) - l(t) = log1p(sigmoid(-t) expm1(-s)) for s = alpha y av,
        # sigmoid(-t) read from the point's derivatives.
        # Where expm1 would overflow, or the log1p argument nears -1 (a
        # decrease of order one, far above f's rounding), the plain
        # difference serves.
        d = (-alpha) * self.labels * av
        if d[d.argmax()] < _EXPM1_MAX:
            q = derivatives[2] * np.expm1(d)
            if q[q.argmin()] > -0.5:
                return np.log1p(q).dot(self._ones) / q.size
        return self._loss(z + alpha * av) - self._loss(z)


def portfolio_problem(returns):
    oracle = PortfolioOracle(returns)
    return oracle, Simplex(oracle.dim)


def poisson_problem(weights, counts, radius=DEFAULT_RADIUS):
    oracle = PoissonOracle(weights, counts)
    feasible_set = NonnegL1Ball(oracle.dim, radius)
    # the canonical interior start must give a finite objective
    if not oracle.in_domain(feasible_set.start_point()):
        raise ValueError("count rows leave the canonical start outside the domain")
    return oracle, feasible_set


def logistic_problem(features, labels, mu=0.0, gamma=None, radius=DEFAULT_RADIUS):
    oracle = LogisticOracle(features, labels, mu=mu, gamma=gamma)
    return oracle, L1Ball(oracle.dim, radius)


def gen_portfolio_data(T, n, seed):
    """Synthetic price-ratio matrix: 1 + 0.1 * N(0,1), clamped at 0.01.

    Entries come row-major from the counter stream of `seed`, so equal
    (T, n, seed) always reproduce the same matrix bit for bit.  The
    clamp keeps the log-utility objective defined unconditionally; it
    fires with probability ~ Phi(-10) per entry.
    """
    if T < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    # 1 + 0.1 z, clamped, formed in the draw's own array
    z = rng.normals(seed, T * n)
    z *= 0.1
    z += 1.0
    return np.maximum(z, PORTFOLIO_CLAMP, out=z).reshape(T, n)


class ParseError(ValueError):
    pass


INT64_MAX = int(np.iinfo(np.int64).max)


def parse_libsvm(stream):
    """Parse sparse `<label> <idx>:<val> ...` lines into dense rows.

    `stream` is an iterable of lines (an open file works).  Indices are
    1-based, at most the int64 maximum and strictly ascending within a
    line, labels and values finite; blank lines and lines starting with
    '#' are skipped.  Returns (features, labels) with features dense
    N x n, n the largest index seen.

    Each kept line is split once; then all labels, all indices and all
    values are converted with one `float` or `int` map each and checked
    as whole arrays.  A file that fails a conversion or a check goes to
    `_reject_libsvm`, which names its first bad line.  A dense matrix
    numpy refuses or cannot allocate is a ParseError naming the line that
    holds the largest index.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    linenos, label_tokens, counts, parts = [], [], [], []
    for lineno, line in enumerate(stream, start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            linenos.append(lineno)
            label_tokens.append(tokens[0])
            counts.append(len(tokens) - 1)
            # three entries per feature token: the index, ":" ("" when
            # absent) and the value
            parts += chain.from_iterable(map(str.partition, tokens[1:], repeat(":")))
    rows = np.repeat(np.arange(len(counts)), counts)
    try:
        labels = np.fromiter(map(float, label_tokens), float, len(counts))
        idx = np.fromiter(map(int, parts[0::3]), np.int64, len(rows))
        values = np.fromiter(map(float, parts[2::3]), float, len(rows))
    except (ValueError, OverflowError):  # a token `float` or `int` refuses, an index beyond int64
        accepted = False
    else:
        same_line = rows[1:] == rows[:-1]
        accepted = (
            np.isfinite(labels).all()
            and np.isfinite(values).all()
            and (idx > 0).all()
            and (idx[1:] > idx[:-1])[same_line].all()
        )
    if not accepted:
        _reject_libsvm(linenos, label_tokens, counts, parts)
    try:
        features = np.zeros((len(counts), idx.max(initial=0)))
    except (ValueError, MemoryError):  # numpy refuses the size ("array is too big") or cannot allocate it
        top = idx.argmax()
        raise ParseError(
            f"line {linenos[rows[top]]}: index {idx[top]} makes the dense matrix "
            f"{len(counts)} x {idx[top]}, which numpy cannot allocate"
        ) from None
    features[rows, idx - 1] = values
    return features, labels


def _reject_libsvm(linenos, label_tokens, counts, parts):
    """Raise the ParseError of the first bad line of a file that
    `parse_libsvm` rejects, its rules checked one line at a time in
    file order."""
    triples = zip(*[iter(parts)] * 3)
    for lineno, label_s, count in zip(linenos, label_tokens, counts):
        try:
            label = float(label_s)
        except ValueError:
            raise ParseError(f"line {lineno}: bad label {label_s!r}") from None
        if not math.isfinite(label):
            raise ParseError(f"line {lineno}: non-finite label {label_s!r}")
        prev = 0
        for idx_s, sep, val_s in islice(triples, count):
            tok = idx_s + sep + val_s
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value in {tok!r}")
            if idx <= 0:
                raise ParseError(f"line {lineno}: index {idx} must be positive")
            if idx > INT64_MAX:
                raise ParseError(f"line {lineno}: index {idx} exceeds the int64 maximum")
            if idx <= prev:
                raise ParseError(f"line {lineno}: indices must be strictly ascending")
            prev = idx
    raise AssertionError("parse_libsvm rejected a file whose every line passes")


def format_libsvm(features, labels):
    """Serialize dense rows back to the sparse text format (nonzeros only);
    labels and values in 17 significant digits, so `parse_libsvm` reads
    back the same floats."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    lines = []
    for row, label in zip(features, labels):
        parts = ["%+.17g" % label]
        for j in np.nonzero(row)[0]:
            parts.append(f"{j + 1}:{format(row[j], '.17g')}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_returns_csv(path, returns, seed):
    """Write a synthetic returns matrix: header line `T,n,seed`, then rows."""
    returns = np.asarray(returns, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{returns.shape[0]},{returns.shape[1]},{seed}\n")
        np.savetxt(fh, returns, fmt="%.17g", delimiter=",")


def load_returns_csv(path):
    """Read back a returns matrix; returns (matrix, seed)."""
    with open(path) as fh:
        header = fh.readline().strip()
        fields = header.split(",")
        if len(fields) != 3:
            raise ValueError("returns CSV must start with a `T,n,seed` line")
        try:
            T, n, seed = map(int, fields)
        except ValueError:
            raise ValueError(f"returns CSV header {header!r} is not a `T,n,seed` line of integers") from None
        with warnings.catch_warnings():
            # a body without rows is the shape check's error, not numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (T, n):
        raise ValueError(f"returns CSV body {data.shape} does not match header ({T}, {n})")
    return data, seed


def gen_binary_design(m, n, density, seed):
    """Synthetic 0/1 design matrix with at least one active column per row."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    u = rng.uniforms(seed, m * n).reshape(m, n)
    w = (u < density).astype(float)
    empty = np.flatnonzero(~w.any(axis=1))
    w[empty, empty % n] = 1.0
    return w


def gen_logistic_data(N, n, seed):
    """Synthetic classification data: normal features, separator labels."""
    if N < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    feats = rng.normals(seed, N * n).reshape(N, n)
    plane = rng.normals(seed + 1, n)
    margins = feats @ plane
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    return feats, labels
