"""The GLM oracle's point against the four-method reference path.

The reference oracle below evaluates each family with the closed-form
numpy formulas, one fresh A x per call; the base-class point built on
it is the path every custom oracle takes.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from condgrad import problems
from condgrad.cli import run_one
from condgrad.core import InvariantError, ScOracle
from condgrad.lloo import lloo_simplex
from condgrad.problems import (
    DRIFT_RTOL,
    REFRESH_INTERVAL,
    GlmPoint,
    gen_binary_design,
    gen_logistic_data,
    gen_portfolio_data,
    logistic_problem,
    poisson_problem,
    portfolio_problem,
)
from condgrad.solvers import POLICIES, RunConfig, estimate_sigma, fw_solve, lloo_fw_solve

KINDS = ("portfolio", "poisson", "logistic")


class ReferenceOracle(ScOracle):
    """The family's f, gradient and Hessian product in closed form."""

    def __init__(self, kind, glm):
        self.kind = kind
        self.a = np.asarray(glm.matrix)
        self.glm = glm
        self.dim = glm.dim
        self.M = glm.M

    def _z(self, x):
        return self.a @ np.asarray(x, dtype=float)

    def in_domain(self, x):
        z = self._z(x)
        if self.kind == "portfolio":
            return bool(np.min(z) > 0.0)
        if self.kind == "poisson":
            pos = self.glm.counts > 0
            return not np.any(pos) or bool(np.min(z[pos]) > 0.0)
        return True

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if not self.in_domain(x):
            return np.inf
        z = self._z(x)
        if self.kind == "portfolio":
            return -float(np.sum(np.log(z)))
        if self.kind == "poisson":
            y = self.glm.counts
            pos = y > 0
            return float(np.sum(z) - np.sum(y[pos] * np.log(z[pos])))
        t = self.glm.labels * (z + self.glm.mu)
        loss = np.where(t >= 0.0, np.log1p(np.exp(-np.abs(t))), -t + np.log1p(np.exp(-np.abs(t))))
        return float(np.mean(loss) + 0.5 * self.glm.gamma * np.dot(x, x))

    def _weights(self, z):
        """(phi'(z), phi''(z)) per row."""
        if self.kind == "portfolio":
            return -1.0 / z, 1.0 / (z * z)
        if self.kind == "poisson":
            y = self.glm.counts
            pos = y > 0
            d1, d2 = np.ones_like(z), np.zeros_like(z)
            d1[pos] -= y[pos] / z[pos]
            d2[pos] = y[pos] / (z[pos] * z[pos])
            return d1, d2
        y = self.glm.labels
        t = y * (z + self.glm.mu)
        sig = 1.0 / (1.0 + np.exp(-t))
        return (sig - 1.0) * y / z.shape[0], sig * (1.0 - sig) * y * y / z.shape[0]

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return self.a.T @ self._weights(self._z(x))[0] + self.glm.gamma * x

    def hess_vec(self, x, u):
        u = np.asarray(u, dtype=float)
        return self.a.T @ (self._weights(self._z(x))[1] * (self.a @ u)) + self.glm.gamma * u


class FourMethods(ScOracle):
    """Only the four methods of `inner`, so the solvers take the default point."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.M = inner.M

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        return self.inner.gradient(x)

    def hess_vec(self, x, u):
        return self.inner.hess_vec(x, u)

    def in_domain(self, x):
        return self.inner.in_domain(x)


def test_oracle_point_outside_the_domain_makes_no_value_call():
    oracle = portfolio_problem(gen_portfolio_data(6, 3, 0)).oracle
    counted = FourMethods(oracle)
    calls = {"value": 0}

    def value(x):
        calls["value"] += 1
        return oracle.value(x)

    counted.value = value
    outside = counted.point(np.array([-1.0, 0.0, 0.0]))
    assert not outside.in_domain and outside.f == np.inf
    assert calls["value"] == 0
    x = np.full(3, 1.0 / 3.0)
    inside = counted.point(x)
    assert inside.in_domain and inside.f == oracle.value(x)
    assert calls["value"] == 1


def make_instance(kind, m, n, seed):
    """(oracle, feasible set) of a random instance of the family."""
    gen = np.random.default_rng(seed)
    if kind == "portfolio":
        p = portfolio_problem(gen_portfolio_data(m, n, seed))
    elif kind == "poisson":
        counts = np.floor(gen.uniform(0.0, 3.0, size=m))
        p = poisson_problem(gen_binary_design(m, n, 0.3, seed), counts, radius=float(gen.uniform(1.0, 10.0)))
    else:
        feats, labels = gen_logistic_data(m, n, seed)
        p = logistic_problem(feats, labels, mu=float(gen.normal()), radius=float(gen.uniform(1.0, 10.0)))
    return p.oracle, p.feasible_set


def feasible_point(kind, fs, gen):
    """A feasible point strictly inside the objective's domain."""
    n = fs.dim
    w = 0.02 / n + 0.98 * gen.dirichlet(np.ones(n))
    if kind == "portfolio":
        return w
    if kind == "poisson":
        return fs.radius * gen.uniform(0.05, 1.0) * w
    return fs.radius * gen.uniform(0.0, 1.0) * w * gen.choice([-1.0, 1.0], size=n)


def random_target(kind, fs, x, gen):
    """A vertex, a local-oracle point (simplex) or any feasible point."""
    pick = gen.integers(3)
    if pick == 0:
        verts = fs.vertices()
        return verts[gen.integers(len(verts))]
    if pick == 1 and kind == "portfolio":
        return lloo_simplex(x, 10.0 ** gen.uniform(-3.0, 0.0), gen.normal(size=fs.dim))
    return feasible_point(kind, fs, gen)


def assert_close(a, b, rel=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.all(np.isinf(b)):
        assert np.array_equal(a, b)
        return
    scale = max(1.0, float(np.max(np.abs(b))))
    assert float(np.max(np.abs(a - b))) <= rel * scale


instances = st.tuples(
    st.sampled_from(KINDS),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**16),
)


class TestPointMatchesReference:
    @given(instances)
    def test_point_quantities(self, inst):
        kind, m, n, seed = inst
        oracle, fs = make_instance(kind, m, n, seed)
        reference = ReferenceOracle(kind, oracle)
        gen = np.random.default_rng(seed + 1)
        x = feasible_point(kind, fs, gen)
        glm, ref = oracle.point(x), reference.point(x)
        assert isinstance(glm, GlmPoint)
        assert glm.in_domain == ref.in_domain
        assert_close(glm.f, ref.f)
        assert_close(glm.gradient, ref.gradient)
        u = gen.normal(size=n)
        assert_close(glm.hess_vec(u), ref.hess_vec(u))
        for _ in range(3):
            target = random_target(kind, fs, x, gen)
            assert_close(glm.norm_to(target), ref.norm_to(target))
            line, ref_line = glm.line(target), ref.line(target)
            for t in (0.0, 1e-3, 0.5, 1.0):
                assert_close(line(t), ref_line(t))

    @given(instances)
    def test_four_methods(self, inst):
        kind, m, n, seed = inst
        oracle, fs = make_instance(kind, m, n, seed)
        reference = ReferenceOracle(kind, oracle)
        gen = np.random.default_rng(seed + 2)
        x = feasible_point(kind, fs, gen)
        u = gen.normal(size=n)
        assert oracle.in_domain(x) == reference.in_domain(x)
        assert_close(oracle.value(x), reference.value(x))
        assert_close(oracle.gradient(x), reference.gradient(x))
        assert_close(oracle.hess_vec(x, u), reference.hess_vec(x, u))


def reference_hessian(oracle, x):
    h = np.column_stack([oracle.hess_vec(x, e) for e in np.eye(oracle.dim)])
    return 0.5 * (h + h.T)


class TestSigma:
    """`estimate_sigma` is the smallest eigenvalue of the reference Hessian,
    relative to the spectrum's scale (a singular Hessian has lambda_min ~ 0)."""

    @given(instances)
    @example(("portfolio", 50, 20, 7))
    @example(("portfolio", 50, 20, 1))
    def test_smallest_hessian_eigenvalue(self, inst):
        kind, m, n, seed = inst
        oracle, fs = make_instance(kind, m, n, seed)
        reference = ReferenceOracle(kind, oracle)
        gen = np.random.default_rng(seed + 4)
        for x in (fs.start_point(), feasible_point(kind, fs, gen)):
            h = reference_hessian(reference, x)
            lam = np.linalg.eigvalsh(h)
            scale = max(float(np.max(np.abs(lam))), 1e-300)
            sigma = estimate_sigma(oracle, x)
            assert abs(sigma - lam[0]) <= 1e-9 * scale
            for u in gen.normal(size=(5, n)):
                assert sigma <= float(u @ h @ u) / float(u @ u) + 1e-12 * scale


class TestCarriedImage:
    @given(instances, st.integers(min_value=1, max_value=2 * REFRESH_INTERVAL + 5))
    def test_drift_stays_within_tolerance(self, inst, moves):
        kind, m, n, seed = inst
        oracle, fs = make_instance(kind, m, n, seed)
        gen = np.random.default_rng(seed + 3)
        point = oracle.point(feasible_point(kind, fs, gen))
        for _ in range(moves):
            # alpha < 1 keeps a strictly positive x, so every point stays in the domain
            point = point.move(float(gen.uniform(0.0, 0.999)), random_target(kind, fs, point.x, gen))
            drift = float(np.max(np.abs(point.z - oracle.matrix @ point.x)))
            assert drift <= DRIFT_RTOL * oracle._amax * point.reach
            assert point.age < REFRESH_INTERVAL

    @pytest.mark.parametrize("kind", KINDS)
    def test_corrupted_image_raises_at_refresh(self, kind):
        oracle, fs = make_instance(kind, 30, 6, 5)
        gen = np.random.default_rng(9)
        point = oracle.point(feasible_point(kind, fs, gen)).move(0.5, fs.vertices()[1])
        assert point.age == 1
        point.z[0] += 1e-6 * (1.0 + abs(point.z[0]))
        with pytest.raises(InvariantError):
            point.refreshed()
        # short steps: a step alpha scales the carried error by 1 - alpha
        with pytest.raises(InvariantError):
            for _ in range(REFRESH_INTERVAL):
                point = point.move(1e-3, fs.vertices()[0])


def small_cases():
    """(kind, oracle, set) of one small instance per family."""
    cases = []
    for kind, (m, n, seed) in zip(KINDS, ((30, 8, 3), (40, 8, 4), (40, 8, 5))):
        oracle, fs = make_instance(kind, m, n, seed)
        cases.append((kind, oracle, fs))
    return cases


class TestRunsMatchFourMethodPath:
    @pytest.mark.parametrize("kind,oracle,fs", small_cases(), ids=KINDS)
    @pytest.mark.parametrize("method", POLICIES + ("lloo",))
    def test_same_run(self, kind, oracle, fs, method):
        if method == "lloo" and fs.kind != "simplex":
            pytest.skip("the local oracle runs on the simplex only")
        glm = run_one(oracle, fs, method, 1e-7, 400)
        ref = run_one(FourMethods(oracle), fs, method, 1e-7, 400)
        assert glm.termination == ref.termination
        assert len(glm.records) == len(ref.records)
        f_glm = np.array([r.f for r in glm.records])
        f_ref = np.array([r.f for r in ref.records])
        # The golden section narrows to 1e-10, below the resolution of f
        # along the line near its minimum (~sqrt(1e-16 |f| / f'')), so
        # rounding picks the winning probe there and line-search runs
        # agree to that resolution only.
        rel = 1e-7 if method == "line_search" else 1e-10
        assert np.all(np.abs(f_glm - f_ref) <= rel * np.maximum(1.0, np.abs(f_ref)))


def counting(matrix):
    """A view of `matrix` counting full-size products with it (either
    orientation); returns (view, counter dict)."""
    counts = {"products": 0}
    full = {matrix.shape, matrix.shape[::-1]}

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(isinstance(a, Counting) and a.shape in full for a in inputs):
                counts["products"] += 1
            plain = [a.view(np.ndarray) if isinstance(a, Counting) else a for a in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    return matrix.view(Counting), counts


class TestPassCounts:
    """Full passes over the data matrix per run, counted at the matrix."""

    @pytest.fixture
    def desk(self):
        problem = portfolio_problem(gen_portfolio_data(50, 20, 7))
        view, counts = counting(problem.oracle.matrix)
        problem.oracle.matrix = view
        return problem.oracle, problem.feasible_set, counts

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_pass_per_iteration(self, desk, policy):
        oracle, fs, counts = desk
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-14, max_iter=250, policy=policy))
        assert trace.termination in ("max_iter", "stalled")
        iters = trace.records[-1].k
        assert iters >= 20
        # the start image, one gradient per row, the refreshes, and for
        # backtracking the gradient at init_lipschitz's probe
        bound = 1 + (iters + 1) + iters // REFRESH_INTERVAL + (policy == "backtracking")
        assert counts["products"] <= bound

    def test_one_pass_per_lloo_iteration(self, desk):
        oracle, fs, counts = desk
        sigma = estimate_sigma(oracle, fs.start_point())
        counts["products"] = 0
        iters = 250
        config = RunConfig(epsilon=1e-14, max_iter=iters, policy="lloo")
        trace = lloo_fw_solve(oracle, lloo_simplex, config, sigma)
        assert trace.termination == "max_iter"
        assert counts["products"] <= 1 + (iters + 1) + iters // REFRESH_INTERVAL

    def test_gap_termination_refreshes_once(self, desk):
        oracle, fs, counts = desk
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-3, max_iter=5000, policy="analytic"))
        assert trace.termination == "gap_below_eps"
        iters = trace.records[-1].k
        # plus the exact image and its gradient before the gap is accepted
        assert counts["products"] <= 1 + (iters + 1) + iters // REFRESH_INTERVAL + 2

    def test_two_passes_per_sigma_hessian_product(self, desk, monkeypatch):
        oracle, fs, counts = desk
        calls = {"hess_vec": 0}
        original = GlmPoint.hess_vec

        def counted(self, u):
            calls["hess_vec"] += 1
            return original(self, u)

        monkeypatch.setattr(problems.GlmPoint, "hess_vec", counted)
        estimate_sigma(oracle, fs.start_point())
        assert calls["hess_vec"] == oracle.dim
        assert counts["products"] == 1 + 2 * calls["hess_vec"]

    def test_one_domain_test_per_iterate(self, desk, monkeypatch):
        # f reads the flag in_domain cached; line probes test on their own
        oracle, fs, _ = desk
        calls = {"domain": 0}
        original = oracle._domain

        def domain(z):
            calls["domain"] += 1
            return original(z)

        monkeypatch.setattr(oracle, "_domain", domain)
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-3, max_iter=5000, policy="analytic"))
        assert trace.termination == "gap_below_eps"
        # one per iterate, plus the refreshed point before the gap is accepted
        assert calls["domain"] <= len(trace.records) + 1

    def test_one_loss_and_derivative_pair_per_point(self, desk, monkeypatch):
        # the twin of the domain test count: f and (phi', phi'') are formed
        # once per point made; the analytic policy makes no line probes
        oracle, fs, _ = desk
        calls = {"points": 0, "_loss": 0, "_derivatives": 0}
        init = GlmPoint.__init__

        def counted_init(self, *args, **kwargs):
            calls["points"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(GlmPoint, "__init__", counted_init)
        for name in ("_loss", "_derivatives"):
            def counted(z, name=name, original=getattr(oracle, name)):
                calls[name] += 1
                return original(z)

            monkeypatch.setattr(oracle, name, counted)
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-3, max_iter=5000, policy="analytic"))
        assert trace.termination == "gap_below_eps"
        assert calls["points"] >= len(trace.records)
        assert calls["_loss"] == calls["_derivatives"] == calls["points"]

    def test_one_hessian_product_per_lloo_iteration(self, desk):
        # through the four methods: the local point's distance on every
        # row, the vertex's on the termination row only
        oracle, fs, _ = desk
        sigma = estimate_sigma(oracle, fs.start_point())
        counted = FourMethods(oracle)
        calls = {"hess_vec": 0}

        def hess_vec(x, u):
            calls["hess_vec"] += 1
            return oracle.hess_vec(x, u)

        counted.hess_vec = hess_vec
        iters = 300
        config = RunConfig(epsilon=1e-14, max_iter=iters, policy="lloo")
        trace = lloo_fw_solve(counted, lloo_simplex, config, sigma)
        assert trace.termination == "max_iter"
        assert calls["hess_vec"] <= iters + 1
