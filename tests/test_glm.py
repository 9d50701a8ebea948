"""The GLM oracle's point against the four-method reference path.

The reference oracle below evaluates each family with the closed-form
numpy formulas, one fresh A x per call; the base-class point built on
it is the path every custom oracle takes.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from condgrad import problems
from condgrad.cli import run_one
from condgrad.core import DomainError, InvariantError, OraclePoint, ScOracle, dist_like, gap_and_target
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
from condgrad.steps import analytic_step, exact_line_search

from conftest import DATA_DIR, FourCalls, vertices

KINDS = ("portfolio", "poisson", "logistic")
EPS = float(np.finfo(float).eps)


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


def test_oracle_point_outside_the_domain_makes_no_value_call():
    oracle, _ = portfolio_problem(gen_portfolio_data(6, 3, 0))
    counted = FourCalls(oracle)
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


@pytest.mark.parametrize("kind", KINDS)
def test_value_and_domain_test_form_no_derivative_pair(kind, monkeypatch):
    # both answer from z = A x alone; a point would also form (phi', phi'')
    oracle, fs = make_instance(kind, 30, 6, 5)
    inside = fs.start_point()
    points = [(inside, True, oracle.point(inside).f)]
    if kind != "logistic":
        # the logistic domain is all of R^n
        outside = -inside if kind == "portfolio" else np.zeros(fs.dim)
        points.append((outside, False, np.inf))
    calls = {"_derivatives": 0}
    original = oracle._derivatives

    def derivatives(z):
        calls["_derivatives"] += 1
        return original(z)

    monkeypatch.setattr(oracle, "_derivatives", derivatives)
    for x, in_domain, f in points:
        assert oracle.in_domain(x) is in_domain
        assert oracle.value(x) == f
    assert calls["_derivatives"] == 0


@pytest.mark.parametrize("kind", KINDS)
def test_gradient_and_hessian_product_form_no_loss(kind, monkeypatch):
    # both answer from z = A x, the gradient with the point's arithmetic;
    # a point would also form f
    oracle, fs = make_instance(kind, 30, 6, 5)
    x = fs.start_point()
    u = np.random.default_rng(5).normal(size=fs.dim)
    point = oracle.point(x)
    calls = {"_loss": 0}
    original = oracle._loss

    def loss(z):
        calls["_loss"] += 1
        return original(z)

    monkeypatch.setattr(oracle, "_loss", loss)
    assert oracle.gradient(x).tobytes() == point.gradient.tobytes()
    assert_close(oracle.hess_vec(x, u), point.hessian() @ u)
    assert calls["_loss"] == 0
    if kind != "logistic":
        outside = -x if kind == "portfolio" else np.zeros(fs.dim)
        with pytest.raises(DomainError):
            oracle.gradient(outside)
        with pytest.raises(DomainError):
            oracle.hess_vec(outside, u)


def make_instance(kind, m, n, seed):
    """(oracle, feasible set) of a random instance of the family."""
    gen = np.random.default_rng(seed)
    if kind == "portfolio":
        return portfolio_problem(gen_portfolio_data(m, n, seed))
    if kind == "poisson":
        counts = np.floor(gen.uniform(0.0, 3.0, size=m))
        return poisson_problem(gen_binary_design(m, n, 0.3, seed), counts, radius=float(gen.uniform(1.0, 10.0)))
    feats, labels = gen_logistic_data(m, n, seed)
    return logistic_problem(feats, labels, mu=float(gen.normal()), radius=float(gen.uniform(1.0, 10.0)))


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
        verts = vertices(fs)
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
        assert_close(glm.hessian() @ u, reference.hess_vec(x, u))
        for _ in range(3):
            target = random_target(kind, fs, x, gen)
            assert_close(glm.norm_to(target), ref.norm_to(target))
            for t in (0.0, 1e-3, 0.5, 1.0):
                assert_close(glm.move(t, target).f, ref.move(t, target).f)

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


def reference_hessian(reference, x):
    """The base point's column loop over the closed-form Hessian products."""
    return reference.point(x).hessian()


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

    @given(instances)
    @example(("poisson", 40, 8, 4))  # rows with zero count, where phi'' = 0
    @example(("logistic", 30, 6, 2))
    def test_gram_hessian_matches_reference(self, inst):
        kind, m, n, seed = inst
        oracle, fs = make_instance(kind, m, n, seed)
        reference = ReferenceOracle(kind, oracle)
        gen = np.random.default_rng(seed + 5)
        for x in (fs.start_point(), feasible_point(kind, fs, gen)):
            h = oracle.point(x).hessian()
            ref = reference_hessian(reference, x)
            scale = max(float(np.max(np.abs(np.linalg.eigvalsh(ref)))), 1e-300)
            assert np.array_equal(h, h.T)
            assert float(np.max(np.abs(h - ref))) <= 1e-12 * scale


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
        point = oracle.point(feasible_point(kind, fs, gen)).move(0.5, vertices(fs)[1])
        assert point.age == 1
        point.z[0] += 1e-6 * (1.0 + abs(point.z[0]))
        with pytest.raises(InvariantError):
            point.refreshed()
        # short steps: a step alpha scales the carried error by 1 - alpha
        with pytest.raises(InvariantError):
            for _ in range(REFRESH_INTERVAL):
                point = point.move(1e-3, vertices(fs)[0])


class TestChange:
    """`GlmPoint.change` is f(x + alpha v) - f(x), formed from z and A v."""

    @given(instances, st.floats(min_value=1e-3, max_value=1.0))
    def test_matches_the_difference_of_two_values(self, inst, alpha):
        # the Poisson instances have zero-count rows, the logistic ones a gamma term
        kind, m, n, seed = inst
        oracle, fs = make_instance(kind, m, n, seed)
        gen = np.random.default_rng(seed + 5)
        point = oracle.point(feasible_point(kind, fs, gen))
        for _ in range(3):
            target = random_target(kind, fs, point.x, gen)
            trial = point.move(alpha, target)
            change = point.change(alpha, target)
            if not trial.in_domain:
                assert change == np.inf
                continue
            # the plain difference carries the rounding of two sums of m
            # terms, each off by about eps (1 + |term|)
            plain = trial.f - point.f
            scale = m * max(1.0, abs(point.f), abs(trial.f))
            assert abs(change - plain) <= 1e-9 * abs(plain) + 4 * EPS * scale

    @given(instances, st.floats(min_value=-12.0, max_value=-3.0))
    def test_a_descent_step_has_a_negative_change(self, inst, log_alpha):
        # any alpha up to the analytic step lowers f, by at least its model
        # decrease; the change sees that decrease below f's rounding
        kind, m, n, seed = inst
        oracle, fs = make_instance(kind, m, n, seed)
        point = oracle.point(feasible_point(kind, fs, np.random.default_rng(seed + 6)))
        gap, target = gap_and_target(fs, point)
        assume(gap > 1e-6)
        cap, _ = analytic_step(gap, dist_like(point, target), oracle.M)
        alpha = min(10.0**log_alpha, cap)
        assert point.change(alpha, target) < 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_sees_a_decrease_the_plain_difference_rounds_away(self, kind):
        oracle, fs = make_instance(kind, 40, 8, 3)
        point = oracle.point(fs.start_point())
        gap, target = gap_and_target(fs, point)
        # a decrease of a tenth of f's rounding unit
        alpha = 0.1 * EPS * abs(point.f) / gap
        assert point.move(alpha, target).f == point.f
        assert point.change(alpha, target) == pytest.approx(-alpha * gap, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "x, target",
        [(500.0, -1000.0), (-50.0, 100.0)],
        ids=["expm1-overflows", "log1p-argument-near-minus-one"],
    )
    def test_logistic_falls_back_to_the_plain_difference(self, x, target):
        # one row, label 1: the step moves the margin t = x by target - x
        oracle, _ = logistic_problem(np.ones((1, 1)), np.ones(1), radius=1000.0)
        point = oracle.point(np.array([x]))
        change = point.change(1.0, np.array([target]))
        assert change == pytest.approx(point.move(1.0, np.array([target])).f - point.f, rel=1e-12)


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
        ref = run_one(FourCalls(oracle), fs, method, 1e-7, 400)
        assert glm.termination == ref.termination
        assert len(glm.records) == len(ref.records)
        f_glm = np.array([r.f for r in glm.records])
        f_ref = np.array([r.f for r in ref.records])
        assert np.all(np.abs(f_glm - f_ref) <= 1e-10 * np.maximum(1.0, np.abs(f_ref)))


def counting(matrix):
    """A view of `matrix` counting full-size products with it (either
    orientation), or with a full-size array computed from it elementwise,
    such as a row-scaled copy; returns (view, counter dict)."""
    counts = {"products": 0}
    full = {matrix.shape, matrix.shape[::-1]}

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(isinstance(a, Counting) and a.shape in full for a in inputs):
                counts["products"] += 1
            plain = [a.view(np.ndarray) if isinstance(a, Counting) else a for a in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            if ufunc is not np.matmul and getattr(out, "shape", None) in full:
                return out.view(Counting)
            return out

    return matrix.view(Counting), counts


class TestPassCounts:
    """Full passes over the data matrix per run, counted at the matrix."""

    @pytest.fixture
    def desk(self):
        oracle, fs = portfolio_problem(gen_portfolio_data(50, 20, 7))
        oracle.matrix, counts = counting(oracle.matrix)
        return oracle, fs, counts

    @pytest.fixture
    def gap_refreshes(self, monkeypatch):
        """Counts the refreshes that re-check a gap: a carried gap that
        rounds below epsilon is re-checked at a refreshed point."""
        refreshes = {"gap": 0}
        original = GlmPoint.refreshed

        def refreshed(self):
            exact = original(self)
            refreshes["gap"] += exact is not self
            return exact

        monkeypatch.setattr(GlmPoint, "refreshed", refreshed)
        return refreshes

    @pytest.mark.parametrize("policy", POLICIES)
    def test_one_pass_per_iteration(self, desk, policy, gap_refreshes):
        # epsilon lies below the gap's rounding floor here (~1e-14, which
        # backtracking reaches in 40 iterations), so no run ends on the gap
        oracle, fs, counts = desk
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-16, max_iter=250, policy=policy))
        assert trace.termination in ("max_iter", "stalled")
        iters = trace.records[-1].k
        assert iters >= 20
        # the start image, one gradient per row, the refreshes, and for each
        # gap re-check the exact image and its gradient
        bound = 1 + (iters + 1) + iters // REFRESH_INTERVAL + 2 * gap_refreshes["gap"]
        assert counts["products"] <= bound

    def test_null_step_keeps_its_point(self, desk, gap_refreshes):
        # backtracking stalls here on ten null steps (alpha = 0) in a row; a
        # null step keeps the point, so the row after it reads the gradient
        # the point already holds and makes no product
        oracle, fs, counts = desk
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-16, max_iter=250, policy="backtracking"))
        assert trace.termination == "stalled"
        iters = trace.records[-1].k
        # the last row ends the run without a step
        nulls = sum(r.alpha == 0.0 for r in trace.records[:-1])
        assert nulls >= 5
        bound = 1 + (iters + 1) - nulls + iters // REFRESH_INTERVAL + 2 * gap_refreshes["gap"]
        assert counts["products"] <= bound

    def test_one_pass_per_lloo_iteration(self, desk):
        # a local point with at most one nonzero is a vertex, one column; any
        # other costs one full product A (s - x), the row's second pass
        oracle, fs, counts = desk
        sigma = estimate_sigma(oracle, fs.start_point())
        counts["products"] = 0
        dense_points = {"count": 0}

        def counted_lloo(x, r, c):
            p = lloo_simplex(x, r, c)
            dense_points["count"] += np.count_nonzero(p) >= 2
            return p

        iters = 250
        config = RunConfig(epsilon=1e-14, max_iter=iters, policy="lloo")
        trace = lloo_fw_solve(oracle, counted_lloo, config, sigma)
        assert trace.termination == "max_iter"
        # both rules run: the radius binds on some rows and not on others
        assert 0 < dense_points["count"] < iters
        bound = 1 + (iters + 1) + iters // REFRESH_INTERVAL + dense_points["count"]
        assert counts["products"] <= bound

    def test_gap_termination_refreshes_once(self, desk):
        oracle, fs, counts = desk
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-3, max_iter=5000, policy="analytic"))
        assert trace.termination == "gap_below_eps"
        iters = trace.records[-1].k
        # plus the exact image and its gradient before the gap is accepted
        assert counts["products"] <= 1 + (iters + 1) + iters // REFRESH_INTERVAL + 2

    def test_one_gram_product_per_glm_sigma(self, desk, monkeypatch):
        oracle, fs, counts = desk
        calls = {"hess_vec": 0}
        original = problems.GlmOracle.hess_vec

        def counted(self, x, u):
            calls["hess_vec"] += 1
            return original(self, x, u)

        monkeypatch.setattr(problems.GlmOracle, "hess_vec", counted)
        estimate_sigma(oracle, fs.start_point())
        assert calls["hess_vec"] == 0
        # the start image and the Gram product
        assert counts["products"] == 2

    def test_two_passes_per_sigma_hessian_product(self, desk):
        # the base point's column loop: a four-method Hessian product makes
        # its own image of x, then two passes; the start point's domain test
        # and f make one image each
        oracle, fs, counts = desk
        counted = FourCalls(oracle)
        calls = {"hess_vec": 0}

        def hess_vec(x, u):
            calls["hess_vec"] += 1
            return oracle.hess_vec(x, u)

        counted.hess_vec = hess_vec
        estimate_sigma(counted, fs.start_point())
        assert calls["hess_vec"] == oracle.dim
        assert counts["products"] == 2 + (1 + 2) * calls["hess_vec"]

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
        counted = FourCalls(oracle)
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


# the members the drivers, step rules and estimate_sigma read of a point,
# besides the attributes in_domain and f set when it is made
POINT_SURFACE = {"gradient", "hessian", "direction", "norm_to", "slope", "move", "change", "refreshed"}


def public_members(cls):
    return {name for name in vars(cls) if not name.startswith("_")}


def test_both_point_classes_have_the_surface_the_readme_lists():
    # the GLM point inherits the slots and the domain guard: it overrides
    # members of the base surface and adds none
    assert issubclass(GlmPoint, OraclePoint)
    assert public_members(OraclePoint) == POINT_SURFACE
    assert public_members(GlmPoint) <= POINT_SURFACE
    assert not {"direction", "_require_domain", "_image"} & set(vars(GlmPoint))
    readme = (DATA_DIR.parents[1] / "README.md").read_text()
    section = readme.split("## How an iteration touches the data", 1)[1]
    bullets = next(par for par in section.split("\n\n") if par.startswith("* "))
    listed = set(re.findall(r"^\* `(\w+)", bullets, flags=re.M))
    assert listed == POINT_SURFACE | {"in_domain"}


class TestTrialPoints:
    """f is formed once per point made, and only the driver makes one: a
    trial of either adaptive rule is a change (`_change`), which makes
    no point."""

    @pytest.fixture
    def desk(self, monkeypatch):
        oracle, fs = portfolio_problem(gen_portfolio_data(50, 20, 7))
        calls = {"_loss": 0, "_change": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(oracle, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(oracle, name, counted)
        return oracle, fs, calls

    def test_one_change_per_backtracking_trial(self, desk):
        oracle, fs, calls = desk
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-14, max_iter=300, policy="backtracking"))
        steps = len(trace.records) - 1
        evals = sum(r.evals for r in trace.records[:-1])
        assert evals > steps
        # every trial toward a simplex vertex stays inside the portfolio
        # domain, where `_change` needs no `_loss`
        assert calls["_change"] == evals
        # the start point, one point per step and at most one refreshed point
        assert steps + 1 <= calls["_loss"] <= steps + 2

    def test_one_loss_per_line_search_iteration(self, desk):
        oracle, fs, calls = desk
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-5, max_iter=5000, policy="line_search"))
        assert trace.termination == "gap_below_eps"
        steps = len(trace.records) - 1
        assert steps >= 10
        # plus the start point and at most one refreshed point
        assert steps + 1 <= calls["_loss"] <= steps + 2
        # each search judges its step by one change
        assert calls["_change"] == steps

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_line_search_makes_no_point(self, kind, monkeypatch):
        oracle, fs = make_instance(kind, 40, 8, 3)
        gen = np.random.default_rng(0)
        points = [oracle.point(feasible_point(kind, fs, gen)) for _ in range(5)]
        made = []
        init = GlmPoint.__init__

        def counted_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GlmPoint, "__init__", counted_init)
        for point in points:
            gap, target = gap_and_target(fs, point)
            assert gap > 0.0
            exact_line_search(point, target)
        assert made == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_line_search_forms_no_kernel_at_zero(self, kind, monkeypatch):
        # phi'(0) and phi''(0) come from the tuple the point holds, so the
        # family's `_derivatives` runs once per probe at t > 0 in the domain
        oracle, fs = make_instance(kind, 40, 8, 3)
        gen = np.random.default_rng(0)
        points = [oracle.point(feasible_point(kind, fs, gen)) for _ in range(5)]
        kernels, probes = [], []
        derivatives = oracle._derivatives
        monkeypatch.setattr(oracle, "_derivatives", lambda z: kernels.append(1) or derivatives(z))
        slope = GlmPoint.slope

        def recorded_slope(self, target):
            phi = slope(self, target)

            def probe(t):
                out = phi(t)
                probes.append((t, out is not None))
                return out

            return probe

        monkeypatch.setattr(GlmPoint, "slope", recorded_slope)
        for point in points:
            gap, target = gap_and_target(fs, point)
            assert gap > 0.0
            exact_line_search(point, target)
        assert sum(t == 0.0 for t, _ in probes) == len(points)
        inside = sum(t > 0.0 and found for t, found in probes)
        assert inside > 0
        assert len(kernels) == inside
