import math

import numpy as np
import pytest

from condgrad import cli
from condgrad.core import DomainError, InvariantError, ScOracle, dist_like, gap_and_target, omega_star
from condgrad.problems import (
    gen_binary_design,
    gen_logistic_data,
    gen_portfolio_data,
    logistic_problem,
    parse_libsvm,
    poisson_problem,
    portfolio_problem,
)
from condgrad.sets import Simplex
from condgrad.solvers import RunConfig, fw_solve
from condgrad.steps import (
    analytic_step,
    backtrack_step,
    exact_line_search,
    init_lipschitz,
    standard_step,
)

from conftest import DATA_DIR, QuadOracle, dense
from test_bench_hooks import load
from test_glm import make_instance



class TestStandardStep:
    @pytest.mark.parametrize("k,expected", [(0, 1.0), (2, 0.5), (8, 0.2)])
    def test_values(self, k, expected):
        assert standard_step(k) == expected

    def test_negative_index(self):
        with pytest.raises(ValueError):
            standard_step(-1)


class TestAnalyticStep:
    def test_log_barrier_first_step(self):
        alpha, _ = analytic_step(gap=2.0, e=np.sqrt(10.0), M=2.0)
        expected = 2.0 / (np.sqrt(10.0) * (2.0 + np.sqrt(10.0)))
        assert alpha == pytest.approx(expected, abs=1e-12)
        assert alpha == pytest.approx(0.1225148, abs=1e-6)

    def test_cap_at_one(self):
        alpha, _ = analytic_step(gap=100.0, e=0.5, M=2.0)
        assert alpha == 1.0
        assert alpha * 0.5 < 1.0

    def test_vanishing_gap_gives_vanishing_step(self):
        alpha, _ = analytic_step(gap=1e-14, e=1.0, M=2.0)
        assert alpha < 1e-13

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            analytic_step(gap=0.0, e=1.0, M=2.0)

    def test_safety_and_positive_model_decrease(self):
        gen = np.random.default_rng(5)
        for _ in range(500):
            gap = 10.0 ** gen.uniform(-12, 3)
            e = 10.0 ** gen.uniform(-8, 4)
            M = 10.0 ** gen.uniform(-2, 2)
            alpha, decrease = analytic_step(gap, e, M)
            assert 0.0 < alpha <= 1.0
            assert alpha * e < 1.0
            assert decrease > 0.0

    def test_step_at_the_domain_edge_raises(self):
        # t = 1 / (1 + 4e-20) rounds to 1, so alpha * e reaches 1
        with pytest.raises(InvariantError, match=r"^step 1.0 \* e 1.0 >= 1; curvature model violated$"):
            analytic_step(1.0, 1.0, 1e10)

    def test_model_decrease_formula(self):
        gap, e, M = 2.0, np.sqrt(10.0), 2.0
        alpha, decrease = analytic_step(gap, e, M)
        expected = alpha * gap - (4.0 / M**2) * omega_star(alpha * e)
        assert decrease == pytest.approx(expected, abs=1e-15)


class TestExactLineSearch:
    def test_quadratic_minimum(self):
        class Shifted(QuadOracle):
            """(x0 - 0.3)^2: its value, gradient and Hessian agree."""

            def value(self, x):
                return float((x[0] - 0.3) ** 2)

            def gradient(self, x):
                g = np.zeros_like(x)
                g[0] = 2.0 * (x[0] - 0.3)
                return g

            def hess_vec(self, x, u):
                hu = np.zeros_like(u)
                hu[0] = 2.0 * u[0]
                return hu

        t = exact_line_search(Shifted(np.ones(1)).point(np.zeros(1)), np.ones(1))
        assert t == pytest.approx(0.3, abs=1e-12)

    def test_no_descent_returns_zero(self, quad2):
        # moving away from the minimizer of 0.5|x|^2
        t = exact_line_search(quad2.point(np.array([1.0, 1.0])), np.array([2.0, 2.0]))
        assert t == 0.0

    def test_log_barrier_stays_in_domain(self, log_barrier2):
        # the full step reaches the boundary x_2 = 0; the minimizer on the
        # line is t = 1/3, where x_1 = x_2 = 1/2
        x = np.array([0.25, 0.75])
        v = np.array([1.0, 0.0]) - x
        t = exact_line_search(log_barrier2.point(x), x + v)
        assert t == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.isfinite(log_barrier2.value(x + t * v))

    def test_linear_objective_takes_the_full_step(self):
        # all-zero counts leave f = sum(A x): phi'' = 0 and e = 0 on every line
        oracle, fs = poisson_problem(gen_binary_design(20, 5, 0.4, 1), np.zeros(20))
        point = oracle.point(fs.start_point())
        gap, target = gap_and_target(fs, point)
        assert gap > 0.0
        assert dist_like(point, target) == 0.0
        assert exact_line_search(point, target) == 1.0

    @staticmethod
    def _search_counting_misses(point, target):
        """exact_line_search's step and the number of its probes outside the domain."""
        slope = point.slope
        misses = []

        def counted(target):
            derivatives = slope(target)

            def probe(t):
                pair = derivatives(t)
                if pair is None:
                    misses.append(t)
                return pair

            return probe

        point.slope = counted
        return exact_line_search(point, target), len(misses)

    def test_overshooting_newton_step_on_the_base_point(self):
        # on f = -ln x_2 - 100 x_1 the Newton step from t = 0 overshoots to
        # t = 49, capped to the boundary t = 1, so the bracket must close on
        # the probe outside
        class BarrierMinusLinear(ScOracle):
            dim = 2
            M = 2.0

            def value(self, x):
                return -math.log(x[1]) - 100.0 * x[0] if self.in_domain(x) else math.inf

            def gradient(self, x):
                if not self.in_domain(x):
                    raise DomainError("x_2 <= 0")
                return np.array([-100.0, -1.0 / x[1]])

            def hess_vec(self, x, u):
                if not self.in_domain(x):
                    raise DomainError("x_2 <= 0")
                return np.array([0.0, u[1] / (x[1] * x[1])])

            def in_domain(self, x):
                return x[1] > 0.0

        point = BarrierMinusLinear().point(np.array([0.5, 0.5]))
        target = Simplex(2).lmo(point.gradient)
        assert target == (0, 1.0)
        t, misses = self._search_counting_misses(point, target)
        # phi'(t) = 1/(1 - t) - 50 vanishes at t = 0.98
        assert t == pytest.approx(0.98, abs=1e-8)
        assert misses >= 1
        nxt = point.move(t, target)
        assert nxt.in_domain and nxt.f < point.f

    def test_overshooting_newton_step_on_a_glm_point(self):
        # toward the origin of the l1-ball, phi'(t) = -sum z0 + sum y / (1 - t):
        # the Newton step from t = 0 lands past the pole at t = 1
        oracle, fs = poisson_problem(100 * gen_binary_design(20, 5, 0.3, 0), np.ones(20))
        point = oracle.point(fs.start_point())
        target = (0, 0.0)
        t, misses = self._search_counting_misses(point, target)
        assert t == pytest.approx(1.0 - 20.0 / point.z.sum(), abs=1e-12)
        assert misses >= 1
        nxt = point.move(t, target)
        assert nxt.in_domain and nxt.f < point.f

    @pytest.mark.parametrize("offset", [1e-6, 1e-7])
    def test_a_decrease_below_the_rounding_of_f_counts(self, offset):
        # a portfolio point a fraction 1 - offset of the way to the search's
        # own step: f is about 2760, so it rounds at eps |f| = 6.1e-13,
        # and the predicted decrease phi'^2/phi'' there is 1.26e-12 at
        # offset 1e-6 and 1.18e-14 at 1e-7. The search stops on its own
        # scale and judges its step by the change: f cannot resolve the
        # decrease, the trial's f lying within a few ulps of f on either side
        oracle, fs = portfolio_problem(gen_portfolio_data(400, 2, 1) * 1e-3)
        start = oracle.point(np.array([0.5, 0.5]))
        _, target = gap_and_target(fs, start)
        point = start.move((1.0 - offset) * exact_line_search(start, target), target)
        _, target = gap_and_target(fs, point)
        d1, d2 = point.slope(target)(0.0)
        assert d1 < 0.0 and d1 * d1 / d2 < 1e-11
        t = exact_line_search(point, target)
        assert t > 0.0
        assert point.change(t, target) < 0.0
        assert abs(point.move(t, target).f - point.f) <= 4.0 * np.spacing(abs(point.f))

    def test_few_derivative_probes_per_search(self, monkeypatch):
        # the derivative pair is formed once per point made and once per
        # probe of the line, t = 0 included
        with open(DATA_DIR / "poisson200.libsvm") as fh:
            feats, _ = parse_libsvm(fh)
        oracle, fs = poisson_problem(feats, np.ones(feats.shape[0]))
        calls = {"_derivatives": 0, "searches": 0}
        original = oracle._derivatives

        def derivatives(z):
            calls["_derivatives"] += 1
            return original(z)

        def search(point, target):
            calls["searches"] += 1
            return exact_line_search(point, target)

        monkeypatch.setattr(oracle, "_derivatives", derivatives)
        monkeypatch.setattr("condgrad.solvers.exact_line_search", search)
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-14, max_iter=500, policy="line_search"))
        assert trace.termination == "max_iter"
        assert calls["searches"] == 500
        assert calls["_derivatives"] / calls["searches"] <= 6.0

    def test_step_does_not_depend_on_m(self):
        # the step is a function of the line alone: the oracle's M, a hundred
        # times it and a millionth of it give the same float
        oracle, fs = logistic_problem(*gen_logistic_data(200, 50, 0))
        point = oracle.point(fs.start_point())
        for _ in range(5):
            _, target = gap_and_target(fs, point)
            point = point.move(exact_line_search(point, target), target)
        _, target = gap_and_target(fs, point)
        steps = []
        for M in (oracle.M, 100.0 * oracle.M, 1e-6 * oracle.M):
            oracle.M = M
            steps.append(exact_line_search(point, target))
        assert steps[0] > 0.0
        assert steps[1] == steps[0] and steps[2] == steps[0]

    def test_few_kernel_evaluations_on_the_grid_logistic_instance(self, monkeypatch, tmp_path):
        # the benchmark's grid solve of its logistic instance (seed 3) makes
        # about 2.3 kernel evaluations at t > 0 per search; a Newton step
        # damped by the instance's loose M makes 4.5
        workloads = load("workloads")
        grid = workloads.WORKLOADS["grid"]
        built = workloads.build_all(workloads.write_inputs(grid, 3, tmp_path))
        oracle, fs = built["logistic_N200_n50_s0"]
        calls = {"kernel": 0, "searches": 0}
        searching = False
        original = oracle._derivatives

        def derivatives(z):
            calls["kernel"] += searching
            return original(z)

        def search(point, target):
            nonlocal searching
            calls["searches"] += 1
            searching = True
            try:
                return exact_line_search(point, target)
            finally:
                searching = False

        monkeypatch.setattr(oracle, "_derivatives", derivatives)
        monkeypatch.setattr("condgrad.solvers.exact_line_search", search)
        trace = cli.run_one(oracle, fs, "line_search", grid.gap, grid.max_iter)
        assert trace.termination == "max_iter"
        assert calls["searches"] == grid.max_iter
        assert calls["kernel"] / calls["searches"] <= 2.5


class TestBacktrackStep:
    # on quad2 from (1, 0) toward (0, 1) the model holds iff mu >= 1

    def test_accepts_immediately_when_model_holds(self, quad2):
        # the search starts at GAMMA_DOWN * lipschitz = 1.0
        alpha, mu, evals = backtrack_step(
            quad2.point(np.array([1.0, 0.0])),
            np.array([0.0, 1.0]),
            gap=1.0,
            lipschitz=1.0 / 0.9,
        )
        assert alpha == 0.5
        assert mu == 1.0
        assert evals == 1

    def test_doubles_until_sufficient_decrease(self, quad2):
        alpha, mu, evals = backtrack_step(
            quad2.point(np.array([1.0, 0.0])),
            np.array([0.0, 1.0]),
            gap=1.0,
            lipschitz=0.25,
        )
        # 0.225, 0.45 and 0.9 fail, 1.8 accepts at alpha = 1/(2 * 1.8)
        assert mu == pytest.approx(1.8, rel=1e-15)
        assert alpha == pytest.approx(1.0 / 3.6, rel=1e-15)
        assert evals == 4

    def test_domain_probe_counts_as_failure(self, log_barrier2):
        # full step lands on the boundary; the estimate must grow until
        # the probe re-enters the domain
        x = np.array([0.25, 0.75])
        v = np.array([1.0, 0.0]) - x
        alpha, _, evals = backtrack_step(log_barrier2.point(x), x + v, gap=2.0, lipschitz=1e-3)
        assert np.isfinite(log_barrier2.value(x + alpha * v))
        assert evals > 1

    def test_sufficient_decrease_holds_at_return(self, log_barrier2):
        gen = np.random.default_rng(2)
        x = np.array([0.3, 0.7])
        mu = 2.0
        for _ in range(20):
            target = x + gen.normal(size=2) * 0.2
            v = target - x
            g = float(np.dot(log_barrier2.gradient(x), -v))
            if g <= 0:
                continue
            alpha, mu, _ = backtrack_step(log_barrier2.point(x), target, gap=g, lipschitz=mu)
            fx = log_barrier2.value(x)
            quad = fx - alpha * g + 0.5 * alpha**2 * mu * float(np.dot(v, v))
            assert log_barrier2.value(x + alpha * v) <= quad

    def test_quadratic_estimate_never_overshoots_doubled_truth(self):
        oracle = QuadOracle(np.array([1.0, 4.0]))
        gen = np.random.default_rng(9)
        for _ in range(50):
            x = gen.normal(size=2)
            target = x + gen.normal(size=2)
            v = target - x
            g = -float(np.dot(oracle.gradient(x), v))
            if g <= 0:
                continue
            seg = float(np.dot(v, oracle.hess_vec(x, v)) / np.dot(v, v))
            # start strictly below the segment curvature to force doubling
            _, mu, _ = backtrack_step(oracle.point(x), target, gap=g, lipschitz=seg / 8.0)
            assert mu <= 2.0 * seg + 1e-12

    def test_nontermination_guard(self):
        class Hostile(QuadOracle):
            def value(self, x):
                # base point looks fine, every probe is infeasible
                return 0.0 if np.array_equal(x, np.zeros(2)) else float("inf")

        with pytest.raises(InvariantError):
            backtrack_step(Hostile(np.ones(2)).point(np.zeros(2)), np.ones(2), gap=1.0, lipschitz=1.0)

    def test_rejects_bad_inputs(self, quad2):
        with pytest.raises(ValueError):
            backtrack_step(quad2.point(np.zeros(2)), np.zeros(2), gap=1.0, lipschitz=1.0)
        with pytest.raises(ValueError):
            backtrack_step(quad2.point(np.zeros(2)), np.ones(2), gap=0.0, lipschitz=1.0)
        with pytest.raises(ValueError, match="Lipschitz estimate must be positive"):
            backtrack_step(quad2.point(np.zeros(2)), np.ones(2), gap=1.0, lipschitz=0.0)


class TestInitLipschitz:
    def test_identity_quadratic(self):
        oracle = QuadOracle(np.ones(3))
        L = init_lipschitz(oracle.point(np.array([0.2, 0.3, 0.5])), np.array([1.0, 0.0, 0.0]))
        assert L == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_quadratic_picks_direction_curvature(self):
        oracle = QuadOracle(np.array([1.0, 4.0]))
        L = init_lipschitz(oracle.point(np.array([1.0, 1.0])), np.array([1.0, 0.0]))
        assert L == pytest.approx(4.0, rel=1e-12)

    def test_log_barrier_finite_positive(self, log_barrier2):
        L = init_lipschitz(log_barrier2.point(np.array([0.25, 0.75])), np.array([1.0, 0.0]))
        assert np.isfinite(L) and L > 0.0

    def test_degenerate_direction(self, quad2):
        with pytest.raises(ValueError):
            init_lipschitz(quad2.point(np.ones(2)), np.ones(2))

    @pytest.mark.parametrize("kind", ["portfolio", "poisson", "logistic"])
    def test_seed_is_the_curvature_along_the_first_direction(self, kind):
        # v'Hv / v'v, from the four-method Hessian product at the start point
        oracle, fs = make_instance(kind, 40, 8, 5)
        x0 = fs.start_point()
        point = oracle.point(x0)
        _, s0 = gap_and_target(fs, point)
        v = dense(fs.dim, s0) - x0
        expected = float(np.dot(v, oracle.hess_vec(x0, v))) / float(np.dot(v, v))
        assert expected > 0.0
        assert init_lipschitz(point, s0) == pytest.approx(expected, rel=1e-12)
