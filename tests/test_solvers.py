import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import condgrad
from condgrad import solvers
from condgrad.cli import DEFAULT_MAX_ITER, build_problem, run_one
from condgrad.core import DomainError, InvariantError, ScOracle, omega_star
from condgrad.lloo import lloo_simplex
from condgrad.problems import gen_binary_design, gen_portfolio_data, poisson_problem, portfolio_problem
from condgrad.sets import Simplex
from condgrad.steps import analytic_step
from condgrad.solvers import (
    METHODS,
    POLICIES,
    RunConfig,
    RunTrace,
    IterationRecord,
    certificate_lower_bound,
    estimate_sigma,
    fw_solve,
    lloo_fw_solve,
    lloo_step_size,
    read_trace_csv,
)

from conftest import QuadOracle, dense, diameter


def descent_constants(M, lipschitz, diam):
    """Constants (a, b) of the per-iteration decrease bound
    Delta_k >= min(a * gap, b * gap^2) under the analytic policy,
    given a gradient-Lipschitz bound over the visited set."""
    one_minus_ln2 = 1.0 - np.log(2.0)
    a = min(0.5, 2.0 * one_minus_ln2 / (M * np.sqrt(lipschitz) * diam))
    b = one_minus_ln2 / (lipschitz * diam * diam)
    return float(a), float(b)


def lloo_rate_floor(sigma_f, lipschitz, rho, M, diam):
    """Guaranteed per-iteration step floor of the locally-restricted run.

    Needs the strong-convexity and gradient-Lipschitz parameters over the
    level set.  Every accepted step is at least this large, so the error
    contracts by exp(-floor/2) per iteration.
    """
    return min(sigma_f / (6.0 * lipschitz * rho * rho), 1.0) / (
        1.0 + np.sqrt(lipschitz) * M * diam / 2.0
    )


def analytic_model_decrease(record, M):
    return record.alpha * record.gap - (4.0 / M**2) * omega_star(record.alpha * record.e)


def solve_on_simplex(oracle, config):
    """Run `config.policy` from the simplex centre, through the entry point that serves it."""
    if config.policy == "lloo":
        return lloo_fw_solve(oracle, lloo_simplex, config, 1.0)
    return fw_solve(oracle, Simplex(oracle.dim), config)


@pytest.fixture(scope="module")
def desk_portfolio():
    return portfolio_problem(gen_portfolio_data(20, 8, 3))


class TestBarrierRegression:
    """The 2-d log barrier over the simplex separates the policies."""

    def test_standard_step_exits_the_domain(self, log_barrier2):
        trace = fw_solve(
            log_barrier2,
            Simplex(2),
            RunConfig(epsilon=1e-8, max_iter=100, policy="standard"),
            x0=np.array([0.25, 0.75]),
        )
        assert trace.termination == "stalled"
        assert trace.records[0].alpha == 1.0
        assert np.allclose(trace.final_x, [1.0, 0.0])
        assert len(trace.records) == 1

    def test_analytic_step_converges(self, log_barrier2):
        trace = fw_solve(
            log_barrier2,
            Simplex(2),
            RunConfig(epsilon=1e-8, max_iter=5000, policy="analytic"),
            x0=np.array([0.25, 0.75]),
        )
        assert trace.termination == "gap_below_eps"
        assert trace.records[0].alpha == pytest.approx(0.1225148, abs=1e-6)
        first = trace.records[0]
        second = trace.records[1]
        assert second.f < first.f
        assert np.allclose(trace.final_x, [0.5, 0.5], atol=1e-5)
        # iterates stay strictly inside the domain and on the simplex
        assert all(np.isfinite(r.f) for r in trace.records)

    def test_first_analytic_iterate_value(self, log_barrier2):
        trace = fw_solve(
            log_barrier2,
            Simplex(2),
            RunConfig(epsilon=1e-8, max_iter=2, policy="analytic"),
            x0=np.array([0.25, 0.75]),
        )
        # x1 = x0 + alpha0 * ((1,0) - x0)
        alpha0 = trace.records[0].alpha
        x1 = np.array([0.25, 0.75]) + alpha0 * (np.array([1.0, 0.0]) - np.array([0.25, 0.75]))
        assert x1[0] == pytest.approx(0.34189, abs=1e-4)
        assert trace.records[1].f == pytest.approx(log_barrier2.value(x1), abs=1e-12)


class TestPoissonToy:
    def test_first_step_numbers(self):
        oracle, fs = poisson_problem(np.array([[1.0, 0.0]]), np.array([1.0]), radius=2.0)
        trace = fw_solve(
            oracle,
            fs,
            RunConfig(epsilon=1e-10, max_iter=1, policy="analytic"),
        )
        first = trace.records[0]
        assert first.f == pytest.approx(0.5 + np.log(2.0), abs=1e-12)
        assert first.gap == pytest.approx(1.5, abs=1e-12)
        assert first.e == pytest.approx(3.0, abs=1e-12)
        assert first.alpha == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert trace.records[1].f == pytest.approx(1.0721317747748311, abs=1e-12)

    def test_converges_to_known_optimum(self):
        oracle, fs = poisson_problem(np.array([[1.0, 0.0]]), np.array([1.0]), radius=2.0)
        trace = fw_solve(
            oracle,
            fs,
            RunConfig(epsilon=1e-9, max_iter=20000, policy="analytic"),
        )
        assert trace.termination == "gap_below_eps"
        assert trace.records[-1].f == pytest.approx(1.0, abs=1e-6)


class TestSolverGuards:
    def test_startup_outside_domain(self, log_barrier2):
        with pytest.raises(DomainError):
            fw_solve(
                log_barrier2,
                Simplex(2),
                RunConfig(epsilon=1e-8, max_iter=10, policy="analytic"),
                x0=np.array([1.0, 0.0]),
            )

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misshapen_start_rejected_before_evaluation(self, desk_portfolio, extra):
        # the GLM point's matvec would fail on a start of the wrong length
        oracle, fs = desk_portfolio
        dim = oracle.dim + extra
        with pytest.raises(ValueError, match="start point outside the feasible set"):
            fw_solve(
                oracle,
                fs,
                RunConfig(epsilon=1e-8, max_iter=10, policy="analytic"),
                x0=np.full(dim, 1.0 / dim),
            )

    def test_startup_outside_set(self, quad2):
        with pytest.raises(ValueError):
            fw_solve(
                quad2,
                Simplex(2),
                RunConfig(epsilon=1e-8, max_iter=10, policy="analytic"),
                x0=np.array([0.8, 0.8]),
            )

    def test_lying_oracle_trips_descent_check(self):
        class Liar(ScOracle):
            dim = 2
            M = 2.0

            def value(self, x):
                return float(x[0])

            def gradient(self, x):
                return np.array([-1.0, 0.0])  # inconsistent sign

            def hess_vec(self, x, u):
                return 0.01 * np.asarray(u)

            def in_domain(self, x):
                return True

        with pytest.raises(InvariantError, match="objective rose above the guaranteed level at iteration 1"):
            fw_solve(
                Liar(),
                Simplex(2),
                RunConfig(epsilon=1e-12, max_iter=50, policy="analytic"),
            )

    def test_descent_check_reads_the_rounding_of_f(self, monkeypatch):
        # a step that claims 5e-10 more than its model decrease is caught: the
        # slack is f's rounding scale, well below the decreases of a desk run
        def overclaiming(gap, e, M):
            alpha, decrease = analytic_step(gap, e, M)
            return alpha, decrease + 5e-10

        monkeypatch.setattr(solvers, "analytic_step", overclaiming)
        oracle, fs = portfolio_problem(gen_portfolio_data(50, 20, 7))
        with pytest.raises(InvariantError, match="objective rose above the guaranteed level"):
            fw_solve(
                oracle,
                fs,
                RunConfig(epsilon=1e-5, max_iter=100000, policy="analytic"),
            )

    def test_stall_detection(self):
        class HugeCurvature(ScOracle):
            dim = 2
            M = 2.0

            def value(self, x):
                return float(x[1])

            def gradient(self, x):
                return np.array([0.0, 1.0])

            def hess_vec(self, x, u):
                return 1e20 * np.asarray(u)

            def in_domain(self, x):
                return True

        for policy in ("analytic", "lloo"):
            trace = solve_on_simplex(
                HugeCurvature(), RunConfig(epsilon=1e-10, max_iter=1000, policy=policy)
            )
            assert trace.termination == "stalled"
            assert len(trace.records) == 10

    class NarrowDomain(ScOracle):
        """Consistent value and curvature everywhere, but a domain narrower
        than they allow (and a finite value outside it)."""

        dim = 2
        M = 2.0

        def value(self, x):
            return 0.5 * float((x[0] - 1.0) ** 2 + x[1] ** 2)

        def gradient(self, x):
            return np.array([x[0] - 1.0, x[1]])

        def hess_vec(self, x, u):
            return np.asarray(u, dtype=float)

        def in_domain(self, x):
            return bool(x[1] > 0.45)

    @pytest.mark.parametrize("policy", ["analytic", "lloo"])
    def test_guaranteed_step_leaving_the_domain_raises(self, policy):
        # only the run-time check can catch the exit
        with pytest.raises(InvariantError, match="left the objective domain"):
            solve_on_simplex(self.NarrowDomain(), RunConfig(epsilon=1e-10, max_iter=100, policy=policy))

    def test_backtracking_rejects_a_trial_outside_the_domain(self):
        # a trial point outside the domain has f = +inf, so its
        # sufficient-decrease check fails and the step shrinks instead
        oracle = self.NarrowDomain()
        trace = solve_on_simplex(oracle, RunConfig(epsilon=1e-10, max_iter=100, policy="backtracking"))
        assert trace.termination == "stalled"
        assert oracle.in_domain(trace.final_x)
        assert all(np.isfinite(r.f) and r.evals >= 1 for r in trace.records[:-1])
        assert max(r.evals for r in trace.records[:-1]) > 1

    def test_config_validation(self, quad2):
        with pytest.raises(ValueError):
            RunConfig(epsilon=0.0, max_iter=10)
        with pytest.raises(ValueError):
            RunConfig(epsilon=1e-6, max_iter=0)
        with pytest.raises(ValueError):
            RunConfig(epsilon=1e-6, max_iter=10, policy="newton")
        with pytest.raises(ValueError):
            fw_solve(quad2, Simplex(2), RunConfig(epsilon=1e-6, max_iter=10, policy="lloo"))
        with pytest.raises(ValueError):
            lloo_fw_solve(
                quad2,
                lloo_simplex,
                RunConfig(epsilon=1e-6, max_iter=10, policy="backtracking"),
                1.0,
            )


class TestAnalyticDescentInvariants:
    def test_per_iteration_model_decrease(self, desk_portfolio):
        oracle, fs = desk_portfolio
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-9, max_iter=800, policy="analytic"))
        recs = trace.records
        for prev, nxt in zip(recs, recs[1:]):
            delta = analytic_model_decrease(prev, oracle.M)
            assert delta >= 0.0
            assert nxt.f <= prev.f - delta + 1e-9
            assert prev.alpha * prev.e < 1.0

    def test_stopping_time_bound_with_visited_lipschitz(self, desk_portfolio):
        # iterations needed to reach error eps, against the two-phase bound
        # built from the curvature constants (diagnostic: needs a
        # user-supplied gradient-Lipschitz value, here from the iterates)
        oracle, fs = desk_portfolio
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-12, max_iter=20000, policy="analytic"))
        f_ref = min(r.f for r in trace.records)
        xs = [fs.start_point()]
        for r in trace.records[:-1]:
            s = dense(fs.dim, fs.lmo(oracle.gradient(xs[-1])))
            xs.append(xs[-1] + r.alpha * (s - xs[-1]))
        lam = 0.0
        for x in xs[::50]:
            lam = max(lam, float(np.linalg.eigvalsh(oracle.point(x).hessian())[-1]))
        diam = diameter(fs)
        a, b = descent_constants(oracle.M, lam, diam)
        h0 = trace.records[0].f - f_ref
        for eps in (1e-2, 1e-3):
            n_eps = next(r.k for r in trace.records if r.f - f_ref <= eps)
            phase1 = np.ceil(max(0.0, (1.0 / a) * np.log(h0 * b / a)))
            phase2 = lam * diam**2 / ((1.0 - np.log(2.0)) * eps)
            assert n_eps <= phase1 + phase2

    def test_visited_lipschitz_descent_floor(self, desk_portfolio):
        # per-iteration decrease floor from the curvature constants, with
        # the gradient-Lipschitz bound taken over the visited iterates
        oracle, fs = desk_portfolio
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-9, max_iter=300, policy="analytic"))
        xs = [fs.start_point()]
        for r in trace.records[:-1]:
            res_target = dense(fs.dim, fs.lmo(oracle.gradient(xs[-1])))
            xs.append(xs[-1] + r.alpha * (res_target - xs[-1]))
        lam_max = 0.0
        for x in xs:
            lam_max = max(lam_max, float(np.linalg.eigvalsh(oracle.point(x).hessian())[-1]))
        a, b = descent_constants(oracle.M, lam_max, diameter(fs))
        recs = trace.records
        for prev, nxt in zip(recs, recs[1:]):
            actual = prev.f - nxt.f
            floor = min(a * prev.gap, b * prev.gap**2)
            assert actual >= floor - 1e-9


class TestBacktrackingRun:
    def test_rate_bound_and_eval_accounting(self, desk_portfolio):
        oracle, fs = desk_portfolio
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-12, max_iter=600, policy="backtracking"))
        assert trace.init_lipschitz is not None
        recs = trace.records
        # reference: best value and certificate across a longer run
        ref = fw_solve(oracle, fs, RunConfig(epsilon=1e-12, max_iter=6000, policy="backtracking"))
        f_ref = min(min(r.f for r in ref.records), min(r.f for r in recs))
        gap0 = recs[0].gap
        diam2 = diameter(fs) ** 2
        mus = [r.lipschitz for r in recs if r.lipschitz is not None]
        for r in recs:
            k = r.k
            bound = 2.0 * gap0 / ((k + 1) * (k + 2))
            if k > 0:
                bound += k * diam2 * float(np.mean(mus[:k])) / ((k + 1) * (k + 2))
            assert r.f - f_ref <= bound + 1e-9
        # evaluation accounting against the doubling/clipping constants
        evals = [r.evals for r in recs if r.evals is not None]
        mu_max = max(mus)
        cum = np.cumsum(evals)
        const = 1.0 - np.log(0.9) / np.log(2.0)
        extra = max(0.0, np.log(2.0 * mu_max / trace.init_lipschitz)) / np.log(2.0)
        for k in range(len(evals)):
            assert cum[k] <= (k + 1) * const + extra

    @pytest.mark.parametrize("policy", POLICIES)
    def test_linear_objective_solves_in_one_step(self, policy):
        # every count zero: f is linear, and each policy takes the full step
        oracle, fs = poisson_problem(gen_binary_design(20, 5, 0.3, 0), np.zeros(20))
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-9, max_iter=50, policy=policy))
        assert trace.termination == "gap_below_eps"
        assert len(trace.records) == 2
        assert trace.records[0].alpha == 1.0

    def test_tight_gaps_end_without_an_exception(self):
        # eps 1e-12 lies near f's rounding floor on these instances, where
        # only a trial's change, not f(y) against f(x), resolves the decrease
        for seed in range(12):
            oracle, fs = portfolio_problem(gen_portfolio_data(30, 10, seed))
            config = RunConfig(epsilon=1e-12, max_iter=2000, policy="backtracking")
            trace = fw_solve(oracle, fs, config)
            assert trace.termination in ("gap_below_eps", "stalled")
            assert all(np.isfinite(r.f) for r in trace.records)

    def test_sufficient_decrease_along_run(self, desk_portfolio):
        oracle, fs = desk_portfolio
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-12, max_iter=400, policy="backtracking"))
        recs = trace.records
        diam2 = diameter(fs) ** 2
        for prev, nxt in zip(recs, recs[1:]):
            vv_bound = prev.alpha * prev.gap - 0.5 * prev.alpha**2 * prev.lipschitz * diam2
            # model decrease with the true |v|^2 is between this and alpha*gap
            assert nxt.f <= prev.f - vv_bound + 1e-9 or nxt.f <= prev.f + 1e-9


class TestLlooSolver:
    def test_step_size_worked_example(self):
        assert lloo_step_size(1.0, 1.0, 1.0, 2.0) == pytest.approx(0.5)
        assert np.exp(-0.5 * 0.5) == pytest.approx(0.7788007830714049)

    def test_step_size_near_one_when_error_tiny(self):
        alpha = lloo_step_size(1.0, 1.0, 1e-7, 2.0)
        assert alpha == pytest.approx(1.0, abs=1e-6)

    def test_linear_error_contraction(self, desk_portfolio):
        oracle, fs = desk_portfolio
        sigma = estimate_sigma(oracle, fs.start_point())
        config = RunConfig(epsilon=1e-9, max_iter=5000, policy="lloo")
        trace = lloo_fw_solve(oracle, lloo_simplex, config, sigma)
        assert trace.termination == "gap_below_eps"
        f_ref = min(r.f for r in trace.records)
        gap0 = trace.records[0].gap
        for r in trace.records:
            assert r.f - f_ref <= gap0 * r.contraction + 1e-9
        # the contraction factors decay strictly once steps accumulate
        assert trace.records[-1].contraction < 1e-3

    def test_radius_schedule_switch(self, desk_portfolio):
        oracle, fs = desk_portfolio
        sigma = estimate_sigma(oracle, fs.start_point())
        config = RunConfig(epsilon=1e-6, max_iter=200, policy="lloo")
        trace = lloo_fw_solve(oracle, lloo_simplex, config, sigma)
        r0 = trace.records[0].radius
        for r in trace.records:
            assert r.radius == pytest.approx(r0 * np.sqrt(r.contraction), rel=1e-12)

    def test_iterates_stay_feasible(self, desk_portfolio):
        oracle, fs = desk_portfolio
        sigma = estimate_sigma(oracle, fs.start_point())
        config = RunConfig(epsilon=1e-9, max_iter=300, policy="lloo")
        trace = lloo_fw_solve(oracle, lloo_simplex, config, sigma)
        assert all(np.isfinite(r.f) for r in trace.records)

    def test_custom_start_point(self, desk_portfolio):
        oracle, fs = desk_portfolio
        sigma = estimate_sigma(oracle, fs.start_point())
        x0 = np.zeros(oracle.dim)
        x0[0] = x0[1] = 0.5
        config = RunConfig(epsilon=1e-6, max_iter=2000, policy="lloo")
        trace = lloo_fw_solve(oracle, lloo_simplex, config, sigma, x0=x0)
        assert trace.termination == "gap_below_eps"
        with pytest.raises(ValueError):
            lloo_fw_solve(
                oracle, lloo_simplex, config, sigma, x0=np.full(oracle.dim, 0.9)
            )

    def test_flat_gap_ends_stalled_not_at_radius_zero(self):
        # a local point equal to x is a null step: ten of them stall the
        # run, and the radius stays at r0 instead of contracting to 0
        _, oracle, fs = build_problem({"kind": "portfolio", "T": 10, "n": 3, "seed": 2})
        config = RunConfig(epsilon=1e-15, max_iter=DEFAULT_MAX_ITER, policy="lloo")
        trace = lloo_fw_solve(oracle, lambda x, r, c: x.copy(), config, 1.0)
        assert trace.termination == "stalled"
        assert len(trace.records) == solvers.STALL_RUNS
        r0 = trace.records[0].radius
        assert r0 > 0.0
        for r in trace.records:
            assert (r.alpha, r.radius, r.contraction) == (0.0, r0, 1.0)
        # the real local oracle on the same instance ends on its exact
        # vertex: the gap reaches 0, with every radius positive
        trace = run_one(oracle, fs, "lloo", 1e-15, DEFAULT_MAX_ITER)
        assert trace.termination == "gap_below_eps"
        assert all(r.radius > 0.0 for r in trace.records)
        assert all(np.isfinite(r.f) and np.isfinite(r.gap) for r in trace.records)

    def test_zero_curvature_step_moves_the_full_way(self):
        class Linear(QuadOracle):
            cost = np.array([1.0, 0.0, 2.0])

            def value(self, x):
                return float(np.dot(self.cost, x))

            def gradient(self, x):
                return self.cost.copy()

        config = RunConfig(epsilon=1e-12, max_iter=10, policy="lloo")
        trace = solve_on_simplex(Linear(np.zeros(3)), config)
        assert (trace.records[0].e, trace.records[0].alpha) == (0.0, 1.0)
        assert trace.termination == "gap_below_eps"
        assert np.allclose(trace.final_x, [0.0, 1.0, 0.0], atol=1e-15)

    def test_rate_floor_diagnostic(self, desk_portfolio):
        # every accepted step beats the theoretical floor computed from the
        # visited-set spectrum extremes
        oracle, fs = desk_portfolio
        sigma = estimate_sigma(oracle, fs.start_point())
        config = RunConfig(epsilon=1e-9, max_iter=5000, policy="lloo")
        trace = lloo_fw_solve(oracle, lloo_simplex, config, sigma)
        xs = [fs.start_point()]
        for r in trace.records[:-1]:
            s = lloo_simplex(xs[-1], r.radius, oracle.gradient(xs[-1]))
            xs.append(xs[-1] + r.alpha * (s - xs[-1]))
        lam_max, lam_min = 0.0, np.inf
        for x in xs[::20]:
            w = np.linalg.eigvalsh(oracle.point(x).hessian())
            lam_max = max(lam_max, float(w[-1]))
            lam_min = min(lam_min, float(w[0]))
        floor = lloo_rate_floor(lam_min, lam_max, np.sqrt(oracle.dim), oracle.M, diameter(fs))
        assert floor > 0.0
        assert all(r.alpha >= floor for r in trace.records if r.alpha > 0.0)


class TestTraceBookkeeping:
    def test_recorded_times_nondecreasing(self, desk_portfolio):
        oracle, fs = desk_portfolio
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-9, max_iter=100, policy="analytic"))
        times = [r.time_ns for r in trace.records]
        assert times == sorted(times)

    def test_backtracking_stays_in_domain_on_the_barrier(self, log_barrier2):
        # the adaptive quadratic model must reject every boundary probe
        trace = fw_solve(
            log_barrier2,
            Simplex(2),
            RunConfig(epsilon=1e-8, max_iter=2000, policy="backtracking"),
            x0=np.array([0.25, 0.75]),
        )
        assert trace.termination == "gap_below_eps"
        assert all(np.isfinite(r.f) for r in trace.records)

    def test_every_visited_point_feasible_and_in_domain(self, desk_portfolio):
        oracle, fs = desk_portfolio
        seen = []

        class Spy(ScOracle):
            dim = oracle.dim
            M = oracle.M

            def value(self, x):
                return oracle.value(x)

            def gradient(self, x):
                seen.append(np.array(x))
                return oracle.gradient(x)

            def hess_vec(self, x, u):
                return oracle.hess_vec(x, u)

            def in_domain(self, x):
                return oracle.in_domain(x)

        for policy in ("analytic", "backtracking"):
            seen.clear()
            fw_solve(Spy(), fs, RunConfig(epsilon=1e-8, max_iter=200, policy=policy))
            assert seen
            for x in seen:
                assert fs.contains(x)
                assert oracle.in_domain(x)


class TestCertificate:
    def test_equals_fstar_at_optimum(self):
        records = [IterationRecord(0, 2.0, 1.0, 0.5, 1.0), IterationRecord(1, 1.5, 0.0, 0.0, 0.0)]
        trace = RunTrace(records, np.zeros(2), "gap_below_eps", RunConfig(epsilon=1e-6, max_iter=2))
        assert certificate_lower_bound(trace) == 1.5

    def test_running_bound_nondecreasing_and_below_fstar(self, log_barrier2):
        trace = fw_solve(
            log_barrier2,
            Simplex(2),
            RunConfig(epsilon=1e-10, max_iter=5000, policy="analytic"),
            x0=np.array([0.25, 0.75]),
        )
        f_star = 2.0 * np.log(2.0)
        best = -np.inf
        for r in trace.records:
            best = max(best, r.f - r.gap)
            assert best <= f_star + 1e-12
        assert certificate_lower_bound(trace) == pytest.approx(f_star, abs=1e-9)

    def test_empty_trace_rejected(self):
        trace = RunTrace([], np.zeros(1), "max_iter", RunConfig(epsilon=1e-6, max_iter=1))
        with pytest.raises(ValueError):
            certificate_lower_bound(trace)

    def test_a_trace_carries_its_config(self):
        with pytest.raises(TypeError, match="config"):
            RunTrace([], np.zeros(1), "max_iter")


class TestSigmaEstimate:
    def test_diagonal_quadratic(self):
        oracle = QuadOracle(np.array([4.0, 1.0, 9.0]))
        assert estimate_sigma(oracle, np.zeros(3)) == pytest.approx(1.0, rel=1e-9)

    def test_positive_on_portfolio(self, desk_portfolio):
        oracle, fs = desk_portfolio
        sigma = estimate_sigma(oracle, fs.start_point())
        assert sigma > 0.0

    def test_singular_hessian_rejected_by_the_lloo_config(self):
        oracle = QuadOracle(np.array([2.0, 0.0, 1.0]))
        sigma = estimate_sigma(oracle, np.zeros(3))
        assert sigma == 0.0
        with pytest.raises(ValueError, match="sigma_f must be positive"):
            lloo_fw_solve(oracle, lloo_simplex, RunConfig(epsilon=1e-6, max_iter=10, policy="lloo"), sigma)

    @pytest.mark.parametrize(
        "T, n, singular",
        [(3, 5, True), (5, 8, True), (10, 20, True), (19, 20, True)]
        + [(5, 5, False), (8, 8, False), (20, 20, False), (21, 20, False), (50, 20, False)],
    )
    def test_singular_start_hessian_rejected_by_run_one(self, T, n, singular):
        # with T < n the start Hessian is singular, yet rounding leaves its zero
        # eigenvalue positive in some cases (T=3, n=5, seed 35: 7.8e-17, which
        # made r0 ~ 1e8); the dim * eps * lambda_max rule rejects all of them
        # and none of the square or tall instances (smallest ratio 5.5e-15)
        for seed in range(40):
            oracle, fs = portfolio_problem(gen_portfolio_data(T, n, seed))
            if singular:
                assert estimate_sigma(oracle, fs.start_point()) == 0.0
                with pytest.raises(ValueError, match="the Hessian at the start point is singular"):
                    run_one(oracle, fs, "lloo", 1e-6, 1)
            else:
                assert estimate_sigma(oracle, fs.start_point()) > 0.0
                assert len(run_one(oracle, fs, "lloo", 1e-6, 1).records) >= 1

    def test_import_pulls_no_scipy(self):
        src = str(Path(condgrad.__file__).resolve().parent.parent)
        probe = "import sys, condgrad; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"


class DiagScaledOracle(ScOracle):
    """f(x) = base(scale * x) for an invertible positive diagonal scale."""

    def __init__(self, base, scale):
        self.base = base
        self.scale = np.asarray(scale, dtype=float)
        self.dim = base.dim
        self.M = base.M

    def value(self, x):
        return self.base.value(self.scale * np.asarray(x, dtype=float))

    def gradient(self, x):
        return self.scale * self.base.gradient(self.scale * np.asarray(x, dtype=float))

    def hess_vec(self, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return self.scale * self.base.hess_vec(self.scale * x, self.scale * u)

    def in_domain(self, x):
        return self.base.in_domain(self.scale * np.asarray(x, dtype=float))


class DiagScaledSimplex:
    """Image of the unit simplex under x -> x / scale, with matching lmo.

    Its vertices e_i / scale_i lie on the coordinate axes, so its lmo
    returns them as (i, 1 / scale_i).
    """

    kind = "scaled_simplex"

    def __init__(self, scale):
        self.scale = np.asarray(scale, dtype=float)
        self.dim = self.scale.shape[0]

    def lmo(self, c):
        i = int(np.argmin(np.asarray(c) / self.scale))
        return i, 1.0 / self.scale[i]

    def contains(self, x):
        return Simplex(self.dim).contains(self.scale * np.asarray(x, dtype=float))

    def start_point(self):
        return Simplex(self.dim).start_point() / self.scale


class TestAffineInvariance:
    def test_diagonal_reparametrization_preserves_run(self):
        oracle, fs = portfolio_problem(gen_portfolio_data(15, 6, 5))
        gen = np.random.default_rng(21)
        scale = gen.uniform(0.5, 2.0, size=oracle.dim)
        scaled_oracle = DiagScaledOracle(oracle, scale)
        scaled_set = DiagScaledSimplex(scale)

        config = RunConfig(epsilon=1e-30, max_iter=200, policy="analytic")
        base = fw_solve(oracle, fs, config)
        scaled = fw_solve(scaled_oracle, scaled_set, config, x0=fs.start_point() / scale)

        assert len(base.records) == len(scaled.records)
        for rb, rs in zip(base.records, scaled.records):
            assert abs(rb.alpha - rs.alpha) <= 1e-9
            assert abs(rb.gap - rs.gap) <= 1e-9
        assert np.allclose(scaled.final_x * scale, base.final_x, atol=1e-9)


class TestTraceExport:
    def test_csv_round_trip(self, tmp_path, desk_portfolio):
        oracle, fs = desk_portfolio
        for method in METHODS:
            trace = run_one(oracle, fs, method, 1e-9, 50)
            path = tmp_path / f"{method}.csv"
            trace.save_csv(path)
            cols = read_trace_csv(path)
            assert len(cols) == len(trace.records)
            for name in ("k", "f", "gap", "alpha", "e", "time_ns"):
                # 17 significant digits round-trip exactly
                assert cols[name].tolist() == [getattr(r, name) for r in trace.records], (method, name)
            lip = [np.nan if r.lipschitz is None else r.lipschitz for r in trace.records]
            np.testing.assert_array_equal(cols["lipschitz"], lip)  # a None L reads back as NaN

    def test_csv_l_column_empty_for_non_backtracking(self, tmp_path, log_barrier2):
        trace = fw_solve(
            log_barrier2,
            Simplex(2),
            RunConfig(epsilon=1e-8, max_iter=20, policy="analytic"),
            x0=np.array([0.25, 0.75]),
        )
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        body = path.read_text().splitlines()
        assert body[0] == "k,f,gap,alpha,e,L,time_ns"
        assert all(line.split(",")[5] == "" for line in body[1:])

    def test_json_echoes_config(self, tmp_path, log_barrier2):
        config = RunConfig(epsilon=1e-8, max_iter=20, policy="analytic")
        trace = fw_solve(log_barrier2, Simplex(2), config, x0=np.array([0.25, 0.75]))
        path = tmp_path / "trace.json"
        trace.save_json(path)
        data = json.loads(path.read_text())
        assert data["config"]["epsilon"] == 1e-8
        assert data["config"]["max_iter"] == 20
        assert data["config"]["policy"] == "analytic"
        assert data["termination"] == trace.termination
        assert len(data["iterations"]) == len(trace.records)
        assert data["iterations"][0]["f"] == trace.records[0].f

    def test_json_rows_carry_every_record_field(self, tmp_path, desk_portfolio):
        config = RunConfig(epsilon=1e-8, max_iter=30, policy="backtracking")
        trace = fw_solve(*desk_portfolio, config)
        path = tmp_path / "trace.json"
        trace.save_json(path)
        rows = json.loads(path.read_text())["iterations"]
        assert [row["evals"] for row in rows] == [r.evals for r in trace.records]
        assert [row["L"] for row in rows] == [r.lipschitz for r in trace.records]
        assert all(row["radius"] is None and row["contraction"] is None for row in rows)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,2", r"line 3: the dtype passed requires 7 columns but 3 were found"),
            ("0,1,2,abc,4,,5", r"line 3: could not convert string 'abc' to float64"),
            ("1,nan,2,0.5,4,,5", r"line 3: non-finite f or gap"),
        ],
        ids=["truncated-row", "non-numeric-cell", "non-finite-f"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "trace.csv"
        path.write_text(f"k,f,gap,alpha,e,L,time_ns\n0,1,2,0.5,4,,5\n{row}\n")
        with pytest.raises(ValueError, match=f"trace.csv, {message}"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "body, expected",
        [
            # read: the columns named, as the earlier row-by-row reader read them
            ("0,1,2,0.5,4,,5\n\n1,1,2,0.5,4,,6\n", {"k": [0, 1], "time_ns": [5, 6]}),
            ("0,1,2,0.5,4,,5\r\n1,1,2,0.5,4,2.5,6\r\n", {"k": [0, 1], "lipschitz": [np.nan, 2.5]}),
            (" 0 , 1 ,2 ,0.5, 4,, 5 \n", {"k": [0], "f": [1.0], "e": [4.0], "time_ns": [5]}),
            ("+0,1,2,0.5,4,,5\n", {"k": [0]}),
            ("0,1,2,0.5,4,nan,5\n", {"lipschitz": [np.nan]}),  # as an empty L
            ("0,1,2,0.5,4,1_0,5\n", {"lipschitz": [10.0]}),  # L goes through Python's float
            # rejected, as by the row-by-row reader, with numpy's message
            ("0,1,2,0.5,4,,5\n# note\n", ", line 3: the dtype passed requires 7 columns but 1 were found"),
            ("0.0,1,2,0.5,4,,5\n", ", line 2: could not convert string '0.0' to int64"),
            ("0,1,2,0.5,4,,5e0\n", ", line 2: could not convert string '5e0' to int64"),
            ("0,1,2,0.5,4,,5,7\n", ", line 2: the dtype passed requires 7 columns but 8 were found"),
            ("0,1,2\n", ", line 2: the dtype passed requires 7 columns but 3 were found"),
            ("0,1,2,abc,4,,5\n", ", line 2: could not convert string 'abc' to float64"),
            ("0,1,2,,4,,5\n", ", line 2: could not convert string '' to float64"),
            ("0,nan,2,0.5,4,,5\n", ", line 2: non-finite f or gap"),
            ("0,1,2,0.5,4,,5\n1,1,inf,0.5,4,,6\n", ", line 3: non-finite f or gap"),
            ('0,"1.5",2,0.5,4,,5\n', ", line 2: could not convert string '\"1.5\"' to float64"),
            ("", ": the trace has no rows"),
            # rejected; the row-by-row reader skipped the line of spaces and read the
            # others: f = 10.0, time_ns as a Python int, the rows out of order
            ("0,1,2,0.5,4,,5\n   \n", ", line 3: the dtype passed requires 7 columns but 1 were found"),
            ("0,1_0,2,0.5,4,,5\n", ", line 2: could not convert string '1_0' to float64"),
            ("0,1,2,0.5,4,,99999999999999999999\n", ", line 2: could not convert string '99999999999999999999' to int64"),
            ("0,1,2,0.5,4,,5\n2,1,2,0.5,4,,6\n", ", line 3: k is 2, expected 1"),
            ("1,1,2,0.5,4,,5\n", ", line 2: k is 1, expected 0"),
            ("0,1,2,0.5,4,,5\n\n1,1,2,0.5,4,,4\n", ", line 4: time_ns 4 is below the previous row's 5"),
            # rejected: a trace is ASCII, so a non-ASCII digit, which Python's int
            # and float read, reaches the parse as its escaped UTF-8 bytes
            ("\uff10,1,2,0.5,4,,5\n", r", line 2: could not convert string '\\xef\\xbc\\x90' to int64"),
            ("0,1,2,0.5,4,,5\n1,\u0661,2,0.5,4,,6\n", r", line 3: could not convert string '\\xd9\\xa1' to float64"),
            ("0,1,2,0.5,4,\uff11,5\n", r", line 2: could not convert string '\\xef\\xbc\\x91' to float64"),
            # rejected, by the converter of L
            ("0,1,2,0.5,4,abc,5\n", ", line 2: could not convert string 'abc' to float64"),
        ],
        ids=[
            "blank-line",
            "crlf",
            "padded-cells",
            "plus-zero-k",
            "nan-in-L",
            "underscore-in-L",
            "comment-line",
            "float-in-k",
            "exponent-in-time",
            "extra-column",
            "truncated-row",
            "non-numeric-cell",
            "empty-alpha",
            "nan-f",
            "inf-gap",
            "quoted-cell",
            "header-only",
            "whitespace-line",
            "underscore-in-f",
            "time-above-int64",
            "k-skips",
            "k-not-from-zero",
            "time-falls",
            "fullwidth-digit-in-k",
            "arabic-indic-digit-in-f",
            "fullwidth-digit-in-L",
            "non-numeric-L",
        ],
    )
    def test_edge_case_files(self, tmp_path, body, expected):
        path = tmp_path / "trace.csv"
        newline = "\r\n" if "\r" in body else "\n"
        path.write_bytes(f"k,f,gap,alpha,e,L,time_ns{newline}{body}".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning among them
            if isinstance(expected, str):
                with pytest.raises(ValueError) as exc:
                    read_trace_csv(path)
                assert str(exc.value) == f"{path}{expected}"
            else:
                cols = read_trace_csv(path)
                for name, values in expected.items():
                    np.testing.assert_array_equal(cols[name], values)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"k,f,gap,alpha,e,L,time_ns\n0,1,2,0.5,4,,5\n1,\xff,2,0.5,4,,6\n")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(path)
        assert str(exc.value).startswith(f"{path}, line 3: ")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_past_the_first_chunk_names_its_line(self, tmp_path, newline):
        # the text decoder reads 8 KB chunks; the line counts from the file
        rows = "".join(f"{k},1,2,0.5,4,,{k}{newline}" for k in range(3000))
        assert len(rows) > 8192
        path = tmp_path / "trace.csv"
        body = f"k,f,gap,alpha,e,L,time_ns{newline}{rows}3000,\xff,2,0.5,4,,3000{newline}"
        path.write_bytes(body.encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            read_trace_csv(path)
        assert str(exc.value).startswith(f"{path}, line 3002: ")
