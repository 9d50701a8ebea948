import numpy as np
import pytest

from condgrad.core import (
    DomainError,
    InvariantError,
    dist_like,
    gap_and_target,
    omega,
    omega_star,
)
from condgrad.sets import Simplex
from condgrad.problems import PortfolioOracle

from conftest import EdgeOracle, LogBarrierOracle, QuadOracle, dense


class TestOmega:
    @pytest.mark.parametrize(
        "t,expected",
        [(0.0, 0.0), (1.0, 1.0 - np.log(2.0)), (-0.5, -0.5 - np.log(0.5))],
    )
    def test_values(self, t, expected):
        assert omega(t) == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize(
        "t,expected",
        [(0.0, 0.0), (0.5, -0.5 - np.log(0.5)), (0.99, -0.99 - np.log(0.01))],
    )
    def test_star_values(self, t, expected):
        assert omega_star(t) == pytest.approx(expected, abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            omega(-1.0)
        with pytest.raises(DomainError):
            omega_star(1.0)

    def test_series_matches_direct_at_crossover(self):
        # the series region must join the log formula smoothly
        for t in (9.9e-5, -9.9e-5, 1.01e-4, -1.01e-4, 5e-5, 1e-7):
            direct_o = t - np.log1p(t)
            direct_s = -t - np.log1p(-t)
            assert omega(t) == pytest.approx(direct_o, rel=1e-8, abs=1e-18)
            assert omega_star(t) == pytest.approx(direct_s, rel=1e-8, abs=1e-18)

    def test_omega_below_omega_star_on_unit_grid(self):
        for t in np.linspace(1e-3, 0.999, 200):
            assert omega(t) <= omega_star(t)

    def test_monotone_increasing(self):
        grid = np.linspace(0.0, 5.0, 50)
        vals = [omega(t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        grid = np.linspace(0.0, 0.99, 50)
        vals = [omega_star(t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestLocalNorm:
    def test_log_barrier_worked_case(self, log_barrier2):
        x = np.array([0.25, 0.75])
        u = np.array([0.75, -0.75])
        assert log_barrier2.point(x).norm_to(x + u) == pytest.approx(np.sqrt(10.0), abs=1e-12)

    def test_zero_direction(self, log_barrier2):
        x = np.array([0.3, 0.7])
        assert log_barrier2.point(x).norm_to(x) == 0.0

    def test_identity_hessian_is_euclidean(self, quad2):
        assert quad2.point(np.zeros(2)).norm_to(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_outside_domain_raises(self, log_barrier2):
        with pytest.raises(DomainError):
            log_barrier2.point(np.array([-1.0, 1.0])).norm_to(np.array([0.0, 2.0]))

    def test_negative_quadratic_form_raises(self):
        class BadOracle(QuadOracle):
            def hess_vec(self, x, u):
                return -np.asarray(u, dtype=float)

        with pytest.raises(InvariantError):
            BadOracle(np.ones(2)).point(np.zeros(2)).norm_to(np.ones(2))

    def test_rounding_negative_quadratic_form_is_clipped(self):
        # the form is -2e-15, within the rounding allowance -1e-12 * (1 + |v|^2)
        assert EdgeOracle().point(np.array([1.0, 0.0])).norm_to((1, 1.0)) == 0.0

    def test_definition_consistency(self, log_barrier2):
        gen = np.random.default_rng(3)
        for _ in range(50):
            x = gen.uniform(0.1, 2.0, size=2)
            u = gen.normal(size=2)
            target = x + u
            u = target - x  # the direction norm_to measures
            q = log_barrier2.point(x).norm_to(target) ** 2
            ref = float(np.dot(u, log_barrier2.hess_vec(x, u)))
            assert abs(q - ref) <= 1e-10 * (1.0 + float(np.dot(u, u)))


class TestDistLike:
    def test_same_point(self, log_barrier2):
        x = np.array([0.5, 0.5])
        assert dist_like(log_barrier2.point(x), x) == 0.0

    def test_log_barrier_worked_case(self, log_barrier2):
        assert dist_like(
            log_barrier2.point(np.array([0.25, 0.75])), np.array([1.0, 0.0])
        ) == pytest.approx(np.sqrt(10.0), abs=1e-12)

    def test_linear_in_curvature_parameter(self):
        a = LogBarrierOracle(2)
        b = LogBarrierOracle(2)
        b.M = 4.0
        x = np.array([0.25, 0.75])
        y = np.array([0.5, 0.6])
        assert dist_like(b.point(x), y) == pytest.approx(2.0 * dist_like(a.point(x), y))


class TestGapAndTarget:
    def test_log_barrier_on_simplex(self, log_barrier2):
        point = log_barrier2.point(np.array([0.25, 0.75]))
        gap, target = gap_and_target(Simplex(2), point)
        assert np.array_equal(dense(2, target), [1.0, 0.0])
        assert gap == pytest.approx(2.0, abs=1e-12)
        assert dist_like(point, target) == pytest.approx(np.sqrt(10.0), abs=1e-12)
        assert np.dot(point.gradient, dense(2, target)) == pytest.approx(-4.0, abs=1e-12)

    def test_constant_objective_has_zero_gap(self):
        oracle = PortfolioOracle(np.array([[1.0, 1.0]]))
        gap, _ = gap_and_target(Simplex(2), oracle.point(np.array([0.5, 0.5])))
        assert gap == 0.0

    def test_quadratic_on_simplex_vertex(self, quad2):
        gap, target = gap_and_target(Simplex(2), quad2.point(np.array([1.0, 0.0])))
        assert np.array_equal(dense(2, target), [0.0, 1.0])
        assert gap == pytest.approx(1.0)

    def test_infeasible_point_rejected(self, log_barrier2):
        with pytest.raises(ValueError):
            gap_and_target(Simplex(2), log_barrier2.point(np.array([0.8, 0.8])))

    def test_out_of_domain_rejected(self, quad2):
        oracle = LogBarrierOracle(2)
        with pytest.raises(DomainError):
            gap_and_target(Simplex(2), oracle.point(np.array([1.0, 0.0])))

    def test_broken_lmo_raises_invariant_error(self, quad2):
        class WorseThanX:
            dim = 2
            kind = "rigged"

            def lmo(self, c):
                return 1, 2.0  # 2 e_1 is strictly worse than x=(0,1) for c=(0,1)

            def contains(self, x, tol=1e-9):
                return True

        with pytest.raises(InvariantError):
            gap_and_target(WorseThanX(), quad2.point(np.array([0.0, 1.0])))


class TestConcurrentReads:
    def test_shared_oracle_is_safe_for_parallel_gap_queries(self, log_barrier2):
        from concurrent.futures import ThreadPoolExecutor

        fs = Simplex(2)
        gen = np.random.default_rng(8)
        points = [gen.dirichlet([2.0, 2.0]) for _ in range(64)]
        expected = [gap_and_target(fs, log_barrier2.point(x))[0] for x in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda x: gap_and_target(fs, log_barrier2.point(x))[0], points))
        assert got == expected
