import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from condgrad.core import (
    _SERIES_CUTOFF,
    DomainError,
    InvariantError,
    dist_like,
    finite_real,
    gap_and_target,
    omega,
    omega_star,
    positive_int,
    positive_real,
)
from condgrad.sets import Simplex
from condgrad.problems import PortfolioOracle

from conftest import EdgeOracle, LogBarrierOracle, QuadOracle, dense


class TestScalarRules:
    """The rules' refusals are pinned per argument in test_validation.py."""

    @pytest.mark.parametrize(
        "v",
        [np.float32(0.5), np.float64(0.5), np.int64(2), 3, Fraction(1, 2)]
        + [sys.float_info.max, int(sys.float_info.max)],
    )
    def test_a_finite_positive_number_passes_as_a_float(self, v):
        for rule in (finite_real, positive_real):
            out = rule("x", v)
            assert type(out) is float and out == float(v)

    def test_finite_real_passes_zero_and_negative_numbers(self):
        assert finite_real("x", 0) == 0.0
        assert finite_real("x", -sys.float_info.max) == -sys.float_info.max

    @pytest.mark.parametrize("v", [np.int64(5), np.int32(5), np.uint8(5), 5, 10**400])
    def test_an_integer_passes_as_an_int(self, v):
        out = positive_int("x", v)
        assert type(out) is int and out == v


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

    @given(
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True)
        | st.floats(min_value=-_SERIES_CUTOFF, max_value=_SERIES_CUTOFF)
    )
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(_SERIES_CUTOFF)
    @example(-_SERIES_CUTOFF)
    def test_omega_star_is_omega_reflected(self, t):
        # bit for bit, on both sides of the series cutoff
        assert omega_star(t).hex() == omega(-t).hex()

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

    def test_gradient_given_as_a_list(self, quad2):
        class ListGradient(QuadOracle):
            def gradient(self, x):
                return list(super().gradient(x))

        x = np.array([0.25, 0.75])
        point = ListGradient(quad2.diag).point(x)
        assert gap_and_target(Simplex(2), point) == gap_and_target(Simplex(2), quad2.point(x))
        assert isinstance(point.gradient, np.ndarray)

    def test_broken_lmo_raises_invariant_error(self, quad2):
        class WorseThanX:
            dim = 2
            kind = "rigged"

            def lmo(self, c):
                return 1, 2.0  # 2 e_1 is strictly worse than x=(0,1) for c=(0,1)

            def contains(self, x):
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


class TestImport:
    def test_package_import_loads_no_scipy(self):
        # numpy is the one runtime dependency: a fresh interpreter imports
        # condgrad without loading any scipy module
        import os
        import subprocess
        import sys
        from pathlib import Path

        import condgrad

        env = dict(os.environ, PYTHONPATH=str(Path(condgrad.__file__).parents[1]))
        code = "import sys, condgrad; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"
