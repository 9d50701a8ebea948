import io

import numpy as np
import pytest

from condgrad import rng
from condgrad.core import DomainError
from condgrad.problems import (
    LogisticOracle,
    ParseError,
    PoissonOracle,
    PortfolioOracle,
    format_libsvm,
    gen_binary_design,
    gen_logistic_data,
    gen_portfolio_data,
    load_returns_csv,
    logistic_problem,
    parse_libsvm,
    poisson_problem,
    portfolio_problem,
    save_returns_csv,
)

from conftest import (
    DATA_DIR,
    check_curvature_bounds,
    check_gradient_fd,
    check_hessvec_fd,
    interior_simplex_points,
    scale_to_local_distance,
)


class TestPortfolioOracle:
    def test_constant_returns_row(self):
        oracle = PortfolioOracle(np.array([[1.0, 1.0]]))
        x = np.array([0.5, 0.5])
        assert oracle.value(x) == 0.0
        assert np.allclose(oracle.gradient(x), [-1.0, -1.0])

    def test_single_row_worked_case(self):
        oracle = PortfolioOracle(np.array([[2.0, 1.0]]))
        x = np.array([0.5, 0.5])
        assert oracle.value(x) == pytest.approx(-np.log(1.5), abs=1e-15)
        assert np.allclose(oracle.gradient(x), [-4.0 / 3.0, -2.0 / 3.0])
        # H u = r (r.u) / (r.x)^2 with r.u = 2 and (r.x)^2 = 2.25
        assert np.allclose(oracle.hess_vec(x, [1.0, 0.0]), [16.0 / 9.0, 8.0 / 9.0])

    def test_hessian_symmetry(self):
        oracle = PortfolioOracle(gen_portfolio_data(9, 4, 2))
        gen = np.random.default_rng(0)
        for x in interior_simplex_points(gen, 10, 4):
            u = gen.normal(size=4)
            v = gen.normal(size=4)
            left = float(np.dot(oracle.hess_vec(x, u), v))
            right = float(np.dot(oracle.hess_vec(x, v), u))
            assert left == pytest.approx(right, abs=1e-10)

    def test_value_invariant_under_row_permutation(self):
        returns = gen_portfolio_data(7, 3, 4)
        oracle = PortfolioOracle(returns)
        shuffled = PortfolioOracle(returns[::-1].copy())
        x = np.array([0.2, 0.5, 0.3])
        assert oracle.value(x) == pytest.approx(shuffled.value(x), rel=1e-14)

    def test_value_infinite_outside_domain(self):
        oracle = PortfolioOracle(np.array([[1.0, 2.0]]))
        assert oracle.value(np.array([-3.0, 1.0])) == np.inf
        with pytest.raises(DomainError):
            oracle.gradient(np.array([-3.0, 1.0]))

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            PortfolioOracle(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            PortfolioOracle(np.array([[1.0, -0.5]]))

    def test_curvature_parameter(self):
        assert PortfolioOracle(np.ones((3, 2))).M == 2.0


class TestGenPortfolioData:
    def test_deterministic(self):
        a = gen_portfolio_data(40, 11, 42)
        b = gen_portfolio_data(40, 11, 42)
        assert np.array_equal(a, b)
        c = gen_portfolio_data(40, 11, 43)
        assert not np.array_equal(a, c)

    def test_clamped_and_centered(self):
        big = gen_portfolio_data(1000, 800, 7)
        assert np.all(big > 0.01 - 1e-15)
        assert abs(big.mean() - 1.0) < 1e-3
        assert abs(big.std() - 0.1) < 2e-3

    def test_paper_scale_shapes(self):
        for p in (800, 1200, 1500):
            seen = set()
            for sample in range(4):
                m = gen_portfolio_data(1000, p, 100 * p + sample)
                assert m.shape == (1000, p)
                seen.add(float(m[0, 0]))
            assert len(seen) == 4


class TestPoissonOracle:
    def test_single_row_worked_case(self):
        problem = poisson_problem(np.array([[1.0, 0.0]]), np.array([1.0]), radius=2.0)
        x = np.array([0.5, 0.5])
        assert problem.oracle.value(x) == pytest.approx(0.5 + np.log(2.0), abs=1e-15)
        assert np.allclose(problem.oracle.gradient(x), [-1.0, 0.0])

    def test_unit_counts_give_curvature_two(self):
        w = gen_binary_design(10, 4, 0.5, 3)
        problem = poisson_problem(w, np.ones(10))
        assert problem.oracle.M == 2.0

    def test_mixed_counts_curvature(self):
        w = np.ones((3, 2))
        problem = poisson_problem(w, np.array([4.0, 1.0, 0.0]))
        assert problem.oracle.M == 2.0  # max over positive counts of 2/sqrt(y)

    def test_zero_counts_reduce_to_linear(self):
        w = np.array([[1.0, 2.0], [0.5, 0.25]])
        problem = poisson_problem(w, np.zeros(2))
        g1 = problem.oracle.gradient(np.array([0.4, 0.1]))
        g2 = problem.oracle.gradient(np.array([3.0, 2.0]))
        assert np.allclose(g1, g2)
        assert np.allclose(g1, w.sum(axis=0))

    def test_rejects_empty_row_with_positive_count(self):
        with pytest.raises(ValueError):
            poisson_problem(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 1.0]))

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError):
            poisson_problem(np.ones((1, 2)), np.array([0.5]))


class TestLogisticOracle:
    def test_value_at_zero_is_ln_two(self):
        feats, labels = gen_logistic_data(20, 5, 1)
        problem = logistic_problem(feats, labels, gamma=1.0)
        assert problem.oracle.value(np.zeros(5)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_single_sample_gradient(self):
        problem = logistic_problem(np.array([[1.0, 0.0]]), np.array([1.0]), gamma=1.0)
        assert np.allclose(problem.oracle.gradient(np.zeros(2)), [-0.5, 0.0])

    def test_hessvec_at_zero_closed_form(self):
        feats, labels = gen_logistic_data(15, 4, 6)
        gamma = 0.3
        problem = logistic_problem(feats, labels, gamma=gamma)
        u = np.array([0.5, -1.0, 2.0, 0.1])
        expected = 0.25 * feats.T @ (feats @ u) / feats.shape[0] + gamma * u
        assert np.allclose(problem.oracle.hess_vec(np.zeros(4), u), expected, atol=1e-12)

    def test_curvature_parameter(self):
        feats = np.array([[3.0, 4.0], [1.0, 0.0]])
        problem = logistic_problem(feats, np.array([1.0, -1.0]), gamma=0.25)
        assert problem.oracle.M == pytest.approx(5.0 / 0.5)

    def test_default_gamma_is_one_over_n(self):
        feats, labels = gen_logistic_data(40, 3, 2)
        problem = logistic_problem(feats, labels)
        assert problem.oracle.gamma == pytest.approx(1.0 / 40.0)

    def test_value_sandwich(self):
        feats, labels = gen_logistic_data(30, 6, 9)
        problem = logistic_problem(feats, labels, gamma=0.1)
        gen = np.random.default_rng(1)
        for _ in range(20):
            x = gen.normal(size=6)
            val = problem.oracle.value(x)
            reg = 0.05 * float(np.dot(x, x))
            margins = np.abs(labels * (feats @ x))
            assert reg <= val <= np.log(2.0) + reg + float(np.max(margins))


@pytest.mark.parametrize(
    "cls, args",
    [
        (PortfolioOracle, (np.ones((0, 3)),)),
        (PoissonOracle, (np.ones((0, 3)), np.ones(0))),
        (LogisticOracle, (np.ones((0, 3)), np.ones(0))),
    ],
    ids=["portfolio", "poisson", "logistic"],
)
def test_data_matrix_without_rows_rejected(cls, args):
    with pytest.raises(ValueError, match=f"{cls.__name__}: the data matrix has no rows"):
        cls(*args)


@pytest.mark.parametrize(
    "cls, args",
    [
        (PortfolioOracle, ([[1.0, np.inf]],)),
        (PoissonOracle, ([[1.0, np.inf]], [1.0])),
        (LogisticOracle, ([[1.0, np.inf]], [1.0])),
        (LogisticOracle, ([[1.0, -np.inf]], [1.0])),
        (LogisticOracle, ([[1.0, np.nan]], [1.0])),
    ],
    ids=["portfolio", "poisson", "logistic", "logistic-minus-inf", "logistic-nan"],
)
def test_data_matrix_with_non_finite_entry_rejected(cls, args):
    with pytest.raises(ValueError, match=f"{cls.__name__}: the data matrix has non-finite entries"):
        cls(*args)


def _interior_points(kind, oracle, count, gen):
    if kind == "portfolio":
        return interior_simplex_points(gen, count, oracle.dim)
    if kind == "poisson":
        return gen.uniform(0.05, 0.3, size=(count, oracle.dim))
    return gen.normal(scale=0.3, size=(count, oracle.dim))


@pytest.fixture(scope="module")
def calculus_instances():
    feats_p = gen_binary_design(30, 8, 0.3, 13)
    feats_l, labels_l = gen_logistic_data(25, 6, 8)
    return {
        "portfolio": portfolio_problem(gen_portfolio_data(12, 5, 1)).oracle,
        "poisson": poisson_problem(feats_p, np.ones(feats_p.shape[0])).oracle,
        "logistic": logistic_problem(feats_l, labels_l, gamma=0.5).oracle,
    }


class TestValueDomainConsistency:
    @pytest.mark.parametrize("kind", ["portfolio", "poisson", "logistic"])
    def test_value_finite_iff_in_domain(self, kind, calculus_instances):
        oracle = calculus_instances[kind]
        gen = np.random.default_rng(53)
        for _ in range(50):
            x = gen.normal(scale=0.5, size=oracle.dim)  # mixes both sides
            assert np.isfinite(oracle.value(x)) == oracle.in_domain(x)


class TestOracleCalculus:
    @pytest.mark.parametrize("kind", ["portfolio", "poisson", "logistic"])
    def test_gradient_matches_finite_differences(self, kind, calculus_instances):
        oracle = calculus_instances[kind]
        gen = np.random.default_rng(31)
        for x in _interior_points(kind, oracle, 20, gen):
            check_gradient_fd(oracle, x)

    @pytest.mark.parametrize("kind", ["portfolio", "poisson", "logistic"])
    def test_hessvec_matches_gradient_differences(self, kind, calculus_instances):
        oracle = calculus_instances[kind]
        gen = np.random.default_rng(37)
        for x in _interior_points(kind, oracle, 20, gen):
            check_hessvec_fd(oracle, x, gen.normal(size=oracle.dim))

    @pytest.mark.parametrize("kind", ["portfolio", "poisson", "logistic"])
    def test_curvature_envelopes(self, kind, calculus_instances):
        oracle = calculus_instances[kind]
        gen = np.random.default_rng(41)
        for x in _interior_points(kind, oracle, 20, gen):
            step = scale_to_local_distance(oracle, x, gen.normal(size=oracle.dim) * 1e-3)
            check_curvature_bounds(oracle, x, x + step)


class TestLibsvmParser:
    def test_basic_lines(self):
        feats, labels = parse_libsvm("+1 1:0.5 3:2\n-1 2:1\n")
        assert np.array_equal(labels, [1.0, -1.0])
        assert np.array_equal(feats, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])

    def test_comments_and_blanks_skipped(self):
        feats, labels = parse_libsvm("# header\n\n+1 1:1\n")
        assert feats.shape == (1, 1)

    def test_nonascending_index_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 3:1 2:1\n")

    def test_bad_tokens_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 2:x\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_libsvm("+1 1:1\n-1 2:1\nbad 1:1\n".replace("bad", "huh?"))
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 0:1\n")

    def test_round_trip_preserves_sparse_structure(self):
        w = gen_binary_design(50, 12, 0.3, 17) * 1.5
        labels = np.where(rng.uniforms(3, 50) < 0.5, 1.0, -1.0)
        text = format_libsvm(w, labels)
        feats, labs = parse_libsvm(text)
        assert np.array_equal(feats, w)
        assert np.array_equal(labs, labels)
        assert format_libsvm(feats, labs) == text

    def test_fixture_file_parses(self):
        with open(DATA_DIR / "poisson200.libsvm") as fh:
            feats, labels = parse_libsvm(fh)
        assert feats.shape == (200, 30)
        assert set(np.unique(labels)) == {-1.0, 1.0}
        assert np.all(feats.sum(axis=1) > 0)


class TestReturnsCsv:
    def test_round_trip(self, tmp_path):
        returns = gen_portfolio_data(6, 4, 77)
        path = tmp_path / "returns.csv"
        save_returns_csv(path, returns, 77)
        back, seed = load_returns_csv(path)
        assert seed == 77
        assert np.array_equal(back, returns)
        assert path.read_text().splitlines()[0] == "6,4,77"

    def test_shape_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,0\n1.0,1.0\n")
        with pytest.raises(ValueError):
            load_returns_csv(path)


class TestCounterRng:
    def test_streams_deterministic_and_seed_sensitive(self):
        assert np.array_equal(rng.uniforms(5, 100), rng.uniforms(5, 100))
        assert not np.array_equal(rng.uniforms(5, 100), rng.uniforms(6, 100))
        assert np.array_equal(rng.normals(5, 101), rng.normals(5, 101))

    def test_uniform_range_and_moments(self):
        u = rng.uniforms(123, 200000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 2e-3

    def test_normal_moments(self):
        z = rng.normals(321, 200000)
        assert abs(z.mean()) < 7e-3
        assert abs(z.std() - 1.0) < 5e-3
