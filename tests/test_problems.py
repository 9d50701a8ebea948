import functools
import gc
import io
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condgrad import rng
from condgrad.core import DomainError
from condgrad.problems import (
    PORTFOLIO_CLAMP,
    GlmPoint,
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
from condgrad.sets import L1Ball, NonnegL1Ball, Simplex

from conftest import (
    DATA_DIR,
    OFFSETS,
    at_offset,
    check_curvature_bounds,
    check_gradient_fd,
    check_hessvec_fd,
    interior_simplex_points,
    scale_to_local_distance,
)


@pytest.mark.parametrize(
    "build, oracle_class, set_class",
    [
        (lambda: portfolio_problem(gen_portfolio_data(6, 3, 0)), PortfolioOracle, Simplex),
        (lambda: poisson_problem(gen_binary_design(6, 3, 0.5, 0), np.ones(6)), PoissonOracle, NonnegL1Ball),
        (lambda: logistic_problem(*gen_logistic_data(6, 3, 0)), LogisticOracle, L1Ball),
    ],
    ids=["portfolio", "poisson", "logistic"],
)
def test_factory_returns_the_oracle_and_set_the_readme_names(build, oracle_class, set_class):
    pair = build()
    assert type(pair) is tuple and len(pair) == 2
    oracle, feasible_set = pair
    assert type(oracle) is oracle_class and type(feasible_set) is set_class
    assert feasible_set.dim == oracle.dim
    readme = (DATA_DIR.parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Each family has one factory returning the pair `(oracle, feasible_set)`") :]
    paragraph = paragraph[: paragraph.index("\n\n")]
    assert f"`{oracle_class.__name__}`" in paragraph and f"`{set_class.__name__}`" in paragraph


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
        oracle, _ = poisson_problem(np.array([[1.0, 0.0]]), np.array([1.0]), radius=2.0)
        x = np.array([0.5, 0.5])
        assert oracle.value(x) == pytest.approx(0.5 + np.log(2.0), abs=1e-15)
        assert np.allclose(oracle.gradient(x), [-1.0, 0.0])

    def test_unit_counts_give_curvature_two(self):
        w = gen_binary_design(10, 4, 0.5, 3)
        oracle, _ = poisson_problem(w, np.ones(10))
        assert oracle.M == 2.0

    def test_mixed_counts_curvature(self):
        w = np.ones((3, 2))
        oracle, _ = poisson_problem(w, np.array([4.0, 1.0, 0.0]))
        assert oracle.M == 2.0  # max over positive counts of 2/sqrt(y)

    def test_zero_counts_reduce_to_linear(self):
        w = np.array([[1.0, 2.0], [0.5, 0.25]])
        oracle, _ = poisson_problem(w, np.zeros(2))
        g1 = oracle.gradient(np.array([0.4, 0.1]))
        g2 = oracle.gradient(np.array([3.0, 2.0]))
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
        oracle, _ = logistic_problem(feats, labels, gamma=1.0)
        assert oracle.value(np.zeros(5)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_single_sample_gradient(self):
        oracle, _ = logistic_problem(np.array([[1.0, 0.0]]), np.array([1.0]), gamma=1.0)
        assert np.allclose(oracle.gradient(np.zeros(2)), [-0.5, 0.0])

    def test_hessvec_at_zero_closed_form(self):
        feats, labels = gen_logistic_data(15, 4, 6)
        gamma = 0.3
        oracle, _ = logistic_problem(feats, labels, gamma=gamma)
        u = np.array([0.5, -1.0, 2.0, 0.1])
        expected = 0.25 * feats.T @ (feats @ u) / feats.shape[0] + gamma * u
        assert np.allclose(oracle.hess_vec(np.zeros(4), u), expected, atol=1e-12)

    def test_derivatives_keep_a_vanishing_sigmoid(self):
        # at margin t = 40, sigmoid(-t) = 4.2e-18 and sigmoid(t) rounds to 1:
        # l' and l'' are formed from sigmoid(-t), not as 1 minus sigmoid(t)
        oracle = LogisticOracle([[1.0], [1.0]], [1.0, -1.0])
        d1, d2, sig_neg = oracle._derivatives(np.array([40.0, -40.0]))
        tail = np.exp(-40.0) / (1.0 + np.exp(-40.0))
        np.testing.assert_allclose(sig_neg, [tail, tail], rtol=1e-15)
        np.testing.assert_allclose(d1, [-tail / 2, tail / 2], rtol=1e-15)
        np.testing.assert_allclose(d2, [tail / 2, tail / 2], rtol=1e-15)

    def test_curvature_parameter(self):
        feats = np.array([[3.0, 4.0], [1.0, 0.0]])
        oracle, _ = logistic_problem(feats, np.array([1.0, -1.0]), gamma=0.25)
        assert oracle.M == pytest.approx(5.0 / 0.5)

    def test_default_gamma_is_one_over_n(self):
        feats, labels = gen_logistic_data(40, 3, 2)
        oracle, _ = logistic_problem(feats, labels)
        assert oracle.gamma == pytest.approx(1.0 / 40.0)

    def test_value_sandwich(self):
        feats, labels = gen_logistic_data(30, 6, 9)
        oracle, _ = logistic_problem(feats, labels, gamma=0.1)
        gen = np.random.default_rng(1)
        for _ in range(20):
            x = gen.normal(size=6)
            val = oracle.value(x)
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
        # the finiteness check comes before each family's sign check
        (PortfolioOracle, ([[1.0, np.nan]],)),
        (PortfolioOracle, ([[1.0, -np.inf]],)),
        (PoissonOracle, ([[1.0, -np.inf]], [1.0])),
    ],
    ids=[
        "portfolio",
        "poisson",
        "logistic",
        "logistic-minus-inf",
        "logistic-nan",
        "portfolio-nan",
        "portfolio-minus-inf",
        "poisson-minus-inf",
    ],
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
        "portfolio": portfolio_problem(gen_portfolio_data(12, 5, 1))[0],
        "poisson": poisson_problem(feats_p, np.ones(feats_p.shape[0]))[0],
        "logistic": logistic_problem(feats_l, labels_l, gamma=0.5)[0],
    }


class TestValueDomainConsistency:
    @pytest.mark.parametrize("kind", ["portfolio", "poisson", "logistic"])
    def test_value_finite_iff_in_domain(self, kind, calculus_instances):
        oracle = calculus_instances[kind]
        gen = np.random.default_rng(53)
        for _ in range(50):
            x = gen.normal(scale=0.5, size=oracle.dim)  # mixes both sides
            assert np.isfinite(oracle.value(x)) == oracle.in_domain(x)


# entries that leave the domain of a positive-count row
PLANTS = st.sampled_from([np.nan, 0.0, -0.0, -1e-300, -1.0, -500.0])


def _positive_vector(data, m):
    return np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m)))


def _counts(data, m, zero_counts):
    """Integer counts, positive, or with at least one zero."""
    counts = np.array(data.draw(st.lists(st.integers(int(not zero_counts), 3), min_size=m, max_size=m)), dtype=float)
    if zero_counts:
        counts[data.draw(st.integers(0, m - 1))] = 0.0
    return counts


def _planted(data, z):
    """A copy of z with NaN, zeros and negatives at random positions."""
    z = z.copy()
    for i, value in data.draw(st.lists(st.tuples(st.integers(0, z.size - 1), PLANTS), max_size=4)):
        z[i] = value
    return z


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestDomainTests:
    """A domain test reads the one entry argmin picks; it must decide as
    the test on every row with a positive count does."""

    @pytest.mark.parametrize("family", ["portfolio", "poisson", "poisson-zero-counts"])
    @given(data=st.data())
    def test_domain_is_all_positive_rows(self, family, data):
        m = data.draw(st.integers(1, 40))
        if family == "portfolio":
            oracle, rows = PortfolioOracle(np.ones((m, 2))), np.ones(m, dtype=bool)
        else:
            counts = _counts(data, m, family == "poisson-zero-counts")
            oracle, rows = PoissonOracle(np.ones((m, 2)), counts), counts > 0.0
        z = _planted(data, _positive_vector(data, m))
        expected = bool(np.all(z[rows] > 0.0))
        assert bool(oracle._domain(z)) is expected
        assert GlmPoint(oracle, np.zeros(2), z).in_domain is expected


class ScatterReference:
    """The Poisson family as every oracle once formed it: the rows with a
    positive count selected by index, and phi' and phi'' scattered back.
    Its sums are dots (the loss's weighted by the counts), and phi'' is
    formed from r = y / z, as in the oracle."""

    def __init__(self, counts):
        pos = counts > 0
        self._rows = slice(None) if np.all(pos) else np.flatnonzero(pos)
        self._y = counts[self._rows]

    def _domain(self, z):
        zp = z[self._rows]
        return zp.size == 0 or np.minimum.reduce(zp) > 0.0

    def _loss(self, z):
        return z.dot(np.ones(z.size)) - np.log(z[self._rows]).dot(self._y)

    def _derivatives(self, z):
        zp = z[self._rows]
        r = self._y / zp
        d1 = np.ones_like(z)
        d1[self._rows] -= r
        d2 = np.zeros_like(z)
        d2[self._rows] = r / zp
        return d1, d2

    def _change(self, z, av, alpha, derivatives):
        w = alpha * av
        r = w[self._rows] / z[self._rows]
        if r.size and not np.minimum.reduce(r) > -1.0:
            return np.inf
        return w.dot(np.ones(w.size)) - np.log1p(r).dot(self._y)


class TestPoissonRows:
    @pytest.mark.parametrize("zero_counts", [False, True], ids=["all-positive", "zero-counts"])
    @given(data=st.data())
    def test_matches_the_scatter_formulas_bit_for_bit(self, zero_counts, data):
        m = data.draw(st.integers(1, 40))
        counts = _counts(data, m, zero_counts)
        oracle, ref = PoissonOracle(np.ones((m, 2)), counts), ScatterReference(counts)
        assert (oracle._rows is None) is not zero_counts
        z = _positive_vector(data, m)
        av = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m)))
        alpha = data.draw(st.floats(0.0, 1.0))
        off = _planted(data, z)
        assert bool(oracle._domain(off)) is bool(ref._domain(off))
        assert _bits(oracle._loss(z)) == _bits(ref._loss(z))
        derivatives = oracle._derivatives(z)
        for got, want in zip(derivatives, ref._derivatives(z), strict=True):
            assert _bits(got) == _bits(want)
        assert _bits(oracle._change(z, av, alpha, derivatives)) == _bits(ref._change(z, av, alpha, derivatives))


def _family(family, m, gen):
    """An oracle of the family with m rows, a z in its domain, and an A v
    whose steps of length up to 1 stay in it."""
    z = gen.uniform(0.1, 10.0, m)
    av = z * gen.uniform(-0.9, 2.0, m)
    if family == "portfolio":
        return PortfolioOracle(gen.uniform(0.5, 1.5, (m, 2))), z, av
    if family == "logistic":
        labels = np.where(gen.uniform(size=m) < 0.5, -1.0, 1.0)
        return LogisticOracle(gen.normal(size=(m, 2)), labels, mu=0.3), 3.0 * gen.normal(size=m), gen.normal(size=m)
    counts = gen.integers(1, 4, m).astype(float)
    if family == "poisson-zero-counts":
        counts[gen.integers(0, m)] = 0.0
    return PoissonOracle(np.ones((m, 2)), counts), z, av


class TestSumsAcrossOffsets:
    """Every sum is a dot; the same values at another memory offset give
    the same bits, which the digest's byte-for-byte comparison rests on."""

    @pytest.mark.parametrize("family", ["portfolio", "poisson", "poisson-zero-counts", "logistic"])
    @pytest.mark.parametrize("m", [1, 3, 8, 17, 50, 127, 200, 1000])
    def test_loss_derivatives_and_change(self, family, m):
        oracle, z, av = _family(family, m, np.random.default_rng(m))
        alpha = 0.7

        def bits(z, av):
            d = oracle._derivatives(z)
            return _bits(oracle._loss(z)), [_bits(a) for a in d], _bits(oracle._change(z, av, alpha, d))

        want = bits(at_offset(z, 0), at_offset(av, 0))
        assert np.isfinite(oracle._change(z, av, alpha, oracle._derivatives(z)))
        for offset in OFFSETS:
            assert bits(at_offset(z, offset), at_offset(av, offset)) == want


def _logistic_by_two_divisions(oracle, z):
    """The logistic tuple as once formed: each sigmoid its own division by
    1 + e, and the chain rule's factors applied after the product."""
    t = oracle.labels * (z + oracle.mu)
    e = np.exp(-np.abs(t))
    pos, d = t >= 0.0, 1.0 + e
    sig, sig_neg = np.where(pos, 1.0, e) / d, np.where(pos, e, 1.0) / d
    m = z.shape[0]
    return sig_neg * -oracle.labels / m, sig * sig_neg * oracle.labels * oracle.labels / m, sig_neg


def _poisson_by_square(counts, z):
    """The Poisson pair as once formed: phi'' = y / (z z)."""
    return 1.0 - counts / z, counts / (z * z)


def _within_ulps(got, want, ulps=4):
    return bool(np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))))


class TestDerivativePairs:
    """The pairs formed from shared intermediates stay within a few ulps
    of the formulas they replaced, out to where exp(-|t|) underflows."""

    def test_logistic_over_the_whole_exponent_range(self):
        gen = np.random.default_rng(5)
        t = np.concatenate([np.linspace(-745.0, 745.0, 14901), gen.uniform(-745.0, 745.0, 2000), [0.0, -0.0]])
        labels = np.where(gen.uniform(size=t.size) < 0.5, -1.0, 1.0) * gen.uniform(0.5, 3.0, t.size)
        oracle = LogisticOracle(np.ones((t.size, 1)), labels)
        z = t / labels
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, want = oracle._derivatives(z), _logistic_by_two_divisions(oracle, z)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want, strict=True):
            assert _within_ulps(g, w)
        # sigmoid(-t) at the tails: the smallest subnormal at t = 745, 1 at -745
        assert got[2][np.argmax(t)] == want[2][np.argmax(t)] == 5e-324
        assert got[2][np.argmin(t)] == want[2][np.argmin(t)] == 1.0

    @pytest.mark.parametrize("zero_counts", [False, True], ids=["all-positive", "zero-counts"])
    def test_poisson_over_many_decades(self, zero_counts):
        gen = np.random.default_rng(7)
        z = 10.0 ** gen.uniform(-100.0, 100.0, 5000)
        counts = gen.integers(int(not zero_counts), 1000, z.size).astype(float)
        oracle = PoissonOracle(np.ones((z.size, 1)), counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, want = oracle._derivatives(z), _poisson_by_square(counts, z)
        for g, w in zip(got, want, strict=True):
            assert _within_ulps(g, w)


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


def _reference_parse_libsvm(stream):
    """The per-token loop `parse_libsvm` replaced, kept as the reference
    its accepted output and its messages are compared with."""
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


def _outcome(parse, make_input):
    """What `parse` makes of a fresh copy of the input: the arrays as
    (shape, dtype, C order, bytes), or the ParseError's message."""
    try:
        features, labels = parse(make_input())
    except ParseError as exc:
        return str(exc)
    return [(a.shape, a.dtype.str, a.flags.c_contiguous, a.tobytes()) for a in (features, labels)]


# the three kinds of input `parse_libsvm` takes: a string, an open text
# file (universal newlines, as `open` reads) and a list of lines
INPUT_FORMS = {
    "str": lambda text: text,
    "file": lambda text: io.StringIO(text, newline=None),
    "lines": lambda text: text.splitlines(keepends=True),
}
LIBSVM_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormal and huge included
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:+.9g}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["0", "-0", "+0.0", "5e-324", "1.7976931348623157e308", "-1E+300", "1_0", ".5", "7."]),
)
BAD_LABELS = ["x", "nan", "-inf", "1:1", "1,5"]
BAD_FEATURES = ["x", "1", "1:2:3", ":1", "1:", ":", "1.5:2", "0:1", "-2:1", "1:x", "1:inf", "1:nan", "a:1"]


def _index_text(i, form):
    return (str(i), f"+{i}", f"00{i}")[form]


@st.composite
def libsvm_texts(draw, corrupt=False):
    """A LIBSVM text with blank, comment, indented and label-only lines;
    with `corrupt`, some labels, tokens and index orders break a rule."""
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        indent = draw(st.sampled_from(["", " ", "\t", " \t "]))
        kind = draw(st.sampled_from(["data", "data", "data", "blank", "comment"]))
        if kind == "blank":
            lines.append(indent)
            continue
        if kind == "comment":
            lines.append(indent + "#" + draw(st.text(alphabet="ab 1:#", max_size=6)))
            continue
        label = draw(st.sampled_from(["+1", "-1", "0", "1"]) | LIBSVM_VALUES)
        if corrupt and draw(st.integers(0, 9)) == 0:
            label = draw(st.sampled_from(BAD_LABELS))
        indices = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        if corrupt and draw(st.integers(0, 4)) == 0:
            indices = draw(st.lists(st.integers(1, 40), max_size=6))
        tokens = [label]
        for i in indices:
            token = f"{_index_text(i, draw(st.integers(0, 2)))}:{draw(LIBSVM_VALUES)}"
            if corrupt and draw(st.integers(0, 9)) == 0:
                token = draw(st.sampled_from(BAD_FEATURES))
            tokens.append(token)
        seps = [draw(st.sampled_from([" ", "\t", "  "])) for _ in tokens]
        lines.append(indent + "".join(t + s for t, s in zip(tokens, seps)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _profile_events(fn, *args):
    """The Python-level events of one call, with the collector off (a
    collection would run the finalizers of other tests' garbage)."""
    events = []
    gc.collect()
    gc.disable()
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return len(events)


class TestLibsvmBulkParse:
    """`parse_libsvm` against the per-token loop it replaced."""

    @given(text=libsvm_texts(), form=st.sampled_from(sorted(INPUT_FORMS)))
    def test_valid_files_parse_bit_identically(self, text, form):
        make_input = functools.partial(INPUT_FORMS[form], text)
        got = _outcome(parse_libsvm, make_input)
        assert not isinstance(got, str), got
        assert got == _outcome(_reference_parse_libsvm, make_input)

    @given(text=libsvm_texts(corrupt=True), form=st.sampled_from(sorted(INPUT_FORMS)))
    def test_any_file_gets_the_reference_outcome(self, text, form):
        make_input = functools.partial(INPUT_FORMS[form], text)
        assert _outcome(parse_libsvm, make_input) == _outcome(_reference_parse_libsvm, make_input)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x 1:1\n", "line 1: bad label 'x'"),
            ("+1 1:1\n-inf 2:1\n", "line 2: non-finite label '-inf'"),
            ("+1 1:1 2\n", "line 1: bad feature token '2'"),
            ("+1 1:2:3\n", "line 1: bad feature token '1:2:3'"),
            ("+1 :3\n", "line 1: bad feature token ':3'"),
            ("+1 3:\n", "line 1: bad feature token '3:'"),
            ("+1 1.5:3\n", "line 1: bad feature token '1.5:3'"),
            ("+1 0:1\n", "line 1: index 0 must be positive"),
            ("+1 -2:1\n", "line 1: index -2 must be positive"),
            ("+1 2:x\n", "line 1: bad feature token '2:x'"),
            ("+1 2:inf\n", "line 1: non-finite value in '2:inf'"),
            ("+1 3:1 2:1\n", "line 1: indices must be strictly ascending"),
            ("+1 2:1 2:1\n", "line 1: indices must be strictly ascending"),
            # the first bad line wins, whichever rule a later line breaks
            ("+1 1:1\n\n# c\n-1 2:1 2:1\nnan 1:1\n+1 1:x\n", "line 4: indices must be strictly ascending"),
            ("+1 1:1\n-1 9223372036854775808:1\n+1 1:x\n", "line 2: index 9223372036854775808 exceeds the int64 maximum"),
            # a 3 x 2^62 float64 matrix fails numpy's size check before anything is allocated
            (
                "+1 1:1\n\n-1 2:1 4611686018427387904:1\n+1 3:1\n",
                "line 3: index 4611686018427387904 makes the dense matrix 3 x 4611686018427387904, "
                "which numpy cannot allocate",
            ),
        ],
        ids=[
            "bad-label",
            "non-finite-label",
            "token-without-colon",
            "token-with-two-colons",
            "empty-index",
            "empty-value",
            "fractional-index",
            "index-zero",
            "index-negative",
            "bad-value",
            "non-finite-value",
            "descending-index",
            "repeated-index",
            "first-bad-line-wins",
            "index-beyond-int64",
            "index-numpy-refuses",
        ],
    )
    def test_malformed_line_named_with_its_rule(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_libsvm(text)
        assert str(info.value) == message
        if "int64" not in message and "numpy" not in message:  # the loop raised numpy's own errors
            assert _outcome(_reference_parse_libsvm, lambda: text) == message

    def test_matrix_numpy_cannot_allocate_named_with_its_line(self, monkeypatch):
        def zeros(shape, *args, **kwargs):
            raise MemoryError(f"cannot allocate an array of shape {shape}")

        monkeypatch.setattr(np, "zeros", zeros)
        with pytest.raises(ParseError) as info:
            parse_libsvm("+1 5:1\n# c\n-1 2:1 9:1\n+1 9:2\n")
        assert str(info.value) == "line 3: index 9 makes the dense matrix 3 x 9, which numpy cannot allocate"

    def test_calls_do_not_grow_with_the_tokens(self):
        # one line of 3 tokens and one of 300: the same Python-level calls
        def calls(width):
            return _profile_events(parse_libsvm, "+1 " + " ".join(f"{j}:0.5" for j in range(1, width + 1)) + "\n")

        parse_libsvm("+1 1:0.5\n")  # first-call work outside the count
        assert calls(300) == calls(3)

    def test_labels_round_trip_exactly(self):
        labels = np.array([0.1234567891, 3e6, -2.5e-310, 1.0, -1.0, 0.0])
        features = np.eye(6) * 0.5
        text = format_libsvm(features, labels)
        assert text.split("\n")[3:6] == ["+1 4:0.5", "-1 5:0.5", "+0 6:0.5"]
        back, back_labels = parse_libsvm(text)
        assert back_labels.tobytes() == labels.tobytes()
        assert back.tobytes() == features.tobytes()


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


def _reference_gen_binary_design(m, n, density, seed):
    """`gen_binary_design` as it was: the empty rows patched one at a time."""
    w = (rng.uniforms(seed, m * n).reshape(m, n) < density).astype(float)
    for i in range(m):
        if not np.any(w[i] > 0.0):
            w[i, i % n] = 1.0
    return w


def _reference_returns_csv(returns, seed):
    """What `save_returns_csv` wrote, each value formatted through a generator."""
    lines = [f"{returns.shape[0]},{returns.shape[1]},{seed}\n"]
    for row in returns:
        lines.append(",".join(format(v, ".17g") for v in row) + "\n")
    return "".join(lines)


class TestDataLayerInBulk:
    """The generated design and the written returns against the loops they replaced."""

    @pytest.mark.parametrize("m, n, density, seed", [(50, 12, 0.3, 17), (30, 8, 0.05, 13), (7, 40, 0.0, 2), (200, 1, 0.5, 0)])
    def test_binary_design_matches_the_row_loop(self, m, n, density, seed):
        got = gen_binary_design(m, n, density, seed)
        assert got.tobytes() == _reference_gen_binary_design(m, n, density, seed).tobytes()
        assert got.any(axis=1).all()

    def test_returns_csv_writes_the_reference_bytes(self, tmp_path):
        returns = gen_portfolio_data(9, 5, 3)
        returns[0, :4] = [-0.0, 1e-300, 123456789.123, 5e-324]
        path = tmp_path / "returns.csv"
        save_returns_csv(path, returns, 3)
        assert path.read_bytes() == _reference_returns_csv(returns, 3).encode()

    @pytest.mark.parametrize("which", ["gen_binary_design", "save_returns_csv"])
    def test_calls_do_not_grow_with_the_size(self, tmp_path, which):
        # density 0 leaves every row empty; 3 rows or 300, 3 columns or 300:
        # the same Python-level calls
        path = tmp_path / "returns.csv"
        calls = {
            "gen_binary_design": lambda size: _profile_events(gen_binary_design, size, 4, 0.0, 0),
            "save_returns_csv": lambda size: _profile_events(save_returns_csv, path, np.ones((2, size)), 0),
        }[which]
        calls(2)  # first-call work outside the count
        assert calls(300) == calls(3)


def _reference_uniforms(seed, count):
    """`rng.uniforms` as the whole-length formula: every stage one array of `count`."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15) * idx
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _reference_normals(seed, count):
    """`rng.normals` as the whole-length Box-Muller formula."""
    pairs = (count + 1) // 2
    u = _reference_uniforms(seed, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log(np.maximum(u[0::2], 2.0**-53)))
    angle = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def _traced_peak(fn, *args):
    """(result, peak bytes allocated while fn runs) under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCounterRng:
    @pytest.mark.parametrize(
        "count",
        [1, 2, 3, 999, rng._BLOCK - 1, rng._BLOCK, rng._BLOCK + 1, 2 * rng._BLOCK + 1, 3 * rng._BLOCK + 7, 800_000],
    )
    def test_blocks_write_the_whole_length_formula(self, count):
        assert rng.uniforms(11, count).tobytes() == _reference_uniforms(11, count).tobytes()
        assert rng.normals(11, count).tobytes() == _reference_normals(11, count).tobytes()

    def test_portfolio_data_is_the_whole_length_formula(self):
        got = gen_portfolio_data(1000, 800, 7)
        reference = np.maximum(1.0 + 0.1 * _reference_normals(7, 800_000), PORTFOLIO_CLAMP).reshape(1000, 800)
        assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "draw",
        [lambda: rng.uniforms(7, 800_000), lambda: rng.normals(7, 800_000), lambda: gen_portfolio_data(1000, 800, 7)],
        ids=["uniforms", "normals", "portfolio"],
    )
    def test_memory_is_at_most_twice_the_output(self, draw):
        out, peak = _traced_peak(draw)
        assert peak <= 2 * out.nbytes

    def test_streams_deterministic_and_seed_sensitive(self):
        assert np.array_equal(rng.uniforms(5, 100), rng.uniforms(5, 100))
        assert not np.array_equal(rng.uniforms(5, 100), rng.uniforms(6, 100))
        assert np.array_equal(rng.normals(5, 101), rng.normals(5, 101))

    def test_streams_are_pinned_bit_for_bit(self):
        # the named algorithm's first draws for seed 5, as exact hex floats
        assert [float(v).hex() for v in rng.uniforms(5, 3)] == [
            "0x1.8c0cec328e270p-2",
            "0x1.812e629b272e6p-1",
            "0x1.dc969f80835e0p-3",
        ]
        assert [float(v).hex() for v in rng.normals(5, 3)] == [
            "0x1.475672662cbcfp-6",
            "-0x1.60d254767f6b1p+0",
            "0x1.62b9459d21a73p+0",
        ]

    def test_uniform_range_and_moments(self):
        u = rng.uniforms(123, 200000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 2e-3

    def test_normal_moments(self):
        z = rng.normals(321, 200000)
        assert abs(z.mean()) < 7e-3
        assert abs(z.std() - 1.0) < 5e-3
