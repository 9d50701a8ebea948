import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from condgrad import lloo_simplex
from condgrad.sets import CONTAINS_TOL, FeasibleSet, L1Ball, NonnegL1Ball, Simplex

from conftest import OFFSETS, at_offset, dense, vertices


def random_convex_combinations(gen, verts, count):
    weights = gen.dirichlet(np.ones(len(verts)), size=count)
    return weights @ np.stack(verts)


def make_sets(dim):
    return [Simplex(dim), L1Ball(dim, 1.7), NonnegL1Ball(dim, 2.5)]


class TestLmoExamples:
    def test_simplex(self):
        assert np.array_equal(dense(3, Simplex(3).lmo([3.0, -1.0, 2.0])), [0.0, 1.0, 0.0])
        assert np.array_equal(dense(2, Simplex(2).lmo([0.0, 0.0])), [1.0, 0.0])
        # gradient of the 2-d log barrier at (1/4, 3/4)
        assert np.array_equal(dense(2, Simplex(2).lmo([-4.0, -4.0 / 3.0])), [1.0, 0.0])

    def test_l1ball(self):
        assert np.array_equal(dense(3, L1Ball(3, 1.0).lmo([1.0, -2.0, 0.5])), [0.0, 1.0, 0.0])
        assert np.array_equal(dense(3, L1Ball(3, 1.0).lmo([0.0, 0.0, 0.0])), [-1.0, 0.0, 0.0])
        assert np.array_equal(dense(1, L1Ball(1, 2.0).lmo([5.0])), [-2.0])

    def test_nonneg_l1(self):
        assert np.array_equal(dense(3, NonnegL1Ball(3, 3.0).lmo([0.5, -1.0, 2.0])), [0.0, 3.0, 0.0])
        assert np.array_equal(dense(2, NonnegL1Ball(2, 5.0).lmo([1.0, 2.0])), [0.0, 0.0])
        assert np.array_equal(dense(2, NonnegL1Ball(2, 1.0).lmo([-1.0, -1.0])), [1.0, 0.0])

    def test_nonfinite_rejected(self):
        # each oracle decides finiteness from the entries argmin and argmax
        # pick, so a bad entry must reach one of them from any position
        center = Simplex(5).start_point()
        oracles = [fs.lmo for fs in make_sets(5)] + [lambda c: lloo_simplex(center, 0.1, c)]
        for bad in (np.nan, np.inf, -np.inf):
            for at in (0, 2, 4):
                c = np.array([0.5, -1.0, 2.0, 0.0, 1.5])
                c[at] = bad
                for fn in oracles:
                    with pytest.raises(ValueError, match="non-finite entries"):
                        fn(c)

    @pytest.mark.parametrize("fs", make_sets(2), ids=lambda fs: fs.kind)
    @pytest.mark.parametrize(
        "c",
        [3.0, [-1.0, 0.0, -3.0], [5.0], [[1.0, 2.0]], [[1.0], [-2.0]], np.ones((2, 2))],
        ids=["scalar", "longer", "shorter", "row", "column", "square"],
    )
    def test_wrong_shape_rejected(self, fs, c):
        shape = np.shape(c)
        with pytest.raises(ValueError, match=re.escape(f"has shape {shape}; the set needs (2,)")):
            fs.lmo(c)


class TestBruteForceOptimality:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_lmo_attains_minimum(self, dim):
        gen = np.random.default_rng(100 + dim)
        for fs in make_sets(dim):
            verts = vertices(fs)
            points = random_convex_combinations(gen, verts, 1000)
            for _ in range(25):
                c = gen.normal(size=dim)
                out = dense(dim, fs.lmo(c))
                val = np.dot(c, out)
                best_vertex = min(np.dot(c, v) for v in verts)
                assert val <= best_vertex + 1e-12
                assert np.all(points @ c >= val - 1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_lmo_output_feasible(self, dim):
        gen = np.random.default_rng(7)
        for fs in make_sets(dim):
            for _ in range(1000):
                c = gen.normal(size=dim)
                out = dense(dim, fs.lmo(c))
                assert any(np.array_equal(out, v) for v in vertices(fs))

    @pytest.mark.parametrize("dim", [2, 5])
    def test_lmo_positively_homogeneous(self, dim):
        gen = np.random.default_rng(17)
        for fs in make_sets(dim):
            for _ in range(50):
                c = gen.normal(size=dim)
                lam = gen.uniform(0.1, 10.0)
                assert np.array_equal(fs.lmo(c), fs.lmo(lam * c))


# costs on a grid of eighths: ties, zeros and sign changes are common, and a
# positive scale keeps their order exactly (distinct entries differ by >= 1/8)
eighths = st.integers(min_value=-16, max_value=16).map(lambda k: k / 8.0)
costs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.one_of(
        st.lists(eighths, min_size=n, max_size=n),
        st.lists(st.integers(min_value=0, max_value=1).map(float), min_size=n, max_size=n),
        st.lists(st.integers(min_value=1, max_value=16).map(lambda k: k / 8.0), min_size=n, max_size=n),
    )
)


class TestVertexForm:
    """`lmo(c)` returns (i, value), meaning the vertex value * e_i."""

    @given(costs, st.floats(min_value=0.01, max_value=100.0))
    def test_index_form_is_the_brute_force_argmin(self, c, scale):
        c = np.array(c)
        dim = c.size
        for fs in make_sets(dim):
            i, value = fs.lmo(c)
            assert type(i) is int and type(value) is float
            out = dense(dim, (i, value))
            verts = vertices(fs)
            vals = [float(np.dot(c, v)) for v in verts]
            argmins = [v for v, val in zip(verts, vals) if val == min(vals)]
            assert any(np.array_equal(out, v) for v in argmins)
            if value != 0.0:
                # ties break toward the lowest coordinate
                assert i == min(int(np.flatnonzero(v)[0]) for v in argmins if v.any())
            inside = fs.contains(out)
            assert type(inside) is bool and inside
            assert fs.lmo(scale * c) == (i, value)


# what the solvers read of a feasible set; README, "A custom `FeasibleSet`"
SET_SURFACE = {"dim", "kind", "lmo", "contains", "start_point"}


def public_names(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


def test_the_set_surface_is_the_one_the_readme_lists():
    assert public_names(FeasibleSet) | set(FeasibleSet.__annotations__) == SET_SURFACE
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = readme.split("A custom `FeasibleSet` gives what the solvers read:", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`(\w+)", sentence)) == SET_SURFACE


@pytest.mark.parametrize("fs", make_sets(3), ids=lambda fs: fs.kind)
def test_a_concrete_set_adds_only_its_radius(fs):
    assert public_names(fs) - SET_SURFACE == ({"radius"} if fs.kind != "simplex" else set())


@pytest.mark.parametrize("dim", [np.int64(3), np.int32(3), np.uint8(3)], ids=lambda d: type(d).__name__)
def test_a_numpy_integer_dim_is_read_as_an_int(dim):
    # a dimension read from numpy data, such as a count in an int64 array
    for fs in (Simplex(dim), L1Ball(dim, 1.0), NonnegL1Ball(dim, 1.0)):
        assert type(fs.dim) is int and fs.dim == 3


class TestStartPoint:
    def test_examples(self):
        assert np.array_equal(Simplex(4).start_point(), np.full(4, 0.25))
        assert np.array_equal(L1Ball(2, 3.0).start_point(), np.zeros(2))
        assert np.array_equal(NonnegL1Ball(2, 2.0).start_point(), [0.5, 0.5])

    def test_relative_interior(self):
        for fs in make_sets(3):
            x = fs.start_point()
            assert fs.contains(x)
            if fs.kind == "simplex":
                assert np.all(x > 0.0)
            elif fs.kind == "nonneg_l1":
                assert np.all(x > 0.0) and np.sum(x) < fs.radius
            else:
                assert np.sum(np.abs(x)) < fs.radius


class TestContains:
    def test_tolerance_absorbs_roundoff(self):
        fs = Simplex(3)
        x = np.array([0.3, 0.3, 0.4]) + 1e-12
        assert fs.contains(x)
        assert not fs.contains(np.array([0.5, 0.6, -0.1]))
        assert not fs.contains(np.array([0.5, 0.5, 0.5]))

    def test_shape_mismatch(self):
        assert not Simplex(3).contains(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("cls", [FeasibleSet, Simplex, L1Ball, NonnegL1Ball])
    def test_one_tolerance(self, cls):
        # every caller tests against CONTAINS_TOL, so no call can pass another
        assert str(inspect.signature(cls.contains)) == "(self, x)"

    @pytest.mark.parametrize("cls", [L1Ball, NonnegL1Ball])
    @pytest.mark.parametrize("radius", [8.86e45, 1e300])
    def test_slack_scales_with_the_radius(self, cls, radius):
        # one ulp of R exceeds an absolute slack of 1e-9 from R ~ 1e7 on:
        # a step whose |x|_1 rounds one ulp above R is still inside
        fs = cls(2, radius)
        assert fs.contains(np.array([np.nextafter(radius, np.inf), 0.0]))
        assert fs.contains(np.array([radius * (1.0 + 1e-10), 0.0]))
        assert not fs.contains(np.array([radius * (1.0 + 1e-8), 0.0]))
        if cls is NonnegL1Ball:
            assert fs.contains(np.array([-1e-10 * radius, radius / 2.0]))
            assert not fs.contains(np.array([-1e-8 * radius, radius / 2.0]))
        # at the largest R, R + 1e-9 R overflows: the bound stays finite
        assert cls(2, np.finfo(float).max).contains(np.array([np.inf, 0.0])) is False

    @pytest.mark.parametrize("fs", make_sets(3), ids=lambda fs: fs.kind)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_rejects_non_finite(self, fs, bad, at):
        # `is` also checks for a Python bool: numpy's np.False_ is not False
        x = fs.start_point()
        assert fs.contains(x) is True
        x[at] = bad
        assert fs.contains(x) is False

    @pytest.mark.parametrize("dim", [1, 3, 8, 17, 50, 127, 200, 1000])
    def test_decision_does_not_depend_on_alignment(self, dim):
        # points whose sum lies at an edge of the tolerance, so that the
        # decision rests on the sum's last bits
        gen = np.random.default_rng(dim)
        for fs in make_sets(dim):
            if fs.kind == "simplex":
                edges = [1.0 - CONTAINS_TOL, 1.0 + CONTAINS_TOL]
            else:
                # a ball's slack scales with its radius
                edges = [fs.radius + CONTAINS_TOL * fs.radius]
            for _ in range(20):
                u = gen.uniform(size=dim)
                if fs.kind == "l1_ball":
                    u *= np.where(gen.uniform(size=dim) < 0.5, -1.0, 1.0)
                x = u / np.abs(u).sum() * gen.choice(edges)
                want = fs.contains(at_offset(x, 0))
                for offset in OFFSETS:
                    assert fs.contains(at_offset(x, offset)) is want
