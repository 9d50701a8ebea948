import numpy as np
import pytest

from condgrad import lloo_simplex
from condgrad.sets import Simplex

from conftest import dense


def sample_ball_simplex(gen, x, r, count):
    """Rejection sampling of points on the simplex within ||y - x|| <= r.

    Proposes uniform draws from the radius-r disc inside the sum-zero
    subspace around x and keeps the nonnegative ones.
    """
    n = x.shape[0]
    draws = gen.normal(size=(count, n))
    draws -= draws.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(draws, axis=1)
    norms[norms == 0.0] = 1.0
    radii = r * gen.uniform(0.0, 1.0, size=count) ** (1.0 / max(n - 1, 1))
    y = x + draws * (radii / norms)[:, None]
    keep = np.all(y >= 0.0, axis=1)
    return y[keep]


def random_simplex_point(gen, n):
    e = -np.log(gen.uniform(1e-12, 1.0, size=n))
    return e / e.sum()


class TestWorkedCases:
    def test_partial_removal(self):
        x = np.array([0.5, 0.3, 0.2])
        r = 0.6 / np.sqrt(3.0)
        p = lloo_simplex(x, r, np.array([1.0, 0.0, -1.0]))
        assert np.allclose(p, [0.2, 0.3, 0.5], atol=1e-15)
        assert np.abs(x - p).sum() == pytest.approx(0.6, abs=1e-15)

    def test_large_radius_degenerates_to_global_lmo(self):
        gen = np.random.default_rng(0)
        for n in (2, 3, 5):
            x = random_simplex_point(gen, n)
            c = gen.normal(size=n)
            p = lloo_simplex(x, 5.0, c)  # d/2 = 5 sqrt(n)/2 >= 1
            assert np.array_equal(p, dense(n, Simplex(n).lmo(c)))
        # the barycenter of 800 coordinates, where the paper workload starts
        n = 800
        c = gen.normal(size=n)
        p = lloo_simplex(Simplex(n).start_point(), 5.0, c)
        assert np.array_equal(p, dense(n, Simplex(n).lmo(c)))

    def test_constant_cost_is_a_fixed_point(self):
        x = np.array([0.5, 0.3, 0.2])
        p = lloo_simplex(x, 0.6 / np.sqrt(3.0), np.zeros(3))
        assert np.allclose(p, x, atol=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lloo_simplex(np.array([0.5, 0.2]), 0.1, np.ones(2))  # not on simplex
        with pytest.raises(ValueError):
            lloo_simplex(np.array([0.5, 0.5]), 0.0, np.ones(2))
        with pytest.raises(ValueError):
            lloo_simplex(np.array([0.5, 0.5]), 0.1, np.array([np.nan, 1.0]))

    @pytest.mark.parametrize(
        "x",
        [[0.5, 0.5], [0.5, 0.5 + 0.9e-9], [0.5, 0.5 + 1.1e-9], [-0.9e-9, 1.0], [-1.1e-9, 1.0], [np.nan, 1.0]],
    )
    def test_center_rule_is_simplex_contains(self, monkeypatch, x):
        # one membership rule, with its tolerance and without a set per call
        x = np.array(x)
        on_simplex = Simplex(2).contains(x)
        monkeypatch.setattr(Simplex, "__init__", None)
        if on_simplex:
            lloo_simplex(x, 0.1, np.array([1.0, 2.0]))
        else:
            with pytest.raises(ValueError, match="^lloo_simplex center must lie on the unit simplex$"):
                lloo_simplex(x, 0.1, np.array([1.0, 2.0]))


class TestGuarantees:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_local_optimality_by_sampling(self, n):
        gen = np.random.default_rng(40 + n)
        for _ in range(50):
            x = random_simplex_point(gen, n)
            r = 10.0 ** gen.uniform(-2.0, 0.2)
            c = gen.normal(size=n)
            p = lloo_simplex(x, r, c)
            ys = sample_ball_simplex(gen, x, r, 500)
            assert np.linalg.norm(x - p) <= np.sqrt(n) * r + 1e-12
            if ys.size:
                assert np.dot(c, p) <= np.min(ys @ c) + 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_feasibility_and_budget(self, n):
        gen = np.random.default_rng(23 + n)
        for _ in range(200):
            x = random_simplex_point(gen, n)
            r = 10.0 ** gen.uniform(-3.0, 0.3)
            c = gen.normal(size=n)
            p = lloo_simplex(x, r, c)
            assert np.all(p >= -1e-12)
            assert abs(p.sum() - 1.0) <= 1e-12
            d = np.sqrt(n) * r
            m = min(d / 2.0, 1.0)
            assert np.abs(x - p).sum() <= d + 1e-12
            # the l1 budget is exact whenever the removal prefix avoids the
            # destination coordinate
            order = np.argsort(-c, kind="stable")
            cs = np.cumsum(x[order])
            k = min(int(np.searchsorted(cs, m, side="left")), n - 1)
            istar = int(np.argmin(c))
            if m < 1.0 and istar not in order[: k + 1]:
                assert np.abs(x - p).sum() == pytest.approx(2.0 * m, abs=1e-12)

    def test_mass_removed_in_descending_cost_order(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        c = np.array([4.0, 3.0, 2.0, 1.0])
        # d = 1.0 -> m = 0.5: strip x_0 and x_1 fully, 0.2 from x_2
        p = lloo_simplex(x, 1.0 / 2.0, c)
        assert np.allclose(p, [0.0, 0.0, 0.1, 0.9], atol=1e-15)

    def test_tied_costs_keep_ascending_index_order(self):
        x = np.array([0.2, 0.3, 0.5])
        c = np.array([1.0, 1.0, 0.0])
        # removal prefix must start at index 0, not index 1
        p = lloo_simplex(x, 0.5 / np.sqrt(3.0), c)  # d = 0.5, m = 0.25
        assert np.allclose(p, [0.0, 0.25, 0.75], atol=1e-15)
