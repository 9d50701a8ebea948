"""Properties of the gap, the step rules and the local oracle over random instances.

Each example draws a small portfolio, Poisson or logistic instance and a
feasible point strictly inside its domain (the generators of
`test_glm.py`), then checks the guarantee the function gives there; the
local oracle's full-budget point, a dense vertex, is also checked at the
two benchmark sizes.  The
local-oracle run's linear contraction (C4) is checked over whole runs on
random portfolio instances, and the last class runs every policy on
instances scaled toward the ends of floating point.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condgrad import lloo_simplex
from condgrad.core import OraclePoint, dist_like, gap_and_target
from condgrad.problems import (
    gen_binary_design, gen_logistic_data, gen_portfolio_data, logistic_problem, poisson_problem, portfolio_problem
)
from condgrad.solvers import (
    DESCENT_SLACK, POLICIES, RunConfig, estimate_sigma, fw_solve, lloo_fw_solve, read_trace_csv
)
from condgrad.steps import GAMMA_DOWN, GAMMA_UP, analytic_step, backtrack_step, exact_line_search

from conftest import dense, vertices
from test_glm import KINDS, feasible_point, instances, make_instance
from test_lloo import random_simplex_point, sample_ball_simplex


def draw_point(inst):
    """(oracle, feasible set, point) of the drawn instance."""
    kind, m, n, seed = inst
    oracle, fs = make_instance(kind, m, n, seed)
    x = feasible_point(kind, fs, np.random.default_rng(seed + 1))
    point = oracle.point(x)
    assert point.in_domain and fs.contains(x)
    return oracle, fs, point


class TestGapAndTarget:
    @given(instances)
    def test_gap_bounds_every_vertex(self, inst):
        _, fs, point = draw_point(inst)
        gap, target = gap_and_target(fs, point)
        g, x = point.gradient, point.x
        assert fs.contains(dense(fs.dim, target))
        assert gap >= 0.0
        for v in vertices(fs):
            below = float(np.dot(g, x - v))
            assert gap >= below - 1e-12 * max(1.0, abs(below), abs(gap))


def index_form(v):
    """A dense vertex of one of the three sets as (i, value); the origin is (0, 0.0)."""
    nonzero = np.flatnonzero(v)
    i = int(nonzero[0]) if nonzero.size else 0
    return i, float(v[i])


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestVertexTargets:
    @given(instances, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_index_and_dense_vertex_agree_bit_for_bit(self, inst, t, alpha):
        oracle, fs, glm_point = draw_point(inst)
        for make in (oracle.point, lambda x: OraclePoint(oracle, x)):
            for v in vertices(fs):
                by_index, by_dense = make(glm_point.x), make(glm_point.x)
                vertex = index_form(v)
                assert same_bits(by_index.direction(vertex), by_dense.direction(v))
                assert same_bits(by_index.norm_to(vertex), by_dense.norm_to(v))
                assert same_bits(by_index.move(t, vertex).f, by_dense.move(t, v).f)
                moved_index, moved_dense = by_index.move(alpha, vertex), by_dense.move(alpha, v)
                assert same_bits(moved_index.x, moved_dense.x)
                assert same_bits(moved_index.f, moved_dense.f)
                assert same_bits(getattr(moved_index, "z", 0.0), getattr(moved_dense, "z", 0.0))


    @pytest.mark.parametrize("T, n", [(50, 20), (1000, 800)])
    def test_full_budget_local_point_is_its_vertex_bit_for_bit(self, T, n):
        # the local oracle's point at a radius whose budget moves all the
        # mass is dense e_i; the point reads it as the vertex (i, 1.0)
        oracle, _ = portfolio_problem(gen_portfolio_data(T, n, 3))
        x = np.random.default_rng(4).dirichlet(np.ones(n))
        c = oracle.gradient(x)
        dense_vertex = lloo_simplex(x, 2.0, c)
        i = int(np.argmin(c))
        assert np.count_nonzero(dense_vertex) == 1 and dense_vertex[i] == 1.0
        by_dense, by_index = oracle.point(x), oracle.point(x)
        vertex = (i, 1.0)
        assert same_bits(by_dense.norm_to(dense_vertex), by_index.norm_to(vertex))
        for alpha in (0.0, 0.25, 1.0):
            assert same_bits(by_dense.change(alpha, dense_vertex), by_index.change(alpha, vertex))
            assert same_bits(by_dense.slope(dense_vertex)(alpha), by_index.slope(vertex)(alpha))
            moved_dense, moved_index = by_dense.move(alpha, dense_vertex), by_index.move(alpha, vertex)
            for name in ("x", "z", "f", "reach"):
                assert same_bits(getattr(moved_dense, name), getattr(moved_index, name))


class TestAnalyticStep:
    @given(instances)
    def test_stays_inside_and_descends_by_the_model(self, inst):
        oracle, fs, point = draw_point(inst)
        gap, target = gap_and_target(fs, point)
        assume(gap > 0.0)
        e = dist_like(point, target)
        alpha, decrease = analytic_step(gap, e, oracle.M)
        assert alpha * e < 1.0
        moved = point.x + alpha * (dense(fs.dim, target) - point.x)
        assert oracle.in_domain(moved)
        assert oracle.value(moved) <= point.f - decrease + DESCENT_SLACK * max(1.0, abs(point.f))


class TestBacktrackStep:
    @given(instances, st.floats(min_value=-6.0, max_value=6.0))
    def test_sufficient_decrease_within_the_eval_bound(self, inst, log_lip):
        oracle, fs, point = draw_point(inst)
        gap, target = gap_and_target(fs, point)
        v = dense(fs.dim, target) - point.x
        assume(gap > 0.0 and np.any(v != 0.0))
        lipschitz = 10.0**log_lip
        alpha, mu, evals = backtrack_step(point, target, gap, lipschitz)
        f_x = point.f
        quad = f_x - alpha * gap + 0.5 * alpha * alpha * mu * float(np.dot(v, v))
        assert oracle.value(point.x + alpha * v) <= quad + 1e-12 * max(1.0, abs(f_x))
        assert evals <= 1.0 + math.log(mu / (GAMMA_DOWN * lipschitz)) / math.log(GAMMA_UP) + 1e-9


class TestExactLineSearch:
    @given(instances, st.booleans())
    def test_beats_a_fine_grid(self, inst, vertex):
        oracle, fs, glm_point = draw_point(inst)
        gen = np.random.default_rng(inst[3] + 7)
        if vertex:
            verts = vertices(fs)
            target = index_form(verts[gen.integers(len(verts))])
        else:
            target = feasible_point(inst[0], fs, gen)
        for point in (glm_point, OraclePoint(oracle, glm_point.x)):
            t = exact_line_search(point, target)
            assert 0.0 <= t <= 1.0
            # f is +inf outside the domain, so the grid needs no mask
            best = min(point.move(s, target).f for s in np.linspace(0.0, 1.0, 2001))
            slack = 1e-12 * max(1.0, abs(point.f))
            assert point.move(t, target).f <= best + slack
            if t == 0.0:
                assert point.slope(target)(0.0)[0] >= 0.0 or best >= point.f - slack


class TestLlooSimplex:
    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=-3.0, max_value=0.3),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_local_point_beats_the_ball(self, n, log_r, seed):
        gen = np.random.default_rng(seed)
        x = random_simplex_point(gen, n)
        c = gen.normal(size=n)
        r = 10.0**log_r
        p = lloo_simplex(x, r, c)
        assert np.all(p >= -1e-12) and abs(float(np.sum(p)) - 1.0) <= 1e-12
        assert np.linalg.norm(x - p) <= math.sqrt(n) * r + 1e-12
        ys = sample_ball_simplex(gen, x, r, 200)
        if ys.size:
            assert float(np.dot(c, p)) <= float(np.min(ys @ c)) + 1e-10


class TestLlooContraction:
    @settings(max_examples=60)
    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=n, max_value=30))
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_error_within_gap0_times_contraction(self, shape, seed):
        # T >= n: with fewer periods than assets the start Hessian is
        # singular and lloo_fw_solve rejects the sigma
        n, T = shape
        oracle, fs = portfolio_problem(gen_portfolio_data(T, n, seed))
        sigma = estimate_sigma(oracle, fs.start_point())
        config = RunConfig(epsilon=1e-10, max_iter=3000, policy="lloo")
        trace = lloo_fw_solve(oracle, lloo_simplex, config, sigma)
        f_ref = min(r.f for r in trace.records)
        gap0 = trace.records[0].gap
        for r in trace.records:
            assert r.f - f_ref <= gap0 * r.contraction + 1e-9


def scaled_instance(kind, seed, scale, radius, gamma):
    """(oracle, feasible set) of a small instance of the family, its data
    matrix times `scale`; `radius` and `gamma` apply where the family reads them."""
    if kind == "portfolio":
        return portfolio_problem(gen_portfolio_data(6, 4, seed) * scale)
    if kind == "poisson":
        return poisson_problem(gen_binary_design(8, 4, 0.3, seed) * scale, np.ones(8), radius)
    feats, labels = gen_logistic_data(8, 4, seed)
    return logistic_problem(feats * scale, labels, gamma=gamma, radius=radius)


class TestFiniteRows:
    @settings(max_examples=150)
    @given(
        st.sampled_from(KINDS),
        st.sampled_from(POLICIES),
        st.integers(min_value=0, max_value=2**16),
        st.floats(min_value=-300.0, max_value=300.0),
        st.floats(min_value=-300.0, max_value=300.0),
        st.none() | st.floats(min_value=-300.0, max_value=0.0),
    )
    def test_every_returned_trace_reads_back(self, kind, policy, seed, log_scale, log_radius, log_gamma):
        # a run returns finite rows or raises a ValueError; numpy's overflow
        # warnings are not the check
        gamma = None if log_gamma is None else 10.0**log_gamma
        with np.errstate(all="ignore"):
            try:
                oracle, fs = scaled_instance(kind, seed, 10.0**log_scale, 10.0**log_radius, gamma)
                trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-6, max_iter=50, policy=policy))
            except ValueError:
                return
        for r in trace.records:
            assert math.isfinite(r.f) and math.isfinite(r.gap) and math.isfinite(r.alpha) and math.isfinite(r.e)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            trace.save_csv(path)
            assert len(read_trace_csv(path)) == len(trace.records)
