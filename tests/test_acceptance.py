"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines alongside the pytest verdicts.  Timed criteria include all solver
work they depend on.
"""

import functools
import time

import numpy as np
import pytest

from condgrad.core import omega_star
from condgrad.lloo import lloo_simplex
from condgrad.problems import (
    gen_logistic_data,
    gen_portfolio_data,
    logistic_problem,
    parse_libsvm,
    poisson_problem,
    portfolio_problem,
)
from condgrad.profiles import fraction_solved, iteration_ratio, time_ratio
from condgrad.sets import L1Ball, NonnegL1Ball, Simplex
from condgrad.solvers import (
    IterationRecord,
    RunConfig,
    RunTrace,
    estimate_sigma,
    fw_solve,
    lloo_fw_solve,
)

from conftest import (
    DATA_DIR,
    LogBarrierOracle,
    check_curvature_bounds,
    check_gradient_fd,
    check_hessvec_fd,
    dense,
    diameter,
    interior_simplex_points,
    scale_to_local_distance,
    vertices,
)
from test_lloo import random_simplex_point, sample_ball_simplex
from test_profiles import fixture_records
from test_solvers import DiagScaledOracle, DiagScaledSimplex


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE C{num} FAIL: {label}")
                raise
            print(f"\nACCEPTANCE C{num} PASS: {label}")

        return run

    return wrap


def first_gap_below(trace, tol):
    for r in trace.records:
        if r.gap <= tol:
            return r.k
    return float("inf")


@pytest.fixture(scope="module")
def portfolio_runs():
    """Shared runs on the benchmark allocation instance (n=20, T=50, seed 7)."""
    oracle, fs = portfolio_problem(gen_portfolio_data(50, 20, 7))
    out = {"oracle": oracle, "set": fs, "times": {}}

    t0 = time.perf_counter()
    out["reference"] = fw_solve(
        oracle, fs, RunConfig(epsilon=1e-12, max_iter=60000, policy="line_search")
    )
    out["times"]["reference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    out["backtracking"] = fw_solve(
        oracle, fs, RunConfig(epsilon=1e-10, max_iter=5000, policy="backtracking")
    )
    out["times"]["backtracking"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    out["analytic"] = fw_solve(
        oracle, fs, RunConfig(epsilon=1e-8, max_iter=50000, policy="analytic")
    )
    out["times"]["analytic"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sigma = estimate_sigma(oracle, fs.start_point())
    out["lloo"] = lloo_fw_solve(
        oracle,
        lloo_simplex,
        RunConfig(epsilon=1e-8, max_iter=50000, policy="lloo"),
        sigma,
    )
    out["times"]["lloo"] = time.perf_counter() - t0

    # tightest upper reference on the optimal value across all runs; the
    # line-search run alone stalls near gap ~ 1e-8 (iteration 56), where
    # the best step toward a vertex lowers f by less than its rounding
    out["f_ref"] = min(
        min(r.f for r in out[k].records)
        for k in ("reference", "backtracking", "analytic", "lloo")
    )
    return out


@criterion(1, "barrier regression: open-loop step exits the domain, analytic step converges")
def test_c1_barrier_regression():
    t0 = time.perf_counter()
    oracle = LogBarrierOracle(2)
    fs = Simplex(2)
    x0 = np.array([0.25, 0.75])

    standard = fw_solve(
        oracle, fs, RunConfig(epsilon=1e-8, max_iter=5000, policy="standard"), x0=x0
    )
    assert standard.termination == "stalled"
    assert standard.records[0].alpha == 1.0
    assert np.allclose(standard.final_x, [1.0, 0.0])
    assert not oracle.in_domain(standard.final_x)

    analytic = fw_solve(
        oracle, fs, RunConfig(epsilon=1e-8, max_iter=5000, policy="analytic"), x0=x0
    )
    assert analytic.termination == "gap_below_eps"
    assert analytic.records[-1].k <= 5000
    assert analytic.records[0].alpha == pytest.approx(0.1225148, abs=1e-6)
    assert all(np.isfinite(r.f) for r in analytic.records)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


@criterion(2, "sublinear rate bound for the backtracking policy on the allocation instance")
def test_c2_backtracking_rate_bound(portfolio_runs):
    trace = portfolio_runs["backtracking"]
    f_ref = portfolio_runs["f_ref"]
    fs = portfolio_runs["set"]
    recs = trace.records
    assert recs[-1].k <= 5000
    gap0 = recs[0].gap
    diam2 = diameter(fs) ** 2
    mus = [r.lipschitz for r in recs if r.lipschitz is not None]
    for r in recs:
        k = r.k
        bound = 2.0 * gap0 / ((k + 1) * (k + 2))
        if k > 0:
            bound += k * diam2 * float(np.mean(mus[:k])) / ((k + 1) * (k + 2))
        assert r.f - f_ref <= bound + 1e-9, f"rate bound violated at k={k}"
    elapsed = portfolio_runs["times"]["backtracking"] + portfolio_runs["times"]["reference"]
    assert elapsed < 30.0, f"criterion 2 runs took {elapsed:.2f}s"


@criterion(3, "analytic-step monotone descent on all three problem families")
def test_c3_analytic_descent_all_families():
    with open(DATA_DIR / "poisson200.libsvm") as fh:
        feats, _ = parse_libsvm(fh)
    poisson = poisson_problem(feats, np.ones(feats.shape[0]), radius=10.0)
    lfeats, llabels = gen_logistic_data(200, 50, seed=11)
    logistic = logistic_problem(lfeats, llabels, radius=10.0)
    portfolio = portfolio_problem(gen_portfolio_data(50, 20, 7))

    for oracle, fs in [portfolio, poisson, logistic]:
        trace = fw_solve(oracle, fs, RunConfig(epsilon=1e-9, max_iter=2000, policy="analytic"))
        recs = trace.records
        assert len(recs) > 10
        for prev, nxt in zip(recs, recs[1:]):
            delta = prev.alpha * prev.gap - (4.0 / oracle.M**2) * omega_star(prev.alpha * prev.e)
            assert nxt.f <= prev.f - delta + 1e-9
            assert prev.alpha * prev.e < 1.0


@criterion(4, "linear error contraction of the locally-restricted run")
def test_c4_lloo_linear_convergence(portfolio_runs):
    trace = portfolio_runs["lloo"]
    f_ref = portfolio_runs["f_ref"]
    assert trace.termination == "gap_below_eps"
    gap0 = trace.records[0].gap
    for r in trace.records:
        assert r.f - f_ref <= gap0 * r.contraction + 1e-9, f"contraction bound at k={r.k}"
    k_lloo = first_gap_below(trace, 1e-8)
    k_analytic = first_gap_below(portfolio_runs["analytic"], 1e-8)
    assert k_lloo < k_analytic


@criterion(5, "local simplex oracle beats every sampled feasible point in its ball")
def test_c5_lloo_oracle_correctness():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        gen = np.random.default_rng(1000 + n)
        for _ in range(200):
            x = random_simplex_point(gen, n)
            r = 10.0 ** gen.uniform(-2.0, 0.2)
            c = gen.normal(size=n)
            p = lloo_simplex(x, r, c)
            assert np.linalg.norm(x - p) <= np.sqrt(n) * r + 1e-12
            ys = sample_ball_simplex(gen, x, r, 2000)
            if ys.size:
                assert float(np.dot(c, p)) <= float(np.min(ys @ c)) + 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"criterion 5 took {elapsed:.2f}s"


def assert_evaluations_within_the_doubling_bound(trace):
    recs = [r for r in trace.records if r.evals is not None]
    evals = [r.evals for r in recs]
    mu_max = max(r.lipschitz for r in recs)
    l_init = trace.init_lipschitz
    cum = np.cumsum(evals)
    const = 1.0 - np.log(0.9) / np.log(2.0)
    extra = max(0.0, np.log(2.0 * mu_max / l_init)) / np.log(2.0)
    for k in range(len(evals)):
        assert cum[k] <= (k + 1) * const + extra, f"evaluation bound at k={k}"
    return evals


@criterion(6, "backtracking evaluation accounting stays within the doubling bound")
def test_c6_backtracking_accounting(portfolio_runs):
    # a long run: the Poisson instance stays at its iteration cap
    with open(DATA_DIR / "poisson200.libsvm") as fh:
        feats, _ = parse_libsvm(fh)
    oracle, fs = poisson_problem(feats, np.ones(feats.shape[0]), radius=10.0)
    config = RunConfig(epsilon=1e-14, max_iter=2000, policy="backtracking")
    trace = fw_solve(oracle, fs, config)
    assert len([r for r in trace.records if r.evals is not None]) == 2000
    evals = assert_evaluations_within_the_doubling_bound(trace)
    multi = float(np.mean([e > 1 for e in evals]))
    assert multi < 0.16, f"multi-evaluation fraction {multi:.3f}"
    # the allocation instance converges within a few dozen rows
    oracle, fs = portfolio_runs["oracle"], portfolio_runs["set"]
    assert_evaluations_within_the_doubling_bound(fw_solve(oracle, fs, config))


@criterion(7, "oracle calculus: finite differences and curvature envelopes")
def test_c7_oracle_calculus():
    with open(DATA_DIR / "poisson200.libsvm") as fh:
        feats, _ = parse_libsvm(fh)
    poisson, _ = poisson_problem(feats[:60], np.ones(60), radius=10.0)
    lfeats, llabels = gen_logistic_data(80, 12, seed=4)
    logistic, _ = logistic_problem(lfeats, llabels, gamma=0.2)
    portfolio, _ = portfolio_problem(gen_portfolio_data(30, 10, 5))

    gen = np.random.default_rng(77)
    cases = [
        (portfolio, lambda: interior_simplex_points(gen, 20, portfolio.dim)),
        (poisson, lambda: gen.uniform(0.05, 0.3, size=(20, poisson.dim))),
        (logistic, lambda: gen.normal(scale=0.3, size=(20, logistic.dim))),
    ]
    for oracle, sampler in cases:
        for x in sampler():
            check_gradient_fd(oracle, x)
            check_hessvec_fd(oracle, x, gen.normal(size=oracle.dim))
            step = scale_to_local_distance(oracle, x, gen.normal(size=oracle.dim) * 1e-3)
            check_curvature_bounds(oracle, x, x + step)


@criterion(8, "linear oracles match brute-force vertex enumeration up to n=6")
def test_c8_lmo_brute_force():
    for dim in range(1, 7):
        gen = np.random.default_rng(500 + dim)
        for fs in (Simplex(dim), L1Ball(dim, 1.7), NonnegL1Ball(dim, 2.5)):
            verts = vertices(fs)
            weights = gen.dirichlet(np.ones(len(verts)), size=1000)
            points = weights @ np.stack(verts)
            for _ in range(40):
                c = gen.normal(size=dim)
                out = dense(dim, fs.lmo(c))
                assert any(np.array_equal(out, v) for v in verts)
                val = float(np.dot(c, out))
                assert val <= min(np.dot(c, v) for v in verts) + 1e-12
                assert np.all(points @ c >= val - 1e-12)
                assert np.array_equal(out, dense(dim, fs.lmo(gen.uniform(0.5, 3.0) * c)))


@criterion(9, "diagonal reparametrization leaves step and gap sequences unchanged")
def test_c9_affine_invariance():
    oracle, fs = portfolio_problem(gen_portfolio_data(50, 20, 7))
    scale = np.random.default_rng(2).uniform(0.5, 2.0, size=oracle.dim)
    config = RunConfig(epsilon=1e-30, max_iter=200, policy="analytic")
    base = fw_solve(oracle, fs, config)
    scaled = fw_solve(
        DiagScaledOracle(oracle, scale),
        DiagScaledSimplex(scale),
        config,
        x0=fs.start_point() / scale,
    )
    assert len(base.records) == len(scaled.records) == 201
    for rb, rs in zip(base.records, scaled.records):
        assert abs(rb.alpha - rs.alpha) <= 1e-9
        assert abs(rb.gap - rs.gap) <= 1e-9


@criterion(10, "profile metrics match hand values and survive CSV round trips bit for bit")
def test_c10_profile_metrics(tmp_path):
    from condgrad.cli import table_from_trace_dir
    from condgrad.profiles import build_profile_table

    records = fixture_records()
    table = build_profile_table(records)
    assert fraction_solved(table, 0.125) == {"fast": 1.0, "slow": 1.0}
    assert fraction_solved(table, 0.0625) == {"fast": 0.5, "slow": 0.5}
    ratios = iteration_ratio(table, 0.125)
    assert ratios == {"fast": 1.0, "slow": 1.5}
    tratios = time_ratio(table, 0.125)
    assert tratios == {"fast": 1.0, "slow": 3.0}

    # write each fixture run through the trace CSV machinery and recompute
    for rec in records:
        rows = [
            IterationRecord(k, float(f), 0.0, 0.0, 0.0, None, int(t))
            for k, (f, t) in enumerate(zip(rec.f_series, rec.time_ns))
        ]
        config = RunConfig(epsilon=1e-6, max_iter=len(rows), policy="analytic")
        trace = RunTrace(rows, np.zeros(1), "max_iter", config)
        trace.save_csv(tmp_path / f"{rec.method}__{rec.problem}.csv")
    reloaded = table_from_trace_dir(tmp_path)
    for key, series in table.rel_err.items():
        assert np.array_equal(reloaded.rel_err[key], series)
    assert fraction_solved(reloaded, 0.125) == fraction_solved(table, 0.125)
    assert iteration_ratio(reloaded, 0.125) == ratios
    assert time_ratio(reloaded, 0.125) == tratios
