import json

import numpy as np
import pytest

from condgrad.cli import build_problem, format_profiles_csv, main, run_one, table_from_trace_dir
from condgrad.problems import format_libsvm, gen_logistic_data, load_returns_csv
from condgrad.profiles import fraction_solved, iteration_ratio, time_ratio
from condgrad.solvers import read_trace_csv

from conftest import DATA_DIR


class TestGenData:
    def test_writes_header_and_matrix(self, tmp_path):
        out = tmp_path / "returns.csv"
        assert main(["gen-data", "--T", "6", "--n", "3", "--seed", "11", "--out", str(out)]) == 0
        matrix, seed = load_returns_csv(out)
        assert matrix.shape == (6, 3)
        assert seed == 11

    @pytest.mark.parametrize("message", ["cannot allocate a 1000000 x 1000000 array", ""])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, message):
        def gen_portfolio_data(T, n, seed):
            raise MemoryError(message)

        monkeypatch.setattr("condgrad.problems.gen_portfolio_data", gen_portfolio_data)
        out = tmp_path / "returns.csv"
        assert main(["gen-data", "--T", "1000000", "--n", "1000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"condgrad: error: {message or 'MemoryError'}\n"
        assert not out.exists()


class TestSolve:
    def test_portfolio_run_writes_traces(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        js = tmp_path / "run.json"
        rc = main(
            [
                "solve",
                "--problem", "portfolio",
                "--method", "analytic",
                "--T", "15",
                "--n", "6",
                "--seed", "3",
                "--eps", "1e-6",
                "--max-iter", "2000",
                "--out", str(out),
                "--json", str(js),
            ]
        )
        assert rc == 0
        cols = read_trace_csv(out)
        assert cols["k"][0] == 0
        data = json.loads(js.read_text())
        assert data["config"]["policy"] == "analytic"
        assert "lower_bound" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["5", "8"])
    def test_backtracking_to_a_tight_gap(self, tmp_path, seed):
        out = tmp_path / "t.csv"
        argv = ["solve", "--problem", "portfolio", "--T", "30", "--n", "10", "--seed", seed]
        assert main(argv + ["--method", "backtracking", "--eps", "1e-12", "--out", str(out)]) == 0
        assert read_trace_csv(out)["gap"][-1] <= 1e-12

    def test_poisson_from_libsvm_file(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "solve",
                "--problem", "poisson",
                "--method", "backtracking",
                "--data", str(DATA_DIR / "poisson200.libsvm"),
                "--radius", "10",
                "--eps", "1e-4",
                "--max-iter", "500",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(read_trace_csv(out)) >= 2

    def test_portfolio_from_returns_csv(self, tmp_path):
        returns_path = tmp_path / "returns.csv"
        assert main(["gen-data", "--T", "10", "--n", "4", "--seed", "2", "--out", str(returns_path)]) == 0
        out = tmp_path / "run.csv"
        rc = main(
            [
                "solve",
                "--problem", "portfolio",
                "--method", "line_search",
                "--data", str(returns_path),
                "--eps", "1e-6",
                "--max-iter", "500",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(read_trace_csv(out)) >= 2

    def test_generated_problem_without_seed_uses_seed_0(self, tmp_path, capsys):
        argv = ["solve", "--problem", "portfolio", "--method", "analytic", "--T", "10", "--n", "4"]
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().out.startswith("portfolio_n4_T10_s0 ")

    def test_lloo_method_on_portfolio(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "solve",
                "--problem", "portfolio",
                "--method", "lloo",
                "--T", "15",
                "--n", "6",
                "--seed", "3",
                "--eps", "1e-6",
                "--max-iter", "3000",
                "--out", str(out),
            ]
        )
        assert rc == 0

    def test_synthetic_logistic_run(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "solve",
                "--problem", "logistic",
                "--method", "analytic",
                "--samples", "60",
                "--n", "10",
                "--seed", "4",
                "--radius", "5",
                "--eps", "1e-4",
                "--max-iter", "500",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(read_trace_csv(out)) >= 2

    def test_logistic_without_rows_rejected(self, tmp_path, capsys):
        # a LIBSVM file without rows; `--samples 0` stops at the size check
        (tmp_path / "empty.svm").write_text("# no rows\n")
        argv = ["solve", "--problem", "logistic", "--data", str(tmp_path / "empty.svm")]
        argv += ["--method", "analytic", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 2
        assert "LogisticOracle: the data matrix has no rows" in capsys.readouterr().err


class TestBuildProblem:
    def test_numbers_given_as_text_or_integral_floats(self):
        name, oracle, _ = build_problem({"kind": "portfolio", "T": "10", "n": 4.0, "seed": "2"})
        _, reference, _ = build_problem({"kind": "portfolio", "T": 10, "n": 4, "seed": 2})
        assert name == "portfolio_n4_T10_s2"
        assert np.array_equal(oracle.returns, reference.returns)

    def test_keys_outside_the_table_pass_unread(self):
        spec = {"kind": "poisson", "m": 20, "n": 5, "name": "p", "shape": [20, 5], "note": "x"}
        name, oracle, _ = build_problem(spec)
        assert name == "p" and oracle.dim == 5

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "portfolio", "data": "r.csv", "seed": 1}, "portfolio problem spec does not read 'seed'"),
            ({"kind": "poisson", "data": "p.svm", "m": 5, "n": 2}, "poisson problem spec does not read 'm', 'n'"),
            ({"kind": "logistic", "N": 20, "n": 4, "density": 0.5}, "logistic problem spec does not read 'density'"),
        ],
        ids=["portfolio-data-seed", "poisson-data-sizes", "logistic-density"],
    )
    def test_unread_key_stops_before_any_file_is_read(self, spec, message):
        with pytest.raises(ValueError) as exc:
            build_problem(spec)
        assert str(exc.value) == message

    def test_logistic_gamma_given_as_text(self):
        spec = {"kind": "logistic", "N": 20, "n": 4}
        _, oracle, _ = build_problem(dict(spec, gamma="0.1"))
        _, reference, _ = build_problem(dict(spec, gamma=0.1))
        assert type(oracle.gamma) is float and oracle.gamma == reference.gamma == 0.1
        assert oracle.M == reference.M

    def test_logistic_from_libsvm_file(self, tmp_path):
        # the grid workload's logistic path: a LIBSVM file with labels {0, 1}
        feats, labels = gen_logistic_data(30, 4, 2)
        path = tmp_path / "toy.libsvm"
        path.write_text(format_libsvm(feats, np.where(labels > 0, 1.0, 0.0)))
        name, oracle, fs = build_problem({"kind": "logistic", "data": str(path)})
        assert name == "logistic_toy"
        assert np.array_equal(oracle.labels, labels)
        assert set(oracle.labels) == {-1.0, 1.0}
        assert np.array_equal(oracle.features, feats)
        assert fs.kind == "l1_ball"
        trace = run_one(oracle, fs, "analytic", 1e-4, 200)
        assert trace.termination == "gap_below_eps"
        assert trace.records[-1].f < trace.records[0].f


SOLVE = ["solve", "--method", "analytic", "--out", "{tmp}/t.csv"]
LOGISTIC = SOLVE + ["--problem", "logistic", "--samples", "20", "--n", "5"]


class TestUserErrors:
    """Bad input ends in one `condgrad: error:` line on stderr and status 2
    (a data matrix without rows: `TestSolve::test_logistic_without_rows_rejected`)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (SOLVE + ["--problem", "portfolio"], "portfolio problem spec lacks the key 'T'"),
            (
                ["solve", "--problem", "poisson", "--method", "lloo", "--samples", "10", "--n", "4"]
                + ["--out", "{tmp}/t.csv"],
                "the lloo method runs on simplex problems only",
            ),
            (SOLVE + ["--problem", "portfolio", "--data", "{tmp}/missing.csv"], "No such file or directory"),
            (["bench", "--config", "{tmp}/cfg.json"], "bench config lacks the key 'problems'"),
            (["profile", "--traces", "{tmp}/missing"], "no complete method traces found"),
            (
                ["solve", "--problem", "portfolio", "--T", "3", "--n", "5", "--method", "lloo"]
                + ["--out", "{tmp}/t.csv"],
                "the Hessian at the start point is singular",
            ),
            (
                ["profile", "--traces", "{tmp}/bad"],
                "analytic__p.csv, line 2: the dtype passed requires 7 columns but 3 were found\n",
            ),
            (
                ["solve", "--problem", "logistic", "--samples", "30", "--n", "5", "--method", "analytic"]
                + ["--radius", "inf", "--out", "{tmp}/t.csv"],
                "radius must be finite",
            ),
            (["profile", "--traces", "{tmp}/empty"], "analytic__p2.csv: the trace has no rows"),
            (LOGISTIC + ["--eps", "inf"], "epsilon must be finite"),
            # argparse would read these negative values as option names
            (LOGISTIC + ["--radius", "-inf"], "radius must be finite"),
            (LOGISTIC + ["--radius", "-1e3"], "radius must be positive"),
            (LOGISTIC + ["--radius=-inf"], "radius must be finite"),
            (LOGISTIC + ["--eps", "-1e-3"], "epsilon must be positive"),
            (LOGISTIC + ["--eps", "-nan"], "epsilon must be finite"),
            (["profile", "--traces", "{tmp}/empty", "--eps-grid=nan"], "profile levels must be finite and nonnegative"),
            (["profile", "--traces", "{tmp}/empty", "--eps-grid=-1e-3"], "profile levels must be finite"),
            (["bench", "--config", "{tmp}/levels.json"], "profile levels must be finite and nonnegative, got inf"),
            (["bench", "--config", "{tmp}/seeds.json"], "bench config 'seeds' must be a list, got 3"),
            (["bench", "--config", "{tmp}/methods.json"], "bench config 'methods' must be a list, got 'analytic'"),
            (["bench", "--config", "{tmp}/gamma.json"], "could not convert string to float: 'small'"),
            (
                ["bench", "--config", "{tmp}/problems.json", "--out", "{tmp}/res"],
                "bench config 'problems' entries must be objects, got 3",
            ),
            (
                ["bench", "--config", "{tmp}/mu.json", "--out", "{tmp}/res"],
                "logistic problem spec 'mu' must be a number, got [1]",
            ),
            (
                ["bench", "--config", "{tmp}/max_iter.json", "--out", "{tmp}/res"],
                "bench config 'max_iter' must be a number, got [5]",
            ),
            (["profile", "--traces", "{tmp}/late"], "analytic__p.csv, line 3: time_ns 4 is below the previous row's 5"),
            (
                ["bench", "--config", "{tmp}/misspelled.json", "--out", "{tmp}/res"],
                "bench config 'methods' has unknown method 'analytc'",
            ),
            (
                ["bench", "--config", "{tmp}/max_iter_0.json", "--out", "{tmp}/res"],
                "bench config 'max_iter' must be at least 1, got 0\n",
            ),
            (
                ["bench", "--config", "{tmp}/gap_tol_0.json", "--out", "{tmp}/res"],
                "bench config 'gap_tol' must be finite and positive, got 0.0\n",
            ),
            (
                ["bench", "--config", "{tmp}/T_fraction.json", "--out", "{tmp}/res"],
                "portfolio problem spec 'T' must be an integer, got 10.9\n",
            ),
            (
                ["bench", "--config", "{tmp}/max_iter_fraction.json", "--out", "{tmp}/res"],
                "bench config 'max_iter' must be an integer, got 50.7\n",
            ),
            (
                ["bench", "--config", "{tmp}/seed_bool.json", "--out", "{tmp}/res"],
                "portfolio problem spec 'seed' must be an integer, got True\n",
            ),
            (
                ["bench", "--config", "{tmp}/T_word.json", "--out", "{tmp}/res"],
                "portfolio problem spec 'T': invalid literal for int() with base 10: 'ten'\n",
            ),
            (
                ["bench", "--config", "{tmp}/portfolio_radius.json", "--out", "{tmp}/res"],
                "portfolio problem spec does not read 'radius'\n",
            ),
            (
                ["bench", "--config", "{tmp}/poisson_gamma_T.json", "--out", "{tmp}/res"],
                "poisson problem spec does not read 'T', 'gamma'\n",
            ),
            (
                ["bench", "--config", "{tmp}/radius_huge.json", "--out", "{tmp}/res"],
                "poisson problem spec 'radius': int too large to convert to float\n",
            ),
            (
                ["bench", "--config", "{tmp}/T_0.json", "--out", "{tmp}/res"],
                "portfolio problem spec 'T' must be at least 1, got 0\n",
            ),
            (
                ["bench", "--config", "{tmp}/n_0.json", "--out", "{tmp}/res"],
                "poisson problem spec 'n' must be at least 1, got 0\n",
            ),
            (
                ["bench", "--config", "{tmp}/N_negative.json", "--out", "{tmp}/res"],
                "logistic problem spec 'N' must be at least 1, got -3\n",
            ),
            (
                ["bench", "--config", "{tmp}/eps_grid_number.json", "--out", "{tmp}/res"],
                "bench config 'eps_grid' must be a list, got 0.1\n",
            ),
            (
                ["bench", "--config", "{tmp}/eps_grid_nested.json", "--out", "{tmp}/res"],
                "eps_grid entries must be numbers, got [[1]]\n",
            ),
            (
                ["bench", "--config", "{tmp}/eps_grid_null.json", "--out", "{tmp}/res"],
                "eps_grid entries must be numbers, got [None]\n",
            ),
            (["bench", "--config", "{tmp}/not_an_object.json"], "bench config must be a JSON object, got [1, 2]\n"),
            (["bench", "--config", "{tmp}/out_dir_number.json"], "bench config 'out_dir' must be a string, got 5\n"),
            (
                ["bench", "--config", "{tmp}/problems_empty.json", "--out", "{tmp}/res"],
                "bench config 'problems' must not be empty\n",
            ),
            (
                ["bench", "--config", "{tmp}/methods_empty.json", "--out", "{tmp}/res"],
                "bench config 'methods' must not be empty\n",
            ),
            (
                ["bench", "--config", "{tmp}/seeds_empty.json", "--out", "{tmp}/res"],
                "bench config 'seeds' must not be empty\n",
            ),
            (
                ["bench", "--config", "{tmp}/eps_grid_empty.json", "--out", "{tmp}/res"],
                "bench config 'eps_grid' must not be empty\n",
            ),
            (["profile", "--traces", "{tmp}/one", "--eps-grid", ""], "eps_grid entries must be numbers, got ['']\n"),
            (
                ["bench", "--config", "{tmp}/name_slash.json", "--out", "{tmp}/res"],
                "portfolio problem spec 'name' must be a string without '/' or NUL, got 'a/b'\n",
            ),
            (
                ["bench", "--config", "{tmp}/name_nul.json", "--out", "{tmp}/res"],
                "portfolio problem spec 'name' must be a string without '/' or NUL, got 'a\\x00b'\n",
            ),
            (
                ["bench", "--config", "{tmp}/name_number.json", "--out", "{tmp}/res"],
                "poisson problem spec 'name' must be a string without '/' or NUL, got 5\n",
            ),
            (
                ["bench", "--config", "{tmp}/name_twice.json", "--out", "{tmp}/res"],
                "bench config has more than one problem named 'p'\n",
            ),
            (
                ["bench", "--config", "{tmp}/seed_twice.json", "--out", "{tmp}/res"],
                "bench config has more than one problem named 'portfolio_n4_T10_s0'\n",
            ),
            (
                ["bench", "--config", "{tmp}/method_twice.json", "--out", "{tmp}/res"],
                "bench config names method 'analytic' more than once\n",
            ),
            (
                SOLVE + ["--problem", "portfolio", "--data", "{tmp}/returns_empty.csv"],
                "returns CSV body (0, 1) does not match header (3, 2)\n",
            ),
            (
                SOLVE + ["--problem", "portfolio", "--data", "{tmp}/returns_word.csv"],
                "returns CSV header 'x,2,1' is not a `T,n,seed` line of integers\n",
            ),
            (
                SOLVE + ["--problem", "poisson", "--data", "{tmp}/huge_index.svm"],
                "line 2: index 4611686018427387904 makes the dense matrix 2 x 4611686018427387904, "
                "which numpy cannot allocate\n",
            ),
            # float(True) is 1.0: a JSON bool does not read as a number
            (
                ["bench", "--config", "{tmp}/radius_bool.json", "--out", "{tmp}/res"],
                "poisson problem spec 'radius' must be a number, got True\n",
            ),
            (
                ["bench", "--config", "{tmp}/density_bool.json", "--out", "{tmp}/res"],
                "poisson problem spec 'density' must be a number, got False\n",
            ),
            (
                ["bench", "--config", "{tmp}/gamma_bool.json", "--out", "{tmp}/res"],
                "logistic problem spec 'gamma' must be a number, got True\n",
            ),
            (
                ["bench", "--config", "{tmp}/mu_bool.json", "--out", "{tmp}/res"],
                "logistic problem spec 'mu' must be a number, got False\n",
            ),
            (
                ["bench", "--config", "{tmp}/gap_tol_bool.json", "--out", "{tmp}/res"],
                "bench config 'gap_tol' must be a number, got True\n",
            ),
            (
                ["bench", "--config", "{tmp}/eps_grid_bool.json", "--out", "{tmp}/res"],
                "eps_grid entries must be numbers, got [True, False]\n",
            ),
        ],
        ids=[
            "portfolio-no-size",
            "lloo-off-simplex",
            "missing-data",
            "bench-no-problems",
            "profile-no-traces",
            "lloo-singular-hessian",
            "profile-truncated-row",
            "radius-inf",
            "profile-empty-trace",
            "eps-inf",
            "radius-minus-inf",
            "radius-minus-1e3",
            "radius-equals-minus-inf",
            "eps-minus-1e-3",
            "eps-minus-nan",
            "profile-level-nan",
            "profile-level-negative",
            "bench-level-inf",
            "bench-seeds-not-a-list",
            "bench-methods-not-a-list",
            "bench-gamma-not-a-number",
            "bench-problem-not-an-object",
            "bench-mu-a-list",
            "bench-max-iter-a-list",
            "profile-time-falls",
            "bench-unknown-method",
            "bench-max-iter-zero",
            "bench-gap-tol-zero",
            "bench-T-fractional",
            "bench-max-iter-fractional",
            "bench-seed-a-bool",
            "bench-T-a-word",
            "bench-portfolio-radius",
            "bench-poisson-gamma-T",
            "bench-radius-beyond-float",
            "bench-portfolio-T-zero",
            "bench-poisson-n-zero",
            "bench-logistic-N-negative",
            "bench-eps-grid-a-number",
            "bench-eps-grid-a-nested-list",
            "bench-eps-grid-a-null",
            "bench-config-not-an-object",
            "bench-out-dir-a-number",
            "bench-problems-empty",
            "bench-methods-empty",
            "bench-seeds-empty",
            "bench-eps-grid-empty",
            "profile-eps-grid-empty",
            "bench-name-with-slash",
            "bench-name-with-nul",
            "bench-name-a-number",
            "bench-name-twice",
            "bench-seed-twice",
            "bench-method-twice",
            "returns-empty-body",
            "returns-header-word",
            "libsvm-index-numpy-refuses",
            "bench-radius-a-bool",
            "bench-density-a-bool",
            "bench-gamma-a-bool",
            "bench-mu-a-bool",
            "bench-gap-tol-a-bool",
            "bench-eps-grid-bools",
        ],
    )
    def test_one_line_and_status_2(self, tmp_path, capsys, argv, message):
        portfolio = [{"kind": "portfolio", "T": 10, "n": 4}]
        configs = {
            "cfg": {"methods": ["analytic"]},
            "levels": {"problems": portfolio, "eps_grid": [1e-2, "inf"]},
            "seeds": {"problems": portfolio, "seeds": 3},
            "methods": {"problems": portfolio, "methods": "analytic"},
            "gamma": {"problems": [{"kind": "logistic", "N": 20, "n": 4, "gamma": "small"}]},
            "problems": {"problems": [3]},
            "mu": {"problems": [{"kind": "logistic", "N": 20, "n": 4, "mu": [1]}]},
            "max_iter": {"problems": portfolio, "max_iter": [5]},
            "misspelled": {"problems": portfolio, "methods": ["analytc"]},
            "max_iter_0": {"problems": portfolio, "max_iter": 0},
            "gap_tol_0": {"problems": portfolio, "gap_tol": 0},
            "T_fraction": {"problems": [{"kind": "portfolio", "T": 10.9, "n": 4}]},
            "max_iter_fraction": {"problems": portfolio, "max_iter": 50.7},
            "seed_bool": {"problems": portfolio, "seeds": [True]},
            "T_word": {"problems": [{"kind": "portfolio", "T": "ten", "n": 4}]},
            "portfolio_radius": {"problems": [{"kind": "portfolio", "T": 10, "n": 4, "radius": 3}]},
            "poisson_gamma_T": {"problems": [{"kind": "poisson", "m": 20, "n": 5, "gamma": 0.5, "T": 9}]},
            "radius_huge": {"problems": [{"kind": "poisson", "m": 20, "n": 5, "radius": 10**400}]},
            "T_0": {"problems": [{"kind": "portfolio", "T": 0, "n": 4}]},
            "n_0": {"problems": [{"kind": "poisson", "m": 20, "n": 0}]},
            "N_negative": {"problems": [{"kind": "logistic", "N": -3, "n": 4}]},
            "eps_grid_number": {"problems": portfolio, "eps_grid": 0.1},
            "eps_grid_nested": {"problems": portfolio, "eps_grid": [[1]]},
            "eps_grid_null": {"problems": portfolio, "eps_grid": [None]},
            "not_an_object": [1, 2],
            "out_dir_number": {"problems": portfolio, "out_dir": 5},
            "problems_empty": {"problems": []},
            "methods_empty": {"problems": portfolio, "methods": []},
            "seeds_empty": {"problems": portfolio, "seeds": []},
            "eps_grid_empty": {"problems": portfolio, "eps_grid": []},
            "name_slash": {"problems": [{"kind": "portfolio", "T": 10, "n": 4, "name": "a/b"}]},
            "name_nul": {"problems": [{"kind": "portfolio", "T": 10, "n": 4, "name": "a\0b"}]},
            "name_number": {"problems": [{"kind": "poisson", "m": 20, "n": 5, "name": 5}]},
            "name_twice": {"problems": [dict(portfolio[0], name="p"), {"kind": "poisson", "m": 20, "n": 5, "name": "p"}]},
            "seed_twice": {"problems": portfolio, "seeds": [0, 0]},
            "method_twice": {"problems": portfolio, "methods": ["analytic", "analytic"]},
            "radius_bool": {"problems": [{"kind": "poisson", "m": 5, "n": 3, "radius": True}]},
            "density_bool": {"problems": [{"kind": "poisson", "m": 5, "n": 3, "density": False}]},
            "gamma_bool": {"problems": [{"kind": "logistic", "N": 5, "n": 3, "gamma": True}]},
            "mu_bool": {"problems": [{"kind": "logistic", "N": 5, "n": 3, "mu": False}]},
            "gap_tol_bool": {"problems": portfolio, "gap_tol": True},
            "eps_grid_bool": {"problems": portfolio, "eps_grid": [True, False]},
        }
        for name, cfg in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / "analytic__p.csv").write_text("k,f,gap,alpha,e,L,time_ns\n0,1,2\n")
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "analytic__p.csv").write_text("k,f,gap,alpha,e,L,time_ns\n0,1,0.5,0,1,,0\n")
        (tmp_path / "empty" / "analytic__p2.csv").write_text("k,f,gap,alpha,e,L,time_ns\n")
        (tmp_path / "one").mkdir()
        (tmp_path / "one" / "analytic__p.csv").write_text("k,f,gap,alpha,e,L,time_ns\n0,1,0.5,0,1,,0\n")
        (tmp_path / "returns_empty.csv").write_text("3,2,0\n")
        (tmp_path / "returns_word.csv").write_text("x,2,1\n1,1\n")
        (tmp_path / "huge_index.svm").write_text("+1 1:1\n+1 4611686018427387904:1\n")
        (tmp_path / "late").mkdir()
        (tmp_path / "late" / "analytic__p.csv").write_text("k,f,gap,alpha,e,L,time_ns\n0,1,2,0.5,4,,5\n1,1,2,0.5,4,,4\n")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("condgrad: error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--T", "--n", "--samples"])
    @pytest.mark.parametrize("problem", ["portfolio", "poisson", "logistic"])
    def test_size_below_one(self, tmp_path, capsys, problem, flag, value):
        sizes = {"--T": "10", "--n": "4", "--samples": "10"}
        sizes[flag] = value
        argv = SOLVE + ["--problem", problem] + [a for item in sizes.items() for a in item]
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"condgrad: error: {flag} must be positive\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--problem", "poisson", "--samples", "20", "--n", "4", "--T", "7"], "--T does not apply to a poisson problem"),
            (["--problem", "logistic", "--samples", "20", "--n", "4", "--T", "7"], "--T does not apply to a logistic problem"),
            (["--problem", "portfolio", "--T", "20", "--n", "4", "--samples", "9"], "--samples does not apply to a portfolio problem"),
            (["--problem", "portfolio", "--T", "20", "--n", "4", "--radius", "3"], "--radius does not apply to a portfolio problem"),
            (
                ["--problem", "portfolio", "--data", "{tmp}/r.csv", "--T", "20"],
                "--T does not apply to a portfolio problem read from --data",
            ),
            (
                ["--problem", "poisson", "--data", "{tmp}/p.svm", "--n", "4"],
                "--n does not apply to a poisson problem read from --data",
            ),
            (
                ["--problem", "logistic", "--data", "{tmp}/l.svm", "--samples", "5"],
                "--samples does not apply to a logistic problem read from --data",
            ),
            (
                ["--problem", "portfolio", "--data", "{tmp}/r.csv", "--seed", "5"],
                "--seed does not apply to a portfolio problem read from --data",
            ),
            (
                ["--problem", "logistic", "--data", "{tmp}/l.svm", "--seed", "0"],
                "--seed does not apply to a logistic problem read from --data",
            ),
        ],
        ids=[
            "poisson-T",
            "logistic-T",
            "portfolio-samples",
            "portfolio-radius",
            "portfolio-data-T",
            "poisson-data-n",
            "logistic-data-samples",
            "portfolio-data-seed",
            "logistic-data-seed",
        ],
    )
    def test_unread_flag(self, tmp_path, capsys, argv, message):
        assert main([a.format(tmp=tmp_path) for a in SOLVE + argv]) == 2
        assert capsys.readouterr().err == f"condgrad: error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("field, value", [("seeds", 3), ("methods", "analytic")])
    def test_list_field_of_another_type_stops_the_grid_before_any_solve(self, tmp_path, monkeypatch, field, value):
        from condgrad import cli

        def no_run(*args):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli, "run_one", no_run)
        cfg = {"problems": [{"kind": "portfolio", "T": 10, "n": 4}], field: value}
        with pytest.raises(ValueError, match=f"bench config '{field}' must be a list"):
            cli.run_suite(cfg, tmp_path / "res")
        assert not (tmp_path / "res").exists()

    def test_bad_profile_level_stops_the_grid_before_any_solve(self, tmp_path, monkeypatch):
        from condgrad import cli

        def no_run(*args):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli, "run_one", no_run)
        cfg = {"problems": [{"kind": "portfolio", "T": 10, "n": 4}], "eps_grid": [0.0, -1e-3]}
        with pytest.raises(ValueError, match="profile levels must be finite and nonnegative"):
            cli.run_suite(cfg, tmp_path / "res")
        assert not (tmp_path / "res").exists()

    def test_invariant_error_keeps_its_traceback(self, tmp_path, monkeypatch):
        from condgrad import cli
        from condgrad.core import InvariantError

        def failing_run_one(*args):
            raise InvariantError("injected failure")

        monkeypatch.setattr(cli, "run_one", failing_run_one)
        argv = ["solve", "--problem", "portfolio", "--T", "10", "--n", "4"]
        argv += ["--method", "analytic", "--out", str(tmp_path / "t.csv")]
        with pytest.raises(InvariantError, match="injected failure"):
            main(argv)


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    cfg = {
        "problems": [
            {"kind": "portfolio", "n": 6, "T": 12},
            {"kind": "poisson", "m": 25, "n": 6, "radius": 5.0},
        ],
        "methods": ["standard", "analytic", "backtracking"],
        "seeds": [0, 1],
        "max_iter": 300,
        "gap_tol": 1e-9,
        "eps_grid": [1e-1, 1e-2, 1e-3, 1e-4],
    }
    out_dir = tmp_path_factory.mktemp("bench")
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_dir / "results")]) == 0
    return out_dir / "results"


class TestBench:
    def test_outputs_exist(self, bench_dir):
        assert (bench_dir / "summary.json").exists()
        assert (bench_dir / "profiles.csv").exists()
        summary = json.loads((bench_dir / "summary.json").read_text())
        # 2 problem templates x 2 seeds x 3 methods
        assert len(summary["runs"]) == 12
        assert all("error" not in r for r in summary["runs"])

    def test_profiles_header(self, bench_dir):
        lines = (bench_dir / "profiles.csv").read_text().splitlines()
        assert lines[0] == "method,eps,frac_solved,iter_ratio,time_ratio"
        assert len(lines) == 1 + 4 * 3  # eps grid x methods

    def test_recompute_from_traces_is_bit_identical(self, bench_dir):
        table = table_from_trace_dir(bench_dir)
        regenerated = format_profiles_csv(table, [1e-1, 1e-2, 1e-3, 1e-4])
        assert regenerated == (bench_dir / "profiles.csv").read_text()

    def test_profile_subcommand_matches_bench_output(self, bench_dir, tmp_path):
        out = tmp_path / "profiles.csv"
        rc = main(
            [
                "profile",
                "--traces", str(bench_dir),
                "--eps-grid", "0.1,0.01,0.001,0.0001",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text() == (bench_dir / "profiles.csv").read_text()

    def test_profile_to_stdout_matches_out_file(self, bench_dir, tmp_path, capsys):
        out = tmp_path / "profiles.csv"
        argv = ["profile", "--traces", str(bench_dir), "--eps-grid", "0.1,0.001"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_metrics_from_csv_match_in_memory(self, bench_dir):
        # loading traces back must reproduce every metric exactly
        table = table_from_trace_dir(bench_dir)
        again = table_from_trace_dir(bench_dir)
        for eps in (1e-1, 1e-3):
            assert fraction_solved(table, eps) == fraction_solved(again, eps)
            try:
                assert iteration_ratio(table, eps) == iteration_ratio(again, eps)
                assert time_ratio(table, eps) == time_ratio(again, eps)
            except ValueError:
                pass

    def test_smoke_grid_all_methods_under_a_minute(self, tmp_path):
        # the standard smoke configuration: every method on the benchmark
        # allocation instance at the default iteration/gap caps
        import time

        cfg = {
            "problems": [{"kind": "portfolio", "n": 20, "T": 50, "seed": 7}],
            "methods": ["standard", "line_search", "analytic", "backtracking", "lloo"],
            "max_iter": 50000,
            "gap_tol": 1e-10,
        }
        cfg_path = tmp_path / "smoke.json"
        cfg_path.write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
        assert time.perf_counter() - t0 < 60.0
        summary = json.loads((tmp_path / "res" / "summary.json").read_text())
        assert len(summary["runs"]) == 5
        assert all("error" not in r for r in summary["runs"])
        assert (tmp_path / "res" / "profiles.csv").exists()

    def test_startup_errors_recorded_not_fatal(self, tmp_path):
        cfg = {
            "problems": [{"kind": "poisson", "m": 10, "n": 4, "radius": 2.0}],
            "methods": ["analytic", "lloo"],  # lloo needs a simplex
            "max_iter": 50,
            "gap_tol": 1e-6,
            "eps_grid": [0.1],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
        summary = json.loads((tmp_path / "res" / "summary.json").read_text())
        errors = [r for r in summary["runs"] if "error" in r]
        assert len(errors) == 1 and errors[0]["method"] == "lloo"

    def test_grid_without_a_table_removes_an_earlier_one(self, tmp_path, capsys):
        # the second grid's only method fails on its only problem, so it has
        # no table and no trace; the first grid's must not sit next to its
        # summary, nor reach `profile`
        grids = [
            {"problems": [{"kind": "portfolio", "n": 4, "T": 10}], "methods": ["analytic"], "max_iter": 50},
            {"problems": [{"kind": "poisson", "m": 10, "n": 4}], "methods": ["lloo"]},
        ]
        for i, cfg in enumerate(grids):
            cfg_path = tmp_path / f"cfg{i}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
            assert (tmp_path / "res" / "profiles.csv").exists() == (i == 0)
            traces = [p.name for p in (tmp_path / "res").glob("*__*.csv")]
            assert traces == (["analytic__portfolio_n4_T10_s0.csv"] if i == 0 else [])
        summary = json.loads((tmp_path / "res" / "summary.json").read_text())
        assert [r["error_type"] for r in summary["runs"]] == ["ValueError"]
        capsys.readouterr()
        assert main(["profile", "--traces", str(tmp_path / "res"), "--eps-grid", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("condgrad: error: no complete method traces") and captured.err.count("\n") == 1

    def test_unwritable_trace_recorded_and_grid_goes_on(self, tmp_path):
        # a valid name, but too long for a file name on the output directory
        long_name = "x" * 300
        cfg = {
            "problems": [
                {"kind": "portfolio", "n": 4, "T": 10, "name": long_name},
                {"kind": "poisson", "m": 12, "n": 5, "radius": 3.0},
            ],
            "methods": ["analytic"],
            "max_iter": 100,
            "gap_tol": 1e-6,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
        runs = json.loads((tmp_path / "res" / "summary.json").read_text())["runs"]
        assert [r["problem"] for r in runs] == [long_name, "poisson_m12_n5_s0"]
        assert runs[0]["error_type"] == "OSError"
        assert "File name too long" in runs[0]["error"]
        assert "error" not in runs[1]
        assert (tmp_path / "res" / runs[1]["trace"]).exists()

    def test_failed_run_recorded_and_grid_goes_on(self, tmp_path, monkeypatch):
        from condgrad import cli
        from condgrad.core import InvariantError
        from condgrad.problems import PortfolioOracle

        real_run_one = cli.run_one

        def failing_run_one(oracle, feasible_set, method, *args, **kwargs):
            if method == "analytic" and isinstance(oracle, PortfolioOracle):
                raise InvariantError("injected failure")
            return real_run_one(oracle, feasible_set, method, *args, **kwargs)

        monkeypatch.setattr(cli, "run_one", failing_run_one)
        cfg = {
            "problems": [
                {"kind": "portfolio", "n": 5, "T": 10},
                {"kind": "poisson", "m": 12, "n": 5, "radius": 3.0},
            ],
            "methods": ["analytic", "backtracking"],
            "max_iter": 100,
            "gap_tol": 1e-6,
            "eps_grid": [0.1, 0.01],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
        summary = json.loads((tmp_path / "res" / "summary.json").read_text())
        failed = [r for r in summary["runs"] if "error" in r]
        assert len(summary["runs"]) == 4
        assert len(failed) == 1
        assert failed[0]["method"] == "analytic"
        assert failed[0]["problem"].startswith("portfolio")
        assert failed[0]["error_type"] == "InvariantError"
        assert failed[0]["error"] == "injected failure"
        done = [r for r in summary["runs"] if "error" not in r]
        assert all(r["termination"] in ("gap_below_eps", "max_iter", "stalled") for r in done)
        assert all((tmp_path / "res" / r["trace"]).exists() for r in done)
        # the method with a trace on every problem still gets its profile
        profiles = (tmp_path / "res" / "profiles.csv").read_text()
        assert "backtracking" in profiles and "analytic" not in profiles

    def test_profile_handles_partial_method_coverage(self, tmp_path):
        # the simplex-only method leaves no traces on non-simplex problems;
        # recomputation must drop it instead of failing on the missing pairs
        cfg = {
            "problems": [
                {"kind": "portfolio", "n": 5, "T": 10},
                {"kind": "poisson", "m": 12, "n": 5, "radius": 3.0},
            ],
            "methods": ["analytic", "lloo"],
            "max_iter": 100,
            "gap_tol": 1e-6,
            "eps_grid": [0.1, 0.01],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
        out = tmp_path / "re.csv"
        assert main(["profile", "--traces", str(tmp_path / "res"), "--eps-grid", "0.1,0.01", "--out", str(out)]) == 0
        assert out.read_text() == (tmp_path / "res" / "profiles.csv").read_text()
        assert "lloo" not in out.read_text()
