import numpy as np
import pytest

from condgrad.profiles import (
    RunRecord,
    build_profile_table,
    first_hit,
    fraction_solved,
    iteration_ratio,
    relative_error,
    time_ratio,
)


class TestRelativeError:
    def test_zero_at_reference(self):
        assert relative_error(1.0, 1.0) == 0.0

    def test_positive_reference(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)

    def test_negative_reference_uses_magnitude(self):
        assert relative_error(-0.9, -1.0) == pytest.approx(0.1)

    def test_degenerate_reference(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)


def fixture_records():
    """Two methods, two problems, hand-checkable in exact binary floats.

    Problem p1: best value 1.0.
      fast: f = [3, 2, 1.125, 1.0]       -> rel = [2, 1, 0.125, 0]
      slow: f = [3, 2.5, 2, 1.5, 1.125]  -> rel = [2, 1.5, 1, 0.5, 0.125]
    Problem p2: best value 2.0 (from slow).
      fast: f = [4, 3, 2.25]             -> rel = [1, 0.5, 0.125]
      slow: f = [4, 2.5, 2.0]            -> rel = [1, 0.25, 0]
    """
    return [
        RunRecord("fast", "p1", np.array([3.0, 2.0, 1.125, 1.0]), np.array([0, 10, 20, 30])),
        RunRecord("slow", "p1", np.array([3.0, 2.5, 2.0, 1.5, 1.125]), np.array([0, 5, 10, 15, 20])),
        RunRecord("fast", "p2", np.array([4.0, 3.0, 2.25]), np.array([0, 8, 16])),
        RunRecord("slow", "p2", np.array([4.0, 2.5, 2.0]), np.array([0, 40, 80])),
    ]


class TestFixtureTable:
    def test_relative_error_series(self):
        table = build_profile_table(fixture_records())
        assert table.best == {"p1": 1.0, "p2": 2.0}
        assert np.array_equal(table.rel_err[("fast", "p1")], [2.0, 1.0, 0.125, 0.0])
        assert np.array_equal(table.rel_err[("slow", "p2")], [1.0, 0.25, 0.0])

    def test_fraction_solved_by_hand(self):
        table = build_profile_table(fixture_records())
        # at eps = 0.125 both methods reach both problems
        assert fraction_solved(table, 0.125) == {"fast": 1.0, "slow": 1.0}
        # at eps = 0.0625: fast solves only p1, slow solves only p2
        assert fraction_solved(table, 0.0625) == {"fast": 0.5, "slow": 0.5}
        # at eps = 0.5 both solve everything
        assert fraction_solved(table, 0.5) == {"fast": 1.0, "slow": 1.0}

    def test_iteration_ratio_by_hand(self):
        table = build_profile_table(fixture_records())
        # eps = 0.125: p1 hits at (fast 2, slow 4); p2 hits at (fast 2, slow 2)
        ratios = iteration_ratio(table, 0.125)
        assert ratios["fast"] == 0.5 * (2 / 2 + 2 / 2)
        assert ratios["slow"] == 0.5 * (4 / 2 + 2 / 2)

    def test_time_ratio_by_hand(self):
        table = build_profile_table(fixture_records())
        # eps = 0.125: p1 times (fast 20, slow 20); p2 times (fast 16, slow 80)
        ratios = time_ratio(table, 0.125)
        assert ratios["fast"] == 0.5 * (20 / 20 + 16 / 16)
        assert ratios["slow"] == 0.5 * (20 / 20 + 80 / 16)

    def test_unreached_problems_drop_from_ratios(self):
        table = build_profile_table(fixture_records())
        # eps = 0.0625: fast never reaches p2, slow never reaches p1,
        # so no problem counts and the average is empty
        with pytest.raises(ValueError):
            iteration_ratio(table, 0.0625)
        with pytest.raises(ValueError):
            time_ratio(table, 0.0625)

    def test_best_method_scores_one(self):
        records = [
            RunRecord("a", "p", np.array([2.0, 1.0]), np.array([0, 10])),
            RunRecord("b", "p", np.array([2.0, 1.5, 1.0]), np.array([0, 10, 30])),
        ]
        table = build_profile_table(records)
        assert iteration_ratio(table, 1e-6)["a"] == 1.0
        assert time_ratio(table, 1e-6)["a"] == 1.0

    def test_single_method_always_one(self):
        records = [
            RunRecord("only", "p1", np.array([2.0, 1.0]), np.array([0, 10])),
            RunRecord("only", "p2", np.array([3.0, 1.0]), np.array([0, 10])),
        ]
        table = build_profile_table(records)
        for eps in (1.0, 0.1, 1e-9):
            assert iteration_ratio(table, eps) == {"only": 1.0}
            assert time_ratio(table, eps) == {"only": 1.0}


class TestTableProperties:
    def test_fraction_solved_monotone_in_eps(self):
        table = build_profile_table(fixture_records())
        grid = [10.0**-p for p in range(0, 6)]
        prev = {m: 1.1 for m in table.methods}
        for eps in grid:  # descending eps
            frac = fraction_solved(table, eps)
            for m in table.methods:
                assert frac[m] <= prev[m]
            prev = frac

    def test_first_hit_nonincreasing_in_eps(self):
        table = build_profile_table(fixture_records())
        for key in table.rel_err:
            hits = []
            for eps in (1.0, 0.5, 0.1):
                h = first_hit(table, key[0], key[1], eps)
                hits.append(np.inf if h is None else h)
            assert hits == sorted(hits)

    def test_missing_pairs_rejected(self):
        records = fixture_records()[:3]
        with pytest.raises(ValueError):
            build_profile_table(records)

    def test_second_run_of_a_pair_rejected_naming_it(self):
        # every pair is present, so only the count tells the repeat apart
        records = fixture_records()
        again = RunRecord(records[0].method, records[0].problem, np.array([0.5]), np.array([0]))
        with pytest.raises(ValueError) as exc:
            build_profile_table(records + [again])
        assert str(exc.value) == f"more than one run for pair {(again.method, again.problem)}"

    def test_zero_reference_rejected_naming_the_problem(self):
        records = [
            RunRecord("a", "p1", np.array([2.0, 1.0]), np.array([0, 10])),
            RunRecord("b", "p1", np.array([2.0, 1.5]), np.array([0, 10])),
            RunRecord("a", "crosses_zero", np.array([1.0, 0.0]), np.array([0, 10])),
            RunRecord("b", "crosses_zero", np.array([1.0, 0.5]), np.array([0, 10])),
        ]
        with pytest.raises(ValueError, match="crosses_zero"):
            build_profile_table(records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_profile_table([])
