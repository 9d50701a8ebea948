"""Performance-profile metrics across (method, problem) grids.

Each run contributes its objective series and cumulative wall times.
Per problem, the best attained value anchors a relative-error series for
every method; the profile metrics then report, per method, the fraction
of problems solved to a given relative error and the average iteration
and time ratios against the per-problem best method.
"""

from dataclasses import dataclass, field

import numpy as np

DEGENERATE_REFERENCE = 1e-300


@dataclass
class RunRecord:
    method: str
    problem: str
    f_series: np.ndarray
    time_ns: np.ndarray


@dataclass
class ProfileTable:
    methods: list[str]
    problems: list[str]
    best: dict = field(default_factory=dict)
    rel_err: dict = field(default_factory=dict)
    time_ns: dict = field(default_factory=dict)


def relative_error(f_k, f_best):
    """(f_k - f_best) / |f_best|.

    The absolute value keeps the error positive and monotone in f even
    when the reference value is negative.
    """
    if abs(f_best) < DEGENERATE_REFERENCE:
        raise ValueError("reference value too close to zero for a relative error")
    return (f_k - f_best) / abs(f_best)


def build_profile_table(records):
    """Assemble the per-(method, problem) relative-error series.

    Two runs of one (method, problem) pair, or a pair without a run, and
    a problem whose best value is too close to zero for a relative error
    each raise ValueError naming it.
    """
    records = list(records)
    if not records:
        raise ValueError("no runs to profile")
    methods = sorted({r.method for r in records})
    problems = sorted({r.problem for r in records})
    attained = {}
    for r in records:
        if (r.method, r.problem) in attained:
            raise ValueError(f"more than one run for pair {(r.method, r.problem)}")
        attained[(r.method, r.problem)] = float(np.min(r.f_series))
    missing = [(m, p) for m in methods for p in problems if (m, p) not in attained]
    if missing:
        raise ValueError(f"missing runs for pairs: {missing}")
    table = ProfileTable(methods=methods, problems=problems)
    for p in problems:
        table.best[p] = min(attained[(m, p)] for m in methods)
    for r in records:
        try:
            rel = relative_error(np.asarray(r.f_series, dtype=float), table.best[r.problem])
        except ValueError as exc:
            raise ValueError(f"problem {r.problem!r}: {exc}") from None
        table.rel_err[(r.method, r.problem)] = rel
        table.time_ns[(r.method, r.problem)] = np.asarray(r.time_ns)
    return table


def first_hit(table, method, problem, eps):
    """First iteration index reaching relative error eps, or None."""
    hits = np.nonzero(table.rel_err[(method, problem)] <= eps)[0]
    return int(hits[0]) if hits.size else None


def fraction_solved(table, eps):
    """Per-method fraction of problems ever reaching relative error eps."""
    out = {}
    for m in table.methods:
        solved = sum(1 for p in table.problems if first_hit(table, m, p, eps) is not None)
        out[m] = solved / len(table.problems)
    return out


def _mean_ratio(table, eps, cost):
    """Average over the problems every method reaches eps of each method's
    cost / the best method's cost; `cost(method, problem, hit)` prices
    reaching eps at iteration `hit`."""
    counted = []
    for p in table.problems:
        hits = [first_hit(table, m, p, eps) for m in table.methods]
        if all(h is not None for h in hits):
            counted.append([cost(m, p, h) for m, h in zip(table.methods, hits)])
    if not counted:
        raise ValueError(f"no problem reached by every method at eps={eps}")
    out = {m: 0.0 for m in table.methods}
    for costs in counted:
        floor = min(costs)
        for m, c in zip(table.methods, costs):
            if floor == 0:
                out[m] += 1.0 if c == 0 else float("inf")
            else:
                out[m] += c / floor
    return {m: v / len(counted) for m, v in out.items()}


def iteration_ratio(table, eps):
    """Average ratio of iterations-to-eps against the per-problem best.

    Problems where some method never reaches eps are excluded; if none
    remains the average is empty and a ValueError is raised.
    """
    return _mean_ratio(table, eps, lambda m, p, h: h)


def time_ratio(table, eps):
    """Average ratio of wall time-to-eps against the per-problem best."""
    return _mean_ratio(table, eps, lambda m, p, h: int(table.time_ns[(m, p)][h]))
