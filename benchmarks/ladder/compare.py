"""Compare two ladder result files, one row per (metric, workload).

    python benchmarks/ladder/compare.py A.json B.json [--all]

Each file holds the runs that ``run.py --out`` appended to it; A is the
base (the parent commit), B the change. Every gated metric gets both
medians, the ratio B/A **with its base**, the bound, the wider of the
two spreads (IQR / median), how many of the paired runs B won, and a
verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — the spread is wider than the bound, so the runs
  cannot tell, unless every run of B reads better than every run of A.

Exact counts (unit ``count`` or ``B``, and the simulated makespan) must
be identical between runs of the same seed; any that differ are listed.
``--all`` adds the ungated per-layer metrics as informational rows.
Exits 1 if any row is ``worse`` or any count differs.
"""

from __future__ import annotations

import json
import statistics
import sys

from spec import METRICS, bound

EXACT = {name for name, m in METRICS.items() if m["unit"] in ("count", "B")} | {"mpisim.makespan_s"}


def load(path: str) -> list[dict]:
    with open(path) as f:
        return json.load(f)["runs"]


def series(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run, in file order."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric, m in result["metrics"].items():
                out.setdefault((workload, metric), []).append(m["value"])
    return out


def spread(values: list[float]) -> float | None:
    """IQR as a share of the median; None when it cannot be taken."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def judge(a: list[float], b: list[float], better: str, limit: float) -> tuple[str, float | None]:
    """(verdict, wider spread) of change ``b`` against base ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    wide = max(spreads, default=None)
    if med_a == 0:  # an absolute bound (failed_frac): one bad run is a rise
        rise = sign * (statistics.fmean(b) - statistics.fmean(a))
        return ("worse" if rise > limit else "ok"), wide
    if wide is not None and wide > limit:
        clean_win = all(sign * y < sign * x for x in a for y in b)
        return ("ok" if clean_win else "unresolved"), wide
    worse_by = sign * (med_b - med_a) / abs(med_a)
    return ("worse" if worse_by > limit else "ok"), wide


def exact_counts(runs: list[dict]) -> dict[tuple, float]:
    """(seed, traced, workload, metric) -> the exact count a run reported."""
    out: dict[tuple, float] = {}
    for run in runs:
        head = run["header"]
        for workload, result in run["workloads"].items():
            for metric, m in result["metrics"].items():
                if metric in EXACT:
                    out.setdefault((head["seed"], head["traced"], workload, metric), m["value"])
    return out


def count_mismatches(runs_a: list[dict], runs_b: list[dict]) -> tuple[int, list[str]]:
    """Compare exact counts between runs of the same seed and mode."""
    a, b = exact_counts(runs_a), exact_counts(runs_b)
    shared = sorted(set(a) & set(b))
    differ = [
        f"seed {seed} {workload} {metric}: A={a[seed, traced, workload, metric]} "
        f"B={b[seed, traced, workload, metric]}"
        for seed, traced, workload, metric in shared
        if a[seed, traced, workload, metric] != b[seed, traced, workload, metric]
    ]
    return len(shared), differ


def main(argv: list[str]) -> int:
    show_all = "--all" in argv
    paths = [a for a in argv if a != "--all"]
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = load(paths[0]), load(paths[1])
    a, b = series(runs_a), series(runs_b)

    print(f"A = {paths[0]} ({len(runs_a)} runs)   B = {paths[1]} ({len(runs_b)} runs)")
    print(f"{'workload':<18} {'metric':<34} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'base (A)':>16} {'bound':>6} {'spread':>7} {'B wins':>7}  verdict")
    worse = 0
    for (workload, metric), va in a.items():
        vb = b.get((workload, metric))
        limit = bound(metric)
        if vb is None or metric in EXACT or (limit is None and not show_all):
            continue
        meta = METRICS[metric]
        med_a, med_b = statistics.median(va), statistics.median(vb)
        verdict, wide = judge(va, vb, meta["better"], limit) if limit is not None else ("info", None)
        worse += verdict == "worse"
        sign = 1.0 if meta["better"] == "lower" else -1.0
        pairs = list(zip(va, vb))
        wins = sum(sign * y < sign * x for x, y in pairs)
        ratio = f"{med_b / med_a:.3f}" if med_a else "-"
        base = f"{med_a:.5g} {meta['unit']}"
        limit_text = "-" if limit is None else f"{limit:g}"
        spread_text = "-" if wide is None else f"{wide:.3f}"
        print(
            f"{workload:<18} {metric:<34} {med_a:>12.6g} {med_b:>12.6g} "
            f"{ratio:>7} {base:>16} {limit_text:>6} {spread_text:>7} "
            f"{f'{wins}/{len(pairs)}':>7}  {verdict}"
        )
    compared, differ = count_mismatches(runs_a, runs_b)
    print(f"exact counts: {compared} compared between runs of the same seed, "
          f"{len(differ)} differ")
    for line in differ:
        print("  " + line)
    return 1 if worse or differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
