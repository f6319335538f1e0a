"""Judge benchmark results: a parent/change A/B, or the noise of one commit.

A/B — run the parent and the change alternately, one seed per pair::

    python benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC ...]

Each directory holds the untraced result files ``<workload>-s<seed>.json``
that ``run.py --out DIR`` writes; files pair up by workload and seed.  For
every workload and metric it prints both sides' median and quartiles and
the change's wins out of the pairs, then one summary row per workload:

* a claimed gain is met only when the change wins at least 9 of 10 pairs
  (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* a regression is a change median worse than the parent's by more than
  the metric's bound;
* a metric whose parent spread (IQR over median) exceeds its bound is
  unresolved, unless every change run beats every parent run.

Noise — two sets of runs of the same code, e.g. with the workload order
swapped::

    python benchmarks/perf/compare.py --noise SET1_DIR SET2_DIR [--write FILE]

prints each metric's spread in both sets and the drift between their
medians against its bound, and can record them as the baseline file.
The exit code is 1 when a regression, an unmet claim, or (with
``--noise``) a spread or drift beyond its bound is found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import perf_spec  # noqa: E402 - after the bytecode switch above

WIN_SHARE = 0.9


def _metrics() -> dict[str, dict]:
    """Every judged metric with its direction, bound and workloads."""
    table = {
        name: dict(metric, workloads=perf_spec.WORKLOADS)
        for name, metric in perf_spec.END_TO_END.items()
    }
    table.update(perf_spec.WORKLOAD_METRICS)
    return table


def _load(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*-s*.json")):
        if path.stem.endswith("-trace"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[(record["workload"], record["provenance"]["seed"])] = record
    if not runs:
        raise SystemExit(f"no result files in {directory}")
    return runs


def _values(runs: dict, workload: str, name: str, seeds: list[int]) -> list[float]:
    return [runs[(workload, seed)]["metrics"][name]["value"] for seed in seeds]


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    # The default (exclusive) method, which the bounds were set against.
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def _spread(metric: dict, values: list[float]) -> float:
    """IQR, as a share of the median for relative bounds."""
    low, median, high = _summary(values)
    if "bound_abs" in metric:
        return high - low
    return (high - low) / abs(median) if median else float("inf")


def _worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, in the bound's terms."""
    delta = change - parent if metric["better"] == "lower" else parent - change
    if "bound_abs" in metric:
        return delta
    return delta / abs(parent) if parent else (0.0 if delta <= 0 else float("inf"))


def _bound(metric: dict) -> float:
    return metric.get("bound", metric.get("bound_abs"))


def ab(parent_dir: Path, change_dir: Path, claims: set[tuple[str, str]]) -> int:
    parent, change = _load(parent_dir), _load(change_dir)
    pairs = defaultdict(list)
    for workload, seed in sorted(set(parent) & set(change)):
        pairs[workload].append(seed)
    verdicts: dict[str, dict[str, str]] = defaultdict(dict)
    print(f"{'workload':17s} {'metric':13s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'wins':>6s}  verdict")
    for workload in perf_spec.WORKLOADS:
        seeds = pairs.get(workload, [])
        if not seeds:
            continue
        for name, metric in _metrics().items():
            if workload not in metric["workloads"]:
                continue
            before = _values(parent, workload, name, seeds)
            after = _values(change, workload, name, seeds)
            lower = metric["better"] == "lower"
            wins = sum(1 for a, b in zip(before, after) if (b < a if lower else b > a))
            p_low, p_median, p_high = _summary(before)
            c_low, c_median, c_high = _summary(after)
            all_better = (max(after) < min(before)) if lower else (min(after) > max(before))
            worse = _worse_by(metric, p_median, c_median)
            if worse > _bound(metric):
                verdict = "regression"
            elif (
                worse < 0
                and wins >= WIN_SHARE * len(seeds)
                and abs(c_median - p_median) > p_high - p_low
            ):
                verdict = "gain"
            elif _spread(metric, before) > _bound(metric) and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            if (workload, name) in claims:
                verdict += " (claim met)" if verdict == "gain" else " (claim NOT met)"
            verdicts[workload][name] = verdict
            print(f"{workload:17s} {name:13s} "
                  f"{p_low:10.4g} {p_median:10.4g} {p_high:10.4g} "
                  f"{c_low:10.4g} {c_median:10.4g} {c_high:10.4g} "
                  f"{wins:3d}/{len(seeds):<2d}  {verdict}")
    print()
    failing = 0
    for workload, by_metric in verdicts.items():
        groups = defaultdict(list)
        for name, verdict in by_metric.items():
            groups[verdict].append(name)
        row = "; ".join(f"{verdict}: {', '.join(names)}" for verdict, names in sorted(groups.items()))
        print(f"{workload:17s} {row}")
        failing += sum(
            len(names) for verdict, names in groups.items()
            if verdict.startswith("regression") or "NOT met" in verdict
        )
    for workload, name in claims - {(w, n) for w in verdicts for n in verdicts[w]}:
        print(f"claim {workload}:{name} has no paired runs")
        failing += 1
    return 1 if failing else 0


def noise(first_dir: Path, second_dir: Path, write: Path | None) -> int:
    sets = [_load(first_dir), _load(second_dir)]
    baseline: dict[str, dict] = {}
    problems = 0
    print(f"{'workload':17s} {'metric':13s} {'median 1':>11s} {'spread 1':>9s} "
          f"{'median 2':>11s} {'spread 2':>9s} {'drift':>8s} {'bound':>6s}")
    for workload in perf_spec.WORKLOADS:
        seeds = [sorted(seed for w, seed in runs if w == workload) for runs in sets]
        if not all(seeds):
            continue
        for name, metric in _metrics().items():
            if workload not in metric["workloads"]:
                continue
            values = [_values(runs, workload, name, s) for runs, s in zip(sets, seeds)]
            medians = [statistics.median(v) for v in values]
            spreads = [_spread(metric, v) for v in values]
            drift = _worse_by(metric, medians[0], medians[1])
            bound = _bound(metric)
            # Drift must stay within the bound.  An end-to-end metric's spread
            # must stay under a third of it (set-up time is exempt: its bound
            # guards the medians only); a workload-only metric's under it, or
            # its A/B verdicts are unresolved.
            if name == "setup_s":
                limit = float("inf")
            elif name in perf_spec.END_TO_END:
                limit = bound / 3
            else:
                limit = bound
            flag = abs(drift) > bound or max(spreads) > limit
            problems += flag
            print(f"{workload:17s} {name:13s} {medians[0]:11.5g} {spreads[0]:9.4f} "
                  f"{medians[1]:11.5g} {spreads[1]:9.4f} {drift:8.4f} {bound:6.3f}"
                  f"{'  <-- over' if flag else ''}")
            baseline.setdefault(workload, {})[name] = {
                "unit": metric["unit"],
                "bound": bound,
                "medians": medians,
                "spreads": spreads,
                "drift": drift,
                "runs": [len(v) for v in values],
            }
    if write is not None:
        provenance = next(iter(sets[0].values()))["provenance"]
        write.write_text(json.dumps({
            "sets": [
                {
                    "seeds": sorted({seed for _, seed in runs}),
                    "workload_order": next(iter(runs.values()))["provenance"]["workload_order"],
                }
                for runs in sets
            ],
            "provenance": {
                key: provenance[key]
                for key in ("git_commit", "nproc", "python", "numpy", "kernel_tier",
                            "have_numba", "rows", "seconds")
            },
            "workloads": baseline,
        }, indent=2) + "\n", encoding="utf-8")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("first", type=Path, help="parent results (or noise set 1)")
    parser.add_argument("second", type=Path, help="change results (or noise set 2)")
    parser.add_argument("--noise", action="store_true", help="compare two sets of the same code")
    parser.add_argument("--write", type=Path, default=None, help="with --noise: write the baseline here")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a gain the change claims (repeatable)")
    args = parser.parse_args(argv)
    if args.noise:
        return noise(args.first, args.second, args.write)
    claims = {tuple(claim.split(":", 1)) for claim in args.claim}
    return ab(args.first, args.second, claims)


if __name__ == "__main__":
    sys.exit(main())
