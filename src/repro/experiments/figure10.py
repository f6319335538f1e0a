"""Figure 10 reproduction: optimized-confidence rule performance (§6.2).

The paper times the hull-based linear algorithm against the naive quadratic
method for finding optimized confidence rules with a 5 % minimum support,
over bucket counts from 100 up to 10⁶, and reports that the linear algorithm
wins by more than an order of magnitude beyond a few hundred buckets while
its running time grows linearly.

The reproduction sweeps the bucket count over synthetic planted profiles
(the figure's x-axis is the number of buckets, so profiles are generated
directly), times both algorithms, verifies they return the same optimum, and
reports the speedup.  The "hull algorithm" column times the paper's
convex-hull-tree sweep itself — ``engine="reference"`` — not the default
engine, which answers integral profiles with a parametric search instead.  The naive method is skipped above
``naive_cutoff`` buckets to keep the default run short — exactly as one
would do with the paper's own quadratic baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.naive import naive_maximize_ratio
from repro.core.optimized_confidence import maximize_ratio
from repro.datasets.synthetic import planted_profile
from repro.exceptions import ExperimentError
from repro.experiments.reporting import format_seconds, format_table
from repro.experiments.runner import SweepResult, time_call

__all__ = ["Figure10Result", "run_figure10", "DEFAULT_BUCKET_COUNTS"]

#: Scaled-down default sweep (the paper sweeps 100 .. 1e6 buckets).
DEFAULT_BUCKET_COUNTS: tuple[int, ...] = (100, 200, 500, 1000, 2000, 5000)


@dataclass(frozen=True)
class Figure10Result:
    """Timing sweep of the linear and quadratic optimized-confidence solvers."""

    min_support: float
    sweep: SweepResult
    agreements: tuple[bool, ...]

    def report(self) -> str:
        """Aligned text table of the sweep."""
        rows = []
        for point, agreed in zip(self.sweep.points, self.agreements):
            fast = point.measurement("hull_algorithm")
            naive = point.measurement("naive_quadratic")
            rows.append(
                [
                    int(point.parameter),
                    format_seconds(fast),
                    format_seconds(naive) if naive >= 0 else "skipped",
                    f"{naive / fast:.1f}x" if naive >= 0 and fast > 0 else "-",
                    "yes" if agreed else "NO",
                ]
            )
        return format_table(
            ["buckets", "hull algorithm", "naive quadratic", "speedup", "same optimum"],
            rows,
            title=(
                "Figure 10 — optimized confidence rules, minimum support "
                f"{self.min_support:.0%}"
            ),
        )


def run_figure10(
    bucket_counts: Sequence[int] = DEFAULT_BUCKET_COUNTS,
    min_support: float = 0.05,
    naive_cutoff: int = 20_000,
    seed: int | None = 5,
) -> Figure10Result:
    """Time the linear and quadratic solvers across a sweep of bucket counts."""
    if not bucket_counts:
        raise ExperimentError("bucket_counts must not be empty")
    sweep = SweepResult(name="figure10", parameter_name="buckets")
    agreements: list[bool] = []
    for index, num_buckets in enumerate(bucket_counts):
        sizes, values = planted_profile(int(num_buckets), seed=None if seed is None else seed + index)
        min_count = min_support * float(sizes.sum())

        hull_seconds = time_call(
            lambda: maximize_ratio(sizes, values, min_count, engine="reference")
        )
        hull_result = maximize_ratio(sizes, values, min_count, engine="reference")

        if num_buckets <= naive_cutoff:
            naive_seconds = time_call(lambda: naive_maximize_ratio(sizes, values, min_count))
            naive_result = naive_maximize_ratio(sizes, values, min_count)
            agreed = (
                hull_result is not None
                and naive_result is not None
                and abs(hull_result.ratio - naive_result.ratio) < 1e-9
                and abs(hull_result.support_count - naive_result.support_count) < 1e-6
            )
        else:
            naive_seconds = -1.0
            agreed = hull_result is not None
        agreements.append(agreed)
        sweep.add(
            num_buckets,
            hull_algorithm=hull_seconds,
            naive_quadratic=naive_seconds,
        )
    return Figure10Result(min_support=min_support, sweep=sweep, agreements=tuple(agreements))
