"""Benchmark + reproduction of Figure 10 (optimized-confidence performance).

Paper reference: §6.2, Figure 10.  Finding the optimized confidence rule with
a 5 % minimum support: the convex-hull algorithm versus the naive quadratic
method, swept over the number of buckets.  Claims reproduced:

* the hull algorithm's running time grows (near-)linearly in the number of
  buckets;
* it beats the naive method by more than an order of magnitude once the
  bucket count reaches a few hundred;
* both methods return the same optimum.
"""

from __future__ import annotations

import pytest

from repro.core import maximize_ratio, naive_maximize_ratio
from repro.datasets import planted_profile
from repro.experiments import run_figure10

_MIN_SUPPORT = 0.05


@pytest.mark.parametrize("num_buckets", [1_000, 10_000, 100_000])
def test_bench_hull_algorithm(benchmark, num_buckets: int) -> None:
    """Time the paper's linear-time hull sweep at increasing bucket counts.

    That is the ``engine="reference"`` solver: the default engine answers
    these integral profiles with a parametric search, not the hull sweep.
    """
    sizes, values = planted_profile(num_buckets, seed=5)
    min_count = _MIN_SUPPORT * float(sizes.sum())
    result = benchmark(maximize_ratio, sizes, values, min_count, engine="reference")
    assert result is not None
    assert result.support_count >= min_count


@pytest.mark.parametrize("num_buckets", [500, 2_000])
def test_bench_naive_quadratic(benchmark, num_buckets: int) -> None:
    """Time the naive quadratic method (kept to modest sizes, it is the slow one)."""
    sizes, values = planted_profile(num_buckets, seed=5)
    min_count = _MIN_SUPPORT * float(sizes.sum())
    result = benchmark(naive_maximize_ratio, sizes, values, min_count)
    assert result is not None


def test_bench_figure10_sweep(benchmark, record_report) -> None:
    """Regenerate the Figure 10 sweep: speedups and agreement across sizes."""
    result = benchmark.pedantic(
        lambda: run_figure10(
            bucket_counts=(100, 500, 1_000, 5_000, 10_000, 50_000),
            naive_cutoff=50_000,
            seed=5,
        ),
        rounds=1,
        iterations=1,
    )
    record_report("Figure 10 - optimized confidence rules", result.report())
    assert all(result.agreements)

    fast = dict(result.sweep.series("hull_algorithm"))
    naive = dict(result.sweep.series("naive_quadratic"))
    # The quadratic/linear gap widens with the bucket count and reaches an
    # order of magnitude by 50k buckets (the paper's crossover is earlier
    # because its naive baseline is not numpy-vectorized while the hull sweep
    # pays Python object overhead; the asymptotic shape is what carries over).
    assert naive[50_000] > 10 * fast[50_000]
    assert naive[50_000] / fast[50_000] > naive[1_000] / fast[1_000]
    # Near-linear growth of the hull algorithm: 500x more buckets should cost
    # far less than 500^2; allow generous slack for constant factors.
    assert fast[50_000] / max(fast[100], 1e-7) < 5_000
