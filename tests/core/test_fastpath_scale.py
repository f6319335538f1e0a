"""Catalog-scale oracle tests for the parametric optimized-confidence search.

:func:`repro.core.fastpath.fast_maximize_ratio` answers integral profiles
with an exact Dinkelbach search and everything else with the hull sweep.
The §1.3 catalog calls it at a thousand buckets and more, so these tests
check it there: randomized count profiles at M ∈ {1000, 2000} with up to
1e5 tuples, heavy ties, collinear plateaus and every support level must give
the same selection as the object-based reference (and the naive quadratic
solver up to 1000 buckets), bit for bit.  A Hypothesis property checks
optimality against all O(M²) ranges with exact integer arithmetic, a crafted
profile forces a long chain of parametric rounds, and float profiles must
take the sweep.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fastpath
from repro.core import (
    fast_maximize_ratio,
    maximize_ratio_reference,
    naive_maximize_ratio,
)
from repro.exceptions import HullInvariantWarning


def selection_key(selection):
    """The exact-equality fingerprint the oracle tests compare."""
    if selection is None:
        return None
    return (
        selection.start,
        selection.end,
        selection.support_count,
        selection.objective_value,
    )


def _prefix(array) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.asarray(array, dtype=np.float64))))


def _catalog_profile(rng: np.random.Generator, num_buckets: int, shape: str):
    """An integer (sizes, values) profile of ``num_buckets`` buckets, ≤ 1e5 tuples."""
    max_size = max(1, 100_000 // num_buckets)
    if shape == "binomial":
        # Almost equi-depth counts with a planted denser band.
        sizes = rng.integers(max(1, max_size // 2), max_size + 1, size=num_buckets)
        rates = np.full(num_buckets, rng.uniform(0.05, 0.6))
        low = int(rng.integers(0, num_buckets))
        rates[low : low + int(rng.integers(1, num_buckets // 4 + 2))] += 0.3
        values = rng.binomial(sizes, np.minimum(rates, 1.0))
    elif shape == "ties":
        # Few distinct (size, value) pairs: many equal-ratio ranges.
        sizes = rng.choice([2, 4, 8], size=num_buckets)
        values = sizes * rng.choice([0, 1, 2, 3, 4], size=num_buckets) // 4
    else:
        # A short block repeated end to end: long collinear hull chains.
        block_sizes = rng.integers(1, 6, size=int(rng.integers(1, 5)))
        block_values = rng.integers(0, block_sizes + 1)
        repeats = -(-num_buckets // block_sizes.shape[0])
        sizes = np.tile(block_sizes, repeats)[:num_buckets]
        values = np.tile(block_values, repeats)[:num_buckets]
    return sizes.astype(np.int64), values.astype(np.int64)


class TestCatalogScaleOracle:
    @pytest.mark.parametrize("num_buckets", [1000, 2000])
    @pytest.mark.parametrize("shape", ["binomial", "ties", "plateau"])
    def test_fast_matches_reference_and_naive(self, num_buckets: int, shape: str) -> None:
        rng = np.random.default_rng(num_buckets + len(shape))
        for min_fraction in np.repeat([0.0, 0.001, 0.05, 0.1, 0.37, 0.8, 1.0], 4):
            sizes, values = _catalog_profile(rng, num_buckets, shape)
            min_count = min_fraction * float(sizes.sum())
            fast = fast_maximize_ratio(sizes, values, min_count)
            reference = maximize_ratio_reference(sizes, values, min_count)
            assert fast is not None
            assert selection_key(fast) == selection_key(reference)
            if num_buckets <= 1000:
                naive = naive_maximize_ratio(sizes, values, min_count)
                assert selection_key(fast) == selection_key(naive)

    def test_support_above_total_is_infeasible(self) -> None:
        sizes, values = _catalog_profile(np.random.default_rng(3), 1000, "binomial")
        assert fast_maximize_ratio(sizes, values, sizes.sum() + 0.5) is None

    def test_fractional_support_counts_round_up(self) -> None:
        # min_support * total is rarely integral; a range is ample exactly
        # when its integer count reaches the threshold's ceiling.
        rng = np.random.default_rng(5)
        sizes, values = _catalog_profile(rng, 1000, "ties")
        for min_count in rng.uniform(0, sizes.sum(), size=10):
            fast = fast_maximize_ratio(sizes, values, min_count)
            reference = maximize_ratio_reference(sizes, values, min_count)
            assert selection_key(fast) == selection_key(reference)
            assert fast.support_count >= min_count


@st.composite
def count_profiles(draw):
    """Integer profiles with heavy ties and a minimum count from 0 to Σu + 1."""
    num_buckets = draw(st.integers(min_value=1, max_value=40))
    sizes = draw(st.lists(st.integers(1, 6), min_size=num_buckets, max_size=num_buckets))
    values = [draw(st.integers(0, size)) for size in sizes]
    min_count = draw(st.integers(0, sum(sizes) + 1))
    return np.array(sizes), np.array(values), min_count


@given(count_profiles())
@settings(max_examples=300, deadline=None)
def test_fast_is_optimal_over_all_ranges(profile) -> None:
    """The selection beats or ties every ample range, exactly, with the tie-break."""
    sizes, values, min_count = profile
    prefix_sizes = [0, *np.cumsum(sizes).tolist()]
    prefix_values = [0, *np.cumsum(values).tolist()]
    ample = [
        (start, end)
        for start in range(len(sizes))
        for end in range(start, len(sizes))
        if prefix_sizes[end + 1] - prefix_sizes[start] >= min_count
    ]
    selection = fast_maximize_ratio(sizes, values, min_count)
    if not ample:
        assert selection is None
        return
    assert selection is not None
    best_count = prefix_sizes[selection.end + 1] - prefix_sizes[selection.start]
    best_value = prefix_values[selection.end + 1] - prefix_values[selection.start]
    assert best_count >= min_count
    assert (best_count, best_value) == (selection.support_count, selection.objective_value)
    for start, end in ample:
        count = prefix_sizes[end + 1] - prefix_sizes[start]
        value = prefix_values[end + 1] - prefix_values[start]
        cross = value * best_count - best_value * count
        assert cross <= 0
        if cross == 0:
            assert count <= best_count
            if count == best_count:
                assert start >= selection.start


def _round_chain_profile(links: int):
    """A profile on which the parametric search takes ``links + 2`` incumbents.

    Islands on the concave curve ``Y = sqrt(X)`` with ``X`` growing 4x, laid
    out largest first and separated by empty barrier buckets.  Each island
    is a dense front bucket too small to be ample plus an empty back bucket
    that is ample alone, so every minimal ample window is poor and the seed
    is a lone bucket whose ratio sits below the largest island's.  At the
    ratio of island ``k`` the best gain is exactly island ``k-1`` (the
    tangent of ``sqrt`` at ``X/4`` is parallel to the chord from the origin
    to ``X``), so the search walks the chain one island per round.
    """
    base = math.ceil(1.44 * 4**links)
    widths = [base * 4**k for k in range(links + 1)]
    heights = [round(math.sqrt(width)) for width in widths]
    min_count = math.ceil(0.6 * heights[-1])
    chord = (heights[-1] - heights[-2]) / (widths[-1] - widths[-2])
    barrier = 4 * widths[-1]
    sizes = [2 * min_count]
    values = [math.floor(0.9 * chord * 2 * min_count)]
    for width, height in zip(reversed(widths), reversed(heights)):
        front = min(min_count - 1, height)
        sizes += [barrier, front, width - front]
        values += [0, front, height - front]
    return np.array(sizes), np.array(values), min_count


class TestParametricRounds:
    @pytest.mark.parametrize("links", [3, 5, 7])
    def test_long_round_chain_terminates_at_the_optimum(self, links: int) -> None:
        sizes, values, min_count = _round_chain_profile(links)
        prefix_sizes, prefix_values = _prefix(sizes), _prefix(values)
        assert fastpath._within_exact_envelope(
            sizes.astype(np.float64), values.astype(np.float64), prefix_sizes, prefix_values
        )
        incumbents: list[tuple[int, int]] = []
        pair = fastpath._parametric_search(prefix_sizes, prefix_values, min_count, incumbents)
        assert len(incumbents) == links + 2
        assert incumbents[-1] == pair
        # Every round is a strict improvement by exact cross product.
        for (a0, e0), (a1, e1) in zip(incumbents, incumbents[1:]):
            old = (int(prefix_values[e0] - prefix_values[a0]), int(prefix_sizes[e0] - prefix_sizes[a0]))
            new = (int(prefix_values[e1] - prefix_values[a1]), int(prefix_sizes[e1] - prefix_sizes[a1]))
            assert new[0] * old[1] > old[0] * new[1]
        fast = fast_maximize_ratio(sizes, values, min_count)
        assert selection_key(fast) == selection_key(
            maximize_ratio_reference(sizes, values, min_count)
        )
        assert selection_key(fast) == selection_key(
            naive_maximize_ratio(sizes, values, min_count)
        )


class TestEngineChoice:
    def test_integral_profiles_take_the_parametric_search(self, monkeypatch) -> None:
        def no_sweep(*args):
            raise AssertionError("integral profile fell back to the hull sweep")

        monkeypatch.setattr(fastpath, "_hull_sweep", no_sweep)
        sizes, values = _catalog_profile(np.random.default_rng(9), 1000, "binomial")
        assert fast_maximize_ratio(sizes, values, 0.1 * sizes.sum()) is not None

    def test_float_average_profile_takes_the_sweep(self, monkeypatch) -> None:
        # §5 average sums of a real attribute: non-integral values.
        rng = np.random.default_rng(13)
        sizes = rng.integers(50, 150, size=1000)
        values = rng.normal(0.0, 1.0, size=1000) * sizes + 0.1
        expected = maximize_ratio_reference(sizes, values, 0.1 * sizes.sum())

        def no_search(*args):
            raise AssertionError("float profile took the parametric search")

        monkeypatch.setattr(fastpath, "_parametric_search", no_search)
        with warnings.catch_warnings():
            warnings.simplefilter("error", HullInvariantWarning)
            fast = fast_maximize_ratio(sizes, values, 0.1 * sizes.sum())
        assert selection_key(fast) == selection_key(expected)

    def test_counts_beyond_the_envelope_take_the_sweep(self, monkeypatch) -> None:
        sizes = np.array([2.0**40, 3.0, 2.0**40, 5.0])
        values = np.array([2.0**12, 3.0, 2.0**13, 1.0])
        prefix_sizes, prefix_values = _prefix(sizes), _prefix(values)
        assert not fastpath._within_exact_envelope(sizes, values, prefix_sizes, prefix_values)
        expected = maximize_ratio_reference(sizes, values, 4.0)

        def no_search(*args):
            raise AssertionError("oversized profile took the parametric search")

        monkeypatch.setattr(fastpath, "_parametric_search", no_search)
        assert selection_key(fast_maximize_ratio(sizes, values, 4.0)) == selection_key(expected)
