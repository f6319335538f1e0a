"""Linear-time optimized-confidence solver (Algorithm 4.2).

Problem (Definition 4.2): given per-bucket tuple counts ``u_1..u_M`` and
objective values ``v_1..v_M``, find the pair ``m < n`` such that the range of
buckets ``m+1 .. n`` is *ample* (its tuple count reaches the minimum support)
and the slope of the segment ``Q_m Q_n`` between the cumulative points
``Q_k = (Σ_{i<=k} u_i, Σ_{i<=k} v_i)`` is maximal.  That slope equals the
confidence (or, for the §5 average operator, the average) of the range, so
the optimal slope pair yields the optimized-confidence rule.

The algorithm sweeps ``m`` from left to right while maintaining the upper
hull of the remaining suffix ``{Q_{r(m)}, ..., Q_M}`` with the convex-hull
tree of Algorithm 4.1 (``r(m)`` is the first index making the range ample).
For each ``m`` the best partner ``n`` is the terminating point of the tangent
from ``Q_m`` to that hull.  Three ingredients keep the total work linear:

* the hull maintenance pushes/pops every point O(1) times overall;
* a new query point lying on or above the previous tangent line cannot beat
  it, so no search is performed for it;
* when a search is needed it starts either at the hull's left end (and the
  edges it crosses were hidden inside previously scanned hulls) or at the
  previous terminating point (and walks only edges never scanned before), so
  every hull edge is scanned at most once across the whole sweep.

``solve_optimized_confidence`` wraps the index-pair search into the
:class:`~repro.core.rules.RangeSelection` result type shared with the other
solvers.

Two interchangeable engines implement the solver:

* ``engine="fast"`` (the default) — :func:`repro.core.fastpath.fast_maximize_ratio`.
  Integral profiles (every confidence/support profile built from a
  relation) inside its exactness envelope — ``4 * max|V| * P[M] <= 2**53``
  over the prefix sums — are answered by an exact vectorized parametric
  search (Dinkelbach's iteration) rather than this sweep; everything else
  (float §5 average sums, huge counts) falls back to a structure-of-arrays
  port of the sweep below, which allocates no ``Point`` objects;
* ``engine="reference"`` — the object-based implementation below
  (:func:`maximize_ratio_reference`), kept as the readable, paper-faithful
  oracle the fast path is differentially tested against.

Both return bit-identical selections, tie-breaking included, whenever the
arithmetic is exact (integer tuple counts below 2**53 — every profile built
from a relation).  :class:`~repro.exceptions.HullInvariantWarning` comes
only from the sweeps: this reference and the fast engine's fallback.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from repro.core.fastpath import fast_maximize_ratio
from repro.core.profile import BucketProfile
from repro.core.rules import RangeSelection
from repro.core.validation import validate_bucket_arrays, validate_fraction
from repro.exceptions import HullInvariantWarning, NoFeasibleRangeError, OptimizationError
from repro.geometry.convex_hull_tree import SuffixHullMaintainer
from repro.geometry.orientation import compare_slopes, point_above_line
from repro.geometry.point import Point
from repro.geometry.tangent import clockwise_tangent, counterclockwise_tangent

__all__ = [
    "maximize_ratio",
    "maximize_ratio_reference",
    "solve_optimized_confidence",
    "optimized_confidence_from_profile",
]


def maximize_ratio(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_support_count: float,
    total: float | None = None,
    engine: str = "fast",
) -> RangeSelection | None:
    """Find the ample range of consecutive buckets with maximal ``Σv / Σu``.

    Parameters
    ----------
    sizes:
        Per-bucket tuple counts ``u_i`` (all positive).
    values:
        Per-bucket objective values ``v_i`` (tuple counts for confidence
        rules, arbitrary finite reals for average-operator rules).
    min_support_count:
        Minimum tuple count an eligible range must reach ("ample" pairs).
    total:
        Tuple count ``N`` used to express supports; defaults to ``Σ u_i``.
    engine:
        ``"fast"`` (array-native default) or ``"reference"`` (object-based
        oracle); both return identical selections.

    Returns
    -------
    RangeSelection or None
        The optimal range, or ``None`` when no range is ample.  Ties on the
        ratio are broken towards the larger tuple count, as the paper
        specifies for optimal slope pairs.
    """
    if engine == "fast":
        return fast_maximize_ratio(sizes, values, min_support_count, total)
    if engine == "reference":
        return maximize_ratio_reference(sizes, values, min_support_count, total)
    raise OptimizationError(f"unknown solver engine {engine!r}; use 'fast' or 'reference'")


def maximize_ratio_reference(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_support_count: float,
    total: float | None = None,
) -> RangeSelection | None:
    """Object-based reference implementation of :func:`maximize_ratio`."""
    sizes, values = validate_bucket_arrays(sizes, values)
    num_buckets = sizes.shape[0]
    total = float(sizes.sum()) if total is None else float(total)
    min_support_count = float(min_support_count)
    if min_support_count < 0:
        min_support_count = 0.0

    prefix_sizes = np.concatenate(([0.0], np.cumsum(sizes)))
    prefix_values = np.concatenate(([0.0], np.cumsum(values)))
    if prefix_sizes[-1] < min_support_count:
        return None

    points = [
        Point(float(prefix_sizes[k]), float(prefix_values[k]))
        for k in range(num_buckets + 1)
    ]
    maintainer = SuffixHullMaintainer(points)

    best_pair: tuple[int, int] | None = None
    tangent_anchor: int | None = None
    tangent_end: int | None = None
    tangent_stack_position: int | None = None

    for anchor in range(num_buckets):
        # Advance the suffix hull until the range (anchor+1 .. start) is ample.
        advanced_past_end = False
        while (
            maintainer.start <= anchor
            or prefix_sizes[maintainer.start] - prefix_sizes[anchor] < min_support_count
        ):
            if maintainer.start >= num_buckets:
                advanced_past_end = True
                break
            maintainer.advance()
        if advanced_past_end:
            # Even the full remaining suffix is not ample; larger anchors
            # only shrink the suffix, so the sweep is over.
            break

        query = points[anchor]
        stack = maintainer.stack

        if tangent_anchor is None:
            # Base step: nothing known yet, scan the hull from its left end.
            result = clockwise_tangent(points, stack, anchor)
        else:
            anchor_point = points[tangent_anchor]
            end_point = points[tangent_end]
            if point_above_line(query, anchor_point, end_point):
                # The tangent from this anchor cannot exceed the previous
                # tangent's slope; skip it (Figure 6).
                continue
            if tangent_end < maintainer.start:
                # The previous tangent no longer touches the current hull
                # (its terminating point fell off the left side); restart the
                # scan from the hull's left end (Figure 7).
                result = clockwise_tangent(points, stack, anchor)
            else:
                # The previous terminating point is still a hull vertex; its
                # position in the stack is unchanged because restorations only
                # touch the stack above it.  Resume the scan there (Figure 8).
                position = tangent_stack_position
                if position is None or position >= len(stack) or stack[position] != tangent_end:
                    # Defensive fallback; the invariant above should prevent
                    # this.  Warn so the O(M) -> O(M^2) degradation is
                    # observable rather than silent.
                    warnings.warn(
                        "suffix-hull stack position invariant violated at anchor "
                        f"{anchor} (expected point {tangent_end} at position "
                        f"{position}); falling back to a clockwise rescan",
                        HullInvariantWarning,
                        stacklevel=2,
                    )
                    result = clockwise_tangent(points, stack, anchor)
                else:
                    result = counterclockwise_tangent(points, stack, anchor, position)

        tangent_anchor = anchor
        tangent_end = result.point_index
        tangent_stack_position = result.stack_position

        if best_pair is None or _beats(points, (anchor, tangent_end), best_pair):
            best_pair = (anchor, tangent_end)

    if best_pair is None:
        return None
    anchor, end = best_pair
    return RangeSelection(
        start=anchor,
        end=end - 1,
        support_count=float(prefix_sizes[end] - prefix_sizes[anchor]),
        objective_value=float(prefix_values[end] - prefix_values[anchor]),
        total_count=total,
    )


def _beats(points: Sequence[Point], candidate: tuple[int, int], incumbent: tuple[int, int]) -> bool:
    """Whether ``candidate`` (anchor, end) has a strictly better (slope, width) key."""
    candidate_anchor, candidate_end = candidate
    incumbent_anchor, incumbent_end = incumbent
    slope_sign = _compare_segment_slopes(
        points[candidate_anchor],
        points[candidate_end],
        points[incumbent_anchor],
        points[incumbent_end],
    )
    if slope_sign != 0:
        return slope_sign > 0
    candidate_width = points[candidate_end].x - points[candidate_anchor].x
    incumbent_width = points[incumbent_end].x - points[incumbent_anchor].x
    return candidate_width > incumbent_width


def _compare_segment_slopes(a1: Point, a2: Point, b1: Point, b2: Point) -> int:
    """Compare the slopes of segments ``a1a2`` and ``b1b2`` (both left-to-right)."""
    left = (a2.y - a1.y) * (b2.x - b1.x)
    right = (b2.y - b1.y) * (a2.x - a1.x)
    if left > right:
        return 1
    if left < right:
        return -1
    return 0


def solve_optimized_confidence(
    profile: BucketProfile, min_support: float, engine: str = "fast"
) -> RangeSelection | None:
    """Optimized-confidence rule over a :class:`BucketProfile`.

    ``min_support`` is a fraction of ``profile.total``; the returned selection
    is ``None`` when no ample range exists.
    """
    min_support = validate_fraction("min_support", min_support, allow_zero=True)
    return maximize_ratio(
        profile.sizes,
        profile.values,
        min_support_count=min_support * profile.total,
        total=profile.total,
        engine=engine,
    )


def optimized_confidence_from_profile(
    profile: BucketProfile, min_support: float, engine: str = "fast"
) -> RangeSelection:
    """Strict variant of :func:`solve_optimized_confidence`.

    Raises
    ------
    NoFeasibleRangeError
        When no range of consecutive buckets reaches the minimum support.
    """
    selection = solve_optimized_confidence(profile, min_support, engine=engine)
    if selection is None:
        raise NoFeasibleRangeError(
            f"no range of {profile.attribute!r} reaches support {min_support:.1%}"
        )
    return selection
