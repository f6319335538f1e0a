"""Array-native fast-path solvers (the default mining engine).

The object-based implementations in :mod:`repro.core.optimized_confidence`
and :mod:`repro.core.optimized_support` follow the paper line by line: the
confidence sweep allocates a :class:`~repro.geometry.point.Point` per prefix
point and walks the suffix hulls through Python objects, and the support
solver runs two Python-level passes.  That is ideal as a readable reference,
but the §1.3 catalog workload ("all combinations of hundreds of numeric and
Boolean attributes") calls the solvers thousands of times per relation, so
this module re-implements both with numpy:

* :func:`fast_maximize_ratio` answers integral profiles — every confidence
  or support profile built from a relation — with an exact parametric
  search (Dinkelbach's fractional-programming iteration, Management Science
  1967).  Holding the best ratio so far as an exact pair ``num/den``, one
  round is a handful of whole-array operations: the table
  ``G = V*den - P*num`` over the prefix points, its running minimum, and
  the best gain of every end against its farthest ample anchor.  A positive
  gain names a strictly better range; two or three rounds settle a
  thousand-bucket catalog profile.  Profiles outside the exactness envelope
  below (float §5 average sums, huge counts) take the structure-of-arrays
  convex-hull-tree sweep of Algorithm 4.2 instead, which allocates no
  ``Point`` and calls no function inside the sweep.  The choice depends on
  the input only.
* :func:`fast_maximize_support` replaces both passes of Algorithms 4.3/4.4
  with closed-form numpy reductions: the effective indices fall out of a
  running minimum of the cumulative gain table, and every ``top(s)`` pointer
  is answered by one vectorized binary search against the suffix running
  maximum of that table.

Parity guarantee
----------------
Every result is *bit-identical* to the reference implementations, including
tie-breaking (larger tuple count, then smaller start), wherever the
arithmetic is exact:

* the parametric search runs only inside its envelope — integral sizes and
  values with ``4 * max|V| * P[M] <= 2**53`` for the prefix sums ``P``/``V``
  — where every product and difference it forms is an integer float64
  represents exactly, so its answers are exact by construction;
* the hull sweep and :func:`fast_maximize_support` evaluate the same
  floating-point comparisons as the reference implementations (identical
  operand ordering in the cross products and cumulative-sum tables), so they
  agree whenever those products are exact — in particular on integer tuple
  counts below 2**53.

The oracle tests in ``tests/core/test_fastpath.py`` and
``tests/core/test_fastpath_scale.py`` enforce this.

The hull sweep keeps the defensive invariant check of the reference sweep:
if the remembered stack position of the previous terminating point ever
disagrees with the hull stack, a :class:`repro.exceptions.HullInvariantWarning`
is emitted and the scan restarts from the hull's left end.  The parametric
search keeps no hull, so it never warns.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from repro.core.rules import RangeSelection
from repro.core.validation import validate_bucket_arrays, validate_threshold
from repro.exceptions import HullInvariantWarning, ProfileError
from repro.kernels import load_compiled, resolve_kernel_tier

__all__ = [
    "fast_maximize_ratio",
    "fast_maximize_support",
    "fast_maximize_ratio_many",
    "fast_maximize_support_many",
    "fast_effective_indices",
]

# Upper bound on the number of elements of the per-chunk pair tensors built
# by the stacked batch solvers.  Deliberately small (~0.8 MB of float64 per
# temporary): the batched reductions stream a dozen same-shaped temporaries
# per chunk, so keeping a chunk's working set inside the L2/L3 cache is worth
# more than amortizing the Python-level chunk loop — measured ~1.4-1.8x on
# the rectangle band workloads versus 8e6-element chunks.
_PAIR_TENSOR_ELEMENTS = 100_000

# Integers up to this magnitude are exactly representable in float64.
_EXACT_INTEGER_LIMIT = 2.0**53


def fast_maximize_ratio(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_support_count: float,
    total: float | None = None,
) -> RangeSelection | None:
    """Array-native optimized-confidence solver (Definition 4.2).

    Same contract as :func:`repro.core.optimized_confidence.maximize_ratio`:
    among ranges of consecutive buckets whose tuple count reaches
    ``min_support_count``, return the one maximizing ``Σv / Σu`` (ties broken
    towards the larger tuple count, then the smaller start), or ``None`` when
    no range is ample.  Inside the exactness envelope the answer comes from
    :func:`_parametric_search`; outside it, from :func:`_hull_sweep`.
    """
    sizes, values = validate_bucket_arrays(sizes, values)
    total = float(sizes.sum()) if total is None else float(total)
    min_support_count = max(float(min_support_count), 0.0)

    prefix_sizes = np.concatenate(([0.0], np.cumsum(sizes)))
    prefix_values = np.concatenate(([0.0], np.cumsum(values)))
    if prefix_sizes[-1] < min_support_count:
        return None

    if _within_exact_envelope(sizes, values, prefix_sizes, prefix_values):
        pair = _parametric_search(prefix_sizes, prefix_values, min_support_count)
    else:
        pair = _hull_sweep(prefix_sizes, prefix_values, min_support_count)
    if pair is None:
        return None
    best_anchor, best_end = pair
    return RangeSelection(
        start=best_anchor,
        end=best_end - 1,
        support_count=float(prefix_sizes[best_end] - prefix_sizes[best_anchor]),
        objective_value=float(prefix_values[best_end] - prefix_values[best_anchor]),
        total_count=total,
    )


def _within_exact_envelope(
    sizes: np.ndarray,
    values: np.ndarray,
    prefix_sizes: np.ndarray,
    prefix_values: np.ndarray,
) -> bool:
    """Whether every step of :func:`_parametric_search` is exact in float64.

    Sizes and values must be integral, and ``4 * max|V| * P[M]`` must not
    exceed ``2**53``: every quantity the search forms (``V*den``, ``P*num``,
    their difference ``G`` and a difference of two ``G`` values) is then an
    integer of magnitude at most ``2**53``, hence exactly representable.
    """
    if not (np.array_equal(sizes, np.rint(sizes)) and np.array_equal(values, np.rint(values))):
        return False
    value_bound = max(float(np.max(np.abs(prefix_values))), 1.0)
    return 4.0 * value_bound * float(prefix_sizes[-1]) <= _EXACT_INTEGER_LIMIT


def _parametric_search(
    prefix_sizes: np.ndarray,
    prefix_values: np.ndarray,
    min_support_count: float,
    incumbents: list[tuple[int, int]] | None = None,
) -> tuple[int, int]:
    """Exact Dinkelbach search for the optimal slope pair ``(anchor, end)``.

    With the incumbent ratio held as the exact pair ``num/den``, the table
    ``G = V*den - P*num`` turns the ratio test of a pair into a difference:
    ``G[n] - G[m] > 0`` exactly when range ``m+1..n`` beats the incumbent.
    The best partner of end ``n`` is the minimum of ``G`` over its ample
    anchors ``0..a(n)`` — one running minimum for all ends at once — and
    the pair of largest gain becomes the next incumbent.  The ratio strictly
    increases every round, so the loop terminates; at its fixed point the
    zero-gain pairs are exactly the optimal-ratio pairs.

    Requires :func:`_within_exact_envelope` and an ample range
    (``P[M] >= min_support_count``).  ``incumbents``, when given, receives
    every incumbent pair in order (the seed first), so tests can observe
    the rounds.
    """
    num_buckets = prefix_sizes.shape[0] - 1
    # P is integral, so P[n] - P[m] >= s exactly when P[n] - P[m] >= ceil(s);
    # requiring at least one tuple also forces m < n.  P[n] - required is an
    # exact integer, so one binary search yields every farthest ample anchor
    # a(n) without rounding.  a(n) is non-decreasing in n, so the ends that
    # have one form the suffix first_end..M.
    required = float(max(math.ceil(min_support_count), 1))
    first_end = int(np.searchsorted(prefix_sizes, required, side="left"))
    anchors = (
        np.searchsorted(prefix_sizes, prefix_sizes[first_end:] - required, side="right") - 1
    )
    last_anchor = int(anchors[-1])

    # Seed with the best minimal ample window (a(n), n); any ample pair
    # would do, a good one saves rounds.
    window_ratios = (prefix_values[first_end:] - prefix_values[anchors]) / (
        prefix_sizes[first_end:] - prefix_sizes[anchors]
    )
    seed = int(np.argmax(window_ratios))
    anchor, end = int(anchors[seed]), first_end + seed
    num = prefix_values[end] - prefix_values[anchor]
    den = prefix_sizes[end] - prefix_sizes[anchor]
    if incumbents is not None:
        incumbents.append((anchor, end))

    while True:
        table = prefix_values * den - prefix_sizes * num
        running_minimum = np.minimum.accumulate(table[: last_anchor + 1])
        gains = table[first_end:] - running_minimum[anchors]
        winner = int(np.argmax(gains))
        if gains[winner] <= 0:
            break
        end = first_end + winner
        anchor = int(np.argmin(table[: int(anchors[winner]) + 1]))
        candidate_num = prefix_values[end] - prefix_values[anchor]
        candidate_den = prefix_sizes[end] - prefix_sizes[anchor]
        # Accept only a strictly better ratio by exact cross product: the
        # guard that makes the loop terminate.
        if candidate_num * den - num * candidate_den <= 0:
            break
        num, den = candidate_num, candidate_den
        if incumbents is not None:
            incumbents.append((anchor, end))

    # Fixed point: the optimal pairs are the zero-gain ends.  Per end the
    # largest count comes from the first index attaining the running
    # minimum; across ends the largest count wins, then the smaller start.
    records = np.empty(last_anchor + 1, dtype=bool)
    records[0] = True
    records[1:] = table[1 : last_anchor + 1] < running_minimum[:-1]
    first_minimum = np.maximum.accumulate(
        np.where(records, np.arange(last_anchor + 1), 0)
    )
    optimal = np.flatnonzero(gains == 0)
    optimal_ends = first_end + optimal
    optimal_anchors = first_minimum[anchors[optimal]]
    counts = prefix_sizes[optimal_ends] - prefix_sizes[optimal_anchors]
    widest = counts == counts.max()
    winner = int(np.argmin(np.where(widest, optimal_anchors, num_buckets)))
    return int(optimal_anchors[winner]), int(optimal_ends[winner])


def _hull_sweep(
    prefix_sizes: np.ndarray, prefix_values: np.ndarray, min_support_count: float
) -> tuple[int, int] | None:
    """Structure-of-arrays convex-hull-tree sweep of Algorithm 4.2.

    The fallback for profiles outside the parametric search's exactness
    envelope (float §5 average sums, huge counts).  It evaluates the same
    floating-point comparisons as the object-based reference, operand for
    operand, so the two agree bit for bit wherever those products are exact.
    Returns the optimal ``(anchor, end)`` prefix-index pair, or ``None``.
    """
    # Structure-of-arrays representation of the cumulative points Q_0..Q_M.
    # Plain lists make scalar indexing ~5x faster than numpy item access.
    x = prefix_sizes.tolist()
    y = prefix_values.tolist()
    num_points = len(x)
    num_buckets = num_points - 1

    # -- preparatory phase (Algorithm 4.1): right-to-left hull scan ---------
    # Vertices popped when Q_i is inserted form the branch D_i; every point
    # enters exactly one branch, so a flat arena of size num_points suffices.
    stack: list[int] = [num_points - 1]
    branch_data = [0] * num_points
    branch_start = [0] * num_points
    branch_len = [0] * num_points
    arena_top = 0
    for index in range(num_points - 2, -1, -1):
        qx = x[index]
        qy = y[index]
        begin = arena_top
        while len(stack) >= 2:
            top = stack[-1]
            below = stack[-2]
            # compare_slopes(Q_index, Q_top, Q_below) <= 0, expanded to the
            # cross product cross(Q_index, Q_below, Q_top) <= 0.
            if (x[below] - qx) * (y[top] - qy) - (y[below] - qy) * (x[top] - qx) <= 0:
                branch_data[arena_top] = stack.pop()
                arena_top += 1
            else:
                break
        branch_start[index] = begin
        branch_len[index] = arena_top - begin
        stack.append(index)

    # -- restoration phase + tangent sweep (Algorithm 4.2) ------------------
    start = 0  # the stack currently holds the upper hull U_start
    best_anchor = -1
    best_end = -1
    tangent_anchor = -1
    tangent_end = -1
    tangent_position = -1

    for anchor in range(num_buckets):
        # Advance the suffix hull until the range (anchor+1 .. start) is ample.
        anchor_x = x[anchor]
        advanced_past_end = False
        while start <= anchor or x[start] - anchor_x < min_support_count:
            if start >= num_buckets:
                advanced_past_end = True
                break
            stack.pop()
            begin = branch_start[start]
            for position in range(begin + branch_len[start] - 1, begin - 1, -1):
                stack.append(branch_data[position])
            start += 1
        if advanced_past_end:
            # Even the full remaining suffix is not ample; larger anchors
            # only shrink the suffix, so the sweep is over.
            break

        qx = x[anchor]
        qy = y[anchor]

        if tangent_anchor < 0:
            scan_clockwise = True
            resume_position = -1
        else:
            ax = x[tangent_anchor]
            ay = y[tangent_anchor]
            tx = x[tangent_end]
            ty = y[tangent_end]
            # point_above_line(query, anchor, end): cross(anchor, end, query) >= 0.
            if (tx - ax) * (qy - ay) - (ty - ay) * (qx - ax) >= 0:
                # The tangent from this anchor cannot beat the previous one.
                continue
            if tangent_end < start:
                scan_clockwise = True
                resume_position = -1
            else:
                resume_position = tangent_position
                if (
                    resume_position < 0
                    or resume_position >= len(stack)
                    or stack[resume_position] != tangent_end
                ):
                    warnings.warn(
                        "suffix-hull stack position invariant violated at anchor "
                        f"{anchor} (expected point {tangent_end} at position "
                        f"{resume_position}); falling back to a clockwise rescan",
                        HullInvariantWarning,
                        stacklevel=3,
                    )
                    scan_clockwise = True
                    resume_position = -1
                else:
                    scan_clockwise = False

        if scan_clockwise:
            # Scan from the hull's left end towards larger x while the slope
            # from the query keeps improving (ties advance the scan).
            best_position = len(stack) - 1
            bx = x[stack[best_position]]
            by = y[stack[best_position]]
            position = best_position - 1
            while position >= 0:
                candidate = stack[position]
                if (bx - qx) * (y[candidate] - qy) - (by - qy) * (x[candidate] - qx) >= 0:
                    best_position = position
                    bx = x[candidate]
                    by = y[candidate]
                    position -= 1
                else:
                    break
        else:
            # Resume at the previous terminating point and walk towards
            # smaller x while the slope strictly improves.
            best_position = resume_position
            bx = x[stack[best_position]]
            by = y[stack[best_position]]
            position = best_position + 1
            stack_size = len(stack)
            while position < stack_size:
                candidate = stack[position]
                if (bx - qx) * (y[candidate] - qy) - (by - qy) * (x[candidate] - qx) > 0:
                    best_position = position
                    bx = x[candidate]
                    by = y[candidate]
                    position += 1
                else:
                    break

        tangent_anchor = anchor
        tangent_end = stack[best_position]
        tangent_position = best_position

        if best_anchor < 0:
            best_anchor = anchor
            best_end = tangent_end
        else:
            # _beats: strictly better (slope, width) lexicographic key.
            left = (y[tangent_end] - qy) * (x[best_end] - x[best_anchor])
            right = (y[best_end] - y[best_anchor]) * (x[tangent_end] - qx)
            if left > right or (
                left == right
                and x[tangent_end] - qx > x[best_end] - x[best_anchor]
            ):
                best_anchor = anchor
                best_end = tangent_end

    if best_anchor < 0:
        return None
    return best_anchor, best_end


def _effective_starts(cumulative_gain: np.ndarray, num_buckets: int) -> np.ndarray:
    """Effective starting indices from the cumulative gain table ``F``.

    ``s > 0`` is effective when the maximal gain of a range ending at
    ``s - 1`` is negative; that maximal gain is ``F[s] - min(F[0..s-1])``,
    so the whole test collapses to one running minimum.  Index 0 is always
    effective.
    """
    if num_buckets == 1:
        return np.zeros(1, dtype=np.int64)
    running_minimum = np.minimum.accumulate(cumulative_gain[:-1])
    effective = np.empty(num_buckets, dtype=bool)
    effective[0] = True
    effective[1:] = (
        cumulative_gain[1:num_buckets] < running_minimum[: num_buckets - 1]
    )
    return np.flatnonzero(effective)


def fast_effective_indices(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_ratio: float,
) -> np.ndarray:
    """Vectorized Algorithm 4.3: effective starting indices as an int array."""
    sizes, values = validate_bucket_arrays(sizes, values)
    min_ratio = validate_threshold("min_ratio", min_ratio)
    gains = values - min_ratio * sizes
    cumulative = np.concatenate(([0.0], np.cumsum(gains)))
    return _effective_starts(cumulative, sizes.shape[0])


def fast_maximize_support(
    sizes: Sequence[float] | np.ndarray,
    values: Sequence[float] | np.ndarray,
    min_ratio: float,
    total: float | None = None,
) -> RangeSelection | None:
    """Vectorized optimized-support solver (Algorithms 4.3 and 4.4).

    Same contract as :func:`repro.core.optimized_support.maximize_support`:
    the confident range (``Σv / Σu ≥ min_ratio``) with maximal tuple count,
    ties broken towards the smaller starting index, or ``None``.

    The backward sweep is replaced by a batched binary search: with
    ``H[k] = max(F[k..M])`` (suffix running maximum of the cumulative gain
    table), the largest ``k ≥ s+1`` with ``F[k] ≥ F[s]`` is also the largest
    ``k`` with ``H[k] ≥ F[s]`` — if ``H[k+1] < F[s]`` then no later prefix
    qualifies, and ``H[k] ≥ F[s] > H[k+1]`` forces ``H[k] = F[k]``.  Since
    ``H`` is non-increasing, that ``k`` is one ``searchsorted`` per
    effective index, all answered in a single vectorized call.
    """
    sizes, values = validate_bucket_arrays(sizes, values)
    min_ratio = validate_threshold("min_ratio", min_ratio)
    num_buckets = sizes.shape[0]
    total = float(sizes.sum()) if total is None else float(total)

    gains = values - min_ratio * sizes
    cumulative_gain = np.concatenate(([0.0], np.cumsum(gains)))
    prefix_sizes = np.concatenate(([0.0], np.cumsum(sizes)))
    prefix_values = np.concatenate(([0.0], np.cumsum(values)))

    starts = _effective_starts(cumulative_gain, num_buckets)

    # H[k] = max(F[k..M]); reversed it is non-decreasing, so searchsorted
    # finds the first reversed position whose suffix maximum reaches F[s].
    suffix_maximum = np.maximum.accumulate(cumulative_gain[::-1])[::-1]
    last_index = cumulative_gain.shape[0] - 1  # == num_buckets
    reversed_positions = np.searchsorted(
        suffix_maximum[::-1], cumulative_gain[starts], side="left"
    )
    ends = last_index - reversed_positions  # largest k with F[k] >= F[s]
    valid = ends >= starts + 1
    if not np.any(valid):
        return None

    valid_starts = starts[valid]
    valid_ends = ends[valid]
    counts = prefix_sizes[valid_ends] - prefix_sizes[valid_starts]
    # argmax returns the first maximum; starts are ascending, so ties break
    # towards the smaller starting index exactly as the reference does.
    winner = int(np.argmax(counts))
    best_start = int(valid_starts[winner])
    best_end = int(valid_ends[winner]) - 1
    return RangeSelection(
        start=best_start,
        end=best_end,
        support_count=float(prefix_sizes[best_end + 1] - prefix_sizes[best_start]),
        objective_value=float(prefix_values[best_end + 1] - prefix_values[best_start]),
        total_count=total,
    )


# -- stacked batch entry points ----------------------------------------------
#
# The rectangle search of the §1.4 extension collapses every pair of grid
# rows into one column-count row and solves each row independently — R(R+1)/2
# one-dimensional problems over the *same* number of columns.  Calling the
# scalar solvers in a Python loop makes the per-call overhead (validation,
# prefix sums, sweep setup) dominate, so the entry points below accept a whole
# (num_rows, num_buckets) stack at once and answer every row from shared 2-D
# numpy reductions.
#
# Stacked rows may contain empty buckets (``u_i == 0``) — a row band of a
# sparse grid usually does.  Empty buckets are *ignored*: each row behaves
# exactly as if its zero-size buckets were compacted away, the scalar solver
# run on the compacted arrays, and the winning indices mapped back to the
# full row (``start``/``end`` always point at non-empty buckets).  On
# integer-count profiles the returned selections are bit-identical to that
# per-row procedure — zero buckets contribute exactly 0.0 to every prefix
# sum, and distinct count ratios with denominators below ~1e7 never collide
# after float64 division (their gap is at least 1/total², far above one ulp),
# the same envelope as the scalar solvers' exact-product guarantee.
#
# Complexity trade-off: the batched answers come from O(M²)-per-row pair (or
# broadcast) matrices, whereas the scalar solvers are O(M) sweeps.  The
# stacked form wins when *many* rows share a small-to-moderate M (hundreds
# of grid bands of a few dozen columns each: one vectorized call replaces
# hundreds of Python-level sweeps).  For a handful of rows with thousands of
# buckets — the §1.3 catalog shape — call the scalar solvers per profile
# instead; that regime is theirs.


def _validate_stacked_arrays(
    sizes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stacked (num_rows, num_buckets) profile matrix pair."""
    sizes = np.asarray(sizes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if sizes.ndim != 2 or values.ndim != 2:
        raise ProfileError("stacked bucket arrays must be two-dimensional")
    if sizes.shape != values.shape:
        raise ProfileError(
            f"stacked bucket arrays must have equal shapes, got {sizes.shape} "
            f"sizes and {values.shape} values"
        )
    if sizes.shape[1] == 0:
        raise ProfileError("at least one bucket is required")
    if not np.all(np.isfinite(sizes)) or not np.all(np.isfinite(values)):
        raise ProfileError("stacked bucket arrays must be finite")
    if np.any(sizes < 0):
        raise ProfileError("stacked bucket sizes must be non-negative")
    return sizes, values


def _stacked_totals(sizes: np.ndarray, total) -> np.ndarray:
    """Per-row totals: explicit (scalar or per-row) or the row sums."""
    if total is None:
        return sizes.sum(axis=1)
    return np.broadcast_to(
        np.asarray(total, dtype=np.float64), (sizes.shape[0],)
    )


def _kept_neighbors(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per position: the nearest non-empty bucket at-or-after / at-or-before.

    ``next_kept[r, i]`` is the smallest ``j >= i`` with ``sizes[r, j] > 0``
    (``num_buckets`` when none) and ``previous_kept[r, i]`` the largest
    ``j <= i`` (``-1`` when none).  Both solvers snap winning indices onto
    non-empty buckets with these — one shared definition so the two engines
    can never drift apart.
    """
    num_buckets = sizes.shape[1]
    positions = np.arange(num_buckets)
    next_kept = np.minimum.accumulate(
        np.where(sizes > 0, positions, num_buckets)[:, ::-1], axis=1
    )[:, ::-1]
    previous_kept = np.maximum.accumulate(
        np.where(sizes > 0, positions, -1), axis=1
    )
    return next_kept, previous_kept


def fast_maximize_ratio_many(
    sizes: np.ndarray,
    values: np.ndarray,
    min_support_count: float | np.ndarray,
    total: float | np.ndarray | None = None,
    kernel_tier: str | None = None,
) -> list[RangeSelection | None]:
    """Solve :func:`fast_maximize_ratio` for every row of a stacked profile.

    Parameters
    ----------
    sizes / values:
        ``(num_rows, num_buckets)`` matrices; each row is one independent
        profile.  Zero-size buckets are allowed and ignored (see above).
    min_support_count:
        Scalar or per-row minimum tuple count.
    total:
        Scalar or per-row total; defaults to each row's own ``Σ u_i``.
    kernel_tier:
        ``"auto"``/``"numpy"``/``"compiled"`` (default: the
        ``REPRO_KERNEL_TIER`` environment variable, then ``"auto"``).  The
        compiled tier runs the same pair sweep as one Numba loop per row,
        bit-identical including tie-breaking.

    Returns
    -------
    list[RangeSelection | None]
        One selection per row (``None`` where no range is ample), with
        ``start``/``end`` indexing the *full* row and always pointing at
        non-empty buckets.

    All rows are answered from chunked ``(rows, pairs)`` matrices over the
    flattened upper triangle of (start, end) index pairs — no per-row
    Python-level solver call — with the scalar solvers' exact tie-breaking:
    maximal ratio, then maximal tuple count, then the smallest starting
    index.  That is O(M²) work per row (memory stays bounded by chunking),
    against the scalar sweep's O(M): use this for many rows of moderate
    width, and :func:`fast_maximize_ratio` per profile for few wide ones
    (see the section comment above).
    """
    sizes, values = _validate_stacked_arrays(sizes, values)
    num_rows, num_buckets = sizes.shape
    totals = _stacked_totals(sizes, total)
    min_counts = np.broadcast_to(
        np.maximum(np.asarray(min_support_count, dtype=np.float64), 0.0),
        (num_rows,),
    )

    if resolve_kernel_tier(kernel_tier) == "compiled":
        kernels = load_compiled()
        raw_starts, raw_ends, counts, objectives = kernels.maximize_ratio_many(
            np.ascontiguousarray(sizes),
            np.ascontiguousarray(values),
            np.ascontiguousarray(min_counts),
        )
        next_kept, previous_kept = _kept_neighbors(sizes)
        compiled_results: list[RangeSelection | None] = [None] * num_rows
        for row in np.flatnonzero(raw_starts >= 0):
            compiled_results[int(row)] = RangeSelection(
                start=int(next_kept[row, raw_starts[row]]),
                end=int(previous_kept[row, raw_ends[row]]),
                support_count=float(counts[row]),
                objective_value=float(objectives[row]),
                total_count=float(totals[row]),
            )
        return compiled_results

    prefix_sizes = np.concatenate(
        (np.zeros((num_rows, 1)), np.cumsum(sizes, axis=1)), axis=1
    )
    prefix_values = np.concatenate(
        (np.zeros((num_rows, 1)), np.cumsum(values, axis=1)), axis=1
    )
    # Flat (start, end) pairs in row-major upper-triangle order: argmax over
    # the pair axis then breaks remaining ties towards the smallest start.
    start_index, end_index = np.triu_indices(num_buckets)
    num_pairs = start_index.shape[0]

    # Pairs whose endpoints sit on zero buckets are *not* masked out of the
    # pair matrix: extending a range across zero buckets changes no prefix
    # sum, so such a pair carries the bit-identical (ratio, count) key of
    # its trimmed canonical pair, and in row-major order the canonical
    # winner's variant family still surfaces first.  The winner's indices
    # are snapped onto non-empty buckets afterwards — two O(M) running
    # scans instead of two fancy-gathered masks over every pair.
    next_kept, previous_kept = _kept_neighbors(sizes)

    results: list[RangeSelection | None] = [None] * num_rows
    chunk_rows = max(1, _PAIR_TENSOR_ELEMENTS // num_pairs)
    for begin in range(0, num_rows, chunk_rows):
        stop = min(begin + chunk_rows, num_rows)
        block = slice(begin, stop)
        # u[r, p] / v[r, p]: totals of the inclusive bucket range of pair p.
        u = prefix_sizes[block, end_index + 1] - prefix_sizes[block, start_index]
        v = prefix_values[block, end_index + 1] - prefix_values[block, start_index]
        # Ample and non-degenerate: at least one tuple in the range (so a
        # non-empty bucket exists to snap the winner onto).  An explicit
        # positivity pass is only needed when the ample test cannot imply it.
        valid = u >= min_counts[block, None]
        if np.min(min_counts[block]) <= 0:
            valid &= u > 0
        ratio = np.full_like(u, -np.inf)
        np.divide(v, u, out=ratio, where=valid)
        best_ratio = ratio.max(axis=1)
        feasible = np.isfinite(best_ratio)
        if not np.any(feasible):
            continue
        # Tie-breaking in canonical order: among the ratio maxima take the
        # largest tuple count, then the first (= smallest-start) pair —
        # exactly the scalar solvers' lexicographic key.
        tied = ratio == best_ratio[:, None]
        best_count = np.maximum.reduce(u, axis=1, where=tied, initial=-np.inf)
        tied &= u == best_count[:, None]
        winners = np.argmax(tied, axis=1)
        for offset in np.flatnonzero(feasible):
            row = begin + int(offset)
            pair = int(winners[offset])
            results[row] = RangeSelection(
                start=int(next_kept[row, start_index[pair]]),
                end=int(previous_kept[row, end_index[pair]]),
                support_count=float(u[offset, pair]),
                objective_value=float(v[offset, pair]),
                total_count=float(totals[row]),
            )
    return results


def fast_maximize_support_many(
    sizes: np.ndarray,
    values: np.ndarray,
    min_ratio: float,
    total: float | np.ndarray | None = None,
    kernel_tier: str | None = None,
) -> list[RangeSelection | None]:
    """Solve :func:`fast_maximize_support` for every row of a stacked profile.

    Same stacked contract as :func:`fast_maximize_ratio_many`: rows are
    independent profiles, zero-size buckets are ignored, and the returned
    ``start``/``end`` index the full row at non-empty buckets.  The scalar
    solver's cumulative-gain machinery runs as whole-matrix reductions: one
    2-D cumulative sum for the gain table ``F``, one reversed running maximum
    for the suffix table ``H``, and every row's ``top(s)`` pointers answered
    by a chunked broadcast comparison (the batched equivalent of one
    ``searchsorted`` per row, with identical float comparisons).  The
    broadcast is O(M²) work per row (memory bounded by chunking) against
    the scalar solver's O(M log M) — the same many-rows-of-moderate-width
    regime as :func:`fast_maximize_ratio_many` (see the section comment
    above).
    """
    sizes, values = _validate_stacked_arrays(sizes, values)
    min_ratio = float(min_ratio)
    if not np.isfinite(min_ratio):
        raise ProfileError(f"min_ratio must be finite, got {min_ratio}")
    num_rows, num_buckets = sizes.shape
    totals = _stacked_totals(sizes, total)

    if resolve_kernel_tier(kernel_tier) == "compiled":
        kernels = load_compiled()
        raw_starts, end_pointers = kernels.maximize_support_many(
            np.ascontiguousarray(sizes),
            np.ascontiguousarray(values),
            min_ratio,
        )
        compiled_prefix_sizes = np.concatenate(
            (np.zeros((num_rows, 1)), np.cumsum(sizes, axis=1)), axis=1
        )
        compiled_prefix_values = np.concatenate(
            (np.zeros((num_rows, 1)), np.cumsum(values, axis=1)), axis=1
        )
        next_kept, previous_kept = _kept_neighbors(sizes)
        compiled_results: list[RangeSelection | None] = [None] * num_rows
        for row in np.flatnonzero(raw_starts >= 0):
            start = int(next_kept[row, raw_starts[row]])
            end = int(previous_kept[row, end_pointers[row] - 1])
            compiled_results[int(row)] = RangeSelection(
                start=start,
                end=end,
                support_count=float(
                    compiled_prefix_sizes[row, end + 1]
                    - compiled_prefix_sizes[row, start]
                ),
                objective_value=float(
                    compiled_prefix_values[row, end + 1]
                    - compiled_prefix_values[row, start]
                ),
                total_count=float(totals[row]),
            )
        return compiled_results

    gains = values - min_ratio * sizes
    cumulative_gain = np.concatenate(
        (np.zeros((num_rows, 1)), np.cumsum(gains, axis=1)), axis=1
    )
    prefix_sizes = np.concatenate(
        (np.zeros((num_rows, 1)), np.cumsum(sizes, axis=1)), axis=1
    )
    prefix_values = np.concatenate(
        (np.zeros((num_rows, 1)), np.cumsum(values, axis=1)), axis=1
    )

    # H[k] = max(F[k..M]); reversed it is non-decreasing, so the largest k
    # with F[k] >= F[s] is M minus the count of reversed entries below F[s]
    # (exactly searchsorted side="left", batched across rows).
    suffix_maximum = np.maximum.accumulate(
        cumulative_gain[:, ::-1], axis=1
    )[:, ::-1]
    reversed_suffix = suffix_maximum[:, ::-1]
    ends = np.empty((num_rows, num_buckets), dtype=np.int64)
    chunk_rows = max(1, _PAIR_TENSOR_ELEMENTS // (num_buckets * (num_buckets + 1)))
    for begin in range(0, num_rows, chunk_rows):
        stop = min(begin + chunk_rows, num_rows)
        block = slice(begin, stop)
        below = (
            reversed_suffix[block, None, :]
            < cumulative_gain[block, :num_buckets, None]
        )
        ends[block] = num_buckets - below.sum(axis=2)

    starts = np.arange(num_buckets)
    counts = np.take_along_axis(
        prefix_sizes, np.maximum(ends, 0), axis=1
    ) - prefix_sizes[:, :num_buckets]
    # A range must span at least one prefix step *and* contain at least one
    # non-empty bucket (a positive count); ranges made purely of zero buckets
    # are artifacts of the uncompacted representation.
    valid = (ends >= starts[None, :] + 1) & (counts > 0)
    best_count = np.where(valid, counts, -np.inf).max(axis=1)
    winners = np.argmax(valid & (counts == best_count[:, None]), axis=1)

    # Snap the winning range onto non-empty buckets: zero buckets contribute
    # nothing to F or the prefix sums, so moving the start forward to the
    # next non-empty bucket and the end back to the previous one changes no
    # accumulated quantity — it only canonicalizes the reported indices to
    # the compacted-row answer.
    next_kept, previous_kept = _kept_neighbors(sizes)

    results: list[RangeSelection | None] = [None] * num_rows
    for row in np.flatnonzero(np.isfinite(best_count)):
        raw_start = int(winners[row])
        raw_end = int(ends[row, raw_start]) - 1
        start = int(next_kept[row, raw_start])
        end = int(previous_kept[row, raw_end])
        results[int(row)] = RangeSelection(
            start=start,
            end=end,
            support_count=float(
                prefix_sizes[row, end + 1] - prefix_sizes[row, start]
            ),
            objective_value=float(
                prefix_values[row, end + 1] - prefix_values[row, start]
            ),
            total_count=float(totals[row]),
        )
    return results
