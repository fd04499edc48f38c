"""Trade-off metrics: individual fairness, group fairness, utility loss and
selection rates for one theta setting, and ``build_report``, which gathers
them into the report as written: a dict with the ``METRICS`` keys,
``selection`` and ``theta``.

Individual fairness is measured as the cross-group strict-inversion rate: the
fraction of cross-group pairs with distinct raw scores whose strict raw-score
order is reversed by the transform. Raw-score ties across groups are excluded
from the pair universe and fair-score ties never count as inversions.

The 1-D metrics are vectorized numpy. What does not depend on the fair
scores is the population's ``raw_order`` (see ``empirical.RawOrder``), built
once per population, so a sweep pays per theta only for what moves:

* ``individual_fairness_error`` returns 0 at once when the fair scores are
  sorted along the raw order (every population at theta 0). Otherwise it
  counts along group chains when each group's fair scores are nondecreasing
  in its raw order (true for every ``apply_theta`` output: 1-D transport is
  monotone within each group, ties and theta overrides included) and there
  are at most ``CHAIN_MAX_GROUPS`` groups. For a row j and a group h, let
  P_h[j] be the rows of h with a smaller raw score and Q_h[j] those with a
  fair score no larger than j's. Both sets are prefixes of h's chain, so j
  is inverted against exactly max(0, P_h[j] - Q_h[j]) rows of h, and 0 rows
  of its own group. P_h is read from the merged raw order at j's raw-tie block start;
  Q_h along one stable argsort of the fair scores laid out group by group
  (timsort merges the G sorted runs), at the end of j's fair-tie block. That
  is one merge and O(G n) prefix counts per theta, against the merge
  count's O(n log n) or more, whatever G.
* Any other input (fair scores that descend within a group, or many groups)
  is counted by merging: one ``np.lexsort`` by (raw, fair), then the
  inversions of the population minus those of each group. The bottom-up
  merge runs over ordinal fair ranks and counts, per level, how far each
  right-half element moves left: one int sort per level, O(n log^2 n) at
  worst, and 0 without merging for a sorted sequence.
* ``group_fairness_error`` takes each group's fair scores in raw order as its
  sorted sample when they are nondecreasing there, and sorts the others;
  its pairwise maxima take O(G) numpy calls, not one per pair.
* Top-k selection finds the cut with one ``np.partition``; only the rows
  tied with the cut are ordered, by (raw, id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .interpolation import FairScores
from .population import GroupKey, ScoredPopulation
from .solver_settings import DEFAULT_GRID_SIZE

if TYPE_CHECKING:
    from .empirical import RawOrder


# The most groups the chain count serves. Timed on apply_theta outputs (theta
# 0.5, unequal groups, best of 7), the chain count per theta is about
# 1 + 0.75 G ms at 50k rows against 24-33 ms for the merge count; the two
# cross between 32 and 48 groups at 10k, 50k and 200k rows, tied or
# tie-free, and lower only at 2k rows and fewer, where both take under 2 ms.
CHAIN_MAX_GROUPS = 32

# The report's metric keys, in the order of the sweep table's columns.
METRICS = (
    "individual_fairness_error",
    "group_fairness_w2",
    "group_fairness_ks",
    "utility_loss_mean_abs",
    "utility_loss_w2",
)


@dataclass(frozen=True)
class SelectionRule:
    """Either a score threshold (selected iff fair >= threshold) or a top-k cut."""

    threshold: float | None = None
    top_k: int | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.top_k is None):
            raise ValidationError("specify exactly one of threshold or top_k")
        if self.threshold is not None and np.isnan(self.threshold):
            raise ValidationError("selection threshold must be a number, got nan")
        if self.top_k is not None and self.top_k < 1:
            raise ValidationError(f"selection top_k must be at least 1, got {self.top_k}")


def _inversions(seq: np.ndarray) -> int:
    """Pairs i < j with seq[i] > seq[j]; 0 without merging when seq is sorted.

    The merge runs on ordinal ranks (equal values ranked by position, so a tie
    never counts). At width w, the halves of each block of 2w are sorted, and
    one int sort of ``block + rank`` merges them; ``where[r]`` is the merged
    position of rank r. A right-half element passes exactly the left-half
    elements greater than it, so its old position minus its new one is its
    inversion count against its left half.
    """
    n = seq.size
    if not np.any(seq[1:] < seq[:-1]):
        return 0
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(seq, kind="stable")] = np.arange(n)
    pos = np.arange(n, dtype=np.int64)
    where = np.empty(n, dtype=np.int64)
    inversions = 0
    w = 1
    while w < n:
        # w is a power of two: a block of 2w starts at pos with its low bits
        # cleared, and the right half is where bit w is set
        block = (pos & ~(2 * w - 1)) * n
        right = np.flatnonzero(pos & w)
        merged = np.sort(block + rank, kind="stable") - block
        where[merged] = pos
        inversions += int(right.sum() - where[rank[right]].sum())
        rank = merged
        w *= 2
    return inversions


def _aligned(pop: ScoredPopulation, fair: FairScores) -> np.ndarray:
    """``fair.values``, which must hold one fair score per record, in ``pop.scores``' shape."""
    if fair.values.shape != pop.scores.shape:
        raise ValidationError("fair scores are not aligned with the population")
    return fair.values


def _group_runs(order: RawOrder, fv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fair scores laid out as ``order.by_group``, and for each group whether
    its run descends somewhere (a step down between two groups does not count)."""
    runs = fv[order.by_group]
    starts = order.group_starts
    down = np.flatnonzero(runs[1:] < runs[:-1]) + 1
    group = np.searchsorted(starts, down, side="right") - 1
    descending = np.zeros(starts.size - 1, dtype=bool)
    descending[group[starts[group] != down]] = True
    return runs, descending


def _chain_count(pop: ScoredPopulation, runs: np.ndarray) -> int:
    """Cross-group inversions of fair scores that are nondecreasing along each
    group's raw run: the sum over rows j and groups h of max(0, P_h[j] - Q_h[j])
    (see the module docstring), with the rows taken in fair order."""
    order = pop.raw_order
    n = runs.size
    sizes = np.diff(order.group_starts)
    by_fair = np.argsort(runs, kind="stable")
    ordered = runs[by_fair]
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    fair_block_end = np.repeat(ends, np.diff(ends, prepend=-1))
    # at most CHAIN_MAX_GROUPS groups here, so a code fits in 8 bits
    fair_groups = np.repeat(np.arange(sizes.size, dtype=np.int8), sizes)[by_fair]
    raw_groups = pop.group_codes[order.merged].astype(np.int8)
    raw_block_start = order.tie_start[by_fair]
    below = np.zeros(n + 1, dtype=np.intp)  # below[i]: rows of h among the i lowest raw
    upto = np.empty(n, dtype=np.intp)  # upto[p]: rows of h among the p + 1 lowest fair
    excess = np.empty(n, dtype=np.intp)
    inversions = 0
    for h in range(sizes.size):
        np.cumsum(raw_groups == h, out=below[1:])
        np.cumsum(fair_groups == h, out=upto)
        np.subtract(below.take(raw_block_start), upto.take(fair_block_end), out=excess)
        inversions += int(np.maximum(excess, 0, out=excess).sum())
    return inversions


def _merge_count(pop: ScoredPopulation, fv: np.ndarray) -> int:
    """Cross-group inversions of any fair scores: those of the population in
    (raw, fair) order minus those of each group, taken from that order by a
    stable partition on the group code."""
    order = np.lexsort((fv, pop.scores))
    seq = fv[order]
    by_group = np.argsort(pop.group_codes[order], kind="stable")
    inversions = _inversions(seq)
    for part in np.split(seq[by_group], pop.raw_order.group_starts[1:-1]):
        inversions -= _inversions(part)
    return inversions


def individual_fairness_error(pop: ScoredPopulation, fair: FairScores) -> float:
    """Cross-group strict-inversion rate, by a chain count or a merge count.

    The denominator, the cross-group pairs with distinct raw scores, is
    ``pop.raw_order.cross_pairs``. The count is 0 when the fair scores are
    sorted in raw order, a chain count when every group's are and there are
    at most ``CHAIN_MAX_GROUPS`` groups, and a merge count otherwise.
    """
    if pop.dimension != 1:
        raise ValidationError("individual_fairness_error is defined for 1-D scores")
    fv = _aligned(pop, fair)
    order = pop.raw_order
    if order.cross_pairs == 0:
        return 0.0
    in_raw_order = fv[order.merged]
    if not np.any(in_raw_order[1:] < in_raw_order[:-1]):
        return 0.0
    laid_out, descending = _group_runs(order, fv)
    if descending.any() or len(pop.groups) > CHAIN_MAX_GROUPS:
        inversions = _merge_count(pop, fv)
    else:
        inversions = _chain_count(pop, laid_out)
    return inversions / order.cross_pairs


def _distinct(sorted_values: np.ndarray) -> np.ndarray:
    return sorted_values[np.append(True, sorted_values[1:] != sorted_values[:-1])]


def group_fairness_error(pop: ScoredPopulation, fair: FairScores, m: int) -> tuple[float, float]:
    """Max pairwise grid-W2 and max pairwise KS between fair group distributions.

    Each group's sorted sample is its fair scores in raw order when they are
    nondecreasing there (every ``apply_theta`` output), and a sort of them
    otherwise. Both maxima take O(G) numpy calls, not one per pair:

    * W2: the quantile grids are stacked into a G x m array, and row a is
      compared with every later row in one ``w2_from_quantiles`` call.
    * KS: each group's ECDF is evaluated at the distinct values of every
      group (between two samples of a pair both ECDFs are constant, so the
      points of other groups change no pairwise maximum), and folded into a
      running max and min over the groups. The largest pairwise gap at a
      point is max_g F_g - min_g F_g, and float subtraction is monotone, so
      this is bitwise the largest pairwise difference. Memory is O(n + G m).
    """
    if pop.dimension != 1:
        raise ValidationError("group_fairness_error is defined for 1-D scores")
    if len(pop.groups) < 2:
        raise ValidationError("group fairness needs at least two groups")
    from .empirical import EmpiricalDistribution, discretize_quantiles, empirical_from_samples
    from .transport1d import w2_from_quantiles

    laid_out, descending = _group_runs(pop.raw_order, _aligned(pop, fair))
    dists = [
        empirical_from_samples(run) if down else EmpiricalDistribution(run)
        for run, down in zip(np.split(laid_out, pop.raw_order.group_starts[1:-1]), descending)
    ]
    quantiles = np.stack([discretize_quantiles(dist, m).quantiles for dist in dists])
    w2 = max(
        float(np.max(w2_from_quantiles(quantiles[a], quantiles[a + 1 :])))
        for a in range(len(dists) - 1)
    )
    points = np.concatenate([_distinct(dist.values) for dist in dists])
    highest = np.full(points.size, -np.inf)
    lowest = np.full(points.size, np.inf)
    for dist in dists:
        cdf = np.searchsorted(dist.values, points, side="right") / len(dist)
        np.maximum(highest, cdf, out=highest)
        np.minimum(lowest, cdf, out=lowest)
    return w2, float(np.max(highest - lowest))


def utility_loss(pop: ScoredPopulation, fair: FairScores) -> tuple[float, float]:
    """Mean absolute displacement and realized transport cost of the applied map."""
    disp = _aligned(pop, fair) - pop.scores
    if disp.ndim == 1:
        norms = np.abs(disp)
    else:
        norms = np.sqrt(np.sum(disp**2, axis=1))
    return float(np.mean(norms)), float(np.sqrt(np.mean(norms**2)))


def selection_rates(
    pop: ScoredPopulation, fair: FairScores, rule: SelectionRule
) -> tuple[dict[GroupKey, float], float | None]:
    """Per-group selection rates under a threshold or deterministic top-k rule, and
    min rate / max rate; the ratio is None when no group has a selected member, as
    0/0 is undefined."""
    if pop.dimension != 1:
        raise ValidationError("selection_rates is defined for 1-D scores")
    fv = _aligned(pop, fair)
    n = len(pop)
    raw = pop.scores
    if rule.threshold is not None:
        selected = fv >= rule.threshold
    else:
        k = rule.top_k
        if not 1 <= k <= n:
            raise ValidationError(f"top_k {k} out of range [1, {n}]")
        # the k largest by (fair, raw, id); ids are unique, so the order is
        # total. Rows above the cut are in, and only the rows tied with it are
        # ordered, by raw and then by a numpy unicode array of their ids
        cut = np.partition(fv, n - k)[n - k]
        selected = fv > cut
        tied = np.flatnonzero(fv == cut)
        need = k - np.count_nonzero(selected)
        if need < tied.size:
            tied_ids = np.array([pop.ids[i] for i in tied.tolist()])
            tied = tied[np.lexsort((tied_ids, raw[tied]))[tied.size - need :]]
        selected[tied] = True

    counts = np.bincount(pop.group_codes, weights=selected)  # exact: sums of 1.0
    rates = dict(zip(pop.groups, (counts / np.bincount(pop.group_codes)).tolist()))
    max_rate = max(rates.values())
    ratio = None if max_rate == 0.0 else min(rates.values()) / max_rate
    return rates, ratio


def build_report(
    pop: ScoredPopulation,
    fair: FairScores,
    m: int = DEFAULT_GRID_SIZE,
    rule: SelectionRule | None = None,
) -> dict:
    """The report of one theta setting: the ``METRICS``, ``selection`` (the rates by
    ``str(key)`` in key order, and their ratio) and ``theta``. A metric is None when
    undefined: group fairness for a single group, and all but the utility losses for
    n-D scores. ``selection`` is None without a rule and for n-D scores."""
    mean_abs, w2_loss = utility_loss(pop, fair)
    ife = gw2 = gks = selection = None
    if pop.dimension == 1:
        ife = individual_fairness_error(pop, fair)
        if len(pop.groups) >= 2:
            gw2, gks = group_fairness_error(pop, fair, m)
        if rule is not None:
            rates, ratio = selection_rates(pop, fair, rule)
            selection = {"rates": {str(k): v for k, v in sorted(rates.items())}, "ratio": ratio}
    report = dict(zip(METRICS, (ife, gw2, gks, mean_abs, w2_loss)))
    return {**report, "selection": selection, "theta": fair.theta_used.to_dict()}
