"""Trade-off metrics: individual fairness, group fairness, utility loss and
selection rates for one theta setting.

Individual fairness is measured as the cross-group strict-inversion rate: the
fraction of cross-group pairs with distinct raw scores whose strict raw-score
order is reversed by the transform. Raw-score ties across groups are excluded
from the pair universe and fair-score ties never count as inversions.

The 1-D metrics are vectorized numpy and sort the population at most once
per call:

* ``individual_fairness_error`` puts the rows in (raw, fair) order. Without
  raw ties that is the raw order alone, which ``ScoredPopulation`` sorts once
  and caches, so a sweep does not sort again per theta; with ties it is one
  ``np.lexsort``. The population's inversions are counted on the fair scores
  in that order, and each group's on the same order stably partitioned by
  group code; the raw ties that leave pairs out are run lengths of the same
  two sequences.
* A nondecreasing sequence has no inversions, so the counter returns 0
  without merging. That holds for every group of an ``apply_theta`` output
  (within-group monotonicity) and for the whole population at theta 0.
* Otherwise a bottom-up merge over ordinal fair ranks counts, per level, how
  far each right-half element moves left when the halves are merged: one int
  sort per level, O(n log^2 n) at worst.
* Top-k selection finds the cut with one ``np.partition``; only the rows
  tied with the cut are ordered, by (raw, id).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .empirical import discretize_quantiles, empirical_from_samples
from .errors import ValidationError
from .interpolation import FairScores, ThetaPolicy
from .population import GroupKey, ScoredPopulation
from .transport1d import w2_from_quantiles


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


@dataclass(frozen=True)
class SelectionOutcome:
    """Per-group selection rates and min rate / max rate; the ratio is None
    when no group has a selected member, as 0/0 is undefined."""

    rates: dict[GroupKey, float]
    ratio: float | None


@dataclass(frozen=True)
class FairnessReport:
    """Metric bundle for one theta setting.

    Group-level and rank-based fields are ``None`` when undefined (single
    group, or multi-dimensional scores for the 1-D-only metrics), and so is
    the selection ratio when no one is selected.
    """

    individual_fairness_error: float | None
    group_fairness_w2: float | None
    group_fairness_ks: float | None
    utility_loss_mean_abs: float
    utility_loss_w2: float
    selection: SelectionOutcome | None
    theta: ThetaPolicy

    def to_dict(self) -> dict:
        return {
            "individual_fairness_error": self.individual_fairness_error,
            "group_fairness_w2": self.group_fairness_w2,
            "group_fairness_ks": self.group_fairness_ks,
            "utility_loss_mean_abs": self.utility_loss_mean_abs,
            "utility_loss_w2": self.utility_loss_w2,
            "selection": None
            if self.selection is None
            else {
                "rates": {str(k): v for k, v in sorted(self.selection.rates.items())},
                "ratio": self.selection.ratio,
            },
            "theta": self.theta.to_dict(),
        }


def _count_inversions(raw: np.ndarray, fair: np.ndarray) -> int:
    """Pairs with raw_i < raw_j and fair_i > fair_j, raw ties excluded.

    After a lexsort by (raw, fair), raw ties are in fair order and add
    nothing, so the count is the number of inversions of the fair scores in
    that order.
    """
    return _inversions(fair[np.lexsort((fair, raw))])


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


def _tied_pairs(new_run: np.ndarray) -> int:
    """Pairs inside the runs of a sequence; ``new_run[i]`` is whether element
    i + 1 starts a run."""
    counts = np.diff(np.flatnonzero(np.concatenate(([True], new_run, [True]))))
    return int(np.sum(counts * (counts - 1) // 2))


def individual_fairness_error(pop: ScoredPopulation, fair: FairScores) -> float:
    """Cross-group strict-inversion rate, computed by inversion counting.

    Cross-group counts are population counts minus within-group counts. Both
    come from one (raw, fair) order: each group's rows, taken from it by a
    stable partition on the group code, are still in (raw, fair) order.
    Without raw ties that order is the population's cached raw order.
    """
    if pop.dimension != 1:
        raise ValidationError("individual_fairness_error is defined for 1-D scores")
    if len(fair) != len(pop):
        raise ValidationError("fair scores are not aligned with the population")
    n = len(pop)
    order = pop.distinct_score_order
    if order is None:
        order = np.lexsort((fair.values, pop.scores))
    raw = pop.scores[order]
    fv = fair.values[order]
    codes = pop.group_codes[order]
    by_group = np.argsort(codes, kind="stable")
    raw_g = raw[by_group]
    codes_g = codes[by_group]
    sizes = np.array([idx.size for idx in pop.groups.values()], dtype=np.int64)

    cross_pairs = n * (n - 1) // 2 - int(np.sum(sizes * (sizes - 1) // 2))
    cross_pairs -= _tied_pairs(raw[1:] != raw[:-1])
    cross_pairs += _tied_pairs((raw_g[1:] != raw_g[:-1]) | (codes_g[1:] != codes_g[:-1]))
    if cross_pairs == 0:
        return 0.0
    cross_inv = _inversions(fv)
    for seq in np.split(fv[by_group], np.cumsum(sizes)[:-1]):
        cross_inv -= _inversions(seq)
    return cross_inv / cross_pairs


def _distinct(sorted_values: np.ndarray) -> np.ndarray:
    return sorted_values[np.append(True, sorted_values[1:] != sorted_values[:-1])]


def group_fairness_error(
    pop: ScoredPopulation, fair: FairScores, m: int
) -> tuple[float, float]:
    """Max pairwise grid-W2 and max pairwise KS between fair group distributions.

    Each group is sorted once, and its quantile grid and its ECDF are
    evaluated once. The ECDFs are evaluated at the distinct values of every
    group: between two samples of a pair both ECDFs are constant, so the
    points of other groups change no pairwise maximum.
    """
    if pop.dimension != 1:
        raise ValidationError("group_fairness_error is defined for 1-D scores")
    if len(pop.groups) < 2:
        raise ValidationError("group fairness needs at least two groups")
    fv = fair.values
    dists = [empirical_from_samples(fv[idx]) for idx in pop.groups.values()]
    points = np.concatenate([_distinct(dist.values) for dist in dists])
    quantiles = [discretize_quantiles(dist, m).quantiles for dist in dists]
    cdfs = [np.searchsorted(dist.values, points, side="right") / len(dist) for dist in dists]
    w2 = 0.0
    ks = 0.0
    for a, b in combinations(range(len(cdfs)), 2):
        w2 = max(w2, w2_from_quantiles(quantiles[a], quantiles[b]))
        ks = max(ks, float(np.max(np.abs(cdfs[a] - cdfs[b]))))
    return w2, ks


def utility_loss(pop: ScoredPopulation, fair: FairScores) -> tuple[float, float]:
    """Mean absolute displacement and realized transport cost of the applied map."""
    if len(fair) != len(pop):
        raise ValidationError("fair scores are not aligned with the population")
    raw = pop.scores
    disp = fair.values - raw
    if disp.ndim == 1:
        norms = np.abs(disp)
    else:
        norms = np.sqrt(np.sum(disp**2, axis=1))
    return float(np.mean(norms)), float(np.sqrt(np.mean(norms**2)))


def selection_rates(
    pop: ScoredPopulation, fair: FairScores, rule: SelectionRule
) -> SelectionOutcome:
    """Per-group selection rates under a threshold or deterministic top-k rule."""
    if pop.dimension != 1:
        raise ValidationError("selection_rates is defined for 1-D scores")
    n = len(pop)
    fv = fair.values
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

    rates = {}
    for key, idx in pop.groups.items():
        rates[key] = float(np.count_nonzero(selected[idx]) / idx.size)
    max_rate = max(rates.values())
    ratio = None if max_rate == 0.0 else min(rates.values()) / max_rate
    return SelectionOutcome(rates=rates, ratio=ratio)


def build_report(
    pop: ScoredPopulation,
    fair: FairScores,
    m: int = 1000,
    rule: SelectionRule | None = None,
) -> FairnessReport:
    """Assemble the full metric bundle; 1-D-only metrics are None in d >= 2."""
    mean_abs, w2_loss = utility_loss(pop, fair)
    ife = gw2 = gks = None
    selection = None
    if pop.dimension == 1:
        ife = individual_fairness_error(pop, fair)
        if len(pop.groups) >= 2:
            gw2, gks = group_fairness_error(pop, fair, m)
        if rule is not None:
            selection = selection_rates(pop, fair, rule)
    return FairnessReport(
        individual_fairness_error=ife,
        group_fairness_w2=gw2,
        group_fairness_ks=gks,
        utility_loss_mean_abs=mean_abs,
        utility_loss_w2=w2_loss,
        selection=selection,
        theta=fair.theta_used,
    )
