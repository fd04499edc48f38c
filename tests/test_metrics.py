import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairscore.metrics
import fairscore.population
from fairscore import (
    GroupKey,
    ScoreRecord,
    SelectionRule,
    ThetaPolicy,
    ValidationError,
    barycenter_1d,
    build_population,
    build_report,
    empirical_from_samples,
    group_fairness_error,
    individual_fairness_error,
    interpolate_scores,
    selection_rates,
    utility_loss,
    w2_distance,
)
from fairscore.interpolation import FairScores, apply_theta, barycenter_targets
from fairscore.metrics import (
    CHAIN_MAX_GROUPS,
    _chain_count,
    _group_runs,
    _inversions,
    _merge_count,
)
from fairscore.oracle import individual_fairness_error_naive

from conftest import (
    population_from_records,
    random_population,
    random_theta_policy,
    seeded_policy,
    seeded_population,
)


def far_apart_population():
    records = [
        ScoreRecord("a1", ("A",), 0.0),
        ScoreRecord("a2", ("A",), 1.0),
        ScoreRecord("b1", ("B",), 10.0),
        ScoreRecord("b2", ("B",), 11.0),
    ]
    return population_from_records(records, 1)


def transform(pop, theta, m):
    dists = [empirical_from_samples(pop.group_scores(k)) for k in pop.group_keys()]
    weights = [len(pop.groups[k]) / len(pop) for k in pop.group_keys()]
    bary = barycenter_1d(dists, weights, m)
    return interpolate_scores(pop, bary, ThetaPolicy(theta))


def test_ife_zero_at_theta_zero():
    pop = far_apart_population()
    fair = transform(pop, 0.0, 2)
    assert individual_fairness_error(pop, fair) == 0.0


def test_ife_hand_example():
    pop = far_apart_population()
    fair = transform(pop, 1.0, 2)
    # fair scores collapse to (5, 6, 5, 6); exactly one of 4 cross pairs inverts
    np.testing.assert_allclose(fair.values, [5.0, 6.0, 5.0, 6.0])
    assert individual_fairness_error(pop, fair) == 0.25
    assert individual_fairness_error_naive(pop, fair) == 0.25


def test_ife_single_group_is_zero():
    records = [ScoreRecord(str(i), ("A",), float(i)) for i in range(5)]
    pop = population_from_records(records, 1)
    fair = FairScores(np.arange(5.0)[::-1].copy(), ThetaPolicy(0.0))
    assert individual_fairness_error(pop, fair) == 0.0


def test_ife_fast_matches_naive_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(20):
        pop = random_population(rng, int(rng.integers(5, 60)), int(rng.integers(2, 5)))
        # arbitrary (not even monotone) fair scores, with ties sprinkled in
        fv = np.round(rng.normal(size=len(pop)), 1)
        fair = FairScores(fv, ThetaPolicy(0.0))
        assert individual_fairness_error(pop, fair) == pytest.approx(
            individual_fairness_error_naive(pop, fair), abs=1e-12
        )


@pytest.mark.parametrize("raw_ties", ["none", "rounded", "signed-zeros"])
def test_ife_matches_naive_on_either_raw_order(raw_ties):
    """Tie-free and tied raw scores (a -0.0 beside a 0.0 included) both count
    right; a row starts its own raw-tie block only when its score is distinct."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        raw = rng.permutation(n) / 4.0 - 2.0
        if raw_ties == "rounded":
            raw = np.floor(raw)
        elif raw_ties == "signed-zeros":
            raw[:2] = [-0.0, 0.0]
        codes = rng.integers(0, int(rng.integers(2, 5)), n)
        pop = build_population([f"r{i}" for i in range(n)], [[f"g{c}" for c in codes]], raw)
        assert (np.unique(pop.raw_order.tie_start).size == n) == (raw_ties == "none")
        for fv in (np.round(rng.normal(size=n), 1), rng.normal(size=n)):
            fair = FairScores(fv, ThetaPolicy(0.0))
            assert individual_fairness_error(pop, fair) == pytest.approx(
                individual_fairness_error_naive(pop, fair), abs=1e-12
            )


def test_ife_rejects_misaligned_input():
    pop = far_apart_population()
    with pytest.raises(ValidationError):
        individual_fairness_error(pop, FairScores(np.zeros(3), ThetaPolicy(0.0)))


MISALIGNED_METRICS = {
    "individual_fairness_error": individual_fairness_error,
    "group_fairness_error": lambda pop, fair: group_fairness_error(pop, fair, 4),
    "utility_loss": utility_loss,
    "selection_rates": lambda pop, fair: selection_rates(pop, fair, SelectionRule(top_k=1)),
    "naive individual_fairness_error": individual_fairness_error_naive,
}


@pytest.mark.parametrize("shape", [(5,), (3,), (4, 1)])
@pytest.mark.parametrize("metric", sorted(MISALIGNED_METRICS))
def test_every_metric_rejects_misaligned_fair_scores(metric, shape):
    # before one check served them all, group_fairness_error read 5 values of a
    # 4-row population as (2.0, 1.0), and selection_rates raised numpy's ValueError
    pop = far_apart_population()
    fair = FairScores(np.arange(float(np.prod(shape))).reshape(shape), ThetaPolicy(0.0))
    with pytest.raises(ValidationError, match="^fair scores are not aligned with the population$"):
        MISALIGNED_METRICS[metric](pop, fair)


def test_utility_loss_rejects_fair_scores_of_another_dimension():
    pop = build_population(["a", "b"], [["A", "B"]], [[0.0, 1.0], [2.0, 3.0]])
    for values in ([[0.0, 1.0, 2.0], [2.0, 3.0, 4.0]], [0.0, 2.0]):
        with pytest.raises(ValidationError, match="^fair scores are not aligned"):
            utility_loss(pop, FairScores(np.array(values), ThetaPolicy(0.0)))


def test_group_fairness_hand_values():
    pop = far_apart_population()
    assert group_fairness_error(pop, transform(pop, 1.0, 2), 2)[0] <= 1e-9
    assert group_fairness_error(pop, transform(pop, 0.0, 2), 2)[0] == pytest.approx(10.0)
    assert group_fairness_error(pop, transform(pop, 0.5, 2), 2)[0] == pytest.approx(5.0, abs=1e-9)


def test_group_fairness_single_group_rejected():
    records = [ScoreRecord(str(i), ("A",), float(i)) for i in range(4)]
    pop = population_from_records(records, 1)
    fair = FairScores(pop.scores, ThetaPolicy(0.0))
    with pytest.raises(ValidationError):
        group_fairness_error(pop, fair, 4)


def test_group_fairness_decay_identity():
    pop = far_apart_population()
    base = group_fairness_error(pop, transform(pop, 0.0, 2), 2)[0]
    for theta in (0.1, 0.4, 0.9):
        got = group_fairness_error(pop, transform(pop, theta, 2), 2)[0]
        assert got == pytest.approx((1 - theta) * base, abs=1e-9)


def test_utility_loss_hand_values():
    pop = far_apart_population()
    assert utility_loss(pop, transform(pop, 0.0, 2)) == (0.0, 0.0)
    mean_abs, _ = utility_loss(pop, transform(pop, 1.0, 2))
    assert mean_abs == pytest.approx(5.0)
    mean_half, _ = utility_loss(pop, transform(pop, 0.5, 2))
    assert mean_half == pytest.approx(2.5)


def test_utility_loss_linear_in_theta():
    rng = np.random.default_rng(33)
    pop = random_population(rng, 60, 3)
    full = utility_loss(pop, transform(pop, 1.0, 64))
    for theta in (0.25, 0.5, 0.75):
        got = utility_loss(pop, transform(pop, theta, 64))
        assert got[0] == pytest.approx(theta * full[0], abs=1e-9)
        assert got[1] == pytest.approx(theta * full[1], abs=1e-9)


def test_selection_rates_threshold():
    pop = far_apart_population()
    raw_fair = transform(pop, 0.0, 2)
    out = selection_rates(pop, raw_fair, SelectionRule(threshold=5.0))
    assert out.rates[GroupKey(("A",))] == 0.0
    assert out.rates[GroupKey(("B",))] == 1.0
    assert out.ratio == 0.0

    parity_fair = transform(pop, 1.0, 2)
    out = selection_rates(pop, parity_fair, SelectionRule(threshold=5.5))
    assert out.rates == {GroupKey(("A",)): 0.5, GroupKey(("B",)): 0.5}
    assert out.ratio == 1.0

    out = selection_rates(pop, raw_fair, SelectionRule(threshold=-100.0))
    assert all(rate == 1.0 for rate in out.rates.values())
    assert out.ratio == 1.0

    # no one selected: the ratio 0/0 is undefined, not parity
    out = selection_rates(pop, raw_fair, SelectionRule(threshold=1e300))
    assert all(rate == 0.0 for rate in out.rates.values())
    assert out.ratio is None


def test_selection_rates_top_k_deterministic_ties():
    records = [
        ScoreRecord("a1", ("A",), 1.0),
        ScoreRecord("a2", ("A",), 1.0),
        ScoreRecord("b1", ("B",), 1.0),
    ]
    pop = population_from_records(records, 1)
    fair = FairScores(np.ones(3), ThetaPolicy(0.0))
    out = selection_rates(pop, fair, SelectionRule(top_k=1))
    # all fair and raw scores tie; the largest id ("b1") wins
    assert out.rates[GroupKey(("B",))] == 1.0
    assert out.rates[GroupKey(("A",))] == 0.0
    with pytest.raises(ValidationError):
        selection_rates(pop, fair, SelectionRule(top_k=4))


def test_selection_rule_needs_exactly_one_mode():
    with pytest.raises(ValidationError):
        SelectionRule()
    with pytest.raises(ValidationError):
        SelectionRule(threshold=1.0, top_k=2)


def test_selection_rule_rejects_nan_threshold():
    with pytest.raises(ValidationError, match="nan"):
        SelectionRule(threshold=float("nan"))


@pytest.mark.parametrize("k", [0, -3])
def test_selection_rule_rejects_top_k_below_one(k):
    with pytest.raises(ValidationError, match=f"top_k must be at least 1, got {k}"):
        SelectionRule(top_k=k)


def test_ife_nondecreasing_over_sweep(two_gaussian_population):
    pop = two_gaussian_population
    values = [
        individual_fairness_error(pop, transform(pop, theta, 1000))
        for theta in np.linspace(0, 1, 11)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_build_report_round_trip():
    pop = far_apart_population()
    fair = transform(pop, 0.5, 2)
    report = build_report(pop, fair, m=2, rule=SelectionRule(threshold=3.0))
    d = report.to_dict()
    assert d["individual_fairness_error"] == 0.0
    assert d["group_fairness_w2"] == pytest.approx(5.0, abs=1e-9)
    assert set(d["selection"]["rates"]) == {"A", "B"}
    assert d["theta"]["default_theta"] == 0.5


# ---------------------------------------------------------------------------
# References for the vectorized kernels: the pure-Python code they replaced.


class _Fenwick:
    """Binary indexed tree over compressed value indices."""

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, i: int) -> None:
        i += 1
        while i <= self.size:
            self.tree[i] += 1
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Count of inserted elements with compressed index <= i."""
        i += 1
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total


def count_inversions(raw, fair):
    """Pairs with raw_i < raw_j and fair_i > fair_j, raw ties excluded.

    After a lexsort by (raw, fair), raw ties are in fair order and add
    nothing, so the count is the number of inversions of the fair scores in
    that order.
    """
    return _inversions(fair[np.lexsort((fair, raw))])


def fenwick_count_inversions(raw, fair):
    """Pairs with raw_i < raw_j and fair_i > fair_j, raw ties excluded, via a Fenwick tree."""
    order = np.lexsort((fair, raw))
    raw_sorted = raw[order]
    fair_sorted = fair[order]
    comp = {v: i for i, v in enumerate(np.unique(fair))}
    tree = _Fenwick(len(comp))
    inserted = 0
    inversions = 0
    i = 0
    n = raw.size
    while i < n:
        j = i
        while j < n and raw_sorted[j] == raw_sorted[i]:
            j += 1
        for k in range(i, j):  # count against strictly smaller raw only
            inversions += inserted - tree.prefix(comp[fair_sorted[k]])
        for k in range(i, j):
            tree.add(comp[fair_sorted[k]])
        inserted += j - i
        i = j
    return inversions


def brute_count_inversions(raw, fair):
    return sum(
        1
        for i, j in combinations(range(raw.size), 2)
        if (raw[i] < raw[j] and fair[i] > fair[j]) or (raw[j] < raw[i] and fair[j] > fair[i])
    )


def three_pass_top_k(pop, fv, k):
    """Indices selected by the stable three-pass sort: (fair, raw, id) descending."""
    raw = pop.scores
    order = sorted(range(len(pop)), key=lambda i: pop.records[i].id, reverse=True)
    order.sort(key=lambda i: raw[i], reverse=True)
    order.sort(key=lambda i: fv[i], reverse=True)
    return set(order[:k])


def _random_tied(rng, n):
    return np.round(rng.normal(size=n), int(rng.integers(0, 2)))


@pytest.mark.parametrize(
    "raw, fair",
    [
        (np.array([0.5]), np.array([2.0])),
        (np.full(7, 3.0), np.arange(7.0)[::-1].copy()),  # all raw tied
        (np.arange(9.0), np.full(9, -1.0)),  # all fair tied
        (np.arange(13.0), np.arange(13.0)[::-1].copy()),  # strictly reversed
    ],
    ids=["n1", "raw-tied", "fair-tied", "reversed"],
)
def test_count_inversions_edge_cases(raw, fair):
    expected = brute_count_inversions(raw, fair)
    assert count_inversions(raw, fair) == expected
    assert fenwick_count_inversions(raw, fair) == expected


def test_count_inversions_reversed_gives_all_pairs():
    for n in (1, 2, 3, 31, 64, 100):
        raw = np.arange(float(n))
        assert count_inversions(raw, -raw) == n * (n - 1) // 2


def test_count_inversions_matches_references_on_odd_sizes():
    rng = np.random.default_rng(41)
    for n in (3, 5, 6, 7, 11, 17, 33, 63, 65, 100, 129, 257):
        raw = _random_tied(rng, n)
        fair = _random_tied(rng, n)
        expected = fenwick_count_inversions(raw, fair)
        assert count_inversions(raw, fair) == expected
        if n <= 129:
            assert brute_count_inversions(raw, fair) == expected


def test_count_inversions_matches_fenwick_at_scale():
    rng = np.random.default_rng(43)
    raw = np.round(rng.normal(size=3001), 2)
    fair = np.round(raw + rng.normal(size=raw.size), 1)
    assert count_inversions(raw, fair) == fenwick_count_inversions(raw, fair)


@st.composite
def tied_population_and_fair(draw):
    """A 1-D population with raw ties, fair ties and possibly singleton groups."""
    n = draw(st.integers(1, 40))
    n_groups = draw(st.integers(1, 5))
    raw = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    groups = draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n))
    fair = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    records = [ScoreRecord(f"r{i}", (f"g{g}",), float(r) / 2) for i, (r, g) in enumerate(zip(raw, groups))]
    pop = population_from_records(records, 1)
    return pop, FairScores(np.array(fair, dtype=float), ThetaPolicy(0.0))


@settings(max_examples=200, deadline=None)
@given(tied_population_and_fair())
def test_ife_matches_pairwise_oracle_property(case):
    pop, fair = case
    assert individual_fairness_error(pop, fair) == pytest.approx(
        individual_fairness_error_naive(pop, fair), abs=1e-12
    )


def test_top_k_matches_three_pass_sort_with_ties_at_the_cut():
    rng = np.random.default_rng(47)
    n = 300
    # ids in shuffled order, so the id tie-break is not the record order; one
    # group per record, so the rates spell out exactly which records are selected
    ids = [f"id{j}" for j in rng.permutation(n)]
    raw = np.round(rng.uniform(0, 1, size=n), 1)
    records = [ScoreRecord(ids[i], (ids[i],), float(raw[i])) for i in range(n)]
    pop = population_from_records(records, 1)
    fv = np.round(raw * 0.5 + 0.1 * (np.arange(n) % 2), 1)
    fair = FairScores(fv, ThetaPolicy(0.0))
    checked = 0
    for k in range(1, n + 1):
        chosen = three_pass_top_k(pop, fv, k)
        last = min(chosen, key=lambda i: (fv[i], raw[i]))
        # only cuts that fall inside a block tied on (fair, raw)
        if all(i in chosen for i in range(n) if fv[i] == fv[last] and raw[i] == raw[last]):
            continue
        checked += 1
        rates = selection_rates(pop, fair, SelectionRule(top_k=k)).rates
        assert {i for i in range(n) if rates[GroupKey((ids[i],))] == 1.0} == chosen
    assert checked > 50


@st.composite
def tied_population(draw):
    """1 to 4 groups (singletons allowed) with raw ties and signed zeros."""
    n = draw(st.integers(1, 24))
    codes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    values = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 2.0])
    raw = draw(st.lists(values, min_size=n, max_size=n))
    return build_population([f"r{i}" for i in range(n)], [[f"g{g}" for g in codes]], raw)


@settings(max_examples=200, deadline=None)
@given(tied_population(), st.sampled_from([2, 3, 16]))
def test_ife_equals_pairwise_oracle_on_blended_scores(pop, m):
    """Each group of an apply_theta output is monotone, so the counter takes
    its sorted-sequence exit for every group, and at theta 0 for the whole
    population too."""
    dists = [empirical_from_samples(pop.group_scores(k)) for k in pop.group_keys()]
    weights = [len(pop.groups[k]) / len(pop) for k in pop.group_keys()]
    bary = barycenter_1d(dists, weights, m)
    targets = barycenter_targets(pop, bary)
    for theta in (0.0, 0.3, 1.0):
        fair = apply_theta(pop, targets, ThetaPolicy(theta))
        got = individual_fairness_error(pop, fair)
        assert got == individual_fairness_error_naive(pop, fair)
        if theta == 0.0:
            assert got == 0.0


def lexsort_top_k(pop, fv, k):
    """The rows one lexsort by (fair, raw, id) puts first, descending: the
    order that partition top-k replaced."""
    return set(np.lexsort((np.array(pop.ids), pop.scores, fv))[::-1][:k].tolist())


@pytest.mark.parametrize(
    "ids, raw, fair, k, expected",
    [
        # the cut falls in the fair-tie block at 1.0, where raw decides
        (["a", "b", "c", "d"], [0.1, 0.3, 0.2, 5.0], [1.0, 1.0, 1.0, 2.0], 2, {3, 1}),
        # fair and raw tie at the cut, so the larger id wins
        (["b", "c", "a", "d"], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 2.0], 2, {3, 1}),
        # -0.0 and 0.0 are one value in fair and in raw, so ids decide
        (["x1", "x3", "x2", "x4"], [0.0, -0.0, 0.0, 3.0], [-0.0, 0.0, -0.0, 1.0], 3, {3, 1, 2}),
        # k = n selects everyone
        (["p", "q", "r"], [1.0, 1.0, 0.0], [0.5, 0.5, 0.5], 3, {0, 1, 2}),
    ],
    ids=["raw-decides", "id-decides", "signed-zero", "k-is-n"],
)
def test_top_k_equals_one_lexsort(ids, raw, fair, k, expected):
    # one group per record, so the rates spell out exactly who is selected
    pop = build_population(ids, [ids], raw)
    fv = np.array(fair)
    fs = FairScores(fv, ThetaPolicy(0.0))
    assert lexsort_top_k(pop, fv, k) == expected
    for cut in range(1, len(ids) + 1):
        rates = selection_rates(pop, fs, SelectionRule(top_k=cut)).rates
        chosen = {i for i, rec_id in enumerate(ids) if rates[GroupKey((rec_id,))] == 1.0}
        assert chosen == lexsort_top_k(pop, fv, cut)


def pairwise_ks(a, b):
    """Two-sample KS by sorting both samples and evaluating at their union."""
    a = np.sort(a)
    b = np.sort(b)
    xs = np.concatenate([a, b])
    fa = np.searchsorted(a, xs, side="right") / a.size
    fb = np.searchsorted(b, xs, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def pairwise_group_fairness(pop, fair, m):
    """The per-pair loop group_fairness_error replaced: each pair is sorted and gridded again."""
    fv = fair.values
    samples = {k: fv[idx] for k, idx in pop.groups.items()}
    dists = {k: empirical_from_samples(v) for k, v in samples.items()}
    w2 = 0.0
    ks = 0.0
    for a, b in combinations(pop.group_keys(), 2):
        w2 = max(w2, w2_distance(dists[a], dists[b], m))
        ks = max(ks, pairwise_ks(samples[a], samples[b]))
    return w2, ks


@st.composite
def grouped_fair_scores(draw):
    """2 to 64 inhabited groups (singletons allowed) with tied and signed-zero
    raw and fair scores; a group's fair scores may descend in its raw order."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=64))
    n = sum(sizes)
    codes = draw(st.permutations([g for g, size in enumerate(sizes) for _ in range(size)]))
    values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])
    raw = draw(st.lists(values, min_size=n, max_size=n))
    fair = draw(st.lists(values, min_size=n, max_size=n))
    pop = build_population([f"r{i}" for i in range(n)], [[f"g{g:02}" for g in codes]], raw)
    m = draw(st.sampled_from([2, 3, 16]))
    return pop, FairScores(np.array(fair), ThetaPolicy(0.0)), m


@settings(max_examples=200, deadline=None)
@given(grouped_fair_scores())
def test_group_fairness_equals_pairwise_loop(case):
    pop, fair, m = case
    assert group_fairness_error(pop, fair, m) == pairwise_group_fairness(pop, fair, m)


def test_group_fairness_builds_no_group_by_point_array():
    # 256 groups over 20k tie-free rows: a G x n array of ECDF values would be 41 MB
    rng = np.random.default_rng(59)
    n, group_count = 20_000, 256
    codes = np.arange(n) % group_count
    groups = [f"g{g:03}" for g in codes]
    pop = build_population([f"r{i}" for i in range(n)], [groups], rng.random(n))
    fair = FairScores(pop.scores + codes / group_count, ThetaPolicy(0.0))
    pop.raw_order  # built and cached outside the measured call
    tracemalloc.start()
    try:
        group_fairness_error(pop, fair, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_group_fairness_equals_pairwise_loop_on_tied_sweep():
    rng = np.random.default_rng(53)
    pop = random_population(rng, 5000, 8)
    for theta in (0.0, 0.3, 1.0):
        fair = transform(pop, theta, 200)
        fair = FairScores(np.round(fair.values, 2), ThetaPolicy(theta))
        assert group_fairness_error(pop, fair, 200) == pairwise_group_fairness(pop, fair, 200)


# ---------------------------------------------------------------------------
# The chain count and the merge count of the individual fairness error.


@st.composite
def blended_population(draw):
    """A 1-D population and an ``apply_theta`` output on it: raw ties within
    and across groups, signed zeros, singleton groups, and per-group theta
    overrides (0 included) beside a default theta."""
    n = draw(st.integers(1, 30))
    codes = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    values = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.5, 2.0])
    raw = draw(st.lists(values, min_size=n, max_size=n))
    pop = build_population([f"r{i}" for i in range(n)], [[f"g{g}" for g in codes]], raw)
    m = draw(st.sampled_from([2, 3, 16]))
    dists = [empirical_from_samples(pop.group_scores(k)) for k in pop.group_keys()]
    weights = [len(pop.groups[k]) / len(pop) for k in pop.group_keys()]
    targets = barycenter_targets(pop, barycenter_1d(dists, weights, m))
    thetas = st.sampled_from([0.0, 0.3, 0.5, 1.0])
    overrides = draw(st.dictionaries(st.sampled_from(pop.group_keys()), thetas))
    policy = ThetaPolicy(draw(thetas), overrides)
    return pop, apply_theta(pop, targets, policy)


def count_calls(monkeypatch, name):
    calls = []
    counter = getattr(fairscore.metrics, name)

    def counted(*args):
        calls.append(name)
        return counter(*args)

    monkeypatch.setattr(fairscore.metrics, name, counted)
    return calls


@settings(max_examples=300, deadline=None)
@given(blended_population())
def test_chain_count_equals_pairwise_oracle(case):
    """Every group of an apply_theta output is nondecreasing in raw order, so
    the chain count applies, whatever the group count, and equals both the
    merge count and the pairwise enumeration exactly."""
    pop, fair = case
    runs, descending = _group_runs(pop.raw_order, fair.values)
    assert not descending.any()
    chained = _chain_count(pop, runs)
    assert chained == _merge_count(pop, fair.values)
    got = individual_fairness_error(pop, fair)
    assert got == individual_fairness_error_naive(pop, fair)
    assert got == (chained / pop.raw_order.cross_pairs if chained else 0.0)


def sweep_population(n_groups, rows_per_group, seed):
    rng = np.random.default_rng(seed)
    n = n_groups * rows_per_group
    codes = np.repeat(np.arange(n_groups), rows_per_group)
    raw = np.round(rng.normal(codes / n_groups, 0.3), 1)
    pop = build_population([f"r{i}" for i in range(n)], [[f"g{c}" for c in codes]], raw)
    dists = [empirical_from_samples(pop.group_scores(k)) for k in pop.group_keys()]
    weights = [len(pop.groups[k]) / n for k in pop.group_keys()]
    return pop, barycenter_targets(pop, barycenter_1d(dists, weights, 50))


def test_ife_counts_chains_for_few_groups(monkeypatch):
    pop, targets = sweep_population(4, 40, 61)
    chain_calls = count_calls(monkeypatch, "_chain_count")
    merge_calls = count_calls(monkeypatch, "_merge_count")
    for theta in (0.25, 1.0):
        fair = apply_theta(pop, targets, ThetaPolicy(theta))
        assert individual_fairness_error(pop, fair) == individual_fairness_error_naive(pop, fair)
    assert chain_calls == ["_chain_count"] * 2 and merge_calls == []
    # sorted in raw order at theta 0: neither count runs
    individual_fairness_error(pop, apply_theta(pop, targets, ThetaPolicy(0.0)))
    assert len(chain_calls) == 2 and merge_calls == []


@pytest.mark.parametrize(
    "n_groups, counter",
    [(CHAIN_MAX_GROUPS, "_chain_count"), (CHAIN_MAX_GROUPS + 1, "_merge_count")],
    ids=["at-bound", "above-bound"],
)
def test_ife_merges_for_many_groups(monkeypatch, n_groups, counter):
    """Up to CHAIN_MAX_GROUPS groups take the chain count and more the merge
    count; the two agree."""
    pop, targets = sweep_population(n_groups, 3, 67)
    fair = apply_theta(pop, targets, ThetaPolicy(0.6))
    merge_calls = count_calls(monkeypatch, "_merge_count")
    chain_calls = count_calls(monkeypatch, "_chain_count")
    got = individual_fairness_error(pop, fair)
    assert merge_calls + chain_calls == [counter]
    assert got == individual_fairness_error_naive(pop, fair)
    assert got == _merge_count(pop, fair.values) / pop.raw_order.cross_pairs
    runs, descending = _group_runs(pop.raw_order, fair.values)
    assert not descending.any()
    assert got == _chain_count(pop, runs) / pop.raw_order.cross_pairs


def test_ife_merges_for_scores_that_descend_in_a_group(monkeypatch):
    """A FairScores from the library API need not be monotone in a group; it
    takes the merge count, however few the groups."""
    pop, targets = sweep_population(2, 60, 71)
    fv = apply_theta(pop, targets, ThetaPolicy(0.5)).values.copy()
    lo, hi = pop.groups[GroupKey(("g1",))][[0, -1]]
    fv[lo], fv[hi] = fv[hi] + 1.0, fv[lo] - 1.0
    fair = FairScores(fv, ThetaPolicy(0.5))
    assert _group_runs(pop.raw_order, fv)[1].tolist() == [False, True]
    merge_calls = count_calls(monkeypatch, "_merge_count")
    chain_calls = count_calls(monkeypatch, "_chain_count")
    assert individual_fairness_error(pop, fair) == individual_fairness_error_naive(pop, fair)
    assert merge_calls == ["_merge_count"] and chain_calls == []


def test_raw_order_is_built_once_per_population(monkeypatch):
    builds = []
    build = fairscore.population._raw_order

    def counted(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(fairscore.population, "_raw_order", counted)
    pop, targets = sweep_population(3, 30, 73)
    for theta in (0.0, 0.5, 1.0):
        fair = apply_theta(pop, targets, ThetaPolicy(theta))
        build_report(pop, fair, m=20, rule=SelectionRule(top_k=10))
    assert builds == [1]
    order = pop.raw_order
    for array in (order.merged, order.by_group, order.group_starts, order.tie_start):
        assert not array.flags.writeable


def test_report_fairness_fields_equal_each_metric_alone():
    """``build_report``'s individual and group fairness errors read as each
    metric called by itself."""
    pop, targets = sweep_population(3, 30, 79)
    for theta in (0.0, 0.5, 1.0):
        fair = apply_theta(pop, targets, ThetaPolicy(theta))
        report = build_report(pop, fair, m=20)
        assert report.individual_fairness_error == individual_fairness_error(pop, fair)
        gw2, gks = group_fairness_error(pop, fair, 20)
        assert (report.group_fairness_w2, report.group_fairness_ks) == (gw2, gks)



@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group_count=st.integers(1, 40),
    mode=st.sampled_from(["threshold", "top_k"]),
)
def test_selection_rates_by_group_codes_match_per_group_counts(seed, group_count, mode):
    """One ``bincount`` over the group codes gives each group's rate as the
    float ``count_nonzero / size`` of its own rows, with fair-score ties at
    the threshold and at the cut. The top-k reference sorts the rows by
    (fair, raw, id) in Python."""
    pop = seeded_population(seed, group_count)
    weights = [len(pop.groups[k]) / len(pop) for k in pop.group_keys()]
    dists = [empirical_from_samples(pop.group_scores(k)) for k in pop.group_keys()]
    targets = barycenter_targets(pop, barycenter_1d(dists, weights, 7))
    fair = apply_theta(pop, targets, seeded_policy(seed, pop))
    fv, raw, n = fair.values.tolist(), pop.scores.tolist(), len(pop)
    rng = np.random.default_rng(seed + 2)
    selected = np.zeros(n, dtype=bool)
    if mode == "threshold":
        rule = SelectionRule(threshold=fv[rng.integers(n)])
        selected[:] = fair.values >= rule.threshold
    else:
        rule = SelectionRule(top_k=int(rng.integers(1, n + 1)))
        ranked = sorted(range(n), key=lambda i: (fv[i], raw[i], pop.ids[i]))
        selected[ranked[n - rule.top_k :]] = True
    expected = {
        key: float(np.count_nonzero(selected[idx]) / idx.size) for key, idx in pop.groups.items()
    }
    rates = selection_rates(pop, fair, rule).rates
    assert list(rates) == list(expected)
    assert all(type(rate) is float for rate in rates.values())
    assert rates == expected
