import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairscore import (
    DimensionError,
    GroupKey,
    ScoreRecord,
    ValidationError,
    build_population,
    validate_population,
)

from conftest import population_from_records


def rec(i, group, score=1.0):
    return ScoreRecord(str(i), group if isinstance(group, tuple) else (group,), score)


bar_prone = st.sampled_from(["", "a", "|", "\\", "a|", "\\|"])


@settings(max_examples=200)
@given(st.lists(st.tuples(bar_prone, bar_prone), min_size=2, max_size=2, unique=True))
def test_distinct_group_keys_have_distinct_names(pair):
    first, second = (GroupKey(values) for values in pair)
    assert str(first) != str(second)


def test_group_key_name_escapes_bar_and_backslash():
    assert str(GroupKey(("F", "Zoë"))) == "F|Zoë"
    assert str(GroupKey(("a|b", "c"))) == "a\\|b|c"
    assert str(GroupKey(("a", "b\\"))) == "a|b\\\\"


def test_single_attribute_partition():
    pop = population_from_records([rec(0, "A"), rec(1, "A"), rec(2, "B"), rec(3, "B")], 1)
    assert len(pop.groups) == 2
    assert len(pop.groups[GroupKey(("A",))]) == 2
    assert len(pop.groups[GroupKey(("B",))]) == 2


def test_intersectional_partition():
    pop = population_from_records(
        [rec(0, ("f", "x")), rec(1, ("f", "y")), rec(2, ("f", "x"))], 2
    )
    assert len(pop.groups) == 2
    assert pop.groups[GroupKey(("f", "x"))].tolist() == [0, 2]
    assert pop.groups[GroupKey(("f", "y"))].tolist() == [1]


def test_duplicate_id_rejected():
    records = [ScoreRecord("a", ("A",), 1.0), ScoreRecord("a", ("B",), 2.0)]
    with pytest.raises(ValidationError, match="duplicate"):
        population_from_records(records, 1)


def test_inconsistent_dimension_rejected():
    records = [rec(0, "A", 1.0), rec(1, "A", (1.0, 2.0))]
    with pytest.raises(ValidationError, match="dimension"):
        population_from_records(records, 1)


def test_nan_score_rejected():
    with pytest.raises(ValidationError, match="finite"):
        population_from_records([rec(0, "A", float("nan"))], 1)


def test_wrong_attribute_count_rejected():
    with pytest.raises(ValidationError):
        population_from_records([rec(0, ("A", "B"))], 1)


def test_empty_population_rejected():
    with pytest.raises(ValidationError):
        population_from_records([], 1)


def test_group_order_is_lexicographic():
    pop = population_from_records([rec(0, "c"), rec(1, "a"), rec(2, "b")], 1)
    assert [k.values for k in pop.groups] == [("a",), ("b",), ("c",)]


def test_min_group_size_warnings():
    records = [rec(i, "A") for i in range(500)] + [rec(1000 + i, "B") for i in range(40)]
    pop = population_from_records(records, 1)
    assert validate_population(pop, min_group_size=100) == [
        "group B has only 40 individuals (below the recommended minimum of 100); "
        "transport estimates may be unreliable"
    ]
    assert validate_population(pop, min_group_size=1) == []
    big = population_from_records(
        [rec(i, "A") for i in range(500)] + [rec(1000 + i, "B") for i in range(500)], 1
    )
    assert validate_population(big, min_group_size=100) == []


@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=60),
)
def test_partition_completeness_and_determinism(names):
    records = [rec(i, name, float(i)) for i, name in enumerate(names)]
    pop = population_from_records(records, 1)
    assert sum(len(idx) for idx in pop.groups.values()) == len(records)
    again = population_from_records(records, 1)
    assert {k: v.tolist() for k, v in pop.groups.items()} == {
        k: v.tolist() for k, v in again.groups.items()
    }
    assert list(pop.groups) == list(again.groups)
    seen = sorted(i for idx in pop.groups.values() for i in idx)
    assert seen == list(range(len(records)))


def test_scores_array_shapes():
    pop1 = population_from_records([rec(0, "A", 1.0), rec(1, "B", 2.0)], 1)
    assert pop1.scores.shape == (2,)
    pop2 = population_from_records([rec(0, "A", (1.0, 2.0)), rec(1, "B", (3.0, 4.0))], 1)
    assert pop2.scores.shape == (2, 2)
    np.testing.assert_array_equal(pop2.scores[pop2.groups[GroupKey(("B",))]], [[3.0, 4.0]])


def test_scores_array_is_built_once_and_read_only():
    pop = population_from_records([rec(0, "A", 1.0), rec(1, "B", 2.0)], 1)
    scores = pop.scores
    assert pop.scores is scores
    with pytest.raises(ValueError):
        scores[0] = 5.0
    assert pop.scores[0] == 1.0


def test_group_index_arrays_select_each_group_scores():
    names = ["b", "a", "c", "a", "b", "b", "c"]
    for score in (lambda i: float(i) / 3, lambda i: (float(i), -float(i))):
        records = [rec(i, name, score(i)) for i, name in enumerate(names)]
        pop = population_from_records(records, 1)
        for key, idx in pop.groups.items():
            expected = [r.score for r in records if r.group_values == key.values]
            np.testing.assert_array_equal(pop.scores[pop.groups[key]], expected)


def test_columnar_build_partitions_with_read_only_index_arrays():
    scores = np.array([0.5, 1.5, 2.5, 3.5])
    pop = build_population(["w", "x", "y", "z"], [["b", "a", "b", "a"]], scores)
    assert pop.ids == ("w", "x", "y", "z")
    assert pop.dimension == 1
    assert list(pop.groups) == [GroupKey(("a",)), GroupKey(("b",))]
    for key, expected in zip(pop.groups, ([1, 3], [0, 2])):
        idx = pop.groups[key]
        assert idx.dtype == np.intp and idx.tolist() == expected
        with pytest.raises(ValueError):
            idx[0] = 0
    with pytest.raises(ValueError):
        pop.scores[0] = 9.0
    scores[0] = 9.0  # the population holds its own copy
    assert pop.scores[0] == 0.5


def test_columnar_build_keeps_one_column_scores_one_dimensional():
    pop = build_population(["a", "b"], [["A", "B"]], np.array([[1.0], [2.0]]))
    assert pop.dimension == 1 and pop.scores.shape == (2,)
    pop2 = build_population(["a", "b"], [["A", "B"]], [[1.0, 2.0], [3.0, 4.0]])
    assert pop2.dimension == 2 and pop2.scores.shape == (2, 2)


def test_columnar_build_rejects_misaligned_columns():
    with pytest.raises(ValidationError, match="one entry per row"):
        build_population(["a", "b"], [["A"]], [1.0, 2.0])
    with pytest.raises(ValidationError, match="one entry per row"):
        build_population(["a", "b"], [["A", "B"]], [1.0])
    with pytest.raises(ValidationError, match="one entry per row"):
        build_population(["a", "b"], [["A", "B"], ["x"]], [1.0, 2.0])
    with pytest.raises(ValidationError, match="one entry per row"):
        build_population(["a", "b"], [], [1.0, 2.0])


def test_first_bad_row_wins_between_duplicate_and_non_finite():
    groups = [["A"] * 3]
    with pytest.raises(ValidationError, match="'b' has a non-finite"):
        build_population(["a", "b", "a"], groups, [1.0, float("nan"), 2.0])
    with pytest.raises(ValidationError, match="duplicate record id 'a'"):
        build_population(["a", "a", "c"], groups, [1.0, 2.0, float("inf")])


def test_records_view_round_trips_the_records():
    records = [rec(0, ("f", "x"), 1.5), rec(1, ("m", "y"), -0.0), rec(2, ("f", "x"), 3.0)]
    pop = population_from_records(records, 2)
    assert len(pop.records) == 3
    assert list(pop.records) == records
    assert pop.records[-1] == records[-1]
    pop2 = population_from_records([rec(0, "A", (1.0, 2.0)), rec(1, "B", (3.0, 4.0))], 1)
    assert pop2.records[1] == rec(1, "B", (3.0, 4.0))


def test_group_codes_index_the_partition():
    pop = population_from_records([rec("b", "B"), rec("a", "A"), rec("c", "B")], 1)
    assert pop.group_codes.tolist() == [1, 0, 1]
    for code, idx in enumerate(pop.groups.values()):
        assert np.flatnonzero(pop.group_codes == code).tolist() == idx.tolist()
    with pytest.raises(ValueError):
        pop.group_codes[0] = 0


def test_group_indices_ascend_at_scale():
    rng = np.random.default_rng(5)
    n = 5000
    names = rng.choice(["c", "a", "b"], size=n)
    ids = [str(i) for i in range(n)]
    pop = build_population(ids, [[str(v) for v in names]], rng.normal(size=n))
    assert [k.values for k in pop.groups] == [("a",), ("b",), ("c",)]
    for key, idx in pop.groups.items():
        assert np.all(np.diff(idx) > 0)
        assert (names[idx] == key.values[0]).all()
    assert sum(idx.size for idx in pop.groups.values()) == n


@pytest.mark.parametrize(
    "scores, groups, by_group, tie_start, cross_pairs",
    [
        ([0.5, -1.0, 2.0, 0.0], "ABAB", [0, 2, 1, 3], [2, 3, 0, 1], 4),
        ([7.0], "A", [0], [0], 0),
        # -0.0 == 0.0 is a tie; of the 6 cross pairs, 3 are tied
        ([-0.0, 1.0, 0.0, 1.0, 1.0], "AABBA", [0, 1, 4, 2, 3], [0, 2, 2, 0, 2], 3),
        ([1.0, 1.0, 1.0], "ABA", [0, 2, 1], [0, 0, 0], 0),
    ],
)
def test_raw_order_is_cached_and_read_only(scores, groups, by_group, tie_start, cross_pairs):
    n = len(scores)
    pop = build_population([str(i) for i in range(n)], [list(groups)], scores)
    order = pop.raw_order
    assert order is pop.raw_order
    raw = np.array(scores)
    assert sorted(order.merged.tolist()) == list(range(n))
    assert np.all(np.diff(raw[order.merged]) >= 0)
    assert order.by_group.tolist() == by_group
    sizes = [idx.size for idx in pop.groups.values()]
    assert order.group_starts.tolist() == np.cumsum([0] + sizes).tolist()
    assert order.tie_start.tolist() == tie_start
    assert order.cross_pairs == cross_pairs
    for array in (order.merged, order.by_group, order.group_starts, order.tie_start):
        with pytest.raises(ValueError):
            array[0] = 0


def test_raw_order_counts_cross_pairs_like_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        raw = rng.integers(-3, 4, n) / 2.0
        raw[raw == 0.0] *= rng.choice([-1.0, 1.0], int(np.sum(raw == 0.0)))
        codes = rng.integers(0, int(rng.integers(1, 6)), n)
        pop = build_population([f"r{i}" for i in range(n)], [[f"g{c}" for c in codes]], raw)
        order = pop.raw_order
        pairs = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if codes[i] != codes[j] and raw[i] != raw[j]
        )
        assert order.cross_pairs == pairs
        # each group's run is in raw order, and tie_start counts the smaller scores
        for lo, hi in zip(order.group_starts[:-1], order.group_starts[1:]):
            assert np.all(np.diff(raw[order.by_group[lo:hi]]) >= 0)
        below = [int(np.sum(raw < raw[i])) for i in order.by_group]
        assert order.tie_start.tolist() == below


def test_raw_order_is_for_1d_scores():
    pop = build_population(["a", "b"], [["A", "B"]], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DimensionError):
        pop.raw_order


def tuple_partition(group_columns):
    """The coding build_population replaced: one group tuple per row, coded by
    a dict over the sorted distinct tuples, then one stable argsort."""
    rows = list(zip(*group_columns))
    distinct = sorted(set(rows))
    code_of = {values: code for code, values in enumerate(distinct)}
    codes = np.array([code_of[values] for values in rows], dtype=np.intp)
    order = np.argsort(codes, kind="stable")
    bounds = np.cumsum(np.bincount(codes, minlength=len(distinct)))[:-1]
    return [GroupKey(values) for values in distinct], codes, np.split(order, bounds)


def assert_partition_matches_tuples(group_columns):
    n = len(group_columns[0])
    pop = build_population([str(i) for i in range(n)], group_columns, np.zeros(n))
    keys, codes, parts = tuple_partition(group_columns)
    assert list(pop.groups) == keys
    assert pop.group_codes.tolist() == codes.tolist()
    assert [idx.tolist() for idx in pop.groups.values()] == [part.tolist() for part in parts]


# prefixes of one another, non-ASCII, and the empty string, besides any short text
_GROUP_VALUES = st.one_of(
    st.sampled_from(["a", "ab", "abc", "b", "", "Zoë", "Zoe", "東京", "ß", "a b"]),
    st.text(max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(st.tuples(*[_GROUP_VALUES] * width), min_size=1, max_size=40)
    )
)
@example([("same", "x")] * 5)  # a single group
@example([("ab",), ("a",), ("b",), ("a",), ("",)])  # prefixes
def test_column_coding_equals_row_tuple_coding(rows):
    assert_partition_matches_tuples([list(column) for column in zip(*rows)])


def test_column_coding_equals_row_tuple_coding_at_4096_levels_per_column():
    rng = np.random.default_rng(17)
    n = 6000
    levels = [f"v{k}" for k in range(4096)]
    columns = []
    for _ in range(3):
        # every level appears, and the rest of the rows repeat random levels
        codes = np.concatenate([np.arange(4096), rng.integers(0, 4096, n - 4096)])
        columns.append([levels[c] for c in rng.permutation(codes)])
    assert_partition_matches_tuples(columns)
