import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairscore import (
    GroupKey,
    ScoreRecord,
    ValidationError,
    build_population,
    validate_population,
)


def rec(i, group, score=1.0):
    return ScoreRecord(str(i), group if isinstance(group, tuple) else (group,), score)


def test_single_attribute_partition():
    pop = build_population([rec(0, "A"), rec(1, "A"), rec(2, "B"), rec(3, "B")], 1)
    assert len(pop.groups) == 2
    assert len(pop.groups[GroupKey(("A",))]) == 2
    assert len(pop.groups[GroupKey(("B",))]) == 2


def test_intersectional_partition():
    pop = build_population(
        [rec(0, ("f", "x")), rec(1, ("f", "y")), rec(2, ("f", "x"))], 2
    )
    assert len(pop.groups) == 2
    assert pop.groups[GroupKey(("f", "x"))] == (0, 2)
    assert pop.groups[GroupKey(("f", "y"))] == (1,)


def test_duplicate_id_rejected():
    records = [ScoreRecord("a", ("A",), 1.0), ScoreRecord("a", ("B",), 2.0)]
    with pytest.raises(ValidationError, match="duplicate"):
        build_population(records, 1)


def test_inconsistent_dimension_rejected():
    records = [rec(0, "A", 1.0), rec(1, "A", (1.0, 2.0))]
    with pytest.raises(ValidationError, match="dimension"):
        build_population(records, 1)


def test_nan_score_rejected():
    with pytest.raises(ValidationError, match="finite"):
        build_population([rec(0, "A", float("nan"))], 1)


def test_wrong_attribute_count_rejected():
    with pytest.raises(ValidationError):
        build_population([rec(0, ("A", "B"))], 1)


def test_empty_population_rejected():
    with pytest.raises(ValidationError):
        build_population([], 1)


def test_group_order_is_lexicographic():
    pop = build_population([rec(0, "c"), rec(1, "a"), rec(2, "b")], 1)
    assert [k.values for k in pop.group_keys()] == [("a",), ("b",), ("c",)]


def test_min_group_size_warnings():
    records = [rec(i, "A") for i in range(500)] + [rec(1000 + i, "B") for i in range(40)]
    pop = build_population(records, 1)
    assert validate_population(pop, min_group_size=100) != []
    (warning,) = validate_population(pop, min_group_size=100)
    assert warning.group == GroupKey(("B",))
    assert warning.size == 40
    assert validate_population(pop, min_group_size=1) == []
    big = build_population(
        [rec(i, "A") for i in range(500)] + [rec(1000 + i, "B") for i in range(500)], 1
    )
    assert validate_population(big, min_group_size=100) == []


@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=60),
)
def test_partition_completeness_and_determinism(names):
    records = [rec(i, name, float(i)) for i, name in enumerate(names)]
    pop = build_population(records, 1)
    assert sum(len(idx) for idx in pop.groups.values()) == len(records)
    again = build_population(records, 1)
    assert pop.groups == again.groups
    assert list(pop.groups) == list(again.groups)
    seen = sorted(i for idx in pop.groups.values() for i in idx)
    assert seen == list(range(len(records)))


def test_scores_array_shapes():
    pop1 = build_population([rec(0, "A", 1.0), rec(1, "B", 2.0)], 1)
    assert pop1.scores_array().shape == (2,)
    pop2 = build_population([rec(0, "A", (1.0, 2.0)), rec(1, "B", (3.0, 4.0))], 1)
    assert pop2.scores_array().shape == (2, 2)
    np.testing.assert_array_equal(pop2.group_scores(GroupKey(("B",))), [[3.0, 4.0]])


def test_scores_array_is_built_once_and_read_only():
    pop = build_population([rec(0, "A", 1.0), rec(1, "B", 2.0)], 1)
    scores = pop.scores_array()
    assert pop.scores_array() is scores
    with pytest.raises(ValueError):
        scores[0] = 5.0
    assert pop.scores_array()[0] == 1.0


def test_group_scores_index_the_cached_array():
    names = ["b", "a", "c", "a", "b", "b", "c"]
    for score in (lambda i: float(i) / 3, lambda i: (float(i), -float(i))):
        pop = build_population([rec(i, name, score(i)) for i, name in enumerate(names)], 1)
        for key, idx in pop.groups.items():
            np.testing.assert_array_equal(pop.group_scores(key), pop.scores_array()[list(idx)])
