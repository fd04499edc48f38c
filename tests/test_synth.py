import pytest

from fairscore import Beta, Gaussian, GroupKey, GroupSpec, Uniform, ValidationError, generate_synthetic

from conftest import two_gaussian_columns


def spec(name, size, *dims):
    return GroupSpec(key=GroupKey((name,)), size=size, dims=dims)


def same_columns(a, b):
    return a[:2] == b[:2] and a[2].tobytes() == b[2].tobytes()


def test_determinism():
    specs = [spec("A", 50, Gaussian(0.4, 0.1)), spec("B", 80, Uniform(0, 1))]
    assert same_columns(generate_synthetic(specs, seed=3), generate_synthetic(specs, seed=3))


def test_group_order_does_not_perturb_draws():
    a = spec("A", 50, Gaussian(0.4, 0.1))
    b = spec("B", 50, Gaussian(0.6, 0.1))
    assert same_columns(generate_synthetic([a, b], seed=5), generate_synthetic([b, a], seed=5))


def test_seed_changes_draws():
    specs = [spec("A", 20, Gaussian(0.5, 0.1))]
    assert not same_columns(generate_synthetic(specs, 1), generate_synthetic(specs, 2))


def test_counts_and_ordering():
    ids, (groups,), scores = generate_synthetic(
        [spec("B", 200, Uniform(0, 1)), spec("A", 100, Uniform(0, 1))], seed=0
    )
    assert len(ids) == len(groups) == scores.shape[0] == 300
    assert groups == ["A"] * 100 + ["B"] * 200
    assert ids[0] == "A-0"
    assert ids[-1] == "B-199"


def test_gaussian_moments():
    scores = generate_synthetic([spec("A", 10000, Gaussian(0.5, 0.1))], seed=9)[2]
    assert scores.shape == (10000,)
    assert abs(scores.mean() - 0.5) < 0.005  # 3 sigma / sqrt(n) bound
    assert abs(scores.std() - 0.1) < 0.01


def test_beta_and_uniform_moments():
    scores = generate_synthetic(
        [spec("A", 20000, Beta(2, 2)), spec("B", 20000, Uniform(0, 2))], seed=11
    )[2]
    assert abs(scores[:20000].mean() - 0.5) < 0.01
    assert abs(scores[20000:].mean() - 1.0) < 0.02


def test_multidimensional_scores():
    scores = generate_synthetic([spec("A", 10, Gaussian(0, 1), Uniform(0, 1))], seed=2)[2]
    assert scores.shape == (10, 2)


def test_invalid_parameters_rejected():
    with pytest.raises(ValidationError):
        generate_synthetic([spec("A", 10, Gaussian(0.5, 0.0))], 0)
    with pytest.raises(ValidationError):
        generate_synthetic([spec("A", 10, Beta(0.0, 1.0))], 0)
    with pytest.raises(ValidationError):
        generate_synthetic([spec("A", 10, Uniform(1.0, 1.0))], 0)
    with pytest.raises(ValidationError):
        generate_synthetic([spec("A", 0, Gaussian(0, 1))], 0)
    with pytest.raises(ValidationError):
        generate_synthetic([], 0)
    with pytest.raises(ValidationError):
        generate_synthetic([spec("A", 5, Gaussian(0, 1)), spec("A", 5, Gaussian(0, 1))], 0)
    two_values = GroupSpec(key=GroupKey(("B", "x")), size=5, dims=(Gaussian(0, 1),))
    with pytest.raises(ValidationError, match="same number of values"):
        generate_synthetic([spec("A", 5, Gaussian(0, 1)), two_values], 0)


def test_two_gaussian_fixture_shape():
    scores = two_gaussian_columns(size=1000, seed=7)[2]
    assert scores.shape == (2000,)
    assert abs(scores[:1000].mean() - 0.4) < 0.01
    assert abs(scores[1000:].mean() - 0.6) < 0.01
