"""Acceptance suite. Each test prints one pass/fail line for its criterion."""

import csv
import json
import time

import numpy as np
import pytest

from fairscore import (
    DiscreteMeasure,
    ScoreRecord,
    SelectionRule,
    ThetaPolicy,
    barycenter_1d,
    build_population,
    empirical_from_samples,
    interpolate_scores,
    selection_rates,
    sinkhorn_plan,
    utility_loss,
    w2_distance,
)
from fairscore.cli import main
from fairscore.oracle import barycenter_coordinate_oracle, lp_transport_exact, ot_cost_bruteforce
from fairscore.transportnd import compute_barycenter_nd, squared_cost_matrix

from conftest import interpolate_scores_nd, population_from_records, two_gaussian_columns


def report(number, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def group_dists(pop):
    return [empirical_from_samples(pop.group_scores(k)) for k in pop.group_keys()]


def size_weights(pop):
    return [len(pop.groups[k]) / len(pop) for k in pop.group_keys()]


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    points = np.concatenate([a, b])

    def ecdf(values):
        return np.searchsorted(np.sort(values), points, side="right") / values.size

    return float(np.max(np.abs(ecdf(a) - ecdf(b))))


def fit_transform(pop, theta, m):
    bary = barycenter_1d(group_dists(pop), size_weights(pop), m)
    return interpolate_scores(pop, bary, ThetaPolicy(theta))


@pytest.fixture(scope="module")
def fixture_pop():
    return build_population(*two_gaussian_columns(size=1000, seed=7))


def test_criterion_1_endpoint_identity(fixture_pop):
    start = time.perf_counter()
    fair = fit_transform(fixture_pop, 0.0, 1000)
    elapsed = time.perf_counter() - start
    bitwise = np.array_equal(fair.values, fixture_pop.scores)
    report(1, "endpoint identity", bitwise and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_parity_endpoint(fixture_pop):
    fair = fit_transform(fixture_pop, 1.0, 1000)
    keys = fixture_pop.group_keys()
    samples = {k: fair.values[np.asarray(fixture_pop.groups[k])] for k in keys}
    ks = ks_statistic(samples[keys[0]], samples[keys[1]])
    w2 = w2_distance(
        empirical_from_samples(samples[keys[0]]),
        empirical_from_samples(samples[keys[1]]),
        1000,
    )
    tau = float(np.median(fair.values))
    ratio = selection_rates(fixture_pop, fair, SelectionRule(threshold=tau)).ratio
    ok = ks <= 0.02 and w2 <= 1e-9 and 0.95 <= ratio <= 1.0
    report(2, "parity endpoint", ok, f"ks={ks:.4f} w2={w2:.2e} ratio={ratio:.3f}")


def test_criterion_3_monotonicity():
    rng = np.random.default_rng(123)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(10, 2001))
        n_groups = int(rng.integers(2, 5))
        names = [chr(ord("a") + g) for g in range(n_groups)]
        scores = np.round(rng.normal(size=n), 2)  # rounding forces ties
        assignments = rng.integers(n_groups, size=n)
        records = [
            ScoreRecord(f"r{i}", (names[assignments[i]],), float(scores[i]))
            for i in range(n)
        ]
        for g, name in enumerate(names):  # keep every group inhabited
            records.append(ScoreRecord(f"pad{g}", (name,), 0.0))
        pop = population_from_records(records, 1)
        bary = barycenter_1d(group_dists(pop), size_weights(pop), 256)
        policy = ThetaPolicy(
            float(rng.uniform(0, 1)),
            {k: float(rng.uniform(0, 1)) for k in pop.group_keys()},
        )
        fair = interpolate_scores(pop, bary, policy)
        raw = pop.scores
        for idx in pop.groups.values():
            idx = np.asarray(idx)
            order = np.lexsort((fair.values[idx], raw[idx]))
            r, f = raw[idx][order], fair.values[idx][order]
            for i in range(len(r) - 1):
                if r[i] == r[i + 1]:
                    if f[i] != f[i + 1]:
                        violations += 1
                elif f[i] > f[i + 1]:
                    violations += 1
    report(3, "within-group monotonicity", violations == 0, f"{violations} violations")


def test_criterion_4_linear_parity_decay():
    rng = np.random.default_rng(55)
    worst_w2 = 0.0
    worst_util = 0.0
    for _ in range(20):
        n = int(rng.integers(10, 200))
        records = [
            ScoreRecord(f"a{i}", ("A",), float(x))
            for i, x in enumerate(rng.normal(0, 1, n))
        ] + [
            ScoreRecord(f"b{i}", ("B",), float(x))
            for i, x in enumerate(rng.normal(rng.uniform(0, 3), rng.uniform(0.5, 2), n))
        ]
        pop = population_from_records(records, 1)
        dists = group_dists(pop)
        raw_w2 = w2_distance(dists[0], dists[1], n)
        full_util = utility_loss(pop, fit_transform(pop, 1.0, n))
        for theta in (0.25, 0.5, 0.75):
            fair = fit_transform(pop, theta, n)
            fair_dists = [
                empirical_from_samples(fair.values[np.asarray(pop.groups[k])])
                for k in pop.group_keys()
            ]
            got = w2_distance(fair_dists[0], fair_dists[1], n)
            worst_w2 = max(worst_w2, abs(got - (1 - theta) * raw_w2))
            util = utility_loss(pop, fair)
            worst_util = max(
                worst_util,
                abs(util[0] - theta * full_util[0]),
                abs(util[1] - theta * full_util[1]),
            )
    ok = worst_w2 <= 1e-9 and worst_util <= 1e-9
    report(4, "linear parity decay", ok, f"w2 gap {worst_w2:.2e}, utility gap {worst_util:.2e}")


def test_criterion_5_transport_oracles():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst_w2 = 0.0
    worst_bary = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = rng.uniform(-2, 2, size=n)
        y = rng.uniform(-2, 2, size=n)
        dx, dy = empirical_from_samples(x), empirical_from_samples(y)
        worst_w2 = max(worst_w2, abs(w2_distance(dx, dy, n) ** 2 - ot_cost_bruteforce(x, y)))

        k = int(rng.integers(2, 4))
        dists = [
            empirical_from_samples(rng.uniform(-2, 2, size=rng.integers(2, 8)))
            for _ in range(k)
        ]
        w = rng.dirichlet(np.ones(k))
        closed = barycenter_1d(dists, w, n).quantiles
        searched = barycenter_coordinate_oracle(dists, w, n, grid_resolution=1e-4).quantiles
        worst_bary = max(worst_bary, float(np.abs(closed - searched).max()))
    elapsed = time.perf_counter() - start
    ok = worst_w2 <= 1e-9 and worst_bary <= 1e-4 and elapsed < 30.0
    report(
        5,
        "transport oracles",
        ok,
        f"w2 gap {worst_w2:.2e}, barycenter gap {worst_bary:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_sinkhorn_correctness():
    rng = np.random.default_rng(321)
    eps = 0.05
    slack = eps * np.log(36.0)
    ok = True
    detail = ""
    for _ in range(50):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        mu = DiscreteMeasure(rng.uniform(size=(n, 2)), rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(rng.uniform(size=(m, 2)), rng.dirichlet(np.ones(m)))
        plan = sinkhorn_plan(mu, nu, epsilon=eps, tol=1e-10)
        row_err = np.abs(plan.matrix.sum(axis=1) - mu.masses).sum()
        col_err = np.abs(plan.matrix.sum(axis=0) - nu.masses).sum()
        cost = plan.cost(squared_cost_matrix(mu.support, nu.support))
        lp_cost, _ = lp_transport_exact(mu, nu)
        if row_err > 1e-6 or col_err > 1e-6:
            ok, detail = False, f"marginal error {max(row_err, col_err):.2e}"
            break
        if not (lp_cost - 1e-9 <= cost <= lp_cost + slack + 1e-9):
            ok, detail = False, f"cost {cost:.6f} outside [{lp_cost:.6f}, {lp_cost + slack:.6f}]"
            break

    if ok:
        # mirrored point clouds must land on matching images at theta = 1,
        # with the barycenter support covering the inter-cloud midpoints
        a = rng.normal(loc=(1.0, 0.5), scale=0.2, size=(25, 2))
        b = -a
        records = [
            ScoreRecord(f"a{i}", ("A",), tuple(map(float, p))) for i, p in enumerate(a)
        ] + [
            ScoreRecord(f"b{i}", ("B",), tuple(map(float, p))) for i, p in enumerate(b)
        ]
        pop = population_from_records(records, 1)
        mirror_eps = 0.01
        midpoints = ((a[:, None, :] + b[None, :, :]) / 2.0).reshape(-1, 2)
        support = np.vstack([a, b, midpoints])
        masses = np.full(len(a), 1.0 / len(a))
        from fairscore import barycenter_fixed_support

        bary = barycenter_fixed_support(
            [DiscreteMeasure(a, masses), DiscreteMeasure(b, masses)],
            [0.5, 0.5],
            support,
            epsilon=mirror_eps,
            tol=1e-9,
        )
        fair = interpolate_scores_nd(pop, bary, ThetaPolicy(1.0), epsilon=mirror_eps, tol=1e-9)
        keys = pop.group_keys()
        img_a = fair.values[np.asarray(pop.groups[keys[0]])]
        img_b = fair.values[np.asarray(pop.groups[keys[1]])]
        scores = pop.scores
        span = scores.max(axis=0) - scores.min(axis=0)
        # epsilon is defined on [0, 1]-normalized scores; scale the bound back
        gap = max(
            float(np.abs(np.sort(img_a[:, d]) - np.sort(img_b[:, d])).max() / span[d])
            for d in range(2)
        )
        ok = gap <= 10 * mirror_eps
        detail = f"mirror image gap {gap:.4f} (normalized)"
    report(6, "sinkhorn correctness", ok, detail)


def write_fixture_csv(path, columns):
    ids, (groups,), scores = columns
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "group", "score"])
        for rec_id, group, score in zip(ids, groups, scores.tolist()):
            writer.writerow([rec_id, group, format(score, ".17g")])


def fixture_config(tmp_path, **extra):
    cfg = {
        "input": str(tmp_path / "pop.csv"),
        "score_columns": ["score"],
        "group_columns": ["group"],
        "id_column": "id",
        "grid_size": 1000,
        "min_group_size": 1,
        "output": str(tmp_path / "out.csv"),
        "report": str(tmp_path / "report.json"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_criterion_7_tradeoff_monotonicity(tmp_path):
    write_fixture_csv(tmp_path / "pop.csv", two_gaussian_columns(size=1000, seed=7))
    cfg = fixture_config(tmp_path, output=str(tmp_path / "sweep.csv"))
    thetas = ",".join(f"{t:.1f}" for t in np.linspace(0, 1, 11))
    assert main(["sweep", "--config", cfg, "--thetas", thetas]) == 0
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    w2 = [float(r["group_fairness_w2"]) for r in rows]
    ife = [float(r["individual_fairness_error"]) for r in rows]
    strictly_down = all(a > b for a, b in zip(w2, w2[1:]))
    nondecreasing = all(a <= b for a, b in zip(ife, ife[1:]))
    report(
        7,
        "trade-off monotonicity",
        strictly_down and nondecreasing,
        f"w2 {w2[0]:.3f}->{w2[-1]:.2e}, ife {ife[0]:.3f}->{ife[-1]:.3f}",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    write_fixture_csv(tmp_path / "pop.csv", two_gaussian_columns(size=200, seed=7))
    cfg = fixture_config(tmp_path, theta=0.6)
    assert main(["transform", "--config", cfg]) == 0
    csv1 = (tmp_path / "out.csv").read_bytes()
    rep1 = (tmp_path / "report.json").read_bytes()
    assert main(["transform", "--config", cfg]) == 0
    identical = (tmp_path / "out.csv").read_bytes() == csv1
    identical = identical and (tmp_path / "report.json").read_bytes() == rep1
    report(8, "pipeline determinism", identical)


def test_criterion_9_hand_fixture():
    records = [
        ScoreRecord("a1", ("A",), 0.0),
        ScoreRecord("a2", ("A",), 2.0),
        ScoreRecord("b1", ("B",), 2.0),
        ScoreRecord("b2", ("B",), 4.0),
    ]
    pop = population_from_records(records, 1)
    bary = barycenter_1d(group_dists(pop), [0.5, 0.5], 2)
    at_one = interpolate_scores(pop, bary, ThetaPolicy(1.0)).values
    at_half = interpolate_scores(pop, bary, ThetaPolicy(0.5)).values
    ok = np.array_equal(at_one, [1.0, 3.0, 1.0, 3.0]) and np.array_equal(
        at_half, [0.5, 2.5, 1.5, 3.5]
    )
    report(9, "hand-computed fixture", ok, f"theta=1 {at_one}, theta=0.5 {at_half}")
