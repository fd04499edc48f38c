import ast
import csv
import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairscore

from fairscore import QuantileGrid
from fairscore.cli import RunConfig, main


AB_CSV = "id,sex,score\na1,A,0\na2,A,2\nb1,B,2\nb2,B,4\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def base_config(tmp_path, **extra):
    cfg = {
        "input": str(tmp_path / "in.csv"),
        "score_columns": ["score"],
        "group_columns": ["sex"],
        "id_column": "id",
        "grid_size": 2,
        "min_group_size": 1,
        "output": str(tmp_path / "out.csv"),
        "report": str(tmp_path / "report.json"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_transform_theta_zero_identity(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, theta=0.0)
    assert main(["transform", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert rows[0] == ["id", "sex", "score", "fair_score"]
    assert [r[3] for r in rows[1:]] == ["0", "2", "2", "4"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["utility_loss_mean_abs"] == 0.0
    assert report["individual_fairness_error"] == 0.0


def test_transform_hand_fixture_theta_one(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, theta=1.0)
    assert main(["transform", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r[3] for r in rows[1:]] == ["1", "3", "1", "3"]


def test_transform_preserves_row_order_and_columns(tmp_path):
    text = "id,sex,note,score\nx,B,keep me,4\ny,A,zz,0\nz,A, spaced ,2\nw,B,4,2\n"
    write(tmp_path / "in.csv", text)
    cfg = base_config(tmp_path, theta=0.5)
    assert main(["transform", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r[:4] for r in rows] == [r for r in read_rows(tmp_path / "in.csv")]


def test_transform_missing_group_value(tmp_path, capsys):
    lines = ["id,sex,score"] + [f"r{i},A,{i}" for i in range(5)] + ["r6,,9"]
    write(tmp_path / "in.csv", "\n".join(lines) + "\n")
    cfg = base_config(tmp_path)
    assert main(["transform", "--config", cfg]) == 2
    assert "row 7" in capsys.readouterr().err


def test_transform_non_numeric_score(tmp_path, capsys):
    write(tmp_path / "in.csv", "id,sex,score\na,A,1\nb,B,oops\n")
    cfg = base_config(tmp_path)
    assert main(["transform", "--config", cfg]) == 2
    assert "row 3" in capsys.readouterr().err


def test_transform_missing_column(tmp_path, capsys):
    write(tmp_path / "in.csv", "id,sex,points\na,A,1\n")
    cfg = base_config(tmp_path)
    assert main(["transform", "--config", cfg]) == 2
    assert "score" in capsys.readouterr().err


def test_transform_determinism(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, theta=0.7)
    assert main(["transform", "--config", cfg]) == 0
    first_csv = (tmp_path / "out.csv").read_bytes()
    first_report = (tmp_path / "report.json").read_bytes()
    assert main(["transform", "--config", cfg]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first_csv
    assert (tmp_path / "report.json").read_bytes() == first_report


def test_flag_overrides_win(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, theta=0.0)
    assert main(["transform", "--config", cfg, "--theta", "1.0"]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r[3] for r in rows[1:]] == ["1", "3", "1", "3"]


def test_audit_writes_report_only(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, theta=1.0, selection_threshold=2.0)
    (tmp_path / "out.csv").unlink(missing_ok=True)
    assert main(["audit", "--config", cfg]) == 0
    assert not (tmp_path / "out.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["selection"]["ratio"] == 1.0


def test_sweep_outputs_table(tmp_path):
    text = "id,sex,score\na1,A,0\na2,A,1\nb1,B,10\nb2,B,11\n"
    write(tmp_path / "in.csv", text)
    cfg = base_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--thetas", "0,0.5,1"]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert rows[0][:3] == ["theta", "individual_fairness_error", "group_fairness_w2"]
    w2 = [float(r[2]) for r in rows[1:]]
    assert w2[0] == pytest.approx(10.0)
    assert w2[1] == pytest.approx(5.0, abs=1e-9)
    assert w2[2] <= 1e-9
    assert float(rows[1][1]) == 0.0
    assert float(rows[1][4]) == 0.0


def test_sweep_rows_match_audit_at_each_theta(tmp_path):
    text = "id,sex,score\n" + "".join(
        f"r{i},{'AB'[i % 2]},{(i * 7) % 11 / 4}\n" for i in range(40)
    )
    write(tmp_path / "in.csv", text)
    cfg = base_config(tmp_path, selection_top_k=9)
    thetas = ["0", "0.25", "0.75", "1"]
    assert main(["sweep", "--config", cfg, "--thetas", ",".join(thetas)]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert [r[0] for r in rows[1:]] == thetas
    for row in rows[1:]:
        assert main(["audit", "--config", cfg, "--theta", row[0]]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        expected = [
            report["individual_fairness_error"],
            report["group_fairness_w2"],
            report["group_fairness_ks"],
            report["utility_loss_mean_abs"],
            report["utility_loss_w2"],
            report["selection"]["ratio"],
        ]
        assert [float(v) for v in row[1:]] == expected


def test_sweep_keeps_theta_overrides_fixed(tmp_path):
    text = "id,sex,score\n" + "".join(
        f"r{i},{'AB'[i % 2]},{(i * 7) % 11 / 4}\n" for i in range(40)
    )
    write(tmp_path / "in.csv", text)
    cfg = base_config(tmp_path, theta_overrides=[{"group": ["A"], "theta": 0}])
    assert main(["sweep", "--config", cfg, "--thetas", "0,0.5,1"]) == 0
    rows = read_rows(tmp_path / "out.csv")
    for row in rows[1:]:
        assert main(["audit", "--config", cfg, "--theta", row[0]]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["theta"]["overrides"] == {"A": 0}
        expected = [report[name] for name in fairscore.metrics.METRICS]
        assert [float(v) for v in row[1:]] == expected


def test_sweep_override_for_an_absent_group_exits_2(tmp_path, capsys):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, theta_overrides=[{"group": ["Z"], "theta": 0.5}])
    assert main(["sweep", "--config", cfg, "--thetas", "0,1"]) == 2
    assert "theta override for nonexistent group Z" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_rejects_bad_theta(tmp_path, capsys, monkeypatch):
    import fairscore.cli

    def read_input(cfg):
        raise AssertionError("the input was read")

    monkeypatch.setattr(fairscore.cli, "load_csv", read_input)
    cfg = base_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--thetas", "0,1.5"]) == 2
    assert capsys.readouterr().err == "error: theta 1.5 outside [0, 1]\n"


def test_barycenter_grid_csv(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path)
    assert main(["barycenter", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert rows[0] == ["rank", "quantile"]
    assert [float(r[1]) for r in rows[1:]] == [1.0, 3.0]


def test_synth_command_roundtrip(tmp_path):
    cfg = base_config(
        tmp_path,
        synth={
            "seed": 4,
            "groups": [
                {"key": ["A"], "size": 30, "dims": [{"type": "gaussian", "mean": 0.4, "sd": 0.1}]},
                {"key": ["B"], "size": 20, "dims": [{"type": "uniform", "lo": 0, "hi": 1}]},
            ],
        },
    )
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", cfg, "--output", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["id", "sex", "score"]
    assert len(rows) == 51

    # the emitted CSV feeds straight back into transform
    cfg2 = base_config(tmp_path, input=str(out), theta=1.0)
    assert main(["transform", "--config", cfg2, "--grid-size", "100"]) == 0


# two-column keys that read alike when their values are joined with a bare "|"
BAR_KEYS = (["a|b", "c"], ["a", "b|c"])


def test_audit_reports_group_keys_that_contain_a_bar(tmp_path):
    rows = [f"r{i},{g1},{g2},{i / 40}" for i in range(40) for g1, g2 in [BAR_KEYS[i % 2]]]
    write(tmp_path / "in.csv", "\n".join(["id,g1,g2,score", *rows]) + "\n")
    overrides = [{"group": BAR_KEYS[0], "theta": 0.5}, {"group": BAR_KEYS[1], "theta": 0.25}]
    cfg = base_config(tmp_path, group_columns=["g1", "g2"], theta_overrides=overrides)
    assert main(["audit", "--config", cfg, "--top-k", "10"]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["selection"]["rates"] == {"a\\|b|c": 0.25, "a|b\\|c": 0.25}
    assert report["theta"]["overrides"] == {"a\\|b|c": 0.5, "a|b\\|c": 0.25}


def test_synth_keys_that_contain_a_bar_round_trip_through_audit(tmp_path):
    dims = [{"type": "uniform", "lo": 0, "hi": 1}]
    groups = [{"key": key, "size": 20, "dims": dims} for key in BAR_KEYS]
    cfg = base_config(tmp_path, group_columns=["g1", "g2"], synth={"seed": 2, "groups": groups})
    out = tmp_path / "synth.csv"
    assert main(["synth", "--config", cfg, "--output", str(out)]) == 0
    rows = read_rows(out)[1:]
    assert len({row[0] for row in rows}) == 40
    assert len({row[3] for row in rows}) == 40  # the two groups draw from different streams
    assert main(["audit", "--config", cfg, "--input", str(out)]) == 0


def test_verify_passes_on_tiny_fixture(tmp_path, capsys):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_negative_control(tmp_path, capsys, monkeypatch):
    import fairscore.oracle

    oracle = fairscore.oracle.barycenter_coordinate_oracle

    def shifted_oracle(*args, **kwargs):
        grid = oracle(*args, **kwargs)
        return QuantileGrid(grid.quantiles + 0.1)

    monkeypatch.setattr(fairscore.oracle, "barycenter_coordinate_oracle", shifted_oracle)
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["verify", "--config", base_config(tmp_path)]) == 1
    assert "FAIL barycenter vs coordinate search" in capsys.readouterr().out


def test_verify_negative_control_on_the_inversion_count(tmp_path, capsys, monkeypatch):
    import fairscore.oracle

    oracle = fairscore.oracle.individual_fairness_error_naive
    monkeypatch.setattr(
        fairscore.oracle, "individual_fairness_error_naive", lambda *a: oracle(*a) + 0.1
    )
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["verify", "--config", base_config(tmp_path, theta=1.0)]) == 1
    out = capsys.readouterr().out
    assert "PASS barycenter vs coordinate search" in out
    assert "FAIL individual fairness error vs pairwise enumeration: counted 0 vs enumerated 0.1\n" in out


def test_verify_guard_refusal(tmp_path):
    lines = ["id,sex,score"] + [f"r{i},A,{i}" for i in range(12)] + ["b,B,5"]
    write(tmp_path / "in.csv", "\n".join(lines) + "\n")
    cfg = base_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 2


def test_verify_refuses_more_rows_than_the_pairwise_oracle(tmp_path, capsys):
    # groups of 8 pass the per-group guard; 2001 rows are over the pairwise one
    lines = ["id,sex,score"] + [f"r{i},g{i // 8},{i % 8}" for i in range(2001)]
    write(tmp_path / "in.csv", "\n".join(lines) + "\n")
    assert main(["verify", "--config", base_config(tmp_path)]) == 2
    assert "verify refuses more than 2000 rows" in capsys.readouterr().err


def groups_of_equal_size(groups, size):
    return ["id,sex,score"] + [
        f"r{g}_{i},g{g},{(g * 7 + i * 3) % 11}" for g in range(groups) for i in range(size)
    ]


def test_verify_refuses_too_many_brute_force_pairs(tmp_path, capsys):
    # 12 groups of 8 rows pass every per-group and row guard, but 66 pairs
    # of 8! permutations would take about half a minute
    write(tmp_path / "in.csv", "\n".join(groups_of_equal_size(12, 8)) + "\n")
    start = time.perf_counter()
    assert main(["verify", "--config", base_config(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refuses more than 10 pairs of equal-size groups (the input has 66)" in captured.err


def test_verify_runs_every_pair_below_the_pair_guard(tmp_path, capsys):
    write(tmp_path / "in.csv", "\n".join(groups_of_equal_size(4, 4)) + "\n")
    assert main(["verify", "--config", base_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS w2(") == 6 and "FAIL" not in out


def test_verify_nd_instance(tmp_path, capsys):
    text = "id,sex,s1,s2\na1,A,0,0\na2,A,1,0\nb1,B,0,1\nb2,B,1,1\n"
    write(tmp_path / "in.csv", text)
    cfg = base_config(tmp_path)
    assert (
        main(["verify", "--config", cfg, "--score-columns", "s1,s2", "--epsilon", "0.05"]) == 0
    )
    assert "sinkhorn" in capsys.readouterr().out


# Two groups of 3 points on which plain Sinkhorn stalls near 4e-5 and 3e-5
# marginal error at these settings; epsilon scaling converges within tol.
@pytest.mark.parametrize(
    "a, b, epsilon",
    [
        ([(0, 0), (0.5, 0.25), (0.25, 0.5)], [(0.5, 0.5), (1, 0.75), (0.75, 1)], 0.01),
        ([(0, 0), (1, 0.5), (0.25, 1)], [(2, 1), (1.5, 2), (3, 1.5)], 0.01),
        ([(0, 0), (1, 0.5), (0.25, 1)], [(2, 1), (1.5, 2), (3, 1.5)], 0.05),
    ],
)
def test_verify_nd_converges_on_three_point_groups(tmp_path, capsys, a, b, epsilon):
    rows = [f"{g}{i},{g},{x},{y}" for g, points in (("A", a), ("B", b))
            for i, (x, y) in enumerate(points)]
    write(tmp_path / "in.csv", "\n".join(["id,sex,s1,s2", *rows]) + "\n")
    cfg = base_config(tmp_path, score_columns=["s1", "s2"], epsilon=epsilon)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS sinkhorn(A,B) vs exact LP: ") and "FAIL" not in out


def test_verify_nd_reports_an_unconverged_plan(tmp_path, capsys):
    # with one Sinkhorn sweep this plan's entropic cost lands inside the LP
    # bounds, so comparing it with the LP would pass although it is no coupling
    text = "id,sex,s1,s2\na0,A,0.25,0.75\na1,A,0.75,0.25\na2,A,0.5,1\n" \
        "b3,B,1,1\nb4,B,0.25,0.75\nb5,B,1,0.75\n"
    write(tmp_path / "in.csv", text)
    cfg = base_config(tmp_path, score_columns=["s1", "s2"], max_iter=1)
    assert main(["verify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL sinkhorn(A,B) converged: marginal error ")
    assert captured.out.endswith(" after 1 iterations\n")
    assert "exact LP" not in captured.out
    assert captured.err == "1 check(s) failed\n"


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    (tmp_path / "in.csv").write_bytes(b"id,sex,score\na1,A,0\n\xe9,B,1\n")
    assert main(["transform", "--config", base_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: input file {tmp_path / 'in.csv'} is not valid UTF-8: 'utf-8' codec can't "
        "decode byte 0xe9 in position 20: invalid continuation byte\n"
    )


def test_nd_transform_reports_bregman_nonconvergence(tmp_path, capsys):
    text = "id,sex,s1,s2\na1,A,0,0\na2,A,1,0\na3,A,0.2,0.4\nb1,B,0,1\nb2,B,1,1\n"
    write(tmp_path / "in.csv", text)
    cfg = base_config(tmp_path, score_columns=["s1", "s2"], max_iter=1)
    assert main(["transform", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: Bregman barycenter did not converge")
    assert "Traceback" not in err


def test_missing_config_file(tmp_path):
    assert main(["transform", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "extra",
    [
        {"theta": "abc"},
        {"theta_overrides": [{"theta": 0.5}]},
        {"weight_mode": "explicit", "explicit_weights": [{"weight": 0.5}]},
        {"theta_overrides": 0.5},
        {"theta_overrides": [{"group": 5, "theta": 0.5}]},
        {"theta": True},
        {"max_iter": float("inf")},
        {"grid_size": 2.5},
        {"theta": 10**400},
    ],
    ids=[
        "non-numeric-theta",
        "override-without-group",
        "weight-without-group",
        "not-a-list",
        "group-not-a-list",
        "bool-theta",
        "infinite-max-iter",
        "fractional-grid-size",
        "huge-integer-theta",
    ],
)
def test_malformed_config_value_exits_2(tmp_path, capsys, extra):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, **extra)
    assert main(["transform", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = write(tmp_path / "config.json", json.dumps([{"input": str(tmp_path / "in.csv")}]))
    assert main(["transform", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key", ["score_columns", "group_columns"])
def test_column_list_given_as_string_exits_2(tmp_path, capsys, key):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, **{key: "score"})
    assert main(["transform", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must be a list of strings" in err


def test_non_string_config_value_is_named(tmp_path, capsys):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, id_column=3)
    assert main(["transform", "--config", cfg]) == 2
    assert "config key 'id_column' value 3 is not a valid str" in capsys.readouterr().err


GAUSSIAN = {"type": "gaussian", "mean": 0.4, "sd": 0.1}


@pytest.mark.parametrize(
    "group",
    [
        {"size": 5, "dims": [GAUSSIAN]},
        {"key": ["A"], "size": 5},
        {"key": ["A"], "size": 5, "dims": [{"type": "gaussian", "mean": 0.4}]},
        {"key": ["A"], "size": "x", "dims": [GAUSSIAN]},
        {"key": "A", "size": 5, "dims": [GAUSSIAN]},
        {"key": ["A"], "size": 5, "dims": [{"type": ["gaussian"]}]},
    ],
    ids=["no-key", "no-dims", "gaussian-without-sd", "non-numeric-size", "string-key", "list-type"],
)
def test_malformed_synth_group_exits_2(tmp_path, capsys, group):
    cfg = base_config(tmp_path, synth={"seed": 1, "groups": [group]})
    assert main(["synth", "--config", cfg, "--output", str(tmp_path / "synth.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key", ["score_columns", "group_columns"])
def test_empty_column_list_exits_2(tmp_path, capsys, key):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, **{key: []})
    assert main(["transform", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_sweep_rejects_non_numeric_thetas(tmp_path, capsys):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--thetas", "0,half,1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name, value", [("max_iter", 0), ("tol", 0.0), ("epsilon", 0.0)])
def test_bad_solver_setting_exits_2(tmp_path, capsys, name, value):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, **{name: value})
    assert main(["transform", "--config", cfg]) == 2
    assert name in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(fairscore.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fairscore.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_csvio_loads_only_errors_and_the_cli_imports_no_csv_or_re():
    """``csvio`` owns the CSV format on its own: importing it loads no other
    fairscore module than ``errors``, and ``cli.py`` imports neither ``csv``
    nor ``re``, nor a private name of ``csvio``."""
    src = os.path.dirname(os.path.dirname(fairscore.__file__))
    code = (
        "import sys, fairscore.csvio\n"
        "loaded = {name for name in sys.modules if name.startswith('fairscore.')}\n"
        "assert loaded == {'fairscore.csvio', 'fairscore.errors'}, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)
    tree = ast.parse(Path(fairscore.cli.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)]
    imported = {alias.name for node in imports for alias in node.names}
    assert imported & {"csv", "re"} == set()
    from_csvio = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names = {alias.name for node in from_csvio if node.module == "csvio" for alias in node.names}
    assert names == {"commit", "read_csv", "refuse_one_file", "render_csv"}


def test_cli_and_transform_load_no_synth_oracle_or_hashlib(tmp_path):
    """Only ``verify`` loads ``oracle``, only a synth section or command
    loads ``synth``, which imports ``hashlib``, only n-D work and ``verify``
    load the entropic solver ``transportnd``, and only 1-D work and
    ``verify`` load the 1-D layer ``empirical`` and ``transport1d``."""
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path)
    (tmp_path / "nd").mkdir()
    write(tmp_path / "nd" / "in.csv", ND_CSV)
    nd_cfg = base_config(tmp_path / "nd", score_columns=["s1", "s2"])
    src = os.path.dirname(os.path.dirname(fairscore.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, fairscore.cli\n"
        "absent = ['fairscore.synth', 'fairscore.oracle', 'hashlib', 'fairscore.transportnd']\n"
        "assert not set(absent) & set(sys.modules), 'loaded on import'\n"
        f"assert fairscore.cli.main(['transform', '--config', {cfg!r}]) == 0\n"
        "assert not set(absent) & set(sys.modules), 'loaded by transform'\n"
        f"assert fairscore.cli.main(['sweep', '--thetas', '0,1', '--config', {cfg!r}]) == 0\n"
        "assert not set(absent) & set(sys.modules), 'loaded by sweep'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    nd_code = (
        "import sys, fairscore.cli\n"
        "absent = ['fairscore.synth', 'fairscore.oracle', 'hashlib', 'fairscore.empirical',\n"
        "          'fairscore.transport1d']\n"
        "assert not set(absent) & set(sys.modules), 'loaded on import'\n"
        "for command in ('transform', 'audit', 'barycenter'):\n"
        f"    assert fairscore.cli.main([command, '--config', {nd_cfg!r}]) == 0\n"
        "    assert not set(absent) & set(sys.modules), f'loaded by 2-D {command}'\n"
        "assert 'fairscore.transportnd' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", nd_code], env=env, check=True)


def test_nd_transform_does_not_depend_on_the_blas_thread_count(tmp_path):
    """2 x 1500 Gaussian 2-D points, where a BLAS matrix product splits its
    rows among threads, give the same bytes at 1 and at 2 threads."""
    rng = np.random.default_rng(7)
    lines = ["id,sex,s1,s2"]
    for g, mean, sd in (("A", (0.4, 0.5), 0.1), ("B", (0.6, 0.45), 0.12)):
        points = rng.normal(mean, sd, size=(1500, 2))
        lines += [f"{g}{i},{g},{x!r},{y!r}" for i, (x, y) in enumerate(points.tolist())]
    write(tmp_path / "in.csv", "\n".join(lines) + "\n")
    cfg = base_config(tmp_path, score_columns=["s1", "s2"], min_group_size=1)
    src = os.path.dirname(os.path.dirname(fairscore.__file__))
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "fairscore.cli", "transform", "--config", cfg],
                       env=env, check=True)
        written.append([(tmp_path / name).read_bytes() for name in ("out.csv", "report.json")])
    assert written[0] == written[1]


@pytest.mark.parametrize("theta", [0.5, 2.0], ids=["transform", "bad-config"])
def test_module_entry_point_matches_in_process_main(tmp_path, capsys, theta):
    """``python -m fairscore.cli`` exits as ``main`` returns, with the same
    output, though it runs with the collector off and ends in ``os._exit``."""
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, theta=theta, report=None)
    argv = ["transform", "--config", cfg]
    code = main(argv)
    expected = capsys.readouterr()
    written = (tmp_path / "out.csv").read_bytes() if code == 0 else None
    (tmp_path / "out.csv").unlink(missing_ok=True)
    src = os.path.dirname(os.path.dirname(fairscore.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run(
        [sys.executable, "-m", "fairscore.cli", *argv], env=env, capture_output=True, text=True
    )
    assert code == (0 if theta <= 1 else 2)
    assert (child.returncode, child.stdout, child.stderr) == (code, expected.out, expected.err)
    if code == 0:
        assert (tmp_path / "out.csv").read_bytes() == written
    else:
        assert not (tmp_path / "out.csv").exists()


def _piped_env():
    """A child's environment: this source tree, and stdout block-buffered, as
    Python makes it for a pipe unless told otherwise."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fairscore.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    return env


RUN_ENTRY = [sys.executable, "-c", "from fairscore.cli import _run; _run()"]


@pytest.mark.parametrize("code", [0, 1, 2], ids=["success", "failure", "invalid"])
def test_console_script_enters_where_the_module_does(tmp_path, capsys, code):
    """The installed ``fairscore`` command and ``python -m fairscore.cli`` run
    the same ``_run``, which ends its process: it exits with ``main``'s code,
    and the report it writes to a piped stdout is complete."""
    pyproject = (Path(fairscore.__file__).parents[2] / "pyproject.toml").read_text()
    assert '\n[project.scripts]\nfairscore = "fairscore.cli:_run"\n' in pyproject
    if code == 1:  # one Bregman sweep cannot converge
        write(tmp_path / "in.csv", ND_CSV)
        cfg = base_config(tmp_path, score_columns=["s1", "s2"], max_iter=1, report=None)
    else:
        write(tmp_path / "in.csv", AB_CSV)
        cfg = base_config(tmp_path, theta=2.0 if code == 2 else 0.5, report=None)
    argv = ["transform", "--config", cfg]
    assert main(argv) == code
    expected = capsys.readouterr()
    written = (tmp_path / "out.csv").read_bytes() if code == 0 else None
    (tmp_path / "out.csv").unlink(missing_ok=True)
    child = subprocess.run([*RUN_ENTRY, *argv], env=_piped_env(), capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == (code, expected.out, expected.err)
    if code == 0:
        assert expected.out.startswith("{\n") and expected.out.endswith("}\n")
        assert (tmp_path / "out.csv").read_bytes() == written
    else:
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("closed", ["after-first-line", "before-output", "unbuffered"])
def test_run_on_a_closed_stdout_exits_as_python_does(tmp_path, closed):
    """The report reaches the pipe in one write when ``_run`` flushes it. A
    reader that closes the pipe after the first line has taken it all, so the
    run exits 0; a pipe closed before any output fails that flush, and
    ``_run`` leaves the exit to Python, which reports it with status 120.
    Unbuffered (``PYTHONUNBUFFERED``), the report's own write fails instead,
    inside ``main``, which reports it as one ``failure:`` line with exit 1."""
    write(tmp_path / "in.csv", AB_CSV)
    argv = ["transform", "--config", base_config(tmp_path, report=None)]
    env = _piped_env()
    if closed == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    child = subprocess.Popen([*RUN_ENTRY, *argv], stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        if closed == "after-first-line":
            assert pipe.readline() == b"{\n"
    err = child.stderr.read().decode()
    child.stderr.close()
    codes = {"after-first-line": 0, "before-output": 120, "unbuffered": 1}
    assert child.wait(timeout=60) == codes[closed]
    if closed == "before-output":
        assert err == (
            "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
            "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n"
        )
    if closed == "unbuffered":
        assert err == "failure: [Errno 32] Broken pipe\n"
    assert (tmp_path / "out.csv").exists()


def test_module_run_starts_no_collection_once_its_code_begins(tmp_path):
    """``python -m fairscore.cli`` turns the collector off before its first
    import, and ends in ``os._exit``: no collection starts while a frame of
    ``cli.py`` is on the stack, and no exit handler runs."""
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path)
    log = tmp_path / "collections.log"
    code = (
        "import atexit, gc, os, runpy, sys\n"
        f"fd = os.open({str(log)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)\n"
        "cli = os.path.join('fairscore', 'cli.py')\n"
        "def record(phase, info):\n"
        "    frame = sys._getframe(1)\n"
        "    while frame is not None and not frame.f_code.co_filename.endswith(cli):\n"
        "        frame = frame.f_back\n"
        "    if phase == 'start':\n"
        "        os.write(fd, b'in-cli\\n' if frame else b'before-cli\\n')\n"
        "gc.callbacks.append(record)\n"
        "atexit.register(os.write, fd, b'exit-handler\\n')\n"
        "gc.collect()\n"
        f"sys.argv = ['fairscore', 'transform', '--config', {cfg!r}]\n"
        "runpy.run_module('fairscore.cli', run_name='__main__', alter_sys=True)\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=_piped_env(), capture_output=True)
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "out.csv").exists()
    events = log.read_text().split()
    assert events[0] == "before-cli"  # the explicit collection: the hook records
    assert "in-cli" not in events and "exit-handler" not in events


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_runs_with_the_collector_off_and_restores_it(tmp_path, monkeypatch, enabled):
    """A caller of ``main`` gets its collector back as it was, on or off, and the
    run in between has it off."""
    import fairscore.cli

    seen = []
    monkeypatch.setattr(
        fairscore.cli, "run_transform", lambda cfg, audit: seen.append(gc.isenabled())
    )
    write(tmp_path / "in.csv", AB_CSV)
    caller = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        main(["transform", "--config", base_config(tmp_path)])
        assert (seen, gc.isenabled()) == ([False], enabled)
    finally:
        gc.enable() if caller else gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_importing_the_cli_leaves_the_collector_as_it_was(enabled):
    code = (
        "import gc\n"
        f"gc.enable() if {enabled} else gc.disable()\n"
        "frozen = gc.get_freeze_count()\n"
        "import fairscore.cli\n"
        f"assert gc.isenabled() is {enabled}\n"
        "assert gc.get_freeze_count() == frozen\n"
    )
    subprocess.run([sys.executable, "-c", code], env=_piped_env(), check=True)


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"theta": "\xe9"}')
    assert main(["transform", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config file {cfg} is not valid JSON: ")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, thetaa=0.0, Theta=0.5)
    assert main(["transform", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: config file {cfg} has unknown key(s) Theta, thetaa\n"
    assert not (tmp_path / "out.csv").exists()


def test_null_leaves_a_key_at_its_default(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    nulls = ["theta", "score_columns", "theta_overrides", "explicit_weights", "selection_top_k"]
    cfg = base_config(tmp_path, **dict.fromkeys(nulls), synth=None)
    assert main(["transform", "--config", cfg]) == 0
    assert [r[3] for r in read_rows(tmp_path / "out.csv")[1:]] == ["1", "3", "1", "3"]


@pytest.mark.parametrize("flag", ["--score-columns", "--group-columns"])
def test_empty_column_flag_exits_2(tmp_path, capsys, flag):
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["transform", "--config", base_config(tmp_path), flag, ""]) == 2
    assert capsys.readouterr().err == "error: column '' not found in input header\n"


NAN_WEIGHTS = [{"group": ["A"], "weight": float("nan")}, {"group": ["B"], "weight": 0.5}]
WEIGHTS = [{"group": ["A"], "weight": 0.9}, {"group": ["B"], "weight": 0.1}]


@pytest.mark.parametrize(
    "extra, flags, named",
    [
        ({"selection_threshold": float("nan")}, [], "selection threshold"),
        ({}, ["--threshold", "nan"], "selection threshold"),
        ({"weight_mode": "explicit", "explicit_weights": NAN_WEIGHTS}, [], "explicit weight"),
        ({"explicit_weights": WEIGHTS}, [], "weight_mode 'size' takes no explicit_weights"),
        ({"explicit_weights": WEIGHTS[:1]}, [], "weight_mode 'size' takes no explicit_weights"),
        (
            {"weight_mode": "explicit", "explicit_weights": WEIGHTS},
            ["--weight-mode", "uniform"],
            "weight_mode 'uniform' takes no explicit_weights",
        ),
        ({"tol": float("inf")}, [], "tol must be finite"),
        ({"epsilon": float("inf")}, [], "epsilon must be finite"),
        ({}, ["--tol", "inf"], "tol must be finite"),
        ({"seed": -1}, [], "seed"),
        ({}, ["--seed", "-3"], "seed"),
        ({"selection_top_k": 0}, [], "top_k must be at least 1"),
        ({}, ["--top-k", "-1"], "top_k must be at least 1"),
        ({"selection_top_k": 2}, ["--threshold", "0"], "specify exactly one of threshold"),
        ({"theta_overrides": [{"group": ["A"], "theta": -0.5}]}, [], "theta override -0.5"),
        ({}, ["--id-column", "sex"], "column 'sex' is configured 2 times"),
        ({"id_column": "score"}, [], "column 'score' is configured 2 times"),
    ],
    ids=[
        "nan-threshold", "nan-threshold-flag", "nan-weight", "weights-in-size-mode",
        "one-weight-in-size-mode", "weights-in-uniform-mode-flag", "infinite-tol",
        "infinite-epsilon", "infinite-tol-flag", "negative-seed", "negative-seed-flag",
        "zero-top-k", "negative-top-k-flag", "threshold-and-top-k", "theta-override",
        "id-column-flag-is-group-column", "id-column-is-score-column",
    ],
)
def test_bad_setting_exits_2_before_the_input_is_read(
    tmp_path, capsys, monkeypatch, extra, flags, named
):
    import fairscore.cli

    def read_input(cfg):
        raise AssertionError("the input was read")

    monkeypatch.setattr(fairscore.cli, "load_csv", read_input)
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["transform", "--config", base_config(tmp_path, **extra), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("command", ["transform", "audit"])
def test_top_k_above_the_row_count_leaves_no_output(tmp_path, capsys, command):
    write(tmp_path / "in.csv", AB_CSV)
    assert main([command, "--config", base_config(tmp_path), "--top-k", "9"]) == 2
    assert capsys.readouterr().err == "error: top_k 9 out of range [1, 4]\n"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


# (command, the path flag) of every file a command writes
WRITTEN_FILES = [
    ("transform", "--output"),
    ("transform", "--report"),
    ("audit", "--report"),
    ("sweep", "--output"),
    ("barycenter", "--output"),
    ("synth", "--output"),
]
SYNTH_AB = {"seed": 1, "groups": [{"key": ["A"], "size": 3, "dims": [GAUSSIAN]}]}


@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
@pytest.mark.parametrize("command, flag", WRITTEN_FILES, ids=[" ".join(c) for c in WRITTEN_FILES])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, flag, kind):
    write(tmp_path / "in.csv", AB_CSV)
    path = tmp_path / "missing" / "out" if kind == "missing-directory" else tmp_path
    argv = [command, "--config", base_config(tmp_path, synth=SYNTH_AB), flag, str(path)]
    assert main(argv + (["--thetas", "0,1"] if command == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file {path}: ") and err.count("\n") == 1
    # every file is opened before any is written: a refused run leaves none of them
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


def test_refused_run_truncates_but_keeps_a_file_that_existed(tmp_path, capsys):
    """The fair-score CSV is opened for writing before the report is, so a file
    that was already there is left empty; it was not made by the run, so it stays."""
    write(tmp_path / "in.csv", AB_CSV)
    write(tmp_path / "out.csv", "old\n")
    assert main(["transform", "--config", base_config(tmp_path), "--report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output file {tmp_path}: ")
    assert (tmp_path / "out.csv").read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_report_that_fails_mid_write_removes_the_written_csv(tmp_path, capsys):
    """A write that fails after the fair-score CSV is complete still refuses the
    whole run: the CSV, which the run created, is removed."""
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["transform", "--config", base_config(tmp_path), "--report", "/dev/full"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output file /dev/full: [Errno 28] No space left on device\n"
    )
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_a_run_stopped_mid_write_leaves_no_file(tmp_path, capsys, monkeypatch, error):
    """Not only a write error: a MemoryError or an interrupt raised while the
    fair-score CSV is being rendered removes it, and the report opened with it."""

    def egress(header, lines, values):
        yield "id,sex,score,fair_score\n"
        raise error

    monkeypatch.setattr(fairscore.csvio, "_with_columns", egress)
    write(tmp_path / "in.csv", AB_CSV)
    argv = ["transform", "--config", base_config(tmp_path)]
    if error is MemoryError:
        assert main(argv) == 1
        assert capsys.readouterr().err == "failure: out of memory\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


def test_csv_and_report_on_stdout_print_the_csv_then_the_report(tmp_path):
    """``--output /dev/stdout`` with the report on stdout prints the bytes that
    the two files hold when each is written to its own path, whether stdout is
    a pipe, a file (``>``) or a file appended to (``>>``), which keeps its lines."""
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["transform", "--config", base_config(tmp_path)]) == 0
    expected = (tmp_path / "out.csv").read_text() + (tmp_path / "report.json").read_text()
    argv = ["transform", "--config", base_config(tmp_path, output="/dev/stdout", report=None)]
    child = subprocess.run([*RUN_ENTRY, *argv], env=_piped_env(), capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == (0, expected, "")
    log = tmp_path / "log"
    for mode, before in [("w", ""), ("a", "earlier line\n")]:
        write(log, before)
        with open(log, mode) as stdout:
            child = subprocess.run([*RUN_ENTRY, *argv], env=_piped_env(), stdout=stdout)
        assert (child.returncode, log.read_text()) == (0, before + expected)


@pytest.mark.parametrize("command", ["transform", "audit"])
@pytest.mark.parametrize("key", ["input", "output", "report"])
def test_path_holding_nul_exits_2(tmp_path, capsys, command, key):
    # JSON can put a NUL in a path, which open() and realpath reject with a ValueError
    write(tmp_path / "in.csv", AB_CSV)
    path = str(tmp_path / "a\0b")
    assert main([command, "--config", base_config(tmp_path, **{key: path})]) == 2
    assert capsys.readouterr().err == f"error: {key} path {path!r} holds a NUL character\n"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


def test_transform_refuses_one_file_for_output_and_report(tmp_path, capsys, monkeypatch):
    import fairscore.cli

    def read_input(cfg):
        raise AssertionError("the input was read")

    write(tmp_path / "in.csv", AB_CSV)
    (tmp_path / "sub").mkdir()
    report = tmp_path / "sub" / ".." / "out.csv"
    cfg = base_config(tmp_path, report=str(report))
    with monkeypatch.context() as patched:
        patched.setattr(fairscore.cli, "load_csv", read_input)
        assert main(["transform", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: output and report name the same file {tmp_path / 'out.csv'}\n"
    )
    assert not (tmp_path / "out.csv").exists()
    # audit writes no CSV, so its report may take the output path
    assert main(["audit", "--config", cfg]) == 0
    assert json.loads((tmp_path / "out.csv").read_text())["theta"]["default_theta"] == 1.0


def test_transform_refuses_a_hard_link_to_the_output_as_report(tmp_path, capsys, monkeypatch):
    """Two names of one file through a hard link are one file too: the run exits
    2 before it reads the input, and the file keeps what it held."""
    import fairscore.cli

    def read_input(cfg):
        raise AssertionError("the input was read")

    write(tmp_path / "in.csv", AB_CSV)
    out = tmp_path / "out.csv"
    write(out, "kept\n")
    os.link(out, tmp_path / "link.csv")
    monkeypatch.setattr(fairscore.cli, "load_csv", read_input)
    cfg = base_config(tmp_path, report=str(tmp_path / "link.csv"))
    assert main(["transform", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: output and report name the same file {out}\n"
    assert out.read_text() == "kept\n"


def test_output_and_report_both_on_dev_stdout_print_the_csv_then_the_report(tmp_path):
    """stdout's own file may be named twice: the CSV, then the report, go to
    stdout, whether it is a pipe or a file."""
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["transform", "--config", base_config(tmp_path)]) == 0
    expected = (tmp_path / "out.csv").read_text() + (tmp_path / "report.json").read_text()
    cfg = base_config(tmp_path, output="/dev/stdout", report="/dev/stdout")
    argv = [*RUN_ENTRY, "transform", "--config", cfg]
    child = subprocess.run(argv, env=_piped_env(), capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == (0, expected, "")
    log = tmp_path / "log"
    with open(log, "w") as stdout:
        assert subprocess.run(argv, env=_piped_env(), stdout=stdout).returncode == 0
    assert log.read_text() == expected


def test_output_and_report_both_on_dev_null_succeed(tmp_path, capsys):
    """A file that is not regular, such as ``/dev/null``, may be named twice."""
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, output=os.devnull, report=os.devnull)
    assert main(["transform", "--config", cfg]) == 0
    assert capsys.readouterr() == ("", "")


def test_explicit_weight_for_an_absent_group_exits_2(tmp_path, capsys):
    weights = [{"group": [g], "weight": w} for g, w in (("A", 0.5), ("B", 0.5), ("Z", 7))]
    cfg = base_config(tmp_path, weight_mode="explicit", explicit_weights=weights)
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["transform", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: explicit weight for nonexistent group Z\n"
    assert not (tmp_path / "out.csv").exists()


def test_no_selected_group_has_no_ratio(tmp_path):
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, selection_threshold=1e300)
    assert main(["audit", "--config", cfg]) == 0
    selection = json.loads((tmp_path / "report.json").read_text())["selection"]
    assert selection == {"rates": {"A": 0.0, "B": 0.0}, "ratio": None}
    assert main(["sweep", "--config", cfg, "--thetas", "0,1"]) == 0
    rows = read_rows(tmp_path / "out.csv")
    assert rows[0][-1] == "selection_ratio"
    assert [(r[0], r[2], r[-1]) for r in rows[1:]] == [("0", "2", ""), ("1", "0", "")]


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
def test_out_of_memory_is_a_failure_line(tmp_path, capsys, monkeypatch, message):
    import fairscore.cli

    def exhausted(pop, cfg):
        raise MemoryError(message)

    monkeypatch.setattr(fairscore.cli, "compute_barycenter", exhausted)
    write(tmp_path / "in.csv", AB_CSV)
    assert main(["transform", "--config", base_config(tmp_path)]) == 1
    assert capsys.readouterr().err == f"failure: {message or 'out of memory'}\n"


def test_readme_names_every_config_key_and_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    names = [f.name for f in fields(RunConfig)]
    names += [f.metadata["flag"] for f in fields(RunConfig) if f.metadata["flag"]]
    assert [name for name in names if f"`{name}" not in readme] == []


# Random JSON for every config key but the paths, which could name any file.
# Numbers stay within 1e6, the largest grid_size a run accepts (MAX_GRID_SIZE):
# a larger one is refused before the input is read, so draws within the bound
# reach the accepted grid sizes. Many values have a plausible shape, so that
# examples also get past the type checks. Text includes lone surrogates
# (category Cs), which a JSON escape such as "\ud800" can spell.
WORDS = st.sampled_from(
    ["A", "B", "sex", "score", "id", "group", "theta", "weight", "explicit", "uniform", "size",
     "key", "dims", "type", "gaussian", "beta", "groups", "seed", "mean", "sd"]
)
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=4)
NUMBERS = (
    st.integers(-(10**6), 10**6) | st.floats(-1e6, 1e6) | st.floats(0, 1) | st.integers(0, 9)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | WORDS | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WORDS | TEXT, inner, max_size=3),
    max_leaves=10,
)
GROUP_ENTRIES = st.lists(
    st.fixed_dictionaries(
        {"group": st.lists(WORDS | TEXT, max_size=2), "theta": NUMBERS, "weight": NUMBERS}
    ),
    max_size=3,
)
SYNTH_SECTIONS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 9),
        "groups": st.lists(
            st.fixed_dictionaries(
                {"key": st.lists(WORDS | TEXT, min_size=1, max_size=2),
                 "size": st.integers(1, 5), "dims": st.just([GAUSSIAN])}
            ),
            max_size=3,
        ),
    }
)
JSON_VALUES = (
    ANY_JSON | NUMBERS | st.lists(WORDS | TEXT, max_size=2) | GROUP_ENTRIES | SYNTH_SECTIONS
)
FUZZED_KEYS = [f.name for f in fields(RunConfig) if f.name not in ("input", "output", "report")]
COMMANDS = [["transform"], ["audit"], ["sweep", "--thetas", "0,1"], ["barycenter"], ["synth"],
            ["verify"]]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write(path / "in.csv", AB_CSV)
    return path


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
@settings(max_examples=300, deadline=None)
@given(values=st.dictionaries(st.sampled_from(FUZZED_KEYS), JSON_VALUES, max_size=4))
def test_fuzzed_config_exits_0_or_2(fuzz_dir, command, values):
    """No config crashes a command, and a refused one writes no file."""
    written = [fuzz_dir / "out.csv", fuzz_dir / "report.json"]
    for path in written:
        path.unlink(missing_ok=True)
    code = main([*command, "--config", base_config(fuzz_dir, **values)])
    assert code in (0, 2)
    if code == 2:
        assert not any(path.exists() for path in written)


# The help of the command and of each subcommand, and seven argparse errors,
# at a fixed terminal width. ``tests/golden/argparse.json`` holds the argv,
# exit code, stdout and stderr of each case.
ARGPARSE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "argparse.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", sorted(ARGPARSE_GOLDEN))
def test_help_and_argparse_errors_match_golden(capsys, monkeypatch, case):
    expected = ARGPARSE_GOLDEN[case]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(expected["argv"])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out, captured.err) == (
        expected["exit"],
        expected["stdout"],
        expected["stderr"],
    )


# three groups with ties inside and across them, and -0.0 next to 0.0
TIED_CSV = "id,sex,score\na1,A,0\na2,A,2\na3,A,-0.0\nb1,B,2\nb2,B,4\nb3,B,2\nc1,C,1\n"


def test_one_d_commands_sort_no_group_again(tmp_path, capsys, monkeypatch):
    """The 1-D commands read each group's sorted run off ``pop.raw_order``:
    none calls ``empirical_from_samples``, under any name a fairscore module
    holds it by."""
    import fairscore.empirical

    def refuse(*args, **kwargs):
        raise AssertionError("a 1-D command sorted a group again")

    original = fairscore.empirical.empirical_from_samples
    for name, module in list(sys.modules.items()):
        holds = vars(module).get("empirical_from_samples") is original
        if name.split(".")[0] == "fairscore" and holds:
            monkeypatch.setattr(module, "empirical_from_samples", refuse)
    write(tmp_path / "in.csv", TIED_CSV)
    cfg = base_config(tmp_path, selection_top_k=2)
    assert main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out
    for argv in (["transform"], ["audit"], ["sweep", "--thetas", "0,0.5,1"], ["barycenter"]):
        assert main([*argv, "--config", cfg]) == 0, argv


ND_CSV = "id,sex,s1,s2\na1,A,0,0\na2,A,1,0\nb1,B,0,1\nb2,B,1,1\n"
LP_CSV = "id,sex,s1,s2\n" + "".join(f"a{i},A,{i},{i % 3}\n" for i in range(21)) + "b,B,0,0\n"
BIG_GROUP_CSV = "id,sex,score\n" + "".join(f"r{i},A,{i}\n" for i in range(12)) + "b,B,5\n"
ROWS_CSV = "id,sex,score\n" + "".join(f"r{i},g{i // 8},{i % 8}\n" for i in range(2001))
WIDE_CSV = "id,sex,score\na1,A,0\na2,A,1e20\nb1,B,5\nb2,B,6\n"
SYNTH_A = {"seed": 1, "groups": [{"key": ["A"], "size": 3, "dims": [GAUSSIAN]}]}

# (id, argv, config keys, input text, error line) of refusals that no other test
# pins; "{tmp}" stands for the test's directory
ERROR_LINES = [
    ("no-input", ["transform"], {"input": None}, AB_CSV, "no input file configured"),
    (
        "unreadable-input", ["transform"], {"input": "{tmp}/absent.csv"}, AB_CSV,
        "cannot read input file {tmp}/absent.csv: "
        "[Errno 2] No such file or directory: '{tmp}/absent.csv'",
    ),
    ("empty-input", ["transform"], {}, "", "input file {tmp}/in.csv is empty"),
    ("unknown-weight-mode", ["transform"], {"weight_mode": "equal"}, AB_CSV,
     "unknown weight_mode 'equal'"),
    ("explicit-without-weights", ["transform"], {"weight_mode": "explicit"}, AB_CSV,
     "weight_mode 'explicit' requires explicit_weights"),
    ("threshold-and-top-k", ["audit"], {"selection_threshold": 1.0, "selection_top_k": 2},
     AB_CSV, "specify exactly one of threshold or top_k"),
    ("threshold-and-top-k-flags", ["sweep", "--thetas", "0", "--threshold", "1", "--top-k", "2"],
     {}, AB_CSV, "specify exactly one of threshold or top_k"),
    ("theta-override-out-of-range", ["transform"],
     {"theta_overrides": [{"group": ["A"], "theta": 1.5}]}, AB_CSV,
     "theta override 1.5 for group A outside [0, 1]"),
    ("theta-override-nan", ["sweep", "--thetas", "0"],
     {"theta_overrides": [{"group": ["B"], "theta": float("nan")}]}, AB_CSV,
     "theta override nan for group B outside [0, 1]"),
    ("explicit-weights-missing-group", ["barycenter"],
     {"weight_mode": "explicit", "explicit_weights": [{"group": ["A"], "weight": 1.0}]}, AB_CSV,
     "explicit_weights missing groups: B"),
    ("transform-without-output", ["transform"], {"output": None}, AB_CSV,
     "transform requires an output path"),
    ("sweep-without-output", ["sweep", "--thetas", "0,1"], {"output": None}, AB_CSV,
     "sweep requires an output path"),
    ("barycenter-without-output", ["barycenter"], {"output": None}, AB_CSV,
     "barycenter requires an output path"),
    ("synth-without-output", ["synth"], {"output": None, "synth": SYNTH_A}, AB_CSV,
     "synth requires an output path"),
    ("empty-thetas", ["sweep", "--thetas", ","], {}, AB_CSV,
     "sweep requires a non-empty theta list"),
    ("sweep-on-nd-scores", ["sweep", "--thetas", "0,1"], {"score_columns": ["s1", "s2"]},
     ND_CSV, "sweep metrics are defined for 1-D scores"),
    ("synth-without-section", ["synth"], {}, AB_CSV, "config has no 'synth' section"),
    ("grid-size-above-limit", ["transform"], {"grid_size": 10**6 + 1}, AB_CSV,
     "grid_size must be at most 1000000"),
    ("grid-size-flag-above-limit", ["audit", "--grid-size", "1000001"], {}, AB_CSV,
     "grid_size must be at most 1000000"),
    ("score-column-twice", ["transform"], {"score_columns": ["score", "score"]}, AB_CSV,
     "column 'score' is configured 2 times"),
    ("score-and-group-column", ["transform"], {"group_columns": ["sex", "score"]}, AB_CSV,
     "column 'score' is configured 2 times"),
    ("group-column-flag-twice", ["audit", "--group-columns", "sex,sex"], {}, AB_CSV,
     "column 'sex' is configured 2 times"),
    # refused before the input is read: the file named does not exist
    ("score-column-flag-three-times", ["transform", "--score-columns", "score,score,score"],
     {"input": "{tmp}/absent.csv"}, AB_CSV, "column 'score' is configured 3 times"),
    ("verify-grid-size", ["verify", "--grid-size", "51"], {}, AB_CSV,
     "verify refuses grid sizes larger than 50"),
    ("verify-lp-support", ["verify"], {"score_columns": ["s1", "s2"]}, LP_CSV,
     "verify refuses supports larger than 20 (group A)"),
    ("verify-group-size", ["verify"], {}, BIG_GROUP_CSV,
     "verify refuses groups larger than 8 (group A has 12)"),
    ("verify-rows", ["verify"], {}, ROWS_CSV, "verify refuses more than 2000 rows"),
    ("verify-score-range", ["verify", "--grid-size", "10"], {}, WIDE_CSV,
     "coordinate oracle refuses a score range of 1e+20 at resolution 0.0001 over 2 groups "
     "(more than 10000000 cells)"),
    ("verify-explicit-weights-missing-group", ["verify"],
     {"weight_mode": "explicit", "explicit_weights": [{"group": ["A"], "weight": 1.0}]}, AB_CSV,
     "explicit_weights missing groups: B"),
    ("verify-weights-sum", ["verify"],
     {"weight_mode": "explicit", "explicit_weights": [{"group": ["A"], "weight": 0.5},
                                                      {"group": ["B"], "weight": 0.6}]}, AB_CSV,
     "barycenter weights must sum to 1"),
]


@pytest.mark.parametrize(
    "argv, extra, text, message", [case[1:] for case in ERROR_LINES],
    ids=[case[0] for case in ERROR_LINES],
)
def test_each_refusal_prints_its_one_error_line(tmp_path, capsys, argv, extra, text, message):
    write(tmp_path / "in.csv", text)
    extra = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in extra.items()}
    assert main([*argv, "--config", base_config(tmp_path, **extra)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(tmp=tmp_path)}\n")
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("route", ["json", "flag"])
def test_grid_size_limit_is_accepted(tmp_path, route):
    """``grid_size`` 10^6 is the largest a run accepts; one more is refused
    (``test_each_refusal_prints_its_one_error_line``)."""
    write(tmp_path / "in.csv", AB_CSV)
    if route == "json":
        argv = ["transform", "--config", base_config(tmp_path, grid_size=10**6)]
    else:
        argv = ["transform", "--config", base_config(tmp_path), "--grid-size", "1000000"]
    assert main(argv) == 0
    assert json.loads((tmp_path / "report.json").read_text())["group_fairness_w2"] == 0.0


EQUAL_GROUPS_CSV = "id,sex,score\n" + "".join(
    f"{g}{i},{g},{(i * 5 + 3 * (g == 'B')) % 7 / 2}\n" for g in "AB" for i in range(6)
)
NDW_CSV = "id,sex,s1,s2\n" + "".join(
    f"{g}{i},{g},{(i * 3) % 5 / 4 + (g == 'B')},{(i * 2) % 5 / 4}\n" for g in "AB" for i in range(5)
)


def explicit(weight_a, weight_b):
    entries = [{"group": ["A"], "weight": weight_a}, {"group": ["B"], "weight": weight_b}]
    return {"weight_mode": "explicit", "explicit_weights": entries}


def test_explicit_weights_set_the_1d_barycenter(tmp_path):
    from fairscore import barycenter_1d, build_population
    from fairscore.transport1d import group_distributions

    write(tmp_path / "in.csv", EQUAL_GROUPS_CSV)
    out = tmp_path / "out.csv"
    written = {}
    for name, extra in [("uniform", {"weight_mode": "uniform"}), ("half", explicit(0.5, 0.5)),
                        ("quarter", explicit(0.25, 0.75))]:
        assert main(["barycenter", "--config", base_config(tmp_path, grid_size=5, **extra)]) == 0
        written[name] = out.read_bytes()
    assert written["half"] == written["uniform"] != written["quarter"]
    rows = read_rows(tmp_path / "in.csv")[1:]
    pop = build_population([r[0] for r in rows], [[r[1] for r in rows]], [float(r[2]) for r in rows])
    grid = barycenter_1d(group_distributions(pop), [0.25, 0.75], 5)
    assert read_rows(out)[1:] == [[format(r, ".17g"), format(q, ".17g")]
                                  for r, q in zip(grid.ranks, grid.quantiles)]


def test_explicit_weights_set_the_nd_transform(tmp_path):
    from fairscore import ThetaPolicy, build_population, compute_barycenter_nd, interpolate_scores

    write(tmp_path / "in.csv", NDW_CSV)
    out = tmp_path / "out.csv"
    settings = dict(score_columns=["s1", "s2"], theta=0.5, epsilon=0.05)
    written = {}
    for name, extra in [("uniform", {"weight_mode": "uniform"}), ("half", explicit(0.5, 0.5)),
                        ("quarter", explicit(0.25, 0.75))]:
        assert main(["transform", "--config", base_config(tmp_path, **settings, **extra)]) == 0
        written[name] = out.read_bytes()
    assert written["half"] == written["uniform"] != written["quarter"]
    rows = read_rows(tmp_path / "in.csv")[1:]
    pop = build_population(
        [r[0] for r in rows], [[r[1] for r in rows]], [[float(r[2]), float(r[3])] for r in rows]
    )
    bary = compute_barycenter_nd(pop, [0.25, 0.75], epsilon=0.05)
    fair = interpolate_scores(pop, bary, ThetaPolicy(0.5))
    assert [[float(v) for v in r[4:]] for r in read_rows(out)[1:]] == fair.values.tolist()


def test_row_numbers_stand_in_for_a_missing_id_column(tmp_path, capsys):
    # rows 2 to 12 tie at the top-k cut; the tie goes to the largest ids in
    # string order ("9", "8", "7"), which are in group B
    groups = ["B"] * 8 + ["A"] * 3
    numbered = "id,sex,score\n" + "".join(f"{i + 2},{g},1\n" for i, g in enumerate(groups))
    plain = "sex,score\n" + "".join(f"{g},1\n" for g in groups)
    reports = []
    for text, id_column in [(numbered, "id"), (plain, None)]:
        write(tmp_path / "in.csv", text)
        cfg = base_config(tmp_path, id_column=id_column, report=None, theta=0.5)
        assert main(["audit", "--config", cfg, "--top-k", "3"]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert json.loads(reports[1].out)["selection"]["rates"] == {"A": 0.0, "B": 0.375}


@pytest.mark.parametrize(
    "argv, extra, message",
    [
        (["synth"], {"synth": {**SYNTH_A, "groups": [{**SYNTH_A["groups"][0], "key": ["\ud800"]}]}},
         "config file {cfg} holds '\\ud800', which is not valid UTF-8"),
        (["synth"], {"synth": SYNTH_A, "group_columns": ["g\ud800"]},
         "config file {cfg} holds '\\ud800', which is not valid UTF-8"),
        (["synth", "--group-columns", "\udcff"], {"synth": SYNTH_A},
         "group_columns holds '\\udcff', which is not valid UTF-8"),
        (["synth", "--score-columns", "s\udcff"], {"synth": SYNTH_A},
         "score_columns holds '\\udcff', which is not valid UTF-8"),
        (["transform", "--id-column", "\udcffid"], {},
         "id_column holds '\\udcff', which is not valid UTF-8"),
        (["audit"], {"theta_overrides": [{"group": ["\udfff"], "theta": 0.5}]},
         "config file {cfg} holds '\\udfff', which is not valid UTF-8"),
        (["transform"], {"\ud800": 1}, "config file {cfg} holds '\\ud800', which is not valid UTF-8"),
    ],
    ids=["synth-key", "synth-group-column", "group-columns-flag", "score-columns-flag",
         "id-column-flag", "override-group", "config-key"],
)
def test_text_that_is_not_utf8_exits_2(tmp_path, capsys, argv, extra, message):
    """argv gives bytes that are not UTF-8 as lone surrogates (``$'\\xff'`` is
    ``'\\udcff'``), and a JSON escape can spell one; either is refused before
    any file is opened."""
    write(tmp_path / "in.csv", AB_CSV)
    cfg = base_config(tmp_path, **extra)
    assert main([*argv, "--config", cfg]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(cfg=cfg)}\n")
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "report.json").exists()


def test_a_path_that_is_not_utf8_is_still_accepted(tmp_path):
    path = tmp_path / "in\udcff.csv"
    try:
        write(path, AB_CSV)
    except UnicodeEncodeError:
        pytest.skip("the file system encoding cannot name this file")
    assert main(["audit", "--config", base_config(tmp_path), "--input", str(path)]) == 0


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


NEAR_THE_LIMIT = [1e150, -1e150, 1.0000000000000002e150, -1.0000000000000002e150,
                  9.999999999999999e149, 1.7e308, -1.7e308, 8e307, -9e307, 0.0, -0.0, 1e-300]
HUGE_SCORES = st.floats(-1.7e308, 1.7e308) | st.sampled_from(NEAR_THE_LIMIT)


@settings(max_examples=150, deadline=None)
@given(
    dimension=st.sampled_from([1, 2]),
    scores=st.lists(st.tuples(HUGE_SCORES, HUGE_SCORES), min_size=2, max_size=8),
    theta=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_scores_up_to_the_float_limit_exit_0_or_2_with_strict_json(
    fuzz_dir, dimension, scores, theta
):
    """A score above ``SCORE_LIMIT`` in magnitude exits 2, naming its record,
    and any other score gives a report in strict JSON, with no warning."""
    import contextlib
    import io
    import warnings

    from fairscore.population import SCORE_LIMIT

    names = ["s1", "s2"][:dimension]
    rows = [f"r{i},{'AB'[i % 2]},{','.join(map(repr, s[:dimension]))}" for i, s in enumerate(scores)]
    write(fuzz_dir / "in.csv", "\n".join(["id,sex," + ",".join(names), *rows]) + "\n")
    (fuzz_dir / "report.json").unlink(missing_ok=True)
    cfg = base_config(fuzz_dir, score_columns=names, theta=theta, epsilon=0.05)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["audit", "--config", cfg])
    too_large = [i for i, s in enumerate(scores) if max(map(abs, s[:dimension])) > SCORE_LIMIT]
    assert code == (2 if too_large else 0)
    if too_large:
        assert err.getvalue() == (
            f"error: record 'r{too_large[0]}' has a score component above 1e+150 in magnitude\n"
        )
        assert not (fuzz_dir / "report.json").exists()
    else:
        report = strict_json((fuzz_dir / "report.json").read_text(encoding="utf-8"))
        assert report["utility_loss_w2"] >= 0.0
