"""CSV ingest and egress: golden outputs and the error of the first bad row.

The golden files under ``tests/golden/`` hold the expected output bytes for
``GOLDEN_INPUT``, which gathers the cases a column-at-a-time loader or writer
can get wrong. The error tests pin the exact ``error:`` line, including which
of two bad rows is reported.
"""

import gc
import json
from pathlib import Path

import pytest

import fairscore.cli
from fairscore import ValidationError
from fairscore.cli import RunConfig, load_csv, main

GOLDEN = Path(__file__).parent / "golden"

# CRLF line endings; a pass-through column with a quoted comma, an embedded
# quote and an embedded newline; non-ASCII ids and group values; a two-column
# group key; score fields padded with spaces, in exponent form and -0.0.
GOLDEN_INPUT = "\r\n".join(
    [
        "id,sex,region,note,score",
        'a1,F,Zoë,"quoted, comma",0.25',
        'a2,F,Zoë,"say ""hi""", 1.5 ',
        'a3,F,Zoë,plain,2.5e-1',
        'b1,F,東京,"line one\nline two",3',
        "b2,F,東京,,1E-1",
        "b3,F,東京,x,0.75",
        "ü1,M,Zoë,y,-0.0",
        "ü2,M,Zoë,z,  2  ",
        "ü3,M,Zoë,,4.5e0",
        "c1,M,東京,é,0.5",
        "c2,M,東京,ß,1.25",
        "c3,M,東京, ,-1e-3",
    ]
) + "\r\n"


def golden_config(tmp_path, **extra):
    (tmp_path / "in.csv").write_bytes(GOLDEN_INPUT.encode("utf-8"))
    cfg = {
        "input": str(tmp_path / "in.csv"),
        "score_columns": ["score"],
        "group_columns": ["sex", "region"],
        "id_column": "id",
        "grid_size": 16,
        "output": str(tmp_path / "out.csv"),
        "report": str(tmp_path / "report.json"),
        "theta_overrides": [{"group": ["M", "Zoë"], "theta": 0.0}],
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_transform_matches_golden_bytes(tmp_path, capsys):
    assert main(["transform", "--config", golden_config(tmp_path), "--theta", "0.5"]) == 0
    captured = capsys.readouterr()
    for produced, golden in [("out.csv", "transform.csv"), ("report.json", "transform_report.json")]:
        assert (tmp_path / produced).read_bytes() == (GOLDEN / golden).read_bytes()
    assert captured.err == (GOLDEN / "transform_stderr.txt").read_text(encoding="utf-8")
    assert captured.out == ""


def test_sweep_matches_golden_bytes(tmp_path, capsys):
    argv = ["sweep", "--config", golden_config(tmp_path), "--thetas", "0,0.5,1", "--top-k", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "out.csv").read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


AB_HEADER = "id,sex,score"
AB_ROWS = ["a1,A,0", "a2,A,2", "b1,B,2", "b2,B,4", "b3,B,5"]


def run_rows(tmp_path, capsys, rows, header=AB_HEADER):
    (tmp_path / "in.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    cfg = {
        "input": str(tmp_path / "in.csv"),
        "score_columns": ["score"],
        "group_columns": ["sex"],
        "id_column": "id",
        "min_group_size": 1,
        "output": str(tmp_path / "out.csv"),
        "report": str(tmp_path / "report.json"),
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["transform", "--config", str(tmp_path / "config.json")])
    return code, capsys.readouterr().err


def with_row(rownum, text):
    """AB_ROWS with the data row at file row ``rownum`` (header is row 1) replaced."""
    rows = list(AB_ROWS)
    rows[rownum - 2] = text
    return rows


@pytest.mark.parametrize(
    "rows, message",
    [
        (with_row(3, "a2,A"), "row 3: expected 3 fields, got 2"),
        (with_row(4, "b1,B,2,extra"), "row 4: expected 3 fields, got 4"),
        (with_row(5, "b2,,4"), "row 5: missing value in group column 'sex'"),
        (with_row(2, "a1,A,"), "row 2: missing value in score column 'score'"),
        (with_row(6, "b3,B,five"), "row 6: score column 'score' value 'five' is not a number"),
        (with_row(3, "a2,A, "), "row 3: score column 'score' value ' ' is not a number"),
        (with_row(4, "b1,B,inf"), "row 4: score column 'score' is not finite"),
        (with_row(4, "b1,B,-Infinity"), "row 4: score column 'score' is not finite"),
        (with_row(5, "b2,B,nan"), "row 5: score column 'score' is not finite"),
        (with_row(2, "a1,A,1e400"), "row 2: score column 'score' is not finite"),
        (with_row(6, "a1,B,5"), "duplicate record id 'a1'"),
        ([], "population must contain at least one record"),
    ],
    ids=[
        "short-row",
        "long-row",
        "missing-group",
        "missing-score",
        "non-number",
        "blank-score",
        "inf",
        "minus-infinity",
        "nan",
        "overflow",
        "duplicate-id",
        "header-only",
    ],
)
def test_bad_input_exits_2_with_the_row_error(tmp_path, capsys, rows, message):
    assert run_rows(tmp_path, capsys, rows) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "edits, message",
    [
        # each pair puts the earlier bad row in a column that a vectorized
        # check would reach later than the later bad row's column
        ({3: "a2,A,oops", 5: "b2,B"}, "row 3: score column 'score' value 'oops' is not a number"),
        ({3: "a2,A,nan", 4: "b1,,2"}, "row 3: score column 'score' is not finite"),
        ({2: "a1,A,1e999", 6: "b3,B,x"}, "row 2: score column 'score' is not finite"),
        ({4: "b1,B,", 6: "b3,B,5,6"}, "row 4: missing value in score column 'score'"),
        ({5: "b2,B,4,4", 6: "b3,,5"}, "row 5: expected 3 fields, got 4"),
        # a duplicate id is only reported once every row has parsed
        ({3: "a1,A,2", 6: "b3,B,bad"}, "row 6: score column 'score' value 'bad' is not a number"),
        ({3: "a1,A,2", 5: "a1,B,4"}, "duplicate record id 'a1'"),
    ],
)
def test_earlier_bad_row_wins(tmp_path, capsys, edits, message):
    rows = list(AB_ROWS)
    for rownum, text in edits.items():
        rows[rownum - 2] = text
    assert run_rows(tmp_path, capsys, rows) == (2, f"error: {message}\n")


def test_two_score_columns_report_the_first_bad_field(tmp_path, capsys):
    rows = ["a1,A,0,1", "a2,A,2,x", "b1,B,y,1", "b2,B,4,4"]
    (tmp_path / "in.csv").write_text("\n".join(["id,sex,s1,s2", *rows]) + "\n", encoding="utf-8")
    cfg = {
        "input": str(tmp_path / "in.csv"),
        "score_columns": ["s1", "s2"],
        "group_columns": ["sex"],
        "id_column": "id",
        "output": str(tmp_path / "out.csv"),
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["transform", "--config", str(tmp_path / "config.json")]) == 2
    assert capsys.readouterr().err == "error: row 3: score column 's2' value 'x' is not a number\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("bad", [False, True], ids=["good-rows", "bad-row"])
def test_load_csv_pauses_and_restores_the_collector(tmp_path, monkeypatch, enabled, bad):
    rows = with_row(4, "b1,B,x") if bad else AB_ROWS
    (tmp_path / "in.csv").write_text("\n".join([AB_HEADER, *rows]) + "\n", encoding="utf-8")
    cfg = RunConfig(input=str(tmp_path / "in.csv"), group_columns=["sex"], id_column="id")
    states = []
    build = fairscore.cli.build_population

    def recording_build(*columns):
        states.append(gc.isenabled())
        return build(*columns)

    monkeypatch.setattr(fairscore.cli, "build_population", recording_build)
    caller_state = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if bad:
            with pytest.raises(ValidationError, match="row 4"):
                load_csv(cfg)
        else:
            assert len(load_csv(cfg)[2]) == len(AB_ROWS)
            assert states == [False]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if caller_state else gc.disable)()
