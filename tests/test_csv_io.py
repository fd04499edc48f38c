"""CSV ingest and egress: golden outputs and the error of the first bad row.

The golden files under ``tests/golden/`` hold the expected output bytes of
every command, one set per case of ``GOLDEN_CASES``. Most cases read
``GOLDEN_INPUT``, which gathers the cases a column-at-a-time loader or writer
can get wrong; its quotes and CRLF line endings send it down the
``csv.reader`` path. The n-D cases read ``GOLDEN_INPUT_ND``, and ``synth``
reads no input. The error tests pin the exact ``error:`` line, including
which of two bad rows is reported. Their LF inputs take the line path, which
names each bad row itself. Two property tests compare the output of quote-free
tables (the line path) and of quoted ones (the ``csv.reader`` path) with what
``csv.reader`` and ``csv.writer`` make of the same input; one more finds the
two loaders equal on every quote-free text, valid or not, and two pin the line
path's field-count scan and its one-call egress to the per-line code they
replaced. The input is opened once, so a pipe or a FIFO reads as a file does.
A static check keeps every file write in ``_write``.
"""

import ast
import codecs
import csv
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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


# a quote-free 2-D table over two of the same groups, for the n-D commands
GOLDEN_INPUT_ND = "\n".join(
    [
        "id,sex,region,s1,s2",
        "a1,F,Zoë,0,0",
        "a2,F,Zoë,1,0.5",
        "a3,F,Zoë,0.25,1",
        "b1,M,Zoë,0.5,0.25",
        "b2,M,Zoë,1,1",
        "b3,M,Zoë,0.75,0.5",
    ]
) + "\n"
ND = {"text": GOLDEN_INPUT_ND, "score_columns": ["s1", "s2"]}

# two-value keys and 1-D scores; one-value keys (one holding a comma) and 2-D scores
SYNTH_1D = {
    "seed": 3,
    "groups": [
        {"key": ["M", "東京"], "size": 3, "dims": [{"type": "beta", "a": 2, "b": 5}]},
        {"key": ["F", "Zoë"], "size": 4, "dims": [{"type": "gaussian", "mean": 0.4, "sd": 0.1}]},
    ],
}
SYNTH_2D = {
    "seed": 5,
    "groups": [
        {
            "key": [name],
            "size": 3,
            "dims": [{"type": "gaussian", "mean": 0, "sd": 1}, {"type": "uniform", "lo": 0, "hi": 2}],
        }
        for name in ("x,y", "B")
    ],
}
# keys and group column names that csv.writer quotes
SYNTH_QUOTED = {
    "seed": 7,
    "groups": [
        {"key": ['a,"b"', "c"], "size": 3, "dims": [{"type": "uniform", "lo": 0, "hi": 1}]},
        {"key": ['"', ","], "size": 2, "dims": [{"type": "beta", "a": 2, "b": 2}]},
    ],
}


def golden_config(tmp_path, text=GOLDEN_INPUT, **extra):
    (tmp_path / "in.csv").write_bytes(text.encode("utf-8"))
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


# (case, argv, golden_config arguments); the golden files of a case are named after it
GOLDEN_CASES = [
    ("transform", ["transform", "--theta", "0.5"], {}),
    ("audit", ["audit", "--theta", "0.5", "--threshold", "1"], {}),
    ("sweep", ["sweep", "--thetas", "0,0.5,1", "--top-k", "4"], {}),
    ("barycenter", ["barycenter"], {}),
    ("barycenter_nd", ["barycenter"], ND),
    ("synth", ["synth"], {"synth": SYNTH_1D}),
    ("synth_2d", ["synth"], {"synth": SYNTH_2D}),
    ("synth_quoted", ["synth"], {"synth": SYNTH_QUOTED, "group_columns": ['g,"1"', "g2"]}),
    ("verify", ["verify"], {}),
    ("verify_nd", ["verify"], ND),
]


def _bytes(path):
    return path.read_bytes() if path.exists() else None


def golden_outputs(tmp_path, capsys, case, argv, extra):
    """Every output of one run, keyed by the name of its golden file; None if absent or empty."""
    assert main([argv[0], "--config", golden_config(tmp_path, **extra), *argv[1:]]) == 0
    captured = capsys.readouterr()
    return {
        f"{case}.csv": _bytes(tmp_path / "out.csv"),
        f"{case}_report.json": _bytes(tmp_path / "report.json"),
        f"{case}_stdout.txt": captured.out.encode("utf-8") or None,
        f"{case}_stderr.txt": captured.err.encode("utf-8") or None,
    }


@pytest.mark.parametrize("case, argv, extra", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_command_matches_golden_bytes(tmp_path, capsys, case, argv, extra):
    produced = golden_outputs(tmp_path, capsys, case, argv, extra)
    assert produced == {name: _bytes(GOLDEN / name) for name in produced}


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
        # an empty line has 0 fields on both paths
        ([*AB_ROWS[:2], "", *AB_ROWS[2:]], "row 4: expected 3 fields, got 0"),
        ([*AB_ROWS, ""], "row 7: expected 3 fields, got 0"),
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
        "blank-line",
        "blank-last-line",
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


@pytest.mark.parametrize("quote", ["", '"'], ids=["line-path", "csv-path"])
@pytest.mark.parametrize(
    "header, message",
    [
        ("id,sex,score,score", "column 'score' appears 2 times in the input header"),
        ("id,sex,score,sex", "column 'sex' appears 2 times in the input header"),
        ("id,id,sex,score,id", "column 'id' appears 3 times in the input header"),
        ("id,note,sex,score,note", None),
    ],
    ids=["score", "group", "id", "unused"],
)
def test_a_configured_column_named_twice_exits_2(tmp_path, capsys, quote, header, message):
    """A score, group or id column must be named once in the header, or no
    copy could be told from the others; a repeated name that the config does
    not use is passed through."""
    fields = {"id": "r{k}", "sex": "{g}", "score": "{k}", "note": "x"}
    line = ",".join(fields[name] for name in header.split(","))
    rows = [line.format(k=k, g="AB"[k % 2]) for k in range(6)]
    rows[0] = quote + rows[0].replace(",", quote + ",", 1)
    if message is None:
        assert run_rows(tmp_path, capsys, rows, header) == (0, "")
        assert (tmp_path / "out.csv").read_text().startswith(header + ",fair_score\n")
    else:
        assert run_rows(tmp_path, capsys, rows, header) == (2, f"error: {message}\n")
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("quote", ["", '"'], ids=["line-path", "csv-path"])
def test_load_csv_hands_build_population_one_list_per_group_column(tmp_path, monkeypatch, quote):
    rows = [f"{quote}a1{quote},A,x,0", "a2,A,y,2", "b1,B,x,2", "b2,B,y,4", "b3,B,z,5"]
    (tmp_path / "in.csv").write_text(
        "\n".join(["id,sex,region,score", *rows]) + "\n", encoding="utf-8"
    )
    cfg = RunConfig(input=str(tmp_path / "in.csv"), group_columns=["region", "sex"], id_column="id")
    calls = []
    build = fairscore.cli.build_population

    def recording_build(ids, group_columns, scores):
        calls.append(group_columns)
        return build(ids, group_columns, scores)

    monkeypatch.setattr(fairscore.cli, "build_population", recording_build)
    header, lines, pop = load_csv(cfg)
    # on both paths the records are the lines csv.writer writes, which quotes no "a1"
    assert lines == [row.replace('"', "") for row in rows]
    assert calls == [[["x", "y", "x", "y", "z"], ["A", "A", "B", "B", "B"]]]
    assert all(type(column) is list for column in calls[0])
    keys = [("x", "A"), ("x", "B"), ("y", "A"), ("y", "B"), ("z", "B")]
    assert [key.values for key in pop.groups] == keys


def test_load_csv_leaves_no_row_tuple_to_the_collector(tmp_path):
    """The groups are built from one list per group column, so no collection
    that runs inside ``load_csv`` with the caller's collector on walks a
    per-row group tuple. One generation-0 pass may still run over a few
    objects: CPython keeps up to 2000 freed small tuples on a free list
    without lowering the collector's allocation count."""
    n = 5000
    lines = ["id,sex,score", *(f"r{i},{'AB'[i % 2]},{i / 7}" for i in range(n))]
    (tmp_path / "in.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = RunConfig(input=str(tmp_path / "in.csv"), group_columns=["sex"], id_column="id")
    row_keys = (("A",), ("B",))
    walked = []

    def record(phase, info):
        if phase == "start":
            for generation in range(info["generation"] + 1):
                objects = gc.get_objects(generation)
                walked.append(sum(type(o) is tuple and o in row_keys for o in objects))

    caller_state = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        pop = load_csv(cfg)[2]
    finally:
        gc.callbacks.remove(record)
        (gc.enable if caller_state else gc.disable)()
    assert len(pop) == n
    assert max(walked, default=0) < 10


def _no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader was called on the line path")


def test_line_path_reads_no_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fairscore.cli.csv, "reader", _no_csv_reader)
    assert run_rows(tmp_path, capsys, AB_ROWS) == (0, "")
    lines = (tmp_path / "out.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == AB_HEADER + ",fair_score"
    assert [line.rsplit(",", 1)[0] for line in lines[1:-1]] == AB_ROWS
    assert lines[-1] == ""


@pytest.mark.parametrize(
    "edits, message",
    [
        ({5: "b2,,4"}, "row 5: missing value in group column 'sex'"),
        ({2: "a1,A,"}, "row 2: missing value in score column 'score'"),
        ({6: "b3,B,five"}, "row 6: score column 'score' value 'five' is not a number"),
        ({4: "b1,B,inf", 3: "a2,A,x"}, "row 3: score column 'score' value 'x' is not a number"),
    ],
    ids=["missing-group", "missing-score", "non-number", "earlier-row"],
)
def test_line_path_names_its_bad_row_without_csv(tmp_path, capsys, monkeypatch, edits, message):
    monkeypatch.setattr(fairscore.cli.csv, "reader", _no_csv_reader)
    rows = list(AB_ROWS)
    for rownum, text in edits.items():
        rows[rownum - 2] = text
    assert run_rows(tmp_path, capsys, rows) == (2, f"error: {message}\n")
    assert not (tmp_path / "out.csv").exists()


def test_field_over_the_limit_exits_2(tmp_path, capsys):
    # the long field is a pass-through one; its line goes on to csv.reader, which names it
    rows = [f"{row},n" for row in AB_ROWS]
    rows[1] += "x" * 131_072
    message = f"input file {tmp_path / 'in.csv'}, line 3: field larger than field limit (131072)"
    assert run_rows(tmp_path, capsys, rows, AB_HEADER + ",note") == (2, f"error: {message}\n")


# a 4-row A/B table, quoted, with CRLF line ends and plain
ONE_READ_INPUTS = {
    "quoted": 'id,sex,score,note\na1,A,0,"x, y"\na2,A,2,y\nb1,B,2,\nb2,B,4,"z"\n',
    "crlf": "id,sex,score\r\na1,A,0\r\na2,A,2\r\nb1,B,2\r\nb2,B,4\r\n",
    "plain": "id,sex,score\na1,A,0\na2,A,2\nb1,B,2\nb2,B,4\n",
}


def run_cli_on(tmp_path, input_path, stdin=None):
    """(exit code, stdout, stderr, fair-score CSV, report) of a ``transform``
    child that reads ``input_path``; the outputs are removed after reading."""
    out, report = tmp_path / "out.csv", tmp_path / "report.json"
    argv = ["transform", "--input", str(input_path), "--output", str(out), "--report", str(report),
            "--group-columns", "sex", "--id-column", "id", "--min-group-size", "1"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fairscore.__file__)))
    child = subprocess.run(
        [sys.executable, "-m", "fairscore.cli", *argv],
        input=stdin, capture_output=True, env=env, timeout=60,
    )
    outputs = child.returncode, child.stdout, child.stderr, _bytes(out), _bytes(report)
    for path in (out, report):
        path.unlink(missing_ok=True)
    return outputs


@pytest.mark.parametrize("name", ONE_READ_INPUTS)
def test_a_piped_input_reads_as_the_file_does(tmp_path, name):
    """``--input /dev/stdin`` gives the run's bytes from a regular file, on both paths."""
    data = ONE_READ_INPUTS[name].encode("utf-8")
    (tmp_path / "in.csv").write_bytes(data)
    from_file = run_cli_on(tmp_path, tmp_path / "in.csv")
    assert from_file[0] == 0 and from_file[3] is not None
    assert run_cli_on(tmp_path, "/dev/stdin", stdin=data) == from_file


@pytest.mark.parametrize("name", ["plain", "crlf"], ids=["line-path", "csv-path"])
def test_a_byte_order_mark_reads_as_its_absence(tmp_path, name):
    """Excel's "CSV UTF-8" starts with a byte-order mark, which must not become
    part of the first column's name."""
    data = ONE_READ_INPUTS[name].encode("utf-8")
    (tmp_path / "in.csv").write_bytes(data)
    without = run_cli_on(tmp_path, tmp_path / "in.csv")
    (tmp_path / "in.csv").write_bytes(codecs.BOM_UTF8 + data)
    assert without[0] == 0 and run_cli_on(tmp_path, tmp_path / "in.csv") == without


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("name", ONE_READ_INPUTS)
def test_a_fifo_input_reads_as_the_file_does(tmp_path, name):
    """A named FIFO is read once: a second open would wait for a writer that
    never comes, and the child's timeout would fail the test."""
    data = ONE_READ_INPUTS[name].encode("utf-8")
    (tmp_path / "in.csv").write_bytes(data)
    from_file = run_cli_on(tmp_path, tmp_path / "in.csv")
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except OSError:  # the reader went away
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        from_fifo = run_cli_on(tmp_path, fifo)
    finally:
        if writer.is_alive():  # still waiting for a reader: open one to release it
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
    assert from_fifo == from_file


@pytest.mark.parametrize(
    "text",
    [
        ONE_READ_INPUTS["plain"],
        ONE_READ_INPUTS["quoted"],
        ONE_READ_INPUTS["plain"] + "c1,C\n",  # a bad row, named on the line path
        ONE_READ_INPUTS["plain"] + "c1,C," + "0" * 131_073 + "\n",  # over the field limit
    ],
    ids=["line-path", "csv-path", "bad-row", "field-limit"],
)
def test_load_csv_opens_its_input_once(tmp_path, monkeypatch, text):
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(fairscore.cli, "open", counting_open, raising=False)
    cfg = RunConfig(input=str(tmp_path / "in.csv"), group_columns=["sex"], id_column="id")
    try:
        load_csv(cfg)
    except ValidationError:
        pass
    assert opened == [cfg.input]


LOADER_CONFIGS = [
    RunConfig(input="in.csv", group_columns=["sex"], id_column="id"),
    RunConfig(input="in.csv", score_columns=["s1", "score"], group_columns=["sex"]),
    RunConfig(input="in.csv", score_columns=["g"], group_columns=["sex", "note"], id_column="id"),
]


@st.composite
def quote_free_texts(draw):
    """A non-empty text with no ``"``, ``\\r`` or NUL: a header of 0 to 4 known
    names, then lines of 0 to 5 fields, often of the header's width."""
    header = draw(st.lists(st.sampled_from(["id", "sex", "score", "s1", "g", "note"]), max_size=4))
    value = st.one_of(
        st.sampled_from(["", " ", "A", "B", "1", "-0.0", " 2 ", "1e400", "nan", "x", "r1"]),
        st.floats(-1e6, 1e6, allow_nan=False).map(repr),
        st.text(alphabet="ab 9.;\x0b\x0c\x1c\x1e\x85\u2028é東", max_size=3),
    )
    widths = st.one_of(st.just(len(header)), st.integers(0, 5))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(widths)
        lines.append(",".join(draw(st.lists(value, min_size=width, max_size=width))))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    assume(text)
    return text


def _loaded(loader, text, cfg):
    """``loader(text, cfg)`` as comparable values, or the text of its error."""
    try:
        header, lines, (ids, groups, scores) = loader(text, cfg)
    except ValidationError as exc:
        return str(exc)
    return header, lines, ids, groups, scores.shape, scores.tobytes()


@settings(max_examples=400, deadline=None)
@given(quote_free_texts(), st.sampled_from(LOADER_CONFIGS), st.sampled_from([None, 4, 8]))
@example("g\n1\n\n2\n", LOADER_CONFIGS[2], None)  # a one-column header, an empty line
@example("\nid,sex,score\n", LOADER_CONFIGS[0], None)  # an empty header
@example("id,sex,score\n", LOADER_CONFIGS[0], None)  # a header with no data row
@example("id,sex,score\nr1,A\n", LOADER_CONFIGS[0], None)  # a wrong field count
@example("id,sex\nr1,A\n", LOADER_CONFIGS[0], None)  # a missing configured column
@example("id,sex,score\nr1,A,1\n\nr2,B,2\n", LOADER_CONFIGS[0], 4)  # a line over the limit
def test_the_two_loaders_agree_on_quote_free_texts(text, cfg, limit):
    """On a quote-free text, valid or not, the line path returns what
    ``csv.reader`` reads or raises its error, under any field size limit."""
    default = csv.field_size_limit()
    csv.field_size_limit(limit or default)
    try:
        by_lines = _loaded(fairscore.cli._load_lines, text, cfg)
        by_rows = _loaded(fairscore.cli._load_rows, text, cfg)
    finally:
        csv.field_size_limit(default)
    assert by_lines == by_rows


def _read_csv(source):
    """(rows, error message, line_num) of ``csv.reader`` over ``source``."""
    reader = csv.reader(source)
    rows = []
    try:
        for row in reader:
            rows.append(row)
    except csv.Error as exc:
        return rows, str(exc), reader.line_num
    return rows, None, reader.line_num


CSV_PIECES = ["a", ",", '"', "\r", "\n", "\r\n", "\x0b", "\x85", "\u2028", "\0", "Zoë"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(CSV_PIECES), max_size=40).map("".join))
def test_csv_reader_reads_the_lines_as_a_string_io(text):
    """``_lines`` gives ``csv.reader`` what ``io.StringIO(text, newline="")``
    gives it: the same rows, the same error and the same line number."""
    assert _read_csv(fairscore.cli._lines(text)) == _read_csv(io.StringIO(text, newline=""))


def test_one_column_header_reports_an_empty_line(tmp_path):
    # with 1 column an empty line has the header's comma count, 0
    (tmp_path / "in.csv").write_text("g\n1\n\n2\n", encoding="utf-8")
    cfg = RunConfig(input=str(tmp_path / "in.csv"), score_columns=["g"], group_columns=["g"])
    with pytest.raises(ValidationError) as err:
        load_csv(cfg)
    assert str(err.value) == "row 3: expected 1 fields, got 0"


def test_line_at_the_field_limit_takes_the_line_path(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fairscore.cli.csv, "reader", _no_csv_reader)
    rows = with_row(3, "a2,A," + "0" * (131_072 - 5))
    assert run_rows(tmp_path, capsys, rows) == (0, "")


# Text fields: empty, spaces, control and line-separator characters that
# str.splitlines() breaks at but csv.reader keeps, and non-ASCII letters.
# NUL is included where csv.reader accepts it (Python 3.11 on); it sends the
# input down the csv.reader path.
_FIELD_CHARS = "ab Z9;'\x0b\x0c\x1c\x1e\x85\u2028éß東"
try:
    list(csv.reader(["\0"]))
    _FIELD_CHARS += "\0"
except csv.Error:
    pass


@st.composite
def quote_free_tables(draw, quoted=False):
    """(input text, score column names) of a well-formed table without ``"`` or ``\\r``.

    A ``quoted`` table's ids, groups and text fields may also hold ``"``,
    ``,``, ``\\n`` and ``\\r``: ``csv.writer`` writes it, with ``\\n`` or
    ``\\r\\n`` line ends, and quotes such fields. It quotes a lone ``\\r``
    only under ``\\r\\n`` line ends, so an ``\\n``-ended text must read back
    as written.
    """
    dimension = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 12))
    score_names = ["score"] if dimension == 1 else ["s1", "s2"]
    notes = draw(st.integers(0, 2))
    header = ["id", "sex", *score_names, *(f"note{k}" for k in range(notes))]
    text_field = st.text(alphabet=_FIELD_CHARS + ('",\n\r' if quoted else ""), max_size=6)
    number = st.floats(-1e6, 1e6, allow_nan=False).map(repr)
    padded = st.tuples(st.sampled_from(["", " "]), number, st.sampled_from(["", "  "]))
    groups = ["A", "B", " A", "é"] + (['"A"', "A,B", "B\r\n"] if quoted else [])
    ids = ["r", 'r"', "r,", "r\n"] if quoted else ["r"]
    rows = [header]
    for i in range(n):
        group = "AB"[i % 2] if i < 2 else draw(st.sampled_from(groups))
        scores = ["".join(draw(padded)) for _ in score_names]
        row_id = draw(st.sampled_from(ids)) + str(i)
        rows.append([row_id, group, *scores, *(draw(text_field) for _ in range(notes))])
    if quoted:
        out = io.StringIO()
        csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
        assume(list(csv.reader(io.StringIO(out.getvalue(), newline=""))) == rows)
        return out.getvalue(), score_names
    newline = draw(st.sampled_from(["\n", ""]))
    return "\n".join(map(",".join, rows)) + newline, score_names


def reference_output(text: str, produced: bytes, fair_width: int) -> bytes:
    """csv.reader's rows of ``text``, with the last ``fair_width`` columns of
    ``produced`` appended, written by csv.writer with ``\\n`` line ends. Each
    line is written with ``\\r\\n`` and its end replaced, since csv.writer
    quotes a field that holds a lone ``\\r`` only when the terminator holds one."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    output = csv.reader(io.StringIO(produced.decode("utf-8"), newline=""))
    fair = [row[-fair_width:] for row in output]
    assert len(fair) == len(rows)
    lines = []
    for row, extra in zip(rows, fair):
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row + extra)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def assert_round_trips_like_csv(table):
    """``transform`` writes each input row and its fair scores as ``csv.writer``
    writes the row ``csv.reader`` read; csv.reader may run only on an input
    that the line path refuses."""
    text, score_names = table
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.csv").write_bytes(text.encode("utf-8"))
        cfg = {
            "input": str(tmp / "in.csv"),
            "score_columns": score_names,
            "group_columns": ["sex"],
            "id_column": "id",
            "min_group_size": 1,
            "grid_size": 8,
            "epsilon": 0.1,
            "output": str(tmp / "out.csv"),
            "report": str(tmp / "report.json"),
        }
        (tmp / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        reader = csv.reader if {'"', "\r", "\0"} & set(text) else _no_csv_reader
        with mock.patch.object(fairscore.cli.csv, "reader", reader):
            assert main(["transform", "--config", str(tmp / "config.json")]) == 0
        produced = (tmp / "out.csv").read_bytes()
    assert produced == reference_output(text, produced, len(score_names))


@settings(max_examples=60, deadline=None)
@given(quote_free_tables())
def test_quote_free_tables_round_trip_like_csv(table):
    assert_round_trips_like_csv(table)


@settings(max_examples=60, deadline=None)
@given(quote_free_tables(quoted=True))
def test_quoted_tables_round_trip_like_csv(table):
    assert_round_trips_like_csv(table)


@pytest.mark.parametrize(
    "text",
    [
        'id,sex,score,note\na1,A,0,"x"\na2,A,2,y\nb1,B,2,\nb2,B,4,"z"\n',
        "id,sex,score\r\na1,A,0\r\na2,A,2\r\nb1,B,2\r\nb2,B,4\r\n",
        "id,sex,score\ra1,A,0\ra2,A,2\rb1,B,2\rb2,B,4",
    ],
    ids=["quoted-field", "crlf", "cr"],
)
def test_quotes_and_carriage_returns_take_the_csv_path(tmp_path, capsys, text):
    (tmp_path / "in.csv").write_bytes(text.encode("utf-8"))
    cfg = RunConfig(
        input=str(tmp_path / "in.csv"), id_column="id", group_columns=["sex"], min_group_size=1,
        output=str(tmp_path / "out.csv"), report=str(tmp_path / "report.json"),
    )
    assert fairscore.cli.run_transform(cfg) == 0
    produced = (tmp_path / "out.csv").read_bytes()
    assert produced == reference_output(text, produced, 1)
    assert b'"' not in produced and b"\r" not in produced


def test_a_field_holding_a_lone_carriage_return_reads_back_as_one(tmp_path):
    text = 'id,sex,score,note\r\na1,A,0,"x\ry"\r\na2,A,2,y\r\nb1,B,2,\r\nb2,B,4,"z\r"\r\n'
    (tmp_path / "in.csv").write_bytes(text.encode("utf-8"))
    cfg = RunConfig(
        input=str(tmp_path / "in.csv"), id_column="id", group_columns=["sex"], min_group_size=1,
        output=str(tmp_path / "out.csv"), report=str(tmp_path / "report.json"),
    )
    assert fairscore.cli.run_transform(cfg) == 0
    with open(tmp_path / "out.csv", newline="", encoding="utf-8") as fh:
        produced = [row[:4] for row in csv.reader(fh)]
    assert produced == list(csv.reader(io.StringIO(text, newline="")))


def _commas_per_line_by_count(text: str, width: int) -> bool:
    """The per-line field count that ``_fields_per_line`` replaced: one
    ``str.count`` per line."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return {line.count(",") for line in lines} == {width - 1}


@st.composite
def texts_and_widths(draw):
    """A header width and a text whose lines mostly hold that many fields."""
    width = draw(st.integers(2, 4))
    field = st.text(alphabet=_FIELD_CHARS, max_size=3)
    good = st.lists(field, min_size=width, max_size=width).map(",".join)
    bad = st.text(alphabet=",\n" + _FIELD_CHARS, max_size=10)
    lines = draw(st.lists(st.one_of(good, good, bad), min_size=1, max_size=6))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""])), width


@settings(max_examples=300, deadline=None)
@given(texts_and_widths())
def test_field_count_scan_equals_per_line_count(case):
    """The byte scan accepts exactly the texts the per-line count accepts,
    non-ASCII, empty lines and a missing final newline included."""
    text, width = case
    assert fairscore.cli._fields_per_line(text, width) == _commas_per_line_by_count(text, width)


def _powers_of_ten_and_neighbours():
    power = st.integers(-307, 307).map(lambda e: 10.0**e)
    step = st.sampled_from([-np.inf, None, np.inf])
    return st.tuples(power, step).map(lambda p: p[0] if p[1] is None else np.nextafter(*p))


_EGRESS_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
    st.floats(5e-324, 2.2250738585072009e-308),  # subnormals
    st.floats(1e-300, 1e-5),
    st.floats(1e16, 1e308),
    st.integers(-(2**60), 2**60).map(float),
    _powers_of_ten_and_neighbours(),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def lines_and_values(draw):
    """1 to 12 pass-through lines (non-ASCII, ``%`` and braces included) and
    1 to 3 float columns."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    text = st.text(alphabet=_FIELD_CHARS + ",%{}", max_size=8)
    lines = draw(st.lists(text, min_size=n, max_size=n))
    row = st.lists(_EGRESS_VALUES, min_size=k, max_size=k)
    return lines, np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float)


@settings(max_examples=200, deadline=None)
@given(lines_and_values(), st.sampled_from([1, 2, 5, fairscore.cli.EGRESS_BLOCK_ROWS]))
def test_line_path_egress_equals_per_row_format(case, block_rows):
    """One ``%`` per block over the interleaved lines and values writes the
    bytes that ``str.format`` with ``{:.17g}``, row by row, wrote."""
    lines, values = case
    k = values.shape[1]
    names = [f"fair_{j}" for j in range(k)]
    expected = ",".join(["id"] + names) + "\n"
    expected += "\n".join(map(("{}" + ",{:.17g}" * k).format, lines, *values.T.tolist())) + "\n"
    with mock.patch.object(fairscore.cli, "EGRESS_BLOCK_ROWS", block_rows):
        chunks = fairscore.cli._with_columns(["id"], lines, names, values if k > 1 else values[:, 0])
        assert "".join(chunks) == expected


def _file_writes(tree: ast.AST, owner: str = "") -> list[tuple[str, str]]:
    """(enclosing function, call) of each call under ``tree`` that can write
    a file: ``open`` with a writing mode, ``write_text``, ``write_bytes`` and
    ``csv.writer``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _file_writes(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            writing = any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes
            )
            if (name == "open" and writing) or name in ("write_text", "write_bytes"):
                found.append((owner, name))
            if isinstance(func, ast.Attribute) and ast.unparse(func) == "csv.writer":
                found.append((owner, "csv.writer"))
        found += _file_writes(node, owner)
    return found


def test_every_output_file_is_written_in_one_place():
    """``_write`` opens every file the CLI writes, and ``_csv_lines`` makes the
    only ``csv.writer``, so every output has one error path and one quoting."""
    tree = ast.parse(Path(fairscore.cli.__file__).read_text(encoding="utf-8"))
    assert sorted(_file_writes(tree)) == [("_csv_lines", "csv.writer"), ("_write", "open")]
