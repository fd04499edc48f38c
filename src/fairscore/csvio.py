"""CSV in and out: every decision about the file format is made here.

``read_csv`` reads the input once and takes the id, score and group columns
out of it, one list per column. The text's bytes pick one of two parsers, and
each names its own errors:

- The line path, for a text with no ``"``, no ``\\r`` and no NUL. Each record
  is one line, its fields are the line split at commas, and an empty line has
  no fields. When every line has the header's number of fields, the columns
  are slices of one ``split(",")`` of the joined lines; the lines are kept for
  output. A bad row is named by scanning the lines, split one by one: these
  are the rows ``csv.reader`` would give. A line longer than
  ``csv.field_size_limit()`` sends the text on to ``csv.reader``.
- The ``csv.reader`` path, for every other text. It reports the first bad
  row and keeps each row as the line ``csv.writer`` writes for it.

``render_csv`` renders a CSV as text chunks, and ``commit`` writes every file
of a run. A number is written as ``NUMBER % v``, which no writer quotes: a
row's numbers are appended to its text with one ``%`` per block of
``EGRESS_BLOCK_ROWS`` rows, and ``csv.writer`` writes every other line.
"""

from __future__ import annotations

import csv
import math
import os
import re
import sys
from itertools import chain, islice
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError

# The one format of a written number.
NUMBER = "%.17g"

# Rows per ``%`` call of the egress: one call formats a whole block, and the
# block bounds the temporary tuple, format and output strings.
EGRESS_BLOCK_ROWS = 1 << 16


def read_csv(path: str, score_columns: list[str], group_columns: list[str], id_column: str | None):
    """(header, data lines, (ids, group columns, scores)) of the CSV file at ``path``;
    without an id column, a row's id is its row number."""
    # the text goes to _load_lines alone, which drops it once it is split
    return _load_lines(_read_text(path), path, score_columns, group_columns, id_column)


def _read_text(path: str) -> str:
    """The text of the input file, opened once, without a UTF-8 byte-order mark;
    a file that cannot be read, is not UTF-8 or is empty is a ValidationError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input file {path} is not valid UTF-8: {exc}") from None
    if not text:
        raise ValidationError(f"input file {path} is empty")
    return text


def _load_lines(text: str, path: str, *names):
    """(header, data lines, columns) of ``text``; raises the first bad row's error.

    ``names`` are the score, group and id columns. The line path (see the
    module docstring) splits at ``\\n`` only: ``splitlines`` also breaks at
    ``\\x0b``, ``\\x85`` and others, which ``csv.reader`` keeps in a field. NUL
    goes to ``csv.reader``, which rejects it before Python 3.11. With fewer
    than 2 header fields an empty line would pass the comma count.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return _load_rows(text, path, *names)
    end = text.find("\n")
    header = _fields(text[: len(text) if end < 0 else end])
    width = len(header)
    rectangular = width and _fields_per_line(text, width) and not (width == 1 and "\n\n" in text)
    underscore = "_" in text
    lines = text.split("\n")
    del text
    if max(map(len, lines)) > csv.field_size_limit():
        return _load_rows("\n".join(lines), path, *names)
    if lines[-1] == "":
        lines.pop()  # the final newline ends the last record
    flat = ",".join(lines).split(",") if rectangular else None
    column = (lambda j: flat[width + j :: width]) if rectangular else None
    rows = map(_fields, islice(lines, 1, None))
    columns = _columns(header, rows, column, len(lines) - 1, underscore, *names)
    return header, lines[1:], columns


def _fields(line: str) -> list[str]:
    return line.split(",") if line else []


_NOT_A_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")


def _fields_per_line(text: str, width: int) -> bool:
    """Whether every line of ``text`` holds ``width - 1`` commas, by one scan in C.

    The scan keeps the ``,`` and ``\\n`` bytes of the UTF-8 text, in which no
    multi-byte character holds either. They must be ``width - 1`` commas and a
    line end, repeated; a last line without its ``\\n`` is ended here.
    """
    seps = text.encode().translate(None, _NOT_A_SEPARATOR)
    if not text.endswith("\n"):
        seps += b"\n"
    return seps == (b"," * (width - 1) + b"\n") * (len(seps) // width)


_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` as ``io.StringIO(text, newline="")`` gives them, with no
    copy: only ``\\r\\n``, ``\\r`` and ``\\n`` end a line, unlike in ``splitlines``."""
    return (match.group() for match in _LINE.finditer(text))


def _load_rows(text: str, path: str, *names):
    """(header, data lines, columns) read with ``csv.reader``; raises the first bad row's error."""
    reader = csv.reader(_lines(text))
    try:
        header = next(reader)
        rows = list(reader)
    except csv.Error as exc:
        raise ValidationError(f"input file {path}, line {reader.line_num}: {exc}") from None
    rectangular = not set(map(len, rows)) - {len(header)}
    column = (lambda j: list(map(itemgetter(j), rows))) if rectangular else None
    columns = _columns(header, rows, column, len(rows), "_" in text, *names)
    return header, list(_csv_lines(rows)), columns


def _positions(header: list[str], score_columns, group_columns, id_column) -> dict[str, int]:
    """Each configured column's position; it must appear in ``header`` exactly once."""
    needed = [*score_columns, *group_columns, *([id_column] if id_column else [])]
    for name in needed:
        if name not in header:
            raise ValidationError(f"column {name!r} not found in input header")
        if (count := header.count(name)) > 1:
            raise ValidationError(f"column {name!r} appears {count} times in the input header")
    return {name: header.index(name) for name in needed}


def _float(field: str) -> float:
    """A score field as ``float`` reads it, spaces included, but with no ``_`` in it."""
    if "_" in field:
        raise ValueError(field)
    return float(field)


def _columns(header, rows, column, n: int, underscore, score_columns, group_columns, id_column):
    """(ids, group columns, scores) of the ``n`` data ``rows``, by vectorized checks of
    each ``column(j)`` (None when a row has the wrong width); when one fails, the
    ``rows`` are scanned one by one to raise the first bad row's error. Only when the
    text holds a ``_`` (``underscore``) are the score fields searched for one (see ``_float``)."""
    at = _positions(header, score_columns, group_columns, id_column)
    if column is not None:
        group_cols = [column(at[name]) for name in group_columns]
        score_cols = [column(at[name]) for name in score_columns]
        try:
            scores = np.column_stack([np.fromiter(map(float, c), float, n) for c in score_cols])
        except ValueError:  # a field that is not a number fails the finiteness check
            scores = np.nan
        plain = not underscore or "_" not in "".join(chain(*score_cols))
        if plain and np.isfinite(scores).all() and not any("" in set(col) for col in group_cols):
            row_numbers = map(str, range(2, n + 2))  # the header is row 1
            return tuple(column(at[id_column]) if id_column else row_numbers), group_cols, scores
    _raise_first_bad_row(header, rows, at, score_columns, group_columns)


def _raise_first_bad_row(header, rows: Iterable[list[str]], at, score_columns, group_columns):
    for rownum, row in enumerate(rows, start=2):  # header is row 1
        if len(row) != len(header):
            raise ValidationError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        for name in group_columns:
            if row[at[name]] == "":
                raise ValidationError(f"row {rownum}: missing value in group column {name!r}")
        for name in score_columns:
            field = row[at[name]]
            if field == "":
                raise ValidationError(f"row {rownum}: missing value in score column {name!r}")
            try:
                value = _float(field)
            except ValueError:
                raise ValidationError(
                    f"row {rownum}: score column {name!r} value {field!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(f"row {rownum}: score column {name!r} is not finite")


def _csv_lines(rows: Iterable, end: str = "") -> Iterator[str]:
    """The line ``csv.writer`` writes for each row, ended by ``end``."""
    # csv.writer quotes a field holding "\r" only if the line terminator holds one, so
    # lines end in "\r\n", and write, whose result writerow returns, makes that ``end``
    writer = csv.writer(SimpleNamespace(write=lambda line: line[:-2] + end), lineterminator="\r\n")
    return map(writer.writerow, rows)


def render_csv(header: list[str], values, lines=None, text_columns=()) -> Iterator[str]:
    """The chunks of a CSV: ``header``, then per row of ``values`` its text, if any, and numbers.

    The text is the row's line of ``lines``, passed through, or its fields of
    ``text_columns``; ``values`` is then an array (1-D for one column). With no
    text, ``values`` is a list of rows, in which ``None`` is an empty field.
    """
    if text_columns:
        lines = _csv_lines(zip(*text_columns))
    if lines is not None:
        return _with_columns(header, lines, values)
    rows = (["" if v is None else NUMBER % v for v in row] for row in values)
    return _csv_lines(chain([header], rows), "\n")


def _names_stdout(path: str) -> bool:
    """Whether ``path`` is the file behind stdout's descriptor (``/dev/stdout`` among them)."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError, AttributeError):  # no such file, or stdout has no descriptor
        return False


def refuse_one_file(output: str, report: str) -> None:
    """Refuse two paths to one regular file: one device and inode (a hard link too) or, for
    a file not made yet, one ``realpath``. stdout's own file and a file that is not regular
    are exempt. A path that names the other's file only once that file is made is not seen."""
    try:
        same = os.path.samestat(os.stat(output), os.stat(report)) and os.path.isfile(output)
    except OSError:  # one is not made yet; realpath, unlike Path.resolve, survives a symlink loop
        same = os.path.realpath(output) == os.path.realpath(report)
    if same and not _names_stdout(output):
        raise ValidationError(f"output and report name the same file {output}")


def commit(files: list[tuple[str | None, Iterable[str]]]) -> None:
    """Write each ``(path, chunks)``, every path opened before any is written and each file
    closed before the next; ``None`` paths, and those naming stdout's own file, which are
    never opened, go to stdout, last. A failure leaves no file this call created; a path
    that cannot be opened or written is a ValidationError."""
    to_stdout = [path is None or _names_stdout(path) for path, _ in files]
    targets = [file for file, out in zip(files, to_stdout) if not out]
    created = [path for path, _ in targets if not os.path.lexists(path)]
    handles = []
    try:
        for path, _ in targets:
            handles.append(open(path, "w", newline="", encoding="utf-8"))
        for fh, (path, chunks) in zip(handles, targets):
            with fh:
                fh.writelines(chunks)
    except BaseException as exc:  # also a MemoryError or an interrupt mid-write
        for fh in handles:
            fh.close()
        for name in filter(os.path.lexists, created):
            os.remove(name)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write output file {path}: {exc}") from exc
        raise
    sys.stdout.writelines(chain.from_iterable(c for (_, c), out in zip(files, to_stdout) if out))


def _with_columns(header: list[str], lines: Iterable[str], values: np.ndarray) -> Iterator[str]:
    """The CSV text of ``header`` and the data ``lines``, each with its row of ``values``."""
    columns = values.T.tolist() if values.ndim == 2 else [values.tolist()]
    yield from _csv_lines([header], "\n")
    line = "%s" + ("," + NUMBER) * len(columns) + "\n"
    rows = zip(lines, *columns)
    while block := tuple(chain.from_iterable(islice(rows, EGRESS_BLOCK_ROWS))):
        yield line * (len(block) // (len(columns) + 1)) % block
