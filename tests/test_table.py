"""The one CSV writer, ``_table.write_table``, against ``csv.writer``: byte
for byte over mixed columns, its refusals, its preamble rule, and what a
fresh interpreter loads to write."""

import csv
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gaplab
from gaplab import _table, cli


def _format_cell(value):
    """The driver's cell formatting before the one writer."""
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_oracle(path, preamble, header, columns):
    """``csv.writer`` with ``_format_cell`` on every cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in preamble:
            fh.write(str(line).rstrip("\n") + "\n")
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in zip(*columns):
            writer.writerow([_format_cell(v) for v in row])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan,
                math.inf, -math.inf, 1e-300, -1.7976931348623157e308, 1e-5,
                9.999999999999999e-05, 1e16, 1e17, -1.5e22, 0.1, 1 / 3, 1e-10]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats()
_CELLS = (_FLOATS | _FLOATS.map(np.float64)
          | st.integers(-2 ** 70, 2 ** 70)
          | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
          | st.booleans() | st.booleans().map(np.bool_)
          | st.text(st.characters(blacklist_characters=',"\r\n',
                                  blacklist_categories=("Cs",)), max_size=50)
          | st.sampled_from([None, ""]))


@st.composite
def _tables(draw):
    """(header, columns): 2 to 5 columns of 0, 1 or many rows, each a
    float array (all distinct, one bit pattern, or one pattern in part of
    it, like kak's ``bound``), an int array, floats or blanks (like kak's
    ``alpha`` and zigzag's ``total``), or any mix of cells."""
    rows = draw(st.sampled_from([0, 1]) | st.integers(2, 30))

    def cells(strategy):
        return draw(st.lists(strategy, min_size=rows, max_size=rows))

    def column(kind):
        if kind == "floats":
            return np.array(cells(_FLOATS), dtype=float)
        if kind == "one bit pattern":
            return np.full(rows, draw(_FLOATS))
        if kind == "one pattern in part":
            part = np.array(cells(st.booleans()), dtype=bool)
            return np.where(part, draw(_FLOATS), np.array(cells(_FLOATS), dtype=float))
        if kind == "ints":
            return np.array(cells(st.sampled_from([0, 7, -2 ** 63])), dtype=np.int64)
        if kind == "floats or blanks":
            return cells(_FLOATS | st.sampled_from([None, ""]))
        return cells(_CELLS)

    kinds = draw(st.lists(st.sampled_from(["floats", "one bit pattern",
                                           "one pattern in part", "ints",
                                           "floats or blanks", "mixed"]),
                          min_size=2, max_size=5))
    header = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=8),
                           min_size=len(kinds), max_size=len(kinds)))
    return header, [column(kind) for kind in kinds]


_PREAMBLES = [(), ("# schema=kak/v1", "# generated=2026-01-01T00:00:00+00:00"),
              ("# ends in a newline\n",)]
_KAK_LIKE = (["kind", "alpha", "value", "bound", "pass"],
             [["roundtrip", "roundtrip", "distortion"], ["", "", 1.5],
              np.array([3.9e-16, 1.7e-16, 0.0]), [1e-10, 1e-10, 0.049787068367863944],
              [True, np.bool_(False), True]])


@pytest.mark.parametrize("block", [1, 7, _table._BLOCK_ROWS])
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(table=_tables(), preamble=st.sampled_from(_PREAMBLES))
@example(table=_KAK_LIKE, preamble=_PREAMBLES[1])
@example(table=(["a", "b"], [[], np.array([])]), preamble=_PREAMBLES[2])
@example(table=(["wide", "x"], [["w" * 60, 2.5], [1.0, "v" * 45]]), preamble=())
@example(table=(["zero", "w"], [np.array([0.0, -0.0, 0.0]), np.full(3, 1 / 3)]),
         preamble=())
def test_write_table_matches_csv_writer(tmp_path_factory, block, table, preamble):
    header, columns = table
    base = tmp_path_factory.mktemp("table")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_table, "_BLOCK_ROWS", block)
        _table.write_table(base / "got.csv", preamble, header, columns)
    _csv_oracle(base / "want.csv", preamble, header, columns)
    assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()


@pytest.mark.parametrize("header, columns", [
    (["note", "x"], [["fine", "a,b"], [1.0, 2.0]]),
    (["note", "x"], [['say "x"', "fine"], [1.0, 2.0]]),
    (["note", "x"], [["a\rb", "fine"], [1.0, 2.0]]),
    (["note", "x"], [["fine", "a\nb"], [1.0, 2.0]]),
    (["a,b", "x"], [["fine", "fine"], [1.0, 2.0]]),
    (["note", "x"], [["fine", "fine"], [1.0, 2.0, 3.0]]),
    (["note", "x", "y"], [["fine", "fine"], [1.0, 2.0]]),
], ids=["comma", "quote", "carriage return", "newline", "header", "lengths",
        "one column short"])
def test_write_table_refuses_before_opening(tmp_path, header, columns):
    # a string that csv.writer would quote, and columns that do not make
    # rows, are refused; no file is left behind
    with pytest.raises(ValueError, match="csv would quote|one length"):
        _table.write_table(tmp_path / "t.csv", (), header, columns)
    assert not (tmp_path / "t.csv").exists()


def test_case_table_preamble_line_ending_in_newline_gets_one(tmp_path):
    # case tables and the sample log share the rule: strip, then one \n
    cfg = cli.ExperimentConfig("quotient-gap", {"order": [3], "sl3": [0]})
    report = cli.run("quotient-gap", cfg)
    cli._write_case_table(tmp_path / "q.csv", report, ["# one\n", "# two"])
    assert (tmp_path / "q.csv").read_bytes().startswith(
        b"# one\n# two\n" + ",".join(report.columns).encode() + b"\r\n")


def test_writing_loads_no_numpy_ma(tmp_path):
    # numpy.ma costs ~46 ms to import and ~10 MB; the writer must not pull
    # it in.  cocycle-mc still loads it, through np.quantile in
    # cusp_decay_fit, so this writes a sample log and a case table from a
    # fresh interpreter without running that command
    code = f"""
import sys
from gaplab import cli, induction
x, y, theta, lengths, weights = induction.sample_domain_arrays(50, 1)
induction.write_sample_log({str(tmp_path / 'log.csv')!r}, 1,
                           (x, y, theta, lengths), weights)
report = cli.run("kak", cli.ExperimentConfig(
    "kak", {{"count": [3], "alpha": [1.0], "rcount": [2]}}, seed=1))
cli.write_report_csv({str(tmp_path / 'kak.csv')!r}, report)
print("numpy.ma" in sys.modules)
"""
    src = str(pathlib.Path(gaplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]
    assert (tmp_path / "log.csv").stat().st_size and (tmp_path / "kak.csv").stat().st_size
