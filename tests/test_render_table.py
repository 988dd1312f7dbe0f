"""render_table takes rows as tuples of cells in header order, and csv
and markdown cells a column at a time from `_column`: csv joins each
line's cells with commas, and markdown fills one
`%` row template per table in one pass, the header filling it as a row does
(both padded through one `%-{w}s` per column); jsonl fills its template with
the tokens of one encode of every cell.  Its bytes must equal the
cell-at-a-time renderer it replaced, kept here verbatim as the oracle and
fed each row as dict(zip(header, row)), in every format at every
precision."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrconc.cli import OutputSpec, render_table


# --- oracle: the cell-at-a-time renderer, verbatim --------------------------

def _fmt_cell(value, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _json_cell(value, precision: int):
    if isinstance(value, float):
        return round(value, precision)
    return value


def oracle_render_table(header: list[str], rows: list[dict], out: OutputSpec) -> str:
    if out.format == "jsonl":
        lines = [
            json.dumps({k: _json_cell(row[k], out.precision) for k in header})
            for row in rows
        ]
        return "\n".join(lines) + "\n"
    cells = [[_fmt_cell(row[k], out.precision) for k in header] for row in rows]
    if out.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(header)
    ]
    lines = [
        "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
        "|" + "|".join("-" * (w + 2) for w in widths) + "|",
    ]
    for r in cells:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
    return "\n".join(lines) + "\n"


# --- inputs -----------------------------------------------------------------

_WORDS = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-",
                 min_size=1, max_size=12)
_SPECIAL = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
            1e300, -1e300, 1.7976931348623157e308, 0.5, 2.5, 1e-7, 123456789.123456789]


def _floats(precision: int):
    # (2k + 1) / 2^(p + 1) has p + 1 decimals ending in 5: a tie at the
    # last printed decimal.
    ties = st.builds(lambda k, sign: sign * (2 * k + 1) / 2.0 ** (precision + 1),
                     st.integers(0, 2**20), st.sampled_from([1.0, -1.0]))
    return st.one_of(st.floats(), st.sampled_from(_SPECIAL), ties)


@st.composite
def _tables(draw):
    precision = draw(st.integers(1, 15))
    floats = _floats(precision)
    float64s = floats.map(np.float64)
    kinds = [floats, float64s, st.one_of(floats, float64s), st.integers(-10**6, 10**6),
             st.booleans(), _WORDS]
    kinds.append(st.one_of(*kinds))
    header = draw(st.lists(_WORDS, min_size=1, max_size=5, unique=True))
    columns = [draw(st.sampled_from(kinds)) for _ in header]
    rows = draw(st.lists(st.tuples(*columns), max_size=8))
    return header, rows, precision


def _oracle(header, rows, out):
    return oracle_render_table(header, [dict(zip(header, row)) for row in rows], out)


# round() on a huge np.float64 warns of overflow, in both renderers alike.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(_tables())
def test_matches_cell_at_a_time_renderer(table):
    header, rows, precision = table
    for fmt in ("csv", "markdown", "jsonl"):
        out = OutputSpec(format=fmt, precision=precision)
        assert render_table(header, rows, out) == _oracle(header, rows, out)


def test_zero_rows():
    for fmt in ("csv", "markdown", "jsonl"):
        out = OutputSpec(format=fmt, precision=3)
        assert render_table(["r", "density"], [], out) == _oracle(["r", "density"], [], out)


@pytest.mark.parametrize("precision", [3.0, True])
def test_precision_must_be_an_integer(precision):
    with pytest.raises(TypeError, match="precision must be an integer"):
        OutputSpec(precision=precision)


def test_unknown_format_is_refused():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        OutputSpec(format="xml")


def test_numpy_integer_precision_is_stored_as_int():
    out = OutputSpec(precision=np.int64(4))
    assert type(out.precision) is int and out.precision == 4
    assert render_table(["x"], [(0.5,)], out) == "x\n0.5000\n"
