"""The array number formatter against Python's ``%``, byte for byte."""

import csv
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rumorsim import numtext
from rumorsim.integrator import write_table
from rumorsim.svg import _points

FORMATS = [("%.9g", False), ("%.3f", True)]


def formatted(values, fixed):
    """Each value's text from one kernel call."""
    codes, keep = numtext.records(np.asarray(values, dtype=float), ord("\n"), fixed)
    return numtext.join([(codes, keep)]).split("\n")[:-1]


def reference(values, fmt):
    return [fmt % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@pytest.mark.parametrize("fmt, fixed", FORMATS)
@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(values=st.lists(st.floats() | st.integers(0, 2**64 - 1).map(_from_bits), min_size=1, max_size=12))
def test_every_double_prints_as_percent(fmt, fixed, values):
    assert formatted(values, fixed) == reference(values, fmt)


# %.3f prints values from 1e9 up only through % (the kernel's fallback), and
# % takes microseconds for each of their hundreds of digits
@pytest.mark.parametrize("fmt, fixed, top", [("%.9g", False, 308), ("%.3f", True, 25)])
def test_sweep_of_decimal_exponents(fmt, fixed, top):
    rng = np.random.default_rng(20261019)
    n = 1_000_000
    with np.errstate(over="ignore"):
        values = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-320, top + 1, n).astype(float)
    values *= rng.choice([-1.0, 1.0], n)
    for chunk in np.split(values, 100):  # a few MB of records at a time
        assert formatted(chunk, fixed) == reference(chunk, fmt)


EDGES = [
    ("%.3f", 0.0625, "0.062"),  # exact ties round to even
    ("%.3f", 0.1875, "0.188"),
    ("%.9g", 100000000.5, "100000000"),
    ("%.9g", 100000001.5, "100000002"),
    ("%.9g", 999999999.5, "1e+09"),
    ("%.3f", 0.5825, "0.583"),  # scaled, these round onto a tie their exact values miss
    ("%.3f", 3522.4575, "3522.457"),
    ("%.9g", 7.347461605, "7.34746161"),
    ("%.9g", 6.238320965e-08, "6.23832096e-08"),
    ("%.9g", -0.0, "-0"),
    ("%.9g", 0.0, "0"),
    ("%.3f", -0.0, "-0.000"),
    ("%.3f", -0.0001, "-0.000"),
    ("%.9g", 1e-05, "1e-05"),  # where %g switches notation
    ("%.9g", 0.0001, "0.0001"),
    ("%.9g", 123456789.0, "123456789"),
    ("%.9g", 1234567890.0, "1.23456789e+09"),
    ("%.9g", 5e-324, "4.94065646e-324"),
    ("%.3f", 5e-324, "0.000"),
    ("%.9g", float("nan"), "nan"),
    ("%.9g", float("inf"), "inf"),
    ("%.9g", float("-inf"), "-inf"),
    ("%.3f", float("nan"), "nan"),
    ("%.3f", float("-inf"), "-inf"),
    ("%.3f", 1e23, "99999999999999991611392.000"),
    ("%.3f", -1e24, "-999999999999999983222784.000"),  # one slot wider than a record
    ("%.3f", 1e25, "10000000000000000905969664.000"),
]


@pytest.mark.parametrize("fmt, value, text", EDGES)
def test_edge_values(fmt, value, text):
    fixed = fmt == "%.3f"
    assert fmt % value == text
    assert formatted([value], fixed) == [text]
    # the same value among values the kernel prints itself
    assert formatted([0.5, value, -2.25], fixed) == [fmt % 0.5, text, fmt % -2.25]


@pytest.mark.parametrize("fmt, fixed", FORMATS)
def test_powers_of_ten_and_their_neighbours(fmt, fixed):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert formatted(values, fixed) == reference(values, fmt)


def test_two_dimensional_records_take_a_separator_per_column():
    values = np.array([[0.5, 1 / 3, np.nan], [-2.0, 1e-20, 7.0]])
    codes, keep = numtext.records(values, np.array([ord(","), ord(","), ord("\n")], np.uint8))
    assert numtext.join([(codes, keep)]) == "0.5,0.333333333,nan\n-2,1e-20,7\n"


def test_table_of_every_column_kind_matches_the_csv_module(tmp_path):
    rng = np.random.default_rng(7)
    rows = 5_000  # several chunks
    texts = ["plain", "a,b", 'say "x"', "two\nlines", "", "50% off", "naïve"]
    notes = [texts[i] for i in rng.integers(0, len(texts), rows)]
    counts = rng.integers(-(2**62), 2**62, rows)
    flags = rng.random(rows) < 0.5
    values = rng.uniform(-1.0, 1.0, rows) * 10.0 ** rng.integers(-30, 30, rows).astype(float)
    values[::97] = np.nan
    values[::89] = -np.inf
    small = rng.uniform(0.0, 1.0, rows)
    out = tmp_path / "table.csv"
    write_table(out, ["k", "v", "flag", "note", "u"], [counts, values, flags, notes, small], meta={"x": 0.1})
    expected = io.StringIO()
    expected.write("# x=0.1\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["k", "v", "flag", "note", "u"])
    for row in zip(counts.tolist(), values.tolist(), flags.tolist(), notes, small.tolist()):
        writer.writerow([row[0], "%.9g" % row[1], int(row[2]), row[3], "%.9g" % row[4]])
    with open(out, newline="") as fh:
        assert fh.read() == expected.getvalue()


def test_band_polygon_matches_percent_pairs():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(64.0, 706.0, 2001))
    hi, lo = rng.uniform(30.0, 200.0, 2001), rng.uniform(200.0, 414.0, 2001)
    px = numtext.records(xs, ord(","), fixed=True)
    points = f"{_points(px, hi)} {_points([r[::-1] for r in px], lo[::-1])}"
    pairs = [*zip(xs.tolist(), hi.tolist()), *zip(xs[::-1].tolist(), lo[::-1].tolist())]
    assert points == " ".join("%.3f,%.3f" % pair for pair in pairs)
