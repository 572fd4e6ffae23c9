"""The CLI's vectorised CSV writer prints every double byte for byte as
``"%.17g" % value`` does, one value at a time."""

import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tempstable as ts
from conftest import csv_17g
from tempstable.cli import _csv, _decimal

#: odd j / 2**18 from here up has 18 significant digits ending in 5: an exact
#: tie at 17 digits
_FIRST_TIE = 26215


def _neighbours(x, ulps=1):
    """x and the ``ulps`` doubles on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def _assert_same_text(header, *columns):
    """The writer's bytes are "%.17g"'s text; a mismatch names its first line
    (a plain == on megabytes of text would have pytest diff them)."""
    got, want = _csv(header, *columns), csv_17g(header, *columns).encode()
    if got != want:
        line = next(pair for pair in zip_longest(got.splitlines(), want.splitlines())
                    if pair[0] != pair[1])
        pytest.fail("writer %r != %%.17g %r" % line)


def _assert_exact(values):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    for width in (1, 2, 3):
        _assert_same_text("h", *values[:values.size // width * width].reshape(-1, width).T)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(0, 50).flatmap(
    lambda rows: st.lists(st.lists(st.floats(), min_size=rows, max_size=rows), max_size=3)))
def test_matches_17g_on_any_floats(columns):
    _assert_same_text("a,b,c", *(np.array(c, dtype=float) for c in columns))


def test_matches_17g_on_random_bit_patterns():
    bits = np.random.default_rng(20240801).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    for chunk in np.split(values, 10):
        _assert_same_text("x,y", chunk[::2], chunk[1::2])


def test_matches_17g_at_powers_of_ten_and_two():
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    twos = [2.0**k for k in range(-1074, 1024)]
    _assert_exact([v for x in tens + twos for v in _neighbours(x)])


def test_matches_17g_at_the_notation_switch_points():
    # fixed notation from 1e-4 up to 17 integer digits, scientific outside
    switches = [1e-5, 1e-4, 1e-3, 1.0, 1e15, 1e16, 1e17, 1e18]
    extremes = [0.0, 5e-324, 2.2250738585072014e-308]
    largest = np.finfo(float).max
    _assert_exact([v for x in switches + extremes for v in _neighbours(x, 8)]
                  + [largest, np.nextafter(largest, 0.0)])


def test_matches_17g_at_dyadic_ties():
    _assert_exact(np.arange(1, 2**18, 2) / 2**18)


def test_fallback_takes_ties_and_non_finite_values():
    ties = np.arange(_FIRST_TIE, 2**18, 2) / 2**18
    assert _decimal(ties)[2].all()
    below = np.arange(1, _FIRST_TIE, 2) / 2**18
    assert not _decimal(below)[2].any()
    draws = np.abs(np.random.default_rng(5).standard_normal(10**4))
    assert not _decimal(draws)[2].any()
    # the kernel writes digits only; these strings come from "%.17g" itself
    assert _csv("v", np.array([np.nan, np.inf, -np.inf])) == b"v\nnan\ninf\n-inf\n"


def test_zero_and_empty_columns():
    assert _csv("x") == b"x\n"
    assert _csv("x,y", np.array([]), np.array([])) == b"x,y\n"
    assert _csv("x", np.array([0.0, -0.0])) == b"x\n0\n-0\n"


def test_density_csv_memory_is_bounded():
    # the README law's 2**14-node grid: 49 152 values, about 1 MB of bytes
    nodes = 2**14
    law = ts.TemperedStableParams.create(1.0, 0.3, 3.0, 2.0, 0.6, 4.0)
    ev = ts.DensityEvaluator(law, ts.InversionSettings(nodes=nodes))
    grid = ev.grid()
    x, cdf_vals = ev.cdf_grid()
    tracemalloc.start()
    try:
        data = _csv("x,pdf,cdf", x, grid.pdf, cdf_vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.count(b"\n") == nodes + 1
    assert peak < 4 * 2**20
