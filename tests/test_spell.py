"""The column speller against CPython: every field, its NULs deleted, reads
as ``"%.17g" % x`` or ``json.dumps(x)``, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter import spell

CPYTHON = {"%.17g": "%.17g".__mod__, "json": json.dumps}


def texts(fields) -> list:
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in np.ascontiguousarray(fields.T)]


def assert_spelled(values, styles=tuple(CPYTHON)):
    x = np.array(values, dtype=float)
    for style in styles:
        assert texts(spell.floats(x, style)) == [CPYTHON[style](v) for v in x.tolist()], style


def neighbours(x: float, steps: int) -> list:
    """x and the doubles up to ``steps`` ulps either side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


RAW = st.integers(0, 2 ** 64 - 1).map(lambda bits: np.array([bits], dtype=np.uint64).view(float)[0])
SHORT = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(1, 10 ** 6), st.integers(-40, 40))
POWERS = st.one_of(st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
                   st.integers(-323, 308).map(lambda e: float(f"1e{e}")))
#: decimals of up to 8 places, most of them not exact in binary: 0.1, 0.35, ...
DECIMALS = st.builds(lambda m, places: m / 10 ** places, st.integers(-10 ** 7, 10 ** 7),
                     st.integers(0, 8))
#: k + 1/4 and k + 3/4 with 16 integer digits: ten times them ends in .5
TIES = st.builds(lambda k, quarter: k + quarter, st.integers(10 ** 15, 2 * 10 ** 15),
                 st.sampled_from([0.25, 0.75]))


class TestAgainstCPython:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(RAW, max_size=64))
    def test_raw_bit_patterns(self, values):
        assert_spelled(values)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(SHORT, POWERS), min_size=1, max_size=16), st.integers(1, 2),
           st.booleans())
    def test_neighbours_of_short_decimals_and_powers(self, bases, steps, negative):
        sign = -1.0 if negative else 1.0
        assert_spelled([sign * y for x in bases for y in neighbours(x, steps)])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TIES, min_size=1, max_size=16))
    def test_half_way_ties(self, values):
        assert_spelled(values + [-v for v in values])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(DECIMALS, min_size=1, max_size=32))
    def test_short_decimals(self, values):
        assert_spelled(values)

    def test_columns_rounded_to_3_decimals(self):
        x = np.random.default_rng(3).uniform(-50, 50, 3000)
        assert_spelled(np.round(x, 3).tolist() + np.round(x / 1e6, 3).tolist())

    def test_every_digit_count_in_one_column(self):
        """Values of 1 to 17 digits side by side, each searched for on its own."""
        x = np.random.default_rng(17).uniform(0.5, 5e4, 1700)
        assert_spelled([float(f"{v:.{i % 17 + 1}g}") for i, v in enumerate(x.tolist())])

    def test_named_and_extreme_values(self):
        tiny = [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308]
        edges = [y for x in (1e-250, 1e250) for y in neighbours(x, 2)]
        values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.7976931348623157e308,
                  1e16, 1e17, 123456789012345678.0, 1e-5, 1e-4, 9.999999999999999e-5, 0.5, 2.0]
        assert_spelled([s * v for v in values + tiny + edges for s in (1.0, -1.0)])

    def test_empty_column(self):
        for style in CPYTHON:
            assert texts(spell.floats(np.array([]), style)) == []

    @pytest.mark.parametrize("values", [[0.0] * 5, [-0.0, 0.0, -0.0], [1.0] * 7, [0.1] * 3,
                                        [math.nan] * 4, [math.inf, -math.inf]])
    def test_constant_columns(self, values):
        assert_spelled(values)

    def test_undecided_values_are_spelled_by_cpython(self, monkeypatch):
        asked = []

        def counted(style):
            def spelled(v):
                asked.append(v)
                return CPYTHON[style](v)
            return spelled

        monkeypatch.setattr(spell, "_CPYTHON", {style: counted(style) for style in CPYTHON})
        tie = 1234567890123456.25           # ten times it is 12345678901234562.5
        assert texts(spell.floats(np.array([0.5, tie, 3.0]), "%.17g")) == ["0.5", "%.17g" % tie, "3"]
        assert asked == [tie]


class TestOtherColumns:
    def test_nulls_spell_null(self):
        x = np.array([0.25, math.nan, 1e300, math.nan])
        nulls = np.array([False, True, False, False])
        assert texts(spell.floats(x, "json", nulls)) == ["0.25", "null", "1e+300", "NaN"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-2 ** 63 + 1, 2 ** 63 - 1), min_size=1, max_size=32))
    def test_integers(self, values):
        assert texts(spell.integers(np.array(values, dtype=np.int64))) == ["%d" % v for v in values]

    def test_words(self):
        flags = np.array([True, False, True])
        assert texts(spell.words(flags, ("false", "true"))) == ["true", "false", "true"]
