"""Tests for the utility layer: stats, tables, timing, validation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.util.stats import fit_loglog
from repro.util.tables import Table, format_float, render_table
from repro.util.timing import format_seconds
from repro.util.validation import (
    check_epsilon,
    check_positive,
    check_probability,
)


class TestStats:
    def test_fit_exact_power_law(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x**1.5 for x in xs]
        fit = fit_loglog(xs, ys)
        assert abs(fit.exponent - 1.5) < 1e-9
        assert abs(fit.constant - 3.0) < 1e-6
        assert fit.r_squared > 0.999999

    def test_fit_predict(self):
        fit = fit_loglog([1, 2, 4], [2, 4, 8])
        assert abs(fit.predict(8) - 16) < 1e-6

    def test_fit_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_loglog([1], [1])
        with pytest.raises(ValueError):
            fit_loglog([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_loglog([1, 2], [1, 2, 3])

    @given(st.floats(0.5, 3.0), st.floats(0.1, 10.0))
    def test_fit_recovers_parameters(self, exponent, constant):
        xs = [5, 17, 60, 200]
        ys = [constant * x**exponent for x in xs]
        fit = fit_loglog(xs, ys)
        assert abs(fit.exponent - exponent) < 1e-6


class TestTables:
    def test_render_alignment(self):
        t = Table("demo", ["a", "bb"])
        t.add_row(1, 22)
        t.add_row(333, 4)
        text = t.render()
        lines = text.splitlines()
        assert "demo" in lines[0]
        assert len({len(l) for l in lines[2:5]}) == 1  # aligned widths

    def test_row_width_checked(self):
        t = Table("demo", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_notes_rendered(self):
        t = Table("demo", ["a"])
        t.add_row(1)
        t.add_note("hello note")
        assert "hello note" in t.render()

    def test_format_float(self):
        assert format_float(True) == "yes"
        assert format_float(False) == "no"
        assert format_float(2.0) == "2"
        assert format_float(2.5) == "2.5"
        assert format_float(float("nan")) == "nan"
        assert format_float("txt") == "txt"

    def test_render_table_plain(self):
        text = render_table("t", ["x"], [["1"], ["2"]])
        assert "1" in text and "2" in text


class TestTiming:
    def test_format_seconds(self):
        assert format_seconds(5e-7).endswith("us")
        assert format_seconds(0.005).endswith("ms")
        assert format_seconds(1.5).endswith("s")
        assert "m" in format_seconds(150)


class TestValidation:
    def test_epsilon(self):
        assert check_epsilon(0.5) == 0.5
        with pytest.raises(ParameterError):
            check_epsilon(1.01)

    def test_probability(self):
        assert check_probability(0.0) == 0.0
        with pytest.raises(ParameterError):
            check_probability(-0.1)

    def test_positive(self):
        assert check_positive(3) == 3.0
        with pytest.raises(ParameterError):
            check_positive(0)
