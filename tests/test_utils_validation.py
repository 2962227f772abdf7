"""Unit tests for the argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_array_1d_ints,
    check_fraction,
    check_int_at_least,
    check_non_negative,
    check_positive,
    check_type,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3.5, "x") == pytest.approx(3.5)

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_rejects_non_positive_and_non_finite(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive(value, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")


class TestCheckFraction:
    def test_accepts_half(self):
        assert check_fraction(0.5, "x") == pytest.approx(0.5)

    def test_accepts_bounds(self):
        assert check_fraction(0, "x") == 0
        assert check_fraction(1, "x") == 1

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_fraction(1.01, "x")


class TestCheckArray1dInts:
    def test_accepts_list(self):
        out = check_array_1d_ints([1, 2, 3], "ids")
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 3]

    def test_scalar_becomes_1d(self):
        assert check_array_1d_ints(5, "ids").tolist() == [5]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            check_array_1d_ints([[1, 2], [3, 4]], "ids")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            check_array_1d_ints([1.5, 2.5], "ids")

    def test_empty_ok(self):
        assert check_array_1d_ints([], "ids").size == 0


class TestCheckIntAtLeast:
    def test_accepts_and_returns_int(self):
        out = check_int_at_least(3, 1, "num_workers")
        assert out == 3 and isinstance(out, int)

    def test_rejects_below_minimum_naming_the_knob(self):
        with pytest.raises(ValueError, match="num_workers.*>= 1"):
            check_int_at_least(0, 1, "num_workers")

    @pytest.mark.parametrize("value", [2.0, "2", None])
    def test_rejects_non_integers(self, value):
        with pytest.raises(TypeError, match="chunk"):
            check_int_at_least(value, 1, "chunk")

    def test_rejects_bool(self):
        # bool is an int subclass; True silently meaning 1 hides bugs.
        with pytest.raises(TypeError):
            check_int_at_least(True, 1, "x")


class TestCheckType:
    @pytest.mark.parametrize("value", [True, False])
    def test_accepts_and_returns_real_bools(self, value):
        assert check_type(value, bool, "flag") is value

    @pytest.mark.parametrize("value", [1, 0, "no", None, 1.0, np.bool_(True)])
    def test_rejects_truthy_stand_ins(self, value):
        # `tune_thresholds="no"` would silently *enable* tuning.
        with pytest.raises(TypeError, match="flag"):
            check_type(value, bool, "flag")

    @pytest.mark.parametrize(
        "value, kind",
        [(3, int), (np.int64(3), int), (3, float), (2.5, float), (np.float32(2.5), float),
         ("x", str)],
    )
    def test_accepts_its_type(self, value, kind):
        assert check_type(value, kind, "x") is value

    @pytest.mark.parametrize(
        "value, kind",
        [(True, int), (2.5, int), ("3", int), (None, int), (True, float), ("3", float),
         (None, float), (True, str), (3, str)],
    )
    def test_rejects_other_types_and_bools(self, value, kind):
        with pytest.raises(TypeError, match="knob"):
            check_type(value, kind, "knob")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_float_must_be_finite(self, value):
        with pytest.raises(ValueError, match="knob"):
            check_type(value, float, "knob")
