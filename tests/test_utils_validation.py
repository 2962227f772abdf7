"""Unit tests for the argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_array_1d_ints,
    check_bool,
    check_fraction,
    check_in_range,
    check_int_at_least,
    check_non_negative,
    check_positive,
    check_probability,
    check_seed,
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


class TestCheckInRange:
    def test_accepts_bounds(self):
        assert check_in_range(0, 0, 1, "x") == 0
        assert check_in_range(1, 0, 1, "x") == 1

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(1.5, 0, 1, "x")


class TestCheckFraction:
    def test_accepts_half(self):
        assert check_fraction(0.5, "x") == pytest.approx(0.5)

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


class TestCheckProbability:
    def test_accepts_bounds(self):
        assert check_probability(0.0, "p") == pytest.approx(0.0)
        assert check_probability(1.0, "p") == pytest.approx(1.0)

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_rejects_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match="p"):
            check_probability(value, "p")


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


class TestCheckBool:
    @pytest.mark.parametrize("value", [True, False])
    def test_accepts_and_returns_real_bools(self, value):
        assert check_bool(value, "flag") is value

    @pytest.mark.parametrize("value", [1, 0, "no", None, 1.0])
    def test_rejects_truthy_stand_ins(self, value):
        # `tune_thresholds="no"` would silently *enable* tuning.
        with pytest.raises(TypeError, match="flag"):
            check_bool(value, "flag")


class TestCheckSeed:
    def test_none_passes_through(self):
        assert check_seed(None, "seed") is None

    def test_returns_plain_int(self):
        out = check_seed(np.int64(7), "seed")
        assert out == 7 and type(out) is int
        assert check_seed(0, "seed") == 0

    @pytest.mark.parametrize("value", [1.0, "3", True])
    def test_rejects_non_integer_identities(self, value):
        with pytest.raises(TypeError, match="seed"):
            check_seed(value, "seed")

    def test_rejects_negative(self):
        # SeedSequence rejects negative entropy; fail at config time instead.
        with pytest.raises(ValueError, match="seed"):
            check_seed(-1, "seed")
