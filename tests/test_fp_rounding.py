"""Tests for the shared round-to-nearest-even helper."""

import pytest

from repro.fp.formats import round_shifted


class TestRoundShifted:
    def test_exact_when_no_shift(self):
        assert round_shifted(42, 0) == 42

    def test_negative_shift_is_exact_left_shift(self):
        assert round_shifted(3, -2) == 12

    def test_exact_when_remainder_zero(self):
        assert round_shifted(8, 2) == 2

    def test_round_to_nearest_even_down(self):
        # 9 / 4 = 2.25 -> 2
        assert round_shifted(9, 2) == 2

    def test_round_to_nearest_even_up(self):
        # 11 / 4 = 2.75 -> 3
        assert round_shifted(11, 2) == 3

    def test_tie_to_even(self):
        # 10 / 4 = 2.5 -> 2 (even); 14 / 4 = 3.5 -> 4 (even)
        assert round_shifted(10, 2) == 2
        assert round_shifted(14, 2) == 4

    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            round_shifted(-1, 2)

    def test_exact_and_inexact_quotients(self):
        # 16 / 8 = 2 exactly; 17 / 8 = 2.125 -> 2
        assert round_shifted(16, 3) == 2
        assert round_shifted(17, 3) == 2
