"""Tests for the exact-arithmetic utility layer (repro.util)."""

from fractions import Fraction as F

import pytest

from repro.util.linalg import SingularMatrixError, rank, solve_square
from repro.util.rationals import (
    approx_log,
    beta_vector,
    exact_log,
    format_affine,
    format_fraction,
    integer_nth_root,
    is_power,
    log_ratio,
    pow_fraction,
)
from repro.util.subsets import all_subsets, lex_tuples, powerset_size, subsets_of


class TestIntegerNthRoot:
    def test_exact_roots(self):
        assert integer_nth_root(27, 3) == 3
        assert integer_nth_root(2**40, 2) == 2**20
        assert integer_nth_root(10**30, 3) == 10**10

    def test_floors(self):
        assert integer_nth_root(26, 3) == 2
        assert integer_nth_root(28, 3) == 3

    def test_edge_cases(self):
        assert integer_nth_root(0, 5) == 0
        assert integer_nth_root(1, 5) == 1
        assert integer_nth_root(7, 1) == 7

    def test_huge_values_no_float_error(self):
        big = (10**20 + 1) ** 2
        assert integer_nth_root(big, 2) == 10**20 + 1
        assert integer_nth_root(big - 1, 2) == 10**20

    @pytest.mark.parametrize("n", [2, 3, 7, 36, 64])
    def test_beyond_float_range(self, n):
        # 2**5000 overflows a float; the seed must stay in integers.
        for value in (2**5000, 2**5000 - 1, 3**3200 + 12345, (2**97 + 5) ** n):
            root = integer_nth_root(value, n)
            assert root**n <= value < (root + 1) ** n

    def test_pow_fraction_huge_exact_power(self):
        # pow_fraction's exact path materialises base**numerator.
        assert pow_fraction(2**18, F(59, 36)) == pytest.approx(2 ** (18 * 59 / 36))

    def test_validation(self):
        with pytest.raises(ValueError):
            integer_nth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_nth_root(4, 0)


class TestLogs:
    def test_is_power(self):
        assert is_power(8, 2) == 3
        assert is_power(1, 2) == 0
        assert is_power(12, 2) is None
        assert is_power(0, 2) is None

    def test_exact_log_integer_exponent(self):
        assert exact_log(2**10, 2) == 10
        assert exact_log(65536, 16) == 4

    def test_exact_log_rational_exponent(self):
        # 8 = 4^(3/2).
        assert exact_log(8, 4) == F(3, 2)
        # 32 = 2^(5) and 32 = 1024^(1/2).
        assert exact_log(32, 1024) == F(1, 2)

    def test_exact_log_none_for_non_powers(self):
        assert exact_log(10, 2) is None
        assert exact_log(7, 3) is None

    def test_approx_log_precision(self):
        import math

        val = approx_log(10, 2)
        assert abs(float(val) - math.log2(10)) < 1e-12

    def test_log_ratio_prefers_exact(self):
        assert log_ratio(2**8, 2**16) == F(1, 2)

    def test_beta_vector(self):
        assert beta_vector([2**8, 2**4], 2**16) == [F(1, 2), F(1, 4)]

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_log(0, 2)
        with pytest.raises(ValueError):
            approx_log(4, 1)


class TestPowFraction:
    def test_integer_exponent(self):
        assert pow_fraction(2, F(10)) == 1024.0

    def test_negative_exponent(self):
        assert pow_fraction(2, F(-3)) == 0.125

    def test_exact_rational_exponent(self):
        assert pow_fraction(2**16, F(3, 2)) == float(2**24)

    def test_inexact_falls_back_to_float(self):
        import math

        got = pow_fraction(10, F(1, 3))
        assert abs(got - 10 ** (1 / 3)) < 1e-12

    def test_huge_denominator_no_hang(self):
        # Regression: approx-log exponents (denominator ~1e15) must not
        # attempt exact integer root extraction.
        val = pow_fraction(2**15, F(10**15 + 7, 3 * 10**15))
        assert val == pytest.approx((2**15) ** ((10**15 + 7) / (3 * 10**15)))


class TestFormatting:
    def test_format_fraction(self):
        assert format_fraction(F(3)) == "3"
        assert format_fraction(F(3, 2)) == "3/2"

    def test_format_affine(self):
        assert format_affine(F(1), [F(0), F(1)], ["b1", "b2"]) == "1 + b2"
        assert format_affine(F(0), [F(1), F(1)], ["b1", "b2"]) == "b1 + b2"
        assert format_affine(F(3, 2), [F(0), F(0)], ["b1", "b2"]) == "3/2"
        assert format_affine(F(0), [F(0), F(0)], ["b1", "b2"]) == "0"
        assert format_affine(F(1), [F(-1), F(1, 2)], ["x", "y"]) == "1 - x + 1/2*y"


class TestSubsets:
    def test_all_subsets_count_and_order(self):
        subs = list(all_subsets(3))
        assert len(subs) == 8
        assert subs[0] == ()
        assert subs[-1] == (0, 1, 2)
        assert len(set(subs)) == 8

    def test_subsets_of(self):
        assert list(subsets_of("ab")) == [(), ("a",), ("b",), ("a", "b")]

    def test_powerset_size(self):
        assert powerset_size(5) == 32

    def test_lex_tuples(self):
        pts = list(lex_tuples([2, 3]))
        assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_lex_tuples_empty_dims(self):
        assert list(lex_tuples([])) == [()]
        assert list(lex_tuples([2, 0])) == []
        with pytest.raises(ValueError):
            list(lex_tuples([-1]))


class TestLinalg:
    def test_solve_square(self):
        A = [[F(2), F(1)], [F(1), F(3)]]
        x = solve_square(A, [F(5), F(10)])
        assert x == [F(1), F(3)]

    def test_singular_detected(self):
        with pytest.raises(SingularMatrixError):
            solve_square([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_square([[F(1)]], [F(1), F(2)])

    def test_needs_pivoting(self):
        # Zero leading pivot forces a row swap.
        A = [[F(0), F(1)], [F(1), F(0)]]
        assert solve_square(A, [F(7), F(9)]) == [F(9), F(7)]

    def test_rank(self):
        assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert rank([]) == 0
        assert rank([[F(0), F(0)]]) == 0

    def test_exactness_with_big_rationals(self):
        big = F(10**18, 10**18 + 1)
        x = solve_square([[big]], [F(1)])
        assert x == [1 / big]
