from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eval_at, series_coeffs
from whitdim.laurent import LaurentPoly
from whitdim.rational import RationalFunctionQ as RF

Q = LaurentPoly.monomial
ONE = LaurentPoly.one()


def rationals():
    polys = st.builds(
        LaurentPoly, st.integers(0, 3), st.lists(st.integers(-6, 6), max_size=4)
    )
    nonzero = polys.filter(lambda p: not p.is_zero)
    return st.builds(RF, polys, nonzero)


class TestCanonicalization:
    def test_factor_cancellation(self):
        assert RF(ONE - Q(2), ONE - Q(1)) == RF(ONE + Q(1))

    def test_coprime_orientation(self):
        r = RF(Q(3), ONE - Q(1))
        # canonical orientation: positive leading denominator coefficient
        assert r.den == Q(1) - ONE and r.num == -Q(3)
        assert eval_at(r, 2) == -8

    def test_joint_content(self):
        r = RF(LaurentPoly(0, (2, -2)), LaurentPoly.from_int(4))
        assert r.num == ONE - Q(1) and r.den == LaurentPoly.from_int(2)
        # both forms agree at q=3
        assert eval_at(r, 3) == Fraction(2 - 2 * 3, 4) == -1

    def test_laurent_inputs_cleared(self):
        r = RF(Q(-2) + ONE, Q(-1))
        assert r.num.min_exp >= 0 and r.den.min_exp >= 0
        assert r == RF(ONE + Q(2), Q(1))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RF(ONE, LaurentPoly.zero())

    def test_idempotent(self):
        r = RF((ONE - Q(3)) * 6, (ONE - Q(1)) * (ONE - Q(2)) * 4)
        again = RF(r.num, r.den)
        assert again.num == r.num and again.den == r.den


class TestArithmetic:
    def test_common_denominator_add(self):
        assert RF(ONE, ONE - Q(1)) + RF(-Q(1), ONE - Q(1)) == RF.one()

    def test_mul_cancellation(self):
        assert RF(Q(1), ONE - Q(1)) * RF(ONE - Q(1)) == RF(Q(1))

    def test_poch_difference_matches_point_evaluations(self):
        # 1/(q;q)_1 - 1/(q;q)_2, cross-checked against independent Fraction
        # arithmetic at q = 2, 3, 5
        qq1 = ONE - Q(1)
        qq2 = qq1 * (ONE - Q(2))
        diff = RF(ONE, qq1) - RF(ONE, qq2)
        for q0 in (2, 3, 5):
            direct = Fraction(1, 1 - q0) - Fraction(1, (1 - q0) * (1 - q0 ** 2))
            assert eval_at(diff, q0) == direct
        assert eval_at(diff, 2) == Fraction(-4, 3)
        assert eval_at(diff, 3) == Fraction(-9, 16)
        assert eval_at(diff, 5) == Fraction(-25, 96)

    def test_division_by_zero_value(self):
        with pytest.raises(ZeroDivisionError):
            RF(ONE) / RF.zero()

    def test_int_minus_rational_and_polynomial(self):
        # 3 - (1 + q)/(1 - q) = (2 - 4q)/(1 - q); 3 - (1 + 2q) = 2 - 2q
        r = 3 - RF(ONE + Q(1), ONE - Q(1))
        assert r == RF(LaurentPoly(0, [2, -4]), ONE - Q(1))
        assert eval_at(r, 2) == 6
        assert 3 - LaurentPoly(0, [1, 2]) == LaurentPoly(0, [2, -2])

    def test_monomial_default_coefficient_is_one(self):
        assert RF.monomial(3) == RF(LaurentPoly(3, [1]))
        assert eval_at(RF.monomial(-2), 2) == Fraction(1, 4)


class TestEval:
    def test_polynomial_substitution(self):
        assert eval_at(RF(Q(3) - Q(2)), 2) == 4
        assert eval_at(RF(ONE + Q(1)), 3) == 4

    def test_pole_error(self):
        with pytest.raises(ZeroDivisionError):
            eval_at(RF(Q(3), ONE - Q(1)), 1)

    def test_series_coeffs(self):
        assert series_coeffs(RF(ONE, ONE - Q(1)), 4) == [1, 1, 1, 1, 1]
        with pytest.raises(ZeroDivisionError):
            series_coeffs(RF(ONE, Q(1)), 3)


@settings(max_examples=120)
@given(rationals(), rationals().filter(lambda r: not r.is_zero))
def test_div_then_mul_roundtrip(f, g):
    assert (f / g) * g == f


@settings(max_examples=120)
@given(rationals(), rationals(), st.integers(2, 9))
def test_eval_homomorphism(a, b, q0):
    try:
        va, vb = eval_at(a, q0), eval_at(b, q0)
    except ZeroDivisionError:
        return
    assert eval_at(a * b, q0) == va * vb
    assert eval_at(a + b, q0) == va + vb


@settings(max_examples=120)
@given(rationals())
def test_canonical_invariants(r):
    assert r.num.min_exp >= 0 and r.den.min_exp >= 0
    assert r.den.leading_coeff > 0
    import math

    joint = math.gcd(r.num.content(), r.den.content())
    assert joint in (0, 1)
    assert RF(r.num, r.den) == r
