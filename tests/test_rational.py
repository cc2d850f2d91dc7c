from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ZERO,
    content,
    degree,
    eval_at,
    frac_add,
    frac_div,
    frac_mul,
    frac_neg,
    gcd_fraction,
    poly_add,
    series_coeffs,
)
from whitdim import rational
from whitdim.laurent import LaurentPoly
from whitdim.qseries import qq
from whitdim.rational import RationalFunctionQ as RF

Q = LaurentPoly.monomial
ONE = LaurentPoly.one()


def C(c):
    """The constant polynomial c, to scale a polynomial by an int."""
    return LaurentPoly(0, (c,))


def rationals():
    polys = st.builds(
        LaurentPoly, st.integers(0, 3), st.lists(st.integers(-6, 6), max_size=4)
    )
    nonzero = polys.filter(lambda p: not p.is_zero)
    return st.builds(gcd_fraction, polys, nonzero)


def qq_denominator(tops, shift):
    """q^shift * prod over tops of (q;q)_top, multiplied out."""
    den = ONE
    for top in tops:
        den = den * qq(top)
    return den.shifted(shift)


def assert_canonical(r):
    assert r.num.min_exp >= 0 and r.den.min_exp >= 0
    assert r.den.leading_coeff > 0
    assert gcd(content(r.num), content(r.den)) == 1
    if r.num.is_zero:
        assert r.den == ONE


class TestCanonicalization:
    def test_factor_cancellation(self):
        assert gcd_fraction(ONE - Q(2), ONE - Q(1)) == RF(poly_add(ONE, Q(1)))
        # the same value through the constructor: (1 - q^2) / (q;q)_1
        assert RF(ONE - Q(2), (1,)) == RF(poly_add(ONE, Q(1)))

    def test_coprime_orientation(self):
        for r in (gcd_fraction(Q(3), ONE - Q(1)), RF(Q(3), (1,))):
            # canonical orientation: positive leading denominator coefficient
            assert r.den == Q(1) - ONE and r.num == -Q(3)
            assert eval_at(r, 2) == -8

    def test_joint_content(self):
        r = gcd_fraction(LaurentPoly(0, (2, -2)), LaurentPoly(0, (4,)))
        assert r.num == ONE - Q(1) and r.den == LaurentPoly(0, (2,))
        # both forms agree at q=3
        assert eval_at(r, 3) == Fraction(2 - 2 * 3, 4) == -1
        # over (q;q) factors the denominator is primitive: the content stays
        r = RF(LaurentPoly(0, (2, 2)), (2,))
        assert r.num == LaurentPoly(0, (2,)) and r.den == (ONE - Q(1)) * (ONE - Q(1))

    def test_laurent_inputs_cleared(self):
        r = gcd_fraction(poly_add(Q(-2), ONE), Q(-1))
        assert r.num.min_exp >= 0 and r.den.min_exp >= 0
        assert r == gcd_fraction(poly_add(ONE, Q(2)), Q(1))
        # a Laurent num over q^shift: (q^-2 + 1) / q = (1 + q^2) / q^3
        assert RF(poly_add(Q(-2), ONE), (), 1) == gcd_fraction(poly_add(ONE, Q(2)), Q(3))
        assert RF(poly_add(Q(-2), ONE)) == gcd_fraction(poly_add(ONE, Q(2)), Q(2))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            gcd_fraction(ONE, ZERO)

    def test_idempotent(self):
        r = gcd_fraction((ONE - Q(3)) * C(6), (ONE - Q(1)) * (ONE - Q(2)) * C(4))
        again = gcd_fraction(r.num, r.den)
        assert again.num == r.num and again.den == r.den
        s = RF((ONE - Q(3)) * C(6), (2, 1), 2)
        assert gcd_fraction(s.num, s.den).to_json_dict() == s.to_json_dict()


class TestArithmetic:
    # fraction arithmetic lives with the tests, through the gcd reference

    def test_common_denominator_add(self):
        total = frac_add(gcd_fraction(ONE, ONE - Q(1)), gcd_fraction(-Q(1), ONE - Q(1)))
        assert total == RF(ONE)

    def test_mul_cancellation(self):
        assert frac_mul(RF(Q(1), (1,)), RF(ONE - Q(1))) == RF(Q(1))

    def test_poch_difference_matches_point_evaluations(self):
        # 1/(q;q)_1 - 1/(q;q)_2, cross-checked against independent Fraction
        # arithmetic at q = 2, 3, 5
        diff = frac_add(RF(ONE, (1,)), frac_neg(RF(ONE, (2,))))
        for q0 in (2, 3, 5):
            direct = Fraction(1, 1 - q0) - Fraction(1, (1 - q0) * (1 - q0 ** 2))
            assert eval_at(diff, q0) == direct
        assert eval_at(diff, 2) == Fraction(-4, 3)
        assert eval_at(diff, 3) == Fraction(-9, 16)
        assert eval_at(diff, 5) == Fraction(-25, 96)
        # the same difference over the common denominator (q;q)_2
        assert diff == RF(-Q(2), (2,))

    def test_division_by_zero_value(self):
        with pytest.raises(ZeroDivisionError):
            frac_div(RF(ONE), RF(ZERO))

    def test_int_minus_rational_and_polynomial(self):
        # 3 - (1 + q)/(1 - q) = (2 - 4q)/(1 - q); 3 - (1 + 2q) = 2 - 2q
        r = frac_add(gcd_fraction(3), frac_neg(RF(poly_add(ONE, Q(1)), (1,))))
        assert r == RF(LaurentPoly(0, [2, -4]), (1,))
        assert eval_at(r, 2) == 6
        # LaurentPoly subtracts only LaurentPolys, so the int is a constant poly
        assert LaurentPoly(0, (3,)) - LaurentPoly(0, [1, 2]) == LaurentPoly(0, [2, -2])

    def test_monomial_default_coefficient_is_one(self):
        assert RF(Q(3)) == RF(LaurentPoly(3, [1]))
        assert eval_at(RF(ONE, (), 2), 2) == Fraction(1, 4)
        assert eval_at(RF(Q(-2)), 2) == Fraction(1, 4)


class TestEval:
    def test_polynomial_substitution(self):
        assert eval_at(RF(Q(3) - Q(2)), 2) == 4
        assert eval_at(RF(poly_add(ONE, Q(1))), 3) == 4

    def test_pole_error(self):
        with pytest.raises(ZeroDivisionError):
            eval_at(RF(Q(3), (1,)), 1)

    def test_series_coeffs(self):
        assert series_coeffs(RF(ONE, (1,)), 4) == [1, 1, 1, 1, 1]
        with pytest.raises(ZeroDivisionError):
            series_coeffs(RF(ONE, (), 1), 3)


class TestCyclotomicCancellation:
    # numerators that hold a cyclotomic factor Phi_d of the denominator but
    # no whole (1 - q^j): only the second step of the reduction cancels them
    CASES = [
        (LaurentPoly(0, (1, 1, 1)), (6,), 0),  # Phi_3 over (q;q)_6
        (LaurentPoly(0, (1, 1)) * C(3), (2,), 0),  # 3 Phi_2, content 3
        (LaurentPoly(0, (1, -1, 1)) * LaurentPoly(0, (1, 1, 1)), (6, 3), 2),
        (LaurentPoly(-2, (1, 0, 1)) * LaurentPoly(0, (1, 1, 1, 1, 1)), (5, 4), 1),
        (LaurentPoly(0, (1, 1, 1)) * LaurentPoly(0, (1, 1, 1)), (3, 3, 1), 0),
        (LaurentPoly(0, (1, 0, 1)) * LaurentPoly(0, (1, 0, 1)) * C(2), (4, 8), 3),
    ]

    def check(self):
        for num, tops, shift in self.CASES:
            got = RF(num, tops, shift)
            assert got == gcd_fraction(num, qq_denominator(tops, shift)), (num, tops, shift)
            assert_canonical(got)

    def test_constructor_matches_the_gcd_reference(self):
        self.check()
        r = RF(LaurentPoly(0, (1, 1, 1)), (6,))
        assert r.num == ONE and degree(r.den) == 21 - 2

    def test_cancelling_only_whole_factors_fails(self, monkeypatch):
        # a reducer without the Phi_d step leaves Phi_3 in both parts
        monkeypatch.setattr(rational, "_cancel_cyclotomic", lambda num, left: (num, []))
        with pytest.raises(AssertionError):
            self.check()

    def test_tops_may_be_a_one_shot_iterable(self):
        # the tops are read twice, by the check and by the reduction
        got = RF(LaurentPoly(0, (1,)), iter((2,)))
        assert got == RF(LaurentPoly(0, (1,)), (2,))
        assert got.den == qq(2)

    def test_negative_top_or_shift_raises(self):
        for tops, shift in (((-1,), 0), ((2, -3), 0), ((), -1), ((1,), -2)):
            with pytest.raises(ValueError):
                RF(ONE, tops, shift)


def laurent_numerators():
    polys = st.builds(
        LaurentPoly, st.integers(-4, 4), st.lists(st.integers(-6, 6), max_size=5)
    )
    # products of small cyclotomic-rich factors give numerators that share
    # whole (1 - q^j), single Phi_d and content with the denominator
    factors = st.lists(
        st.sampled_from([
            LaurentPoly(0, (1, 1)), LaurentPoly(0, (1, 1, 1)), LaurentPoly(0, (1, 0, 1)),
            LaurentPoly(0, (1, -1, 1)), LaurentPoly(0, (1, -1)), LaurentPoly(0, (1, 0, 0, -1)),
            LaurentPoly(0, (1, 1, 1, 1, 1)), LaurentPoly(0, (2,)), LaurentPoly(0, (3,)),
        ]),
        max_size=5,
    )

    def product(p, fs):
        for f in fs:
            p = p * f
        return p

    return st.builds(product, polys, factors)


@settings(max_examples=300)
@given(
    laurent_numerators(),
    st.lists(st.integers(0, 7), max_size=4),
    st.integers(0, 4),
)
def test_constructor_equals_the_gcd_reference(num, tops, shift):
    got = RF(num, tops, shift)
    want = gcd_fraction(num, qq_denominator(tops, shift))
    assert got.to_json_dict() == want.to_json_dict()
    assert_canonical(got)


@settings(max_examples=120)
@given(rationals(), rationals().filter(lambda r: not r.num.is_zero))
def test_div_then_mul_roundtrip(f, g):
    assert frac_mul(frac_div(f, g), g) == f


@settings(max_examples=120)
@given(rationals(), rationals(), st.integers(2, 9))
def test_eval_homomorphism(a, b, q0):
    try:
        va, vb = eval_at(a, q0), eval_at(b, q0)
    except ZeroDivisionError:
        return
    assert eval_at(frac_mul(a, b), q0) == va * vb
    assert eval_at(frac_add(a, b), q0) == va + vb


@settings(max_examples=120)
@given(rationals())
def test_canonical_invariants(r):
    assert r.num.min_exp >= 0 and r.den.min_exp >= 0
    assert r.den.leading_coeff > 0
    import math

    joint = math.gcd(content(r.num), content(r.den))
    assert joint in (0, 1)
    assert gcd_fraction(r.num, r.den) == r
