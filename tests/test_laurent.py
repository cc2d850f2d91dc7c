from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import truncated
from whitdim.laurent import (
    LaurentPoly,
    PolyAccumulator,
    _exact_long_division,
    _pseudo_rem,
    poly_exact_div,
    poly_gcd,
)
from whitdim.qseries import poch_power, q_power_minus_one_range

Q = LaurentPoly.monomial
ONE = LaurentPoly.one()


def laurents(min_exp=-4, max_exp=4, coeff=9, size=6):
    return st.builds(
        LaurentPoly,
        st.integers(min_exp, max_exp),
        st.lists(st.integers(-coeff, coeff), max_size=size),
    )


class TestBasics:
    def test_difference_of_squares(self):
        assert (ONE - Q(1)) * (ONE + Q(1)) == ONE - Q(2)

    def test_negative_exponent_cancellation(self):
        assert Q(-1) * Q(1) == ONE

    def test_poch_style_product(self):
        p = (ONE - Q(1)) * (ONE - Q(2))
        assert p == LaurentPoly(0, (1, -1, -1, 1))
        # (1-2)(1-4) = 3; cross-check of the hand expansion
        assert p.eval_at(2) == 3

    def test_normalization_strips_zeros(self):
        p = LaurentPoly(-2, (0, 0, 5, 0, 0))
        assert p.min_exp == 0 and p.coeffs == (5,)
        assert LaurentPoly(3, ()) == LaurentPoly.zero()
        assert LaurentPoly(7, (0, 0)).min_exp == 0
        assert LaurentPoly(coeffs=(1, 2)) == ONE + Q(1, 2)  # the window starts at q^0

    def test_zero_is_unique_empty(self):
        z = Q(5) - Q(5)
        assert z.is_zero and z.min_exp == 0 and z.coeffs == ()

    def test_immutability(self):
        with pytest.raises(AttributeError):
            ONE.min_exp = 3

    def test_eval_with_negative_exponents(self):
        p = Q(-2, 3) + Q(1)  # 3q^-2 + q
        assert p.eval_at(2) == Fraction(3, 4) + 2

    def test_pow(self):
        assert (ONE - Q(1)) ** 3 == (ONE - Q(1)) * (ONE - Q(1)) * (ONE - Q(1))
        assert (ONE - Q(1)) ** 0 == ONE

    def test_str_and_json_roundtrip(self):
        p = Q(3) - Q(2) + LaurentPoly.from_int(-7)
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly(0, [3, -1, 0, 2])) == "3 - q + 2*q^3"
        assert str(-Q(1) - Q(2, 5)) == "-q - 5*q^2"

    def test_truncated(self):
        p = LaurentPoly(-1, [1, 2, 3])  # q^-1 + 2 + 3q
        assert truncated(p, 5) is p
        assert truncated(p, 0) == LaurentPoly(-1, [1, 2])
        assert truncated(p, -1) == Q(-1)
        assert truncated(p, -2) == LaurentPoly.zero()


class TestSparseKernels:
    def test_times_div_one_minus_q(self):
        p = (ONE + Q(2, 3)).times_one_minus_q(4)
        assert p == (ONE + Q(2, 3)) * (ONE - Q(4))
        assert p.div_one_minus_q(4) == ONE + Q(2, 3)

    def test_div_inexact_raises(self):
        with pytest.raises(ValueError):
            (ONE - Q(1)).div_one_minus_q(2)
        with pytest.raises(ValueError):
            (ONE - Q(3, 2)).div_one_minus_q(3)

    def test_range_products(self):
        assert q_power_minus_one_range(1, 0) == ONE
        assert poch_power(1, 2) == (ONE - Q(1)) * (ONE - Q(2))
        assert q_power_minus_one_range(1, 2) == (Q(1) - ONE) * (Q(2) - ONE)
        assert q_power_minus_one_range(2, 4) == (Q(2) - ONE) * (Q(3) - ONE) * (Q(4) - ONE)

    def test_structural_error(self):
        with pytest.raises(ValueError):
            q_power_minus_one_range(3, 1)


class TestDivGcd:
    def test_exact_div(self):
        num = (ONE - Q(2)) * (ONE + Q(1) * 3)
        assert poly_exact_div(num, ONE - Q(2)) == ONE + Q(1) * 3
        assert poly_exact_div(ONE - Q(2), ONE - Q(1)) == ONE + Q(1)
        assert poly_exact_div(Q(3), ONE - Q(1)) is None

    def test_gcd_positive_leading_primitive(self):
        g = poly_gcd((ONE - Q(2)) * 4, (ONE - Q(1)) * 6)
        assert g == Q(1) - ONE  # positive leading coefficient
        assert poly_gcd(Q(3), Q(1)) == Q(1)
        assert poly_gcd(LaurentPoly.zero(), Q(2) * -3) == Q(2)
        assert poly_gcd(LaurentPoly(2, [-6, -4]), LaurentPoly.zero()) == LaurentPoly(2, [3, 2])
        assert poly_gcd(LaurentPoly.zero(), LaurentPoly.zero()) == LaurentPoly.zero()


@settings(max_examples=150)
@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=100)
@given(laurents(), st.integers(0, 9))
def test_pow_matches_repeated_mul(a, p):
    expected = ONE
    for _ in range(p):
        expected = expected * a
    assert a ** p == expected


@settings(max_examples=100)
@given(laurents(), st.integers(1, 6))
def test_binomial_kernels_agree_with_mul(a, j):
    assert a.times_one_minus_q(j) == a * (ONE - Q(j))
    if not a.is_zero:
        assert a.times_one_minus_q(j).div_one_minus_q(j) == a


@settings(max_examples=100)
@given(laurents(), st.fractions(min_value=-5, max_value=5))
def test_eval_is_a_homomorphism(a, x):
    b = a + Q(2, 3)
    if x == 0 and min(a.min_exp, b.min_exp) < 0:
        return  # pole of the Laurent part
    assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
    assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)


# -- the slice-map kernels against schoolbook references ----------------------

BIG = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))


def big_laurents(size=8):
    return st.builds(LaurentPoly, st.integers(-6, 6), st.lists(BIG, max_size=size))


def terms(p):
    """{exponent: coefficient} of the nonzero terms."""
    return {p.min_exp + i: c for i, c in enumerate(p.coeffs) if c}


def ref_sum(*signed):
    """Schoolbook sum of (sign, poly) pairs, as a term dict."""
    out = {}
    for sign, p in signed:
        for e, c in terms(p).items():
            out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for i, x in terms(a).items():
        for j, y in terms(b).items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def assert_normalized(p):
    assert all(type(c) is int for c in p.coeffs)
    if p.coeffs:
        assert p.coeffs[0] and p.coeffs[-1]
    else:
        assert p.min_exp == 0


@settings(max_examples=150)
@given(big_laurents(), big_laurents())
def test_add_sub_match_schoolbook(a, b):
    for got, want in ((a + b, ref_sum((1, a), (1, b))), (a - b, ref_sum((1, a), (-1, b)))):
        assert_normalized(got)
        assert terms(got) == want
    assert_normalized(a - a)
    assert (a - a).is_zero


@settings(max_examples=150)
@given(big_laurents(), big_laurents(), BIG)
def test_mul_matches_schoolbook(a, b, c):
    for got, want in ((a * b, ref_mul(a, b)), (a * c, ref_mul(a, LaurentPoly.from_int(c)))):
        assert_normalized(got)
        assert terms(got) == want


@settings(max_examples=150)
@given(big_laurents(), st.integers(1, 9))
def test_one_minus_q_kernels_match_schoolbook(a, j):
    prod = a.times_one_minus_q(j)
    assert_normalized(prod)
    assert terms(prod) == ref_sum((1, a), (-1, a.shifted(j)))
    if not a.is_zero:
        quo = prod.div_one_minus_q(j)
        assert_normalized(quo)
        assert quo == a


@settings(max_examples=150)
@given(big_laurents().filter(bool), st.integers(1, 9), st.data())
def test_div_one_minus_q_rejects_inexact(a, j, data):
    exact = a.times_one_minus_q(j)
    # doubling the top coefficient leaves every running sum but the last of
    # the j tail sums at zero
    top_only = exact + LaurentPoly.monomial(exact.degree, exact.leading_coeff)
    with pytest.raises(ValueError, match="inexact"):
        top_only.div_one_minus_q(j)
    # exact + c*q^e is divisible iff c*q^e is, and no nonzero monomial is
    e = data.draw(st.integers(exact.min_exp - 2, exact.degree + 2))
    bumped = exact + LaurentPoly.monomial(e, data.draw(BIG.filter(bool)))
    with pytest.raises(ValueError, match="inexact"):
        bumped.div_one_minus_q(j)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(big_laurents(), st.integers(-12, 12), st.booleans()), max_size=8
    )
)
def test_accumulator_matches_repeated_add_sub(steps):
    acc = PolyAccumulator()
    total = LaurentPoly.zero()
    for p, e, negate in steps:
        acc.add_shifted(p, e, negate)
        total = total - p.shifted(e) if negate else total + p.shifted(e)
        assert acc.value() == total
    assert_normalized(acc.value())


@settings(max_examples=100)
@given(
    st.builds(LaurentPoly, st.integers(0, 3), st.lists(BIG, max_size=6)),
    st.builds(LaurentPoly, st.integers(0, 3), st.lists(st.integers(-4, 4), max_size=4)),
)
def test_exact_div_inverts_mul(a, b):
    if b.is_zero:
        return
    quo = poly_exact_div(a * b, b)
    assert quo == a
    assert_normalized(quo)


def divmod_route(num, den):
    """poly_exact_div through long division, for any divisor."""
    if num.is_zero:
        return LaurentPoly.zero()
    shift = num.min_exp - den.min_exp
    if shift < 0:
        return None
    quo = _exact_long_division(num.coeffs, den.coeffs)
    return None if quo is None else LaurentPoly(shift, quo)


MONOMIAL_COEFF = st.one_of(st.sampled_from([1, -1]), BIG.filter(bool))


@settings(max_examples=200)
@given(
    st.one_of(
        big_laurents(),
        st.builds(lambda p, c: p * c, big_laurents(), MONOMIAL_COEFF),
    ),
    st.integers(-6, 6),
    MONOMIAL_COEFF,
)
def test_exact_div_by_monomial_matches_long_division(num, e, c):
    den = LaurentPoly.monomial(e, c)
    got = poly_exact_div(num, den)
    assert got == divmod_route(num, den)
    if got is not None:
        assert_normalized(got)
        assert got * den == num


def rational_quotient(num, den):
    """num / den by schoolbook division over the rationals, if it is an
    integer polynomial; else None.  Shares nothing with the integer kernel."""
    if num.is_zero:
        return LaurentPoly.zero()
    a = [Fraction(c) for c in num.coeffs]
    b = den.coeffs
    quo = []
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        quo.append(c)
        top = len(a) - len(b)
        for i, cb in enumerate(b):
            a[top + i] -= c * cb
        a.pop()
    if any(a) or any(c.denominator != 1 for c in quo):
        return None
    shift = num.min_exp - den.min_exp
    if shift < 0:
        return None
    return LaurentPoly(shift, [int(c) for c in reversed(quo)])


@settings(max_examples=150)
@given(
    st.builds(LaurentPoly, st.integers(0, 3), st.lists(st.integers(-6, 6), max_size=5)),
    st.builds(LaurentPoly, st.integers(0, 2), st.lists(st.integers(-4, 4), max_size=4)),
    st.integers(1, 4),
    st.sampled_from([LaurentPoly.zero(), ONE, Q(1, 2), Q(0, 3)]),
)
def test_exact_div_matches_rational_division(c, b, d, r):
    # num / den = c / d over the rationals, integral iff d divides c; the
    # offset r makes some divisions inexact
    den = b * d
    if den.is_zero:
        return
    num = b * c + r
    assert poly_exact_div(num, den) == rational_quotient(num, den)


class TestExactDivByMonomial:
    def test_units(self):
        p = LaurentPoly(2, [3, 0, -5])
        assert poly_exact_div(p, ONE) == p
        assert poly_exact_div(p, -ONE) == -p
        assert poly_exact_div(p, Q(2)) == LaurentPoly(0, [3, 0, -5])
        assert poly_exact_div(p, Q(1, -1)) == LaurentPoly(1, [-3, 0, 5])

    def test_negative_shift_and_zero(self):
        assert poly_exact_div(Q(1, 7), Q(2)) is None
        assert poly_exact_div(Q(1, 7), Q(2, -1)) is None
        assert poly_exact_div(LaurentPoly.zero(), Q(3, -1)) == LaurentPoly.zero()

    def test_other_constants_stay_checked(self):
        assert poly_exact_div(LaurentPoly(0, [4, 6]), LaurentPoly.from_int(2)) == (
            LaurentPoly(0, [2, 3])
        )
        assert poly_exact_div(LaurentPoly(0, [4, 5]), LaurentPoly.from_int(2)) is None


def ref_pseudo_rem(f, g):
    """Schoolbook pseudo-remainder: scale by lead(g), cancel the top term, repeat."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    while len(f) >= len(g):
        lf, shift = f[-1], len(f) - len(g)
        f = [c * g[-1] for c in f]
        for j, cg in enumerate(g):
            f[shift + j] -= lf * cg
        while f and f[-1] == 0:
            f.pop()
    return f


@settings(max_examples=200)
@given(
    st.lists(st.one_of(st.just(0), BIG), max_size=10),
    st.lists(BIG, max_size=5),
    st.one_of(st.sampled_from([1, -1]), BIG.filter(bool)),
)
def test_pseudo_rem_matches_schoolbook(f, g_low, lead):
    g = g_low + [lead]
    got = _pseudo_rem(f, g)
    while got and got[-1] == 0:  # poly_gcd strips what a short f leaves
        got.pop()
    assert got == ref_pseudo_rem(f, g)


class TestCoefficientTypes:
    def test_float_and_fraction_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly(0, [0.5, 1])
        with pytest.raises(TypeError):
            LaurentPoly.monomial(2, Fraction(1, 2))
        with pytest.raises(TypeError):
            LaurentPoly(0, [1, 2.0])

    def test_int_subclasses_accepted(self):
        assert LaurentPoly(0, [True, 2]) == ONE + Q(1, 2)
