from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ZERO,
    degree,
    eval_at,
    exact_long_division,
    poly_add,
    poly_exact_div,
    poly_gcd,
    poly_pow,
    pseudo_rem,
    truncated,
)
from whitdim.laurent import LaurentPoly, div_packed, pack, packed_width, same_at_x, unpack
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
        assert (ONE - Q(1)) * poly_add(ONE, Q(1)) == ONE - Q(2)

    def test_negative_exponent_cancellation(self):
        assert Q(-1) * Q(1) == ONE

    def test_poch_style_product(self):
        p = (ONE - Q(1)) * (ONE - Q(2))
        assert p == LaurentPoly(0, (1, -1, -1, 1))
        # (1-2)(1-4) = 3; cross-check of the hand expansion
        assert eval_at(p, 2) == 3

    def test_normalization_strips_zeros(self):
        p = LaurentPoly(-2, (0, 0, 5, 0, 0))
        assert p.min_exp == 0 and p.coeffs == (5,)
        assert LaurentPoly(3, ()) == ZERO
        assert LaurentPoly(7, (0, 0)).min_exp == 0
        assert LaurentPoly(coeffs=(1, 2)) == poly_add(ONE, Q(1, 2))  # the window starts at q^0

    def test_zero_is_unique_empty(self):
        z = Q(5) - Q(5)
        assert z.is_zero and z.min_exp == 0 and z.coeffs == ()

    def test_immutability(self):
        with pytest.raises(AttributeError):
            ONE.min_exp = 3

    def test_eval_with_negative_exponents(self):
        p = poly_add(Q(-2, 3), Q(1))  # 3q^-2 + q
        assert eval_at(p, 2) == Fraction(3, 4) + 2

    def test_pow(self):
        assert poly_pow(ONE - Q(1), 3) == (ONE - Q(1)) * (ONE - Q(1)) * (ONE - Q(1))
        assert poly_pow(ONE - Q(1), 0) == ONE
        with pytest.raises(ValueError):
            poly_pow(ONE - Q(1), -1)

    def test_str_and_json_roundtrip(self):
        p = Q(3) - Q(2) - LaurentPoly(0, (7,))
        assert p.to_json_dict() == {"min_exp": 0, "coeffs": ["-7", "0", "-1", "1"]}
        assert str(ZERO) == "0"
        assert str(LaurentPoly(0, [3, -1, 0, 2])) == "3 - q + 2*q^3"
        assert str(-Q(1) - Q(2, 5)) == "-q - 5*q^2"

    def test_truncated(self):
        p = LaurentPoly(-1, [1, 2, 3])  # q^-1 + 2 + 3q
        assert truncated(p, 5) is p
        assert truncated(p, 0) == LaurentPoly(-1, [1, 2])
        assert truncated(p, -1) == Q(-1)
        assert truncated(p, -2) == ZERO


class TestSparseKernels:
    def test_times_div_one_minus_q(self):
        p = poly_add(ONE, Q(2, 3)).times_one_minus_q(4)
        assert p == poly_add(ONE, Q(2, 3)) * (ONE - Q(4))
        assert p.div_one_minus_q(4) == poly_add(ONE, Q(2, 3))

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
    # the exact division and gcd of the tests' reference canonical form
    def test_exact_div(self):
        num = (ONE - Q(2)) * poly_add(ONE, Q(1, 3))
        assert poly_exact_div(num, ONE - Q(2)) == poly_add(ONE, Q(1, 3))
        assert poly_exact_div(ONE - Q(2), ONE - Q(1)) == poly_add(ONE, Q(1))
        assert poly_exact_div(Q(3), ONE - Q(1)) is None

    def test_gcd_positive_leading_primitive(self):
        g = poly_gcd((ONE - Q(2)) * LaurentPoly(0, (4,)), (ONE - Q(1)) * LaurentPoly(0, (6,)))
        assert g == Q(1) - ONE  # positive leading coefficient
        assert poly_gcd(Q(3), Q(1)) == Q(1)
        assert poly_gcd(ZERO, Q(2, -3)) == Q(2)
        assert poly_gcd(LaurentPoly(2, [-6, -4]), ZERO) == LaurentPoly(2, [3, 2])
        assert poly_gcd(ZERO, ZERO) == ZERO


@settings(max_examples=150)
@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    # the package's LaurentPoly subtracts, and the tests' poly_add adds by
    # subtracting a negation
    assert (a - b) - c == a - poly_add(b, c)
    assert (a * b) * c == a * (b * c)
    assert a * (b - c) == a * b - a * c
    assert poly_add(a, b) == poly_add(b, a) == a - (-b)
    assert a * b == b * a


@settings(max_examples=100)
@given(laurents(), st.integers(0, 9))
def test_pow_matches_repeated_mul(a, p):
    expected = ONE
    for _ in range(p):
        expected = expected * a
    assert poly_pow(a, p) == expected


@settings(max_examples=100)
@given(laurents(), st.integers(1, 6))
def test_binomial_kernels_agree_with_mul(a, j):
    assert a.times_one_minus_q(j) == a * (ONE - Q(j))
    if not a.is_zero:
        assert a.times_one_minus_q(j).div_one_minus_q(j) == a


@settings(max_examples=100)
@given(laurents(), st.fractions(min_value=-5, max_value=5))
def test_eval_is_a_homomorphism(a, x):
    b = poly_add(a, Q(2, 3))
    if x == 0 and min(a.min_exp, b.min_exp) < 0:
        return  # pole of the Laurent part
    assert eval_at(a * b, x) == eval_at(a, x) * eval_at(b, x)
    assert eval_at(a - b, x) == eval_at(a, x) - eval_at(b, x)


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
    # a sum is a difference with a negation, the only way the package adds
    for got, want in ((a - (-b), ref_sum((1, a), (1, b))), (a - b, ref_sum((1, a), (-1, b)))):
        assert_normalized(got)
        assert terms(got) == want
    assert_normalized(a - a)
    assert (a - a).is_zero


@settings(max_examples=150)
@given(big_laurents(), big_laurents(), BIG)
def test_mul_matches_schoolbook(a, b, c):
    # an int scales as the constant polynomial, the only way the package
    # scales
    constant = LaurentPoly(0, (c,))
    for got, want in ((a * b, ref_mul(a, b)), (a * constant, ref_mul(a, constant))):
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
@given(big_laurents().filter(lambda p: not p.is_zero), st.integers(1, 9), st.data())
def test_div_one_minus_q_rejects_inexact(a, j, data):
    exact = a.times_one_minus_q(j)
    # doubling the top coefficient leaves every running sum but the last of
    # the j tail sums at zero
    top_only = poly_add(exact, LaurentPoly.monomial(degree(exact), exact.leading_coeff))
    with pytest.raises(ValueError, match="inexact"):
        top_only.div_one_minus_q(j)
    # exact + c*q^e is divisible iff c*q^e is, and no nonzero monomial is
    e = data.draw(st.integers(exact.min_exp - 2, degree(exact) + 2))
    bumped = poly_add(exact, LaurentPoly.monomial(e, data.draw(BIG.filter(bool))))
    with pytest.raises(ValueError, match="inexact"):
        bumped.div_one_minus_q(j)


# -- the Kronecker-packed kernels ---------------------------------------------


def polys(size=8):
    """Polynomials in q (no negative powers), the only ones that pack."""
    return st.builds(LaurentPoly, st.integers(0, 6), st.lists(BIG, max_size=size))


def height(p):
    return max(map(abs, p.coeffs), default=0)


@settings(max_examples=100)
@given(st.lists(st.tuples(polys(), st.integers(0, 12), st.booleans()), max_size=8))
def test_packed_sums_match_repeated_add_sub(steps):
    # the walkers sum shifted polynomials as packed ints, one shift and one
    # add each; read back at a width for the summed heights, they are the sum
    bound = sum(height(p) for p, _, _ in steps)
    width = packed_width(bound)
    acc, total = 0, ZERO
    for p, e, negate in steps:
        term = pack(p, width) << width * e
        acc = acc - term if negate else acc + term
        total = total - p.shifted(e) if negate else poly_add(total, p.shifted(e))
        assert unpack(acc, width, bound) == total
    assert_normalized(unpack(acc, width, bound))


class TestPacking:
    def test_width_leaves_two_bits_over_the_bound(self):
        for bound, width in ((0, 8), (1, 8), (63, 8), (64, 16), (2**78 - 1, 80),
                             (2**78, 88)):
            assert packed_width(bound) == width, bound
            assert bound < 2 ** (width - 2)

    def test_round_trip_at_the_extreme_digits(self):
        # every digit in [-2^(B-1), 2^(B-1)) reads back, at either end and
        # in the top and bottom positions
        for width in (8, 16, 80):
            top = 2 ** (width - 1)
            for cs in ((top - 1,), (-top,), (-(top - 1), top - 1, -top, 0, 1, -top),
                       (-top, 0, 0, top - 1), (top - 1, -top, -top, -(top - 1))):
                for min_exp in (0, 3):
                    p = LaurentPoly(min_exp, cs)
                    assert unpack(pack(p, width), width, top) == p, (width, cs, min_exp)
            with pytest.raises(ValueError, match="does not fit"):
                pack(LaurentPoly(0, (1, top)), width)
            with pytest.raises(ValueError, match="does not fit"):
                pack(LaurentPoly(0, (-top - 1,)), width)

    def test_pack_rejects_negative_powers(self):
        with pytest.raises(ValueError, match="1/q"):
            pack(Q(-1), 8)

    def test_unpack_raises_past_its_bound(self):
        p = LaurentPoly(2, (5, -7, 3))
        value = pack(p, 16)
        assert unpack(value, 16, 7) == p
        with pytest.raises(ValueError, match="exceeds its bound 6"):
            unpack(value, 16, 6)

    def test_div_rejects_an_inexact_division(self):
        # (1 + q) / (1 - q^2) is 1 / (1 - q), not a polynomial
        with pytest.raises(ValueError, match="inexact division by 1 - q\\^2"):
            div_packed(pack(poly_add(ONE, Q(1)), 8), 2, 8)
        assert div_packed(pack(ONE - Q(2), 8), 2, 8) == 1
        assert div_packed(0, 3, 8) == 0

    def test_div_rejects_an_exponent_below_one(self):
        # (1 - q^0) is 0 and a negative exponent is no factor of (q;q)_j:
        # both raise as LaurentPoly.div_one_minus_q does, without looping
        for j in (0, -1):
            with pytest.raises(ValueError, match="exponent must be >= 1"):
                div_packed(5, j, 8)
            with pytest.raises(ValueError, match="exponent must be >= 1"):
                ONE.div_one_minus_q(j)


def _times_qq(p, tops):
    for top in tops:
        p = p * poch_power(1, top)
    return p


@settings(max_examples=100)
@given(polys(size=5), st.lists(st.integers(0, 8), max_size=3),
       st.lists(st.integers(0, 8), max_size=3), st.integers(0, 4), st.booleans(),
       st.integers(-1, 1), st.integers(0, 12))
def test_same_at_x_decides_the_cross_multiplied_statement(c, a_tops, b_tops, shift, packed,
                                                          bump, at):
    # a (q;q)_{a_tops} == b q^shift (q;q)_{b_tops} holds for a = c q^shift
    # (q;q)_{b_tops} and b = c (q;q)_{a_tops}, and fails once b is off by
    # a monomial.  The side a is a LaurentPoly, or packed at the width of
    # its own height, which its tops may make too narrow to compare at
    a = _times_qq(c, b_tops).shifted(shift)
    b = poly_add(_times_qq(c, a_tops), Q(at, bump))
    if packed:
        width = packed_width(height(a))
        a = pack(a, width), width, height(a)
    assert same_at_x(a, b, a_tops, b_tops, shift) == (bump == 0)


@settings(max_examples=150)
@given(polys(), st.integers(1, 9), st.data())
def test_packed_division_inverts_the_product(a, j, data):
    width = packed_width(2 * height(a))
    prod = pack(a.times_one_minus_q(j), width)
    assert prod == pack(a, width) - (pack(a, width) << width * j)
    assert div_packed(prod, j, width) == pack(a, width)
    # exact + c*q^e is divisible iff c*q^e is, and no nonzero monomial is
    e = data.draw(st.integers(0, j + 2 if a.is_zero else max(degree(a), 0) + j + 2))
    c = data.draw(st.integers(-(2 ** (width - 3)), 2 ** (width - 3)).filter(bool))
    with pytest.raises(ValueError, match="inexact"):
        div_packed(prod + (c << width * e), j, width)


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
        return ZERO
    shift = num.min_exp - den.min_exp
    if shift < 0:
        return None
    quo = exact_long_division(num.coeffs, den.coeffs)
    return None if quo is None else LaurentPoly(shift, quo)


MONOMIAL_COEFF = st.one_of(st.sampled_from([1, -1]), BIG.filter(bool))


@settings(max_examples=200)
@given(
    st.one_of(
        big_laurents(),
        st.builds(lambda p, c: p * LaurentPoly(0, (c,)), big_laurents(), MONOMIAL_COEFF),
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
        return ZERO
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
    st.sampled_from([ZERO, ONE, Q(1, 2), Q(0, 3)]),
)
def test_exact_div_matches_rational_division(c, b, d, r):
    # num / den = c / d over the rationals, integral iff d divides c; the
    # offset r makes some divisions inexact
    den = b * LaurentPoly(0, (d,))
    if den.is_zero:
        return
    num = poly_add(b * c, r)
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
        assert poly_exact_div(ZERO, Q(3, -1)) == ZERO

    def test_other_constants_stay_checked(self):
        assert poly_exact_div(LaurentPoly(0, [4, 6]), LaurentPoly(0, (2,))) == (
            LaurentPoly(0, [2, 3])
        )
        assert poly_exact_div(LaurentPoly(0, [4, 5]), LaurentPoly(0, (2,))) is None


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
    got = pseudo_rem(f, g)
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
        assert LaurentPoly(0, [True, 2]) == poly_add(ONE, Q(1, 2))

    def test_int_subclasses_are_stored_as_plain_ints(self):
        p = LaurentPoly(0, [True, False, True])
        assert p.to_json_dict() == LaurentPoly(0, [1, 0, 1]).to_json_dict()
        assert set(map(type, p.coeffs)) == {int}

    def test_min_exp_must_be_an_int(self):
        p = LaurentPoly(True, (1,))
        assert type(p.min_exp) is int
        assert p.to_json_dict() == {"min_exp": 1, "coeffs": ["1"]}
        for bad in (0.5, "a", None, Fraction(1)):
            with pytest.raises(TypeError, match="min_exp"):
                LaurentPoly(bad, (1,))
