"""Canonical rational functions in q with arbitrary-precision integer coefficients.

The canonical form makes equality a structural comparison:

* numerator and denominator are plain polynomials (min_exp >= 0) with no
  common polynomial factor,
* the pair is jointly primitive (the gcd of all integer coefficients across
  both parts is 1),
* the denominator has a positive leading coefficient.

Laurent inputs are cleared by multiplying both parts with a power of q, so
the quotient domain stays a genuine polynomial fraction field.
"""

from __future__ import annotations

from math import gcd

from .laurent import LaurentPoly, poly_exact_div, poly_gcd


class RationalFunctionQ:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, int):
            den = LaurentPoly.from_int(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            object.__setattr__(self, "num", LaurentPoly.zero())
            object.__setattr__(self, "den", LaurentPoly.one())
            return
        shift = min(num.min_exp, den.min_exp)
        if shift:
            num = num.shifted(-shift)
            den = den.shifted(-shift)
        num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunctionQ is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunctionQ":
        return RationalFunctionQ(LaurentPoly.zero())

    @staticmethod
    def one() -> "RationalFunctionQ":
        return RationalFunctionQ(LaurentPoly.one())

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "RationalFunctionQ":
        return RationalFunctionQ(LaurentPoly.monomial(exp, coeff))

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def denominator_is_one(self) -> bool:
        return self.den == LaurentPoly.one()

    # -- field operations -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunctionQ(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFunctionQ)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunctionQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunctionQ(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_json_dict(), "den": self.den.to_json_dict()}

    def __repr__(self):
        return "RationalFunctionQ(%r, %r)" % (self.num, self.den)

    def __str__(self):
        if self.denominator_is_one:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)


def _coerce(x):
    if isinstance(x, RationalFunctionQ):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return RationalFunctionQ(x)
    return NotImplemented


def _reduce(num: LaurentPoly, den: LaurentPoly):
    """Cancel the polynomial gcd, normalize joint content and denominator sign."""
    # Frequent case first: the quotient is itself a polynomial.
    quo = poly_exact_div(num, den)
    if quo is not None:
        num, den = quo, LaurentPoly.one()
    else:
        g = poly_gcd(num, den)
        if not (g == LaurentPoly.one()):
            num_r = poly_exact_div(num, g)
            den_r = poly_exact_div(den, g)
            if num_r is None or den_r is None:
                raise AssertionError("primitive gcd failed to divide exactly")
            num, den = num_r, den_r
    c = gcd(num.content(), den.content())
    if c > 1:
        num = LaurentPoly(num.min_exp, [x // c for x in num.coeffs])
        den = LaurentPoly(den.min_exp, [x // c for x in den.coeffs])
    if den.leading_coeff < 0:
        num, den = -num, -den
    return num, den
