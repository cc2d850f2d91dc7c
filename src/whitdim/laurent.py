"""Exact Laurent polynomials in the single variable q over arbitrary-precision integers.

A LaurentPoly stores a dense coefficient window: ``coeffs[i]`` is the integer
coefficient of ``q**(min_exp + i)``.  Leading and trailing zeros are stripped,
so the zero polynomial is the unique empty representation with ``min_exp = 0``.
Coefficients must be ints; the public constructor raises TypeError otherwise.
Values are immutable; every operation returns a new object, which makes them
safe to share freely between threads.  The one mutable helper is
PolyAccumulator, a running sum that adds shifted polynomials in place.

The hot kernels (sums, products, the sparse (1 - q^j) multiply and exact
divide, the division row update) run as C-level ``map``/``accumulate``
passes over coefficient slices rather than Python loops over coefficients.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import gcd
from operator import add, mul, neg, sub


class LaurentPoly:
    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs=()):
        coeffs = list(coeffs)
        for t in set(map(type, coeffs)):
            if not issubclass(t, int):
                raise TypeError("LaurentPoly coefficients must be ints, got %s" % t.__name__)
        min_exp, coeffs = _trimmed(min_exp, coeffs)
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def _raw(min_exp: int, coeffs: tuple) -> "LaurentPoly":
        """Wrap an int tuple whose first and last entries are already nonzero."""
        out = object.__new__(LaurentPoly)
        object.__setattr__(out, "min_exp", min_exp)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(exp, (coeff,))

    @staticmethod
    def from_int(c: int) -> "LaurentPoly":
        return LaurentPoly(0, (c,))

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.min_exp + len(self.coeffs) - 1

    @property
    def leading_coeff(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def coeff(self, exp: int) -> int:
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
            if g == 1:
                return 1
        return g

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        return _combine(self, other, add)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.min_exp, tuple(list(map(neg, self.coeffs))))

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        return _combine(self, other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            cs = self.coeffs
            return LaurentPoly._raw(
                self.min_exp, tuple(list(map(mul, cs, repeat(other, len(cs)))))
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        la = len(a)
        out = [0] * (la + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                out[j : j + la] = map(add, out[j : j + la], map(mul, a, repeat(cb, la)))
        # over the integers the product of nonzero end coefficients is nonzero
        return LaurentPoly._raw(self.min_exp + other.min_exp, tuple(out))

    __rmul__ = __mul__

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by q**exp."""
        if not self.coeffs or exp == 0:
            return self
        return LaurentPoly._raw(self.min_exp + exp, self.coeffs)

    # -- sparse binomial kernels --------------------------------------------
    # These two are the inner loop of every q-Pochhammer product; they run in
    # O(len) instead of the O(len^2) of generic multiplication.

    def times_one_minus_q(self, j: int) -> "LaurentPoly":
        """self * (1 - q**j), j >= 1."""
        if j < 1:
            raise ValueError("exponent must be >= 1")
        if not self.coeffs:
            return _ZERO
        f = self.coeffs
        pad = (0,) * j
        # the ends are f[0] and -f[-1], both nonzero
        return LaurentPoly._raw(self.min_exp, tuple(list(map(sub, f + pad, pad + f))))

    def div_one_minus_q(self, j: int) -> "LaurentPoly":
        """Exact division by (1 - q**j); raises if the division is not exact.

        The quotient g satisfies g[t] = f[t] + g[t - j], a running sum along
        each residue class mod j.  The division is exact iff the last j running
        sums, one per class, are all zero.
        """
        if j < 1:
            raise ValueError("exponent must be >= 1")
        if not self.coeffs:
            return _ZERO
        f = self.coeffs
        n = len(f)
        if n <= j:
            raise ValueError("inexact division by 1 - q^%d" % j)
        out = [0] * n
        for r in range(j):
            out[r::j] = accumulate(f[r::j])
        if any(out[n - j :]):
            raise ValueError("inexact division by 1 - q^%d" % j)
        del out[n - j :]
        # exact: the ends are f[0] and -f[-1], both nonzero
        return LaurentPoly._raw(self.min_exp, tuple(out))

    # -- evaluation & comparison --------------------------------------------

    def eval_at(self, x):
        """Exact value at a rational point, as a Fraction (Horner over the window)."""
        from fractions import Fraction

        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.min_exp:
            acc *= x ** self.min_exp
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.min_exp, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json_dict(d: dict) -> "LaurentPoly":
        return LaurentPoly(int(d["min_exp"]), [int(c) for c in d["coeffs"]])

    def __repr__(self):
        return "LaurentPoly(%r, %r)" % (self.min_exp, list(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.min_exp + i
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else "%d*" % abs(c)
                term = "%sq^%d" % (mag, e) if e != 1 else "%sq" % mag
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


_ZERO = LaurentPoly._raw(0, ())
_ONE = LaurentPoly._raw(0, (1,))


def _trimmed(min_exp: int, cs: list):
    """(min_exp, coefficient tuple) of an int list with its zero ends stripped."""
    lo, hi = 0, len(cs)
    while hi > lo and cs[hi - 1] == 0:
        hi -= 1
    while lo < hi and cs[lo] == 0:
        lo += 1
    if lo == hi:
        return 0, ()
    if lo == 0 and hi == len(cs):
        return min_exp, tuple(cs)
    return min_exp + lo, tuple(cs[lo:hi])


def _poly(min_exp: int, cs) -> LaurentPoly:
    """Unchecked constructor for int coefficients whose ends may be zero."""
    return LaurentPoly._raw(*_trimmed(min_exp, cs))


def _combine(a: LaurentPoly, b: LaurentPoly, op) -> LaurentPoly:
    """a op b for op in (add, sub), both nonzero: one map over b's window."""
    fa, fb = a.coeffs, b.coeffs
    lo = min(a.min_exp, b.min_exp)
    hi = max(a.min_exp + len(fa), b.min_exp + len(fb))
    out = [0] * (hi - lo)
    i = a.min_exp - lo
    out[i : i + len(fa)] = fa
    i = b.min_exp - lo
    out[i : i + len(fb)] = map(op, out[i : i + len(fb)], fb)
    return _poly(lo, out)


class PolyAccumulator:
    """A running sum of shifted Laurent polynomials, updated in place.

    ``add_shifted(p, e, negate)`` adds (or subtracts) q**e * p with one slice
    map over p's window, instead of copying the whole sum as ``acc + term``
    would.  ``value()`` returns the sum so far as a LaurentPoly.
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self):
        self.min_exp = 0
        self.coeffs = []

    def add_shifted(self, poly: LaurentPoly, e: int, negate=False) -> None:
        f = poly.coeffs
        if not f:
            return
        start = poly.min_exp + e
        cs = self.coeffs
        if not cs:
            self.min_exp = start
            cs.extend(map(neg, f) if negate else f)
            return
        if start < self.min_exp:
            cs[:0] = repeat(0, self.min_exp - start)
            self.min_exp = start
        i = start - self.min_exp
        end = i + len(f)
        if end > len(cs):
            cs.extend(repeat(0, end - len(cs)))
        cs[i:end] = map(sub if negate else add, cs[i:end], f)

    def value(self) -> LaurentPoly:
        return _poly(self.min_exp, self.coeffs)


# -- plain-polynomial division and gcd ---------------------------------------


def _exact_long_division(a, b):
    """Quotient coefficients of a / b (lowest first) if b divides a over the
    integers, else None.  Each step's leading ratio is a quotient coefficient,
    so the first one that is not an integer rules the division out, as does a
    nonzero remainder."""
    lb = len(b)
    a = list(a)
    lead = b[-1]
    quo = [0] * (len(a) - lb + 1)
    for i in range(len(a) - lb, -1, -1):
        top = a[i + lb - 1]
        if not top:
            continue
        c, r = divmod(top, lead)
        if r:
            return None
        quo[i] = c
        a[i : i + lb] = map(sub, a[i : i + lb], map(mul, b, repeat(c, lb)))
    return None if any(a[: lb - 1]) else quo


def poly_exact_div(num: LaurentPoly, den: LaurentPoly):
    """num / den when the division is exact over the integers, else None."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return _ZERO
    shift = num.min_exp - den.min_exp
    if shift < 0:
        return None
    if den.coeffs in ((1,), (-1,)):
        # den = +-q^d: the quotient is num shifted, no long division needed
        return (num if den.coeffs[0] == 1 else -num).shifted(-den.min_exp)
    quo = _exact_long_division(num.coeffs, den.coeffs)
    if quo is None:
        return None
    # exact: both windows start and end nonzero, so the quotient's ends are too
    return LaurentPoly._raw(shift, tuple(quo))


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Primitive gcd with positive leading coefficient.

    Computed by a primitive pseudo-remainder sequence: each remainder is taken
    over the rationals (realized with integer pseudo-division) and immediately
    rescaled to a primitive integer polynomial, so coefficients stay bounded.
    The shared q-power factor is min(min_exp) since normalized coefficient
    windows always have a nonzero constant term.
    """
    parts = [p for p in (a, b) if p.coeffs]
    if not parts:
        return _ZERO
    shift = min(p.min_exp for p in parts)
    f = list(a.coeffs)
    g = list(b.coeffs)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f = _primitive(f)
        g = _primitive(g)
        r = _pseudo_rem(f, g)
        f, g = g, _strip(r)
    f = _primitive(f)
    if f[-1] < 0:
        f = [-c for c in f]
    return _poly(shift, f)


def _strip(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs):
    g = 0
    for c in cs:
        g = gcd(g, c)
        if g == 1:
            return cs
    if g > 1:
        return [c // g for c in cs]
    return cs


def _pseudo_rem(f, g):
    """Pseudo-remainder of f by g (coefficient lists, g nonzero)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        if f[-1] == 0:
            f.pop()
            continue
        lf = f[-1]
        shift = len(f) - 1 - dg
        if lg != 1:
            f = list(map(mul, f, repeat(lg, len(f))))
        f[shift:] = map(sub, f[shift:], map(mul, g, repeat(lf, dg + 1)))
        f = _strip(f)
        if not f:
            break
    return f
