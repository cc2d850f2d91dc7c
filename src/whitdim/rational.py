"""Canonical rational functions in q with arbitrary-precision integer coefficients.

Every fraction the package builds has a denominator of one shape, a power of
q times (q;q) factors, so there is one constructor:

    RationalFunctionQ(num, tops=(), shift=0)

stands for num / (q^shift * prod over tops of (q;q)_top), and with no tops
and no shift it is the polynomial num (a Laurent num is allowed).  The
canonical form makes equality a structural comparison:

* numerator and denominator are plain polynomials (min_exp >= 0) with no
  common polynomial factor,
* the pair is jointly primitive (no integer > 1 divides every coefficient
  of both parts),
* the denominator has a positive leading coefficient.

The reduction cancels cyclotomic factors with the sparse (1 - q^j) kernels
of laurent, and never runs a general polynomial division:

1. num is divided by each whole (1 - q^j) of the denominator, largest j
   first, by LaurentPoly.div_one_minus_q; a failed division keeps j.
2. Each kept (1 - q^j) is the product of the cyclotomic polynomials Phi_d
   over d | j, and Phi_d is prod over e | d of (1 - q^e)^mu(d/e) (up to
   sign), mu the Moebius function.  So num / Phi_d is num multiplied by the
   (1 - q^e) with mu(d/e) = -1 and then divided by those with mu(d/e) = +1.
   If Phi_d divides num every division is exact; if not, num times the
   first product is not divisible by the second, so some division raises
   ValueError.  Each Phi_d is cancelled while it divides num, at most once
   per kept j that d divides.
3. The denominator is the product of the kept (1 - q^j) with each
   cancelled Phi_d divided out the same way (exact, as Phi_d divides it),
   the common power of q is cancelled, and both parts are negated if the
   denominator's leading coefficient is negative.

Why this is the canonical form.  The irreducible factors of the denominator
over the rationals are q and the Phi_d.  After the steps above none of them
divides num where the denominator still holds it: a whole (1 - q^j) or a
Phi_d is cancelled until a division fails or the denominator has no more of
it, and the power of q is cancelled outright.  So num and den are coprime.
den is q^a times a product of Phi_d, each primitive with leading
coefficient 1 (Gauss's lemma keeps products primitive), so den is
primitive, the pair is jointly primitive with no content division, and
making den's leading coefficient positive leaves one candidate: a reduced,
jointly primitive fraction with a positive leading denominator coefficient
is unique, since any other reduced form of the same value is a rational
multiple of both parts.  So every fraction has one representation, the one
that cancelling a greatest common divisor of the two parts would give.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly


class RationalFunctionQ:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, tops=(), shift: int = 0):
        tops = tuple(tops)  # read twice: checked here, then cancelled
        if shift < 0 or any(top < 0 for top in tops):
            raise ValueError("a denominator q^shift * prod (q;q)_top needs shift, top >= 0")
        if num.is_zero:
            den = LaurentPoly.one()
        else:
            num, den = _cancel(num, tops, shift)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunctionQ is immutable")

    # -- structure ------------------------------------------------------------

    @property
    def denominator_is_one(self) -> bool:
        return self.den == LaurentPoly.one()

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_json_dict(), "den": self.den.to_json_dict()}

    def __repr__(self):
        return "RationalFunctionQ(%r, %r)" % (self.num, self.den)

    def __str__(self):
        if self.denominator_is_one:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)


def _cancel(num: LaurentPoly, tops, shift: int):
    """(num, den) in canonical form for a nonzero num over
    q^shift * prod over tops of (q;q)_top, by the steps in the docstring."""
    # 1. whole (1 - q^j): a failed division leaves num as it was, so the
    # further copies of that j fail too and are kept with it
    kept = {}
    for j in range(max(tops, default=0), 0, -1):
        times = sum(top >= j for top in tops)
        while times:
            try:
                num = num.div_one_minus_q(j)
            except ValueError:
                kept[j] = times
                break
            times -= 1
    # 2. Phi_d, once for each kept (1 - q^j) with d | j, while it divides
    left = {}
    for j, times in kept.items():
        for d in range(1, j + 1):
            if j % d == 0:
                left[d] = left.get(d, 0) + times
    num, cancelled = _cancel_cyclotomic(num, left)
    # 3. the kept (1 - q^j) with each cancelled Phi_d divided out, the power
    # of q and the sign
    den = LaurentPoly.one()
    for j, times in kept.items():
        den = _times_over(den, (j,) * times, ())
    for d in cancelled:
        plus, minus = _cyclotomic_split(d)
        den = _times_over(den, minus, plus)
    low = min(num.min_exp, shift)
    num, den = num.shifted(-low), den.shifted(shift - low)
    if den.leading_coeff < 0:
        num, den = -num, -den
    return num, den


def _cancel_cyclotomic(num: LaurentPoly, left: dict):
    """(num, cancelled): num with each Phi_d cancelled while it divides, at
    most left[d] times, and the list of the d cancelled, once per time."""
    cancelled = []
    for d, times in left.items():
        plus, minus = _cyclotomic_split(d)
        for _ in range(times):
            try:
                num = _times_over(num, minus, plus)
            except ValueError:
                break
            cancelled.append(d)
    return num, cancelled


def _times_over(poly: LaurentPoly, ups, downs) -> LaurentPoly:
    """poly * prod over ups of (1 - q^e) / prod over downs of (1 - q^e);
    ValueError unless every division is exact."""
    for e in ups:
        poly = poly.times_one_minus_q(e)
    for e in downs:
        poly = poly.div_one_minus_q(e)
    return poly


@lru_cache(maxsize=None)
def _cyclotomic_split(d: int):
    """(plus, minus): the e | d with mu(d/e) = +1 and with mu(d/e) = -1, so
    that Phi_d = prod over plus of (1 - q^e) / prod over minus of (1 - q^e),
    up to sign.  mu(d/e) is nonzero only for squarefree d/e, the products of
    subsets of d's primes, and is -1 for the odd subsets."""
    primes, rest, p = [], d, 2
    while rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    plus, minus = [], []
    for subset in range(1 << len(primes)):
        e = d
        for i, p in enumerate(primes):
            if subset >> i & 1:
                e //= p
        (minus if bin(subset).count("1") % 2 else plus).append(e)
    return tuple(plus), tuple(minus)
