"""Exact Laurent polynomials in the single variable q over arbitrary-precision integers.

A LaurentPoly stores a dense coefficient window: ``coeffs[i]`` is the integer
coefficient of ``q**(min_exp + i)``.  Leading and trailing zeros are stripped,
so the zero polynomial is the unique empty representation with ``min_exp = 0``.
Coefficients and min_exp must be ints; the public constructor raises
TypeError otherwise, and stores an int subclass (bool) as the plain int it
equals.
Values are immutable; every operation returns a new object, which makes them
safe to share freely between threads.

The hot kernels (differences, products, the sparse (1 - q^j) multiply and
exact divide) run as C-level ``map``/``accumulate`` passes over coefficient
slices rather than Python loops over coefficients.  There is no general
polynomial division: every denominator the package divides by is a product
of (1 - q^j) factors and a power of q (see rational).  The package never
adds two LaurentPolys, so the class subtracts and does not add, and it has
no hash: equal values are compared, never used as keys.

The Kronecker-packed kernels at the end hold a polynomial in q as one int,
its value at 2^width, for the engine's lattice walkers, its triple-sum
oracle and its derivation chains, where every pass is then one big-int
operation.  Two packed polynomials with small enough coefficients are equal
iff their ints are, so an identity can be decided on the ints, without
unpacking (the lemma beside pack and unpack).  This is the home of the
packed kernels: the conversions (pack, unpack, repacked), the checked
division by 1 - q^j (div_packed), the products by (1 - q^j) and (q^j - 1)
factors (times_range_packed, times_literal_range_packed, times_qq_packed,
horner_close), the l1 norms that the widths are proved from (l1, qq_norms,
tail_norms, packed_width), and the one comparison at X (same_at_x), which
picks its width from those norms.  Other code computes on packed ints too,
with these kernels and plain int arithmetic: qseries builds its q-Pascal
table and series numerators packed and multiplies packed series
(packed_qpascal, euler_numerators, qbinom_numerators,
packed_series_product), and the engine's walkers shift and subtract their
ints inline.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import add, mul, neg, sub


class LaurentPoly:
    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs=()):
        coeffs = list(coeffs)
        for t in set(map(type, coeffs)):
            if not issubclass(t, int):
                raise TypeError("LaurentPoly coefficients must be ints, got %s" % t.__name__)
        if not isinstance(min_exp, int):
            raise TypeError("LaurentPoly min_exp must be an int, got %s" % type(min_exp).__name__)
        # an int subclass such as bool is stored as the plain int it equals
        min_exp, coeffs = _trimmed(int(min_exp), list(map(int, coeffs)))
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
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(exp, (coeff,))

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coeff(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return LaurentPoly._raw(self.min_exp, tuple(list(map(neg, self.coeffs))))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        return _combine(self, other)

    def __mul__(self, other):
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

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": [str(c) for c in self.coeffs]}

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


def _combine(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a - b, both nonzero: one map over b's window."""
    fa, fb = a.coeffs, b.coeffs
    lo = min(a.min_exp, b.min_exp)
    hi = max(a.min_exp + len(fa), b.min_exp + len(fb))
    out = [0] * (hi - lo)
    i = a.min_exp - lo
    out[i : i + len(fa)] = fa
    i = b.min_exp - lo
    out[i : i + len(fb)] = map(sub, out[i : i + len(fb)], fb)
    return _poly(lo, out)


# -- Kronecker-packed polynomials --------------------------------------------
# A polynomial in q (no negative powers) with coefficients c_i is packed into
# one int, its value sum c_i X^i at X = 2^width.  Sums, q^e (a shift by
# width * e) and products by (1 - q^j) (v - (v << width * j)) are then exact
# big-int arithmetic on the packed values, and div_packed divides by
# (1 - q^j) with a multiply-back check.  None of this needs a width large
# enough for the coefficients: every packed value is exactly the value at X
# of the polynomial it stands for.  Only reading the coefficients back does,
# and unpack is right when every |c_i| < 2^(width - 1).  packed_width makes
# that hold for coefficients up to a bound the caller proves.
#
# Comparing needs no unpacking.  Lemma: two polynomials in q whose
# coefficients are below 2^(width - 2) in absolute value are equal iff their
# values at X are.  Their difference d has coefficients below
# 2^(width - 1) < X in absolute value.  If d were nonzero with d(X) = 0, its
# lowest nonzero coefficient d_i would satisfy d_i X^i = -(the higher terms
# at X), a multiple of X^(i+1), so X would divide d_i, which is impossible.


def packed_width(bound: int) -> int:
    """The width for coefficients up to bound: bit_length(bound) + 2 bits,
    rounded up to whole bytes, so that bound < 2^(width - 2)."""
    return -(-(bound.bit_length() + 2) // 8) * 8


def _offset(digits: int, width: int) -> int:
    """2^(width - 1) in each of the digits low digits: it makes balanced
    digits in [-2^(width-1), 2^(width-1)) the plain digits of a non-negative
    int, so both directions are one to_bytes or from_bytes pass."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * digits, "little")


def pack(poly: LaurentPoly, width: int) -> int:
    """poly's value at X = 2^width; its coefficients must lie in
    [-2^(width-1), 2^(width-1)) and its exponents be non-negative."""
    cs = poly.coeffs
    if not cs:
        return 0
    if poly.min_exp < 0:
        raise ValueError("only polynomials in q pack, not powers of 1/q")
    size, half = width // 8, 1 << (width - 1)
    try:
        raw = b"".join([(c + half).to_bytes(size, "little") for c in cs])
    except OverflowError:
        raise ValueError("a coefficient does not fit in %d bits" % width) from None
    return (int.from_bytes(raw, "little") - _offset(len(cs), width)) << (width * poly.min_exp)


def unpack(value: int, width: int, bound: int) -> LaurentPoly:
    """The polynomial whose value at X = 2^width is value, read as balanced
    digits; ValueError if a coefficient exceeds bound in absolute value.

    The digits are the coefficients when they all lie below 2^(width-1) in
    absolute value, which packed_width(bound) makes true for a value whose
    coefficients are proved to be at most bound.  A digit past bound means
    that proof failed, and is raised rather than returned.
    """
    size, half = width // 8, 1 << (width - 1)
    digits = value.bit_length() // width + 2  # leaves the offset sum room
    raw = (value + _offset(digits, width)).to_bytes(digits * size, "little")
    cs = [int.from_bytes(raw[i : i + size], "little") - half
          for i in range(0, len(raw), size)]
    if max(map(abs, cs)) > bound:
        raise ValueError("a packed coefficient exceeds its bound %d" % bound)
    return _poly(0, cs)


def div_packed(value: int, j: int, width: int) -> int:
    """value / (1 - X^j) at X = 2^width; ValueError unless exact.

    Modulo X^D, 1 / (1 - x^j) is the product of (1 + x^(2^t j)) over
    2^t j < D, so with D one more than the quotient's degree, read off the
    dividend's bit length, the quotient is value times that product modulo
    X^D, lifted to the balanced range.  When the coefficients of the
    dividend and the quotient are below 2^(width-2) in absolute value, D is
    right and the quotient lies in that range.  Whatever the coefficients,
    the quotient is multiplied back and compared, so a wrong lift raises,
    and a value returned is exactly the integer value / (1 - X^j): the
    quotient polynomial's value at X when the polynomial division is
    exact.  One that is not exact raises as well when the dividend's sums
    along each residue class mod j are below 2^(width-1) in absolute
    value, since its remainder at X is then nonzero and smaller than
    X^j - 1.
    """
    if j < 1:
        raise ValueError("exponent must be >= 1")
    digits = value.bit_length() // width + 1 - j
    size = width * max(digits, 0)
    mask = (1 << size) - 1
    quo = value & mask
    step = j
    while step < digits:
        quo = (quo + (quo << width * step)) & mask
        step *= 2
    if size and quo >> (size - 1):
        quo -= 1 << size
    if quo - (quo << width * j) != value:
        raise ValueError("inexact division by 1 - q^%d" % j)
    return quo


def repacked(side, width: int) -> int:
    """The value at X = 2^width of side: a LaurentPoly, packed straight, or
    (value, w, bound), a polynomial whose coefficients are proved at most
    bound, which is value itself when w is width, else decoded (unpack
    checks the bound) and packed again.  The bound must fit width, so that
    the lemma applies there too."""
    if isinstance(side, LaurentPoly):
        return pack(side, width)
    value, w, bound = side
    if packed_width(bound) > width:
        raise ValueError("a bound of %d bits does not fit width %d" % (bound.bit_length(), width))
    return value if w == width else pack(unpack(value, w, bound), width)


# -- products by (1 - q^j) factors at X ----------------------------------------
# A product by (1 - q^j) is v - (v << width * j), one shift-subtract.  Each
# is exact on any int, so these need no bound; only comparing and decoding do.


def times_range_packed(value: int, width: int, lo: int, hi: int) -> int:
    """value * prod_{i=lo..hi} (1 - q^i), packed: one shift-subtract per
    factor, none when hi < lo."""
    for i in range(lo, hi + 1):
        value -= value << width * i
    return value


def times_literal_range_packed(value: int, width: int, lo: int, hi: int) -> int:
    """value * prod_{i=lo..hi} (q^i - 1), packed: the displayed literal
    factors, one shift-subtract v X^i - v each, none when hi < lo."""
    for i in range(lo, hi + 1):
        value = (value << width * i) - value
    return value


def times_qq_packed(value: int, width: int, *tops: int) -> int:
    """value * prod over tops of (q;q)_top, packed."""
    for top in tops:
        value = times_range_packed(value, width, 1, top)
    return value


def horner_close(by_s, top: int, width: int) -> int:
    """sum over s of (-1)^s (q;q)_{top-s} by_s[s], packed, by Horner's rule.

    With S = len(by_s) - 1, (q;q)_{top-s} is (q;q)_{top-S} times the factors
    (1 - q^j) for j = top-S+1 .. top-s, so each step multiplies the running
    sum by one factor before adding the next part.  The whole sum costs top
    products by (1 - q^j), not one per factor of every (q;q)_{top-s}.
    """
    total = 0
    for s, part in enumerate(by_s):
        if s:
            total -= total << width * (top - s + 1)
        total += -part if s % 2 else part
    return times_qq_packed(total, width, top - len(by_s) + 1)


# -- l1 norms: the bounds that the widths are proved from ----------------------
# The l1 norm (the sum of the absolute coefficients) is submultiplicative and
# bounds the largest coefficient, so the product of its factors' l1 norms
# bounds every coefficient of a product, and a sum of such products bounds a
# sum of products.  ||1 - q^j||_1 = 2, so 2^r bounds a product of r factors
# (1 - q^j) or (q^j - 1), and a Gaussian binomial [t, i]_q, whose
# coefficients are non-negative, has l1 norm C(t, i), its value at q = 1.


def l1(poly: LaurentPoly) -> int:
    """The l1 norm of poly, the sum of its absolute coefficients."""
    return sum(map(abs, poly.coeffs))


def _qq_l1_norms():
    """||(q;q)_i||_1 for i = 0, 1, 2, ..., one (1 - q^i) pass each; built
    here rather than read from qseries.qq's cache, which would keep every
    (q;q)_i."""
    poly = _ONE
    for i in count(1):
        yield l1(poly)
        poly = poly.times_one_minus_q(i)


# ||(q;q)_i||_1 for i < len(_QQ_L1): they do not depend on n, so every n
# extends the one list from _qq_l1_more
_QQ_L1 = []
_qq_l1_more = _qq_l1_norms()


def qq_norms(top: int) -> list:
    """The shared list of ||(q;q)_i||_1, extended to i = top."""
    while len(_QQ_L1) <= top:
        _QQ_L1.append(next(_qq_l1_more))
    return _QQ_L1


@lru_cache(maxsize=2)
def tail_norms(n: int) -> list:
    """||T_j||_1 for T_j = (q;q)_n / (q;q)_j, j = 0..n, cached for the last
    two n, so that a bound reading the tails of n and of each k <= n
    builds those of n once: n (1 - q^j) passes."""
    tails = [1] * (n + 1)  # T_n = 1
    tail = _ONE
    for j in range(n, 0, -1):
        tail = tail.times_one_minus_q(j)  # T_(j-1)
        tails[j - 1] = l1(tail)
    return tails


# -- the one comparison at X ---------------------------------------------------


def same_at_x(a, b, a_tops=(), b_tops=(), shift: int = 0) -> bool:
    """Whether a * prod over a_tops of (q;q)_top is b * q^shift * prod over
    b_tops of (q;q)_top, decided at X = 2^width: the one comparison at X.

    Each side is a LaurentPoly, whose bound is its l1 norm, or
    (value, w, bound), a polynomial packed at X = 2^w whose coefficients
    are proved at most bound.  A side's bound times the l1 norms of its
    (q;q) factors bounds every coefficient of its product, so the width is
    the narrowest that fits both products' bounds and is no narrower than
    either triple's own w.  Each side is packed there (repacked) and
    multiplied out by shift-subtract passes, and the two ints are compared:
    by the lemma above, equal ints prove equal polynomials.
    """
    qqs = qq_norms(max((*a_tops, *b_tops), default=0))
    width = 0
    for side, tops in ((a, a_tops), (b, b_tops)):
        if isinstance(side, LaurentPoly):
            bound = l1(side)
        else:
            _, w, bound = side
            width = max(width, w)
        for top in tops:
            bound *= qqs[top]
        width = max(width, packed_width(bound))
    return (times_qq_packed(repacked(a, width), width, *a_tops)
            == times_qq_packed(repacked(b, width) << width * shift, width, *b_tops))
