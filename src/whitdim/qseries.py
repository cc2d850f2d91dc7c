"""Finite q-Pochhammer products and truncated formal power series in x.

The q-Pochhammer symbol is (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k); here the
base a is always q^e for an integer e and n is finite, built by poch_power.
Infinite symbols are never truncated products: they are *defined* through
their series expansions,

    (x;q)_inf           -> coefficient of x^j is (-1)^j q^C(j,2) / (q;q)_j,
    (a x;q)_inf/(x;q)_inf -> coefficient of x^j is (a;q)_j / (q;q)_j,

the two classical identities of Euler and the q-binomial theorem.

A truncated series is stored in the Eulerian normalisation (Gasper & Rahman,
Basic Hypergeometric Series, section 1.3): the x^j coefficient is an integer
Laurent numerator over the fixed denominator (q;q)_j.  The denominators never
change, so equality of truncated series is equality of numerators, exact
coefficientwise equality that replaces any notion of analytic convergence.
The Cauchy product becomes the q-binomial convolution

    h_t = sum_{i=0}^{t} [t, i]_q f_i g_(t-i),

with the Gaussian binomials [t, i]_q from a cached q-Pascal table, so series
arithmetic neither divides nor canonicalises; only coeff() builds the
canonical rational function of one coefficient.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly
from .rational import RationalFunctionQ


@lru_cache(maxsize=None)
def qq(j: int) -> LaurentPoly:
    """(q;q)_j = prod_{i=1}^{j} (1 - q^i), cached; it is poch_power(1, j), so
    it extends its longest cached prefix in a loop and never recurses."""
    if j < 0:
        raise ValueError("(q;q)_j needs j >= 0")
    return poch_power(1, j)


@lru_cache(maxsize=None)
def qq_power(j: int, p: int) -> LaurentPoly:
    """(q;q)_j ** p, cached; each further power is j sparse (1 - q^i) passes."""
    if p < 0:
        raise ValueError("(q;q)_j ** p needs p >= 0")
    if p <= 1:
        return qq(j) if p else LaurentPoly.one()
    out = qq_power(j, p - 1)
    for i in range(1, j + 1):
        out = out.times_one_minus_q(i)
    return out


_POCH = {}  # (base_exp, length) -> poch_power(base_exp, length)


def poch_power(base_exp: int, length: int) -> LaurentPoly:
    """(q^base_exp ; q)_length = prod_{k=0}^{length-1} (1 - q^(base_exp+k)), cached.

    Each product is its cached prefix of length - 1 times one more factor,
    one out - out.shifted(e); a call extends the longest cached prefix of its
    base in a loop and caches every prefix it passes, so a run of lengths
    over one base costs one factor each and no length recurses.  The empty
    product (length 0) is 1.  A base_exp <= 0 is allowed: the product
    vanishes once it reaches the factor 1 - q^0.
    """
    if length < 0:
        raise ValueError("(q^e;q)_length needs length >= 0")
    done = length
    while done and (base_exp, done) not in _POCH:
        done -= 1
    out = _POCH[base_exp, done] if done else LaurentPoly.one()
    for k in range(done, length):
        out = out - out.shifted(base_exp + k)
        _POCH[base_exp, k + 1] = out
    return out


def q_power_minus_one_range(lo: int, hi: int) -> LaurentPoly:
    """prod_{i=lo}^{hi} (q^i - 1) = (-1)^(hi-lo+1) (q^lo;q)_(hi-lo+1); 1 when
    hi == lo - 1, and ValueError when hi < lo - 1."""
    length = hi - lo + 1
    p = poch_power(lo, length)
    return -p if length % 2 else p


_QBINOM = {}  # (t, i) -> gaussian_binomial(t, i), for 0 < i < t


def gaussian_binomial(t: int, i: int) -> LaurentPoly:
    """The Gaussian binomial [t, i]_q = (q;q)_t / ((q;q)_i (q;q)_(t-i)), cached.

    Built by the q-Pascal rule [t, i] = [t-1, i-1] + q^i [t-1, i] from
    [0, 0] = 1, with additions and shifts only; zero for i < 0 or i > t.
    A missing entry fills the table in a loop, row by row up to row t, with
    every entry (t', i') that the rule reaches from (t, i): 0 < i' <= i and
    t' - i' <= t - i.  Each entry the rule reads is then cached or an edge,
    so no index recurses.
    """
    if i < 0 or i > t:
        return LaurentPoly.zero()
    if i == 0 or i == t:
        return LaurentPoly.one()
    out = _QBINOM.get((t, i))
    if out is None:
        for row in range(2, t + 1):
            for col in range(max(1, i - t + row), min(i, row - 1) + 1):
                if (row, col) not in _QBINOM:
                    _QBINOM[row, col] = gaussian_binomial(row - 1, col - 1) + (
                        gaussian_binomial(row - 1, col).shifted(col)
                    )
        out = _QBINOM[t, i]
    return out


class TruncatedSeriesX:
    """Formal power series in x up to x**order, Eulerian-normalised.

    nums[j] is the integer Laurent numerator of the x^j coefficient over the
    fixed denominator (q;q)_j, so equal numerators mean equal series.
    """

    __slots__ = ("order", "nums")

    def __init__(self, nums):
        nums = tuple(nums)
        if not nums:
            raise ValueError("a truncated series needs at least the x^0 coefficient")
        for num in nums:
            if not isinstance(num, LaurentPoly):
                raise TypeError(
                    "series numerators must be LaurentPoly, not %s" % type(num).__name__
                )
        object.__setattr__(self, "order", len(nums) - 1)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeriesX is immutable")

    def coeff(self, j: int) -> RationalFunctionQ:
        """The x^j coefficient nums[j] / (q;q)_j, canonicalised."""
        if not 0 <= j <= self.order:
            raise IndexError(
                "coefficient index %d beyond truncation order %d" % (j, self.order)
            )
        return RationalFunctionQ(self.nums[j], (j,))

    def __mul__(self, other):
        """The Cauchy product as a q-binomial convolution of the numerators:
        h_t = sum_i [t, i]_q f_i g_(t-i), since (q;q)_t / ((q;q)_i (q;q)_(t-i))
        is [t, i]_q.  No division and no canonicalisation."""
        if not isinstance(other, TruncatedSeriesX):
            return NotImplemented
        order = min(self.order, other.order)
        f, g = self.nums, other.nums
        out = []
        for t in range(order + 1):
            acc = LaurentPoly.zero()
            for i in range(t + 1):
                if f[i] and g[t - i]:
                    acc = acc + gaussian_binomial(t, i) * f[i] * g[t - i]
            out.append(acc)
        return TruncatedSeriesX(out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeriesX):
            return NotImplemented
        return self.nums == other.nums

    def __hash__(self):
        return hash(self.nums)

    def alternate_x(self) -> "TruncatedSeriesX":
        """Substitute x -> -x."""
        return TruncatedSeriesX(
            (-num if j % 2 else num) for j, num in enumerate(self.nums)
        )

    def __repr__(self):
        return "TruncatedSeriesX(order=%d)" % self.order


def euler_series(e: int, order: int) -> TruncatedSeriesX:
    """(q^e x ; q)_inf as a truncated series: coeff_j = (-1)^j q^(C(j,2)+e*j)/(q;q)_j."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeriesX(
        LaurentPoly.monomial(j * (j - 1) // 2 + e * j, -1 if j % 2 else 1)
        for j in range(order + 1)
    )


def qbinom_series(a_exp: int, order: int) -> TruncatedSeriesX:
    """(q^a_exp x;q)_inf / (x;q)_inf: coeff_j = (q^a_exp;q)_j / (q;q)_j.

    Negative a_exp is allowed: the numerators are then Laurent polynomials.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeriesX(poch_power(a_exp, j) for j in range(order + 1))
