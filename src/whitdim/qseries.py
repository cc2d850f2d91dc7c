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

which packed_series_product evaluates on Kronecker-packed ints (see laurent),
with the Gaussian binomials [t, i]_q from a q-Pascal table built on packed
ints (packed_qpascal), so series arithmetic neither divides nor
canonicalises.  series_product_bounds gives the l1 bounds that the width of
such a product is proved from.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .laurent import LaurentPoly, l1, pack


@lru_cache(maxsize=None)
def qq(j: int) -> LaurentPoly:
    """(q;q)_j = prod_{i=1}^{j} (1 - q^i), cached; it is poch_power(1, j), so
    it extends its longest cached prefix in a loop and never recurses."""
    if j < 0:
        raise ValueError("(q;q)_j needs j >= 0")
    return poch_power(1, j)


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


def packed_qpascal(top: int, width: int) -> list:
    """The q-Pascal table on packed ints: rows[t][i] is [t, i]_q at
    X = 2^width, for 0 <= i <= t <= top.

    Built by the rule [t, i] = [t-1, i-1] + q^i [t-1, i] from [0, 0] = 1,
    with additions and shifts only, row by row in a loop.  Every entry is
    exactly [t, i]_q at X, whatever the width; a caller that compares or
    decodes must prove its own width (||[t, i]_q||_1 = C(t, i)).
    """
    rows = [[1]]
    for t in range(1, top + 1):
        prev = rows[-1]
        rows.append([1, *(prev[i - 1] + (prev[i] << width * i) for i in range(1, t)), 1])
    return rows


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

    def alternate_x(self) -> "TruncatedSeriesX":
        """Substitute x -> -x."""
        return TruncatedSeriesX(
            (-num if j % 2 else num) for j, num in enumerate(self.nums)
        )


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


def series_product_bounds(f: TruncatedSeriesX, g: TruncatedSeriesX) -> list:
    """Proved bounds on the coefficients of the numerators h_t of f * g, for
    t up to the lower order: sum_i C(t, i) ||f_i||_1 ||g_(t-i)||_1, since
    [t, i]_q has non-negative coefficients that sum to C(t, i) and the l1
    norm is submultiplicative and bounds the largest coefficient."""
    fl, gl = [l1(num) for num in f.nums], [l1(num) for num in g.nums]
    return [sum(comb(t, i) * fl[i] * gl[t - i] for i in range(t + 1))
            for t in range(min(f.order, g.order) + 1)]


def packed_series_product(f: TruncatedSeriesX, g: TruncatedSeriesX, width: int) -> list:
    """The numerators h_t = sum_i [t, i]_q f_i g_(t-i) of f * g, packed at
    X = 2^width, for t up to the lower order.

    Each h_t is a sum of int products, exact at any width; reading or
    comparing h_t needs width to fit series_product_bounds(f, g)[t].  Only
    numerators with no negative power of q pack, so pack raises ValueError
    on any other.
    """
    order = min(f.order, g.order)
    fp = [pack(num, width) for num in f.nums[: order + 1]]
    gp = [pack(num, width) for num in g.nums[: order + 1]]
    return [sum(row[i] * fp[i] * gp[t - i] for i in range(t + 1))
            for t, row in enumerate(packed_qpascal(order, width))]
