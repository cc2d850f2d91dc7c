"""Finite q-Pochhammer products and the numerators of truncated series in x.

The q-Pochhammer symbol is (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k); here the
base a is always q^e for an integer e and n is finite, built by poch_power.
Infinite symbols are never truncated products: they are *defined* through
their series expansions,

    (x;q)_inf           -> coefficient of x^j is (-1)^j q^C(j,2) / (q;q)_j,
    (a x;q)_inf/(x;q)_inf -> coefficient of x^j is (a;q)_j / (q;q)_j,

the two classical identities of Euler and the q-binomial theorem.

A truncated series is a list of numerators in the Eulerian normalisation
(Gasper & Rahman, Basic Hypergeometric Series, section 1.3): the x^j
coefficient is an integer polynomial numerator over the fixed denominator
(q;q)_j.  The denominators never change, so equality of truncated series is
equality of numerators, exact coefficientwise equality that replaces any
notion of analytic convergence.  The numerators are Kronecker-packed ints
(see laurent), built by euler_numerators and qbinom_numerators, and the
Cauchy product becomes the q-binomial convolution

    h_t = sum_{i=0}^{t} [t, i]_q f_i g_(t-i),

which packed_series_product evaluates on those ints, with the Gaussian
binomials [t, i]_q from a q-Pascal table built on packed ints
(packed_qpascal), so series arithmetic neither divides nor canonicalises.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .laurent import LaurentPoly, times_literal_range_packed


@lru_cache(maxsize=None)
def qq(j: int) -> LaurentPoly:
    """(q;q)_j = prod_{i=1}^{j} (1 - q^i), cached; it is poch_power(1, j)."""
    if j < 0:
        raise ValueError("(q;q)_j needs j >= 0")
    return poch_power(1, j)


def poch_power(base_exp: int, length: int) -> LaurentPoly:
    """(q^base_exp ; q)_length = prod_{k=0}^{length-1} (1 - q^(base_exp+k)).

    One out - out.shifted(e) per factor, in a loop, so no length recurses.
    The empty product (length 0) is 1.  A base_exp <= 0 is allowed: the
    product vanishes once it reaches the factor 1 - q^0.
    """
    if length < 0:
        raise ValueError("(q^e;q)_length needs length >= 0")
    out = LaurentPoly.one()
    for e in range(base_exp, base_exp + length):
        out = out - out.shifted(e)
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


def euler_numerators(e: int, order: int, width: int) -> list:
    """Euler's identity at x -> -q^e x: (-q^e x;q)_inf has the x^j
    coefficient q^(C(j,2)+e*j) / (q;q)_j.  Its numerators for j <= order,
    packed at X = 2^width: monomials, so shifts.  e >= 0."""
    return [1 << width * (comb(j, 2) + e * j) for j in range(order + 1)]


def qbinom_numerators(a_exp: int, order: int, width: int) -> list:
    """The q-binomial theorem at x -> -x: (-q^a_exp x;q)_inf / (-x;q)_inf
    has the x^j coefficient (-1)^j (q^a_exp;q)_j / (q;q)_j.  Its numerators
    for j <= order, packed at X = 2^width: a running prefix product, one
    factor (q^i - 1) per j.  a_exp >= 0."""
    nums = [1]
    for j in range(1, order + 1):
        i = a_exp + j - 1
        nums.append(times_literal_range_packed(nums[-1], width, i, i))
    return nums


def packed_series_product(f: list, g: list, width: int) -> list:
    """The numerators h_t = sum_i [t, i]_q f_i g_(t-i) of f * g, for f and
    g lists of numerators packed at X = 2^width, for t up to the lower
    order.

    Each h_t is a sum of int products, exact at any width; reading or
    comparing h_t needs width to fit a bound on its coefficients, such as
    sum_i C(t, i) ||f_i||_1 ||g_(t-i)||_1 ([t, i]_q has non-negative
    coefficients that sum to C(t, i), and the l1 norm is submultiplicative
    and bounds the largest coefficient).
    """
    order = min(len(f), len(g)) - 1
    return [sum(row[i] * f[i] * g[t - i] for i in range(t + 1))
            for t, row in enumerate(packed_qpascal(order, width))]
