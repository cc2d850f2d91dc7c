"""Exact verification of the dimension identity and its full derivation chain.

Everything here is a statement about rational functions of q.  The main
identity equates a closed product

    q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i)

with a normalized triple character sum over (m, k, l).  The triple sum is
evaluated exactly over the fixed common denominator (q;q)_n^5 (the inner
double sums of lemma1 use (q;q)_n^2 (q;q)_k).  Each term is a sign and a
power of q times (q;q)_{3n-s-1} (q;q)_n times a product V of tail factors
T_j = (q;q)_n / (q;q)_j, where s = k + m + l is the index sum.  The walkers
step V alone from one lattice point to a neighbour, multiplying it with and
then dividing it by a few sparse (1 - q^j) factors, and add each shifted V
into the sum for its s.  Both walk m innermost: a step in m changes two
factors, (1 - q^m) and (1 - q^(n-m-l+1)), where a step in l changes three.
At fixed l, with N = n - l, V pairs each T_j with T_{N-j}, so V is
unchanged by k -> N-k, by m -> N-m and, in the triple sum, by k <-> m.
Each walker steps V once per orbit of these symmetries, at its
representative, and there adds the term of every point of the orbit, each
with its own power of q and s: the triple walker steps 0 <= k <= m <= N/2,
about n^3/24 points, the inner walker m <= N/2.  The factors that depend
only on s, or on nothing, are applied once at the end: a Horner pass over s
(_horner_close) gives every partial sum its sign (-1)^s and its
(q;q)_{3n-s-1}, and the triple sum's total is multiplied by (q;q)_n.  No
per-term polynomial product is ever built.  The triple walk is cached for
the last n, and so is its decoding, which dimension_sum and
conclusion-group-by-k both read, so a chain run walks and decodes it once
per n.

The walkers run on Kronecker-packed ints (see laurent): V, the per-s sums
and the Horner close are each one int, the polynomial's value at X = 2^B.
A product by (1 - q^j) is then v - (v << B*j), a power q^e a shift by B*e
and a sum an int sum, all at C speed, and the division by (1 - q^j) is
laurent.div_packed.  verify_main and verify_inner_sum decide their identity
at X (_equal_at_x): the closed side, a polynomial, is packed at the
walker's width and multiplied by the sum's denominator, q^(3n^2) (q;q)_n^4
or (q;q)_n^2 (q;q)_k, in shift-subtract passes, and the two ints are
compared.  Why that is a proof:

- every packed operation is exact integer arithmetic on values at X, and
  div_packed multiplies its quotient back and raises unless it gets the
  dividend, so each division still asserts exactness and the walker's int
  is exactly p(X) for the true numerator p; the other int is exactly r(X)
  for r, the closed side times the denominator;
- B comes from a proved bound: the l1 norm is submultiplicative and bounds
  the largest coefficient, so the sum over every term of the l1 norms of
  its factors bounds every coefficient of p (_triple_bound, _inner_bound),
  and laurent.packed_width makes the bound less than 2^(B-2).  At n = 16
  that is B = 80 bits; the largest coefficient has 29.  The product of the
  l1 norms of r's factors bounds r's coefficients (_side_bound), and must
  need no wider width: at n = 16 it has 37 bits, the walker's bound 75;
- two polynomials whose coefficients are below 2^(B-2) in absolute value
  are equal iff their values at X are (the lemma in laurent), so equal
  ints prove p = r: the identity times its nonzero denominator.

On equality both sides of the record are the closed side's canonical
JSON, which is the record the decoded sides give, since canonical forms
are unique.  Otherwise (unequal ints, or an r whose bound needs a wider
width) the step decodes, and reports the sides dimension_sum or
inner_sum_sides return: the walker's int is unpacked into a LaurentPoly,
the form the chains read, and put over its denominator by the one
constructor RationalFunctionQ(num, tops, shift), whose reduction divides
by the whole (1 - q^j) first (see rational).  Reading p's coefficients back
from p(X) is right when each is below 2^(B-1) in absolute value.

A width below the true coefficients can return a wrong polynomial, or a
wrong verdict, without any operation failing, so the proved bound is the
whole soundness argument: no option sets B, and unpack raises if a
coefficient it reads exceeds the bound.

The derivation chains compare the walkers with one from-scratch oracle,
_nested_triple_numerator.  The oracle only multiplies.  The (m, l) part of
each term, T_m T_l T_{n-m-l}, is (q;q)_n^2 times the q-multinomial
[n; m, l, n-m-l]_q = [n, m]_q [n-m, l]_q, a product of two Gaussian
binomials from the q-Pascal table of qseries, with no (1 - q^i) pass.  Per
(m, l) it walks k upward, one sparse factor of T_{n-k-l} per step, so the
whole sum costs O(n^3) passes.  Terms are summed per (s, k); per s the k
sums are folded with their T_k by nested multiplication and then multiplied
once by (q;q)_{3n-s-1}, directly and not by a Horner pass over s.  The
k-independent (q;q)_n^3 is applied once, to the total.  It never divides
out a factor and sums with plain LaurentPoly +/-, so it shares no stepping,
summation or closing code with the walkers it checks.  Both
simplify-regrouped-sum and conclusion-group-by-k compare a walker with it;
it is cached for the last n, so a chain run builds it once per n.

The per-tuple rewrites of the simplification chain are cross-multiplied
statements between polynomials, built by sparse passes: no division and no
canonicalisation, and exact proofs since every (q;q)_j is nonzero.  The
long-range and tail rewrites are all prod_{i=lo+1..hi} (q^i - 1) (q;q)_lo ==
sign (q;q)_hi (_range_rewrite_holds); many tuples map to one (sign, lo, hi),
so each distinct statement is proved once per n and its verdict is reported
for every tuple that maps to it.  Their literal products come from
poch_power, which extends a cached prefix by one factor, so the products of
one base share their prefixes.  The factorial-sign statements walk m for
each k, at two passes per (k, m) (_factorial_sign_table).

The conclusion chain works the same way where its records allow: steps (b)
and (c) apply the k-independent (q;q)_n and (q;q)_n^4 once, to the k-sum,
step (e) proves its n + 1 Pochhammer rewrites cross-multiplied, and the
series product of step (f) is a division-free q-binomial convolution (see
qseries).  Only the values a record serialises are canonicalised, each
built as its numerator over q^shift and (q;q) factors, never by fraction
arithmetic.

Every check is reported through one runner, timed_reports.  A check is a
generator that yields one (identity, equal, lhs, rhs) tuple per step; the
runner times the work between two yields and makes each step one JSON
record, a plain dict.  verify_main and verify_inner_sum are one-step checks
that return their record; simplification_chain and conclusion_chain run the
eleven and the eight steps of the two derivation chains and return their
lists of records.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import count
from math import comb
from typing import Optional

from .laurent import LaurentPoly, div_packed, pack, packed_width, unpack
from .qseries import (
    euler_series, gaussian_binomial, poch_power, q_power_minus_one_range, qbinom_series, qq,
)
from .rational import RationalFunctionQ


def timed_reports(steps, n: int, k: Optional[int] = None) -> list:
    """Run a check's steps, timing each into a JSON record.

    steps yields one (identity, equal, lhs, rhs) tuple per step.  A step's
    elapsed_ms runs from the previous yield (or the start) to its own, so the
    work between two yields is timed alone.
    """
    at = {"n": n} if k is None else {"n": n, "k": k}
    records = []
    t0 = time.perf_counter()
    for identity, equal, lhs, rhs in steps:
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        records.append({"identity": identity, **at, "equal": equal, "lhs": lhs,
                        "rhs": rhs, "elapsed_ms": elapsed_ms})
        t0 = time.perf_counter()
    return records


def _equality(identity: str, lhs, rhs):
    """A step comparing two exact values, recorded with both serialised."""
    return identity, lhs == rhs, lhs.to_json_dict(), rhs.to_json_dict()


def _require_positive(n: int):
    if n < 1:
        raise ValueError("n must be a positive integer")


def _times_qq_range(poly: LaurentPoly, lo: int, hi: int) -> LaurentPoly:
    for i in range(lo, hi + 1):
        poly = poly.times_one_minus_q(i)
    return poly


# ---------------------------------------------------------------------------
# the two sides of the main identity
# ---------------------------------------------------------------------------


def closed_product(n: int) -> RationalFunctionQ:
    """q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i); the empty product at n=1 is 1."""
    _require_positive(n)
    # q^n - q^i = q^i (q^(n-i) - 1), and the q^i multiply to q^(n(n-1)/2)
    return RationalFunctionQ(q_power_minus_one_range(1, n - 1).shifted(n * (n - 1)))


def _l1(poly: LaurentPoly) -> int:
    """The l1 norm of poly, the sum of its absolute coefficients."""
    return sum(map(abs, poly.coeffs))


def _qq_l1_norms():
    """||(q;q)_i||_1 for i = 0, 1, 2, ..., one (1 - q^i) pass each; built
    here rather than read from qq's cache, which would keep every (q;q)_i."""
    poly = LaurentPoly.one()
    for i in count(1):
        yield _l1(poly)
        poly = poly.times_one_minus_q(i)


# ||(q;q)_i||_1 for i < len(_QQ_L1): they do not depend on n, so every n
# extends the one list from _qq_l1_more
_QQ_L1 = []
_qq_l1_more = _qq_l1_norms()


def _qq_norms(top: int) -> list:
    """The shared list of ||(q;q)_i||_1, extended to i = top."""
    while len(_QQ_L1) <= top:
        _QQ_L1.append(next(_qq_l1_more))
    return _QQ_L1


@lru_cache(maxsize=1)
def _l1_norms(n: int):
    """(tails, qqs): the l1 norms (sums of absolute coefficients) of
    T_j = (q;q)_n / (q;q)_j for j = 0..n and of (q;q)_i for i = 0..3n-1
    (qqs is the shared list of _qq_norms, which may go further)."""
    tails = [1] * (n + 1)  # T_n = 1
    tail = LaurentPoly.one()
    for j in range(n, 0, -1):
        tail = tail.times_one_minus_q(j)  # T_(j-1)
        tails[j - 1] = _l1(tail)
    return tails, _qq_norms(3 * n - 1)


def _triple_bound(n: int) -> int:
    """A proved bound on every coefficient of _triple_sum_numerator(n).

    The l1 norm is submultiplicative and bounds the largest coefficient, so
    the sum over every term of ||(q;q)_{3n-s-1}||_1 ||(q;q)_n||_1 times the
    ||T_j||_1 of its five tail factors bounds the sum's coefficients.
    """
    tails, qqs = _l1_norms(n)
    bound = 0
    for ell in range(n + 1):
        top = n - ell
        for k in range(top + 1):
            for m in range(top + 1):
                bound += (qqs[3 * n - k - m - ell - 1] * tails[k] * tails[m]
                          * tails[ell] * tails[top - k] * tails[top - m])
    return bound * qqs[n]


@lru_cache(maxsize=1)
def _triple_sum_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (m,k,l) triple sum, cached for the
    last n: _packed_triple_sum(n) unpacked, once per n for the chains."""
    return unpack(*_packed_triple_sum(n))


@lru_cache(maxsize=1)
def _packed_triple_sum(n: int):
    """(value, width, bound): the numerator over (q;q)_n^5 of the (m,k,l)
    triple sum packed at the width, its coefficients proved at most bound;
    cached for the last n.

    Each term is (-1)^s * q^e * (q;q)_{3n-s-1} * (q;q)_n * V with
      V = T_k T_m T_l T_{n-k-l} T_{n-m-l},   T_j = (q;q)_n / (q;q)_j,
      s = k + m + l,
      e = kn + (n-k)m + C(k,2) + C(m,2) + C(l,2).

    At fixed l, with N = n - l, V = T_l (T_k T_{N-k}) (T_m T_{N-m}) is
    unchanged by k -> N-k, by m -> N-m and by k <-> m.  So V is walked only
    at the orbit representatives 0 <= a <= b <= N/2, a outermost, then l,
    then b innermost.  V starts at (q;q)_n^3, and each step multiplies in
    and then divides out a few (1 - q^j) factors: a step in a changes four,
    in l three, in b two.  Each representative adds the terms of every
    distinct unordered pair {k, m} with k in {a, N-a} and m in {b, N-b},
    each with its own s and e, and twice when k != m (s and e are symmetric
    in k and m).  Pairs with k = m occur only at b = a, so the b-walk over
    b > a starts from 2 V(a, a, l).  The shifted V are summed per index sum
    s; _horner_close then applies every sign (-1)^s and (q;q)_{3n-s-1}, and
    the total is multiplied once by (q;q)_n.

    All of it runs on packed ints, at the width _triple_bound proves wide
    enough, (q;q)_n^3 too, built by 3n passes.  Terms are accumulated in a
    fixed order; the exact arithmetic makes the order irrelevant to the
    value, the fixed order makes runs reproducible.
    """
    bound = _triple_bound(n)
    width = packed_width(bound)
    by_s = [0] * (2 * n + 1)

    def add(v, k, m, ell):
        e = k * n + (n - k) * m + comb(k, 2) + comb(m, 2) + comb(ell, 2)
        by_s[k + m + ell] += v << width * e

    def step(v, up, down):
        # v * (1 - q^up) / (1 - q^down)
        return div_packed(v - (v << width * up), down, width)

    v_aa = _times_qq_packed(1, width, n, n, n)
    for a in range(n // 2 + 1):
        if a:
            v_aa = step(step(v_aa, n - a + 1, a), n - a + 1, a)
        v_al = v_aa
        for ell in range(n - 2 * a + 1):
            if ell:
                v_al -= v_al << width * (n - a - ell + 1)
                v_al = step(v_al, n - a - ell + 1, ell)
            top = n - ell
            add(v_al, a, a, ell)
            if 2 * a == top:
                continue  # {a, a} is the whole orbit
            add(v_al, top - a, top - a, ell)
            v = v_al * 2  # the b-steps are linear in v
            add(v, a, top - a, ell)
            for b in range(a + 1, top // 2 + 1):
                v = step(v, top - b + 1, b)
                add(v, a, b, ell)
                add(v, top - a, top - b, ell)
                if 2 * b < top:
                    add(v, a, top - b, ell)
                    add(v, top - a, b, ell)
    return _times_qq_packed(_horner_close(by_s, 3 * n - 1, width), width, n), width, bound


def _times_qq_packed(value: int, width: int, *tops: int) -> int:
    """value * prod over tops of (q;q)_top, packed."""
    for top in tops:
        for i in range(1, top + 1):
            value -= value << width * i
    return value


def _horner_close(by_s, top: int, width: int) -> int:
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
    return _times_qq_packed(total, width, top - len(by_s) + 1)


def dimension_sum(n: int) -> RationalFunctionQ:
    """The raw dimension sum: (1/q^(3n^2)) * sum over (m,k,l) of the character terms.

    The literal products (q^i - 1) make it (-1)^(n+1) times the (q;q) triple
    sum over (q;q)_n^4 q^(3n^2).  The value always collapses to a polynomial
    (the identity's other side), but nothing here assumes that.
    """
    _require_positive(n)
    acc = _triple_sum_numerator(n)
    return RationalFunctionQ(acc if n % 2 else -acc, (n,) * 4, 3 * n * n)


# ||(q;q)_k / (q;q)_(k-l)||_1 for l = 0..k at index k of _HEAD_L1: they do
# not depend on n, so every n extends the one list
_HEAD_L1 = []


def _head_norms(k: int) -> list:
    """||(q;q)_k / (q;q)_(k-l)||_1 for l = 0..k, from the shared list
    _HEAD_L1, extended to k by k (1 - q^j) passes per new k."""
    while len(_HEAD_L1) <= k:
        top = len(_HEAD_L1)
        head, norms = LaurentPoly.one(), [1]
        for ell in range(1, top + 1):
            head = head.times_one_minus_q(top - ell + 1)
            norms.append(_l1(head))
        _HEAD_L1.append(norms)
    return _HEAD_L1[k]


def _inner_bound(n: int, k: int) -> int:
    """A proved bound on every coefficient of _inner_sum_numerator(n, k), as
    _triple_bound: the sum over every term of the l1 norms of its factors,
    (q;q)_{2n+k-s-1}, the tails T_m T_l T_{n-m-l} and (q;q)_k / (q;q)_{k-l}."""
    tails, qqs = _l1_norms(n)
    bound = 0
    for ell, head in enumerate(_head_norms(k)):
        part = 0
        for m in range(n - ell + 1):
            part += qqs[2 * n + k - m - ell - 1] * tails[m] * tails[n - m - ell]
        bound += part * tails[ell] * head
    return bound


def _inner_sum_numerator(n: int, k: int) -> LaurentPoly:
    """Numerator over (q;q)_n^2 (q;q)_k of the inner (m,l) double sum at
    fixed k: _packed_inner_sum(n, k) unpacked."""
    return unpack(*_packed_inner_sum(n, k))


def _packed_inner_sum(n: int, k: int):
    """(value, width, bound): the numerator over (q;q)_n^2 (q;q)_k of the
    inner (m,l) double sum at fixed k, packed at the width, its coefficients
    proved at most bound.

    Each term is (-1)^s * q^e * (q;q)_{2n+k-s-1} * V with
      V = T_m T_l T_{n-m-l} (q;q)_k / (q;q)_{k-l},
      s = m + l,   e = mk + C(m,2) + C(l,2).

    Walked like _packed_triple_sum, on packed ints at the width
    _inner_bound proves, l outer and m inner: V starts at (q;q)_n^2, built
    by 2n passes, a step in l changes three factors and a step in m two.
    At fixed l, with N = n - l, V is unchanged by m -> N-m, so V is walked
    only for m <= N/2 and adds the terms at m and at N - m, once when
    2m = N.  The terms are summed per s, and _horner_close applies every
    (-1)^s (q;q)_{2n+k-s-1}.  The T_k of the summand is left out: the
    numerator over (q;q)_n^3 is this times T_k.
    """
    bound = _inner_bound(n, k)
    width = packed_width(bound)
    by_s = [0] * (n + 1)

    def add(v, j, ell):
        by_s[j + ell] += v << width * (j * k + comb(j, 2) + comb(ell, 2))

    v_l = _times_qq_packed(1, width, n, n)
    for ell in range(k + 1):
        if ell:
            v_l -= v_l << width * (k - ell + 1)
            v_l -= v_l << width * (n - ell + 1)
            v_l = div_packed(v_l, ell, width)
        top = n - ell
        v = v_l
        for m in range(top // 2 + 1):
            if m:
                v -= v << width * (top - m + 1)
                v = div_packed(v, m, width)
            add(v, m, ell)
            if 2 * m < top:
                add(v, top - m, ell)
    return _horner_close(by_s, 2 * n + k - 1, width), width, bound


def inner_sum_rhs_poly(n: int, k: int) -> LaurentPoly:
    """(q^(k+1);q)_(n-1) * (q^(k+n))^n * (-1)^n * q^C(n,2) as a polynomial."""
    poly = poch_power(k + 1, n - 1).shifted((k + n) * n + comb(n, 2))
    return -poly if n % 2 else poly


def _require_inner_range(n: int, k: int):
    _require_positive(n)
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")


def inner_sum_sides(n: int, k: int):
    """Both sides of the inner-sum evaluation at (n, k), as rational functions."""
    _require_inner_range(n, k)
    lhs = RationalFunctionQ(_inner_sum_numerator(n, k), (n, n, k))
    return lhs, RationalFunctionQ(inner_sum_rhs_poly(n, k))


def _side_bound(side: LaurentPoly, tops) -> int:
    """A proved bound on every coefficient of side * prod over tops of
    (q;q)_top: the product of the factors' l1 norms."""
    qqs = _qq_norms(max(tops))
    bound = _l1(side)
    for top in tops:
        bound *= qqs[top]
    return bound


def _equal_at_x(packed, side: RationalFunctionQ, tops, shift: int = 0) -> bool:
    """Whether packed = (value, width, bound), a walker's numerator p, is
    side * q^shift * prod over tops of (q;q)_top, decided at X = 2^width.

    The other side is packed and multiplied out by shift-subtract passes at
    the walker's width, and the two ints are compared.  By the lemma in
    laurent, equal ints prove equal polynomials when both sides'
    coefficients are below 2^(width-2) in absolute value: the walker's
    bound makes that true of p, and _side_bound of the other side must
    need no wider width.  False when the ints differ, and when side is not
    a polynomial or its bound needs a wider width: the caller then decodes.
    """
    value, width, _ = packed
    if not side.denominator_is_one or packed_width(_side_bound(side.num, tops)) > width:
        return False
    other = _times_qq_packed(pack(side.num, width) << width * shift, width, *tops)
    return value == other


def _agreed(identity: str, side: RationalFunctionQ):
    """The step of a check decided equal at X: both sides are side, whose
    canonical form is unique, so the record is the one the decoded sides
    give; its lhs and rhs are one dict."""
    sides = side.to_json_dict()
    return identity, True, sides, sides


def verify_main(n: int) -> dict:
    """Exact equality of the closed product and the raw dimension sum."""
    return timed_reports(_main_step(n), n)[0]


def _main_step(n: int):
    closed = closed_product(n)
    # dimension_sum(n) is (-1)^(n+1) the triple sum's numerator over
    # q^(3n^2) (q;q)_n^4
    if _equal_at_x(_packed_triple_sum(n), closed if n % 2 else -closed, (n,) * 4, 3 * n * n):
        yield _agreed("main", closed)
    else:
        yield _equality("main", closed, dimension_sum(n))


def verify_inner_sum(n: int, k: int) -> dict:
    """Exact equality of the inner double sum at (n, k) and its closed form."""
    return timed_reports(_inner_step(n, k), n, k)[0]


def _inner_step(n: int, k: int):
    _require_inner_range(n, k)
    rhs = RationalFunctionQ(inner_sum_rhs_poly(n, k))
    if _equal_at_x(_packed_inner_sum(n, k), rhs, (n, n, k)):
        yield _agreed("inner-sum", rhs)
    else:
        yield _equality("inner-sum", *inner_sum_sides(n, k))


# ---------------------------------------------------------------------------
# step-by-step derivation checks
# ---------------------------------------------------------------------------


def _for_all(identity: str, keys, tuples: list, holds):
    """A step checking holds(*t) for every parameter tuple t; failures are named by keys."""
    failures = [dict(zip(keys, t)) for t in tuples if not holds(*t)]
    return (
        identity,
        not failures,
        "verified for %d parameter tuples" % len(tuples),
        failures or "all equal",
    )


def _range_rewrite_holds(sign: int, lo: int, hi: int) -> bool:
    """prod_{i=lo+1..hi} (q^i - 1) * (q;q)_lo == sign * (q;q)_hi.

    The cross-multiplied form of prod_{i=lo+1..hi} (q^i - 1) == sign *
    (q;q)_hi / (q;q)_lo, and an exact proof of it since (q;q)_lo != 0.  The
    lo factors of (q;q)_lo are sparse passes onto the literal product, so
    nothing is divided or canonicalised.
    """
    if lo < 0:
        raise ValueError("(q;q)_lo needs lo >= 0")
    lhs = _times_qq_range(q_power_minus_one_range(lo + 1, hi), 1, lo)
    return lhs == (-qq(hi) if sign < 0 else qq(hi))


def _factorial_sign_table(n: int) -> dict:
    """{(k, m): sign} for 0 <= k, m <= n, where (q;q)_k (q;q)_m == sign * lit_den.

    lit_den = prod_{i=1..k} (q^i - 1) prod_{i=1..m} (q^i - 1), so sign is the
    one for which 1 / lit_den == sign / ((q;q)_k (q;q)_m), cross-multiplied
    and exact since both denominators are nonzero; 0 when neither sign holds.
    Per k, both sides start from the literal product over 1..k and the cached
    (q;q)_k, and each step up in m is one sparse pass on each: (1 - q^m) on
    the (q;q) side, the literal factor (q^m - 1) on the other.
    """
    signs = {}
    for k in range(n + 1):
        lhs, lit_den = qq(k), q_power_minus_one_range(1, k)
        for m in range(n + 1):
            if m:
                lhs = lhs.times_one_minus_q(m)
                lit_den = -lit_den.times_one_minus_q(m)
            signs[k, m] = 1 if lhs == lit_den else -1 if lhs == -lit_den else 0
    return signs


def simplification_chain(n: int):
    """Verify every rewrite that turns the raw sum into the compact triple sum.

    The eight listed rewrites are checked for all admissible (k, m, l) at this
    n, each as an exact, cross-multiplied identity between the literal
    (q^i - 1) products and their (q;q) forms.  Then the normalized raw sum,
    from the walker, is compared with the regrouped (q;q) triple sum, from
    the oracle _nested_triple_numerator; then the normalized closed side,
    and finally the exponent bookkeeping.
    """
    _require_positive(n)
    return timed_reports(_simplification_steps(n), n)


def _simplification_steps(n: int):
    yield _equality(
        "simplify-q-power",
        LaurentPoly.monomial(n * (n - 1) // 2),
        LaurentPoly.monomial(comb(n, 2)),
    )

    lit = LaurentPoly.one()
    for i in range(1, n):
        lit = lit * (LaurentPoly.monomial(n) - LaurentPoly.monomial(i))
    conv = qq(n - 1).shifted(comb(n, 2))
    yield _equality("simplify-closed-product", lit, -conv if n % 2 == 0 else conv)

    km = [(k, m) for k in range(n + 1) for m in range(n + 1)]

    def monomial_merge(k, m):
        merged = k * n + (n - k) * m + comb(k, 2) + comb(m, 2)
        stated = n * (k + m) - k * m + comb(k, 2) + comb(m, 2)
        return merged == stated

    yield _for_all("simplify-monomial-merge", ("k", "m"), km, monomial_merge)
    signs = _factorial_sign_table(n)
    yield _for_all(
        "simplify-factorial-signs",
        ("k", "m"),
        km,
        lambda k, m: signs[k, m] == (-1 if (k + m) % 2 else 1),
    )
    yield _for_all(
        "simplify-l-power",
        ("l",),
        [(ell,) for ell in range(n + 1)],
        lambda ell: ell * (ell - 1) // 2 == comb(ell, 2),
    )

    admissible = [
        (k, m, ell)
        for k in range(n + 1)
        for m in range(n + 1)
        for ell in range(n - max(k, m) + 1)
    ]

    proved = {}

    def range_rewrite(sign, lo, hi):
        # many tuples share one (sign, lo, hi); each is proved once per n
        key = (sign, lo, hi)
        if key not in proved:
            proved[key] = _range_rewrite_holds(sign, lo, hi)
        return proved[key]

    def long_range(k, m, ell):
        # prod_{i=l+1..3n-k-m-l-1} (q^i - 1) == (-1)^(n+k+m+1) (q;q)_top / (q;q)_l
        top = 3 * n - k - ell - m - 1
        sign = -1 if (n + k + m + 1) % 2 else 1
        return range_rewrite(sign, ell, top)

    def tail(j, ell):
        # prod_{i=n-j-l+1..n} (q^i - 1) == (-1)^(j+l) (q;q)_n / (q;q)_{n-j-l}
        sign = -1 if (j + ell) % 2 else 1
        return range_rewrite(sign, n - j - ell, n)

    keys = ("k", "m", "l")
    yield _for_all("simplify-long-range", keys, admissible, long_range)
    yield _for_all("simplify-k-tail", keys, admissible, lambda k, m, ell: tail(k, ell))
    yield _for_all("simplify-m-tail", keys, admissible, lambda k, m, ell: tail(m, ell))

    # regrouping: raw * q^(3n^2) / ((-1)^(n-1) (q;q)_n) == grouped (q;q) triple
    # sum; the raw sum is (-1)^(n+1) the walker's numerator over q^(3n^2)
    # (q;q)_n^4, so the normalised side is that numerator over (q;q)_n^5
    normalized = RationalFunctionQ(_triple_sum_numerator(n), (n,) * 5)
    grouped = RationalFunctionQ(_nested_triple_numerator(n), (n,) * 5)
    yield _equality("simplify-regrouped-sum", normalized, grouped)

    # the closed side normalised alike, against q^e / (1 - q^n), which is
    # q^e (q;q)_(n-1) / (q;q)_n
    closed = closed_product(n).num.shifted(3 * n * n)
    normalized_lhs = RationalFunctionQ(closed if n % 2 else -closed, (n,))
    target = RationalFunctionQ(qq(n - 1).shifted(3 * n * n + 2 * comb(n, 2)), (n,))
    yield _equality("simplify-normalized-lhs", normalized_lhs, target)

    l_exp = 3 * n * n + 2 * comb(n, 2)
    r_exp = 4 * n * n - n
    yield "simplify-exponent-total", l_exp == r_exp, l_exp, r_exp


@lru_cache(maxsize=1)
def _nested_triple_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (k, m, l) triple sum, from scratch.

    The term at (k, m, l) is (-1)^s q^e (q;q)_{3n-s-1} (q;q)_n T_k T_m T_l
    T_{n-k-l} T_{n-m-l}, with s = k + m + l, T_j = prod_{i=j+1..n} (1 - q^i)
    and e = kn + C(k,2) + m(n-k) + C(m,2) + C(l,2).  Its (m, l) part
    T_m T_l T_{n-m-l} is (q;q)_n^2 times the q-multinomial [n; m, l, n-m-l]_q
    = [n, m]_q [n-m, l]_q, a product of two Gaussian binomials from the
    q-Pascal table, so it costs no (1 - q^i) pass.  Per (m, l), u starts at
    that product times T_{n-l}, which is T_{n-k-l} at k = 0, and each step up
    in k multiplies in (1 - q^(n-k-l+1)), turning T_{n-k-l+1} into T_{n-k-l}.
    The shifted u is summed into the bucket (s, k).  Per s, the buckets are
    folded with their T_k by nested multiplication, and the fold is
    multiplied once by (q;q)_{3n-s-1} and added with the sign (-1)^s.  The
    (q;q)_n^3 that every term shares, its own (q;q)_n and the (q;q)_n^2 of
    its multinomial, multiplies the total once, as 3n passes.  That is
    O(n^3) sparse passes in all, on polynomials that carry no (q;q)_n^3
    until the end.

    The one oracle of the triple sum: both simplify-regrouped-sum and
    conclusion-group-by-k compare a walker with it.  It only multiplies and
    sums with plain LaurentPoly +/-, so it shares no stepping, summation or
    closing code with the walkers, and the cache of the last n lets a chain
    run build it once per n.
    """
    by_sk = [[LaurentPoly.zero()] * (n + 1) for _ in range(2 * n + 1)]
    for ell in range(n + 1):
        top = n - ell
        for m in range(top + 1):
            u = gaussian_binomial(n, m) * gaussian_binomial(n - m, ell)
            u = _times_qq_range(u, top + 1, n)
            for k in range(top + 1):
                if k:
                    u = u.times_one_minus_q(top - k + 1)
                e = k * n + comb(k, 2) + m * (n - k) + comb(m, 2) + comb(ell, 2)
                row = by_sk[k + m + ell]
                row[k] = row[k] + u.shifted(e)
    nested = LaurentPoly.zero()
    for s, row in enumerate(by_sk):
        part = LaurentPoly.zero()
        for k, bucket in enumerate(row):
            if k:
                part = part.times_one_minus_q(k)
            part = part + bucket
        part = _times_qq_range(part, 1, 3 * n - s - 1)
        nested = nested - part if s % 2 else nested + part
    for _ in range(3):
        nested = _times_qq_range(nested, 1, n)
    return nested


def conclusion_chain(n: int):
    """Verify the eight steps that close the proof of the main identity."""
    _require_positive(n)
    return timed_reports(_conclusion_steps(n), n)


def _conclusion_steps(n: int):
    # (a) flat triple sum == outer-k sum of inner double sums
    flat = _triple_sum_numerator(n)
    nested = _nested_triple_numerator(n)
    yield ("conclusion-group-by-k", flat == nested,
           "triple sum numerator", "nested sum numerator")

    # (b) replacing k by n-k leaves the outer sum unchanged; the inner sums
    # are numerators over (q;q)_n^2 (q;q)_k, brought to (q;q)_n^3 here by
    # their T_k, and the k-sum to (q;q)_n^4 by one more (q;q)_n
    reindexed = LaurentPoly.zero()
    for k in range(n + 1):
        inner = _times_qq_range(_inner_sum_numerator(n, k), k + 1, n)
        outer = _times_qq_range(inner, n - k + 1, n).shifted((n - k) * n + comb(n - k, 2))
        reindexed = reindexed - outer if (n - k) % 2 else reindexed + outer
    reindexed = _times_qq_range(reindexed, 1, n)
    yield ("conclusion-reindex-outer", nested == reindexed,
           "nested sum numerator", "reindexed sum numerator")

    # (c) substituting the inner sum's closed form, whose k-sum is brought to
    # (q;q)_n^4 once, as 4n sparse passes
    plugged = LaurentPoly.zero()
    for k in range(n + 1):
        outer = _times_qq_range(inner_sum_rhs_poly(n, k), n - k + 1, n).shifted(
            (n - k) * n + comb(n - k, 2)
        )
        plugged = plugged - outer if (n - k) % 2 else plugged + outer
    for _ in range(4):
        plugged = _times_qq_range(plugged, 1, n)
    yield ("conclusion-plug-closed-form", reindexed == plugged,
           "reindexed sum numerator", "substituted sum numerator")

    # (d) dividing by q^(2n^2 + C(n,2)) gives the single k-sum
    single_num = LaurentPoly.zero()
    for k in range(n + 1):
        term = _times_qq_range(poch_power(k + 1, n - 1), n - k + 1, n).shifted(
            comb(n - k, 2)
        )
        single_num = single_num - term if k % 2 else single_num + term
    shift = 2 * n * n + comb(n, 2)
    lhs_d = RationalFunctionQ(plugged, (n,) * 5, shift)
    rhs_d = RationalFunctionQ(single_num, (n,))
    yield _equality("conclusion-normalize-power", lhs_d, rhs_d)

    # (e) Pochhammer rewrite pulls out (q;q)_{n-1}:
    # (q^(k+1);q)_(n-1) == (q;q)_(n-1) (q^n;q)_k / (q;q)_k, cross-multiplied
    rewrites_ok = all(
        _times_qq_range(poch_power(k + 1, n - 1), 1, k)
        == _times_qq_range(poch_power(n, k), 1, n - 1)
        for k in range(n + 1)
    )
    ksum_num = LaurentPoly.zero()
    for k in range(n + 1):
        term = poch_power(n, k)
        term = _times_qq_range(term, k + 1, n)
        term = _times_qq_range(term, n - k + 1, n).shifted(comb(n - k, 2))
        ksum_num = ksum_num - term if k % 2 else ksum_num + term
    pulled = RationalFunctionQ(qq(n - 1) * ksum_num, (n, n))
    yield ("conclusion-pochhammer-split", rewrites_ok and pulled == rhs_d,
           pulled.to_json_dict(), rhs_d.to_json_dict())

    # (f) the k-sum is the coefficient of x^n in the product series
    bracket1 = qbinom_series(n, n).alternate_x()
    bracket2 = euler_series(0, n).alternate_x()
    product = bracket1 * bracket2
    ksum = RationalFunctionQ(ksum_num, (n, n))
    yield _equality("conclusion-coefficient-extraction", product.coeff(n), ksum)

    # (g) the product telescopes to the single series with base -q^n
    telescoped = euler_series(n, n).alternate_x()
    yield ("conclusion-telescoped-series", product == telescoped,
           "bracket product coefficients", "telescoped coefficients")

    # (h) final exponent bookkeeping
    l_exp = n * n + comb(n, 2)
    r_exp = 2 * n * n - n - comb(n, 2)
    yield "conclusion-exponent-identity", l_exp == r_exp, l_exp, r_exp
