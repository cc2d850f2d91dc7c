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
(laurent.horner_close) gives every partial sum its sign (-1)^s and its
(q;q)_{3n-s-1}, and the triple sum's total is multiplied by (q;q)_n.  No
per-term polynomial product is ever built.  The triple walk is cached for
the last n, which simplify-regrouped-sum and conclusion-group-by-k read, so
a chain run walks it once per n.

The walkers run on Kronecker-packed ints (see laurent): V, the per-s sums
and the Horner close are each one int, the polynomial's value at X = 2^B.
A product by (1 - q^j) is then v - (v << B*j), a power q^e a shift by B*e
and a sum an int sum, all at C speed, and the division by (1 - q^j) is
laurent.div_packed.

Every comparison of a walker, the oracle or a conclusion-step sum with its
other side is one call of laurent.same_at_x(a, b, a_tops, b_tops, shift),
the one comparison at X: a * prod (q;q)_{a_tops} == b * q^shift *
prod (q;q)_{b_tops}.  verify_main
passes the walker's packed numerator and the closed side, a polynomial,
with the sum's denominator q^(3n^2) (q;q)_n^4 as the closed side's shift
and tops; verify_inner_sum passes the inner walker and its closed form,
with (q;q)_n^2 (q;q)_k.  Why that is a proof:

- every packed operation is exact integer arithmetic on values at X, and
  div_packed multiplies its quotient back and raises unless it gets the
  dividend, so each division still asserts exactness and the walker's int
  is exactly p(X) for the true numerator p; the other int is exactly r(X)
  for r, the closed side times the denominator;
- B comes from a proved bound: the l1 norm is submultiplicative and bounds
  the largest coefficient, so the sum over every term of the l1 norms of
  its factors bounds every coefficient of p (_triple_bound, _inner_bound),
  and laurent.packed_width makes the bound less than 2^(B-2).  At n = 16
  that is B = 80 bits; the largest coefficient has 29.  The closed side's
  l1 norm times those of its (q;q) factors bounds r's coefficients, and
  same_at_x compares at the narrowest width that fits both bounds and is
  no narrower than B: for n <= 32 that is B itself (r's bound has 37 bits
  at n = 16, the walker's 75), so the walker's int is compared as it is;
- two polynomials whose coefficients are below 2^(B-2) in absolute value
  are equal iff their values at X are (the lemma in laurent), so equal
  ints prove p = r: the identity times its nonzero denominator.

Every step decided at X reports through one helper, _decided.  On
equality both sides of the record are one side's canonical JSON, which is
the record the decoded sides give, since canonical forms are unique.
Otherwise the step decodes, and reports the decoded sides, for verify
those dimension_sum or inner_sum_sides return: the walker's int is
unpacked into a LaurentPoly, the form the chains read, and put over its
denominator by the one constructor RationalFunctionQ(num, tops, shift),
whose reduction divides by the whole (1 - q^j) first (see rational).
Reading p's coefficients back from p(X) is right when each is below
2^(B-1) in absolute value.

A width below the true coefficients can return a wrong polynomial, or a
wrong verdict, without any operation failing, so the proved bound is the
whole soundness argument: no option sets B, and unpack raises if a
coefficient it reads exceeds the bound.

The derivation chains are decided at X the same way, each comparison one
same_at_x.  Every polynomial a step compares is built as a packed int, at
a width that fits a bound proved from its own factors (a sum over its
terms of the products of their l1 norms), or is a decoding the step makes
anyway, whose l1 norm is its bound.  No bound is read from a packed value
it checks.  A side built at a narrower width than the comparison needs is
decoded and packed again there (laurent.repacked).  Otherwise a step
decodes only a value its record serialises, or the sides of a comparison
that fails, and a step decided equal records one canonicalised side as
both, as verify does.

The chains compare the walkers with one from-scratch oracle,
_packed_nested_triple.  The oracle only multiplies.  The (m, l) part of
each term, T_m T_l T_{n-m-l}, is (q;q)_n^2 times the q-multinomial
[n; m, l, n-m-l]_q = [n, m]_q [n-m, l]_q, one int product of two entries of
the packed q-Pascal table of qseries, with no (1 - q^i) pass.  Per (m, l)
it walks k upward, one shift-subtract pass for a factor of T_{n-k-l} per
step, so the whole sum costs O(n^3) passes.  Terms are summed per (s, k);
per s the k sums are folded with their T_k by nested multiplication and
then multiplied once by (q;q)_{3n-s-1}, directly and not by a Horner pass
over s.  The k-independent (q;q)_n^3 is applied once, to the total.  Its
width comes from its own bound (_nested_bound), summed over its own terms
from the norms of the factors it multiplies, the Gaussian binomials' C(t, i)
among them.  For n <= 32 that width is never narrower than the walker's,
and often wider (n = 5, 8, 10, 12, 14, 16 and every n from 18 to 32, by one
or two bytes); same_at_x then decodes the walker and packs it again at
the oracle's width.
It never divides out a factor, calls no horner_close and no walker, so it
shares no stepping, summation or closing code with the walkers it checks;
what they share is exact integer arithmetic at X and the lemma behind
comparing there.  simplify-regrouped-sum, conclusion-group-by-k and
conclusion-reindex-outer compare with it; it is cached for the last n, so a
chain run builds it once per n.

The per-tuple rewrites of the simplification chain are cross-multiplied
statements between polynomials, built by shift-subtract passes at X: no
division and no canonicalisation, and exact proofs since every (q;q)_j is
nonzero.  The long-range and tail rewrites are all prod_{i=lo+1..hi}
(q^i - 1) (q;q)_lo == sign (q;q)_hi, and each factorial sign is the product
of two of them at lo = 0.  One table (_range_signs) records, for every
0 <= lo <= n and lo <= hi < 3n, which sign makes that statement true, at
one width from 2^(3n-1) and two passes per (lo, hi); the table is built
once per chain n, and each step reads the sign of every tuple from it.

The conclusion chain works the same way: steps (b) and (c) apply the
k-independent (q;q)_n and (q;q)_n^4 once, to the packed k-sum, steps (d)
and (e) compare their fractions cross-multiplied, step (e) proves its
n + 1 Pochhammer rewrites at X, and the series product of steps (f) and
(g) is the q-binomial convolution on packed ints (qseries).  Every
operand from step (d) on is built packed: each Pochhammer product is one
times_range_packed from 1, the series numerators come packed from
qseries.euler_numerators and qbinom_numerators, and every numerator h_t
of the product is bounded by 3^t.  Three values are decoded, each once,
and are the LaurentPoly sides of the comparisons of (d), (e) and (f): the
single k-sum, which steps (d) and (e) record over (q;q)_n, the pulled
k-sum of steps (e) and (f), and the x^n coefficient h_n, which step (f)
records.  A record's value is built as its numerator over q^shift and
(q;q) factors, never by fraction arithmetic.

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
from math import comb
from typing import Optional

from .laurent import (
    LaurentPoly, div_packed, horner_close, pack, packed_width, qq_norms, repacked, same_at_x,
    tail_norms, times_literal_range_packed, times_qq_packed, times_range_packed, unpack,
)
from .qseries import (
    euler_numerators, packed_qpascal, packed_series_product, poch_power, q_power_minus_one_range,
    qbinom_numerators, qq,
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


def _decided(identity: str, equal: bool, side: RationalFunctionQ, decode):
    """The step of a check decided at X.  Equal: both sides are side, whose
    canonical form is unique, so the record is the one the decoded sides
    give, with one dict as its lhs and rhs.  Unequal: decode() returns the
    two sides decoded, and they are compared and recorded."""
    if not equal:
        return _equality(identity, *decode())
    sides = side.to_json_dict()
    return identity, True, sides, sides


def _require_positive(n: int):
    if n < 1:
        raise ValueError("n must be a positive integer")


# ---------------------------------------------------------------------------
# the two sides of the main identity
# ---------------------------------------------------------------------------


def closed_product(n: int) -> RationalFunctionQ:
    """q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i); the empty product at n=1 is 1."""
    _require_positive(n)
    # q^n - q^i = q^i (q^(n-i) - 1), and the q^i multiply to q^(n(n-1)/2)
    return RationalFunctionQ(q_power_minus_one_range(1, n - 1).shifted(n * (n - 1)))


def _triple_bound(n: int) -> int:
    """A proved bound on every coefficient of _triple_sum_numerator(n).

    The l1 norm is submultiplicative and bounds the largest coefficient, so
    the sum over every term of ||(q;q)_{3n-s-1}||_1 ||(q;q)_n||_1 times the
    ||T_j||_1 of its five tail factors bounds the sum's coefficients.
    """
    tails, qqs = tail_norms(n), qq_norms(3 * n - 1)
    bound = 0
    for ell in range(n + 1):
        top = n - ell
        for k in range(top + 1):
            for m in range(top + 1):
                bound += (qqs[3 * n - k - m - ell - 1] * tails[k] * tails[m]
                          * tails[ell] * tails[top - k] * tails[top - m])
    return bound * qqs[n]


def _triple_sum_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (m,k,l) triple sum:
    _packed_triple_sum(n) unpacked."""
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
    s; laurent.horner_close then applies every sign (-1)^s and (q;q)_{3n-s-1}, and
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

    v_aa = times_qq_packed(1, width, n, n, n)
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
    return times_qq_packed(horner_close(by_s, 3 * n - 1, width), width, n), width, bound


def dimension_sum(n: int) -> RationalFunctionQ:
    """The raw dimension sum: (1/q^(3n^2)) * sum over (m,k,l) of the character terms.

    The literal products (q^i - 1) make it (-1)^(n+1) times the (q;q) triple
    sum over (q;q)_n^4 q^(3n^2).  The value always collapses to a polynomial
    (the identity's other side), but nothing here assumes that.
    """
    _require_positive(n)
    acc = _triple_sum_numerator(n)
    return RationalFunctionQ(acc if n % 2 else -acc, (n,) * 4, 3 * n * n)


def _inner_bound(n: int, k: int) -> int:
    """A proved bound on every coefficient of _inner_sum_numerator(n, k), as
    _triple_bound: the sum over every term of the l1 norms of its factors,
    (q;q)_{2n+k-s-1}, the tails T_m T_l T_{n-m-l} and (q;q)_k / (q;q)_{k-l},
    the tail T_{k-l} of k: tail_norms(k)[k - l]."""
    tails, heads, qqs = tail_norms(n), tail_norms(k), qq_norms(3 * n - 1)
    bound = 0
    for ell in range(k + 1):
        part = 0
        for m in range(n - ell + 1):
            part += qqs[2 * n + k - m - ell - 1] * tails[m] * tails[n - m - ell]
        bound += part * tails[ell] * heads[k - ell]
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
    2m = N.  The terms are summed per s, and horner_close applies every
    (-1)^s (q;q)_{2n+k-s-1}.  The T_k of the summand is left out: the
    numerator over (q;q)_n^3 is this times T_k.
    """
    bound = _inner_bound(n, k)
    width = packed_width(bound)
    by_s = [0] * (n + 1)

    def add(v, j, ell):
        by_s[j + ell] += v << width * (j * k + comb(j, 2) + comb(ell, 2))

    v_l = times_qq_packed(1, width, n, n)
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
    return horner_close(by_s, 2 * n + k - 1, width), width, bound


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


def verify_main(n: int) -> dict:
    """Exact equality of the closed product and the raw dimension sum."""
    return timed_reports(_main_step(n), n)[0]


def _main_step(n: int):
    closed = closed_product(n)
    # dimension_sum(n) is (-1)^(n+1) the triple sum's numerator over
    # q^(3n^2) (q;q)_n^4
    side = closed.num if n % 2 else -closed.num
    equal = closed.denominator_is_one and same_at_x(
        _packed_triple_sum(n), side, b_tops=(n,) * 4, shift=3 * n * n)
    yield _decided("main", equal, closed, lambda: (closed, dimension_sum(n)))


def verify_inner_sum(n: int, k: int) -> dict:
    """Exact equality of the inner double sum at (n, k) and its closed form."""
    return timed_reports(_inner_step(n, k), n, k)[0]


def _inner_step(n: int, k: int):
    _require_inner_range(n, k)
    rhs = inner_sum_rhs_poly(n, k)
    yield _decided("inner-sum", same_at_x(_packed_inner_sum(n, k), rhs, b_tops=(n, n, k)),
                   RationalFunctionQ(rhs), lambda: inner_sum_sides(n, k))


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


def _range_signs(n: int) -> dict:
    """{(lo, hi): sign} for 0 <= lo <= n and lo <= hi < 3n, where
    prod_{i=lo+1..hi} (q^i - 1) (q;q)_lo == sign (q;q)_hi; 0 when neither
    sign holds.

    The cross-multiplied form of prod_{i=lo+1..hi} (q^i - 1) == sign *
    (q;q)_hi / (q;q)_lo, and an exact proof of it since (q;q)_lo != 0.
    Decided at X: both sides are products of hi <= 3n - 1 factors of l1 norm
    2, so one width from 2^(3n-1) serves the table.  Per lo both sides start
    from (q;q)_lo, one pass from (q;q)_(lo-1), and each step up in hi is one
    pass on each: the literal factor (q^hi - 1) on one, (1 - q^hi) on the
    other.  Nothing is divided or canonicalised.
    """
    width = packed_width(1 << 3 * n - 1)
    signs = {}
    qq_lo = 1
    for lo in range(n + 1):
        if lo:
            qq_lo = times_range_packed(qq_lo, width, lo, lo)
        lhs = rhs = qq_lo
        for hi in range(lo, 3 * n):
            if hi > lo:
                lhs = times_literal_range_packed(lhs, width, hi, hi)
                rhs = times_range_packed(rhs, width, hi, hi)
            signs[lo, hi] = 1 if lhs == rhs else -1 if lhs == -rhs else 0
    return signs


def simplification_chain(n: int):
    """Verify every rewrite that turns the raw sum into the compact triple sum.

    The eight listed rewrites are checked for all admissible (k, m, l) at this
    n, each as an exact, cross-multiplied identity between the literal
    (q^i - 1) products and their (q;q) forms.  Then the normalized raw sum,
    from the walker, is compared with the regrouped (q;q) triple sum, from
    the oracle _packed_nested_triple; then the normalized closed side, and
    finally the exponent bookkeeping.
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
    # 1 / lit_den == sign / ((q;q)_k (q;q)_m), lit_den the literal products
    # over 1..k and 1..m: the product of the two proved range statements
    signs = _range_signs(n)
    yield _for_all(
        "simplify-factorial-signs",
        ("k", "m"),
        km,
        lambda k, m: signs[0, k] * signs[0, m] == (-1 if (k + m) % 2 else 1),
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

    def long_range(k, m, ell):
        # prod_{i=l+1..3n-k-m-l-1} (q^i - 1) == (-1)^(n+k+m+1) (q;q)_top / (q;q)_l
        top = 3 * n - k - ell - m - 1
        return signs[ell, top] == (-1 if (n + k + m + 1) % 2 else 1)

    def tail(j, ell):
        # prod_{i=n-j-l+1..n} (q^i - 1) == (-1)^(j+l) (q;q)_n / (q;q)_{n-j-l}
        return signs[n - j - ell, n] == (-1 if (j + ell) % 2 else 1)

    keys = ("k", "m", "l")
    yield _for_all("simplify-long-range", keys, admissible, long_range)
    yield _for_all("simplify-k-tail", keys, admissible, lambda k, m, ell: tail(k, ell))
    yield _for_all("simplify-m-tail", keys, admissible, lambda k, m, ell: tail(m, ell))

    # regrouping: raw * q^(3n^2) / ((-1)^(n-1) (q;q)_n) == grouped (q;q) triple
    # sum; the raw sum is (-1)^(n+1) the walker's numerator over q^(3n^2)
    # (q;q)_n^4, so the normalised side is that numerator over (q;q)_n^5,
    # and so is the oracle's: equal numerators, decided at X, are the step
    normalized = RationalFunctionQ(_triple_sum_numerator(n), (n,) * 5)
    nested = _packed_nested_triple(n)
    yield _decided("simplify-regrouped-sum", same_at_x(_packed_triple_sum(n), nested), normalized,
                   lambda: (normalized, RationalFunctionQ(unpack(*nested), (n,) * 5)))

    # the closed side normalised alike, against q^e / (1 - q^n), which is
    # q^e (q;q)_(n-1) / (q;q)_n: over one denominator, equal numerators are
    # the step
    closed = closed_product(n).num.shifted(3 * n * n)
    normalized_lhs = closed if n % 2 else -closed
    target = qq(n - 1).shifted(3 * n * n + 2 * comb(n, 2))
    rhs = RationalFunctionQ(target, (n,))
    yield _decided("simplify-normalized-lhs", normalized_lhs == target, rhs,
                   lambda: (RationalFunctionQ(normalized_lhs, (n,)), rhs))

    l_exp = 3 * n * n + 2 * comb(n, 2)
    r_exp = 4 * n * n - n
    yield "simplify-exponent-total", l_exp == r_exp, l_exp, r_exp


def _nested_bound(n: int) -> int:
    """A proved bound on every coefficient of the oracle's triple sum, from
    its own terms: the sum over every (k, m, l) of the l1 norms of the
    factors it multiplies, C(n, m) C(n-m, l) for [n, m]_q [n-m, l]_q,
    ||T_(n-k-l)||_1 ||T_k||_1, ||(q;q)_(3n-s-1)||_1 and ||(q;q)_n||_1^3."""
    tails, qqs = tail_norms(n), qq_norms(3 * n - 1)
    bound = 0
    for ell in range(n + 1):
        top = n - ell
        for m in range(top + 1):
            part = 0
            for k in range(top + 1):
                part += tails[top - k] * tails[k] * qqs[3 * n - k - m - ell - 1]
            bound += comb(n, m) * comb(n - m, ell) * part
    return bound * qqs[n] ** 3


@lru_cache(maxsize=1)
def _packed_nested_triple(n: int):
    """(value, width, bound): numerator over (q;q)_n^5 of the (k, m, l)
    triple sum, from scratch, packed at the width _nested_bound proves.

    The term at (k, m, l) is (-1)^s q^e (q;q)_{3n-s-1} (q;q)_n T_k T_m T_l
    T_{n-k-l} T_{n-m-l}, with s = k + m + l, T_j = prod_{i=j+1..n} (1 - q^i)
    and e = kn + C(k,2) + m(n-k) + C(m,2) + C(l,2).  Its (m, l) part
    T_m T_l T_{n-m-l} is (q;q)_n^2 times the q-multinomial [n; m, l, n-m-l]_q
    = [n, m]_q [n-m, l]_q, one int product of two entries of the packed
    q-Pascal table, with no (1 - q^i) pass.  Per (m, l), u starts at that
    product times T_{n-l}, which is T_{n-k-l} at k = 0, and each step up in
    k multiplies in (1 - q^(n-k-l+1)), turning T_{n-k-l+1} into T_{n-k-l}.
    The shifted u is summed into the bucket (s, k).  Per s, the buckets are
    folded with their T_k by nested multiplication, and the fold is
    multiplied once by (q;q)_{3n-s-1} and added with the sign (-1)^s.  The
    (q;q)_n^3 that every term shares, its own (q;q)_n and the (q;q)_n^2 of
    its multinomial, multiplies the total once, as 3n passes.  That is
    O(n^3) shift-subtract passes in all, on ints that carry no (q;q)_n^3
    until the end.

    The one oracle of the triple sum: simplify-regrouped-sum,
    conclusion-group-by-k and conclusion-reindex-outer compare with it.  Its
    bound is its own, from the factors it multiplies, and it only
    multiplies: it calls no div_packed, no horner_close and no walker, so it
    shares no stepping, summation or closing code with the walkers.  What it
    shares with them is exact integer arithmetic at X, and the lemma behind
    comparing there.  The cache of the last n lets a chain run build it once
    per n.
    """
    bound = _nested_bound(n)
    width = packed_width(bound)
    pascal = packed_qpascal(n, width)
    by_sk = [[0] * (n + 1) for _ in range(2 * n + 1)]
    for ell in range(n + 1):
        top = n - ell
        for m in range(top + 1):
            u = times_range_packed(pascal[n][m] * pascal[n - m][ell], width, top + 1, n)
            for k in range(top + 1):
                if k:
                    u = times_range_packed(u, width, top - k + 1, top - k + 1)
                e = k * n + comb(k, 2) + m * (n - k) + comb(m, 2) + comb(ell, 2)
                by_sk[k + m + ell][k] += u << width * e
    nested = 0
    for s, row in enumerate(by_sk):
        part = 0
        for k, bucket in enumerate(row):
            if k:
                part = times_range_packed(part, width, k, k)
            part += bucket
        part = times_range_packed(part, width, 1, 3 * n - s - 1)
        nested = nested - part if s % 2 else nested + part
    return times_qq_packed(nested, width, n, n, n), width, bound


def _reindexed_bound(n: int, inner_bounds) -> int:
    """A proved bound on every coefficient of conclusion-reindex-outer's
    sum: over k, inner_bounds[k] (the inner sum's own) times ||T_k||_1
    ||T_(n-k)||_1, all times ||(q;q)_n||_1."""
    tails = tail_norms(n)
    return qq_norms(n)[n] * sum(b * tails[k] * tails[n - k] for k, b in enumerate(inner_bounds))


def _single_bound(n: int) -> int:
    """A proved bound on every coefficient of the single k-sum
    sum_k (-1)^k (q^(k+1);q)_(n-1) T_(n-k) q^C(n-k,2): each Pochhammer
    product has n - 1 factors, so l1 norm at most 2^(n-1).  The substituted
    sum of conclusion-plug-closed-form is this sum, shifted, times
    (q;q)_n^4."""
    tails = tail_norms(n)
    return 2 ** (n - 1) * sum(tails[n - k] for k in range(n + 1))


def _pulled_bound(n: int) -> int:
    """A proved bound on every coefficient of the pulled k-sum
    sum_k (-1)^k (q^n;q)_k T_k T_(n-k) q^C(n-k,2): (q^n;q)_k has l1 norm
    at most 2^k."""
    tails = tail_norms(n)
    return sum(2 ** k * tails[k] * tails[n - k] for k in range(n + 1))


def conclusion_chain(n: int):
    """Verify the eight steps that close the proof of the main identity."""
    _require_positive(n)
    return timed_reports(_conclusion_steps(n), n)


def _conclusion_steps(n: int):
    # Every polynomial is built packed, at a width that fits its own proved
    # bound, a sum over its terms of the l1 norms of their factors, and
    # every comparison of two of them is one laurent.same_at_x, at a width
    # that fits both sides' bounds times their (q;q) factors.

    # (a) flat triple sum == outer-k sum of inner double sums
    yield ("conclusion-group-by-k", same_at_x(_packed_triple_sum(n), _packed_nested_triple(n)),
           "triple sum numerator", "nested sum numerator")

    # (b) replacing k by n-k leaves the outer sum unchanged; the inner sums
    # are numerators over (q;q)_n^2 (q;q)_k, brought to (q;q)_n^3 here by
    # their T_k, and the k-sum to (q;q)_n^4 by one more (q;q)_n
    nested = _packed_nested_triple(n)
    inners = [_packed_inner_sum(n, k) for k in range(n + 1)]
    bound = _reindexed_bound(n, [inner[2] for inner in inners])
    width = max(packed_width(bound), nested[1])
    value = 0
    for k, inner in enumerate(inners):
        outer = times_range_packed(repacked(inner, width), width, k + 1, n)
        outer = times_range_packed(outer, width, n - k + 1, n) << width * (
            (n - k) * n + comb(n - k, 2))
        value = value - outer if (n - k) % 2 else value + outer
    reindexed = times_qq_packed(value, width, n), width, bound
    yield ("conclusion-reindex-outer", same_at_x(nested, reindexed),
           "nested sum numerator", "reindexed sum numerator")

    # (c) substituting the inner sum's closed form, whose k-sum is brought to
    # (q;q)_n^4 once, as 4n passes
    bound = _single_bound(n) * qq_norms(n)[n] ** 4
    width = max(packed_width(bound), width)
    value = 0
    for k in range(n + 1):
        outer = times_range_packed(pack(inner_sum_rhs_poly(n, k), width), width, n - k + 1, n)
        outer <<= width * ((n - k) * n + comb(n - k, 2))
        value = value - outer if (n - k) % 2 else value + outer
    plugged = times_qq_packed(value, width, n, n, n, n), width, bound
    yield ("conclusion-plug-closed-form", same_at_x(reindexed, plugged),
           "reindexed sum numerator", "substituted sum numerator")

    # (d) dividing by q^(2n^2 + C(n,2)) gives the single k-sum: plugged over
    # q^shift (q;q)_n^5 against single over (q;q)_n, cross-multiplied.  The
    # single k-sum is decoded for its record, and is a side of (d) and (e)
    shift = 2 * n * n + comb(n, 2)
    bound = _single_bound(n)
    width = packed_width(bound)
    value = 0
    for k in range(n + 1):
        # (q^(k+1);q)_(n-1) T_(n-k) q^C(n-k,2)
        term = times_range_packed(times_range_packed(1, width, k + 1, k + n - 1), width,
                                  n - k + 1, n) << width * comb(n - k, 2)
        value = value - term if k % 2 else value + term
    single = unpack(value, width, bound)
    rhs_d = RationalFunctionQ(single, (n,))
    yield _decided("conclusion-normalize-power", same_at_x(plugged, single, (n,), (n,) * 5, shift),
                   rhs_d, lambda: (RationalFunctionQ(unpack(*plugged), (n,) * 5, shift), rhs_d))

    # (e) Pochhammer rewrite pulls out (q;q)_{n-1}:
    # (q^(k+1);q)_(n-1) == (q;q)_(n-1) (q^n;q)_k / (q;q)_k, cross-multiplied;
    # both sides are products of n - 1 + k <= 2n - 1 factors
    width = packed_width(1 << 2 * n - 1)
    rewrites_ok = all(
        times_range_packed(times_range_packed(1, width, k + 1, k + n - 1), width, 1, k)
        == times_range_packed(times_range_packed(1, width, n, n + k - 1), width, 1, n - 1)
        for k in range(n + 1)
    )
    # pulled = (q;q)_(n-1) ksum / (q;q)_n^2 against rhs_d = single / (q;q)_n,
    # cross-multiplied: (q;q)_(n-1) ksum == single (q;q)_n.  The pulled
    # k-sum is decoded once, for the sides of (e) and (f)
    bound = _pulled_bound(n)
    width = packed_width(bound)
    value = 0
    for k in range(n + 1):
        # (q^n;q)_k T_k T_(n-k) q^C(n-k,2)
        term = times_range_packed(times_range_packed(1, width, n, n + k - 1), width, k + 1, n)
        term = times_range_packed(term, width, n - k + 1, n) << width * comb(n - k, 2)
        value = value - term if k % 2 else value + term
    ksum = unpack(value, width, bound)
    split = same_at_x(ksum, single, (n - 1,), (n,))
    rhs_side = rhs_d.to_json_dict()
    pulled_side = rhs_side if split else RationalFunctionQ(qq(n - 1) * ksum, (n, n)).to_json_dict()
    yield ("conclusion-pochhammer-split", rewrites_ok and split, pulled_side, rhs_side)

    # (f) the k-sum is the coefficient of x^n in the product of the series
    # with numerators (-1)^j (q^n;q)_j and q^C(j,2), that is of
    # (-q^n x;q)_inf / (-x;q)_inf and (-x;q)_inf: h_n over (q;q)_n against
    # ksum over (q;q)_n^2, cross-multiplied.  Every h_t is bounded by
    # sum_i C(t, i) 2^i = 3^t, since [t, i]_q has l1 norm C(t, i), (q^n;q)_i
    # has i factors of l1 norm 2 and q^C(t-i,2) is a monomial; so the
    # width of 3^n fits every h_t.  h_n is decoded for its record
    width = packed_width(3 ** n)
    product = packed_series_product(
        qbinom_numerators(n, n, width), euler_numerators(0, n, width), width)
    h_n = unpack(product[n], width, 3 ** n)
    coefficient = RationalFunctionQ(h_n, (n,))
    yield _decided("conclusion-coefficient-extraction", same_at_x(h_n, ksum, (n,)), coefficient,
                   lambda: (coefficient, RationalFunctionQ(ksum, (n, n))))

    # (g) the product telescopes to the series (-q^n x;q)_inf, whose
    # numerators q^(C(j,2)+nj) have l1 norm 1: compared at the product's width
    yield ("conclusion-telescoped-series", product == euler_numerators(n, n, width),
           "bracket product coefficients", "telescoped coefficients")

    # (h) final exponent bookkeeping
    l_exp = n * n + comb(n, 2)
    r_exp = 2 * n * n - n - comb(n, 2)
    yield "conclusion-exponent-identity", l_exp == r_exp, l_exp, r_exp
