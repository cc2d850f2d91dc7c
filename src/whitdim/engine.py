"""Exact verification of the dimension identity and its full derivation chain.

Everything here is a statement about rational functions of q.  The main
identity equates a closed product

    q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i)

with a normalized triple character sum over (m, k, l).  The triple sum is
evaluated exactly over the fixed common denominator (q;q)_n^5 (the inner
double sums of lemma1 use (q;q)_n^2 (q;q)_k).  Each term is a sign and a
power of q times (q;q)_{3n-s-1} (q;q)_n times a product V of tail factors
T_j = (q;q)_n / (q;q)_j, where s = k + m + l is the index sum.  The walkers
step V alone from one lattice point to a neighbour, dividing it by and
multiplying it with a few sparse (1 - q^j) factors, and add each signed,
shifted V into a PolyAccumulator for its s.  Both walk m innermost: a step
in m changes two factors, (1 - q^m) and (1 - q^(n-m-l+1)), where a step in
l changes three.  At fixed l, with N = n - l, V pairs each T_j with
T_{N-j}, so V is unchanged by k -> N-k, by m -> N-m and, in the triple
sum, by k <-> m.  Each walker steps V once per orbit of these symmetries,
at its representative, and there adds the term of every point of the
orbit, each with its own sign, power of q and s: the triple walker steps
0 <= k <= m <= N/2, about n^3/24 points, the inner walker m <= N/2.  The
factors that depend only on s, or on nothing, are applied once at the end:
a Horner pass over s (_horner_close) gives every partial sum its
(q;q)_{3n-s-1}, and the triple sum's total is multiplied by (q;q)_n.  No
per-term polynomial product is ever built, and each division asserts
exactness.  The triple walker has one form, cached for the last n:
dimension_sum and conclusion-group-by-k both read it, so a chain run walks
it once per n.

The derivation chains compare the walkers with one from-scratch oracle,
_nested_triple_numerator.  The oracle only multiplies: terms that share
factors share their prefix products, built by sparse (1 - q^i) passes.  Per
l it walks m downward, multiplying in one factor of T_m per step and
T_{n-m-l} once, and k innermost and upward, one factor of T_{n-k-l} per
step, so the whole sum costs O(n^3) passes.  Terms are summed per (s, k);
per s the k sums are folded with their T_k by nested multiplication and
then multiplied once by (q;q)_{3n-s-1}, directly and not by a Horner pass
over s.  It never divides out a factor and sums with plain LaurentPoly +/-,
so it shares no stepping, summation or closing code with the walkers it
checks.  Both simplify-regrouped-sum and conclusion-group-by-k compare a
walker with it; it is cached for the last n, so a chain run builds it once
per n.

The per-tuple rewrites of the simplification chain are cross-multiplied
statements between polynomials, built by sparse passes: no division and no
canonicalisation, and exact proofs since every (q;q)_j is nonzero.  The
long-range and tail rewrites are all prod_{i=lo+1..hi} (q^i - 1) (q;q)_lo ==
sign (q;q)_hi (_range_rewrite_holds); many tuples map to one (sign, lo, hi),
so each distinct statement is proved once per n and its verdict is reported
for every tuple that maps to it.

The conclusion chain works the same way where its records allow: step (c)
multiplies each closed form by (q;q)_n^4 as 4n sparse passes, step (e)
proves its n + 1 Pochhammer rewrites cross-multiplied, and the series
product of step (f) is a division-free q-binomial convolution (see qseries).
Only the values a record serialises are canonicalised.

Every check is reported through one runner, timed_reports.  A check is a
generator that yields one (identity, equal, lhs, rhs) tuple per step; the
runner times the work between two yields and wraps each step in a
VerificationReport.  verify_main and verify_inner_sum are one-step checks,
simplification_chain and conclusion_chain run the eleven and the eight steps
of the two derivation chains.
"""

from __future__ import annotations

import time
from functools import lru_cache
from math import comb
from typing import Optional

from .laurent import LaurentPoly, PolyAccumulator
from .qseries import (
    euler_series, poch_power, q_power_minus_one_range, qbinom_series, qq, qq_power,
)
from .rational import RationalFunctionQ


class VerificationReport:
    """Outcome of one identity check; equal is True iff both canonical values match."""

    def __init__(self, identity: str, n: int, k: Optional[int], equal: bool,
                 lhs, rhs, elapsed_ms: float):
        self.identity = identity
        self.n = n
        self.k = k
        self.equal = equal
        self.lhs = lhs
        self.rhs = rhs
        self.elapsed_ms = elapsed_ms

    def to_json_dict(self) -> dict:
        d = {"identity": self.identity, "n": self.n}
        if self.k is not None:
            d["k"] = self.k
        d["equal"] = self.equal
        d["lhs"] = self.lhs
        d["rhs"] = self.rhs
        d["elapsed_ms"] = self.elapsed_ms
        return d


def timed_reports(steps, n: int, k: Optional[int] = None) -> list:
    """Run a check's steps, timing each into a VerificationReport.

    steps yields one (identity, equal, lhs, rhs) tuple per step.  A step's
    elapsed_ms runs from the previous yield (or the start) to its own, so the
    work between two yields is timed alone.
    """
    reports = []
    t0 = time.perf_counter()
    for identity, equal, lhs, rhs in steps:
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        reports.append(VerificationReport(identity, n, k, equal, lhs, rhs, elapsed_ms))
        t0 = time.perf_counter()
    return reports


def _equality(identity: str, lhs, rhs):
    """A step comparing two exact values, recorded with both serialised."""
    return identity, lhs == rhs, lhs.to_json_dict(), rhs.to_json_dict()


def _one_step(identity: str, sides):
    """The single step of a check that compares the two values sides() returns."""
    lhs, rhs = sides()
    yield _equality(identity, lhs, rhs)


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


@lru_cache(maxsize=1)
def _triple_sum_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (m,k,l) triple sum, cached for the last n.

    Each term is (-1)^s * q^e * (q;q)_{3n-s-1} * (q;q)_n * V with
      V = T_k T_m T_l T_{n-k-l} T_{n-m-l},   T_j = (q;q)_n / (q;q)_j,
      s = k + m + l,
      e = kn + (n-k)m + C(k,2) + C(m,2) + C(l,2).

    At fixed l, with N = n - l, V = T_l (T_k T_{N-k}) (T_m T_{N-m}) is
    unchanged by k -> N-k, by m -> N-m and by k <-> m.  So V is walked only
    at the orbit representatives 0 <= a <= b <= N/2, a outermost, then l,
    then b innermost.  V starts at (q;q)_n^3, and each step divides out and
    multiplies in a few (1 - q^j) factors: a step in a changes four, in l
    three, in b two.  Each representative adds the terms of every distinct
    unordered pair {k, m} with k in {a, N-a} and m in {b, N-b}, each with
    its own s, e and sign, and twice when k != m (s and e are symmetric in k
    and m).  Pairs with k = m occur only at b = a, so the b-walk over b > a
    starts from 2 V(a, a, l).  The signed, shifted V are summed per index
    sum s; _horner_close then applies every (q;q)_{3n-s-1}, and the total is
    multiplied once by (q;q)_n.  Terms are accumulated in a fixed order; the
    exact arithmetic makes the order irrelevant to the value, the fixed
    order makes runs reproducible.
    """
    by_s = [PolyAccumulator() for _ in range(2 * n + 1)]

    def add(v, k, m, ell):
        e = k * n + (n - k) * m + comb(k, 2) + comb(m, 2) + comb(ell, 2)
        by_s[k + m + ell].add_shifted(v, e, (k + m + ell) % 2)

    v_aa = qq_power(n, 3)
    for a in range(n // 2 + 1):
        if a:
            v_aa = (
                v_aa.div_one_minus_q(a)
                .times_one_minus_q(n - a + 1)
                .div_one_minus_q(a)
                .times_one_minus_q(n - a + 1)
            )
        v_al = v_aa
        for ell in range(n - 2 * a + 1):
            if ell:
                v_al = (
                    v_al.div_one_minus_q(ell)
                    .times_one_minus_q(n - a - ell + 1)
                    .times_one_minus_q(n - a - ell + 1)
                )
            top = n - ell
            add(v_al, a, a, ell)
            if 2 * a == top:
                continue  # {a, a} is the whole orbit
            add(v_al, top - a, top - a, ell)
            v = v_al * 2  # the b-steps are linear in v
            add(v, a, top - a, ell)
            for b in range(a + 1, top // 2 + 1):
                v = v.div_one_minus_q(b).times_one_minus_q(top - b + 1)
                add(v, a, b, ell)
                add(v, top - a, top - b, ell)
                if 2 * b < top:
                    add(v, a, top - b, ell)
                    add(v, top - a, b, ell)
    total = _horner_close([acc.value() for acc in by_s], 3 * n - 1)
    return _times_qq_range(total, 1, n)


def _horner_close(parts, top: int) -> LaurentPoly:
    """sum over s of (q;q)_{top-s} * parts[s], by Horner's rule.

    With S = len(parts) - 1, (q;q)_{top-s} is (q;q)_{top-S} times the factors
    (1 - q^j) for j = top-S+1 .. top-s, so each step multiplies the running
    sum by one factor before adding the next part.  The whole sum costs top
    sparse passes, not one per factor of every (q;q)_{top-s}.
    """
    total = LaurentPoly.zero()
    for s, part in enumerate(parts):
        if s:
            total = total.times_one_minus_q(top - s + 1)
        total = total + part
    return _times_qq_range(total, 1, top - len(parts) + 1)


def dimension_sum(n: int) -> RationalFunctionQ:
    """The raw dimension sum: (1/q^(3n^2)) * sum over (m,k,l) of the character terms.

    The literal products (q^i - 1) make it (-1)^(n+1) times the (q;q) triple
    sum over (q;q)_n^4 q^(3n^2).  The value always collapses to a polynomial
    (the identity's other side), but nothing here assumes that.
    """
    _require_positive(n)
    acc = _triple_sum_numerator(n)
    return RationalFunctionQ(acc if n % 2 else -acc, qq_power(n, 4).shifted(3 * n * n))


def _inner_sum_numerator(n: int, k: int) -> LaurentPoly:
    """Numerator over (q;q)_n^2 (q;q)_k of the inner (m,l) double sum at fixed k.

    Each term is (-1)^s * q^e * (q;q)_{2n+k-s-1} * V with
      V = T_m T_l T_{n-m-l} (q;q)_k / (q;q)_{k-l},
      s = m + l,   e = mk + C(m,2) + C(l,2).

    Walked like _triple_sum_numerator, l outer and m inner: V starts at
    (q;q)_n^2, a step in l changes three factors and a step in m two.  At
    fixed l, with N = n - l, V is unchanged by m -> N-m, so V is walked only
    for m <= N/2 and adds the terms at m and at N - m, once when 2m = N.
    The terms are summed per s, and _horner_close applies every
    (q;q)_{2n+k-s-1}.  The T_k of the summand is left out: the numerator
    over (q;q)_n^3 is this times T_k.
    """
    by_s = [PolyAccumulator() for _ in range(n + 1)]
    v_l = qq_power(n, 2)
    for ell in range(k + 1):
        if ell:
            v_l = (
                v_l.div_one_minus_q(ell)
                .times_one_minus_q(k - ell + 1)
                .times_one_minus_q(n - ell + 1)
            )
        top = n - ell
        v = v_l
        for m in range(top // 2 + 1):
            if m:
                v = v.div_one_minus_q(m).times_one_minus_q(top - m + 1)
            for j in (m, top - m) if 2 * m < top else (m,):
                e = j * k + comb(j, 2) + comb(ell, 2)
                by_s[j + ell].add_shifted(v, e, (j + ell) % 2)
    return _horner_close([acc.value() for acc in by_s], 2 * n + k - 1)


def inner_sum_rhs_poly(n: int, k: int) -> LaurentPoly:
    """(q^(k+1);q)_(n-1) * (q^(k+n))^n * (-1)^n * q^C(n,2) as a polynomial."""
    poly = poch_power(k + 1, n - 1).shifted((k + n) * n + comb(n, 2))
    return -poly if n % 2 else poly


def inner_sum_sides(n: int, k: int):
    """Both sides of the inner-sum evaluation at (n, k), as rational functions."""
    _require_positive(n)
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")
    num = _inner_sum_numerator(n, k)
    # The value is a polynomial, so 2n + k checked (1 - q^i) divisions give
    # the canonical lhs without a long division by (q;q)_n^2 (q;q)_k.  Falls
    # back to the generic path if a division is inexact (i.e. if the identity
    # were false).
    quo = num
    try:
        for top in (n, n, k):
            for i in range(1, top + 1):
                quo = quo.div_one_minus_q(i)
    except ValueError:
        lhs = RationalFunctionQ(num, _times_qq_range(qq_power(n, 2), 1, k))
    else:
        lhs = RationalFunctionQ(quo)
    rhs = RationalFunctionQ(inner_sum_rhs_poly(n, k))
    return lhs, rhs


def verify_main(n: int) -> VerificationReport:
    """Exact equality of the closed product and the raw dimension sum."""
    _require_positive(n)
    return timed_reports(
        _one_step("main", lambda: (closed_product(n), dimension_sum(n))), n
    )[0]


def verify_inner_sum(n: int, k: int) -> VerificationReport:
    """Exact equality of the inner double sum at (n, k) and its closed form."""
    return timed_reports(_one_step("inner-sum", lambda: inner_sum_sides(n, k)), n, k)[0]


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


def _factorial_signs_hold(sign: int, k: int, m: int) -> bool:
    """1 / (prod_{i=1..k} (q^i - 1) prod_{i=1..m} (q^i - 1)) == sign / ((q;q)_k (q;q)_m).

    Cross-multiplied to (q;q)_k (q;q)_m == sign * lit_den, exact since both
    denominators are nonzero.  Each side is built by sparse passes: (q;q)_m
    onto the cached (q;q)_k, and the m literal factors (q^i - 1) onto the
    literal product over 1..k.
    """
    lit_den = q_power_minus_one_range(1, k)
    for i in range(1, m + 1):
        lit_den = -lit_den.times_one_minus_q(i)
    return _times_qq_range(qq(k), 1, m) == (-lit_den if sign < 0 else lit_den)


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

    def factorial_signs(k, m):
        return _factorial_signs_hold(-1 if (k + m) % 2 else 1, k, m)

    yield _for_all("simplify-monomial-merge", ("k", "m"), km, monomial_merge)
    yield _for_all("simplify-factorial-signs", ("k", "m"), km, factorial_signs)
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

    # regrouping: raw * q^(3n^2) / ((-1)^(n-1) (q;q)_n) == grouped (q;q) triple sum
    sign = 1 if (n - 1) % 2 == 0 else -1
    normalized = (
        dimension_sum(n)
        * RationalFunctionQ.monomial(3 * n * n)
        / RationalFunctionQ(qq(n) * sign)
    )
    grouped = RationalFunctionQ(_nested_triple_numerator(n), qq_power(n, 5))
    yield _equality("simplify-regrouped-sum", normalized, grouped)

    normalized_lhs = (
        closed_product(n)
        * RationalFunctionQ.monomial(3 * n * n)
        / RationalFunctionQ(qq(n) * sign)
    )
    target = RationalFunctionQ(
        LaurentPoly.monomial(3 * n * n + 2 * comb(n, 2)),
        LaurentPoly.one() - LaurentPoly.monomial(n),
    )
    yield _equality("simplify-normalized-lhs", normalized_lhs, target)

    l_exp = 3 * n * n + 2 * comb(n, 2)
    r_exp = 4 * n * n - n
    yield "simplify-exponent-total", l_exp == r_exp, l_exp, r_exp


@lru_cache(maxsize=1)
def _nested_triple_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (k, m, l) triple sum, from scratch.

    The term at (k, m, l) is (-1)^s q^e (q;q)_{3n-s-1} (q;q)_n T_k T_m T_l
    T_{n-k-l} T_{n-m-l}, with s = k + m + l, T_j = prod_{i=j+1..n} (1 - q^i)
    and e = kn + C(k,2) + m(n-k) + C(m,2) + C(l,2).  Terms that share
    factors share their prefix products.  Per l, u starts at (q;q)_n T_l
    T_{n-l} T_{n-l}: the first T_{n-l} is T_{n-k-l} at k = 0, the second T_m
    at m = n - l.  Each step down in m multiplies in (1 - q^(m+1)), turning
    T_{m+1} into T_m, and T_{n-m-l} is multiplied in once per m.  Each step
    up in k multiplies in (1 - q^(n-k-l+1)), turning T_{n-k-l+1} into
    T_{n-k-l}.  The shifted u is summed into the bucket (s, k).  Per s, the
    buckets are folded with their T_k by nested multiplication, and the fold
    is multiplied once by (q;q)_{3n-s-1} and added with the sign (-1)^s.
    That is O(n^3) sparse passes in all, where rebuilding each term from
    (q;q)_n takes O(n^4).

    The one oracle of the triple sum: both simplify-regrouped-sum and
    conclusion-group-by-k compare a walker with it.  It only multiplies and
    sums with plain LaurentPoly +/-, so it shares no stepping, summation or
    closing code with the walkers, and the cache of the last n lets a chain
    run build it once per n.
    """
    by_sk = [[LaurentPoly.zero()] * (n + 1) for _ in range(2 * n + 1)]
    for ell in range(n + 1):
        top = n - ell
        head = _times_qq_range(qq(n), ell + 1, n)
        head = _times_qq_range(head, top + 1, n)
        head = _times_qq_range(head, top + 1, n)
        for m in range(top, -1, -1):
            if m < top:
                head = head.times_one_minus_q(m + 1)
            u = _times_qq_range(head, top - m + 1, n)
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
    # are numerators over (q;q)_n^2 (q;q)_k, brought to (q;q)_n^4 here by
    # their T_k and one more (q;q)_n
    reindexed = LaurentPoly.zero()
    for k in range(n + 1):
        inner = _times_qq_range(_times_qq_range(_inner_sum_numerator(n, k), k + 1, n), 1, n)
        outer = _times_qq_range(inner, n - k + 1, n).shifted((n - k) * n + comb(n - k, 2))
        reindexed = reindexed - outer if (n - k) % 2 else reindexed + outer
    yield ("conclusion-reindex-outer", nested == reindexed,
           "nested sum numerator", "reindexed sum numerator")

    # (c) substituting the inner sum's closed form
    plugged = LaurentPoly.zero()
    for k in range(n + 1):
        # times (q;q)_n^4 as 4n sparse passes
        closed = inner_sum_rhs_poly(n, k)
        for _ in range(4):
            closed = _times_qq_range(closed, 1, n)
        outer = _times_qq_range(closed, n - k + 1, n).shifted(
            (n - k) * n + comb(n - k, 2)
        )
        plugged = plugged - outer if (n - k) % 2 else plugged + outer
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
    lhs_d = RationalFunctionQ(plugged, qq_power(n, 5).shifted(shift))
    rhs_d = RationalFunctionQ(single_num, qq(n))
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
    pulled = RationalFunctionQ(qq(n - 1) * ksum_num, qq_power(n, 2))
    yield ("conclusion-pochhammer-split", rewrites_ok and pulled == rhs_d,
           pulled.to_json_dict(), rhs_d.to_json_dict())

    # (f) the k-sum is the coefficient of x^n in the product series
    bracket1 = qbinom_series(n, n).alternate_x()
    bracket2 = euler_series(0, n).alternate_x()
    product = bracket1 * bracket2
    ksum = RationalFunctionQ(ksum_num, qq_power(n, 2))
    yield _equality("conclusion-coefficient-extraction", product.coeff(n), ksum)

    # (g) the product telescopes to the single series with base -q^n
    telescoped = euler_series(n, n).alternate_x()
    yield ("conclusion-telescoped-series", product == telescoped,
           "bracket product coefficients", "telescoped coefficients")

    # (h) final exponent bookkeeping
    l_exp = n * n + comb(n, 2)
    r_exp = 2 * n * n - n - comb(n, 2)
    yield "conclusion-exponent-identity", l_exp == r_exp, l_exp, r_exp
