"""Exact verification of the dimension identity and its full derivation chain.

Everything here is a statement about rational functions of q.  The main
identity equates a closed product

    q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i)

with a normalized triple character sum over (m, k, l).  The triple sums are
evaluated exactly over the fixed common denominator (q;q)_n^5 (the inner
double sums use (q;q)_n^4).  Each term is a sign and a power of q times
(q;q)_{3n-s-1} (q;q)_n^p times a product V of tail factors
T_j = (q;q)_n / (q;q)_j, where s = k + m + l is the index sum.  The walkers
step V alone from one lattice point to a neighbour, dividing it by and
multiplying it with a few sparse (1 - q^j) factors, and add each signed,
shifted V into a PolyAccumulator for its s; the triple walker visits only
k <= m, since its terms are symmetric in k and m.  The factors that depend
only on s, or on nothing, are applied once at the end: a Horner pass over s
(_horner_close) gives every partial sum its (q;q)_{3n-s-1}, and the total is
multiplied by (q;q)_n^p.  No per-term polynomial product is ever built, and
each division asserts exactness.

The derivation chains compare the walkers with from-scratch oracles
(_grouped_sum_numerator, _nested_inner_numerator).  These only multiply:
each term's tail products T_j = prod_{i=j+1..n} (1 - q^i) are applied as
sparse (1 - q^i) passes onto cached prefixes, the terms are summed per index
sum s = k + m + l, and each partial sum is multiplied once by its
(q;q)_{3n-s-1} in _close_index_sums.  They never divide out a factor, never
step between lattice points and sum with plain LaurentPoly +/-, so they share
no stepping, summation or closing code with the walkers they check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb
from typing import Optional

from .laurent import LaurentPoly, PolyAccumulator, poly_exact_div, q_power_minus_one_range
from .qseries import euler_series, poch_power, qbinom_series, qq, series_coeff
from .rational import RationalFunctionQ


@dataclass(frozen=True)
class IdentitySideValue:
    """One side of a displayed identity, evaluated at concrete parameters."""

    label: str
    n: int
    k: Optional[int]
    value: RationalFunctionQ

    def to_json_dict(self) -> dict:
        d = {"label": self.label, "n": self.n}
        if self.k is not None:
            d["k"] = self.k
        d["value"] = self.value.to_json_dict()
        return d


@dataclass
class VerificationReport:
    """Outcome of one identity check; equal is True iff both canonical values match."""

    identity: str
    n: int
    k: Optional[int]
    equal: bool
    lhs: object
    rhs: object
    elapsed_ms: float

    def to_json_dict(self) -> dict:
        d = {"identity": self.identity, "n": self.n}
        if self.k is not None:
            d["k"] = self.k
        d["equal"] = self.equal
        d["lhs"] = self.lhs
        d["rhs"] = self.rhs
        d["elapsed_ms"] = self.elapsed_ms
        return d


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
    shift = n * (n - 1) // 2
    poly = LaurentPoly.one()
    for i in range(1, n):
        # q^n - q^i = q^i * (q^(n-i) - 1)
        shift += i
        poly = -poly.times_one_minus_q(n - i)
    return RationalFunctionQ(poly.shifted(shift))


def _triple_sum_numerator(n: int, qq_n_power: int, parity_base: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (m,k,l) triple sum.

    Each term is sign * q^e * (q;q)_{3n-s-1} * (q;q)_n^qq_n_power * V with
      V = T_k T_m T_l T_{n-k-l} T_{n-m-l},   T_j = (q;q)_n / (q;q)_j,
      s = k + m + l,
      e = kn + (n-k)m + C(k,2) + C(m,2) + C(l,2),
      sign = (-1)^(parity_base + s).

    Only V is walked.  It starts at (q;q)_n^3, and each lattice step divides
    out and multiplies in a few (1 - q^j) factors.  V, e and the sign are
    symmetric in k and m, so only k <= m is walked and the l-walk of each
    k < m starts from 2V.  The signed, shifted V are summed per index sum s;
    _horner_close then applies every (q;q)_{3n-s-1}, and the total is
    multiplied once by (q;q)_n^qq_n_power.  Terms are accumulated in
    lexicographic (k, m, l) order; the exact arithmetic makes the order
    irrelevant to the value, the fixed order makes runs reproducible.
    """
    by_s = [PolyAccumulator() for _ in range(2 * n + 1)]
    v_kk = qq(n) ** 3
    for k in range(n + 1):
        if k:
            v_kk = (
                v_kk.div_one_minus_q(k)
                .times_one_minus_q(n - k + 1)
                .div_one_minus_q(k)
                .times_one_minus_q(n - k + 1)
            )
        v_km = v_kk
        for m in range(k, n + 1):
            if m > k:
                v_km = v_km.div_one_minus_q(m).times_one_minus_q(n - m + 1)
            v = v_km * 2 if m > k else v_km  # the l-steps are linear in v
            for ell in range(n - m + 1):
                if ell:
                    v = (
                        v.div_one_minus_q(ell)
                        .times_one_minus_q(n - k - ell + 1)
                        .times_one_minus_q(n - m - ell + 1)
                    )
                e = k * n + (n - k) * m + comb(k, 2) + comb(m, 2) + comb(ell, 2)
                by_s[k + m + ell].add_shifted(v, e, (parity_base + k + m + ell) % 2)
    total = _horner_close([acc.value() for acc in by_s], 3 * n - 1)
    for _ in range(qq_n_power):
        total = _times_qq_range(total, 1, n)
    return total


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

    Signs follow the literal products (q^i - 1); the value always collapses to
    a polynomial (the identity's other side), but nothing here assumes that.
    """
    _require_positive(n)
    acc = _triple_sum_numerator(n, 2, n + 1)
    return RationalFunctionQ(acc, (qq(n) ** 5).shifted(3 * n * n))


def compact_sides(n: int):
    """Both sides of the compact form: q^(4n^2-n)/(1-q^n) vs the (q;q)-triple sum."""
    _require_positive(n)
    lhs = RationalFunctionQ(
        LaurentPoly.monomial(4 * n * n - n), LaurentPoly.one() - LaurentPoly.monomial(n)
    )
    acc = _triple_sum_numerator(n, 1, 0)
    den = qq(n) ** 5
    # The value has the single pole 1-q^n; clearing it first keeps the
    # canonicalization to a toy gcd.  Falls back to the generic path if the
    # divisibility ever fails (i.e. if the identity were false).
    cleared = poly_exact_div(acc.times_one_minus_q(n), den)
    if cleared is not None:
        rhs = RationalFunctionQ(cleared, LaurentPoly.one() - LaurentPoly.monomial(n))
    else:
        rhs = RationalFunctionQ(acc, den)
    return lhs, rhs


def _inner_sum_numerator(n: int, k: int) -> LaurentPoly:
    """Numerator over (q;q)_n^4 of the inner (m,l) double sum at fixed k.

    Each term is (-1)^s * q^e * (q;q)_{2n+k-s-1} * (q;q)_n T_k * V with
      V = T_m T_l T_{n-m-l} (q;q)_k / (q;q)_{k-l},
      s = m + l,   e = mk + C(m,2) + C(l,2).

    Walked like _triple_sum_numerator: V starts at (q;q)_n^2, the terms are
    summed per s, _horner_close applies every (q;q)_{2n+k-s-1}, and the
    total is multiplied once by (q;q)_n T_k.
    """
    by_s = [PolyAccumulator() for _ in range(n + 1)]
    v_m = qq(n) ** 2
    for m in range(n + 1):
        if m:
            v_m = v_m.div_one_minus_q(m).times_one_minus_q(n - m + 1)
        v = v_m
        for ell in range(min(k, n - m) + 1):
            if ell:
                v = (
                    v.div_one_minus_q(ell)
                    .times_one_minus_q(k - ell + 1)
                    .times_one_minus_q(n - m - ell + 1)
                )
            e = m * k + comb(m, 2) + comb(ell, 2)
            by_s[m + ell].add_shifted(v, e, (m + ell) % 2)
    total = _horner_close([acc.value() for acc in by_s], 2 * n + k - 1)
    return _times_qq_range(_times_qq_range(total, 1, n), k + 1, n)


def inner_sum_rhs_poly(n: int, k: int) -> LaurentPoly:
    """(q^(k+1);q)_(n-1) * (q^(k+n))^n * (-1)^n * q^C(n,2) as a polynomial."""
    poly = poch_power(k + 1, n - 1).shifted((k + n) * n + comb(n, 2))
    return -poly if n % 2 else poly


def inner_sum_sides(n: int, k: int):
    """Both sides of the inner-sum evaluation at (n, k), as rational functions."""
    _require_positive(n)
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")
    lhs = RationalFunctionQ(_inner_sum_numerator(n, k), qq(n) ** 4)
    rhs = RationalFunctionQ(inner_sum_rhs_poly(n, k))
    return lhs, rhs


def verify_main(n: int) -> VerificationReport:
    """Exact equality of the closed product and the raw dimension sum."""
    _require_positive(n)
    t0 = time.perf_counter()
    lhs = closed_product(n)
    rhs = dimension_sum(n)
    return VerificationReport(
        identity="main",
        n=n,
        k=None,
        equal=lhs == rhs,
        lhs=lhs.to_json_dict(),
        rhs=rhs.to_json_dict(),
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


def labeled_sides(identity: str, n: int, k: Optional[int] = None):
    """Both sides of a named identity as labeled values.

    identity is one of "main", "compact", "inner-sum" (the latter needs k).
    """
    if identity == "main":
        lhs, rhs = closed_product(n), dimension_sum(n)
    elif identity == "compact":
        lhs, rhs = compact_sides(n)
    elif identity == "inner-sum":
        if k is None:
            raise ValueError("inner-sum needs k")
        lhs, rhs = inner_sum_sides(n, k)
    else:
        raise ValueError("unknown identity %r" % identity)
    return (
        IdentitySideValue(identity + "-lhs", n, k, lhs),
        IdentitySideValue(identity + "-rhs", n, k, rhs),
    )


def extended_inner_sum_matches(n: int, k: int) -> bool:
    """Extending the l-summation past l = k does not change the inner sum.

    Uses the rewritten summand whose l-factor carries (q^-k;q)_l, which
    vanishes for l > k; the restricted (l <= min(k, n-m)) and extended
    (l <= n-m) sums must agree exactly.
    """
    _require_positive(n)
    if not 0 <= k <= n:
        raise ValueError("k must lie in 0..n")

    def term(m, ell):
        num = poch_power(-k, ell) * poch_power(k + n, n - m - ell)
        num = num.shifted(k * m + k * ell + comb(m, 2))
        if m % 2:
            num = -num
        return RationalFunctionQ(num, qq(m) * qq(ell) * qq(n - m - ell))

    restricted = RationalFunctionQ.zero()
    extended = RationalFunctionQ.zero()
    for m in range(n + 1):
        for ell in range(n - m + 1):
            t = term(m, ell)
            extended = extended + t
            if ell <= min(k, n - m):
                restricted = restricted + t
    return restricted == extended


# ---------------------------------------------------------------------------
# step-by-step derivation checks
# ---------------------------------------------------------------------------


def _timed_report(identity, n, k, equal, lhs, rhs, t0) -> VerificationReport:
    return VerificationReport(
        identity, n, k, equal, lhs, rhs, (time.perf_counter() - t0) * 1000.0
    )


def _quantified(identity, n, ok_count, failures, t0) -> VerificationReport:
    return _timed_report(
        identity,
        n,
        None,
        not failures,
        "verified for %d parameter tuples" % ok_count,
        failures if failures else "all equal",
        t0,
    )


def simplification_chain(n: int):
    """Verify every rewrite that turns the raw sum into the compact triple sum.

    The eight listed rewrites are checked for all admissible (k, m, l) at this
    n, each as an exact identity between the literal (q^i - 1) products and
    their (q;q) forms; then the regrouped sum and the normalized closed side
    are compared, and finally the exponent bookkeeping.
    """
    _require_positive(n)
    reports = []

    t0 = time.perf_counter()
    lhs = LaurentPoly.monomial(n * (n - 1) // 2)
    rhs = LaurentPoly.monomial(comb(n, 2))
    reports.append(
        _timed_report("simplify-q-power", n, None, lhs == rhs,
                      lhs.to_json_dict(), rhs.to_json_dict(), t0)
    )

    t0 = time.perf_counter()
    lit = LaurentPoly.one()
    for i in range(1, n):
        lit = lit * (LaurentPoly.monomial(n) - LaurentPoly.monomial(i))
    conv = qq(n - 1).shifted(comb(n, 2))
    if n % 2 == 0:
        conv = -conv
    reports.append(
        _timed_report("simplify-closed-product", n, None, lit == conv,
                      lit.to_json_dict(), conv.to_json_dict(), t0)
    )

    t0 = time.perf_counter()
    failures, count = [], 0
    for k in range(n + 1):
        for m in range(n + 1):
            count += 1
            merged = k * n + (n - k) * m + comb(k, 2) + comb(m, 2)
            stated = n * (k + m) - k * m + comb(k, 2) + comb(m, 2)
            if merged != stated:
                failures.append({"k": k, "m": m})
    reports.append(_quantified("simplify-monomial-merge", n, count, failures, t0))

    t0 = time.perf_counter()
    failures, count = [], 0
    for k in range(n + 1):
        for m in range(n + 1):
            count += 1
            lit_den = q_power_minus_one_range(1, k) * q_power_minus_one_range(1, m)
            sign = -1 if (k + m) % 2 else 1
            if RationalFunctionQ(1, lit_den) != RationalFunctionQ(
                LaurentPoly.from_int(sign), qq(k) * qq(m)
            ):
                failures.append({"k": k, "m": m})
    reports.append(_quantified("simplify-factorial-signs", n, count, failures, t0))

    t0 = time.perf_counter()
    failures = [
        {"l": ell}
        for ell in range(n + 1)
        if ell * (ell - 1) // 2 != comb(ell, 2)
    ]
    reports.append(_quantified("simplify-l-power", n, n + 1, failures, t0))

    def admissible():
        for k in range(n + 1):
            for m in range(n + 1):
                for ell in range(n - max(k, m) + 1):
                    yield k, m, ell

    t0 = time.perf_counter()
    failures, count = [], 0
    for k, m, ell in admissible():
        count += 1
        lit = q_power_minus_one_range(ell + 1, 3 * n - k - ell - m - 1)
        sign = -1 if (n + k + m + 1) % 2 else 1
        if RationalFunctionQ(lit) != RationalFunctionQ(
            qq(3 * n - k - ell - m - 1) * sign, qq(ell)
        ):
            failures.append({"k": k, "m": m, "l": ell})
    reports.append(_quantified("simplify-long-range", n, count, failures, t0))

    t0 = time.perf_counter()
    failures, count = [], 0
    for k, m, ell in admissible():
        count += 1
        lit = q_power_minus_one_range(n - k - ell + 1, n)
        sign = -1 if (k + ell) % 2 else 1
        if RationalFunctionQ(lit) != RationalFunctionQ(qq(n) * sign, qq(n - k - ell)):
            failures.append({"k": k, "m": m, "l": ell})
    reports.append(_quantified("simplify-k-tail", n, count, failures, t0))

    t0 = time.perf_counter()
    failures, count = [], 0
    for k, m, ell in admissible():
        count += 1
        lit = q_power_minus_one_range(n - m - ell + 1, n)
        sign = -1 if (m + ell) % 2 else 1
        if RationalFunctionQ(lit) != RationalFunctionQ(qq(n) * sign, qq(n - m - ell)):
            failures.append({"k": k, "m": m, "l": ell})
    reports.append(_quantified("simplify-m-tail", n, count, failures, t0))

    # regrouping: raw * q^(3n^2) / ((-1)^(n-1) (q;q)_n) == grouped (q;q) triple sum
    t0 = time.perf_counter()
    sign = 1 if (n - 1) % 2 == 0 else -1
    normalized = (
        dimension_sum(n)
        * RationalFunctionQ.monomial(3 * n * n)
        / RationalFunctionQ(qq(n) * sign)
    )
    grouped = RationalFunctionQ(_grouped_sum_numerator(n), qq(n) ** 5)
    reports.append(
        _timed_report("simplify-regrouped-sum", n, None, normalized == grouped,
                      normalized.to_json_dict(), grouped.to_json_dict(), t0)
    )

    t0 = time.perf_counter()
    normalized_lhs = (
        closed_product(n)
        * RationalFunctionQ.monomial(3 * n * n)
        / RationalFunctionQ(qq(n) * sign)
    )
    target = RationalFunctionQ(
        LaurentPoly.monomial(3 * n * n + 2 * comb(n, 2)),
        LaurentPoly.one() - LaurentPoly.monomial(n),
    )
    reports.append(
        _timed_report("simplify-normalized-lhs", n, None, normalized_lhs == target,
                      normalized_lhs.to_json_dict(), target.to_json_dict(), t0)
    )

    t0 = time.perf_counter()
    l_exp = 3 * n * n + 2 * comb(n, 2)
    r_exp = 4 * n * n - n
    reports.append(
        _timed_report("simplify-exponent-total", n, None, l_exp == r_exp,
                      l_exp, r_exp, t0)
    )
    return reports


def _grouped_sum_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the grouped (q;q) triple sum, from scratch.

    The (k, m, l) term is (-1)^s q^e (q;q)_{3n-s-1} (q;q)_n T_k T_m T_l
    T_{n-k-l} T_{n-m-l}, with s = k + m + l and T_j = prod_{i=j+1..n} (1 - q^i).
    The prefixes (q;q)_n T_k and (q;q)_n T_k T_m are built once each; every
    term then multiplies in T_l, T_{n-k-l} and T_{n-m-l}.  The sign and the
    factor (q;q)_{3n-s-1} depend only on s, so they are applied once to the
    sum of the terms with that s.

    Deliberately not the incremental walker: the quotients are assembled by
    multiplying (1 - q^i) factors only (never dividing one out), and summed
    with plain LaurentPoly +/-, so this value cross-checks the walker output.
    """
    by_s = [LaurentPoly.zero()] * (2 * n + 1)
    for k in range(n + 1):
        head_k = _times_qq_range(qq(n), k + 1, n)
        for m in range(n + 1):
            head_km = _times_qq_range(head_k, m + 1, n)
            base_e = n * (k + m) - k * m + comb(k, 2) + comb(m, 2)
            for ell in range(n - max(k, m) + 1):
                u = _times_qq_range(head_km, ell + 1, n)
                u = _times_qq_range(u, n - k - ell + 1, n)
                u = _times_qq_range(u, n - m - ell + 1, n)
                by_s[k + m + ell] += u.shifted(base_e + comb(ell, 2))
    return _close_index_sums(by_s, n, 0)


def _nested_inner_numerator(n: int, k: int) -> LaurentPoly:
    """Numerator over (q;q)_n^4 of the inner (m,l) sum at fixed k, from scratch.

    The (m, l) term is (-1)^(m+l) q^e (q;q)_{3n-s-1} (q;q)_n T_m T_l T_{n-k-l}
    T_{n-m-l}, with s = k + m + l.  Assembled like _grouped_sum_numerator:
    (q;q)_n T_m once per m, then T_l, T_{n-k-l}, T_{n-m-l} per term, the sign
    and (q;q)_{3n-s-1} once per s.  No division, no walker, plain +/-.
    """
    by_s = [LaurentPoly.zero()] * (2 * n + 1)
    for m in range(n + 1):
        head_m = _times_qq_range(qq(n), m + 1, n)
        base_e = m * (n - k) + comb(m, 2)
        for ell in range(n - max(k, m) + 1):
            u = _times_qq_range(head_m, ell + 1, n)
            u = _times_qq_range(u, n - k - ell + 1, n)
            u = _times_qq_range(u, n - m - ell + 1, n)
            by_s[k + m + ell] += u.shifted(base_e + comb(ell, 2))
    return _close_index_sums(by_s, n, k)


def _close_index_sums(by_s, n: int, parity: int) -> LaurentPoly:
    """sum over s of (-1)^(s + parity) * (q;q)_{3n-s-1} * by_s[s], with plain +/-."""
    acc = LaurentPoly.zero()
    for s, part in enumerate(by_s):
        term = _times_qq_range(part, 1, 3 * n - s - 1)
        acc = acc - term if (s + parity) % 2 else acc + term
    return acc


def conclusion_chain(n: int):
    """Verify the eight steps that close the proof of the main identity."""
    _require_positive(n)
    reports = []
    den5 = qq(n) ** 5

    # (a) flat triple sum == outer-k sum of inner double sums
    t0 = time.perf_counter()
    flat = _triple_sum_numerator(n, 1, 0)
    nested = LaurentPoly.zero()
    for k in range(n + 1):
        outer = _times_qq_range(
            _nested_inner_numerator(n, k), k + 1, n
        ).shifted(k * n + comb(k, 2))
        nested = nested - outer if k % 2 else nested + outer
    reports.append(
        _timed_report("conclusion-group-by-k", n, None, flat == nested,
                      "triple sum numerator", "nested sum numerator", t0)
    )

    # (b) replacing k by n-k leaves the outer sum unchanged
    t0 = time.perf_counter()
    reindexed = LaurentPoly.zero()
    for k in range(n + 1):
        outer = _times_qq_range(
            _inner_sum_numerator(n, k), n - k + 1, n
        ).shifted((n - k) * n + comb(n - k, 2))
        reindexed = reindexed - outer if (n - k) % 2 else reindexed + outer
    reports.append(
        _timed_report("conclusion-reindex-outer", n, None, nested == reindexed,
                      "nested sum numerator", "reindexed sum numerator", t0)
    )

    # (c) substituting the inner sum's closed form
    t0 = time.perf_counter()
    den4 = qq(n) ** 4
    plugged = LaurentPoly.zero()
    for k in range(n + 1):
        closed = inner_sum_rhs_poly(n, k) * den4
        outer = _times_qq_range(closed, n - k + 1, n).shifted(
            (n - k) * n + comb(n - k, 2)
        )
        plugged = plugged - outer if (n - k) % 2 else plugged + outer
    reports.append(
        _timed_report("conclusion-plug-closed-form", n, None, reindexed == plugged,
                      "reindexed sum numerator", "substituted sum numerator", t0)
    )

    # (d) dividing by q^(2n^2 + C(n,2)) gives the single k-sum
    t0 = time.perf_counter()
    single_num = LaurentPoly.zero()
    for k in range(n + 1):
        term = _times_qq_range(poch_power(k + 1, n - 1), n - k + 1, n).shifted(
            comb(n - k, 2)
        )
        single_num = single_num - term if k % 2 else single_num + term
    shift = 2 * n * n + comb(n, 2)
    lhs_d = RationalFunctionQ(plugged, den5.shifted(shift))
    rhs_d = RationalFunctionQ(single_num, qq(n))
    reports.append(
        _timed_report("conclusion-normalize-power", n, None, lhs_d == rhs_d,
                      lhs_d.to_json_dict(), rhs_d.to_json_dict(), t0)
    )

    # (e) Pochhammer rewrite pulls out (q;q)_{n-1}
    t0 = time.perf_counter()
    rewrites_ok = all(
        RationalFunctionQ(poch_power(k + 1, n - 1))
        == RationalFunctionQ(qq(n - 1) * poch_power(n, k), qq(k))
        for k in range(n + 1)
    )
    ksum_num = LaurentPoly.zero()
    for k in range(n + 1):
        term = poch_power(n, k)
        term = _times_qq_range(term, k + 1, n)
        term = _times_qq_range(term, n - k + 1, n).shifted(comb(n - k, 2))
        ksum_num = ksum_num - term if k % 2 else ksum_num + term
    pulled = RationalFunctionQ(qq(n - 1) * ksum_num, qq(n) ** 2)
    reports.append(
        _timed_report("conclusion-pochhammer-split", n, None,
                      rewrites_ok and pulled == rhs_d,
                      pulled.to_json_dict(), rhs_d.to_json_dict(), t0)
    )

    # (f) the k-sum is the coefficient of x^n in the product series
    t0 = time.perf_counter()
    bracket1 = qbinom_series(n, n).alternate_x()
    bracket2 = euler_series(0, n).alternate_x()
    product = bracket1 * bracket2
    coeff = series_coeff(product, n)
    ksum = RationalFunctionQ(ksum_num, qq(n) ** 2)
    reports.append(
        _timed_report("conclusion-coefficient-extraction", n, None, coeff == ksum,
                      coeff.to_json_dict(), ksum.to_json_dict(), t0)
    )

    # (g) the product telescopes to the single series with base -q^n
    t0 = time.perf_counter()
    telescoped = euler_series(n, n).alternate_x()
    reports.append(
        _timed_report("conclusion-telescoped-series", n, None, product == telescoped,
                      "bracket product coefficients", "telescoped coefficients", t0)
    )

    # (h) final exponent bookkeeping
    t0 = time.perf_counter()
    l_exp = n * n + comb(n, 2)
    r_exp = 2 * n * n - n - comb(n, 2)
    reports.append(
        _timed_report("conclusion-exponent-identity", n, None, l_exp == r_exp,
                      l_exp, r_exp, t0)
    )
    return reports
