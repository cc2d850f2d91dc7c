"""References and proof checks that the tests compare the package against.

None of this runs under a whitdim command, so it lives with the tests:

- the lemma checks gaussian_cancellation_check (with the block constants it
  assembles u - I from), extended_inner_sum_matches and poch_rewrite_check;
- the Euler-series reference euler_product_truncation, with the plain
  helpers truncated, series_coeffs and scale_x;
- random_matrix and random_invertible for the randomised rank tests.

Two fault-injection tests patch names these checks read, so the checks look
them up at call time: extended_inner_sum_matches reads
engine.inner_sum_rhs_poly through the module, and gaussian_cancellation_check
reads block_constant as a global of this module.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb

from whitdim import engine
from whitdim.gfield import GFMatrix, GFq, gf
from whitdim.laurent import LaurentPoly
from whitdim.qseries import TruncatedSeriesX, poch_power, qq
from whitdim.rational import RationalFunctionQ


# ---------------------------------------------------------------------------
# random matrices over GF(q)
# ---------------------------------------------------------------------------


def random_matrix(field: GFq, rows: int, cols: int, rng) -> GFMatrix:
    return GFMatrix(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


def random_invertible(field: GFq, n: int, rng) -> GFMatrix:
    while True:
        m = random_matrix(field, n, n, rng)
        if m.rank() == n:
            return m


# ---------------------------------------------------------------------------
# Gaussian cancellation on the Y block
# ---------------------------------------------------------------------------


def block_constant(field: GFq, kind: str, *, n: int, k: int = None, m: int = None, l: int = None) -> GFMatrix:
    """The block constants used by the rank-and-trace decomposition.

    kind "I_kn": identity block of size k in the top-left of an n x n zero matrix.
    kind "I_nm": identity block of size m in the bottom-right.
    kind "I_klm": identity block of size l at rows k..k+l-1, columns 0..l-1,
    the trailing m columns of those rows staying zero; needs k + l <= n and
    l + m <= n (both hold for every l <= n - max(k, m)).
    """
    if kind == "I_kn":
        if k is None or not 0 <= k <= n:
            raise ValueError("I_kn needs 0 <= k <= n")
        return GFMatrix(field, n, n, [1 if i == j and i < k else 0 for i in range(n) for j in range(n)])
    if kind == "I_nm":
        if m is None or not 0 <= m <= n:
            raise ValueError("I_nm needs 0 <= m <= n")
        return GFMatrix(
            field, n, n,
            [1 if i == j and i >= n - m else 0 for i in range(n) for j in range(n)],
        )
    if kind == "I_klm":
        if (
            k is None or l is None or m is None
            or min(k, l, m) < 0 or k + l > n or l + m > n
        ):
            raise ValueError("I_klm needs k, l, m >= 0 with k + l <= n and l + m <= n")
        return GFMatrix(
            field, n, n,
            [1 if k <= i < k + l and j == i - k else 0 for i in range(n) for j in range(n)],
        )
    raise ValueError("unknown block constant kind %r" % kind)


def gaussian_cancellation_check(n: int, q: int, k: int, m: int,
                                sample_count: int = 100, seed: int = 20259) -> bool:
    """Pivot cancellation on the Y block preserves rank and exposes l.

    For each sampled Y (exhaustive when q^(n^2) <= sample_count): build
    u - I with blocks I_{k,n}, Y, I_{n,m}; cancel the Y entries reachable from
    the I_{n,m} pivots (row operations) and the I_{k,n} pivots (column
    operations); check the rank is unchanged, the surviving corner is the
    (n-k) x (n-m) sub-block of Y, and that replacing the corner by the
    canonical rank block of its rank l again leaves the rank at k + m + l.
    """
    if n < 1 or not 0 <= k <= n or not 0 <= m <= n:
        raise ValueError("need n >= 1 and 0 <= k, m <= n")
    field = gf(q)
    sub, mul = field.sub_table, field.mul_table

    if q ** (n * n) <= sample_count:
        candidates = [list(entries) for entries in product(range(q), repeat=n * n)]
    else:
        rng = random.Random(seed)
        candidates = [
            [rng.randrange(q) for _ in range(n * n)] for _ in range(sample_count)
        ]

    ikn = block_constant(field, "I_kn", n=n, k=k)
    inm = block_constant(field, "I_nm", n=n, m=m)

    def assemble(yblock_rows):
        size = 3 * n
        rows = [[0] * size for _ in range(size)]
        for i in range(n):
            for j in range(n):
                rows[i][n + j] = ikn.entry(i, j)
                rows[i][2 * n + j] = yblock_rows[i][j]
                rows[n + i][2 * n + j] = inm.entry(i, j)
        return rows

    for entries in candidates:
        y = [entries[i * n : (i + 1) * n] for i in range(n)]
        work = assemble(y)
        r0 = GFMatrix.from_rows(field, work).rank()

        # row operations from the I_{n,m} pivots clear Y columns n-m..n-1
        for j in range(m):
            prow = n + (n - m) + j
            pcol = 2 * n + (n - m) + j
            for i in range(n):
                f0 = work[i][pcol]
                if f0:
                    work[i] = [sub[v][mul[f0][w]] for v, w in zip(work[i], work[prow])]
        # column operations from the I_{k,n} pivots clear Y rows 0..k-1
        for j in range(k):
            pcol = n + j
            for c in range(2 * n, 3 * n):
                f0 = work[j][c]
                if f0:
                    for i in range(3 * n):
                        work[i][c] = sub[work[i][c]][mul[f0][work[i][pcol]]]

        corner = [row[2 * n : 3 * n - m] for row in work[k:n]]
        expected = [y[i][: n - m] for i in range(k, n)]
        if corner != expected:
            return False
        for i in range(n):
            for j in range(n):
                survives = k <= i < n and j < n - m
                if not survives and work[i][2 * n + j] != 0:
                    return False
        ell = GFMatrix.from_rows(field, [r[:] for r in corner]).rank() if corner else 0
        if GFMatrix.from_rows(field, work).rank() != r0 or r0 != k + m + ell:
            return False

        canonical = assemble(block_constant(field, "I_klm", n=n, k=k, l=ell, m=m).to_rows())
        if GFMatrix.from_rows(field, canonical).rank() != r0:
            return False
    return True


# ---------------------------------------------------------------------------
# the inner sum's l-range extension and Pochhammer rewrites
# ---------------------------------------------------------------------------


def extended_inner_sum_matches(n: int, k: int) -> bool:
    """Extending the l-summation past l = k does not change the inner sum.

    Uses the rewritten summand whose l-factor carries (q^-k;q)_l, which
    vanishes for l > k; the restricted (l <= min(k, n-m)) and extended
    (l <= n-m) sums must agree exactly.  The restricted sum must also be the
    inner sum's closed form: restricted (q;q)_n (q^(k+1);q)_(n-1) equals
    engine.inner_sum_rhs_poly(n, k), so a wrong summand or l range that
    changes both sums alike is still caught.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
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
    closed = restricted * RationalFunctionQ(qq(n) * poch_power(k + 1, n - 1))
    rhs = RationalFunctionQ(engine.inner_sum_rhs_poly(n, k))
    return restricted == extended and closed == rhs


def poch_rewrite_check(n: int, k: int, m: int, ell: int):
    """Check the three Pochhammer rewrites used to evaluate the inner double sum.

    1. (q;q)_{2n+k-l-m-1} / (q;q)_{k-l}
         = (-1)^l (q^k)^l q^(-C(l,2)) (q^{-k};q)_l (q^{k+1};q)_{2n-l-m-1}
    2. (q^{k+1};q)_{2n-l-m-1} = (q^{k+1};q)_{n-1} * (q^{k+n};q)_{n-m-l}
    3. (q^{k+1};q)_{n-1} = (q;q)_{n-1} (q^n;q)_k / (q;q)_k

    Each is verified as exact equality of rational-function values; the result
    is the triple of truth values.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n or not 0 <= m <= n:
        raise ValueError("k and m must lie in 0..n")
    if not 0 <= ell <= min(k, n - m):
        raise ValueError("l must lie in 0..min(k, n-m)")

    lhs1 = RationalFunctionQ(qq(2 * n + k - ell - m - 1), qq(k - ell))
    rhs1_num = (
        poch_power(-k, ell)
        * poch_power(k + 1, 2 * n - ell - m - 1)
    ).shifted(k * ell - ell * (ell - 1) // 2)
    if ell % 2:
        rhs1_num = -rhs1_num
    ok1 = lhs1 == RationalFunctionQ(rhs1_num)

    ok2 = poch_power(k + 1, 2 * n - ell - m - 1) == poch_power(k + 1, n - 1) * poch_power(k + n, n - m - ell)

    ok3 = RationalFunctionQ(poch_power(k + 1, n - 1)) == RationalFunctionQ(
        qq(n - 1) * poch_power(n, k), qq(k)
    )
    return ok1, ok2, ok3


# ---------------------------------------------------------------------------
# the Euler-series reference and its plain helpers
# ---------------------------------------------------------------------------


def truncated(poly: LaurentPoly, max_degree: int) -> LaurentPoly:
    """poly with all terms of degree > max_degree dropped."""
    if not poly.coeffs or poly.degree <= max_degree:
        return poly
    keep = max_degree - poly.min_exp + 1
    if keep <= 0:
        return LaurentPoly.zero()
    return LaurentPoly(poly.min_exp, poly.coeffs[:keep])


def series_coeffs(rf: RationalFunctionQ, order: int):
    """Taylor coefficients of rf around q = 0, as Fractions, up to q**order."""
    if rf.den.min_exp > 0:
        raise ZeroDivisionError("pole at q = 0; no Taylor expansion")
    d0 = rf.den.coeffs[0]
    dcs = rf.den.coeffs
    out = []
    for t in range(order + 1):
        acc = Fraction(rf.num.coeff(t))
        for i in range(1, min(t, len(dcs) - 1) + 1):
            acc -= dcs[i] * out[t - i]
        out.append(acc / d0)
    return out


def scale_x(series: TruncatedSeriesX, e: int) -> TruncatedSeriesX:
    """series with x -> q^e * x substituted."""
    return TruncatedSeriesX(num.shifted(e * j) for j, num in enumerate(series.nums))


def euler_product_truncation(max_q_degree: int, order: int):
    """Bivariate truncation of prod_{k=0}^{max_q_degree} (1 - x q^k).

    Returns the x^0..x^order coefficients as integer polynomials in q, each
    trimmed to q-degree <= max_q_degree.  Factors with k > max_q_degree cannot
    contribute below that degree, so these coefficients agree with the full
    infinite product up to the trim.
    """
    coeffs = [LaurentPoly.one()] + [LaurentPoly.zero()] * order
    for k in range(max_q_degree + 1):
        for j in range(min(order, k + 1), 0, -1):
            coeffs[j] = truncated(coeffs[j] - coeffs[j - 1].shifted(k), max_q_degree)
    return coeffs
