"""References and proof checks that the tests compare the package against.

None of this runs under a whitdim command, so it lives with the tests:

- the lemma checks gaussian_cancellation_check (with the block constants it
  assembles u - I from), extended_inner_sum_matches and poch_rewrite_check;
- the truncated series references: TruncatedSeriesX (numerators over
  (q;q)_j, with alternate_x), euler_series and qbinom_series (the
  classical expansions, Laurent numerators allowed), and
  series_product_bounds (the l1 bounds on a product's numerators); the
  Euler-series reference euler_product_truncation, with the plain helpers
  truncated, series_coeffs and scale_x;
- rank, Gaussian elimination from scratch: the rank reference that the
  package's one row reduction, kernels._insert, is checked against;
- random_matrix and random_invertible for the randomised rank tests, and
  the plain matrix product matmul and trace that the rank tests use;
- fresh_table_cache, which gives a test that patches the counting kernel
  a table cache of its own.
  A matrix over GF(q) is a list of rows of element indices, and each of
  these takes its field as its first argument;
- poly_add, degree and coeff, the sum, degree and coefficient of Laurent
  polynomials, which the package does not use, and poly_pow, the power
  of a Laurent polynomial by repeated squaring, for the dense (q;q)_n^p of
  the per-term references;
- eval_at, the exact value of a Laurent polynomial or a rational function
  at a rational point, for comparing q-polynomial results with integers;
- gcd_fraction, the reference canonical form of num / den for any nonzero
  den, by a primitive polynomial gcd (poly_gcd, with pseudo_rem) and exact
  long division (poly_exact_div, exact_long_division); the package reduces
  only over q^shift and (q;q) factors, by cancelling cyclotomic factors, so
  the two reductions share no code.  frac_add, frac_mul, frac_neg and frac_div
  are the fraction arithmetic the lemma checks and tests need, each through it;
- the LaurentPoly triple-sum oracle nested_triple_numerator, the loops of
  the package's packed oracle on LaurentPoly values, with its Gaussian
  binomials from the LaurentPoly q-Pascal table gaussian_binomial: the
  reference that the packed oracle's decoded value is compared against;
- the k-outer triple-sum reference k_outer_triple_numerator, with its inner
  sums nested_inner_numerator and their closing close_index_sums: an
  O(n^4) build of the triple sum in another loop order, with another
  closing, that the package's oracle is compared against;
- times_qq_range, the product by (1 - q^lo) ... (1 - q^hi) by sparse
  LaurentPoly passes, for the references above;
- the series arithmetic the tests need: packed_product (the package's
  packed_series_product on packed numerators, decoded, Laurent numerators
  allowed), its
  LaurentPoly reference series_mul (the q-binomial convolution on
  LaurentPoly values) and series_coeff (one coefficient as a canonical
  rational function);
- triple_l1_bound and inner_l1_bound, the walkers' coefficient bounds
  recomputed term by term, each factor multiplied out on its own, and
  side_l1_bound, the bound on a closed side times its denominator.

Two fault-injection tests patch names these checks read, so the checks look
them up at call time: extended_inner_sum_matches reads
engine.inner_sum_rhs_poly through the module, and gaussian_cancellation_check
reads block_constant as a global of this module.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import comb, gcd
from operator import mul, sub

from whitdim import counting, engine
from whitdim.gfield import GFq, gf
from whitdim.laurent import LaurentPoly, l1, pack, packed_width, unpack
from whitdim.qseries import packed_series_product, poch_power, qq
from whitdim.rational import RationalFunctionQ


# ---------------------------------------------------------------------------
# sums, degrees, coefficients, powers and values of Laurent polynomials and
# rational functions
# ---------------------------------------------------------------------------

ZERO = LaurentPoly()


def poly_add(*polys: LaurentPoly) -> LaurentPoly:
    """The sum of LaurentPolys, as differences: the package's LaurentPoly
    subtracts but does not add."""
    out = ZERO
    for p in polys:
        out = out - (-p)
    return out


def degree(p: LaurentPoly) -> int:
    """The exponent of p's leading term; ValueError for the zero polynomial."""
    if not p.coeffs:
        raise ValueError("zero polynomial has no degree")
    return p.min_exp + len(p.coeffs) - 1


def coeff(p: LaurentPoly, exp: int) -> int:
    """The coefficient of q^exp in p."""
    i = exp - p.min_exp
    return p.coeffs[i] if 0 <= i < len(p.coeffs) else 0



def poly_pow(p: LaurentPoly, e: int) -> LaurentPoly:
    """p ** e for e >= 0, by repeated squaring."""
    if e < 0:
        raise ValueError("negative power of a Laurent polynomial")
    result = LaurentPoly.one()
    while e:
        if e & 1:
            result = result * p
        e >>= 1
        if e:  # no square past the top bit
            p = p * p
    return result


def eval_at(f, x) -> Fraction:
    """The exact value of a LaurentPoly or RationalFunctionQ at a rational x.

    A polynomial is evaluated by Horner's rule over its coefficient window; a
    rational function raises ZeroDivisionError at a pole.
    """
    if isinstance(f, RationalFunctionQ):
        d = eval_at(f.den, x)
        if d == 0:
            raise ZeroDivisionError("pole of rational function at q = %s" % (x,))
        return eval_at(f.num, x) / d
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    if f.min_exp:
        acc *= x ** f.min_exp
    return acc


# ---------------------------------------------------------------------------
# the reference canonical form: a primitive polynomial gcd
# ---------------------------------------------------------------------------


def content(p: LaurentPoly) -> int:
    """gcd of all coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p.coeffs:
        g = gcd(g, c)
    return g


def exact_long_division(a, b):
    """Quotient coefficients of a / b (lowest first) if b divides a over the
    integers, else None.  Each step's leading ratio is a quotient coefficient,
    so the first one that is not an integer rules the division out, as does a
    nonzero remainder."""
    lb = len(b)
    a = list(a)
    lead = b[-1]
    quo = [0] * (len(a) - lb + 1)
    for i in range(len(a) - lb, -1, -1):
        top = a[i + lb - 1]
        if not top:
            continue
        c, r = divmod(top, lead)
        if r:
            return None
        quo[i] = c
        a[i : i + lb] = map(sub, a[i : i + lb], map(mul, b, repeat(c, lb)))
    return None if any(a[: lb - 1]) else quo


def poly_exact_div(num: LaurentPoly, den: LaurentPoly):
    """num / den when the division is exact over the integers, else None."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return ZERO
    shift = num.min_exp - den.min_exp
    if shift < 0:
        return None
    if den.coeffs in ((1,), (-1,)):
        # den = +-q^d: the quotient is num shifted, no long division needed
        return (num if den.coeffs[0] == 1 else -num).shifted(-den.min_exp)
    quo = exact_long_division(num.coeffs, den.coeffs)
    return None if quo is None else LaurentPoly(shift, quo)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Primitive gcd with positive leading coefficient.

    Computed by a primitive pseudo-remainder sequence: each remainder is taken
    over the rationals (realized with integer pseudo-division) and immediately
    rescaled to a primitive integer polynomial, so coefficients stay bounded.
    The shared q-power factor is min(min_exp) since normalized coefficient
    windows always have a nonzero constant term.
    """
    parts = [p for p in (a, b) if p.coeffs]
    if not parts:
        return ZERO
    shift = min(p.min_exp for p in parts)
    f = list(a.coeffs)
    g = list(b.coeffs)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f = _primitive(f)
        g = _primitive(g)
        r = pseudo_rem(f, g)
        f, g = g, _strip(r)
    f = _primitive(f)
    if f[-1] < 0:
        f = [-c for c in f]
    return LaurentPoly(shift, f)


def _strip(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _primitive(cs):
    g = 0
    for c in cs:
        g = gcd(g, c)
    if g > 1:
        return [c // g for c in cs]
    return cs


def pseudo_rem(f, g):
    """Pseudo-remainder of f by g (coefficient lists, g nonzero)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        if f[-1] == 0:
            f.pop()
            continue
        lf = f[-1]
        shift = len(f) - 1 - dg
        if lg != 1:
            f = list(map(mul, f, repeat(lg, len(f))))
        f[shift:] = map(sub, f[shift:], map(mul, g, repeat(lf, dg + 1)))
        f = _strip(f)
        if not f:
            break
    return f


def gcd_fraction(num, den=1) -> RationalFunctionQ:
    """num / den in canonical form for any nonzero den (ints are constants).

    The reference for RationalFunctionQ's reduction: clear negative powers
    of q from both parts, cancel the primitive gcd (a quotient that is a
    polynomial needs no gcd), divide out the joint content and make the
    denominator's leading coefficient positive.  The value it returns is a
    RationalFunctionQ, so it compares, prints and serialises like one.
    """
    if isinstance(num, int):
        num = LaurentPoly(0, (num,))
    if isinstance(den, int):
        den = LaurentPoly(0, (den,))
    if den.is_zero:
        raise ZeroDivisionError("zero denominator in rational function")
    if num.is_zero:
        num, den = ZERO, LaurentPoly.one()
    else:
        shift = min(num.min_exp, den.min_exp)
        num, den = num.shifted(-shift), den.shifted(-shift)
        quo = poly_exact_div(num, den)
        if quo is not None:
            num, den = quo, LaurentPoly.one()
        else:
            g = poly_gcd(num, den)
            num, den = poly_exact_div(num, g), poly_exact_div(den, g)
            if num is None or den is None:
                raise AssertionError("primitive gcd failed to divide exactly")
        c = gcd(content(num), content(den))
        if c > 1:
            num = LaurentPoly(num.min_exp, [x // c for x in num.coeffs])
            den = LaurentPoly(den.min_exp, [x // c for x in den.coeffs])
        if den.leading_coeff < 0:
            num, den = -num, -den
    out = object.__new__(RationalFunctionQ)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def frac_add(a: RationalFunctionQ, b: RationalFunctionQ) -> RationalFunctionQ:
    return gcd_fraction(poly_add(a.num * b.den, b.num * a.den), a.den * b.den)


def frac_mul(a: RationalFunctionQ, b: RationalFunctionQ) -> RationalFunctionQ:
    return gcd_fraction(a.num * b.num, a.den * b.den)


def frac_neg(a: RationalFunctionQ) -> RationalFunctionQ:
    return gcd_fraction(-a.num, a.den)


def frac_div(a: RationalFunctionQ, b: RationalFunctionQ) -> RationalFunctionQ:
    if b.num.is_zero:
        raise ZeroDivisionError("division by the zero rational function")
    return gcd_fraction(a.num * b.den, a.den * b.num)


# ---------------------------------------------------------------------------
# matrices over GF(q)
# ---------------------------------------------------------------------------


def rank(field: GFq, rows) -> int:
    """The rank of a matrix given as a list of rows, by Gaussian elimination.

    It works on a copy of the rows, and shares no code with the package's
    one row reduction, kernels._insert.
    """
    rows = [list(r) for r in rows]
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
    r = 0
    nrows = len(rows)
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), -1)
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pinv = inv[prow[c]]
        for row in rows[r + 1:]:
            if row[c]:
                fac = mul[row[c]][pinv]
                row[c:] = [sub[a][mul[fac][b]] for a, b in zip(row[c:], prow[c:])]
        r += 1
    return r


def matmul(field: GFq, a, b):
    """The matrix product a * b of two lists of rows."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("incompatible shapes for matrix product")
    add, mul = field.add_table, field.mul_table
    out = []
    for ai in a:
        out_row = []
        for col in zip(*b):
            acc = 0
            for x, y in zip(ai, col):
                acc = add[acc][mul[x][y]]
            out_row.append(acc)
        out.append(out_row)
    return out


def trace(field: GFq, m) -> int:
    """The sum of the diagonal entries of a square list of rows."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("trace of a non-square matrix")
    acc = 0
    for i, row in enumerate(m):
        acc = field.add_table[acc][row[i]]
    return acc


def fresh_table_cache(monkeypatch):
    """Give counting a table cache of the calling test's own, so no table
    counted by a patched or spied kernel outlives the test."""
    monkeypatch.setattr(counting, "_rank_trace_counts",
                        lru_cache(maxsize=None)(counting._rank_trace_counts.__wrapped__))


def random_matrix(field: GFq, rows: int, cols: int, rng):
    return [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)]


def random_invertible(field: GFq, n: int, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if rank(field, m) == n:
            return m


# ---------------------------------------------------------------------------
# Gaussian cancellation on the Y block
# ---------------------------------------------------------------------------


def block_constant(field: GFq, kind: str, *, n: int, k: int = None, m: int = None, l: int = None):
    """The block constants used by the rank-and-trace decomposition, as lists of rows.

    kind "I_kn": identity block of size k in the top-left of an n x n zero matrix.
    kind "I_nm": identity block of size m in the bottom-right.
    kind "I_klm": identity block of size l at rows k..k+l-1, columns 0..l-1,
    the trailing m columns of those rows staying zero; needs k + l <= n and
    l + m <= n (both hold for every l <= n - max(k, m)).
    """
    if kind == "I_kn":
        if k is None or not 0 <= k <= n:
            raise ValueError("I_kn needs 0 <= k <= n")
        return [[1 if i == j and i < k else 0 for j in range(n)] for i in range(n)]
    if kind == "I_nm":
        if m is None or not 0 <= m <= n:
            raise ValueError("I_nm needs 0 <= m <= n")
        return [[1 if i == j and i >= n - m else 0 for j in range(n)] for i in range(n)]
    if kind == "I_klm":
        if (
            k is None or l is None or m is None
            or min(k, l, m) < 0 or k + l > n or l + m > n
        ):
            raise ValueError("I_klm needs k, l, m >= 0 with k + l <= n and l + m <= n")
        return [[1 if k <= i < k + l and j == i - k else 0 for j in range(n)] for i in range(n)]
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
                rows[i][n + j] = ikn[i][j]
                rows[i][2 * n + j] = yblock_rows[i][j]
                rows[n + i][2 * n + j] = inm[i][j]
        return rows

    for entries in candidates:
        y = [entries[i * n : (i + 1) * n] for i in range(n)]
        work = assemble(y)
        r0 = rank(field, work)

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
        ell = rank(field, corner)
        if rank(field, work) != r0 or r0 != k + m + ell:
            return False

        canonical = assemble(block_constant(field, "I_klm", n=n, k=k, l=ell, m=m))
        if rank(field, canonical) != r0:
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
        return gcd_fraction(num, qq(m) * qq(ell) * qq(n - m - ell))

    restricted = extended = gcd_fraction(0)
    for m in range(n + 1):
        for ell in range(n - m + 1):
            t = term(m, ell)
            extended = frac_add(extended, t)
            if ell <= min(k, n - m):
                restricted = frac_add(restricted, t)
    closed = frac_mul(restricted, gcd_fraction(qq(n) * poch_power(k + 1, n - 1)))
    rhs = gcd_fraction(engine.inner_sum_rhs_poly(n, k))
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

    lhs1 = gcd_fraction(qq(2 * n + k - ell - m - 1), qq(k - ell))
    rhs1_num = (
        poch_power(-k, ell)
        * poch_power(k + 1, 2 * n - ell - m - 1)
    ).shifted(k * ell - ell * (ell - 1) // 2)
    if ell % 2:
        rhs1_num = -rhs1_num
    ok1 = lhs1 == gcd_fraction(rhs1_num)

    ok2 = poch_power(k + 1, 2 * n - ell - m - 1) == poch_power(k + 1, n - 1) * poch_power(k + n, n - m - ell)

    ok3 = gcd_fraction(poch_power(k + 1, n - 1)) == gcd_fraction(
        qq(n - 1) * poch_power(n, k), qq(k)
    )
    return ok1, ok2, ok3


# ---------------------------------------------------------------------------
# the Euler-series reference and its plain helpers
# ---------------------------------------------------------------------------


def truncated(poly: LaurentPoly, max_degree: int) -> LaurentPoly:
    """poly with all terms of degree > max_degree dropped."""
    if not poly.coeffs or degree(poly) <= max_degree:
        return poly
    keep = max_degree - poly.min_exp + 1
    if keep <= 0:
        return ZERO
    return LaurentPoly(poly.min_exp, poly.coeffs[:keep])


def series_coeffs(rf: RationalFunctionQ, order: int):
    """Taylor coefficients of rf around q = 0, as Fractions, up to q**order."""
    if rf.den.min_exp > 0:
        raise ZeroDivisionError("pole at q = 0; no Taylor expansion")
    d0 = rf.den.coeffs[0]
    dcs = rf.den.coeffs
    out = []
    for t in range(order + 1):
        acc = Fraction(coeff(rf.num, t))
        for i in range(1, min(t, len(dcs) - 1) + 1):
            acc -= dcs[i] * out[t - i]
        out.append(acc / d0)
    return out


class TruncatedSeriesX:
    """Formal power series in x up to x**order, Eulerian-normalised: nums[j]
    is the integer Laurent numerator of the x^j coefficient over the fixed
    denominator (q;q)_j, so equal numerators mean equal series."""

    __slots__ = ("order", "nums")

    def __init__(self, nums):
        self.nums = tuple(nums)
        self.order = len(self.nums) - 1

    def alternate_x(self) -> "TruncatedSeriesX":
        """Substitute x -> -x."""
        return TruncatedSeriesX((-num if j % 2 else num) for j, num in enumerate(self.nums))


def euler_series(e: int, order: int) -> TruncatedSeriesX:
    """(q^e x ; q)_inf as a truncated series: coeff_j = (-1)^j q^(C(j,2)+e*j)/(q;q)_j."""
    return TruncatedSeriesX(LaurentPoly.monomial(comb(j, 2) + e * j, -1 if j % 2 else 1)
                            for j in range(order + 1))


def qbinom_series(a_exp: int, order: int) -> TruncatedSeriesX:
    """(q^a_exp x;q)_inf / (x;q)_inf: coeff_j = (q^a_exp;q)_j / (q;q)_j.
    Negative a_exp is allowed: the numerators are then Laurent polynomials."""
    return TruncatedSeriesX(poch_power(a_exp, j) for j in range(order + 1))


def series_product_bounds(f: TruncatedSeriesX, g: TruncatedSeriesX) -> list:
    """Bounds on the coefficients of the numerators h_t of f * g, for t up
    to the lower order: sum_i C(t, i) ||f_i||_1 ||g_(t-i)||_1."""
    fl, gl = [l1(num) for num in f.nums], [l1(num) for num in g.nums]
    return [sum(comb(t, i) * fl[i] * gl[t - i] for i in range(t + 1))
            for t in range(min(f.order, g.order) + 1)]


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
    coeffs = [LaurentPoly.one()] + [ZERO] * order
    for k in range(max_q_degree + 1):
        for j in range(min(order, k + 1), 0, -1):
            coeffs[j] = truncated(coeffs[j] - coeffs[j - 1].shifted(k), max_q_degree)
    return coeffs


# ---------------------------------------------------------------------------
# LaurentPoly references of the q-Pascal table, the series product and the
# triple-sum oracle
# ---------------------------------------------------------------------------


def times_qq_range(poly: LaurentPoly, lo: int, hi: int) -> LaurentPoly:
    """poly * prod_{i=lo..hi} (1 - q^i), by sparse passes."""
    for i in range(lo, hi + 1):
        poly = poly.times_one_minus_q(i)
    return poly


_QBINOM = {}  # (t, i) -> gaussian_binomial(t, i), for 0 < i < t


def gaussian_binomial(t: int, i: int) -> LaurentPoly:
    """The Gaussian binomial [t, i]_q as a LaurentPoly, cached: the q-Pascal
    rule [t, i] = [t-1, i-1] + q^i [t-1, i] from [0, 0] = 1, filled row by
    row in a loop; zero for i < 0 or i > t."""
    if i < 0 or i > t:
        return ZERO
    if i == 0 or i == t:
        return LaurentPoly.one()
    if (t, i) not in _QBINOM:
        for row in range(2, t + 1):
            for col in range(max(1, i - t + row), min(i, row - 1) + 1):
                if (row, col) not in _QBINOM:
                    _QBINOM[row, col] = poly_add(gaussian_binomial(row - 1, col - 1),
                                                 gaussian_binomial(row - 1, col).shifted(col))
    return _QBINOM[t, i]


def series_mul(a: TruncatedSeriesX, b: TruncatedSeriesX) -> TruncatedSeriesX:
    """The Cauchy product as a q-binomial convolution of the numerators,
    h_t = sum_i [t, i]_q a_i b_(t-i), on LaurentPoly values (Laurent
    numerators allowed), to the lower order."""
    order = min(a.order, b.order)
    out = []
    for t in range(order + 1):
        acc = ZERO
        for i in range(t + 1):
            acc = poly_add(acc, gaussian_binomial(t, i) * a.nums[i] * b.nums[t - i])
        out.append(acc)
    return TruncatedSeriesX(out)


def packed_product(a: TruncatedSeriesX, b: TruncatedSeriesX) -> TruncatedSeriesX:
    """a * b by the package's packed_series_product, decoded: at the width
    that fits series_product_bounds(a, b), with Laurent numerators first
    shifted into polynomials (a's by q^sa, b's by q^sb, which shifts the
    product by q^(sa + sb)) and the decoded product shifted back."""
    sa = max([0] + [-num.min_exp for num in a.nums if num.coeffs])
    sb = max([0] + [-num.min_exp for num in b.nums if num.coeffs])
    a = TruncatedSeriesX(num.shifted(sa) for num in a.nums)
    b = TruncatedSeriesX(num.shifted(sb) for num in b.nums)
    bounds = series_product_bounds(a, b)
    width = packed_width(max(bounds))
    product = packed_series_product([pack(num, width) for num in a.nums],
                                    [pack(num, width) for num in b.nums], width)
    return TruncatedSeriesX(unpack(h, width, bound).shifted(-sa - sb)
                            for h, bound in zip(product, bounds))


def series_coeff(series: TruncatedSeriesX, j: int) -> RationalFunctionQ:
    """The x^j coefficient nums[j] / (q;q)_j, canonicalised."""
    if not 0 <= j <= series.order:
        raise IndexError("coefficient index %d beyond truncation order %d" % (j, series.order))
    return RationalFunctionQ(series.nums[j], (j,))


def nested_triple_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (k, m, l) triple sum: the loops of
    the package's oracle engine._packed_nested_triple on LaurentPoly values.

    Per (m, l), u starts at [n, m]_q [n-m, l]_q T_(n-l), and each step up
    in k multiplies in (1 - q^(n-k-l+1)); the shifted u is summed per
    (s, k), the buckets are folded with their T_k per s, each fold is
    multiplied by (q;q)_(3n-s-1) and added with the sign (-1)^s, and the
    total by (q;q)_n^3.  Plain +/-, no packing and no division.
    """
    by_sk = [[ZERO] * (n + 1) for _ in range(2 * n + 1)]
    for ell in range(n + 1):
        top = n - ell
        for m in range(top + 1):
            u = gaussian_binomial(n, m) * gaussian_binomial(n - m, ell)
            u = times_qq_range(u, top + 1, n)
            for k in range(top + 1):
                if k:
                    u = u.times_one_minus_q(top - k + 1)
                e = k * n + comb(k, 2) + m * (n - k) + comb(m, 2) + comb(ell, 2)
                row = by_sk[k + m + ell]
                row[k] = poly_add(row[k], u.shifted(e))
    nested = ZERO
    for s, row in enumerate(by_sk):
        part = ZERO
        for k, bucket in enumerate(row):
            if k:
                part = part.times_one_minus_q(k)
            part = poly_add(part, bucket)
        part = times_qq_range(part, 1, 3 * n - s - 1)
        nested = nested - part if s % 2 else poly_add(nested, part)
    for _ in range(3):
        nested = times_qq_range(nested, 1, n)
    return nested


# ---------------------------------------------------------------------------
# the k-outer reference of the triple-sum oracle
# ---------------------------------------------------------------------------


def nested_inner_numerator(n: int, k: int) -> LaurentPoly:
    """Numerator over (q;q)_n^4 of the inner (m,l) sum at fixed k, from scratch.

    The (m, l) term is (-1)^(m+l) q^e (q;q)_{3n-s-1} (q;q)_n T_m T_l T_{n-k-l}
    T_{n-m-l}, with s = k + m + l.  (q;q)_n T_l T_{n-k-l} is built once per
    l, then T_m, T_{n-m-l} per term; the sign and (q;q)_{3n-s-1} are applied
    once per s.  No division, no walker, plain +/-.
    """
    by_s = [ZERO] * (2 * n + 1)
    for ell in range(n - k + 1):
        head_l = times_qq_range(qq(n), ell + 1, n)
        head_l = times_qq_range(head_l, n - k - ell + 1, n)
        for m in range(n - ell + 1):
            u = times_qq_range(head_l, m + 1, n)
            u = times_qq_range(u, n - m - ell + 1, n)
            e = m * (n - k) + comb(m, 2) + comb(ell, 2)
            by_s[k + m + ell] = poly_add(by_s[k + m + ell], u.shifted(e))
    return close_index_sums(by_s, n, k)


def k_outer_triple_numerator(n: int) -> LaurentPoly:
    """Numerator over (q;q)_n^5 of the (k, m, l) triple sum, from scratch.

    The outer-k sum of (-1)^k q^(kn + C(k,2)) T_k times the inner (m, l) sum
    nested_inner_numerator(n, k).  Each term is rebuilt from (q;q)_n, n + l
    sparse passes, so the sum costs O(n^4) passes.
    """
    nested = ZERO
    for k in range(n + 1):
        outer = times_qq_range(
            nested_inner_numerator(n, k), k + 1, n
        ).shifted(k * n + comb(k, 2))
        nested = nested - outer if k % 2 else poly_add(nested, outer)
    return nested


def close_index_sums(by_s, n: int, parity: int) -> LaurentPoly:
    """sum over s of (-1)^(s + parity) * (q;q)_{3n-s-1} * by_s[s], with plain +/-."""
    acc = ZERO
    for s, part in enumerate(by_s):
        term = times_qq_range(part, 1, 3 * n - s - 1)
        acc = acc - term if (s + parity) % 2 else poly_add(acc, term)
    return acc


# ---------------------------------------------------------------------------
# the walkers' coefficient bounds, from scratch
# ---------------------------------------------------------------------------


def _l1_of_factors(exponents) -> int:
    """The l1 norm of prod over exponents i of (1 - q^i), multiplied out by
    generic products."""
    out = LaurentPoly.one()
    for i in exponents:
        out = out * (LaurentPoly.one() - LaurentPoly.monomial(i))
    return sum(abs(c) for c in out.coeffs)


def side_l1_bound(side: LaurentPoly, tops) -> int:
    """The l1 norm of side times those of the (q;q)_top for top in tops,
    each factor multiplied out on its own."""
    bound = sum(abs(c) for c in side.coeffs)
    for top in tops:
        bound *= _l1_of_factors(range(1, top + 1))
    return bound


def triple_l1_bound(n: int) -> int:
    """Sum over every (k, m, l) term of the triple sum of the l1 norms of
    its factors (q;q)_{3n-s-1}, (q;q)_n and T_k T_m T_l T_{n-k-l} T_{n-m-l},
    T_j = prod_{i=j+1..n} (1 - q^i), each factor built on its own."""
    def tail(j):
        return _l1_of_factors(range(j + 1, n + 1))

    bound = 0
    for k in range(n + 1):
        for m in range(n + 1):
            for ell in range(n - max(k, m) + 1):
                bound += (
                    _l1_of_factors(range(1, 3 * n - k - m - ell))
                    * _l1_of_factors(range(1, n + 1))
                    * tail(k) * tail(m) * tail(ell) * tail(n - k - ell) * tail(n - m - ell)
                )
    return bound


def inner_l1_bound(n: int, k: int) -> int:
    """Sum over every (m, l) term of the inner sum at k of the l1 norms of
    its factors (q;q)_{2n+k-s-1}, T_m T_l T_{n-m-l} and (q;q)_k / (q;q)_{k-l},
    each factor built on its own."""
    def tail(j):
        return _l1_of_factors(range(j + 1, n + 1))

    bound = 0
    for m in range(n + 1):
        for ell in range(min(k, n - m) + 1):
            bound += (
                _l1_of_factors(range(1, 2 * n + k - m - ell))
                * tail(m) * tail(ell) * tail(n - m - ell)
                * _l1_of_factors(range(k - ell + 1, k + 1))
            )
    return bound
