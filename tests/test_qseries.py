import pytest

import whitdim.rational
from helpers import (
    TruncatedSeriesX,
    coeff,
    degree,
    euler_product_truncation,
    euler_series,
    eval_at,
    frac_add,
    frac_mul,
    gaussian_binomial,
    gcd_fraction,
    packed_product,
    poch_rewrite_check,
    poly_add,
    qbinom_series,
    scale_x,
    series_coeff,
    series_coeffs,
    series_product_bounds,
)
from whitdim.laurent import LaurentPoly, pack, packed_width, unpack
from whitdim.qseries import (
    euler_numerators,
    packed_qpascal,
    packed_series_product,
    poch_power,
    qbinom_numerators,
    qq,
)
from whitdim.rational import RationalFunctionQ as RF

Q = LaurentPoly.monomial
ONE = LaurentPoly.one()


class TestPochhammer:
    def test_empty_product(self):
        assert poch_power(1, 0) == ONE

    def test_two_factor_product(self):
        p = poch_power(1, 2)
        assert p == LaurentPoly(0, (1, -1, -1, 1))
        assert eval_at(p, 2) == 3
        assert poch_power(-2, 2) == (ONE - Q(-2)) * (ONE - Q(-1))

    def test_vanishing_at_negative_base(self):
        # (q^-1;q)_2 hits the factor 1 - q^0 = 0
        assert poch_power(-1, 2).is_zero

    def test_vanishing_family(self):
        for k in range(6):
            for ell in range(k + 1, 7):
                assert poch_power(-k, ell).is_zero, (k, ell)
            # and no earlier: (q^-k;q)_k is nonzero
            if k:
                assert not poch_power(-k, k).is_zero

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            poch_power(0, -1)

    def test_every_base_and_length_gives_the_product(self):
        # in any call order, against the factors multiplied out
        for base in range(-3, 5):
            for length in (5, 2, 8, 0, 3, 7, 1, 9, 6, 4):
                want = ONE
                for e in range(base, base + length):
                    want = want * (ONE - Q(e))
                assert poch_power(base, length) == want, (base, length)

    def test_long_products_do_not_recurse(self):
        # 3000 factors, past the default recursion limit, on a product that
        # vanishes at its third factor so it stays cheap
        import sys

        assert poch_power(-2, 3000).is_zero
        # a nonzero product built under a recursion limit 30 frames above
        # this one, against its factors multiplied out
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            got = poch_power(1, 60)
        finally:
            sys.setrecursionlimit(limit)
        want = ONE
        for e in range(1, 61):
            want = want.times_one_minus_q(e)
        assert got == want

    def test_qq_and_gaussian_binomials_do_not_recurse(self):
        # qq extends its cache in a loop, and packed_qpascal builds its rows
        # in one: from cleared caches, (q;q)_60 and the rows to [40, 20]_q
        # are built under a recursion limit 30 frames above this one
        import sys

        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        qq.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            got = qq(60)
            rows = packed_qpascal(40, 64)
        finally:
            sys.setrecursionlimit(limit)
        want = ONE
        for e in range(1, 61):
            want = want * (ONE - Q(e))
        assert got == want and degree(got) == 60 * 61 // 2
        binom = unpack(rows[40][20], 64, 2 ** 40)
        assert degree(binom) == 20 * 20 and binom * qq(20) * qq(20) == qq(40)
        qq.cache_clear()

    def test_qq_cache(self):
        assert qq(0) == ONE
        assert qq(3) == (ONE - Q(1)) * (ONE - Q(2)) * (ONE - Q(3))


class TestEulerSeries:
    def test_first_coefficients(self):
        s = euler_series(0, 8)
        assert series_coeff(s, 0) == RF(ONE)
        assert series_coeff(s, 1) == gcd_fraction(-ONE, ONE - Q(1))
        assert series_coeff(s, 2) == gcd_fraction(Q(1), (ONE - Q(1)) * (ONE - Q(2)))

    def test_shifted_base_coefficient(self):
        # coefficient of x^n in (q^(k+n) x;q)_inf
        n, k = 3, 2
        c = series_coeff(euler_series(n + k, n), n)
        want = gcd_fraction(Q((k + n) * n + n * (n - 1) // 2, (-1) ** n), qq(n))
        assert c == want

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            series_coeff(euler_series(0, 8), 9)

    def test_order_bounds(self):
        # the package's constructors: order 0 is the constant term alone,
        # order t has t + 1 numerators
        for numerators in (euler_numerators, qbinom_numerators):
            assert numerators(2, 0, 8) == [1]
            assert len(numerators(2, 5, 8)) == 6


class TestQBinomSeries:
    def test_constant_term(self):
        for a in (-2, 0, 1, 5):
            assert series_coeff(qbinom_series(a, 4), 0) == RF(ONE)

    def test_linear_term(self):
        n, k = 2, 3
        s = qbinom_series(n + k, 4)
        assert series_coeff(s, 1) == gcd_fraction(ONE - Q(n + k), ONE - Q(1))

    def test_base_one_collapses(self):
        s = qbinom_series(0, 6)
        assert all(series_coeff(s, j).num.is_zero for j in range(1, 7))
        assert qbinom_numerators(0, 6, 8) == [1] + [0] * 6


class TestSeriesOps:
    # products through the package's packed q-binomial convolution, decoded
    # (helpers.packed_product); a series equals another when its numerators do
    def test_mul_with_unit_series(self):
        e = euler_series(0, 8)
        assert packed_product(e, qbinom_series(0, 8)).nums == e.nums

    def test_cauchy_coefficient(self):
        e = euler_series(0, 6)
        sq = packed_product(e, e)
        assert series_coeff(sq, 1) == gcd_fraction(-2, ONE - Q(1))

    def test_ratio_collapses_shifted_euler(self):
        for k in (1, 2, 3):
            ratio = scale_x(qbinom_series(-k, 6), k)
            assert packed_product(euler_series(k, 6), ratio).nums == euler_series(0, 6).nums

    def test_telescoping_three_factors(self):
        for n in (1, 2, 3):
            for k in (0, 1, 2):
                order = 5
                ratio1 = scale_x(qbinom_series(-k, order), k)
                ratio2 = qbinom_series(k + n, order)
                prod = packed_product(packed_product(euler_series(k, order), ratio1), ratio2)
                assert prod.nums == euler_series(k + n, order).nums, (n, k)

    def test_truncation_to_smaller_order(self):
        a = euler_series(0, 6)
        b = euler_series(1, 3)
        assert packed_product(a, b).order == 3
        packed = packed_series_product(euler_numerators(0, 6, 16), euler_numerators(1, 3, 16), 16)
        assert len(packed) == 4

    def test_alternate_and_scale(self):
        s = euler_series(0, 4)
        assert s.alternate_x().alternate_x().nums == s.nums
        assert scale_x(scale_x(s, 2), -2).nums == s.nums


def reference_product(a, b):
    """The canonicalising Cauchy product: sum_i a_i * b_(t-i) as rational functions."""
    out = []
    for t in range(min(a.order, b.order) + 1):
        acc = gcd_fraction(0)
        for i in range(t + 1):
            acc = frac_add(acc, frac_mul(series_coeff(a, i), series_coeff(b, t - i)))
        out.append(acc)
    return out


class TestGaussianBinomial:
    # the package's q-Pascal table on packed ints, decoded at a width that
    # fits C(t, i) >= every coefficient of [t, i]_q
    def test_cross_multiplied_definition(self):
        # [t, i] (q;q)_i (q;q)_(t-i) == (q;q)_t, the left side by sparse passes
        width = packed_width(2 ** 12)
        rows = packed_qpascal(12, width)
        for t in range(13):
            for i in range(t + 1):
                lhs = unpack(rows[t][i], width, 2 ** 12)
                for j in (*range(1, i + 1), *range(1, t - i + 1)):
                    lhs = lhs.times_one_minus_q(j)
                assert lhs == qq(t), (t, i)

    def test_zero_outside_the_triangle(self):
        # the rule reads [t-1, -1] and [t-1, t] as 0: each row has the t + 1
        # entries 0 <= i <= t, with [t, 0] = [t, t] = 1, and the table stops
        # at row top
        for width in (8, 16):
            rows = packed_qpascal(5, width)
            assert [len(row) for row in rows] == [1, 2, 3, 4, 5, 6]
            assert all(row[0] == row[-1] == 1 for row in rows)
        assert packed_qpascal(0, 8) == [[1]]

    def test_small_values(self):
        rows = packed_qpascal(4, 8)
        assert unpack(rows[2][1], 8, 2) == poly_add(ONE, Q(1))
        assert unpack(rows[4][2], 8, 6) == LaurentPoly(0, (1, 1, 2, 1, 1))
        # the packed entries are the values at X = 2^8 of the LaurentPoly table
        assert rows[4][2] == sum(c << 8 * e for e, c in enumerate((1, 1, 2, 1, 1)))
        for t in range(5):
            for i in range(t + 1):
                assert unpack(rows[t][i], 8, 6) == gaussian_binomial(t, i), (t, i)


class TestSeriesRepresentation:
    def test_coeff_index_bounds(self):
        s = TruncatedSeriesX([ONE, Q(1)])
        assert s.order == 1 and series_coeff(s, 1) == gcd_fraction(Q(1), ONE - Q(1))
        for j in (-1, 2):
            with pytest.raises(IndexError):
                series_coeff(s, j)

    def test_numerators_over_fixed_denominators(self):
        s = qbinom_series(-2, 5)
        assert s.nums == tuple(poch_power(-2, j) for j in range(6))
        assert euler_series(3, 2).nums == (ONE, -Q(3), Q(7))

    def test_packed_constructors_are_the_series_at_minus_x(self):
        # euler_numerators(e) and qbinom_numerators(a) are the numerators of
        # (-q^e x;q)_inf and (-q^a x;q)_inf / (-x;q)_inf, packed: the
        # references at x -> -x, each numerator packed on its own
        width = packed_width(2 ** 8)
        for base in range(6):
            for numerators, series in ((euler_numerators, euler_series),
                                       (qbinom_numerators, qbinom_series)):
                want = [pack(num, width) for num in series(base, 8).alternate_x().nums]
                assert numerators(base, 8, width) == want, (numerators, base)


class TestProductMatchesReference:
    def _check(self, a, b):
        prod = packed_product(a, b)
        want = reference_product(a, b)
        assert prod.order == len(want) - 1
        for j, c in enumerate(want):
            assert series_coeff(prod, j) == c, j

    def test_negative_bases(self):
        for k in range(4):
            for a_exp in (-k, k + 2):
                self._check(qbinom_series(-k, 6), qbinom_series(a_exp, 6))
                self._check(euler_series(k, 6), qbinom_series(-k, 6))

    def test_scaled_and_alternated(self):
        for k in (-2, 0, 3):
            a = scale_x(qbinom_series(-1, 5), k)
            b = euler_series(1, 5).alternate_x()
            self._check(a, b)
            self._check(scale_x(b, k), qbinom_series(2, 5).alternate_x())

    def test_mismatched_orders(self):
        for la, lb in ((6, 3), (2, 5), (0, 4), (3, 0), (0, 0)):
            self._check(euler_series(2, la), qbinom_series(-1, lb))

    def test_product_builds_no_rational_function(self, monkeypatch):
        # the packed constructors and the packed product are int
        # arithmetic: no fraction is built or reduced
        calls = []
        init = RF.__init__

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RF, "__init__", counted("RationalFunctionQ", init))
        monkeypatch.setattr(whitdim.rational, "_cancel",
                            counted("_cancel", whitdim.rational._cancel))
        width = packed_width(3 ** 6)
        f, g = qbinom_numerators(3, 6, width), euler_numerators(1, 6, width)
        packed_series_product(f, g, width)
        packed_series_product(f, f, width)
        assert calls == []

    def test_bounds_dominate_the_product(self):
        # series_product_bounds is at least the largest coefficient of every
        # numerator of the product, which the LaurentPoly reference builds
        from helpers import series_mul

        for a, b in ((qbinom_series(3, 8), euler_series(0, 8).alternate_x()),
                     (qbinom_series(1, 7), qbinom_series(2, 7)),
                     (euler_series(2, 6), qbinom_series(5, 6).alternate_x())):
            bounds = series_product_bounds(a, b)
            want = series_mul(a, b).nums
            assert len(bounds) == len(want)
            for t, (bound, num) in enumerate(zip(bounds, want)):
                assert max(map(abs, num.coeffs), default=0) <= bound, t
            width = packed_width(max(bounds))
            got = packed_series_product([pack(num, width) for num in a.nums],
                                        [pack(num, width) for num in b.nums], width)
            assert [unpack(h, width, bd) for h, bd in zip(got, bounds)] == list(want)

    def test_laurent_numerators_do_not_pack(self):
        # a negative base gives numerators with negative powers of q, which
        # have no packed form: the shift that would build one raises
        for numerators in (euler_numerators, qbinom_numerators):
            with pytest.raises(ValueError):
                numerators(-1, 3, 16)
        with pytest.raises(ValueError, match="1/q"):
            pack(qbinom_series(-1, 3).nums[1], 16)


class TestEulerProductCrossCheck:
    def test_bivariate_truncation_matches_series(self):
        max_deg, order = 30, 8
        product = euler_product_truncation(max_deg, order)
        series = euler_series(0, order)
        for j in range(order + 1):
            expansion = series_coeffs(series_coeff(series, j), max_deg)
            assert all(c.denominator == 1 for c in expansion)
            assert [int(c) for c in expansion] == [
                coeff(product[j], t) for t in range(max_deg + 1)
            ], j


class TestQBinomCrossCheck:
    def test_product_with_euler_base(self):
        for a_exp in range(6):
            lhs = packed_product(euler_series(0, 8), qbinom_series(a_exp, 8))
            assert lhs.nums == euler_series(a_exp, 8).nums, a_exp


class TestPochRewrites:
    def test_examples(self):
        assert poch_rewrite_check(1, 1, 0, 1) == (True, True, True)
        assert poch_rewrite_check(2, 1, 1, 0) == (True, True, True)

    def test_l_zero_degenerate(self):
        ok1, ok2, ok3 = poch_rewrite_check(3, 2, 1, 0)
        assert ok1 and ok2 and ok3
        # first identity degenerates: (q;q)_{2n+k-m-1}/(q;q)_k = (q^{k+1};q)_{2n-m-1}
        n, k, m = 3, 2, 1
        assert gcd_fraction(qq(2 * n + k - m - 1), qq(k)) == RF(poch_power(k + 1, 2 * n - m - 1))

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for k in range(n + 1):
                for m in range(n + 1):
                    for ell in range(min(k, n - m) + 1):
                        assert poch_rewrite_check(n, k, m, ell) == (True, True, True)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            poch_rewrite_check(2, 3, 0, 0)
        with pytest.raises(ValueError):
            poch_rewrite_check(2, 1, 1, 2)
