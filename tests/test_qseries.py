import pytest

import whitdim.laurent
import whitdim.rational
from helpers import euler_product_truncation, poch_rewrite_check, scale_x, series_coeffs
from whitdim.laurent import LaurentPoly
from whitdim.qseries import (
    TruncatedSeriesX,
    euler_series,
    gaussian_binomial,
    poch_power,
    qbinom_series,
    qq,
    qq_power,
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
        assert p.eval_at(2) == 3
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

    def test_qq_cache(self):
        assert qq(0) == ONE
        assert qq(3) == (ONE - Q(1)) * (ONE - Q(2)) * (ONE - Q(3))

    def test_qq_power_is_repeated_multiplication(self):
        for j in range(7):
            want = ONE
            for p in range(7):
                assert qq_power(j, p) == want, (j, p)
                want = want * qq(j)
        with pytest.raises(ValueError):
            qq_power(2, -1)


class TestEulerSeries:
    def test_first_coefficients(self):
        s = euler_series(0, 8)
        assert s.coeff(0) == RF.one()
        assert s.coeff(1) == RF(-ONE, ONE - Q(1))
        assert s.coeff(2) == RF(Q(1), (ONE - Q(1)) * (ONE - Q(2)))

    def test_shifted_base_coefficient(self):
        # coefficient of x^n in (q^(k+n) x;q)_inf
        n, k = 3, 2
        c = euler_series(n + k, n).coeff(n)
        want = RF(Q((k + n) * n + n * (n - 1) // 2, (-1) ** n), qq(n))
        assert c == want

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            euler_series(0, 8).coeff(9)

    def test_order_bounds(self):
        # order 0 is the constant term alone; a negative order is rejected
        for series in (euler_series, qbinom_series):
            s = series(2, 0)
            assert s.order == 0 and s.coeff(0) == RF.one()
            with pytest.raises(ValueError):
                series(2, -1)


class TestQBinomSeries:
    def test_constant_term(self):
        for a in (-2, 0, 1, 5):
            assert qbinom_series(a, 4).coeff(0) == RF.one()

    def test_linear_term(self):
        n, k = 2, 3
        s = qbinom_series(n + k, 4)
        assert s.coeff(1) == RF(ONE - Q(n + k), ONE - Q(1))

    def test_base_one_collapses(self):
        s = qbinom_series(0, 6)
        assert all(s.coeff(j).is_zero for j in range(1, 7))


class TestSeriesOps:
    def test_mul_with_unit_series(self):
        e = euler_series(0, 8)
        assert e * qbinom_series(0, 8) == e

    def test_cauchy_coefficient(self):
        e = euler_series(0, 6)
        sq = e * e
        assert sq.coeff(1) == RF(LaurentPoly.from_int(-2), ONE - Q(1))

    def test_ratio_collapses_shifted_euler(self):
        for k in (1, 2, 3):
            ratio = scale_x(qbinom_series(-k, 6), k)
            assert euler_series(k, 6) * ratio == euler_series(0, 6)

    def test_telescoping_three_factors(self):
        for n in (1, 2, 3):
            for k in (0, 1, 2):
                order = 5
                ratio1 = scale_x(qbinom_series(-k, order), k)
                ratio2 = qbinom_series(k + n, order)
                prod = euler_series(k, order) * ratio1 * ratio2
                assert prod == euler_series(k + n, order), (n, k)

    def test_truncation_to_smaller_order(self):
        a = euler_series(0, 6)
        b = euler_series(1, 3)
        assert (a * b).order == 3

    def test_alternate_and_scale(self):
        s = euler_series(0, 4)
        assert s.alternate_x().alternate_x() == s
        assert scale_x(scale_x(s, 2), -2) == s


def reference_product(a, b):
    """The canonicalising Cauchy product: sum_i a_i * b_(t-i) as rational functions."""
    out = []
    for t in range(min(a.order, b.order) + 1):
        acc = RF.zero()
        for i in range(t + 1):
            acc = acc + a.coeff(i) * b.coeff(t - i)
        out.append(acc)
    return out


class TestGaussianBinomial:
    def test_cross_multiplied_definition(self):
        # [t, i] (q;q)_i (q;q)_(t-i) == (q;q)_t, the left side by sparse passes
        for t in range(13):
            for i in range(t + 1):
                lhs = gaussian_binomial(t, i)
                for j in (*range(1, i + 1), *range(1, t - i + 1)):
                    lhs = lhs.times_one_minus_q(j)
                assert lhs == qq(t), (t, i)

    def test_zero_outside_the_triangle(self):
        for t in range(6):
            assert gaussian_binomial(t, -1).is_zero
            assert gaussian_binomial(t, t + 1).is_zero
            assert gaussian_binomial(t, t + 3).is_zero

    def test_small_values(self):
        assert gaussian_binomial(2, 1) == ONE + Q(1)
        assert gaussian_binomial(4, 2) == LaurentPoly(0, (1, 1, 2, 1, 1))


class TestSeriesRepresentation:
    def test_rejects_non_laurent_numerators(self):
        for bad in (1, RF.one(), "1", None):
            with pytest.raises(TypeError):
                TruncatedSeriesX([ONE, bad])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeriesX([])

    def test_coeff_index_bounds(self):
        s = TruncatedSeriesX([ONE, Q(1)])
        assert s.order == 1 and s.coeff(1) == RF(Q(1), ONE - Q(1))
        for j in (-1, 2):
            with pytest.raises(IndexError):
                s.coeff(j)

    def test_numerators_over_fixed_denominators(self):
        s = qbinom_series(-2, 5)
        assert s.nums == tuple(poch_power(-2, j) for j in range(6))
        assert euler_series(3, 2).nums == (ONE, -Q(3), Q(7))


class TestProductMatchesReference:
    def _check(self, a, b):
        prod = a * b
        want = reference_product(a, b)
        assert prod.order == len(want) - 1
        for j, c in enumerate(want):
            assert prod.coeff(j) == c, j

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
        a = scale_x(qbinom_series(-3, 6), 2)
        b = euler_series(1, 6).alternate_x()
        calls = []
        init = RF.__init__

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RF, "__init__", counted("RationalFunctionQ", init))
        for mod in (whitdim.laurent, whitdim.rational):
            monkeypatch.setattr(mod, "poly_gcd", counted("poly_gcd", mod.poly_gcd))
        a * b
        a * a
        assert calls == []
        a.coeff(6)
        assert "RationalFunctionQ" in calls


class TestEulerProductCrossCheck:
    def test_bivariate_truncation_matches_series(self):
        max_deg, order = 30, 8
        product = euler_product_truncation(max_deg, order)
        series = euler_series(0, order)
        for j in range(order + 1):
            expansion = series_coeffs(series.coeff(j), max_deg)
            assert all(c.denominator == 1 for c in expansion)
            assert [int(c) for c in expansion] == [
                product[j].coeff(t) for t in range(max_deg + 1)
            ], j


class TestQBinomCrossCheck:
    def test_product_with_euler_base(self):
        for a_exp in range(6):
            lhs = euler_series(0, 8) * qbinom_series(a_exp, 8)
            assert lhs == euler_series(a_exp, 8), a_exp


class TestPochRewrites:
    def test_examples(self):
        assert poch_rewrite_check(1, 1, 0, 1) == (True, True, True)
        assert poch_rewrite_check(2, 1, 1, 0) == (True, True, True)

    def test_l_zero_degenerate(self):
        ok1, ok2, ok3 = poch_rewrite_check(3, 2, 1, 0)
        assert ok1 and ok2 and ok3
        # first identity degenerates: (q;q)_{2n+k-m-1}/(q;q)_k = (q^{k+1};q)_{2n-m-1}
        n, k, m = 3, 2, 1
        assert RF(qq(2 * n + k - m - 1), qq(k)) == RF(poch_power(k + 1, 2 * n - m - 1))

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
