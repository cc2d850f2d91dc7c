"""Identity engine tests.

The raw sum oracle here is a deliberately naive transcription of the
displayed formula (literal (q^i - 1) range products, one term at a time,
no shared state), kept independent of the engine's incremental walker.
"""

import json
import os

import pytest
import sympy

from helpers import extended_inner_sum_matches
from whitdim.engine import (
    closed_product,
    conclusion_chain,
    dimension_sum,
    inner_sum_sides,
    simplification_chain,
    verify_main,
)
from whitdim.laurent import LaurentPoly
from whitdim.qseries import q_power_minus_one_range, qq
from whitdim.rational import RationalFunctionQ as RF

Q = LaurentPoly.monomial
ONE = LaurentPoly.one()


def literal_dimension_sum(n):
    """Straight per-term transcription of the raw displayed sum."""
    total = LaurentPoly.zero()
    for m in range(n + 1):
        for k in range(n + 1):
            for ell in range(n - max(k, m) + 1):
                e = (
                    k * n + (n - k) * m
                    + k * (k - 1) // 2 + m * (m - 1) // 2 + ell * (ell - 1) // 2
                )
                term = (
                    q_power_minus_one_range(ell + 1, 3 * n - k - ell - m - 1)
                    * q_power_minus_one_range(n - k - ell + 1, n)
                    * q_power_minus_one_range(n - m - ell + 1, n)
                    * q_power_minus_one_range(k + 1, n)
                    * q_power_minus_one_range(m + 1, n)
                )
                term = term.shifted(e)
                if ell % 2:
                    term = -term
                total = total + term
    den = q_power_minus_one_range(1, n) * q_power_minus_one_range(1, n)
    return RF(total, den.shifted(3 * n * n))


class TestClosedProduct:
    def test_small_values(self):
        assert closed_product(1) == RF.one()
        assert closed_product(2) == RF(Q(3) - Q(2))
        p3 = closed_product(3)
        assert p3 == RF(Q(9) - Q(8) - Q(7) + Q(6))
        assert p3.eval_at(2) == 192

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            closed_product(0)


class TestDimensionSum:
    def test_small_values(self):
        assert dimension_sum(1) == RF.one()
        assert dimension_sum(2) == RF(Q(3) - Q(2))
        assert dimension_sum(3).eval_at(2) == 192

    def test_matches_literal_oracle(self):
        for n in range(1, 6):
            assert dimension_sum(n) == literal_dimension_sum(n), n

    def test_is_polynomial(self):
        for n in range(1, 9):
            assert dimension_sum(n).denominator_is_one, n


class TestVerifyMain:
    def test_range(self):
        for n in range(1, 9):
            rep = verify_main(n)
            assert rep.equal and rep.identity == "main" and rep.n == n

    def test_report_serializes(self):
        rep = verify_main(2)
        blob = json.dumps(rep.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["equal"] is True
        assert RF.from_json_dict(parsed["lhs"]) == closed_product(2)

    def test_numeric_agreement_everywhere(self):
        for n in (1, 2, 3, 4):
            lhs, rhs = closed_product(n), dimension_sum(n)
            for q0 in (2, 3, 4, 5, 7, 8, 9):
                assert lhs.eval_at(q0) == rhs.eval_at(q0)


def _compact_sides(n):
    """Both sides of the compact form: q^(4n^2-n)/(1-q^n) vs the (q;q)-triple
    sum over (q;q)_n^5, built term by term by _per_term_triple_sum."""
    lhs = RF(Q(4 * n * n - n), ONE - Q(n))
    return lhs, RF(_per_term_triple_sum(n, 1, 0), qq(n) ** 5)


class TestCompactSides:
    def test_n1_sides(self):
        lhs, rhs = _compact_sides(1)
        assert lhs == RF(Q(3), ONE - Q(1))
        assert rhs == lhs

    def test_n1_admissible_triples(self):
        # the constraint 0 <= l <= n - max(k,m) admits exactly 5 triples at n=1
        triples = [
            (m, k, ell)
            for m in range(2)
            for k in range(2)
            for ell in range(1 - max(k, m) + 1)
        ]
        assert len(triples) == 5

    def test_equality_small(self):
        for n in (1, 2, 3):
            lhs, rhs = _compact_sides(n)
            assert lhs == rhs, n


class TestInnerSum:
    def test_n1_values(self):
        lhs, rhs = inner_sum_sides(1, 0)
        assert lhs == RF(-Q(1)) and rhs == RF(-Q(1))
        lhs, rhs = inner_sum_sides(1, 1)
        assert lhs == RF(-Q(2)) and rhs == RF(-Q(2))

    def test_equality_small(self):
        for n in range(1, 6):
            for k in range(n + 1):
                lhs, rhs = inner_sum_sides(n, k)
                assert lhs == rhs, (n, k)

    def test_perturbed_numerator_is_unequal_and_canonical(self, monkeypatch):
        # an inexact (1 - q^i) division falls back to the generic canonical form
        from whitdim import engine

        walker = engine._inner_sum_numerator

        def faulty(n, k):
            out = walker(n, k)
            return out + LaurentPoly.monomial(out.min_exp + 1)  # one coefficient off by 1

        monkeypatch.setattr(engine, "_inner_sum_numerator", faulty)
        for n, k in ((1, 0), (3, 1), (4, 4)):
            lhs, rhs = inner_sum_sides(n, k)
            assert lhs != rhs, (n, k)
            want = RF(faulty(n, k), qq(n) ** 3)
            assert lhs.to_json_dict() == want.to_json_dict(), (n, k)
            assert not lhs.denominator_is_one, (n, k)
            assert engine.verify_inner_sum(n, k).equal is False, (n, k)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            inner_sum_sides(2, 3)
        with pytest.raises(ValueError):
            inner_sum_sides(2, -1)


class TestExtensionOfSummation:
    def test_small(self):
        for n in range(1, 7):
            for k in range(n + 1):
                assert extended_inner_sum_matches(n, k), (n, k)

    def test_wrong_closed_form_is_reported(self, monkeypatch):
        # the restricted sum is checked against the closed form, not only
        # against the extended sum built by the same summand
        from whitdim import engine

        closed_form = engine.inner_sum_rhs_poly

        def faulty(n, k):
            out = closed_form(n, k)
            return out + LaurentPoly.monomial(out.min_exp)  # one coefficient off by 1

        monkeypatch.setattr(engine, "inner_sum_rhs_poly", faulty)
        for n in range(1, 5):
            for k in range(n + 1):
                assert not extended_inner_sum_matches(n, k), (n, k)


class TestOuterInnerFactorization:
    def test_fixed_k_restriction_factors_exactly(self):
        # the flat compact sum restricted to one k equals the outer factor
        # times the inner (m, l) double sum, for all 0 <= k <= n, n <= 8
        for n in range(1, 9):
            for k in range(n + 1):
                restricted = LaurentPoly.zero()
                for m in range(n + 1):
                    for ell in range(n - max(k, m) + 1):
                        e = (
                            n * (k + m) - k * m
                            + k * (k - 1) // 2 + m * (m - 1) // 2 + ell * (ell - 1) // 2
                        )
                        num = (
                            qq(3 * n - k - ell - m - 1) * qq(n)
                            * _tail(k, n) * _tail(m, n) * _tail(ell, n)
                            * _tail(n - k - ell, n) * _tail(n - m - ell, n)
                        ).shifted(e)
                        restricted = (
                            restricted - num if (k + m + ell) % 2 else restricted + num
                        )
                flat_k = RF(restricted, qq(n) ** 5)
                outer = RF(
                    LaurentPoly.monomial(k * n + k * (k - 1) // 2, (-1) ** k), qq(k)
                )
                from whitdim.engine import _nested_inner_numerator

                inner = RF(_nested_inner_numerator(n, k), qq(n) ** 4)
                assert flat_k == outer * inner, (n, k)


class TestGroupedSumOracle:
    # the oracle caches its last n; each test clears it so nothing is reused
    def test_matches_per_term_reference(self):
        # every (k, m, l) term built on its own from dense (q;q) products
        from whitdim.engine import _nested_triple_numerator

        _nested_triple_numerator.cache_clear()
        for n in range(1, 7):
            assert _nested_triple_numerator(n) == _per_term_triple_sum(n, 1, 0), n

    def test_oracles_never_divide_or_accumulate(self, monkeypatch):
        # the cross-checks must share no stepping or summation code with the walker
        from whitdim import engine

        def forbidden(*args, **kwargs):
            raise AssertionError("oracle used a walker kernel")

        def run():
            engine._nested_triple_numerator.cache_clear()
            out = [engine._nested_triple_numerator(4)]
            return out + [engine._nested_inner_numerator(4, k) for k in range(5)]

        expected = run()
        monkeypatch.setattr(LaurentPoly, "div_one_minus_q", forbidden)
        monkeypatch.setattr(engine, "PolyAccumulator", forbidden)
        assert run() == expected

    def test_chain_builds_the_oracle_once_per_n(self, monkeypatch):
        # simplify-regrouped-sum and conclusion-group-by-k share one oracle
        # value per n: n + 1 inner sums each, 2 + 3 + 4 for n = 1..3
        import contextlib
        import io

        from whitdim import engine
        from whitdim.cli import EXIT_OK, main

        inner = engine._nested_inner_numerator
        calls = []

        def counted(n, k):
            calls.append((n, k))
            return inner(n, k)

        engine._nested_triple_numerator.cache_clear()
        monkeypatch.setattr(engine, "_nested_inner_numerator", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # count in-process
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chain", "--n", "1..3"]) == EXIT_OK
        assert len(calls) == 9


class TestWalkers:
    # every term built on its own from dense (q;q) and tail products, so the
    # s-grouped factoring is checked against code that is neither walker nor oracle

    def test_triple_walker_matches_per_term_reference(self):
        # the walker's one form, and the literal-sign form dimension_sum makes of it
        from whitdim.engine import _triple_sum_numerator

        _triple_sum_numerator.cache_clear()
        for n in range(1, 7):
            assert _triple_sum_numerator(n) == _per_term_triple_sum(n, 1, 0), n
            expected = RF(_per_term_triple_sum(n, 2, n + 1), (qq(n) ** 5).shifted(3 * n * n))
            assert dimension_sum(n) == expected, n

    def test_inner_walker_matches_per_term_reference(self):
        from whitdim.engine import _inner_sum_numerator

        for n in range(1, 7):
            for k in range(n + 1):
                total = LaurentPoly.zero()
                for m in range(n + 1):
                    for ell in range(min(k, n - m) + 1):
                        e = m * k + m * (m - 1) // 2 + ell * (ell - 1) // 2
                        num = (
                            qq(2 * n + k - m - ell - 1) * _tail(k, n)
                            * _tail(m, n) * _tail(ell, n) * _tail(n - m - ell, n)
                            * _tail(k - ell, k)
                        ).shifted(e)
                        total = total - num if (m + ell) % 2 else total + num
                assert _inner_sum_numerator(n, k) == total, (n, k)

    def test_walkers_never_close_with_the_oracles(self, monkeypatch):
        # the other side of test_oracles_never_divide_or_accumulate
        from whitdim import engine

        def forbidden(*args, **kwargs):
            raise AssertionError("walker used oracle code")

        def run():
            engine._triple_sum_numerator.cache_clear()
            out = [engine._triple_sum_numerator(4)]
            return out + [engine._inner_sum_numerator(4, k) for k in range(5)]

        expected = run()
        for name in ("_close_index_sums", "_nested_triple_numerator",
                     "_nested_inner_numerator"):
            monkeypatch.setattr(engine, name, forbidden)
        assert run() == expected

    def test_chain_walks_the_triple_sum_once_per_n(self, monkeypatch):
        # dimension_sum (simplify-regrouped-sum) and conclusion-group-by-k
        # share one cached walk per n; only the triple walk starts from
        # (q;q)_n^3
        import contextlib
        import io

        from whitdim import engine
        from whitdim.cli import EXIT_OK, main

        power = engine.qq_power
        walks = []

        def counted(j, p):
            if p == 3:
                walks.append(j)
            return power(j, p)

        engine._triple_sum_numerator.cache_clear()
        monkeypatch.setattr(engine, "qq_power", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # count in-process
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chain", "--n", "1..3"]) == EXIT_OK
        assert walks == [1, 2, 3]


class TestCrossChecksCatchFaults:
    def test_perturbed_walker_is_reported(self, monkeypatch):
        import contextlib
        import io

        from whitdim import engine
        from whitdim.cli import EXIT_FAILED, main

        walker = engine._triple_sum_numerator

        def faulty(n):
            out = walker(n)
            return out + LaurentPoly.monomial(out.min_exp)  # one coefficient off by 1

        monkeypatch.setattr(engine, "_triple_sum_numerator", faulty)
        for n in (1, 2, 3):
            reports = {
                r.identity: r.equal
                for r in simplification_chain(n) + conclusion_chain(n)
            }
            assert reports["simplify-regrouped-sum"] is False, n
            assert reports["conclusion-group-by-k"] is False, n
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chain", "--n", "2"]) == EXIT_FAILED

    def test_perturbed_oracle_is_reported(self, monkeypatch):
        import contextlib
        import io

        from whitdim import engine
        from whitdim.cli import EXIT_FAILED, main

        oracle = engine._nested_triple_numerator

        def faulty(n):
            out = oracle(n)
            return out + LaurentPoly.monomial(out.min_exp)  # one coefficient off by 1

        monkeypatch.setattr(engine, "_nested_triple_numerator", faulty)
        for n in (1, 2, 3):
            reports = {
                r.identity: r.equal
                for r in simplification_chain(n) + conclusion_chain(n)
            }
            assert reports["simplify-regrouped-sum"] is False, n
            assert reports["conclusion-group-by-k"] is False, n
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chain", "--n", "2"]) == EXIT_FAILED


def _tail(j, n):
    out = LaurentPoly.one()
    for i in range(j + 1, n + 1):
        out = out.times_one_minus_q(i)
    return out


def _per_term_triple_sum(n, power, parity):
    """The (k, m, l) triple sum numerator, every term built on its own densely."""
    total = LaurentPoly.zero()
    for k in range(n + 1):
        for m in range(n + 1):
            for ell in range(n - max(k, m) + 1):
                e = (
                    n * (k + m) - k * m
                    + k * (k - 1) // 2 + m * (m - 1) // 2 + ell * (ell - 1) // 2
                )
                num = (
                    qq(3 * n - k - ell - m - 1) * qq(n) ** power
                    * _tail(k, n) * _tail(m, n) * _tail(ell, n)
                    * _tail(n - k - ell, n) * _tail(n - m - ell, n)
                ).shifted(e)
                total = total - num if (parity + k + m + ell) % 2 else total + num
    return total


class TestNumericAgreementAcrossIdentities:
    def test_all_supported_q_points(self):
        points = (2, 3, 4, 5, 7, 8, 9)
        for n in (1, 2, 3):
            for k in range(n + 1):
                lhs, rhs = inner_sum_sides(n, k)
                for q0 in points:
                    assert lhs.eval_at(q0) == rhs.eval_at(q0)


def _sympy_range(q, lo, hi):
    """prod_{i=lo}^{hi} (q^i - 1) as a sympy Poly; 1 when hi < lo."""
    out = sympy.Poly(1, q)
    for i in range(lo, hi + 1):
        out = out * sympy.Poly(q**i - 1, q)
    return out


class TestSympyRawSum:
    """The raw sum from the displayed (q^i - 1) products in sympy, sharing no
    arithmetic with laurent.py, against closed_product."""

    def test_raw_sum_equals_closed_product(self):
        q = sympy.Symbol("q")
        for n in range(1, 5):
            total = sympy.Poly(0, q)
            for m in range(n + 1):
                for k in range(n + 1):
                    for ell in range(n - max(k, m) + 1):
                        e = (k * n + (n - k) * m + k * (k - 1) // 2
                             + m * (m - 1) // 2 + ell * (ell - 1) // 2)
                        term = (
                            _sympy_range(q, ell + 1, 3 * n - k - ell - m - 1)
                            * _sympy_range(q, n - k - ell + 1, n)
                            * _sympy_range(q, n - m - ell + 1, n)
                            * _sympy_range(q, k + 1, n)
                            * _sympy_range(q, m + 1, n)
                            * sympy.Poly(q**e, q)
                        )
                        total = total - term if ell % 2 else total + term
            den = _sympy_range(q, 1, n) ** 2 * sympy.Poly(q ** (3 * n * n), q)
            quo, rem = sympy.div(total, den)
            assert rem.is_zero, n
            literal_closed = sympy.Poly(q ** (n * (n - 1) // 2), q)
            for i in range(1, n):
                literal_closed = literal_closed * sympy.Poly(q**n - q**i, q)
            assert quo == literal_closed, n
            closed = closed_product(n)
            assert closed.denominator_is_one and closed.num.min_exp >= 0
            as_sympy = sympy.Poly(
                sum(c * q ** (closed.num.min_exp + i)
                    for i, c in enumerate(closed.num.coeffs)),
                q,
            )
            assert quo == as_sympy, n


class TestChains:
    def test_simplification_all_steps(self):
        for n in (1, 2, 3, 4):
            reports = simplification_chain(n)
            assert all(r.equal for r in reports), [
                (r.identity, r.equal) for r in reports if not r.equal
            ]
            labels = [r.identity for r in reports]
            assert labels[-1] == "simplify-exponent-total"

    def test_conclusion_all_steps(self):
        for n in (1, 2, 3, 4):
            reports = conclusion_chain(n)
            assert len(reports) == 8
            assert all(r.equal for r in reports), [
                (r.identity, r.equal) for r in reports if not r.equal
            ]

    def test_tuple_counts_are_pinned(self):
        for n in (1, 2, 3, 4):
            km = (n + 1) ** 2
            admissible = sum(
                n - max(k, m) + 1 for k in range(n + 1) for m in range(n + 1)
            )
            want = {
                "simplify-monomial-merge": km,
                "simplify-factorial-signs": km,
                "simplify-l-power": n + 1,
                "simplify-long-range": admissible,
                "simplify-k-tail": admissible,
                "simplify-m-tail": admissible,
            }
            got = {
                r.identity: r.lhs
                for r in simplification_chain(n)
                if r.identity in want
            }
            assert got == {
                name: "verified for %d parameter tuples" % count
                for name, count in want.items()
            }, n

    def test_rewrite_predicates_match_the_rational_function_comparison(self):
        # either stated sign, every tuple at n <= 5: the cross-multiplied
        # predicates give the verdict of comparing canonical rational functions
        from whitdim import engine

        lit = q_power_minus_one_range
        for n in range(1, 6):
            for k, m, ell in _admissible(n):
                top = 3 * n - k - ell - m - 1
                for lo, hi in ((ell, top), (n - k - ell, n), (n - m - ell, n)):
                    for sign in (1, -1):
                        want = RF(lit(lo + 1, hi)) == RF(qq(hi) * sign, qq(lo))
                        assert engine._range_rewrite_holds(sign, lo, hi) == want, (
                            n, k, m, ell, lo, hi, sign,
                        )
            for k in range(n + 1):
                for m in range(n + 1):
                    for sign in (1, -1):
                        want = RF(1, lit(1, k) * lit(1, m)) == RF(
                            LaurentPoly.from_int(sign), qq(k) * qq(m)
                        )
                        assert engine._factorial_signs_hold(sign, k, m) == want, (
                            n, k, m, sign,
                        )

    def test_rewrite_predicates_never_divide_or_canonicalise(self, monkeypatch):
        from whitdim import engine, rational

        def forbidden(*args, **kwargs):
            raise AssertionError("a cross-multiplied predicate canonicalised")

        for module, name in ((engine, "RationalFunctionQ"), (rational, "poly_exact_div"),
                             (rational, "poly_gcd")):
            monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(LaurentPoly, "div_one_minus_q", forbidden)
        n = 4
        for k, m, ell in _admissible(n):
            assert engine._range_rewrite_holds(
                (-1) ** (n + k + m + 1), ell, 3 * n - k - m - ell - 1
            )
            assert engine._range_rewrite_holds((-1) ** (k + ell), n - k - ell, n)
            assert engine._factorial_signs_hold((-1) ** (k + m), k, m)

    def test_range_rewrite_rejects_a_negative_lower_index(self):
        from whitdim import engine

        with pytest.raises(ValueError):
            engine._range_rewrite_holds(1, -1, 3)

    def test_a_dropped_literal_factor_fails_every_tuple_of_its_statement(
        self, monkeypatch
    ):
        # the range rewrites are proved once per (sign, lo, hi); a fault in
        # one literal product must still be reported for every tuple using it
        from whitdim import engine

        real = engine.q_power_minus_one_range
        n = 4
        triples = _admissible(n)
        literal_of = {
            "simplify-long-range": lambda k, m, ell: (ell + 1, 3 * n - k - m - ell - 1),
            "simplify-k-tail": lambda k, m, ell: (n - k - ell + 1, n),
            "simplify-m-tail": lambda k, m, ell: (n - m - ell + 1, n),
        }
        failed, most = set(), 0
        for fault in [(1, 9), (1, 8), (3, 4), (2, 4), (1, 2)]:
            def dropped(lo, hi, fault=fault):
                return real(lo, hi - 1) if (lo, hi) == fault else real(lo, hi)

            monkeypatch.setattr(engine, "q_power_minus_one_range", dropped)
            reports = {r.identity: r for r in simplification_chain(n)}
            monkeypatch.undo()
            want = {
                identity: [
                    {"k": k, "m": m, "l": ell}
                    for k, m, ell in triples
                    if literal(k, m, ell) == fault
                ]
                for identity, literal in literal_of.items()
            }
            # the m half of the factorial literals is applied as sparse
            # passes, so only the k half goes through the patched range
            want["simplify-factorial-signs"] = [
                {"k": k, "m": m}
                for k in range(n + 1)
                for m in range(n + 1)
                if (1, k) == fault
            ]
            for identity, tuples in want.items():
                rep = reports[identity]
                assert rep.equal is not bool(tuples), (fault, identity)
                assert rep.rhs == (tuples or "all equal"), (fault, identity)
                if tuples:
                    failed.add(identity)
                    most = max(most, len(tuples))
        assert failed == set(want) and most > 1

    def test_each_range_statement_is_proved_once_per_n(self, monkeypatch):
        from whitdim import engine

        calls = []
        real = engine._range_rewrite_holds

        def counted(*key):
            calls.append(key)
            return real(*key)

        monkeypatch.setattr(engine, "_range_rewrite_holds", counted)
        n = 5
        simplification_chain(n)
        assert len(calls) == len(set(calls))
        assert len(calls) < 3 * len(_admissible(n))
        # and the statements proved are the paper's: (sign, lo, hi) of the
        # long range and of both tails, for every admissible tuple
        stated = set()
        for k, m, ell in _admissible(n):
            stated.add(((-1) ** (n + k + m + 1), ell, 3 * n - k - m - ell - 1))
            stated.add(((-1) ** (k + ell), n - k - ell, n))
            stated.add(((-1) ** (m + ell), n - m - ell, n))
        assert set(calls) == stated

    def test_exponent_identities_at_larger_n(self):
        n = 5
        assert 3 * n * n + 2 * (n * (n - 1) // 2) == 4 * n * n - n
        n = 4
        assert n * n + n * (n - 1) // 2 == 2 * n * n - n - n * (n - 1) // 2


def _admissible(n):
    return [
        (k, m, ell)
        for k in range(n + 1)
        for m in range(n + 1)
        for ell in range(n - max(k, m) + 1)
    ]
