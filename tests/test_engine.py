"""Identity engine tests.

The raw sum oracle here is a deliberately naive transcription of the
displayed formula (literal (q^i - 1) range products, one term at a time,
no shared state), kept independent of the engine's incremental walker.
"""

import json
import os
from math import comb

import pytest
import sympy

from helpers import (
    ZERO,
    eval_at,
    extended_inner_sum_matches,
    frac_mul,
    gcd_fraction,
    inner_l1_bound,
    k_outer_triple_numerator,
    nested_inner_numerator,
    nested_triple_numerator,
    poly_add,
    poly_pow,
    side_l1_bound,
    triple_l1_bound,
)
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
    total = ZERO
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
                total = poly_add(total, term)
    den = q_power_minus_one_range(1, n) * q_power_minus_one_range(1, n)
    return gcd_fraction(total, den.shifted(3 * n * n))


class TestClosedProduct:
    def test_small_values(self):
        assert closed_product(1) == RF(ONE)
        assert closed_product(2) == RF(Q(3) - Q(2))
        p3 = closed_product(3)
        assert p3 == RF(LaurentPoly(6, (1, -1, -1, 1)))
        assert eval_at(p3, 2) == 192

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            closed_product(0)


class TestDimensionSum:
    def test_small_values(self):
        assert dimension_sum(1) == RF(ONE)
        assert dimension_sum(2) == RF(Q(3) - Q(2))
        assert eval_at(dimension_sum(3), 2) == 192

    def test_matches_literal_oracle(self):
        for n in range(1, 6):
            assert dimension_sum(n) == literal_dimension_sum(n), n

    def test_is_polynomial(self):
        for n in range(1, 9):
            assert dimension_sum(n).denominator_is_one, n

    def test_perturbed_numerator_is_unequal_and_canonical(self, monkeypatch):
        # an inexact (1 - q^i) division falls back to the generic canonical form
        from whitdim import engine

        walker = engine._triple_sum_numerator

        def faulty(n):
            out = walker(n)
            return poly_add(out, LaurentPoly.monomial(out.min_exp + 1))  # one coefficient off by 1

        monkeypatch.setattr(engine, "_triple_sum_numerator", faulty)
        for n in (1, 2, 3):
            value = dimension_sum(n)
            num = faulty(n) if n % 2 else -faulty(n)
            want = gcd_fraction(num, poly_pow(qq(n), 4).shifted(3 * n * n))
            assert value.to_json_dict() == want.to_json_dict(), n
            assert not value.denominator_is_one, n
            assert value != closed_product(n), n


class TestVerifyMain:
    def test_range(self):
        for n in range(1, 9):
            rep = verify_main(n)
            assert rep["equal"] and rep["identity"] == "main" and rep["n"] == n

    @pytest.mark.slow
    def test_n28(self):
        # a size the orbit walk makes cheap: about 1-2 s
        assert verify_main(28)["equal"]

    def test_report_serializes(self):
        rep = verify_main(2)
        blob = json.dumps(rep)
        parsed = json.loads(blob)
        assert parsed["equal"] is True
        assert parsed["lhs"] == closed_product(2).to_json_dict()

    def test_numeric_agreement_everywhere(self):
        for n in (1, 2, 3, 4):
            lhs, rhs = closed_product(n), dimension_sum(n)
            for q0 in (2, 3, 4, 5, 7, 8, 9):
                assert eval_at(lhs, q0) == eval_at(rhs, q0)


def _compact_sides(n):
    """Both sides of the compact form: q^(4n^2-n)/(1-q^n) vs the (q;q)-triple
    sum over (q;q)_n^5, built term by term by _per_term_triple_sum."""
    lhs = gcd_fraction(Q(4 * n * n - n), ONE - Q(n))
    return lhs, gcd_fraction(_per_term_triple_sum(n, 1, 0), poly_pow(qq(n), 5))


def _record(identity, at, lhs, rhs):
    """The record of a step comparing lhs and rhs, decoded, but its elapsed_ms."""
    return {"identity": identity, **at, "equal": lhs == rhs,
            "lhs": lhs.to_json_dict(), "rhs": rhs.to_json_dict()}


def _untimed(record):
    return {key: value for key, value in record.items() if key != "elapsed_ms"}


class TestDecidedAtX:
    # verify_main and verify_inner_sum compare the walker's packed numerator
    # with the closed side times the denominator, both at X = 2^width, and
    # decode only to report a failure

    def test_records_equal_the_decoded_records(self):
        from whitdim import engine

        for n in range(1, 13):
            want = _record("main", {"n": n}, closed_product(n), dimension_sum(n))
            assert _untimed(verify_main(n)) == want, n
            for k in range(n + 1):
                want = _record("inner-sum", {"n": n, "k": k}, *inner_sum_sides(n, k))
                assert _untimed(engine.verify_inner_sum(n, k)) == want, (n, k)

    def test_the_success_path_never_decodes_or_divides_a_list(self, monkeypatch):
        from whitdim import engine

        def forbidden(*args):
            raise AssertionError("decoded on the success path")

        engine._packed_triple_sum.cache_clear()
        monkeypatch.setattr(engine, "unpack", forbidden)
        monkeypatch.setattr(LaurentPoly, "div_one_minus_q", forbidden)
        for n in range(1, 7):
            assert verify_main(n)["equal"], n
            for k in range(n + 1):
                assert engine.verify_inner_sum(n, k)["equal"], (n, k)

    def test_other_sides_need_no_wider_width_than_the_walkers(self, monkeypatch):
        # the lemma needs both sides' coefficients below 2^(width-2); the
        # closed sides times their denominators stay under the walkers'
        # bounds, and their bounds are the product of the factors' l1
        # norms, so same_at_x compares at the walker's own width
        from whitdim import engine, laurent
        from whitdim.engine import inner_sum_rhs_poly

        def bound(side, tops):
            # the bound same_at_x reads for a LaurentPoly side and its tops
            out = laurent.l1(side)
            for top in tops:
                out *= laurent.qq_norms(top)[top]
            return out

        for n in range(1, 7):
            side, tops = closed_product(n).num, (n,) * 4
            assert bound(side, tops) == side_l1_bound(side, tops), n
            for k in range(n + 1):
                side, tops = inner_sum_rhs_poly(n, k), (n, n, k)
                assert bound(side, tops) == side_l1_bound(side, tops), (n, k)
        for n in range(1, 33):
            side = bound(closed_product(n).num, (n,) * 4)
            assert side <= engine._triple_bound(n), n
        for n in range(1, 17):
            for k in range(n + 1):
                side = bound(inner_sum_rhs_poly(n, k), (n, n, k))
                assert side <= engine._inner_bound(n, k), (n, k)
        # and the widths same_at_x packs at are the walkers'
        widths = []
        repacked = laurent.repacked

        def recorded(side, width):
            widths.append(width)
            return repacked(side, width)

        monkeypatch.setattr(laurent, "repacked", recorded)
        for n in range(1, 7):
            widths.clear()
            assert verify_main(n)["equal"], n
            assert widths == [engine._packed_triple_sum(n)[1]] * 2, n
            for k in range(n + 1):
                widths.clear()
                assert engine.verify_inner_sum(n, k)["equal"], (n, k)
                assert widths == [engine._packed_inner_sum(n, k)[1]] * 2, (n, k)

    def test_a_faulty_packed_numerator_fails_with_the_decoded_record(self, monkeypatch):
        # one coefficient off by 1 in the walkers' packed ints, read by both
        # the at-X comparison and the decoded report
        from whitdim import engine
        from whitdim.laurent import unpack

        def faulty(walk):
            def walked(*args):
                value, width, bound = walk(*args)
                low = unpack(value, width, bound).min_exp
                return value + (1 << width * (low + 1)), width, bound
            return walked

        walk = engine._packed_triple_sum

        walk.cache_clear()
        monkeypatch.setattr(engine, "_packed_triple_sum", faulty(walk))
        monkeypatch.setattr(engine, "_packed_inner_sum", faulty(engine._packed_inner_sum))
        try:
            for n in (1, 2, 3, 4):
                lhs, rhs = closed_product(n), dimension_sum(n)
                assert lhs != rhs, n
                assert _untimed(verify_main(n)) == _record("main", {"n": n}, lhs, rhs), n
            for n, k in ((1, 0), (3, 1), (4, 4)):
                lhs, rhs = inner_sum_sides(n, k)
                assert lhs != rhs, (n, k)
                want = _record("inner-sum", {"n": n, "k": k}, lhs, rhs)
                assert _untimed(engine.verify_inner_sum(n, k)) == want, (n, k)
        finally:
            walk.cache_clear()

    def test_a_side_past_the_width_moves_the_comparison_to_its_width(self, monkeypatch):
        # when the closed side's bound needs a wider width than the
        # walker's, the comparison moves to that width: the walker's int is
        # decoded and packed again there, the closed side is packed there
        # straight and never decoded, and the record is unchanged
        from whitdim import engine, laurent

        unpacked, packed = [], []
        unpack, pack, l1 = laurent.unpack, laurent.pack, laurent.l1

        def counted_unpack(value, width, bound):
            unpacked.append((value, width))
            return unpack(value, width, bound)

        def counted_pack(poly, width):
            packed.append((poly, width))
            return pack(poly, width)

        engine._packed_triple_sum.cache_clear()
        monkeypatch.setattr(laurent, "unpack", counted_unpack)
        monkeypatch.setattr(laurent, "pack", counted_pack)
        try:
            for n in (2, 5):
                walk = engine._packed_triple_sum(n)
                closed = closed_product(n)
                side = closed.num if n % 2 else -closed.num
                want = _record("main", {"n": n}, closed, dimension_sum(n))
                # the closed side's true l1 norm, then one whose product
                # with the norms of (q;q)_n^4 is about 2^(width + 2), which
                # needs one byte more than the walker's width
                wide = 2 ** (walk[1] + 2) // laurent.qq_norms(n)[n] ** 4
                for norm, width in ((l1(side), walk[1]), (wide, walk[1] + 8)):
                    monkeypatch.setattr(
                        laurent, "l1", lambda poly, norm=norm: norm if poly == side else l1(poly))
                    unpacked.clear()
                    packed.clear()
                    assert _untimed(verify_main(n)) == want, (n, width)
                    repack = width > walk[1]
                    want_packed = [(unpack(*walk), width)] * repack + [(side, width)]
                    assert packed == want_packed, (n, width)
                    assert unpacked == [walk[:2]] * repack, (n, width)
        finally:
            monkeypatch.undo()
            engine._packed_triple_sum.cache_clear()

    def test_bad_parameters_are_rejected_before_walking(self, monkeypatch):
        from whitdim import engine

        def forbidden(*args):
            raise AssertionError("walked out of range")

        monkeypatch.setattr(engine, "_packed_inner_sum", forbidden)
        monkeypatch.setattr(engine, "_packed_triple_sum", forbidden)
        for n, k in ((2, 3), (2, -1), (0, 0)):
            with pytest.raises(ValueError):
                engine.verify_inner_sum(n, k)
        with pytest.raises(ValueError):
            verify_main(0)

    def test_a_side_with_a_denominator_is_never_equal_at_x(self, monkeypatch):
        # only a polynomial packs: a side over 2 with the closed product's
        # numerator is not the sum, though its numerator's value at X is
        from whitdim import engine
        from whitdim.laurent import same_at_x

        for n in (1, 3):
            closed = closed_product(n)
            packed = engine._packed_triple_sum(n)
            tops, shift = (n,) * 4, 3 * n * n
            assert same_at_x(packed, closed.num if n % 2 else -closed.num, (), tops, shift)
            halved = gcd_fraction(closed.num, 2)
            assert halved.num == closed.num and not halved.denominator_is_one
            monkeypatch.setattr(engine, "closed_product", lambda n, halved=halved: halved)
            record = verify_main(n)
            monkeypatch.undo()
            assert record["equal"] is False, n
            assert _untimed(record) == _record("main", {"n": n}, halved, dimension_sum(n)), n


class TestCompactSides:
    def test_n1_sides(self):
        lhs, rhs = _compact_sides(1)
        assert lhs == gcd_fraction(Q(3), ONE - Q(1))
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
            return poly_add(out, LaurentPoly.monomial(out.min_exp + 1))  # one coefficient off by 1

        monkeypatch.setattr(engine, "_inner_sum_numerator", faulty)
        for n, k in ((1, 0), (3, 1), (4, 4)):
            lhs, rhs = inner_sum_sides(n, k)
            assert lhs != rhs, (n, k)
            want = gcd_fraction(faulty(n, k), poly_pow(qq(n), 2) * qq(k))
            assert lhs.to_json_dict() == want.to_json_dict(), (n, k)
            assert not lhs.denominator_is_one, (n, k)

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
            return poly_add(out, LaurentPoly.monomial(out.min_exp))  # one coefficient off by 1

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
                restricted = ZERO
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
                            restricted - num if (k + m + ell) % 2 else poly_add(restricted, num)
                        )
                flat_k = gcd_fraction(restricted, poly_pow(qq(n), 5))
                outer = gcd_fraction(
                    LaurentPoly.monomial(k * n + k * (k - 1) // 2, (-1) ** k), qq(k)
                )
                inner = gcd_fraction(nested_inner_numerator(n, k), poly_pow(qq(n), 4))
                assert flat_k == frac_mul(outer, inner), (n, k)


def _decoded_oracle(n):
    from whitdim import engine
    from whitdim.laurent import unpack

    return unpack(*engine._packed_nested_triple(n))


class TestGroupedSumOracle:
    # the oracle caches its last n; each test clears it so nothing is reused
    def test_matches_per_term_reference(self):
        # every (k, m, l) term built on its own from dense (q;q) products
        from whitdim.engine import _packed_nested_triple

        _packed_nested_triple.cache_clear()
        for n in range(1, 7):
            assert _decoded_oracle(n) == _per_term_triple_sum(n, 1, 0), n

    def test_matches_k_outer_reference_and_walker(self):
        # the prefix-sharing oracle against the O(n^4) k-outer reference,
        # and against the triple walker at sizes the reference would make slow
        from whitdim import engine

        engine._packed_nested_triple.cache_clear()
        engine._packed_triple_sum.cache_clear()
        for n in range(1, 13):
            oracle = _decoded_oracle(n)
            if n <= 10:
                assert oracle == k_outer_triple_numerator(n), n
            assert oracle == engine._triple_sum_numerator(n), n

    def test_decoded_oracle_equals_the_laurent_poly_oracle(self):
        # the same loops on LaurentPoly values, with the LaurentPoly q-Pascal
        # table, in tests/helpers.py: the packed oracle's int decodes to it
        from whitdim import engine

        engine._packed_nested_triple.cache_clear()
        for n in range(1, 13):
            assert _decoded_oracle(n) == nested_triple_numerator(n), n

    def test_oracle_bound_dominates_its_value(self):
        # the oracle's own bound, summed over its terms from its factors'
        # l1 norms, against the true largest coefficient, and equal to the
        # same sum with every factor multiplied out on its own
        
        from helpers import _l1_of_factors

        from whitdim import engine

        engine._packed_nested_triple.cache_clear()
        for n in range(1, 13):
            value, width, bound = engine._packed_nested_triple(n)
            assert bound == engine._nested_bound(n), n
            assert max(map(abs, _decoded_oracle(n).coeffs)) <= bound, n
            if n <= 6:
                def tail(j):
                    return _l1_of_factors(range(j + 1, n + 1))

                want = 0
                for ell in range(n + 1):
                    for m in range(n - ell + 1):
                        for k in range(n - ell + 1):
                            want += (comb(n, m) * comb(n - m, ell) * tail(n - k - ell) * tail(k)
                                     * _l1_of_factors(range(1, 3 * n - k - m - ell))
                                     * _l1_of_factors(range(1, n + 1)) ** 3)
                assert bound == want, n

    def test_oracles_never_divide_or_accumulate(self, monkeypatch):
        # the cross-check must share no stepping, summation or closing code
        # with the walkers, and call neither of them: no div_packed, no
        # horner_close, no walker and no walker's bound
        from whitdim import engine, laurent

        def forbidden(*args, **kwargs):
            raise AssertionError("oracle used a walker kernel")

        def run():
            engine._packed_nested_triple.cache_clear()
            return [engine._packed_nested_triple(n) for n in range(1, 6)]

        expected = run()
        monkeypatch.setattr(LaurentPoly, "div_one_minus_q", forbidden)
        for module in (engine, laurent):
            for name in ("horner_close", "div_packed", "unpack", "pack", "repacked"):
                monkeypatch.setattr(module, name, forbidden)
        for name in ("_triple_sum_numerator", "_inner_sum_numerator", "_packed_triple_sum",
                     "_packed_inner_sum", "_triple_bound", "_inner_bound"):
            monkeypatch.setattr(engine, name, forbidden)
        assert run() == expected

    def test_chain_builds_the_oracle_once_per_n(self, monkeypatch):
        # simplify-regrouped-sum, conclusion-group-by-k and
        # conclusion-reindex-outer share one oracle value per n: one build,
        # a cache miss, and two cache hits for each of n = 1..3
        import contextlib
        import io

        from whitdim import engine
        from whitdim.cli import EXIT_OK, main

        engine._packed_nested_triple.cache_clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # count in-process
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chain", "--n", "1..3"]) == EXIT_OK
        info = engine._packed_nested_triple.cache_info()
        assert (info.misses, info.hits) == (3, 6)


class TestWalkers:
    # every term built on its own from dense (q;q) and tail products, so the
    # s-grouped factoring is checked against code that is neither walker nor oracle

    def test_triple_walker_matches_per_term_reference(self):
        # the walker's one form, and the literal-sign form dimension_sum makes of it
        from whitdim.engine import _packed_triple_sum, _triple_sum_numerator

        _packed_triple_sum.cache_clear()
        for n in range(1, 7):
            assert _triple_sum_numerator(n) == _per_term_triple_sum(n, 1, 0), n
            expected = gcd_fraction(
                _per_term_triple_sum(n, 2, n + 1), poly_pow(qq(n), 5).shifted(3 * n * n)
            )
            assert dimension_sum(n) == expected, n

    def test_inner_walker_matches_per_term_reference(self):
        # a numerator over (q;q)_n^2 (q;q)_k: the summand's T_k is left out
        from whitdim.engine import _inner_sum_numerator

        for n in range(1, 7):
            for k in range(n + 1):
                total = ZERO
                for m in range(n + 1):
                    for ell in range(min(k, n - m) + 1):
                        e = m * k + m * (m - 1) // 2 + ell * (ell - 1) // 2
                        num = (
                            qq(2 * n + k - m - ell - 1)
                            * _tail(m, n) * _tail(ell, n) * _tail(n - m - ell, n)
                            * _tail(k - ell, k)
                        ).shifted(e)
                        total = total - num if (m + ell) % 2 else poly_add(total, num)
                assert _inner_sum_numerator(n, k) == total, (n, k)

    def test_walkers_step_each_orbit_once(self):
        # at fixed l, with N = n - l, V is stepped only at the representatives
        # of its symmetries (k -> N-k, m -> N-m and k <-> m in the triple
        # sum, m -> N-m in the inner sums), and each term is added once.
        # A step ends in one packed division, and a term is one call of the
        # walker's add; both are counted by a profile hook
        import sys
        from collections import Counter

        from whitdim import engine

        def count(walk, *args):
            calls = Counter()

            def profile(frame, event, arg):
                if event == "call":
                    calls[frame.f_code.co_qualname] += 1

            sys.setprofile(profile)
            try:
                walk(*args)
            finally:
                sys.setprofile(None)
            return calls

        for n in range(1, 9):
            # every representative but the first is one step from another;
            # a step in a divides twice, one in l, b or m once
            tops = range(n, -1, -1)
            terms = sum((top + 1) * (top + 2) // 2 for top in tops)
            reps = sum((top // 2 + 1) * (top // 2 + 2) // 2 for top in tops)
            engine._packed_triple_sum.cache_clear()
            calls = count(engine._packed_triple_sum, n)
            assert calls["_packed_triple_sum.<locals>.add"] == terms, n
            assert calls["div_packed"] == reps - 1 + n // 2, n
            for k in range(n + 1):
                tops = range(n, n - k - 1, -1)
                terms = sum(top + 1 for top in tops)
                reps = sum(top // 2 + 1 for top in tops)
                calls = count(engine._packed_inner_sum, n, k)
                assert calls["_packed_inner_sum.<locals>.add"] == terms, (n, k)
                assert calls["div_packed"] == reps - 1, (n, k)
                # lemma1 then divides by (q;q)_n^2 (q;q)_k: 2n + k list passes
                calls = count(engine.inner_sum_sides, n, k)
                assert calls["div_packed"] == reps - 1, (n, k)
                assert calls["LaurentPoly.div_one_minus_q"] == 2 * n + k, (n, k)

    def test_width_bounds_match_a_from_scratch_l1_sum(self):
        from helpers import _l1_of_factors

        from whitdim import engine, laurent

        for n in range(1, 7):
            want = [_l1_of_factors(range(j + 1, n + 1)) for j in range(n + 1)]
            assert laurent.tail_norms(n) == want, n
            assert engine._triple_bound(n) == triple_l1_bound(n), n
            for k in range(n + 1):
                assert engine._inner_bound(n, k) == inner_l1_bound(n, k), (n, k)

    def test_width_bounds_dominate_the_walker_output(self):
        from whitdim import engine

        def height(p):
            return max(map(abs, p.coeffs))

        engine._packed_triple_sum.cache_clear()
        for n in range(1, 13):
            assert height(engine._triple_sum_numerator(n)) <= engine._triple_bound(n), n
            for k in range(n + 1):
                got = height(engine._inner_sum_numerator(n, k))
                assert got <= engine._inner_bound(n, k), (n, k)

    def test_an_undersized_width_fails_the_unpack_check(self, monkeypatch):
        # the proved width is the whole soundness argument: with a bound of
        # 2^21 the width is 24 bits, below the 29 bits of the numerator's
        # largest coefficient at n = 16, so the digits read back are not its
        # coefficients, and the check after unpacking must say so
        from whitdim import engine
        from whitdim.laurent import packed_width

        clear = engine._packed_triple_sum.cache_clear
        n, false_bound = 16, 2**21 - 1
        clear()
        true = engine._triple_sum_numerator(n)
        assert max(map(abs, true.coeffs)) >= 2 ** (packed_width(false_bound) - 1)
        monkeypatch.setattr(engine, "_triple_bound", lambda n: false_bound)
        clear()
        try:
            with pytest.raises(ValueError, match="exceeds its bound"):
                engine._triple_sum_numerator(n)
        finally:
            clear()

    def test_walkers_never_close_with_the_oracles(self, monkeypatch):
        # the other side of test_oracles_never_divide_or_accumulate
        from whitdim import engine

        def forbidden(*args, **kwargs):
            raise AssertionError("walker used oracle code")

        def run():
            engine._packed_triple_sum.cache_clear()
            out = [engine._triple_sum_numerator(4)]
            return out + [engine._inner_sum_numerator(4, k) for k in range(5)]

        expected = run()
        for name in ("_packed_nested_triple", "_nested_bound", "packed_qpascal"):
            monkeypatch.setattr(engine, name, forbidden)
        assert run() == expected

    def test_chain_walks_the_triple_sum_once_per_n(self, monkeypatch):
        # simplify-regrouped-sum and conclusion-group-by-k share one cached
        # walk per n, and it is decoded once, for the regrouped-sum record:
        # one cache miss of the walk and one decoding for each of
        # n = 1..3, and two hits of the walk, one comparison at X in each
        # step (at n <= 3 the walker's width is the oracle's, so the
        # comparisons decode nothing)
        import contextlib
        import io

        from whitdim import engine
        from whitdim.cli import EXIT_OK, main

        decodings = []
        decode = engine._triple_sum_numerator

        def counted(n):
            decodings.append(n)
            return decode(n)

        engine._packed_triple_sum.cache_clear()
        monkeypatch.setattr(engine, "_triple_sum_numerator", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # count in-process
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["chain", "--n", "1..3"]) == EXIT_OK
        walks = engine._packed_triple_sum.cache_info()
        assert (walks.misses, walks.hits) == (3, 6)
        assert decodings == [1, 2, 3]


def _packed_plus_one(real):
    """real, a function returning (value, width, bound), with the constant
    coefficient of its packed polynomial off by 1."""
    def faulty(*args):
        value, width, bound = real(*args)
        return value + 1, width, bound
    return faulty


def _poly_plus_one(real, when=lambda *args: True):
    """real, a function returning a LaurentPoly, with its lowest coefficient
    off by 1 on the calls that when accepts."""
    def faulty(*args):
        out = real(*args)
        return poly_add(out, LaurentPoly.monomial(out.min_exp)) if when(*args) else out
    return faulty


def _clear_walks():
    from whitdim import engine

    for cached in (engine._packed_triple_sum, engine._packed_nested_triple):
        cached.cache_clear()


def _fault_literal(monkeypatch, engine, n):
    # every literal (q^i - 1) product at X one coefficient off
    real = engine.times_literal_range_packed
    monkeypatch.setattr(engine, "times_literal_range_packed", lambda *args: real(*args) + 1)


def _fault_walker(monkeypatch, engine, n):
    monkeypatch.setattr(engine, "_packed_triple_sum", _packed_plus_one(engine._packed_triple_sum))


def _fault_oracle(monkeypatch, engine, n):
    monkeypatch.setattr(engine, "_packed_nested_triple",
                        _packed_plus_one(engine._packed_nested_triple))


def _fault_closed_product(monkeypatch, engine, n):
    real = engine.closed_product
    monkeypatch.setattr(engine, "closed_product",
                        lambda n: RF(poly_add(real(n).num, LaurentPoly.one())))


def _fault_inner_walker(monkeypatch, engine, n):
    monkeypatch.setattr(engine, "_packed_inner_sum", _packed_plus_one(engine._packed_inner_sum))


def _fault_inner_closed_form(monkeypatch, engine, n):
    monkeypatch.setattr(engine, "inner_sum_rhs_poly", _poly_plus_one(engine.inner_sum_rhs_poly))


def _fault_poch(lo, hi):
    # the packed Pochhammer product prod_{i=lo..hi} (1 - q^i), built by
    # times_range_packed from 1, one coefficient off; at n = 2 no other
    # product from 1 has this (lo, hi)
    def fault(monkeypatch, engine, n):
        real = engine.times_range_packed

        def faulty(value, width, a, b):
            out = real(value, width, a, b)
            return out + 1 if (value, a, b) == (1, lo, hi) else out
        monkeypatch.setattr(engine, "times_range_packed", faulty)
    return fault


def _fault_series(name, when, j=1):
    # the packed numerator list from qseries that name builds, its x^j
    # numerator one coefficient off on the calls when accepts
    def fault(monkeypatch, engine, n):
        real = getattr(engine, name)

        def faulty(*args):
            nums = real(*args)
            if when(*args):
                nums[j] += 1
            return nums
        monkeypatch.setattr(engine, name, faulty)
    return fault


# fault -> the steps at n = 2 that must report it (the step it is an input
# of, and the later steps that read that step's value)
FAULTS = {
    "literal-products": (_fault_literal, {
        "simplify-factorial-signs", "simplify-long-range", "simplify-k-tail",
        "simplify-m-tail"}),
    "triple-walker": (_fault_walker, {"simplify-regrouped-sum", "conclusion-group-by-k"}),
    "triple-oracle": (_fault_oracle, {"simplify-regrouped-sum", "conclusion-group-by-k",
                                      "conclusion-reindex-outer"}),
    "closed-product": (_fault_closed_product, {"simplify-normalized-lhs"}),
    "inner-walker": (_fault_inner_walker, {"conclusion-reindex-outer",
                                           "conclusion-plug-closed-form"}),
    "inner-closed-form": (_fault_inner_closed_form, {"conclusion-plug-closed-form",
                                                     "conclusion-normalize-power"}),
    # (q^(k+1);q)_(n-1) at k = 2, of the single k-sum and of the rewrites
    "single-k-sum": (_fault_poch(3, 3), {
        "conclusion-normalize-power", "conclusion-pochhammer-split"}),
    # (q^n;q)_k at k = 2, of the pulled k-sum and of the rewrites
    "pulled-k-sum": (_fault_poch(2, 3), {
        "conclusion-pochhammer-split", "conclusion-coefficient-extraction"}),
    # a numerator of either bracket one off moves h_n, by [n, j]_q times a
    # nonzero numerator of the other: (-1)^j (q^n;q)_j at j = 1, q^C(j,2)
    # at j = n
    "bracket-series": (_fault_series("qbinom_numerators", lambda a, order, width: True), {
        "conclusion-coefficient-extraction", "conclusion-telescoped-series"}),
    "euler-bracket-series": (_fault_series("euler_numerators",
                                           lambda e, order, width: e == 0, j=2), {
        "conclusion-coefficient-extraction", "conclusion-telescoped-series"}),
    "telescoped-series": (_fault_series("euler_numerators", lambda e, order, width: e == 2), {
        "conclusion-telescoped-series"}),
}


class TestCrossChecksCatchFaults:
    # every step decided at X reports an input one coefficient off, and the
    # command exits 1
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_a_faulty_input_fails_its_steps(self, monkeypatch, fault):
        import contextlib
        import io

        from whitdim import engine
        from whitdim.cli import EXIT_FAILED, main

        inject, want = FAULTS[fault]
        _clear_walks()
        inject(monkeypatch, engine, 2)
        try:
            records = simplification_chain(2) + conclusion_chain(2)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["chain", "--n", "2"]) == EXIT_FAILED
        finally:
            monkeypatch.undo()
            _clear_walks()
        assert {r["identity"] for r in records if not r["equal"]} == want
        for r in records:
            if not r["equal"] and isinstance(r["lhs"], dict):
                assert r["lhs"] != r["rhs"], r["identity"]  # the decoded sides

    def test_perturbed_walker_is_reported(self, monkeypatch):
        from whitdim import engine

        _clear_walks()
        monkeypatch.setattr(engine, "_packed_triple_sum",
                            _packed_plus_one(engine._packed_triple_sum))
        try:
            for n in (1, 2, 3):
                reports = {
                    r["identity"]: r for r in simplification_chain(n) + conclusion_chain(n)
                }
                assert reports["simplify-regrouped-sum"]["equal"] is False, n
                assert reports["conclusion-group-by-k"]["equal"] is False, n
                # the record is the decoded one: the walker's numerator and
                # the oracle's, each over (q;q)_n^5
                walker = engine._triple_sum_numerator(n)
                assert reports["simplify-regrouped-sum"]["lhs"] == RF(walker, (n,) * 5).to_json_dict()
                assert reports["simplify-regrouped-sum"]["rhs"] == RF(
                    _decoded_oracle(n), (n,) * 5).to_json_dict()
        finally:
            monkeypatch.undo()
            _clear_walks()

    def test_perturbed_oracle_is_reported(self, monkeypatch):
        from whitdim import engine

        _clear_walks()
        monkeypatch.setattr(engine, "_packed_nested_triple",
                            _packed_plus_one(engine._packed_nested_triple))
        try:
            for n in (1, 2, 3):
                reports = {
                    r["identity"]: r["equal"]
                    for r in simplification_chain(n) + conclusion_chain(n)
                }
                assert reports["simplify-regrouped-sum"] is False, n
                assert reports["conclusion-group-by-k"] is False, n
        finally:
            monkeypatch.undo()
            _clear_walks()


def _height(p):
    return max(map(abs, p.coeffs), default=0)


class TestChainWidths:
    # the chains compare at the wider of two proved widths, re-packing the
    # narrower side, and never at a width that some side's bound does not fit

    def test_chain_bounds_dominate_what_they_bound(self):
        # every bound a chain step packs a side at, against the largest
        # coefficient of that side built as a LaurentPoly, for n <= 12
        from helpers import euler_series, qbinom_series, series_mul, times_qq_range

        from whitdim import engine
        from whitdim.laurent import qq_norms
        from whitdim.qseries import poch_power

        for n in range(1, 13):
            qqs = qq_norms(3 * n - 1)
            # the range rewrites and the factorial signs: 2^hi and 2^(2n)
            for lo in range(n + 1):
                for hi in range(lo, 3 * n):
                    lhs = times_qq_range(q_power_minus_one_range(lo + 1, hi), 1, lo)
                    assert max(_height(lhs), _height(qq(hi))) <= 2 ** hi, (n, lo, hi)
            for k in range(n + 1):
                assert _height(times_qq_range(qq(k), 1, n)) <= 2 ** (2 * n), (n, k)
            # the sums of reindex-outer and plug-closed-form are the triple
            # sum's numerator, which normalize-power multiplies by (q;q)_n
            triple = engine._triple_sum_numerator(n)
            inner_bounds = [engine._inner_bound(n, k) for k in range(n + 1)]
            assert _height(triple) <= engine._reindexed_bound(n, inner_bounds), n
            plugged = engine._single_bound(n) * qqs[n] ** 4
            assert _height(triple) <= plugged, n
            assert _height(times_qq_range(triple, 1, n)) <= plugged * qqs[n], n
            # the single and the pulled k-sums, and the sides they are on
            single = pulled = ZERO
            for k in range(n + 1):
                term = times_qq_range(poch_power(k + 1, n - 1), n - k + 1, n).shifted(comb(n - k, 2))
                single = single - term if k % 2 else poly_add(single, term)
                term = times_qq_range(poch_power(n, k), k + 1, n)
                term = times_qq_range(term, n - k + 1, n).shifted(comb(n - k, 2))
                pulled = pulled - term if k % 2 else poly_add(pulled, term)
            assert _height(single) <= engine._single_bound(n), n
            assert _height(poly_pow(qq(n), 5) * single) <= engine._single_bound(n) * qqs[n] ** 5, n
            assert _height(times_qq_range(single, 1, n)) <= engine._single_bound(n) * qqs[n], n
            assert _height(pulled) <= engine._pulled_bound(n), n
            assert _height(times_qq_range(pulled, 1, n - 1)) <= engine._pulled_bound(n) * qqs[n - 1], n
            # the Pochhammer rewrites: n - 1 + k <= 2n - 1 factors
            for k in range(n + 1):
                rewrite = times_qq_range(poch_power(k + 1, n - 1), 1, k)
                assert _height(rewrite) <= 2 ** (2 * n - 1), (n, k)
            # the series product: every h_t is bounded by 3^t, and its x^n
            # numerator times (q;q)_n by 3^n ||(q;q)_n||_1
            bracket1 = qbinom_series(n, n).alternate_x()
            bracket2 = euler_series(0, n).alternate_x()
            product = series_mul(bracket1, bracket2).nums
            assert len(product) == n + 1
            assert all(_height(h) <= 3 ** t for t, h in enumerate(product)), n
            assert _height(times_qq_range(product[n], 1, n)) <= 3 ** n * qqs[n], n
    def _records(self, n):
        return [_untimed(r) for r in simplification_chain(n) + conclusion_chain(n)]

    def test_a_wider_oracle_bound_moves_every_comparison_to_its_width(self, monkeypatch):
        # each same_at_x call packs both its sides at the one width it
        # picks, through laurent.repacked: the set of those widths per call
        from whitdim import engine, laurent

        widths = []
        same_at_x, repacked = laurent.same_at_x, laurent.repacked

        def recorded(*args):
            widths.append(set())
            return same_at_x(*args)

        def packed_at(side, width):
            widths[-1].add(width)
            return repacked(side, width)

        for n in (2, 5, 8):
            _clear_walks()
            want = self._records(n)
            wide = engine._packed_triple_sum(n)[1] + 24
            monkeypatch.setattr(engine, "_nested_bound", lambda n, wide=wide: 2 ** (wide - 3))
            monkeypatch.setattr(engine, "same_at_x", recorded)
            monkeypatch.setattr(laurent, "repacked", packed_at)
            _clear_walks()
            widths.clear()
            assert self._records(n) == want, n
            monkeypatch.undo()
            # regrouped-sum, group-by-k and reindex-outer at the oracle's width,
            # plug-closed-form at reindex-outer's, normalize-power at least
            # at plug-closed-form's; then pochhammer-split and
            # coefficient-extraction, whose sides are not the oracle's
            assert widths[:4] == [{wide}] * 4, n
            assert len(widths) == 7 and len(widths[4]) == 1 and min(widths[4]) >= wide, n
        _clear_walks()

    def test_swapped_tops_fail_normalize_power(self, monkeypatch):
        # conclusion-normalize-power is plugged (q;q)_n == single q^shift
        # (q;q)_n^5: with the tops of the two sides swapped, the comparison
        # it makes is False
        from whitdim import engine, laurent

        calls = []

        def recorded(*args):
            calls.append(args)
            return laurent.same_at_x(*args)

        monkeypatch.setattr(engine, "same_at_x", recorded)
        for n in (1, 2, 5):
            calls.clear()
            records = {r["identity"]: r["equal"] for r in conclusion_chain(n)}
            assert records["conclusion-normalize-power"], n
            # (d) is the only comparison with a shift
            [(a, b, a_tops, b_tops, shift)] = [args for args in calls if len(args) == 5]
            assert (a_tops, b_tops, shift) == ((n,), (n,) * 5, 2 * n * n + comb(n, 2)), n
            assert laurent.same_at_x(a, b, a_tops, b_tops, shift), n
            assert not laurent.same_at_x(a, b, b_tops, a_tops, shift), n

    def test_a_narrower_oracle_bound_takes_the_decode_path(self, monkeypatch):
        # a bound that still holds but needs a narrower width than the
        # walker's: the oracle is decoded and packed again at the walker's
        # width, and the records are the same
        from whitdim import engine, laurent

        decoded = []
        unpack = laurent.unpack

        def counted(value, width, bound):
            decoded.append((value, width))
            return unpack(value, width, bound)

        for n in (3, 6):
            _clear_walks()
            want = self._records(n)
            height = max(map(abs, _decoded_oracle(n).coeffs))
            oracle_width = laurent.packed_width(height)
            assert oracle_width < engine._packed_triple_sum(n)[1], n
            monkeypatch.setattr(engine, "_nested_bound", lambda n, height=height: height)
            monkeypatch.setattr(laurent, "unpack", counted)
            _clear_walks()
            decoded.clear()
            assert self._records(n) == want, n
            monkeypatch.undo()
            # the oracle, decoded at its own width in regrouped-sum,
            # group-by-k and reindex-outer, whose sides all need wider ones
            oracle = engine._packed_nested_triple(n)
            assert oracle[1] == oracle_width, n
            assert decoded.count(oracle[:2]) == 3, n
        _clear_walks()

    def test_a_bound_below_the_coefficients_fails_the_decoding(self, monkeypatch):
        # a bound the oracle's coefficients exceed makes a width too narrow
        # to read them: the decoding that re-packs the oracle raises, and no
        # verdict is written
        from whitdim import engine

        monkeypatch.setattr(engine, "_nested_bound", lambda n: 1)
        _clear_walks()
        try:
            with pytest.raises(ValueError, match="exceeds its bound"):
                simplification_chain(4)
        finally:
            monkeypatch.undo()
            _clear_walks()


def _clear_engine_caches():
    from whitdim import engine, laurent, qseries

    for cached in (qseries.qq, laurent.tail_norms, engine._packed_nested_triple,
                   engine._packed_triple_sum):
        cached.cache_clear()
    laurent._QQ_L1.clear()
    laurent._qq_l1_more = laurent._qq_l1_norms()


def _step_windows(monkeypatch, n, watch=()):
    """Run both chains' steps at n from cold caches, one window per step.

    Returns {identity: (times, divs, combines, passes, products, first
    calls)}: the LaurentPoly times_one_minus_q, div_one_minus_q and
    laurent._combine calls made between the step's yield and the previous
    one; the packed shift-subtract passes, one per factor of each
    times_range_packed and times_literal_range_packed call from laurent,
    engine or qseries; the int
    products of an entry of the packed q-Pascal table with another int; and
    the engine functions named in watch that were called in that window and
    not before.
    """
    from whitdim import engine, laurent, qseries

    names = ("times", "div", "combine", "passes", "products")
    counts = dict.fromkeys(names, 0)
    seen, first = set(), []

    class PascalEntry(int):
        # an entry of the packed q-Pascal table, counting its products
        def __mul__(self, other):
            counts["products"] += 1
            return int(self) * int(other)

        __rmul__ = __mul__

    def pascal(real):
        def wrapper(top, width):
            return [[PascalEntry(x) for x in row] for row in real(top, width)]
        return wrapper

    def counted(name, real, weight=lambda *args: 1):
        def wrapper(*args):
            counts[name] += weight(*args)
            return real(*args)
        return wrapper

    def factors(value, width, lo, hi):
        return max(hi - lo + 1, 0)

    def watched(name, real):
        def wrapper(*args):
            if name not in seen:
                seen.add(name)
                first.append(name)
            return real(*args)
        return wrapper

    _clear_engine_caches()
    monkeypatch.setattr(LaurentPoly, "times_one_minus_q",
                        counted("times", LaurentPoly.times_one_minus_q))
    monkeypatch.setattr(LaurentPoly, "div_one_minus_q",
                        counted("div", LaurentPoly.div_one_minus_q))
    monkeypatch.setattr(laurent, "_combine", counted("combine", laurent._combine))
    for module in (laurent, engine, qseries):
        for name in ("times_range_packed", "times_literal_range_packed"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted("passes", getattr(module, name), factors))
    for module in (engine, qseries):
        monkeypatch.setattr(module, "packed_qpascal", pascal(module.packed_qpascal))
    for name in watch:
        monkeypatch.setattr(engine, name, watched(name, getattr(engine, name)))
    windows = {}
    for steps in (engine._simplification_steps(n), engine._conclusion_steps(n)):
        for identity, *_ in steps:
            windows[identity] = (*(counts[name] for name in names), tuple(first))
            counts.update(dict.fromkeys(names, 0))
            first.clear()
    monkeypatch.undo()
    _clear_engine_caches()
    return windows


class TestChainWork:
    def test_each_step_does_its_pinned_polynomial_work(self, monkeypatch):
        # Per step at n = 6 from cold caches: LaurentPoly (1 - q^j) passes
        # (times, divides) and _combine calls, packed shift-subtract passes,
        # and int products of a packed q-Pascal entry.  A step that rebuilds
        # a shared prefix per tuple, or applies a k-independent factor per
        # k, does more.  Each fraction a record serialises is reduced by the
        # constructor: per j, largest first, one division per copy of
        # (1 - q^j) until one fails; one division and 0, 1, 1, 1, 1, 2
        # products for each Phi_d tried, d = 1..6, d | a kept j (none
        # divides here); one product per kept j.  Over (q;q)_6^5 with one
        # (1 - q^6) kept that is 5 products and 30 + 4 divisions, over
        # (q;q)_6 with (1 - q^6) kept 5 and 6 + 4.  Steps decided at X
        # reduce one side only, and only that side's record is built.
        want = {
            "simplify-q-power": (0, 0, 0, 0, 0),
            # the literal product, and (q;q)_(n-1): one combine per factor
            # of each
            "simplify-closed-product": (0, 0, 5 + 5, 0, 0),
            "simplify-monomial-merge": (0, 0, 0, 0, 0),
            # the range-sign table, which the four range steps read: per
            # lo >= 1 one pass from (q;q)_(lo-1), then 2 passes per (lo, hi)
            # with lo < hi < 3n: 6 + 2 * (17 + 16 + ... + 11)
            "simplify-factorial-signs": (0, 0, 0, 6 + 2 * 98, 0),
            "simplify-l-power": (0, 0, 0, 0, 0),
            "simplify-long-range": (0, 0, 0, 0, 0),
            "simplify-k-tail": (0, 0, 0, 0, 0),
            "simplify-m-tail": (0, 0, 0, 0, 0),
            # n + 3n - 1 passes for the l1 norms of the tails and of
            # (q;q)_0..(q;q)_(3n-1), then one side over (q;q)_n^5.  The
            # walker's counted passes are its (q;q)_n^3 start, the end of
            # its Horner close, (q;q)_(3n-1-2n), and its last (q;q)_n:
            # 18 + 5 + 6.  The oracle's are n per (m, l) (T_(n-l), then one
            # per k >= 1) over 28 pairs, n per s in the fold, then
            # (q;q)_(3n-s-1) for s = 0..2n, and (q;q)_n^3 at the end:
            # 168 + 78 + 143 + 18; one product per (m, l)
            "simplify-regrouped-sum": (23 + 5, 34, 0, 29 + 407, 28),
            # one side over (q;q)_n; closed_product's (q;q)_(n-1) is
            # poch_power(1, n - 1) again, 5 combines (qq's is cached)
            "simplify-normalized-lhs": (5, 6 + 4, 5, 0, 0),
            "simplify-exponent-total": (0, 0, 0, 0, 0),
            # at n = 6 the walker's width is the oracle's: no re-packing
            "conclusion-group-by-k": (0, 0, 0, 0, 0),
            # k passes per k < n for the inner bounds' (q;q)_k / (q;q)_(k-l),
            # the tails of k (those of n are cached); the inner walkers'
            # (q;q)_n^2 starts and Horner ends, 12 and n + k - 1 per k; then
            # n per k (T_k and T_(n-k)) and (q;q)_n once: 84 + 56 + 42 + 6
            "conclusion-reindex-outer": (15, 0, 0, 84 + 56 + 42 + 6, 0),
            # the closed forms (q^(k+1);q)_(n-1), n - 1 = 5 combines for
            # each of the 7 bases; T_(n-k) per k, then (q;q)_n^4 once:
            # 21 + 4 * 6
            "conclusion-plug-closed-form": (0, 0, 7 * 5, 21 + 24, 0),
            # (q^(k+1);q)_(n-1) from 1, 5 passes per k, and T_(n-k) per k,
            # then (q;q)_n on one side and (q;q)_n^5 on the other:
            # 35 + 21 + 6 + 30; the single k-sum's side over (q;q)_n
            "conclusion-normalize-power": (5, 6 + 4, 0, 35 + 21 + 6 + 30, 0),
            # the rewrites, each side built from 1, 2 (k + n - 1) per k;
            # (q^n;q)_k from 1, k per k, T_k and T_(n-k) per k, then
            # (q;q)_(n-1) and (q;q)_n: 112 + 21 + 42 + 5 + 6.  The record
            # reuses normalize-power's side
            "conclusion-pochhammer-split": (0, 0, 0, 112 + 21 + 42 + 5 + 6, 0),
            # the coefficient over (q;q)_6 keeps every (1 - q^j): 6 + 6
            # products and divisions; the numerators (-1)^j (q^n;q)_j, one
            # pass per j >= 1, and h_n times (q;q)_n: 6 + 6; one product
            # per q-Pascal entry [t, i], t <= 6
            "conclusion-coefficient-extraction": (6 + 6, 6 + 6, 0, 6 + 6, 28),
            "conclusion-telescoped-series": (0, 0, 0, 0, 0),
            "conclusion-exponent-identity": (0, 0, 0, 0, 0),
        }
        got = {identity: w[:5] for identity, w in _step_windows(monkeypatch, 6).items()}
        assert got == want
        assert sum(3 * 6 - 1 - lo for lo in range(7)) == 98

    def test_no_step_works_before_the_previous_steps_yield(self, monkeypatch):
        # each step's work runs between its own yield and the previous one,
        # so its elapsed_ms times it: the sign table is not built in
        # simplify-monomial-merge, nor the oracle in an earlier step
        watch = ("_range_signs", "_triple_sum_numerator", "_packed_nested_triple",
                 "_packed_inner_sum", "inner_sum_rhs_poly")
        for n in (1, 4):
            got = {identity: w[5] for identity, w in _step_windows(monkeypatch, n, watch).items()}
            assert {identity: calls for identity, calls in got.items() if calls} == {
                "simplify-factorial-signs": ("_range_signs",),
                "simplify-regrouped-sum": ("_triple_sum_numerator",
                                           "_packed_nested_triple"),
                "conclusion-reindex-outer": ("_packed_inner_sum",),
                "conclusion-plug-closed-form": ("inner_sum_rhs_poly",),
            }, n

    def test_a_faulty_gaussian_binomial_fails_the_oracle_steps(self, monkeypatch):
        # the oracle's q-multinomials come from the packed q-Pascal table;
        # one coefficient off by one at any (t, i) it reads must be reported
        from whitdim import engine

        real = engine.packed_qpascal
        n = 3
        try:
            for fault in [(t, i) for t in range(n + 1) for i in range(t + 1)]:
                def faulty(top, width, fault=fault):
                    rows = real(top, width)
                    rows[fault[0]][fault[1]] += 1
                    return rows

                monkeypatch.setattr(engine, "packed_qpascal", faulty)
                engine._packed_nested_triple.cache_clear()
                failed = {
                    r["identity"]
                    for r in simplification_chain(n) + conclusion_chain(n)
                    if not r["equal"]
                }
                monkeypatch.undo()
                # conclusion-reindex-outer compares its sum with the oracle too
                assert failed == {"simplify-regrouped-sum", "conclusion-group-by-k",
                                  "conclusion-reindex-outer"}, fault
        finally:
            engine._packed_nested_triple.cache_clear()


def _tail(j, n):
    out = LaurentPoly.one()
    for i in range(j + 1, n + 1):
        out = out.times_one_minus_q(i)
    return out


def _per_term_triple_sum(n, power, parity):
    """The (k, m, l) triple sum numerator, every term built on its own densely."""
    total = ZERO
    for k in range(n + 1):
        for m in range(n + 1):
            for ell in range(n - max(k, m) + 1):
                e = (
                    n * (k + m) - k * m
                    + k * (k - 1) // 2 + m * (m - 1) // 2 + ell * (ell - 1) // 2
                )
                num = (
                    qq(3 * n - k - ell - m - 1) * poly_pow(qq(n), power)
                    * _tail(k, n) * _tail(m, n) * _tail(ell, n)
                    * _tail(n - k - ell, n) * _tail(n - m - ell, n)
                ).shifted(e)
                total = total - num if (parity + k + m + ell) % 2 else poly_add(total, num)
    return total


class TestNumericAgreementAcrossIdentities:
    def test_all_supported_q_points(self):
        points = (2, 3, 4, 5, 7, 8, 9)
        for n in (1, 2, 3):
            for k in range(n + 1):
                lhs, rhs = inner_sum_sides(n, k)
                for q0 in points:
                    assert eval_at(lhs, q0) == eval_at(rhs, q0)


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
            assert all(r["equal"] for r in reports), [
                (r["identity"], r["equal"]) for r in reports if not r["equal"]
            ]
            labels = [r["identity"] for r in reports]
            assert labels[-1] == "simplify-exponent-total"

    def test_conclusion_all_steps(self):
        for n in (1, 2, 3, 4):
            reports = conclusion_chain(n)
            assert len(reports) == 8
            assert all(r["equal"] for r in reports), [
                (r["identity"], r["equal"]) for r in reports if not r["equal"]
            ]

    @pytest.mark.slow
    def test_both_chains_at_n16(self):
        # the largest size the O(n^3) oracle makes cheap: 1-2 s
        reports = simplification_chain(16) + conclusion_chain(16)
        assert len(reports) == 19
        assert all(r["equal"] for r in reports), [
            (r["identity"], r["equal"]) for r in reports if not r["equal"]
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
                r["identity"]: r["lhs"]
                for r in simplification_chain(n)
                if r["identity"] in want
            }
            assert got == {
                name: "verified for %d parameter tuples" % count
                for name, count in want.items()
            }, n

    def test_rewrite_predicates_match_the_rational_function_comparison(self):
        # either stated sign, every tuple at n <= 5: the table's sign gives
        # the verdict of comparing canonical rational functions, for each
        # range statement and for the factorial signs read from it
        from whitdim import engine

        lit = q_power_minus_one_range
        for n in range(1, 6):
            signs = engine._range_signs(n)
            assert set(signs) == {(lo, hi) for lo in range(n + 1) for hi in range(lo, 3 * n)}
            for k, m, ell in _admissible(n):
                top = 3 * n - k - ell - m - 1
                for lo, hi in ((ell, top), (n - k - ell, n), (n - m - ell, n)):
                    for sign in (1, -1):
                        want = gcd_fraction(lit(lo + 1, hi)) == RF(qq(hi) if sign > 0 else -qq(hi), (lo,))
                        assert (signs[lo, hi] == sign) == want, (n, k, m, ell, lo, hi, sign)
            for k in range(n + 1):
                for m in range(n + 1):
                    for sign in (1, -1):
                        want = gcd_fraction(1, lit(1, k) * lit(1, m)) == RF(
                            LaurentPoly(0, (sign,)), (k, m)
                        )
                        assert (signs[0, k] * signs[0, m] == sign) == want, (n, k, m, sign)

    def test_rewrite_predicates_never_divide_or_canonicalise(self, monkeypatch):
        from whitdim import engine, rational

        def forbidden(*args, **kwargs):
            raise AssertionError("a cross-multiplied predicate canonicalised")

        for module, name in ((engine, "RationalFunctionQ"), (rational, "_cancel")):
            monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(LaurentPoly, "div_one_minus_q", forbidden)
        monkeypatch.setattr(engine, "div_packed", forbidden)
        n = 4
        signs = engine._range_signs(n)
        for k, m, ell in _admissible(n):
            assert signs[ell, 3 * n - k - m - ell - 1] == (-1) ** (n + k + m + 1)
            assert signs[n - k - ell, n] == (-1) ** (k + ell)
            assert signs[0, k] * signs[0, m] == (-1) ** (k + m)

    def test_a_dropped_literal_factor_fails_every_tuple_of_its_statement(
        self, monkeypatch
    ):
        # every range statement is read from one table; dropping the literal
        # factor (q^f - 1) wherever it is multiplied in must fail exactly
        # the tuples whose statement's literal product contains it
        from whitdim import engine

        real = engine.times_literal_range_packed
        n = 4
        triples = _admissible(n)
        literal_of = {
            "simplify-long-range": lambda k, m, ell: (ell + 1, 3 * n - k - m - ell - 1),
            "simplify-k-tail": lambda k, m, ell: (n - k - ell + 1, n),
            "simplify-m-tail": lambda k, m, ell: (n - m - ell + 1, n),
        }
        failed, most = set(), 0
        for f in (1, 2, 4, 8, 3 * n - 1):
            def dropped(value, width, lo, hi, f=f):
                if not lo <= f <= hi:
                    return real(value, width, lo, hi)
                return real(real(value, width, lo, f - 1), width, f + 1, hi)

            monkeypatch.setattr(engine, "times_literal_range_packed", dropped)
            reports = {r["identity"]: r for r in simplification_chain(n)}
            monkeypatch.undo()
            want = {
                identity: [
                    {"k": k, "m": m, "l": ell}
                    for k, m, ell in triples
                    if literal(k, m, ell)[0] <= f <= literal(k, m, ell)[1]
                ]
                for identity, literal in literal_of.items()
            }
            # the factorial literals are the products over 1..k and 1..m
            want["simplify-factorial-signs"] = [
                {"k": k, "m": m}
                for k in range(n + 1)
                for m in range(n + 1)
                if f <= max(k, m)
            ]
            for identity, tuples in want.items():
                rep = reports[identity]
                assert rep["equal"] is not bool(tuples), (f, identity)
                assert rep["rhs"] == (tuples or "all equal"), (f, identity)
                if tuples:
                    failed.add(identity)
                    most = max(most, len(tuples))
        assert failed == set(want) and most > 1

    def test_each_range_statement_is_proved_once_per_n(self, monkeypatch):
        # one sign table per chain n proves every statement the steps read
        from whitdim import engine

        tables = []
        real = engine._range_signs

        def counted(n):
            tables.append(real(n))
            return tables[-1]

        monkeypatch.setattr(engine, "_range_signs", counted)
        n = 5
        simplification_chain(n)
        assert len(tables) == 1
        # and it holds the statements of the paper: (sign, lo, hi) of the
        # long range and of both tails, for every admissible tuple, and the
        # factorial halves (q;q)_k and (q;q)_m at lo = 0
        stated = set()
        for k, m, ell in _admissible(n):
            stated.add(((-1) ** (n + k + m + 1), ell, 3 * n - k - m - ell - 1))
            stated.add(((-1) ** (k + ell), n - k - ell, n))
            stated.add(((-1) ** (m + ell), n - m - ell, n))
            stated.add(((-1) ** k, 0, k))
        assert all(tables[0][lo, hi] == sign for sign, lo, hi in stated)

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
