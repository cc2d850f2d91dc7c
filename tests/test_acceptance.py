"""Acceptance suite: every criterion at its stated tolerance (exact arithmetic).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import random
import time

from helpers import (
    euler_product_truncation,
    matmul,
    random_invertible,
    random_matrix,
    scale_x,
    series_coeffs,
)
from whitdim.counting import count_rect_by_rank, grassmann_count, prasad_delta
from whitdim.dimension import dimension_report
from whitdim.engine import (
    conclusion_chain,
    dimension_sum,
    inner_sum_sides,
    simplification_chain,
    verify_main,
)
from whitdim import BACKEND
from whitdim.gfield import SUPPORTED_Q, gf
from whitdim.qseries import euler_series, qbinom_series


def _report(num, ok, detail):
    print("ACCEPTANCE %d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "acceptance criterion %d failed: %s" % (num, detail)


def test_criterion_1_main_identity_to_n12():
    t0 = time.perf_counter()
    failures = [n for n in range(1, 13) if not verify_main(n).equal]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(
        1, ok,
        "main identity exact for n=1..12 in %.1fs (failures: %r)" % (elapsed, failures),
    )


def test_criterion_2_inner_sum_to_n12():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 13):
        for k in range(n + 1):
            lhs, rhs = inner_sum_sides(n, k)
            if lhs != rhs:
                failures.append((n, k))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(
        2, ok,
        "inner sum exact for all k, n=1..12 in %.1fs (failures: %r)" % (elapsed, failures),
    )


def test_criterion_3_proof_chains_to_n8():
    failures = []
    for n in range(1, 9):
        for rep in simplification_chain(n) + conclusion_chain(n):
            if not rep.equal:
                failures.append((n, rep.identity))
    # the telescoping product of the inner-sum proof, coefficientwise
    for n in (1, 2, 3):
        for k in range(n + 1):
            order = n + 2
            prod = (
                euler_series(k, order)
                * scale_x(qbinom_series(-k, order), k)
                * qbinom_series(k + n, order)
            )
            if prod != euler_series(k + n, order):
                failures.append((n, k, "telescoping"))
    _report(3, not failures, "proof chains n=1..8 all steps (failures: %r)" % failures)


def test_criterion_4_dimension_triple_agreement():
    expected = {(1, 2): 1, (1, 3): 1, (1, 5): 1, (2, 2): 4, (2, 3): 18}
    failures = []
    elapsed_23 = None
    for (n, q), want in expected.items():
        t0 = time.perf_counter()
        rep = dimension_report(n, q)
        dt = time.perf_counter() - t0
        if (n, q) == (2, 3):
            elapsed_23 = dt
        if not (rep["agree"] and rep["brute"] == rep["middle"] == rep["closed"] == want):
            failures.append((n, q, rep))
    ok = not failures and elapsed_23 < 120.0
    _report(
        4, ok,
        "brute=middle=closed on %r; (2,3) took %.1fs on the %s backend"
        % (sorted(expected), elapsed_23, BACKEND),
    )


def test_criterion_4_stretch_size():
    t0 = time.perf_counter()
    rep = dimension_report(2, 4)
    elapsed = time.perf_counter() - t0
    ok = rep["agree"] and rep["brute"] == rep["middle"] == rep["closed"] == 48
    _report(
        4, ok,
        "brute/middle/closed = %d/%d/%d (want 48) at (2,4) in %.1fs on the %s backend"
        % (rep["brute"], rep["middle"], rep["closed"], elapsed, BACKEND),
    )


def test_criterion_5_counting_oracles():
    failures = []
    for q in (2, 3):
        for s in range(1, 4):
            for t in range(1, 4):
                for k in range(min(s, t) + 1):
                    enum, formula = count_rect_by_rank(s, t, k, q)
                    if enum != formula:
                        failures.append(("rect", s, t, k, q))
        for size in range(4):
            for k in range(size + 1):
                enum, formula = prasad_delta(size - k, k, q)
                if enum != formula:
                    failures.append(("delta", size - k, k, q))
        for n in range(1, 5):
            for m in range(n + 1):
                enum, formula = grassmann_count(n, m, q)
                if enum != formula:
                    failures.append(("grassmann", n, m, q))
    _report(5, not failures, "counting enumerations match formulas (failures: %r)" % failures)


def test_criterion_6_series_cross_checks():
    failures = []
    max_deg, order = 30, 8
    product = euler_product_truncation(max_deg, order)
    series = euler_series(0, order)
    for j in range(order + 1):
        expansion = series_coeffs(series.coeff(j), max_deg)
        if [int(c) for c in expansion] != [product[j].coeff(t) for t in range(max_deg + 1)]:
            failures.append(("euler-truncation", j))
    for a_exp in range(6):
        if euler_series(0, order) * qbinom_series(a_exp, order) != euler_series(
            a_exp, order
        ):
            failures.append(("qbinom-ratio", a_exp))
    _report(
        6, not failures,
        "series cross-checks to x^8 / q^30 and ratio identity for exponents 0..5 "
        "(failures: %r)" % failures,
    )


def test_criterion_7_property_suites():
    failures = []
    # bucket constancy in every brute run of the gating set
    for n, q in [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)]:
        rep = dimension_report(n, q)
        nonzero = {rep["buckets"][str(g)] for g in range(1, q)}
        if len(nonzero) > 1:
            failures.append(("buckets", n, q))
    # the raw sum collapses to a polynomial for every n <= 12
    for n in range(1, 13):
        if not dimension_sum(n).denominator_is_one:
            failures.append(("polynomial", n))
    # rank invariance under invertible multiplication, 1000 randomized trials
    rng = random.Random(777)
    for _ in range(1000):
        q = rng.choice(SUPPORTED_Q)
        f = gf(q)
        size = rng.randrange(1, 4)
        m = random_matrix(f, size, size, rng)
        e = random_invertible(f, size, rng)
        if not (matmul(e, m).rank() == m.rank() == matmul(m, e).rank()):
            failures.append(("rank-invariance", q, size))
            break
    _report(7, not failures, "property suites (failures: %r)" % failures)
