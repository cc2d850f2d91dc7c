"""The module dimension three independent ways: brute force, mid-derivation, closed form.

The brute force reads the counts of all q^(3n^2) elements u of the block
unitriangular group N(n, n, n) by the rank of u - I, the corner
[[X, Y], [0, Z]], and the bucket gamma = tr X + tr Z: the (n, n, n) table
of counting.rank_trace_table, a transfer count asserted to total q^(3n^2).
It sums the cuspidal character values by bucket, and collapses the
additive character using sum_{x != 0} psi0(x) = -1.  No complex character
is ever materialized: the collapse is valid exactly when the bucket sums
S_gamma agree for every gamma != 0, and that constancy is asserted at
runtime instead of being assumed.  The mid-derivation path recombines the
same quantity from matrix-counting formulas, and the closed form is the
product side of the main identity in plain integers.  All three must agree
exactly.

Everything here is integer arithmetic at one q: the module loads counting
(which loads gfield and kernels when a table is first counted), and none
of the q-polynomial code (engine, laurent, rational, qseries), so a brute
process compiles none of it.
"""

from __future__ import annotations

from .counting import (
    FEASIBILITY_LIMIT, _exact_ratio, grassmann_formula, rank_trace_table, rect_rank_formula,
)


def theta_unipotent(group_degree: int, t: int, q: int) -> int:
    """Cuspidal character value on a unipotent element with kernel dimension t.

    (-1)^(group_degree - 1) * prod_{i=1}^{t-1} (1 - q^i): t - 1 factors, the
    empty product at t = 1 being 1.
    """
    if not 1 <= t <= group_degree:
        raise ValueError("kernel dimension t must lie in 1..group_degree")
    val = 1
    for i in range(1, t):
        val *= 1 - q ** i
    return -val if group_degree % 2 == 0 else val


def _module_dim(total: int, n: int, q: int) -> int:
    """total / q^(3n^2), asserted exact and non-negative."""
    dim = _exact_ratio(total, q ** (3 * n * n))
    if dim < 0:
        raise AssertionError("negative dimension %d" % dim)
    return dim


def trace_bucket_sums(n: int, q: int, limit: int = FEASIBILITY_LIMIT) -> dict:
    """{gamma: S_gamma}: Theta summed by trace bucket; the sizes must total q^(3n^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = rank_trace_table(q, (n, n, n), limit)
    if sum(map(sum, counts)) != q ** (3 * n * n):
        raise AssertionError("bucket sizes do not add up to q^(3n^2)")
    theta = [theta_unipotent(3 * n, 3 * n - r, q) for r in range(2 * n + 1)]
    return {
        gamma: sum(counts[r][gamma] * theta[r] for r in range(2 * n + 1))
        for gamma in range(q)
    }


def closed_dim(n: int, q: int) -> int:
    """The closed form q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i) at an integer q.

    The empty product at n = 1 is 1.  This is engine.closed_product(n), the
    product side of the main identity, evaluated at q; the tests check the
    two agree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    val = q ** (n * (n - 1) // 2)
    for i in range(1, n):
        val *= q ** n - q ** i
    return val


def middle_dim(n: int, q: int) -> int:
    """Module dimension from the rank-and-trace decomposition formulas.

    (1/q^(3n^2)) * sum_{m,k} S(m,k) q^(kn+(n-k)m)
                 * sum_l Theta(t = 3n-k-m-l) * Z_{n-k, n-m, l}
    with S(m,k) the collapsed character sum (a product of two signed
    Grassmannian weights) and Z the rank-count formula.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    weights = [(-1) ** j * q ** (j * (j - 1) // 2) * grassmann_formula(n, j, q)
               for j in range(n + 1)]
    for m in range(n + 1):
        for k in range(n + 1):
            s_mk = weights[k] * weights[m]
            inner = 0
            for ell in range(n - max(k, m) + 1):
                inner += theta_unipotent(3 * n, 3 * n - k - m - ell, q) * rect_rank_formula(
                    n - k, n - m, ell, q
                )
            total += s_mk * q ** (k * n + (n - k) * m) * inner
    return _module_dim(total, n, q)


def dimension_report(n: int, q: int, limit: int = FEASIBILITY_LIMIT) -> dict:
    """brute/middle/closed values plus the trace buckets, as a JSON-ready dict."""
    sums = trace_bucket_sums(n, q, limit)
    # brute is (S_0 - S_1) / q^(3n^2) only once S_gamma is constant on gamma != 0
    if len({sums[g] for g in range(1, q)}) > 1:
        raise RuntimeError("bucket sums are not constant on gamma != 0: %r" % sums)
    brute = _module_dim(sums[0] - sums[1], n, q)
    middle = middle_dim(n, q)
    closed = closed_dim(n, q)
    return {
        "n": n,
        "q": q,
        "brute": brute,
        "middle": middle,
        "closed": closed,
        "buckets": {str(g): sums[g] for g in range(q)},
        "agree": brute == middle == closed,
    }
