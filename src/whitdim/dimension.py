"""The module dimension three independent ways: brute force, mid-derivation, closed form.

The brute force counts all q^(3n^2) unipotent block triples (X, Y, Z) by the
rank of [[X, Y], [0, Z]] and the bucket gamma = tr X + tr Z (a transfer count
in `kernels`, asserted to total q^(3n^2)), sums the cuspidal character values
by bucket, and collapses the additive character using
sum_{x != 0} psi0(x) = -1.  No complex character is ever materialized: the
collapse is valid exactly when the bucket sums S_gamma agree for every
gamma != 0, and that constancy is asserted at runtime instead of being
assumed.  The mid-derivation path recombines the same quantity from
matrix-counting formulas, and the closed form evaluates the product side of
the main identity.  All three must agree exactly.
"""

from __future__ import annotations

from . import kernels
from .counting import FEASIBILITY_LIMIT, _exact_ratio, _gate, rect_rank_formula
from .engine import closed_product
from .gfield import gf


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


class TraceBucketSums:
    """Character sums S_gamma over all triples with tr X + tr Z = gamma."""

    def __init__(self, n: int, q: int, sums: dict, sizes: dict):
        self.n = n
        self.q = q
        self.sums = sums
        self.sizes = sizes

    def nonzero_constant(self) -> bool:
        return len({self.sums[g] for g in range(1, self.q)}) <= 1

    def dimension(self) -> int:
        """(S_0 - S_1) / q^(3n^2), valid only once S_gamma is constant on gamma != 0."""
        if not self.nonzero_constant():
            raise RuntimeError(
                "bucket sums are not constant on gamma != 0: %r" % self.sums
            )
        return _module_dim(self.sums[0] - self.sums[1], self.n, self.q)


def _module_dim(total: int, n: int, q: int) -> int:
    """total / q^(3n^2), asserted exact and non-negative."""
    dim = _exact_ratio(total, q ** (3 * n * n))
    if dim < 0:
        raise AssertionError("negative dimension %d" % dim)
    return dim


def trace_bucket_sums(n: int, q: int, limit: int = FEASIBILITY_LIMIT) -> TraceBucketSums:
    """Count all triples by rank and trace bucket, and accumulate Theta by bucket."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _gate(q ** (3 * n * n), limit)
    field = gf(q)
    counts = kernels.count_triples_by_rank_bucket(field, n)
    theta = [theta_unipotent(3 * n, 3 * n - r, q) for r in range(2 * n + 1)]
    sums = {}
    sizes = {}
    for gamma in range(q):
        sums[gamma] = sum(counts[r][gamma] * theta[r] for r in range(2 * n + 1))
        sizes[gamma] = sum(counts[r][gamma] for r in range(2 * n + 1))
    if sum(sizes.values()) != q ** (3 * n * n):
        raise AssertionError("bucket sizes do not add up to q^(3n^2)")
    return TraceBucketSums(n, q, sums, sizes)


def closed_dim(n: int, q: int) -> int:
    """Evaluate the closed product q^(n(n-1)/2) * prod (q^n - q^i) at integer q."""
    val = closed_product(n).eval_at(q)
    if val.denominator != 1:
        raise AssertionError("closed form evaluated to a non-integer")
    return int(val)


def _subspace_weight(n: int, j: int, q: int) -> int:
    """(-1)^j * prod_{i=0}^{j-1} (q^n - q^i) / prod_{i=1}^{j} (q^i - 1), an integer."""
    num = den = 1
    for i in range(j):
        num *= q ** n - q ** i
    for i in range(1, j + 1):
        den *= q ** i - 1
    val = _exact_ratio(num, den)
    return -val if j % 2 else val


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
    weights = [_subspace_weight(n, j, q) for j in range(n + 1)]
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
    buckets = trace_bucket_sums(n, q, limit)
    brute = buckets.dimension()
    middle = middle_dim(n, q)
    closed = closed_dim(n, q)
    return {
        "n": n,
        "q": q,
        "brute": brute,
        "middle": middle,
        "closed": closed,
        "buckets": {str(g): buckets.sums[g] for g in range(q)},
        "agree": brute == middle == closed,
    }

