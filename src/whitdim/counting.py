"""Exhaustive matrix-counting oracles and their closed-form counterparts.

Each oracle returns the pair (enumerated, formula) so callers can assert the
two agree; nothing here assumes the formulas are right.  counts_report runs
the counts command's fixed case list at one q and yields one JSON record per
case, with the verdict under "equal".

Every count is one lookup, rank_trace_table(q, shape, limit).  It gates the
q^(dim N) candidates of the block unitriangular group N(shape) (default
limit 10^9, which a flag can override), then reads the counts[rank][psi-sum]
table of (q, shape): counted once per process, as immutable tuples, by the
package's one kernel, kernels.count_by_rank_trace (a transfer count over
row spaces, which counts every element once and ranks none).
count_rect_by_rank sums a rank's row of the (s, t) table, prasad_delta
reads a row of the (size, size) table, and dimension.trace_bucket_sums
reads the (n, n, n) table; grassmann_count is gated on its subspace count.
The gate's limit and error are the package's own, and the field and kernel
modules are imported only where a count runs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from . import FEASIBILITY_LIMIT, FeasibilityError


def _gate(candidates: int, limit: int):
    if candidates > limit:
        raise FeasibilityError(candidates, limit)


def _exact_ratio(num: int, den: int) -> int:
    quo, rem = divmod(num, den)
    if rem:
        raise AssertionError("non-integral count ratio %d / %d" % (num, den))
    return quo


# Unbounded, but only shapes that passed the feasibility gate get here, and
# each entry is a small table of integers.
@lru_cache(maxsize=None)
def _rank_trace_counts(q: int, shape: tuple) -> tuple:
    from . import kernels
    from .gfield import gf

    return tuple(map(tuple, kernels.count_by_rank_trace(gf(q), shape)))


def rank_trace_table(q: int, shape: tuple, limit: int = FEASIBILITY_LIMIT) -> tuple:
    """counts[rank][psi-sum] over N(shape) over GF(q), shape a tuple.

    Raises FeasibilityError if q^(dim N) > limit, dim N = sum over i < j of n_i n_j.
    """
    _gate(q ** sum(a * b for a, b in combinations(shape, 2)), limit)
    return _rank_trace_counts(q, shape)


def rect_rank_formula(s: int, t: int, k: int, q: int) -> int:
    """prod_{i=0}^{k-1} (q^s - q^i)(q^t - q^i) / (q^k - q^i): rank-k s x t matrices."""
    if not 0 <= k <= min(s, t):
        raise ValueError("rank k must lie in 0..min(s, t)")
    num = den = 1
    for i in range(k):
        num *= (q ** s - q ** i) * (q ** t - q ** i)
        den *= q ** k - q ** i
    return _exact_ratio(num, den)


def count_rect_by_rank(s: int, t: int, k: int, q: int, limit: int = FEASIBILITY_LIMIT):
    """(enumerated, formula) count of s x t matrices of rank k over GF(q)."""
    formula = rect_rank_formula(s, t, k, q)
    return sum(rank_trace_table(q, (s, t), limit)[k]), formula


def grassmann_formula(n: int, m: int, q: int) -> int:
    """Number of m-dimensional subspaces of GF(q)^n."""
    if not 0 <= m <= n:
        raise ValueError("subspace dimension must lie in 0..n")
    num = den = 1
    for i in range(1, n + 1):
        num *= q ** i - 1
    for i in range(1, m + 1):
        den *= q ** i - 1
    for i in range(1, n - m + 1):
        den *= q ** i - 1
    return _exact_ratio(num, den)


def grassmann_count(n: int, m: int, q: int, limit: int = FEASIBILITY_LIMIT):
    """(enumerated, formula) subspace count; enumeration builds every reduced
    row-echelon basis exactly once, so no orbit division is needed.

    Each basis is rebuilt one row at a time by kernels._insert, the
    package's one row reduction, and must come back unchanged, that is, be
    its own reduced row-echelon form: rank m, pivots 1 and in order, pivot
    columns clear.  Anything else raises.
    """
    formula = grassmann_formula(n, m, q)
    _gate(formula, limit)
    from . import kernels
    from .gfield import gf

    field = gf(q)
    count = 0
    for pivots in combinations(range(n), m):
        free = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, n):
                if c not in pivots:
                    free.append((r, c))
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(m)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            basis = tuple(map(tuple, rows))
            rebuilt = ()
            for row in basis:
                rebuilt = kernels._insert(field, rebuilt, row)
            if rebuilt != basis:
                raise AssertionError(
                    "basis %r of a %d-subspace of GF(%d)^%d is not in reduced "
                    "row-echelon form" % (basis, m, q, n))
            count += 1
    return count, formula


def prasad_delta(m: int, k: int, q: int, limit: int = FEASIBILITY_LIMIT):
    """(enumerated Y^1 - Y^0, closed form) for (m+k) x (m+k) matrices of rank k.

    Y^a counts matrices with rank k and trace a.  Also asserts the linearity
    consequence that Y^a is the same for every a != 0; a violation raises.
    """
    size = m + k
    if m < 0 or k < 0:
        raise ValueError("m and k must be non-negative")
    counts = rank_trace_table(q, (size, size), limit)[k]
    nonzero = {counts[a] for a in range(1, q)}
    if len(nonzero) > 1:
        raise RuntimeError(
            "trace-constancy violated for size %d, rank %d over GF(%d): %r"
            % (size, k, q, counts)
        )
    delta = counts[1] - counts[0]
    sign = -1 if (k - 1) % 2 else 1
    formula = sign * q ** (k * (k - 1) // 2) * grassmann_formula(m + k, m, q)
    return delta, formula


def counts_report(q: int, limit: int = FEASIBILITY_LIMIT):
    """One JSON-ready record per counts case at q, yielded in a fixed order:
    params (kind, shape, q), the enumerated and formula counts, and equal.
    """
    cases = [("rect-rank", count_rect_by_rank, {"s": s, "t": t, "k": k})
             for s in range(1, 4) for t in range(1, 4) for k in range(min(s, t) + 1)]
    cases += [("trace-delta", prasad_delta, {"m": size - k, "k": k})
              for size in range(4) for k in range(size + 1)]
    cases += [("grassmann", grassmann_count, {"n": n, "m": m})
              for n in range(1, 5) for m in range(n + 1)]
    for kind, oracle, params in cases:
        enum, formula = oracle(**params, q=q, limit=limit)
        yield {
            "params": {"kind": kind, **params, "q": q},
            "enumerated": enum,
            "formula": formula,
            "equal": enum == formula,
        }
