"""Exhaustive matrix-counting oracles and their closed-form counterparts.

Each oracle returns the pair (enumerated, formula) so callers can assert the
two agree; nothing here assumes the formulas are right.  Enumerations are
gated by a candidate-count threshold (default 10^9) that a flag can override.
Each (q, shape) is counted once per process, by the one kernel
kernels.count_by_rank_trace (a transfer count over row spaces, which counts
every matrix exactly once without ranking each), into a counts[rank][diagonal
sum] table kept as immutable tuples: count_rect_by_rank sums a rank's row, and
prasad_delta reads a square table's row.  The field and kernel modules are
imported only where an enumeration runs, so the command line can read the
feasibility gate without loading them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

FEASIBILITY_LIMIT = 10 ** 9


class FeasibilityError(RuntimeError):
    """An enumeration would exceed the candidate limit; use the formula instead."""

    def __init__(self, candidates: int, limit: int):
        super().__init__(
            "enumeration of %d candidates exceeds the limit %d; "
            "raise the limit to force it" % (candidates, limit)
        )
        self.candidates = candidates
        self.limit = limit


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
def _rank_trace_counts(q: int, rows: int, cols: int) -> tuple:
    """counts[rank][diagonal sum] over all rows x cols matrices over GF(q), counted once."""
    from . import kernels
    from .gfield import gf

    return tuple(map(tuple, kernels.count_by_rank_trace(gf(q), rows, cols)))


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
    _gate(q ** (s * t), limit)
    return sum(_rank_trace_counts(q, s, t)[k]), formula


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
    row-echelon basis exactly once, so no orbit division is needed."""
    formula = grassmann_formula(n, m, q)
    _gate(formula, limit)
    from .gfield import GFMatrix, gf

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
            if m == 0 or GFMatrix.from_rows(field, rows).rank() == m:
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
    _gate(q ** (size * size), limit)
    counts = _rank_trace_counts(q, size, size)[k]
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
