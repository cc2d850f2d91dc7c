"""Backend selection for the exhaustive counting kernels.

The compiled extension is used when it was built; otherwise the pure-Python
kernels take over.  Their outputs match the compiled ones; the pure triple
kernel is memoised (it ranks each distinct block once) rather than a
line-by-line mirror.  BACKEND names the active one.
`bench/bench_backends.py` times the two against each other.
"""

from __future__ import annotations

try:
    from . import _gfkernel as _impl

    BACKEND = "compiled"
except ImportError:  # extension not built; the pure fallback is always available
    from . import _gfkernel_py as _impl

    BACKEND = "pure"

from .gfield import GFq


def count_by_rank(field: GFq, rows: int, cols: int):
    """Counts of rows x cols matrices over the field, indexed by rank."""
    add, sub, mul, inv = field.flat_tables()
    return [int(c) for c in _impl.count_by_rank(field.q, add, sub, mul, inv, rows, cols)]


def count_by_rank_trace(field: GFq, size: int):
    """counts[rank][trace] over all square matrices of the given size."""
    add, sub, mul, inv = field.flat_tables()
    out = _impl.count_by_rank_trace(field.q, add, sub, mul, inv, size)
    return [[int(c) for c in row] for row in out]


def count_triples_by_rank_bucket(field: GFq, n: int):
    """counts[rank][gamma] over all (X, Y, Z): rank of [[X,Y],[0,Z]], gamma = trX + trZ."""
    add, sub, mul, inv = field.flat_tables()
    out = _impl.count_triples_by_rank_bucket(field.q, add, sub, mul, inv, n)
    return [[int(c) for c in row] for row in out]
