"""Backend selection for the exhaustive counting kernels.

The single-matrix kernels (count_by_rank, count_by_rank_trace) use the
compiled extension when it was built; otherwise the pure-Python ones take
over.  BACKEND names the one in use.  The triple kernel always runs the pure
implementation: it is memoised (it ranks each distinct n x 2n block once),
while the compiled one enumerates every triple and is about 10x slower at
n=3 over GF(2).  Their outputs match; `bench/bench_backends.py` times the
two backends against each other.
"""

from __future__ import annotations

from . import _gfkernel_py

try:
    from . import _gfkernel as _impl

    BACKEND = "compiled"
except ImportError:  # extension not built; the pure fallback is always available
    _impl = _gfkernel_py

    BACKEND = "pure"

from .gfield import GFq


def _checked_tables(field: GFq):
    """field.flat_tables(), after checking every length against q.

    The compiled kernels index the tables without bounds checks, so a short
    table would be read past its end; add, sub and mul must hold q*q bytes
    and inv q bytes.
    """
    q = field.q
    tables = field.flat_tables()
    for name, table in zip(("add", "sub", "mul", "inv"), tables):
        size = q if name == "inv" else q * q
        if len(table) != size:
            raise ValueError(
                "GF(%d) %s table has %d bytes, expected %d"
                % (q, name, len(table), size)
            )
    return tables


def count_by_rank(field: GFq, rows: int, cols: int):
    """Counts of rows x cols matrices over the field, indexed by rank."""
    add, sub, mul, inv = _checked_tables(field)
    return [int(c) for c in _impl.count_by_rank(field.q, add, sub, mul, inv, rows, cols)]


def count_by_rank_trace(field: GFq, size: int):
    """counts[rank][trace] over all square matrices of the given size."""
    add, sub, mul, inv = _checked_tables(field)
    out = _impl.count_by_rank_trace(field.q, add, sub, mul, inv, size)
    return [[int(c) for c in row] for row in out]


def count_triples_by_rank_bucket(field: GFq, n: int):
    """counts[rank][gamma] over all (X, Y, Z): rank of [[X,Y],[0,Z]], gamma = trX + trZ."""
    add, sub, mul, inv = field.flat_tables()
    out = _gfkernel_py.count_triples_by_rank_bucket(field.q, add, sub, mul, inv, n)
    return [[int(c) for c in row] for row in out]
