"""Check that the compiled counting kernels return what the pure ones return.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/parity.py

Runs the cases of bench/bench_backends.py through both backends and prints
one JSON object {"cases": N, "mismatches": [labels]}.  Exits 0 when every
case agrees, 1 on a mismatch, and 2 when the compiled kernel is not built.
"""

from __future__ import annotations

import json
import sys

CASES = (
    ("rank counts 3x3 GF(3)", "count_by_rank", (3, 3, 3)),
    ("rank counts 4x4 GF(2)", "count_by_rank", (2, 4, 4)),
    ("rank/trace 3x3 GF(3)", "count_by_rank_trace", (3, 3)),
    ("triples n=2 GF(2)", "count_triples_by_rank_bucket", (2, 2)),
    ("triples n=2 GF(3)", "count_triples_by_rank_bucket", (3, 2)),
)


def _plain(out):
    return [[int(c) for c in row] if not isinstance(row, int) else int(row) for row in out]


def main() -> int:
    from whitdim import _gfkernel_py
    from whitdim.gfield import gf

    try:
        from whitdim import _gfkernel
    except ImportError:
        print(json.dumps({"cases": 0, "mismatches": [], "error": "compiled kernel not built"}))
        return 2
    mismatches = []
    for label, fname, (q, *dims) in CASES:
        tables = gf(q).flat_tables()
        pure = getattr(_gfkernel_py, fname)(q, *tables, *dims)
        compiled = getattr(_gfkernel, fname)(q, *tables, *dims)
        if _plain(pure) != _plain(compiled):
            mismatches.append(label)
    print(json.dumps({"cases": len(CASES), "mismatches": mismatches}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
