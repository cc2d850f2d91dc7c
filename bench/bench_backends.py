#!/usr/bin/env python3
"""Time the pure-Python counting kernels, and the compiled ones when built.

Usage:
    python bench/bench_backends.py [--heavy]

--heavy adds the stretch triple cases: n=2 over GF(4), and all 2^27 triples
at n=3 over GF(2).  When the compiled kernel is built, every case runs on
both backends and a mismatch is flagged RESULTS DIFFER.
"""

import argparse
import time

from whitdim.gfield import gf
from whitdim import _gfkernel_py

try:
    from whitdim import _gfkernel
except ImportError:
    _gfkernel = None


def _time(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--heavy", action="store_true",
                        help="include the stretch triple cases")
    args = parser.parse_args()

    cases = [
        ("rank counts 3x3 GF(3)", "count_by_rank", (3, 3, 3)),
        ("rank counts 4x4 GF(2)", "count_by_rank", (2, 4, 4)),
        ("rank/trace 3x3 GF(3)", "count_by_rank_trace", (3, 3)),
        ("triples n=2 GF(2)", "count_triples_by_rank_bucket", (2, 2)),
        ("triples n=2 GF(3)", "count_triples_by_rank_bucket", (3, 2)),
    ]
    if args.heavy:
        cases += [
            ("triples n=2 GF(4)", "count_triples_by_rank_bucket", (4, 2)),
            ("triples n=3 GF(2)", "count_triples_by_rank_bucket", (2, 3)),
        ]

    if _gfkernel is None:
        print("compiled kernel not built; timing the pure backend only\n")

    header = "%-24s %12s %12s %9s" % ("case", "pure [s]", "compiled [s]", "speedup")
    print(header)
    print("-" * len(header))
    for label, fname, params in cases:
        q, *dims = params
        tables = gf(q).flat_tables()
        t_pure, out_pure = _time(getattr(_gfkernel_py, fname), q, *tables, *dims)
        if _gfkernel is not None:
            t_fast, out_fast = _time(getattr(_gfkernel, fname), q, *tables, *dims)
            same = [list(r) if isinstance(r, list) else r for r in out_pure] == [
                list(r) if isinstance(r, list) else r for r in out_fast
            ]
            flag = "" if same else "  RESULTS DIFFER!"
            print("%-24s %12.4f %12.4f %8.1fx%s"
                  % (label, t_pure, t_fast, t_pure / max(t_fast, 1e-9), flag))
        else:
            print("%-24s %12.4f %12s %9s" % (label, t_pure, "-", "-"))


if __name__ == "__main__":
    main()
