"""Counting kernels over GF(q), in pure Python.

Both kernels are one transfer count, `_transfer_count`, which reads only the
field's add/sub/mul/inv tables.  It builds the matrices row by row over
states (reduced row-echelon basis of the rows so far, diagonal sum), where
row i takes any vector of its own candidate set and adds one of its entries,
or none, to the diagonal sum.  It extends each distinct (basis, row set) by
every vector of the set once, and asserts that the total is the product of
the row-set sizes.  It ranks no matrix and uses no counting formula.

count_by_rank_trace takes every row from all q^cols vectors.
count_triples_by_rank_bucket counts the 2n x 2n block matrices
[[X, Y], [0, Z]]: its last n rows, taken first, are the vectors (0...0 | z),
and its first n rows all q^(2n) vectors (x | y).  Neither kernel calls
`gfield._rank_rows`, so the tests' reference, which ranks through
`GFMatrix.rank`, stays independent of both: it ranks every matrix, and every
triple, from scratch.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod

from .gfield import GFq


def _extensions(field: GFq, basis, vectors):
    """For each vector v, the reduced row-echelon basis of span(basis + [v]).

    basis is a tuple of rows in reduced row-echelon form, pivots 1, in pivot
    order.  v is reduced at each pivot column; the zero residue keeps the
    basis, and the others join it as one more normalised row, which clears
    its pivot column from the old rows.  Each residue is worked out once.
    """
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
    pivots = [(next(j for j, a in enumerate(row) if a), row) for row in basis]
    spans = {}  # residue of v -> next basis
    out = []
    for v in vectors:
        for c, prow in pivots:
            f = v[c]
            if f:
                frow = mul[f]
                v = tuple([sub[a][frow[b]] for a, b in zip(v, prow)])
        nxt = spans.get(v)
        if nxt is None:
            if not any(v):
                nxt = basis
            else:
                c0 = next(j for j, a in enumerate(v) if a)
                w = tuple([mul[inv[v[c0]]][a] for a in v])
                rows = [(c0, w)]
                for c, prow in pivots:
                    f = prow[c0]
                    if f:
                        frow = mul[f]
                        prow = tuple([sub[a][frow[b]] for a, b in zip(prow, w)])
                    rows.append((c, prow))
                nxt = tuple(row for _, row in sorted(rows))
            spans[v] = nxt
        out.append(nxt)
    return out


def _transfer_count(field: GFq, sets, rows):
    """counts[rank][diagonal sum] over the matrices whose rows are listed by rows.

    sets is a list of candidate row sets, each a list of vectors of one
    width.  rows holds one (s, d) per matrix row: the row is any vector of
    sets[s], and adds its entry d to the diagonal sum, or nothing when d is
    the width.  The state after i rows is the reduced row-echelon basis of
    their span with the diagonal sum so far.  Each distinct (basis, row set)
    is extended by every vector of the set once (`_extensions`), and its
    outcomes are grouped once per diagonal column asked for, by (next basis,
    entry d).  Every matrix is counted exactly once, so the total must be the
    product of the row-set sizes; anything else raises.
    """
    q = field.q
    add = field.add_table
    width = len(sets[0][0])
    columns = [list(zip(*vectors)) + [[0] * len(vectors)] for vectors in sets]
    exts = {}  # (basis, set index) -> next basis for each vector of the set
    steps = {}  # (basis, set index, column) -> Counter of (next basis, entry)
    states = {((), 0): 1}  # (basis, diagonal sum) -> number of partial matrices
    for s, d in rows:
        nxt = {}
        for (basis, tr), c in states.items():
            step = steps.get((basis, s, d))
            if step is None:
                ext = exts.get((basis, s))
                if ext is None:
                    ext = exts[basis, s] = _extensions(field, basis, sets[s])
                step = steps[basis, s, d] = Counter(zip(ext, columns[s][d]))
            sums = add[tr]
            for (nb, e), k in step.items():
                key = (nb, sums[e])
                nxt[key] = nxt.get(key, 0) + c * k
        states = nxt
    counts = [[0] * q for _ in range(min(len(rows), width) + 1)]
    for (basis, tr), c in states.items():
        counts[len(basis)][tr] += c
    total = sum(map(sum, counts))
    expected = prod(len(sets[s]) for s, _ in rows)
    if total != expected:
        raise AssertionError(
            "transfer count of %d rows of width %d over GF(%d) totals %d, not %d"
            % (len(rows), width, q, total, expected))
    return counts


def count_by_rank_trace(field: GFq, rows: int, cols: int):
    """counts[rank][diagonal sum] over all rows x cols matrices over the field.

    Row i is any of the q^cols vectors and adds its entry i to the diagonal
    sum, nothing once i >= cols.  The total is asserted to be q^(rows*cols).
    """
    vectors = list(product(range(field.q), repeat=cols))
    return _transfer_count(field, [vectors], [(0, min(i, cols)) for i in range(rows)])


def count_triples_by_rank_bucket(field: GFq, n: int):
    """counts[rank][gamma] over all triples (X, Y, Z) of n x n matrices.

    rank is of the 2n x 2n block matrix [[X, Y], [0, Z]] (the nonzero corner
    of u - I), gamma = tr X + tr Z.  The block matrix is counted as a matrix
    whose rows come from two sets: first its n rows (0...0 | z), with
    diagonal columns n..2n-1, then its n rows (x | y) over all q^(2n)
    vectors, with diagonal columns 0..n-1.  The row order changes no rank;
    with the Z rows first fewer bases are extended (1823 against 3539 at
    n = 3 over GF(2)).  The total is asserted to be q^(3n^2).
    """
    zs = [(0,) * n + z for z in product(range(field.q), repeat=n)]
    xys = list(product(range(field.q), repeat=2 * n))
    rows = [(0, n + i) for i in range(n)] + [(1, i) for i in range(n)]
    return _transfer_count(field, [zs, xys], rows)
