"""Counting kernels over GF(q), in pure Python.

Each kernel takes the field and reads its add/sub/mul/inv tables.  The
single-matrix kernel, count_by_rank_trace, tallies rank and diagonal sum
together for any shape as a transfer count: it builds the matrices row by
row over states (reduced row-echelon basis of the rows so far, diagonal sum),
extends each distinct basis by every next row once, and asserts that the
total is q^(rows*cols).  It ranks no matrix and uses no counting formula.

The triple kernel still enumerates.  Its ranks come from exact Gaussian
elimination (`_rank`), and its n x n blocks from `_matrices`, which visits
every matrix of a shape in lexicographic entry order with its diagonal sum.
Neither kernel calls `gfield._rank_rows`, so the tests' reference, which
ranks through `GFMatrix.rank`, stays independent of both.  The triple kernel
is memoised: it ranks each distinct n x 2n block once and tallies the triples
that share a block in C-level passes over bytes (see
count_triples_by_rank_bucket), so it does q^(2n^2) eliminations for the
q^(3n^2) triples.  The tests check it against a from-scratch rank of every
2n x 2n matrix.

BACKEND names the implementation; this pure one is the only one.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .gfield import GFq

BACKEND = "pure"


def _rank(rows, ncols, sub, mul, inv):
    """Rank by exact Gaussian elimination; mutates the given row lists."""
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pinv = inv[prow[c]]
        for i in range(r + 1, nrows):
            f0 = rows[i][c]
            if f0:
                fac = mul[f0][pinv]
                frow = mul[fac]
                row = rows[i]
                for j in range(c, ncols):
                    row[j] = sub[row[j]][frow[prow[j]]]
        r += 1
    return r


def _matrices(field: GFq, rows: int, cols: int):
    """(row lists, diagonal sum) for every rows x cols matrix, in lexicographic entry order.

    Each matrix gets fresh lists.  The diagonal sum adds the entries (i, i)
    for i < min(rows, cols), so it is the trace when the matrix is square.
    """
    add = field.add_table
    diag = range(0, min(rows, cols) * (cols + 1), cols + 1)
    for entries in product(range(field.q), repeat=rows * cols):
        tr = 0
        for i in diag:
            tr = add[tr][entries[i]]
        yield [list(entries[i * cols : (i + 1) * cols]) for i in range(rows)], tr


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


def count_by_rank_trace(field: GFq, rows: int, cols: int):
    """counts[rank][diagonal sum] over all rows x cols matrices over the field.

    A transfer count: the matrices are built row by row, and the state after
    i rows is the reduced row-echelon basis of their span with the diagonal
    sum so far.  Each distinct basis is extended by all q^cols next rows once
    (`_extensions`), and the outcomes are grouped by (next basis, entry i of
    the row), the entry being 0 once i >= cols.  Every matrix is counted
    exactly once, so the total must be q^(rows*cols); anything else raises.
    """
    q = field.q
    add = field.add_table
    vectors = list(product(range(q), repeat=cols))
    entries = [[v[j] for v in vectors] for j in range(cols)] + [[0] * len(vectors)]
    steps = {}  # basis -> per column, Counter of (next basis, entry)
    states = {((), 0): 1}  # (basis, diagonal sum) -> number of partial matrices
    for i in range(rows):
        col = min(i, cols)
        nxt = {}
        for (basis, tr), c in states.items():
            step = steps.get(basis)
            if step is None:
                ext = _extensions(field, basis, vectors)
                step = steps[basis] = [Counter(zip(ext, column)) for column in entries]
            sums = add[tr]
            for (nb, e), k in step[col].items():
                key = (nb, sums[e])
                nxt[key] = nxt.get(key, 0) + c * k
        states = nxt
    counts = [[0] * q for _ in range(min(rows, cols) + 1)]
    for (basis, tr), c in states.items():
        counts[len(basis)][tr] += c
    total = sum(map(sum, counts))
    if total != q ** (rows * cols):
        raise AssertionError(
            "transfer count of %d x %d matrices over GF(%d) totals %d, not %d"
            % (rows, cols, q, total, q ** (rows * cols)))
    return counts


def _index(rows, q):
    """Position of a matrix in the lexicographic enumeration of its entries."""
    idx = 0
    for row in rows:
        for v in row:
            idx = idx * q + v
    return idx


def count_triples_by_rank_bucket(field: GFq, n: int):
    """counts[rank][gamma] over all triples (X, Y, Z) of n x n matrices.

    rank is of the 2n x 2n block matrix [[X, Y], [0, Z]] (the nonzero corner
    of u - I), gamma = tr X + tr Z.  That rank is rank(Z) plus the rank of
    [X | Y'], where Y' is Y reduced by Z's echelon rows with their pivots
    normalised to 1, which equals full elimination on the 2n x 2n matrix.

    Every n x 2n block [X | Y'] is ranked once, into bytes rows ranks[x][y'].
    For each distinct set of normalised echelon rows, every Y is mapped to the
    index of its Y' and, for each X, the ranks of all q^(n^2) blocks are
    tallied in one C-level pass over a bytes object.  The tallies, summed by
    tr X, are then added once per Z with those rows, so every triple is
    counted exactly once.
    """
    q = field.q
    add, sub, mul, inv = field.add_table, field.sub_table, field.mul_table, field.inv_table
    counts = [[0] * q for _ in range(2 * n + 1)]

    mats = list(_matrices(field, n, n))

    ranks = [
        bytes(_rank([xr + yr for xr, yr in zip(xmat, ymat)], 2 * n, sub, mul, inv)
              for ymat, _ in mats)
        for xmat, _ in mats
    ]

    tallies = {}  # normalised echelon rows of Z -> tally[tr X][rank of [X | Y']]
    for zmat, trz in mats:
        zred = [row[:] for row in zmat]
        zrank = _rank(zred, n, sub, mul, inv)
        # normalize pivots to 1 for direct reduction of the Y rows
        pivots = []
        for r in range(zrank):
            c = next(j for j in range(n) if zred[r][j])
            piv_inv = inv[zred[r][c]]
            zred[r] = [mul[piv_inv][v] for v in zred[r]]
            pivots.append((c, zred[r]))
        key = tuple(tuple(row) for _, row in pivots)
        tally = tallies.get(key)
        if tally is None:
            yred = []
            for ymat, _ in mats:
                rows = []
                for row in ymat:
                    for c, prow in pivots:
                        f0 = row[c]
                        if f0:
                            frow = mul[f0]
                            row = [sub[a][frow[b]] for a, b in zip(row, prow)]
                    rows.append(row)
                yred.append(_index(rows, q))
            tally = tallies[key] = [[0] * (n + 1) for _ in range(q)]
            for xranks, (_, trx) in zip(ranks, mats):
                line = bytes(map(xranks.__getitem__, yred))
                by_rank = tally[trx]
                for r2 in range(n + 1):
                    by_rank[r2] += line.count(r2)
        for trx, by_rank in enumerate(tally):
            gamma = add[trx][trz]
            for r2, c in enumerate(by_rank):
                counts[zrank + r2][gamma] += c
    return counts
