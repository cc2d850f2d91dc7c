"""The package's one count over GF(q), in pure Python.

count_by_rank_trace(field, shape) is a transfer count over the block
unitriangular group N of a composition: counts[rank of u - I][psi-sum of
the superdiagonal blocks' diagonals].  (rows, cols) is the single-matrix
table of the counts oracles, (n, n, n) the triple table of the brute-force
dimension.  It reads only the field's add/sub/mul/inv tables, builds u - I
row by row over states, each a reduced row-echelon basis of the rows so far
holding one count per psi-sum, and asserts that the total is q^(dim N).  It
ranks no matrix and uses no counting formula.  One loop steps every row;
the last, which reads only ranks, groups the states by free columns.

It counts the next row's residue classes, not its vectors, on three facts
of linear algebra.  Let B be the state's basis, r its rank, and S the next
row's set, the vectors zero on its first `zeros` columns.

1. S contains every row of B (the rows are taken last block first, and
   each block's set contains the later blocks' sets).  So S is the disjoint
   union of the classes rho + span(B), each of q^r vectors, and the
   vectors of S that are zero on B's pivot columns, the vectors on its
   free columns, are one representative rho of each class.
2. span(B, v) depends only on the class of v, and the classes of rho and
   lambda rho, lambda != 0, give the same span.  So the zero class keeps B,
   and the next basis is built once per projective point, the rho whose
   leading entry is 1: (q^f - 1)/(q - 1) of them for f free columns.
3. On one class, v[col] is equidistributed, q^(r - 1) vectors per value,
   when some row of B is nonzero at col (it is then a nonzero linear form
   on span(B)); otherwise it is rho[col] on the whole class.

`_insert` is the package's one row reduction; counting.grassmann_count also
runs it, to check each basis it builds.  The tests' reference, `rank` in
tests/helpers.py, shares no code with it, and ranks every element of
N(shape) from scratch.
"""

from __future__ import annotations

from itertools import combinations, product

from .gfield import GFq


def _insert(field: GFq, basis, v):
    """The reduced row-echelon basis of span(basis + [v]).

    basis is a tuple of rows in reduced row-echelon form, pivots 1, in pivot
    order, so a row's pivot is its first 1.  v is reduced at each pivot
    column; a zero residue keeps the basis, and any other joins it as one
    more normalised row, which clears its pivot column from the old rows.
    """
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
    pivots = [row.index(1) for row in basis]
    for c, prow in zip(pivots, basis):
        f = v[c]
        if f:
            frow = mul[f]
            v = tuple([sub[a][frow[b]] for a, b in zip(v, prow)])
    if not any(v):
        return basis
    c0 = v.index(next(filter(None, v)))
    frow = mul[inv[v[c0]]]
    w = tuple([frow[a] for a in v])
    rows = [(c0, w)]
    for c, prow in zip(pivots, basis):
        f = prow[c0]
        if f:
            frow = mul[f]
            prow = tuple([sub[a][frow[b]] for a, b in zip(prow, w)])
        rows.append((c, prow))
    return tuple(row for _, row in sorted(rows))


def _free(basis, zeros: int, width: int) -> tuple:
    """The columns of the row set (zeros..width - 1) that are no pivot of basis."""
    pivots = {row.index(1) for row in basis}
    return tuple(c for c in range(zeros, width) if c not in pivots)


def _points(points: dict, q: int, free, width: int) -> list:
    """One representative of each projective point on the columns `free`:
    the vectors zero off `free` whose leading entry is 1 (facts 1 and 2).
    Kept in points, by free columns."""
    out = points.get(free)
    if out is None:
        out = points[free] = []
        for t, lead in enumerate(free):
            rest = free[t + 1:]
            for tail in product(range(q), repeat=len(rest)):
                v = [0] * width
                v[lead] = 1
                for c, a in zip(rest, tail):
                    v[c] = a
                out.append(tuple(v))
    return out


def _outcomes(field: GFq, size: int, hit: bool, keep, classes, col) -> dict:
    """{(next, psi entry): number of vectors} over a row set, by class.

    Every class holds `size` vectors (fact 1).  The zero class gives keep,
    and each (rho, next) of classes stands for the q - 1 classes of the
    multiples of rho, which give next (fact 2).  col is the psi column,
    None when the row adds nothing, and hit says that a basis row is
    nonzero there; fact 3 gives the entries.
    """
    q = field.q
    out = {}
    if hit:
        share = size // q
        for e in range(q):
            out[keep, e] = share
            for _, nxt in classes:
                out[nxt, e] = out.get((nxt, e), 0) + (q - 1) * share
    else:
        mul = field.mul_table
        out[keep, 0] = size
        for v, nxt in classes:
            a = 0 if col is None else v[col]
            for lam in range(1, q):
                key = (nxt, mul[lam][a])
                out[key] = out.get(key, 0) + size
    return out


def count_by_rank_trace(field: GFq, shape):
    """counts[rank of u - I][psi-sum] over the block unitriangular group N(shape).

    shape is a composition (n_1, ..., n_k); the psi-sum adds the diagonals
    of the superdiagonal blocks.  A row of u - I is a vector on the columns
    of blocks 2..k (block 1's are zero).  Row i of block j < k is any vector
    zero on blocks 2..j, and adds its entry at column i of block j + 1 to
    the psi-sum, nothing once i >= n_(j+1).  So (rows, cols) counts the
    rows x cols matrices, and (n, n, n) the [[X, Y], [0, Z]] by tr X + tr Z.

    The rows are taken last block first, which changes no rank and makes
    each row set contain the bases before it (fact 1).  A state is the
    reduced row-echelon basis of the rows so far, holding one count per
    psi-sum.  One loop steps every row: it groups the states by what their
    outcomes depend on, a basis and whether a basis row is nonzero at the
    psi column (hit), and adds each group's counts into every outcome of
    `_outcomes`, shifted by the outcome's psi entry.  Each block builds the
    next bases of a basis once, one per projective point (`_points`,
    `_insert`).  The last row reads only ranks and builds no basis: there a
    group is a basis's free columns, which fix its rank, with hit, and the
    states become ranks.  Every rank up to the largest occurs (zeroing a row
    lowers a rank by at most one), so the table has one row per rank that
    occurs.  The total must be q^(dim N), dim N = sum over i < j of
    n_i n_j; anything else raises.
    """
    q = field.q
    add = field.add_table
    width = sum(shape[1:])
    points = {}  # free columns -> their _points
    # basis -> counts by psi-sum of the partial matrices; rank -> counts
    # after the last row, and with no rows at all, the empty matrix, of rank 0
    states = {() if any(shape[:-1]) else 0: [1] + [0] * (q - 1)}
    for j in reversed(range(len(shape) - 1)):
        zeros = width - sum(shape[j + 1:])
        classes = {}  # basis -> (rho, next basis) per projective point
        for i in range(shape[j]):
            col = zeros + i if i < shape[j + 1] else None
            last = i == shape[j] - 1 and not any(shape[:j])
            groups = {}  # (basis, or its free columns in the last row; hit) -> counts
            for basis, counts in states.items():
                key = (_free(basis, zeros, width) if last else basis,
                       col is not None and any(row[col] for row in basis))
                old = groups.get(key)
                groups[key] = counts if old is None else [a + b for a, b in zip(old, counts)]
            states = {}
            for (kind, hit), counts in groups.items():
                if last:
                    rank = width - zeros - len(kind)
                    keep, cls = rank, [(v, rank + 1) for v in _points(points, q, kind, width)]
                else:
                    rank, keep, cls = len(kind), kind, classes.get(kind)
                    if cls is None:
                        pts = _points(points, q, _free(kind, zeros, width), width)
                        cls = classes[kind] = [(v, _insert(field, kind, v)) for v in pts]
                for (nxt, e), k in _outcomes(field, q ** rank, hit, keep, cls, col).items():
                    row = states.get(nxt)
                    if row is None:
                        row = states[nxt] = [0] * q
                    for t, c in zip(add[e], counts):
                        row[t] += k * c
    counts = [states[r] for r in range(len(states))]
    total = sum(map(sum, counts))
    expected = q ** sum(a * b for a, b in combinations(shape, 2))
    if total != expected:
        raise AssertionError("transfer count of shape %r over GF(%d) totals %d, not %d"
                             % (tuple(shape), q, total, expected))
    return counts
