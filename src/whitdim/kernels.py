"""The package's one count over GF(q), in pure Python.

count_by_rank_trace(field, shape) is a transfer count over the block
unitriangular group N of a composition: counts[rank of u - I][psi-sum of
the superdiagonal blocks' diagonals].  (rows, cols) is the single-matrix
table of the counts oracles, (n, n, n) the triple table of the brute-force
dimension.  It reads only the field's add/sub/mul/inv tables, builds u - I
row by row over states (reduced row-echelon basis of the rows so far,
psi-sum), and asserts that the total is q^(dim N).  It ranks no matrix and
uses no counting formula.

`_extensions` is the package's only row reduction; counting.grassmann_count
also runs it, to check each basis it builds.  The tests' reference, `rank`
in tests/helpers.py, shares no code with it, and ranks every element of
N(shape) from scratch.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product, repeat

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


def count_by_rank_trace(field: GFq, shape):
    """counts[rank of u - I][psi-sum] over the block unitriangular group N(shape).

    shape is a composition (n_1, ..., n_k); the psi-sum adds the diagonals
    of the superdiagonal blocks.  A row of u - I is a vector on the columns
    of blocks 2..k (block 1's are zero).  Row i of block j < k is any vector
    zero on blocks 2..j, and adds its entry at column i of block j + 1 to
    the psi-sum, nothing once i >= n_(j+1).  So (rows, cols) counts the
    rows x cols matrices, and (n, n, n) the [[X, Y], [0, Z]] by tr X + tr Z.

    The rows are taken last block first, which changes no rank and extends
    fewer bases (1823 against 3539 at (3, 3, 3) over GF(2)).  The state is
    the reduced row-echelon basis of the rows so far with their psi-sum.
    Each block extends each distinct basis by every vector of its row set
    once (`_extensions`), and groups the outcomes once per psi column asked
    for, by (next basis, entry).  The total must be q^(dim N), dim N =
    sum over i < j of n_i n_j; anything else raises.
    """
    q = field.q
    add = field.add_table
    width = sum(shape[1:])
    states = {((), 0): 1}  # (basis, psi-sum) -> number of partial matrices
    for j in reversed(range(len(shape) - 1)):
        zeros = width - sum(shape[j + 1:])
        vectors = [(0,) * zeros + v for v in product(range(q), repeat=width - zeros)]
        psi = list(zip(*vectors))[zeros:zeros + shape[j + 1]]
        exts = {}  # basis -> next basis for each vector of the set
        steps = {}  # (basis, psi column or None) -> Counter of (next basis, entry)
        for i in range(shape[j]):
            d = i if i < shape[j + 1] else None
            nxt = {}
            for (basis, tr), c in states.items():
                step = steps.get((basis, d))
                if step is None:
                    ext = exts.get(basis)
                    if ext is None:
                        ext = exts[basis] = _extensions(field, basis, vectors)
                    step = steps[basis, d] = Counter(
                        zip(ext, repeat(0) if d is None else psi[d]))
                sums = add[tr]
                for (nb, e), k in step.items():
                    key = (nb, sums[e])
                    nxt[key] = nxt.get(key, 0) + c * k
            states = nxt
    counts = [[0] * q for _ in range(min(sum(shape[:-1]), width) + 1)]
    for (basis, tr), c in states.items():
        counts[len(basis)][tr] += c
    total = sum(map(sum, counts))
    expected = q ** sum(a * b for a, b in combinations(shape, 2))
    if total != expected:
        raise AssertionError("transfer count of shape %r over GF(%d) totals %d, not %d"
                             % (tuple(shape), q, total, expected))
    return counts
