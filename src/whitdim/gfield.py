"""Small finite fields GF(q) for q in {2,3,4,5,7,8,9} and dense matrices over them.

Field elements are indices 0..q-1.  For prime q these are the residues; for
prime powers q = p^d an index encodes a polynomial over GF(p) in base-p digits
(little-endian), reduced modulo a fixed published irreducible polynomial:

    GF(4): x^2 + x + 1      GF(8): x^3 + x + 1      GF(9): x^2 + 1

Fixing the moduli keeps element indexing reproducible across runs.  Field
axioms are verified over the full element set at construction time for the
non-prime fields.  All tables are immutable shared data.
"""

from __future__ import annotations

from functools import lru_cache

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)

_MODULI = {
    4: (1, 1, 1),      # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),   # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),      # x^2 + 1 over GF(3)
}


class GFq:
    """Arithmetic tables for GF(q); construct via the cached factory gf(q)."""

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise ValueError("unsupported field size %r (supported: %r)" % (q, SUPPORTED_Q))
        self.q = q
        for p in (2, 3, 5, 7):
            if q % p == 0:
                self.p = p
                break
        self.deg = 1
        while self.p ** self.deg < q:
            self.deg += 1
        self.modulus = _MODULI.get(q)

        if self.deg == 1:
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            add = [
                [self._encode([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])
                 for b in range(q)]
                for a in range(q)
            ]
            mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]

        self.add_table = tuple(tuple(r) for r in add)
        self.mul_table = tuple(tuple(r) for r in mul)
        self.neg_table = tuple(next(b for b in range(q) if add[a][b] == 0) for a in range(q))
        self.sub_table = tuple(
            tuple(add[a][self.neg_table[b]] for b in range(q)) for a in range(q)
        )
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
        self.inv_table = tuple(inv)

        if self.deg > 1:
            self._verify_axioms()

    def _digits(self, a: int):
        out = []
        for _ in range(self.deg):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _poly_mul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce modulo the monic irreducible
        for i in range(len(prod) - 1, self.deg - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, mj in enumerate(self.modulus[:-1]):
                    prod[i - self.deg + j] = (prod[i - self.deg + j] - c * mj) % self.p
        return self._encode(prod[: self.deg])

    def _verify_axioms(self):
        q = self.q
        add, mul = self.add_table, self.mul_table
        for a in range(q):
            if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
                raise AssertionError("identity axiom failed in GF(%d)" % q)
            for b in range(q):
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise AssertionError("commutativity failed in GF(%d)" % q)
                for c in range(q):
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise AssertionError("associativity failed in GF(%d)" % q)
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise AssertionError("distributivity failed in GF(%d)" % q)

    # element helpers
    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.sub_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self.inv_table[a]

    def __repr__(self):
        return "GFq(%d)" % self.q


@lru_cache(maxsize=None)
def gf(q: int) -> GFq:
    return GFq(q)


class GFMatrix:
    """Dense matrix over GF(q); entries is the row-major tuple of element indices."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: GFq, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        if any(not 0 <= e < field.q for e in entries):
            raise ValueError("entry out of range for GF(%d)" % field.q)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("GFMatrix is immutable")

    @staticmethod
    def from_rows(field: GFq, rows) -> "GFMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return GFMatrix(field, len(rows), ncols, [e for r in rows for e in r])

    @staticmethod
    def zeros(field: GFq, rows: int, cols: int) -> "GFMatrix":
        return GFMatrix(field, rows, cols, [0] * (rows * cols))

    @staticmethod
    def identity(field: GFq, n: int) -> "GFMatrix":
        return GFMatrix(field, n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self):
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return (
            self.field.q == other.field.q
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field.q, self.rows, self.cols, self.entries))

    def __mul__(self, other):
        if not isinstance(other, GFMatrix):
            return NotImplemented
        if self.cols != other.rows or self.field.q != other.field.q:
            raise ValueError("incompatible shapes for matrix product")
        f = self.field
        add, mul = f.add_table, f.mul_table
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                acc = 0
                for t in range(self.cols):
                    acc = add[acc][mul[ai[t]][b[t][j]]]
                out.append(acc)
        return GFMatrix(f, self.rows, other.cols, out)

    def trace(self) -> int:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        f = self.field
        acc = 0
        for i in range(self.rows):
            acc = f.add_table[acc][self.entry(i, i)]
        return acc

    def rank(self) -> int:
        return _rank_rows(self.field, self.to_rows(), self.cols)

    def __repr__(self):
        return "GFMatrix(GF(%d), %r)" % (self.field.q, self.to_rows())


def _rank_rows(field: GFq, rows, ncols: int) -> int:
    """Rank by exact Gaussian elimination; mutates the given row lists."""
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
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
                row = rows[i]
                for j in range(c, ncols):
                    row[j] = sub[row[j]][mul[fac][prow[j]]]
        r += 1
    return r


def rank_factorize(x: GFMatrix):
    """Invertible (E1, E3) with x = E1 * I_{k,n} * E3, k = rank(x), x square.

    E1 and E3 are the accumulated inverses of the Gauss-Jordan row and column
    operations that reduce x to the rank-normal block form, so the
    postcondition holds by construction and is cheap to re-verify.
    """
    if x.rows != x.cols:
        raise ValueError("rank factorization expects a square matrix")
    f = x.field
    n = x.rows
    add, sub, mul, inv, neg = f.add_table, f.sub_table, f.mul_table, f.inv_table, f.neg_table
    a = x.to_rows()
    e1 = GFMatrix.identity(f, n).to_rows()
    e3 = GFMatrix.identity(f, n).to_rows()

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in e1:  # E1 <- E1 * P_ij (swap columns)
            r[i], r[j] = r[j], r[i]

    def row_scale(i, c):
        cinv = inv[c]
        a[i] = [mul[c][v] for v in a[i]]
        for r in e1:  # column i of E1 scales by c^-1
            r[i] = mul[cinv][r[i]]

    def row_add(i, j, c):
        # a[i] += c * a[j]; E1 column j -= c * column i
        aj = a[j]
        a[i] = [add[v][mul[c][w]] for v, w in zip(a[i], aj)]
        for r in e1:
            r[j] = sub[r[j]][mul[c][r[i]]]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        e3[i], e3[j] = e3[j], e3[i]  # E3 <- P_ij * E3 (swap rows)

    def col_add(i, j, c):
        # column j of a += c * column i; E3 row i -= c * row j
        for r in a:
            r[j] = add[r[j]][mul[c][r[i]]]
        e3[i] = [sub[v][mul[c][w]] for v, w in zip(e3[i], e3[j])]

    # forward elimination to reduced row echelon form
    rank = 0
    pivot_cols = []
    for c in range(n):
        pivot = -1
        for i in range(rank, n):
            if a[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != rank:
            row_swap(rank, pivot)
        if a[rank][c] != 1:
            row_scale(rank, inv[a[rank][c]])
        for i in range(n):
            if i != rank and a[i][c]:
                row_add(i, rank, neg[a[i][c]])
        pivot_cols.append(c)
        rank += 1

    # clear the non-pivot columns in pivot rows, then bring pivots home
    for r, c in enumerate(pivot_cols):
        for j in range(n):
            if j != c and a[r][j]:
                col_add(c, j, neg[a[r][j]])
    for r, c in enumerate(pivot_cols):
        if c != r:
            # pivot columns ascend, so column r is free by the time we get here
            col_swap(r, c)

    return GFMatrix.from_rows(f, e1), GFMatrix.from_rows(f, e3)


def block_constant(field: GFq, kind: str, *, n: int, k: int = None, m: int = None, l: int = None) -> GFMatrix:
    """The block constants used by the rank-and-trace decomposition.

    kind "I_kn": identity block of size k in the top-left of an n x n zero matrix.
    kind "I_nm": identity block of size m in the bottom-right.
    kind "I_klm": identity block of size l at rows k..k+l-1, columns 0..l-1,
    the trailing m columns of those rows staying zero; needs k + l <= n and
    l + m <= n (both hold for every l <= n - max(k, m)).
    """
    if kind == "I_kn":
        if k is None or not 0 <= k <= n:
            raise ValueError("I_kn needs 0 <= k <= n")
        return GFMatrix(field, n, n, [1 if i == j and i < k else 0 for i in range(n) for j in range(n)])
    if kind == "I_nm":
        if m is None or not 0 <= m <= n:
            raise ValueError("I_nm needs 0 <= m <= n")
        return GFMatrix(
            field, n, n,
            [1 if i == j and i >= n - m else 0 for i in range(n) for j in range(n)],
        )
    if kind == "I_klm":
        if (
            k is None or l is None or m is None
            or min(k, l, m) < 0 or k + l > n or l + m > n
        ):
            raise ValueError("I_klm needs k, l, m >= 0 with k + l <= n and l + m <= n")
        return GFMatrix(
            field, n, n,
            [1 if k <= i < k + l and j == i - k else 0 for i in range(n) for j in range(n)],
        )
    raise ValueError("unknown block constant kind %r" % kind)


def random_matrix(field: GFq, rows: int, cols: int, rng) -> GFMatrix:
    return GFMatrix(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


def random_invertible(field: GFq, n: int, rng) -> GFMatrix:
    while True:
        m = random_matrix(field, n, n, rng)
        if m.rank() == n:
            return m
