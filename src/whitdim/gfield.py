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

