"""Small finite fields GF(q) for q in {2,3,4,5,7,8,9}, as element tables.

Field elements are indices 0..q-1.  For prime q these are the residues; for
prime powers q = p^d an index encodes a polynomial over GF(p) in base-p digits
(little-endian), reduced modulo a fixed published irreducible polynomial:

    GF(4): x^2 + x + 1      GF(8): x^3 + x + 1      GF(9): x^2 + 1

Fixing the moduli keeps element indexing reproducible across runs.  GFq
holds the add, sub, neg, mul and inv tables, indexed by elements (inv_table[0]
is a placeholder 0), and gf(q) builds each field once.  Field axioms are
verified over the full element set at construction time for the non-prime
fields.  All tables are immutable shared data.
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

    def __repr__(self):
        return "GFq(%d)" % self.q


@lru_cache(maxsize=None)
def gf(q: int) -> GFq:
    return GFq(q)
