import random

import pytest

from helpers import block_constant, matmul, random_invertible, random_matrix, rank, trace
from whitdim.gfield import SUPPORTED_Q, GFq, gf


class TestFields:
    def test_supported_sizes_construct(self):
        for q in SUPPORTED_Q:
            f = gf(q)
            assert f.q == q and f.add_table[0][1] == 1 and f.mul_table[1][1] == 1

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError):
            GFq(6)
        with pytest.raises(ValueError):
            GFq(11)

    def test_axioms_exhaustive_on_extensions(self):
        for q in (4, 8, 9):
            f = gf(q)
            add, mul = f.add_table, f.mul_table
            for a in range(q):
                for b in range(q):
                    for c in range(q):
                        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                        assert add[add[a][b]][c] == add[a][add[b][c]]

    def test_inverses(self):
        for q in SUPPORTED_Q:
            f = gf(q)
            for a in range(1, q):
                assert f.mul_table[a][f.inv_table[a]] == 1

    def test_characteristic(self):
        f = gf(9)
        assert f.p == 3 and f.deg == 2
        # x * x = -1 = 2 with the modulus x^2 + 1; x is element index 3
        assert f.mul_table[3][3] == 2


class TestMatrices:
    def test_zero_matrix(self):
        f = gf(2)
        m = [[0, 0], [0, 0]]
        assert rank(f, m) == 0 and trace(f, m) == 0

    def test_identity_trace_wraps(self):
        f = gf(3)
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert rank(f, m) == 3 and trace(f, m) == 0

    def test_rank_one_all_ones(self):
        f = gf(2)
        m = [[1, 1], [1, 1]]
        assert rank(f, m) == 1 and trace(f, m) == 0

    def test_trace_requires_square(self):
        with pytest.raises(ValueError):
            trace(gf(2), [[0, 0, 0], [0, 0, 0]])

    def test_rank_against_known(self):
        f = gf(3)
        # the 2x2 corner has det 1*2 - 2*2 = 1 mod 3
        assert rank(f, [[1, 2, 0], [2, 2, 0], [0, 0, 1]]) == 3
        # the second row is 2 * the first over GF(3)
        assert rank(f, [[1, 2, 0], [2, 1, 0], [0, 0, 0]]) == 1


class TestRankInvariance:
    def test_invertible_multiplication_preserves_rank(self):
        rng = random.Random(31)
        for _ in range(300):
            q = rng.choice(SUPPORTED_Q)
            f = gf(q)
            n = rng.randrange(1, 4)
            m = random_matrix(f, n, n, rng)
            e = random_invertible(f, n, rng)
            assert rank(f, matmul(f, e, m)) == rank(f, m) == rank(f, matmul(f, m, e))


class TestBlockConstants:
    def test_displayed_values(self):
        f = gf(2)
        assert block_constant(f, "I_kn", n=2, k=1) == [[1, 0], [0, 0]]
        assert block_constant(f, "I_nm", n=2, m=1) == [[0, 0], [0, 1]]
        assert block_constant(f, "I_nm", n=2, m=0) == [[0, 0], [0, 0]]
        assert block_constant(f, "I_klm", n=2, k=1, l=1, m=0) == [[0, 0], [1, 0]]

    def test_larger_shifted_block(self):
        f = gf(3)
        assert block_constant(f, "I_klm", n=4, k=1, l=2, m=1) == [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 0],
        ]

    def test_bounds(self):
        f = gf(2)
        with pytest.raises(ValueError):
            block_constant(f, "I_kn", n=2, k=3)
        with pytest.raises(ValueError):
            block_constant(f, "I_nm", n=2, m=3)
        with pytest.raises(ValueError):
            block_constant(f, "I_klm", n=2, k=2, l=1, m=0)
        with pytest.raises(ValueError):
            block_constant(f, "unknown", n=2)
