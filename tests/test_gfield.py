import random

import pytest

from helpers import block_constant, random_invertible, random_matrix
from whitdim.gfield import SUPPORTED_Q, GFMatrix, GFq, gf


class TestFields:
    def test_supported_sizes_construct(self):
        for q in SUPPORTED_Q:
            f = gf(q)
            assert f.q == q and f.add(0, 1) == 1 and f.mul(1, 1) == 1

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
                assert f.mul(a, f.inv(a)) == 1
            with pytest.raises(ZeroDivisionError):
                f.inv(0)

    def test_characteristic(self):
        f = gf(9)
        assert f.p == 3 and f.deg == 2
        # x * x = -1 = 2 with the modulus x^2 + 1; x is element index 3
        assert f.mul(3, 3) == 2


class TestMatrices:
    def test_zero_matrix(self):
        m = GFMatrix.zeros(gf(2), 2, 2)
        assert m.rank() == 0 and m.trace() == 0

    def test_identity_trace_wraps(self):
        m = GFMatrix.from_rows(gf(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert m.rank() == 3 and m.trace() == 0

    def test_rank_one_all_ones(self):
        m = GFMatrix.from_rows(gf(2), [[1, 1], [1, 1]])
        assert m.rank() == 1 and m.trace() == 0

    def test_trace_requires_square(self):
        with pytest.raises(ValueError):
            GFMatrix.zeros(gf(2), 2, 3).trace()

    def test_rank_against_known(self):
        f = gf(3)
        m = GFMatrix.from_rows(f, [[1, 2, 0], [2, 2, 0], [0, 0, 1]])
        assert m.rank() == 3  # 2x2 corner has det 1*2 - 2*2 = 1 mod 3
        m = GFMatrix.from_rows(f, [[1, 2, 0], [2, 1, 0], [0, 0, 0]])
        assert m.rank() == 1  # second row is 2 * first over GF(3)

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            GFMatrix(gf(2), 1, 1, [2])
        with pytest.raises(ValueError):
            GFMatrix(gf(2), 2, 2, [0, 1])


class TestRankInvariance:
    def test_invertible_multiplication_preserves_rank(self):
        rng = random.Random(31)
        for _ in range(300):
            q = rng.choice(SUPPORTED_Q)
            f = gf(q)
            n = rng.randrange(1, 4)
            m = random_matrix(f, n, n, rng)
            e = random_invertible(f, n, rng)
            assert (e * m).rank() == m.rank() == (m * e).rank()


class TestBlockConstants:
    def test_displayed_values(self):
        f = gf(2)
        assert block_constant(f, "I_kn", n=2, k=1).to_rows() == [[1, 0], [0, 0]]
        assert block_constant(f, "I_nm", n=2, m=1).to_rows() == [[0, 0], [0, 1]]
        assert block_constant(f, "I_nm", n=2, m=0) == GFMatrix.zeros(f, 2, 2)
        assert block_constant(f, "I_klm", n=2, k=1, l=1, m=0).to_rows() == [[0, 0], [1, 0]]

    def test_larger_shifted_block(self):
        f = gf(3)
        m = block_constant(f, "I_klm", n=4, k=1, l=2, m=1)
        assert m.to_rows() == [
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
