import random

import pytest

import helpers
from helpers import (
    eval_at,
    gaussian_cancellation_check,
    matmul,
    random_invertible,
    random_matrix,
    rank,
)
from whitdim import dimension, engine, kernels
from whitdim.counting import FeasibilityError
from whitdim.dimension import (
    closed_dim,
    dimension_report,
    middle_dim,
    theta_unipotent,
    trace_bucket_sums,
)
from whitdim.gfield import SUPPORTED_Q, gf


class TestTheta:
    def test_examples(self):
        assert theta_unipotent(3, 1, 2) == 1
        assert theta_unipotent(3, 3, 2) == 3
        assert theta_unipotent(6, 4, 2) == 21

    def test_identity_element_gives_cuspidal_dimension(self):
        for n in (1, 2):
            for q in (2, 3, 5):
                want = 1
                for i in range(1, 3 * n):
                    want *= q ** i - 1
                assert theta_unipotent(3 * n, 3 * n, q) == want
                assert want > 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            theta_unipotent(3, 0, 2)
        with pytest.raises(ValueError):
            theta_unipotent(3, 4, 2)


class TestClosedDim:
    def test_values(self):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert closed_dim(1, q) == 1
        assert closed_dim(2, 2) == 4
        assert closed_dim(3, 2) == 192

    def test_is_the_identity_product_side_at_q(self):
        # the integer form brute reports and the q-polynomial that verify
        # checks are one closed form
        for n in range(1, 7):
            product = engine.closed_product(n)
            for q in SUPPORTED_Q:
                assert closed_dim(n, q) == eval_at(product, q), (n, q)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            closed_dim(0, 2)


class TestMiddleDim:
    def test_values(self):
        assert middle_dim(1, 2) == 1
        assert middle_dim(2, 2) == 4
        assert middle_dim(2, 5) == 100

    def test_integral_nonnegative_formula_path(self):
        for n in range(1, 7):
            for q in (2, 3, 4, 5, 7, 8, 9):
                val = middle_dim(n, q)
                assert val >= 0
                assert val == closed_dim(n, q), (n, q)


class TestBruteDim:
    def test_small_cases(self):
        assert dimension_report(1, 2)["brute"] == 1
        assert dimension_report(1, 3)["brute"] == 1
        assert dimension_report(2, 2)["brute"] == 4

    def test_triple_agreement_small(self):
        for n, q in [(1, 2), (1, 3), (1, 5), (2, 2)]:
            rep = dimension_report(n, q)
            assert rep["agree"], rep
            assert rep["brute"] == rep["middle"] == rep["closed"]

    def test_bucket_totals_and_constancy(self):
        for n, q in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)]:
            sums = trace_bucket_sums(n, q)
            assert len({sums[g] for g in range(1, q)}) <= 1
            assert set(sums) == set(range(q))

    def test_dropped_count_breaks_the_bucket_total(self, monkeypatch):
        real = kernels.count_by_rank_trace

        def short(field, shape):
            counts = real(field, shape)
            counts[-1][0] -= 1
            return counts

        monkeypatch.setattr(kernels, "count_by_rank_trace", short)
        helpers.fresh_table_cache(monkeypatch)
        with pytest.raises(AssertionError, match="bucket sizes"):
            trace_bucket_sums(1, 3)

    def test_feasibility_gate(self):
        with pytest.raises(FeasibilityError):
            trace_bucket_sums(3, 3)
        with pytest.raises(FeasibilityError):
            dimension_report(2, 2, limit=100)


class TestBucketCollapse:
    """dimension_report collapses the {gamma: S_gamma} that trace_bucket_sums returns."""

    @pytest.mark.parametrize("fn", [dimension_report])
    def test_negative_dimension_is_rejected(self, monkeypatch, fn):
        # (S_0 - S_1) / 2^3 = -1
        fake = {0: -8, 1: 0}
        monkeypatch.setattr(dimension, "trace_bucket_sums", lambda n, q, limit: fake)
        with pytest.raises(AssertionError, match="negative dimension"):
            fn(1, 2)

    @pytest.mark.parametrize("fn", [dimension_report])
    def test_nonconstant_buckets_are_rejected(self, monkeypatch, fn):
        fake = {0: 27, 1: 0, 2: 27}
        monkeypatch.setattr(dimension, "trace_bucket_sums", lambda n, q, limit: fake)
        with pytest.raises(RuntimeError, match="not constant"):
            fn(1, 3)


class TestModuleDim:
    def test_zero_total_is_dimension_zero(self):
        assert dimension._module_dim(0, 1, 2) == 0
        assert dimension._module_dim(2 * 2 ** 3, 1, 2) == 2

    def test_negative_total_raises(self):
        with pytest.raises(AssertionError, match="negative dimension"):
            dimension._module_dim(-(3 ** 3), 1, 3)


@pytest.mark.slow
class TestStretch:
    def test_2_4(self):
        assert dimension_report(2, 4)["brute"] == closed_dim(2, 4) == 48

    def test_3_2(self):
        assert dimension_report(3, 2)["brute"] == closed_dim(3, 2) == 192

    def test_2_5(self):
        assert dimension_report(2, 5)["brute"] == closed_dim(2, 5) == 100


class TestCancellation:
    def test_pivots_cover_everything(self):
        assert gaussian_cancellation_check(1, 2, 1, 1)
        assert gaussian_cancellation_check(1, 3, 1, 1)

    def test_bare_corner(self):
        assert gaussian_cancellation_check(2, 2, 0, 0)

    def test_exhaustive_2_2(self):
        assert gaussian_cancellation_check(2, 2, 1, 1, sample_count=16)

    def test_mixed_cases(self):
        for k in range(3):
            for m in range(3):
                assert gaussian_cancellation_check(2, 3, k, m, sample_count=30), (k, m)

    def test_default_sample_is_100_candidates(self, monkeypatch):
        # 4^(2*2) = 256 > 100 possible Y, so Y is sampled; each candidate
        # builds one canonical rank block
        real = helpers.block_constant
        kinds = []

        def counted(field, kind, **kw):
            kinds.append(kind)
            return real(field, kind, **kw)

        monkeypatch.setattr(helpers, "block_constant", counted)
        assert gaussian_cancellation_check(2, 4, 1, 1)
        assert kinds.count("I_klm") == 100

    def test_misplaced_pivots_are_rejected(self, monkeypatch):
        # I_{n,m} with its identity rows at the top instead of the bottom: same
        # rank and pivot columns, so every rank test still holds, but the row
        # operations cannot clear Y's last m columns below row k.  Only the
        # "outside the corner is zero" test sees it.
        real = helpers.block_constant

        def misplaced(field, kind, **kw):
            block = real(field, kind, **kw)
            if kind != "I_nm":
                return block
            cut = kw["n"] - kw["m"]
            return block[cut:] + block[:cut]

        monkeypatch.setattr(helpers, "block_constant", misplaced)
        assert not gaussian_cancellation_check(2, 2, 0, 1, sample_count=16)
        assert not gaussian_cancellation_check(2, 2, 1, 1, sample_count=16)


class TestConjugationInvariance:
    def test_rank_preserved_under_block_scaling(self):
        rng = random.Random(5150)
        for _ in range(200):
            q = rng.choice((2, 3, 4, 5))
            f = gf(q)
            n = rng.randrange(1, 3)
            x = random_matrix(f, n, n, rng)
            y = random_matrix(f, n, n, rng)
            z = random_matrix(f, n, n, rng)
            e1, e2, e3, e4 = (random_invertible(f, n, rng) for _ in range(4))

            def big(a, b, c):
                rows = [[0] * (2 * n) for _ in range(2 * n)]
                for i in range(n):
                    for j in range(n):
                        rows[i][j] = a[i][j]
                        rows[i][n + j] = b[i][j]
                        rows[n + i][n + j] = c[i][j]
                return rows

            before = rank(f, big(x, y, z))
            after = rank(f, big(
                matmul(f, matmul(f, e1, x), e3),
                matmul(f, matmul(f, e1, y), e4),
                matmul(f, matmul(f, e2, z), e4),
            ))
            assert before == after
