from itertools import combinations, product

import pytest

from helpers import rank, trace
from whitdim import counting, kernels
from whitdim.counting import (
    FeasibilityError,
    count_rect_by_rank,
    grassmann_count,
    grassmann_formula,
    prasad_delta,
    rect_rank_formula,
)
from whitdim.gfield import SUPPORTED_Q, gf


class TestRectRank:
    def test_rank_one_2x2_gf2(self):
        assert count_rect_by_rank(2, 2, 1, 2) == (9, 9)

    def test_rank_zero_is_the_zero_matrix(self):
        for s, t, q in [(1, 3, 2), (2, 2, 3), (3, 1, 5)]:
            assert count_rect_by_rank(s, t, 0, q) == (1, 1)

    def test_full_rank_2x2_gf2_is_gl2(self):
        assert count_rect_by_rank(2, 2, 2, 2) == (6, 6)

    def test_rank_sum_exhausts_matrix_space(self):
        for q in (2, 3):
            for s in range(1, 4):
                for t in range(1, 4):
                    counts = [sum(row) for row in kernels.count_by_rank_trace(gf(q), s, t)]
                    assert sum(counts) == q ** (s * t), (s, t, q)
                    for k, c in enumerate(counts):
                        assert c == rect_rank_formula(s, t, k, q), (s, t, k, q)

    def test_infeasible(self):
        with pytest.raises(FeasibilityError):
            count_rect_by_rank(3, 3, 1, 3, limit=10)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            rect_rank_formula(2, 2, 3, 2)


class TestFeasibilityGate:
    def test_default_limit_is_ten_to_the_ninth(self):
        assert counting.FEASIBILITY_LIMIT == 10 ** 9

    def test_enumeration_runs_at_the_limit_and_not_one_below(self):
        # each oracle's candidate count: q^(s*t), q^(size^2), the subspace count
        runs = [
            (count_rect_by_rank, (2, 2, 1, 2), 2 ** 4),
            (prasad_delta, (1, 1, 3), 3 ** 4),
            (grassmann_count, (3, 1, 2), 7),
        ]
        for oracle, args, candidates in runs:
            oracle(*args, limit=candidates)
            with pytest.raises(FeasibilityError) as err:
                oracle(*args, limit=candidates - 1)
            assert (err.value.candidates, err.value.limit) == (candidates, candidates - 1)


class TestSquareRankTrace:
    def test_known_values(self):
        assert kernels.count_by_rank_trace(gf(2), 2, 2) == [[1, 0], [3, 6], [4, 2]]
        assert kernels.count_by_rank_trace(gf(3), 1, 1) == [[1, 0, 0], [0, 1, 1]]

    def test_totals_and_nonzero_trace_constancy(self):
        for q in (2, 3, 4):
            for size in (1, 2):
                counts = kernels.count_by_rank_trace(gf(q), size, size)
                assert sum(sum(row) for row in counts) == q ** (size * size)
                for row in counts:
                    assert len({row[a] for a in range(1, q)}) <= 1


class TestRectRankTrace:
    # The package counts single-matrix tables by transfer over row spaces and
    # ranks none of them, so this from-scratch tally through helpers.rank is
    # what checks every cell of them.
    def test_rectangular_shapes_match_a_from_scratch_tally(self):
        shapes = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        for q in (2, 3, 4):
            for rows, cols in shapes:
                self._check_against_tally(q, rows, cols)

    def test_square_shapes_match_a_from_scratch_tally(self):
        for q, size in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
            self._check_against_tally(q, size, size)

    def test_shapes_without_rows_or_columns_hold_only_the_empty_matrix(self):
        for q in (2, 3, 5):
            for rows, cols in [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)]:
                assert kernels.count_by_rank_trace(gf(q), rows, cols) == [[1] + [0] * (q - 1)]

    @staticmethod
    def _check_against_tally(q, rows, cols):
        f = gf(q)
        want = [[0] * q for _ in range(min(rows, cols) + 1)]
        for e in product(range(q), repeat=rows * cols):
            m = [e[i * cols:(i + 1) * cols] for i in range(rows)]
            diag = 0
            for i in range(min(rows, cols)):
                diag = f.add_table[diag][m[i][i]]
            want[rank(f, m)][diag] += 1
        counts = kernels.count_by_rank_trace(f, rows, cols)
        assert counts == want, (q, rows, cols)
        for k, row in enumerate(counts):
            assert sum(row) == rect_rank_formula(rows, cols, k, q), (q, rows, cols, k)


class TestPrasadDelta:
    def test_known_values(self):
        assert prasad_delta(1, 1, 2) == (3, 3)
        assert prasad_delta(2, 0, 3) == (-1, -1)
        delta, formula = prasad_delta(0, 2, 2)
        assert delta == formula == -2

    def test_all_small_sizes(self):
        for q in (2, 3):
            for size in range(4):
                for k in range(size + 1):
                    delta, formula = prasad_delta(size - k, k, q)
                    assert delta == formula, (size - k, k, q)


class TestGrassmann:
    def test_lines_in_plane(self):
        assert grassmann_count(2, 1, 2) == (3, 3)

    def test_zero_subspace(self):
        for n, q in [(1, 2), (3, 3), (4, 2)]:
            assert grassmann_count(n, 0, q) == (1, 1)

    def test_lines_in_3space_gf3(self):
        assert grassmann_count(3, 1, 3) == (13, 13)

    def test_enumeration_matches_formula(self):
        for q in SUPPORTED_Q:
            for n in range(1, 5):
                for m in range(n + 1):
                    enum, formula = grassmann_count(n, m, q)
                    assert enum == formula, (n, m, q)

    def test_basis_out_of_pivot_order_raises(self, monkeypatch):
        # reversed pivot tuples build every basis with its rows in reverse
        # order: the count still equals the formula, and only the reduced
        # row-echelon check sees the order
        monkeypatch.setattr(counting, "combinations",
                            lambda pool, r: (p[::-1] for p in combinations(pool, r)))
        with pytest.raises(AssertionError, match="reduced row-echelon"):
            grassmann_count(3, 2, 3)

    def test_duality(self):
        for q in (2, 3):
            assert grassmann_formula(4, 1, q) == grassmann_formula(4, 3, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            grassmann_formula(2, 3, 2)


class TestBackendAgreement:
    def test_pure_triples_match_full_rank_reference(self):
        cases = [(q, 1) for q in SUPPORTED_Q] + [(2, 2)]
        for q, n in cases:
            f = gf(q)
            assert kernels.count_triples_by_rank_bucket(f, n) == _triples_by_full_rank(f, n), (q, n)

    @pytest.mark.slow
    def test_triples_over_gf3_match_full_rank_reference(self):
        f = gf(3)
        assert kernels.count_triples_by_rank_bucket(f, 2) == _triples_by_full_rank(f, 2)


class TestTransferTotal:
    """A transfer count that loses one outcome must raise, not return a short table."""

    @pytest.fixture(autouse=True)
    def drop_last_outcome(self, monkeypatch):
        extensions = kernels._extensions
        monkeypatch.setattr(kernels, "_extensions",
                            lambda field, basis, vectors: extensions(field, basis, vectors)[:-1])

    def test_single_matrix_table(self):
        with pytest.raises(AssertionError, match="totals"):
            kernels.count_by_rank_trace(gf(2), 2, 2)

    def test_triple_table(self):
        with pytest.raises(AssertionError, match="totals"):
            kernels.count_triples_by_rank_bucket(gf(2), 1)


class TestKernelShapes:
    def test_count_by_rank_has_one_entry_per_rank(self):
        for q, rows, cols in [(2, 1, 1), (2, 2, 3), (3, 3, 1), (4, 2, 2), (5, 1, 2)]:
            counts = [sum(row) for row in kernels.count_by_rank_trace(gf(q), rows, cols)]
            assert len(counts) == min(rows, cols) + 1, (q, rows, cols)
            assert sum(counts) == q ** (rows * cols), (q, rows, cols)

    def test_count_by_rank_trace_has_one_row_per_rank_and_one_entry_per_trace(self):
        shapes = [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 1), (4, 1, 1), (4, 2, 2),
                  (5, 1, 1), (5, 1, 2)]
        for q, rows, cols in shapes:
            counts = kernels.count_by_rank_trace(gf(q), rows, cols)
            assert len(counts) == min(rows, cols) + 1, (q, rows, cols)
            assert [len(row) for row in counts] == [q] * len(counts), (q, rows, cols)


def _triples_by_full_rank(field, n):
    """counts[rank][tr X + tr Z] by ranking every [[X, Y], [0, Z]] from scratch."""
    q = field.q
    counts = [[0] * q for _ in range(2 * n + 1)]
    blocks = [[list(e[i * n:(i + 1) * n]) for i in range(n)]
              for e in product(range(q), repeat=n * n)]
    for x in blocks:
        for y in blocks:
            for z in blocks:
                rows = [xr + yr for xr, yr in zip(x, y)] + [[0] * n + zr for zr in z]
                gamma = field.add_table[trace(field, x)][trace(field, z)]
                counts[rank(field, rows)][gamma] += 1
    return counts


class TestMemoisedOracles:
    def test_each_shape_enumerated_once(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(field, *dims):
                calls.append((name, field.q) + dims)
                return fn(field, *dims)
            return wrapped

        for name in [n for n in vars(kernels) if n.startswith("count_")]:
            monkeypatch.setattr(kernels, name, spy(name, getattr(kernels, name)))
        counting._rank_trace_counts.cache_clear()

        for k in range(4):
            enum, formula = count_rect_by_rank(3, 3, k, 2)
            assert enum == formula
        for k in range(4):
            delta, formula = prasad_delta(3 - k, k, 2)
            assert delta == formula
        assert calls == [("count_by_rank_trace", 2, 3, 3)]

    def test_mutating_a_returned_count_cannot_corrupt_a_later_call(self):
        fresh = kernels.count_by_rank_trace(gf(2), 2, 2)
        fresh[1][1] = 0
        assert kernels.count_by_rank_trace(gf(2), 2, 2) == [[1, 0], [3, 6], [4, 2]]

        table = counting._rank_trace_counts(2, 2, 2)
        with pytest.raises(TypeError):
            table[1] = (0, 0)
        with pytest.raises(TypeError):
            table[1][1] = 0
        assert count_rect_by_rank(2, 2, 1, 2) == (9, 9)
        assert prasad_delta(1, 1, 2) == (3, 3)
