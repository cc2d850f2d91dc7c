from itertools import product

import pytest

from whitdim import counting, kernels
from whitdim.counting import (
    FeasibilityError,
    count_rect_by_rank,
    count_square_by_rank_trace,
    grassmann_count,
    grassmann_formula,
    prasad_delta,
    rect_rank_formula,
)
from whitdim.gfield import SUPPORTED_Q, GFMatrix, gf


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
                    counts = kernels.count_by_rank(gf(q), s, t)
                    assert sum(counts) == q ** (s * t), (s, t, q)
                    for k, c in enumerate(counts):
                        assert c == rect_rank_formula(s, t, k, q), (s, t, k, q)

    def test_infeasible(self):
        with pytest.raises(FeasibilityError):
            count_rect_by_rank(3, 3, 1, 3, limit=10)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            rect_rank_formula(2, 2, 3, 2)


class TestSquareRankTrace:
    def test_known_values(self):
        assert count_square_by_rank_trace(2, 1, 1, 2) == 6
        assert count_square_by_rank_trace(2, 1, 0, 2) == 3
        assert count_square_by_rank_trace(1, 0, 0, 3) == 1

    def test_totals_and_nonzero_trace_constancy(self):
        for q in (2, 3, 4):
            for size in (1, 2):
                counts = kernels.count_by_rank_trace(gf(q), size)
                assert sum(sum(row) for row in counts) == q ** (size * size)
                for row in counts:
                    assert len({row[a] for a in range(1, q)}) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            count_square_by_rank_trace(2, 3, 0, 2)
        with pytest.raises(ValueError):
            count_square_by_rank_trace(2, 1, 5, 2)


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
        for q in (2, 3):
            for n in range(1, 5):
                for m in range(n + 1):
                    enum, formula = grassmann_count(n, m, q)
                    assert enum == formula, (n, m, q)

    def test_duality(self):
        for q in (2, 3):
            assert grassmann_formula(4, 1, q) == grassmann_formula(4, 3, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            grassmann_formula(2, 3, 2)


class TestBackendAgreement:
    def test_pure_matches_selected_backend(self):
        from whitdim import _gfkernel_py

        for q, rows, cols in [(2, 2, 2), (3, 2, 2), (4, 2, 1), (5, 1, 2), (9, 1, 1)]:
            f = gf(q)
            selected = kernels.count_by_rank(f, rows, cols)
            pure = _gfkernel_py.count_by_rank(q, *f.flat_tables(), rows, cols)
            assert selected == [int(x) for x in pure]
        for q, n in [(2, 1), (3, 1), (2, 2)]:
            f = gf(q)
            selected = kernels.count_triples_by_rank_bucket(f, n)
            pure = _gfkernel_py.count_triples_by_rank_bucket(q, *f.flat_tables(), n)
            assert selected == [[int(x) for x in row] for row in pure]

    def test_triple_kernel_always_runs_pure(self, monkeypatch):
        # the memoised pure triple kernel beats the compiled full enumeration
        from whitdim import _gfkernel_py

        class NoTriples:
            count_triples_by_rank_bucket = None  # a compiled stand-in must not be used

        calls = []
        pure = _gfkernel_py.count_triples_by_rank_bucket

        def spy(*args):
            calls.append(args[0])
            return pure(*args)

        monkeypatch.setattr(kernels, "_impl", NoTriples)
        monkeypatch.setattr(_gfkernel_py, "count_triples_by_rank_bucket", spy)
        assert kernels.count_triples_by_rank_bucket(gf(3), 1) == [
            [int(x) for x in row] for row in pure(3, *gf(3).flat_tables(), 1)
        ]
        assert calls == [3]

    def test_pure_triples_match_full_rank_reference(self):
        from whitdim import _gfkernel_py

        cases = [(q, 1) for q in SUPPORTED_Q] + [(2, 2)]
        for q, n in cases:
            f = gf(q)
            pure = _gfkernel_py.count_triples_by_rank_bucket(q, *f.flat_tables(), n)
            assert pure == _triples_by_full_rank(f, n), (q, n)


class TestTableLengths:
    # the compiled kernels index the flat tables without bounds checks
    def test_short_table_is_rejected_before_dispatch(self, monkeypatch):
        from whitdim.gfield import GFq

        class CompiledStandIn:
            def __getattr__(self, name):
                raise AssertionError("kernel reached with a short table")

        monkeypatch.setattr(kernels, "_impl", CompiledStandIn())
        for q in (2, 3, 4):
            for i, name in enumerate(("add", "sub", "mul", "inv")):
                field = GFq(q)
                tables = list(field.flat_tables())
                tables[i] = tables[i][:-1]
                field._flat = tuple(tables)
                with pytest.raises(ValueError, match=name):
                    kernels.count_by_rank(field, 1, 1)
                with pytest.raises(ValueError, match=name):
                    kernels.count_by_rank_trace(field, 1)


def _triples_by_full_rank(field, n):
    """counts[rank][tr X + tr Z] by ranking every [[X, Y], [0, Z]] from scratch."""
    q = field.q
    counts = [[0] * q for _ in range(2 * n + 1)]
    blocks = [GFMatrix(field, n, n, e).to_rows() for e in product(range(q), repeat=n * n)]
    for x in blocks:
        for y in blocks:
            for z in blocks:
                rows = [xr + yr for xr, yr in zip(x, y)] + [[0] * n + zr for zr in z]
                gamma = field.add(GFMatrix.from_rows(field, x).trace(),
                                  GFMatrix.from_rows(field, z).trace())
                counts[GFMatrix.from_rows(field, rows).rank()][gamma] += 1
    return counts


class TestMemoisedOracles:
    def test_each_shape_enumerated_once(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(field, *dims):
                calls.append((name, field.q) + dims)
                return fn(field, *dims)
            return wrapped

        for name in ("count_by_rank", "count_by_rank_trace"):
            monkeypatch.setattr(kernels, name, spy(name, getattr(kernels, name)))
        counting._rank_counts.cache_clear()
        counting._rank_trace_counts.cache_clear()

        for k in range(3):
            enum, formula = count_rect_by_rank(2, 3, k, 3)
            assert enum == formula
        for k in range(4):
            delta, formula = prasad_delta(3 - k, k, 2)
            assert delta == formula
            for alpha in range(2):
                count_square_by_rank_trace(3, k, alpha, 2)
        assert calls == [("count_by_rank", 3, 2, 3), ("count_by_rank_trace", 2, 3)]

    def test_mutating_a_returned_count_cannot_corrupt_a_later_call(self):
        fresh = kernels.count_by_rank(gf(2), 2, 2)
        fresh[1] = 0
        assert kernels.count_by_rank(gf(2), 2, 2) == [1, 9, 6]

        rect = counting._rank_counts(2, 2, 2)
        trace = counting._rank_trace_counts(2, 2)
        with pytest.raises(TypeError):
            rect[1] = 0
        with pytest.raises(TypeError):
            trace[1][1] = 0
        assert count_rect_by_rank(2, 2, 1, 2) == (9, 9)
        assert count_square_by_rank_trace(2, 1, 1, 2) == 6
