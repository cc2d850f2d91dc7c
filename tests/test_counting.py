from itertools import combinations, product

import pytest

from helpers import fresh_table_cache, rank
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
                    counts = [sum(row) for row in kernels.count_by_rank_trace(gf(q), (s, t))]
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
        assert kernels.count_by_rank_trace(gf(2), (2, 2)) == [[1, 0], [3, 6], [4, 2]]
        assert kernels.count_by_rank_trace(gf(3), (1, 1)) == [[1, 0, 0], [0, 1, 1]]

    def test_totals_and_nonzero_trace_constancy(self):
        for q in (2, 3, 4):
            for size in (1, 2):
                counts = kernels.count_by_rank_trace(gf(q), (size, size))
                assert sum(sum(row) for row in counts) == q ** (size * size)
                for row in counts:
                    assert len({row[a] for a in range(1, q)}) <= 1


class TestRectRankTrace:
    # The package counts its tables by transfer over row spaces and ranks no
    # matrix, so the from-scratch tally _check_against_tally is what checks
    # every cell of them.
    def test_rectangular_shapes_match_a_from_scratch_tally(self):
        shapes = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        for q in (2, 3, 4):
            for shape in shapes:
                _check_against_tally(q, shape)

    def test_square_shapes_match_a_from_scratch_tally(self):
        for q, size in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
            _check_against_tally(q, (size, size))

    def test_shapes_without_rows_or_columns_hold_only_the_empty_matrix(self):
        for q in (2, 3, 5):
            for shape in [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)]:
                assert kernels.count_by_rank_trace(gf(q), shape) == [[1] + [0] * (q - 1)]


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
        for q, n in [(q, 1) for q in SUPPORTED_Q] + [(2, 2)]:
            _check_against_tally(q, (n, n, n))

    @pytest.mark.slow
    def test_triples_over_gf3_match_full_rank_reference(self):
        _check_against_tally(3, (2, 2, 2))

    def test_asymmetric_shapes_match_a_from_scratch_tally(self):
        # parts that differ catch a swapped block index, in the zero columns,
        # the psi columns or the row counts, that (n, ..., n) cannot see; the
        # two-block ones are test_rectangular_shapes_match_a_from_scratch_tally's
        shapes = [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 2), (1, 1, 1, 1),
                  (3, 1, 1), (1, 3, 1), (1, 1, 3), (2, 2, 1), (1, 2, 2)]
        for q in (2, 3):
            for shape in shapes:
                _check_against_tally(q, shape)

    def test_wider_asymmetric_shapes_match_a_from_scratch_tally(self):
        # the class count reads a psi column and a basis row's entry there,
        # which a shape with unequal parts tells apart; over GF(4) the
        # multiples lambda a of an entry are no residues mod 4
        for shape in [(2, 1, 3), (1, 3, 2), (3, 1, 2), (1, 2, 1, 1)]:
            _check_against_tally(2, shape)
        _check_against_tally(3, (1, 2, 1, 1))
        _check_against_tally(4, (2, 1, 2))

    def test_compositions_with_empty_parts_match_a_from_scratch_tally(self):
        # an empty part moves the last row to a later block, where the row
        # set starts past column 0, or leaves a block with no psi columns
        shapes = [(0, 2, 2), (2, 0, 2), (2, 2, 0), (0, 1, 2, 1), (1, 0, 1, 2),
                  (0, 0, 2, 1), (1, 2, 0, 0)]
        for q in (2, 3):
            for shape in shapes:
                _check_against_tally(q, shape)

    @pytest.mark.slow
    def test_wider_asymmetric_shapes_over_gf3_and_gf4_match_a_from_scratch_tally(self):
        # 3^11 elements each over GF(3); over GF(4) only the 4^9 of
        # (1, 2, 1, 1), since a 4^11 shape takes the tally sixteen times as long
        for shape in [(2, 1, 3), (1, 3, 2), (3, 1, 2)]:
            _check_against_tally(3, shape)
        _check_against_tally(4, (1, 2, 1, 1))

    def test_triple_table_extends_each_basis_once_per_block(self, monkeypatch):
        # the last block's rows first; each block builds one next basis per
        # projective point of each distinct basis (_insert), groups the
        # outcomes once per distinct (basis, psi column) (_step), and the
        # last row, which reads only ranks, builds no basis
        insert, step, last_row = kernels._insert, kernels._step, kernels._last_row
        calls = []

        def counted_insert(field, basis, v):
            calls.append(("insert", basis, v))
            return insert(field, basis, v)

        def counted_step(field, size, hit, keep, classes, col):
            calls.append(("step", keep, col))
            return step(field, size, hit, keep, classes, col)

        def counted_last_row(*args):
            calls.append(("last row",))
            return last_row(*args)

        monkeypatch.setattr(kernels, "_insert", counted_insert)
        monkeypatch.setattr(kernels, "_step", counted_step)
        monkeypatch.setattr(kernels, "_last_row", counted_last_row)
        # the second block's two rows extend () (q + 1 points), then its
        # q + 1 lines (1 each); the first block's first row extends () (q^3 +
        # q^2 + q + 1), the lines (q^2 + q + 1 each) and the plane (q + 1):
        # 45 inserts over GF(2), 104 over GF(3), and 1 + (q + 2) + (q + 3)
        # steps, each distinct.  Each block enumerates a basis's classes
        # once; only the second block's 2(q + 1) inserts, into () and into
        # its lines, come again as points of the first block's set
        for q, inserts, steps in [(2, 45, 10), (3, 104, 12)]:
            calls.clear()
            kernels.count_by_rank_trace(gf(q), (2, 2, 2))
            last = calls.index(("last row",))
            for kind, work, distinct in [("insert", inserts, inserts - 2 * (q + 1)),
                                         ("step", steps, steps)]:
                made = [c for c in calls[:last] if c[0] == kind]
                assert (len(made), len(set(made))) == (work, distinct), (q, kind)
            assert calls[last + 1:] and all(c[0] == "step" and isinstance(c[1], int)
                                            for c in calls[last + 1:]), q


class TestTransferTotal:
    """A transfer count that loses one outcome must raise, not return a short table."""

    @pytest.fixture(autouse=True)
    def drop_last_outcome(self, monkeypatch):
        step = kernels._step

        def short(*args):
            out = step(*args)
            del out[next(reversed(out))]
            return out

        monkeypatch.setattr(kernels, "_step", short)

    def test_single_matrix_table(self):
        with pytest.raises(AssertionError, match="totals"):
            kernels.count_by_rank_trace(gf(2), (2, 2))

    def test_triple_table(self):
        with pytest.raises(AssertionError, match="totals"):
            kernels.count_by_rank_trace(gf(2), (1, 1, 1))


class TestKernelShapes:
    def test_count_by_rank_has_one_entry_per_rank(self):
        for q, rows, cols in [(2, 1, 1), (2, 2, 3), (3, 3, 1), (4, 2, 2), (5, 1, 2)]:
            counts = [sum(row) for row in kernels.count_by_rank_trace(gf(q), (rows, cols))]
            assert len(counts) == min(rows, cols) + 1, (q, rows, cols)
            assert sum(counts) == q ** (rows * cols), (q, rows, cols)

    def test_count_by_rank_trace_has_one_row_per_rank_and_one_entry_per_trace(self):
        shapes = [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 3, 1), (4, 1, 1), (4, 2, 2),
                  (5, 1, 1), (5, 1, 2)]
        for q, rows, cols in shapes:
            counts = kernels.count_by_rank_trace(gf(q), (rows, cols))
            assert len(counts) == min(rows, cols) + 1, (q, rows, cols)
            assert [len(row) for row in counts] == [q] * len(counts), (q, rows, cols)


def _tally(field, shape):
    """counts[rank][psi-sum] over N(shape), ranking every u - I from scratch.

    u - I is ranked as its corner above the diagonal blocks: the rows of
    blocks 1..k-1 on the columns of blocks 2..k, free above the diagonal
    blocks and zero elsewhere.  The psi-sum adds the diagonal entries (i, i)
    of each superdiagonal block.
    """
    q = field.q
    starts = [sum(shape[:j]) for j in range(len(shape) + 1)]
    rows, cols = starts[-2], starts[-1] - shape[0]
    block = [j for j, part in enumerate(shape) for _ in range(part)]
    free = [(r, c) for r in range(rows) for c in range(cols) if block[r] < block[shape[0] + c]]
    psi = [free.index((starts[j] + i, starts[j + 1] + i - shape[0]))
           for j in range(len(shape) - 1) for i in range(min(shape[j], shape[j + 1]))]
    counts = [[0] * q for _ in range(min(rows, cols) + 1)]
    for values in product(range(q), repeat=len(free)):
        m = [[0] * cols for _ in range(rows)]
        for (r, c), v in zip(free, values):
            m[r][c] = v
        tr = 0
        for i in psi:
            tr = field.add_table[tr][values[i]]
        counts[rank(field, m)][tr] += 1
    return counts


def _check_against_tally(q, shape):
    f = gf(q)
    counts = kernels.count_by_rank_trace(f, shape)
    assert counts == _tally(f, shape), (q, shape)
    if len(shape) == 2:
        for k, row in enumerate(counts):
            assert sum(row) == rect_rank_formula(*shape, k, q), (q, shape, k)


class TestMemoisedOracles:
    @pytest.fixture(autouse=True)
    def own_table_cache(self, monkeypatch):
        fresh_table_cache(monkeypatch)

    def test_each_shape_enumerated_once(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(field, *dims):
                calls.append((name, field.q) + dims)
                return fn(field, *dims)
            return wrapped

        for name in [n for n in vars(kernels) if n.startswith("count_")]:
            monkeypatch.setattr(kernels, name, spy(name, getattr(kernels, name)))

        for k in range(4):
            enum, formula = count_rect_by_rank(3, 3, k, 2)
            assert enum == formula
        for k in range(4):
            delta, formula = prasad_delta(3 - k, k, 2)
            assert delta == formula
        assert calls == [("count_by_rank_trace", 2, (3, 3))]

    def test_each_triple_table_counted_once(self, monkeypatch):
        from whitdim.dimension import dimension_report

        real = kernels.count_by_rank_trace
        calls = []

        def spy(field, shape):
            calls.append((field.q, shape))
            return real(field, shape)

        monkeypatch.setattr(kernels, "count_by_rank_trace", spy)
        for _ in range(2):
            assert dimension_report(1, 3)["agree"]
            assert dimension_report(2, 2)["agree"]
        assert calls == [(3, (1, 1, 1)), (2, (2, 2, 2))]

    def test_mutating_a_returned_count_cannot_corrupt_a_later_call(self):
        fresh = kernels.count_by_rank_trace(gf(2), (2, 2))
        fresh[1][1] = 0
        assert kernels.count_by_rank_trace(gf(2), (2, 2)) == [[1, 0], [3, 6], [4, 2]]

        table = counting.rank_trace_table(2, (2, 2))
        with pytest.raises(TypeError):
            table[1] = (0, 0)
        with pytest.raises(TypeError):
            table[1][1] = 0
        assert count_rect_by_rank(2, 2, 1, 2) == (9, 9)
        assert prasad_delta(1, 1, 2) == (3, 3)
