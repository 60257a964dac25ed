import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gpcg.precond
from gpcg import (BearingSpec, NotConvexError, SolverConfig, SparseMatrixCSR,
                  extract_submatrix, free_set, generate, make_preconditioner,
                  parse_precond, solve)
from gpcg.ilu import ilu_k
from gpcg.precond import FaceRule, Preconditioner, block_ranges

from conftest import random_sparse_spd


class TestParse:
    def test_none(self):
        assert parse_precond("none") is None

    def test_jacobi(self):
        assert parse_precond("jacobi") is None

    def test_block_jacobi_levels(self):
        for k in (0, 2, 10):
            assert parse_precond(f"bjacobi-ilu{k}") == k

    @pytest.mark.parametrize("bad", [
        "ilu", "bjacobi-ilu", "bjacobi-iluX", "bjacobi-ilu-1", "jacoby",
        "jacobi:block=4", "jacobi:blocks=", "jacobi:blocks=0", "",
        # the block count is SolverConfig.blocks, not a suffix
        "bjacobi-ilu1:blocks=4", "jacobi:blocks=2",
        # int() takes these, but they are not a fill level in ASCII digits
        "bjacobi-ilu+2", "bjacobi-ilu 2", "bjacobi-ilu1_0", "bjacobi-ilu\u0663",
        "bjacobi-ilu-0",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_precond(bad)


class TestBlockRanges:
    def test_even_split(self):
        assert block_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_spread_over_leading_blocks(self):
        assert block_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_covers_without_gaps(self):
        for m in (1, 5, 17):
            for p in (1, 2, 3, 16, 40):
                ranges = block_ranges(m, p)
                assert ranges[0][0] == 0 and ranges[-1][1] == m
                for (a, b), (c, d) in zip(ranges, ranges[1:]):
                    assert b == c and b > a and d > c
                sizes = [b - a for a, b in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_clamps_to_dimension(self):
        assert len(block_ranges(3, 100)) == 3


def _bjacobi(M, k, blocks):
    return make_preconditioner(M, f"bjacobi-ilu{k}", blocks)


class TestApply:
    def test_identity_returns_copy(self):
        P = Preconditioner(2)
        r = np.array([1.0, 2.0])
        z = P.apply(r)
        assert_array_equal(z, r)
        z[0] = 9.0
        assert r[0] == 1.0

    def test_point_jacobi_divides_by_diagonal(self):
        M = SparseMatrixCSR.from_dense(np.diag([2.0, 4.0]), symmetric=True)
        P = make_preconditioner(M, "jacobi")
        assert_array_equal(P.apply(np.array([2.0, 2.0])),
                           [1.0, 0.5])

    def test_point_jacobi_requires_positive_diagonal(self):
        # a_ii <= 0 is a nonpositive curvature e_i' M e_i: the matrix is not SPD
        M = SparseMatrixCSR.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                       symmetric=True)
        with pytest.raises(NotConvexError, match="row 0"):
            make_preconditioner(M, "jacobi")

    @pytest.mark.parametrize("precond", ["none", "jacobi", "bjacobi-ilu0", "bjacobi-ilu2"])
    def test_each_kind_is_its_formula_bit_for_bit(self, precond):
        # signed zeros show a copy, a product or a solve that lost a sign
        rng = np.random.default_rng(57)
        M, _ = random_sparse_spd(rng, 12, 3)
        r = rng.standard_normal(12)
        r[[1, 4, 9]], r[[2, 7]] = 0.0, -0.0
        P = make_preconditioner(M, precond, blocks=3)
        z = P.apply(r)
        if precond == "none":
            want = r.copy()
        elif precond == "jacobi":
            want = r * (1.0 / M.diagonal())
        else:
            want = np.concatenate([ilu_k(extract_submatrix(M, np.arange(lo, hi)),
                                         parse_precond(precond)).solve(r[lo:hi])
                                   for lo, hi in block_ranges(12, 3)])
        assert z.dtype == want.dtype and z.tobytes() == want.tobytes()
        # a new array, which CG may update in place
        assert z is not r and not np.shares_memory(z, r)

    def test_single_block_full_fill_inverts(self):
        rng = np.random.default_rng(50)
        M, D = random_sparse_spd(rng, 16, 3)
        P = _bjacobi(M, 16, 1)
        r = rng.standard_normal(16)
        assert_allclose(P.apply(r), np.linalg.solve(D, r),
                        rtol=0, atol=1e-10)

    def test_blocks_solve_independent_diagonal_pieces(self):
        rng = np.random.default_rng(51)
        M, D = random_sparse_spd(rng, 12, 3)
        P = _bjacobi(M, 12, 3)
        r = rng.standard_normal(12)
        z = P.apply(r)
        expected = np.empty(12)
        for lo, hi in ((0, 4), (4, 8), (8, 12)):
            expected[lo:hi] = np.linalg.solve(D[lo:hi, lo:hi], r[lo:hi])
        assert_allclose(z, expected, rtol=0, atol=1e-10)

    def test_applications_stay_positive_definite(self):
        # <r, P r> > 0 is what CG needs from every preconditioner
        rng = np.random.default_rng(52)
        M, _ = random_sparse_spd(rng, 30, 3)
        for P in (make_preconditioner(M, "none"), make_preconditioner(M, "jacobi"),
                  _bjacobi(M, 0, 1), _bjacobi(M, 2, 5)):
            for _ in range(5):
                r = rng.standard_normal(30)
                assert np.dot(r, P.apply(r)) > 0.0

    def test_dimension_check(self):
        M = SparseMatrixCSR.from_dense(np.eye(3), symmetric=True)
        for precond in ("none", "jacobi", "bjacobi-ilu0"):
            with pytest.raises(ValueError):
                make_preconditioner(M, precond).apply(np.zeros(2))


class TestGrown:
    """A factor built on a free set serves a larger one: the factors on the
    variables they were built on, point Jacobi on the variables that joined."""

    @staticmethod
    def bearing_face(k=2, blocks=3):
        """The final face of a bearing solve and the preconditioner built on
        it less every eighth variable, grown back onto the whole face."""
        qp = generate(BearingSpec(14, 14, 0.1))
        free = free_set(qp, solve(qp, qp.l, SolverConfig(precond="jacobi")).x_star)
        factored = free[np.arange(free.size) % 8 != 3]
        built = _bjacobi(extract_submatrix(qp.A, factored), k, blocks)
        A_k = extract_submatrix(qp.A, free)
        pos = free.searchsorted(factored)
        return built, built._follow(pos, A_k, extend=False), pos, A_k

    @staticmethod
    def dense(P):
        return np.column_stack([P.apply(e) for e in np.eye(P.m)])

    def test_grown_operator_is_symmetric_positive_definite(self):
        built, grown, pos, A_k = self.bearing_face()
        assert 0 < pos.size < A_k.nrows == grown.m
        Z = self.dense(grown)
        assert_allclose(Z, Z.T, rtol=0, atol=1e-12 * np.abs(Z).max())
        assert np.linalg.eigvalsh(0.5 * (Z + Z.T)).min() > 0.0
        # block diagonal: the built operator on the factored positions,
        # 1 / a_ii on the joined ones, nothing between them
        joined = np.setdiff1d(np.arange(A_k.nrows), pos)
        assert_array_equal(Z[np.ix_(pos, pos)], self.dense(built))
        assert_array_equal(Z[np.ix_(joined, joined)],
                           np.diag(1.0 / A_k.diagonal()[joined]))
        assert not Z[np.ix_(joined, pos)].any() and not Z[np.ix_(pos, joined)].any()

    def test_same_rows_give_the_built_preconditioner(self):
        built, grown, _pos, _A_k = self.bearing_face()
        same = SparseMatrixCSR.from_dense(np.eye(built.m), symmetric=True)
        assert built._follow(np.arange(built.m), same, extend=False) is built
        with pytest.raises(ValueError, match="dimension"):
            grown.apply(np.zeros(built.m))

    def test_joined_variable_without_positive_curvature_is_not_convex(self):
        M = SparseMatrixCSR.from_dense(np.diag([2.0, 0.0, 3.0]), symmetric=True)
        built = _bjacobi(extract_submatrix(M, np.array([0, 2])), 0, 1)
        with pytest.raises(NotConvexError, match="row 1"):
            built._follow(np.array([0, 2]), M, extend=False)


class TestExtended:
    """A face that joined many variables keeps the factors on the variables
    they were built on and factors the joined ones as one more block."""

    @staticmethod
    def nested_faces(k=2, blocks=3):
        """The final face F2 of a bearing solve, F1 = F2 less every eighth
        variable and F0 = F1 less another eighth: the preconditioner built
        on F0, extended onto F1 and grown onto F2."""
        qp = generate(BearingSpec(14, 14, 0.1))
        free = free_set(qp, solve(qp, qp.l, SolverConfig(precond="jacobi")).x_star)
        F1 = free[np.arange(free.size) % 8 != 3]
        F0 = free[~np.isin(np.arange(free.size) % 8, (3, 5))]
        built = _bjacobi(extract_submatrix(qp.A, F0), k, blocks)
        A1, A2 = extract_submatrix(qp.A, F1), extract_submatrix(qp.A, free)
        extended = built._follow(F1.searchsorted(F0), A1, extend=True)
        return built, extended, A1, F0, F1, free, A2

    def test_extended_operator_is_block_diagonal_and_positive_definite(self):
        built, extended, A1, F0, F1, _free, _A2 = self.nested_faces()
        assert extended.m == A1.nrows and extended.inv_diag is None
        assert len(extended.blocks) == len(built.blocks) + 1
        Z = TestGrown.dense(extended)
        assert_allclose(Z, Z.T, rtol=0, atol=1e-12 * np.abs(Z).max())
        assert np.linalg.eigvalsh(0.5 * (Z + Z.T)).min() > 0.0
        # the built operator on the old rows, IC(k) of A_JJ on the joined
        # rows J, nothing between them
        pos = F1.searchsorted(F0)
        J = np.setdiff1d(np.arange(A1.nrows), pos)
        assert 0 < J.size < A1.nrows
        joined = ilu_k(extract_submatrix(A1, J), built.fill_level)
        assert_array_equal(Z[np.ix_(pos, pos)], TestGrown.dense(built))
        assert_array_equal(Z[np.ix_(J, J)],
                           np.column_stack([joined.solve(e) for e in np.eye(J.size)]))
        assert not Z[np.ix_(J, pos)].any() and not Z[np.ix_(pos, J)].any()

    def test_grown_after_an_extension_gives_point_jacobi_to_later_joins_only(self):
        _built, extended, _A1, _F0, F1, free, A2 = self.nested_faces()
        pos = free.searchsorted(F1)
        grown = extended._follow(pos, A2, extend=False)
        later = np.flatnonzero(~np.isin(free, F1))
        assert_array_equal(grown.order[F1.size:], later)
        assert_array_equal(grown.inv_diag, 1.0 / A2.diagonal()[later])
        Z = TestGrown.dense(grown)
        assert_array_equal(Z[np.ix_(pos, pos)], TestGrown.dense(extended))
        assert_array_equal(Z[np.ix_(later, later)], np.diag(grown.inv_diag))

    def test_grown_twice_keeps_point_jacobi_on_earlier_joins(self):
        built, _extended, A1, F0, F1, free, A2 = self.nested_faces()
        once = built._follow(F1.searchsorted(F0), A1, extend=False)
        twice = once._follow(free.searchsorted(F1), A2, extend=False)
        assert_array_equal(twice.order[F0.size:], np.flatnonzero(~np.isin(free, F0)))
        Z = TestGrown.dense(twice)
        direct = built._follow(free.searchsorted(F0), A2, extend=False)
        assert_array_equal(Z, TestGrown.dense(direct))


class TestFaceRule:
    """Each new face's operator: built, or the kept IC(k) factors reused or
    extended, as ``FaceRule.for_face`` decides it."""

    def test_outcomes_and_operators_follow_the_faces(self, monkeypatch):
        built, extended, A1, F0, F1, free, A2 = TestExtended.nested_faces()
        A0 = extract_submatrix(A2, free.searchsorted(F0))
        dense = TestGrown.dense
        rule = FaceRule("bjacobi-ilu2", 3)
        P0, outcome = rule.for_face(F0, A0)
        assert outcome == "build"
        assert_array_equal(dense(P0), dense(built))
        # F1 joined 1 / 7 of its variables, more than REUSE_JOINED
        P1, outcome = rule.for_face(F1, A1)
        assert outcome == "extend"
        assert_array_equal(dense(P1), dense(extended))
        assert rule.for_face(F1, A1) == (P1, "reuse")  # nothing joined
        assert rule.for_face(free, A2)[1] == "extend"
        assert rule.for_face(F0, A0)[1] == "build"  # lost variables of F1
        # a larger share lets F2 reuse the factors built on F1
        monkeypatch.setattr(gpcg.precond, "REUSE_JOINED", 0.2)
        rule = FaceRule("bjacobi-ilu2", 3)
        P1 = rule.for_face(F1, A1)[0]
        P2, outcome = rule.for_face(free, A2)
        assert outcome == "reuse"
        assert_array_equal(dense(P2), dense(P1._follow(free.searchsorted(F1), A2,
                                                       extend=False)))
        # a reuse keeps F1 as the factored set: back at the default share,
        # the same face is extended
        monkeypatch.setattr(gpcg.precond, "REUSE_JOINED", 0.10)
        assert rule.for_face(free, A2)[1] == "extend"


class TestFactory:
    def test_builds_each_kind(self):
        # one class: the kinds differ in their factors and their tail
        M, _ = random_sparse_spd(np.random.default_rng(53), 10, 2)
        kinds = {precond: make_preconditioner(M, precond)
                 for precond in ("none", "jacobi", "bjacobi-ilu0")}
        assert {type(P) for P in kinds.values()} == {Preconditioner}
        assert kinds["none"].blocks == [] and kinds["none"].inv_diag is None
        assert kinds["jacobi"].blocks == []
        assert_array_equal(kinds["jacobi"].inv_diag, 1.0 / M.diagonal())
        assert kinds["bjacobi-ilu0"].factored == 10
        assert kinds["bjacobi-ilu0"].inv_diag is None
        assert all(P.m == 10 and P.order is None for P in kinds.values())

    def test_blocks_argument_sets_block_count(self):
        M, _ = random_sparse_spd(np.random.default_rng(54), 10, 2)
        assert len(make_preconditioner(M, "bjacobi-ilu0").blocks) == 1
        P = make_preconditioner(M, "bjacobi-ilu0", blocks=5)
        assert len(P.blocks) == 5

    def test_fill_level_comes_from_the_string(self):
        M, _ = random_sparse_spd(np.random.default_rng(56), 6, 2)
        P = make_preconditioner(M, "bjacobi-ilu1", blocks=2)
        assert P.fill_level == 1
        assert len(P.blocks) == 2
        # surrounding blanks are accepted, as the parser accepts them
        assert make_preconditioner(M, " none ").inv_diag is None
        assert make_preconditioner(M, " jacobi").inv_diag is not None
        assert make_preconditioner(M, "bjacobi-ilu3 ").fill_level == 3
        with pytest.raises(ValueError, match="unrecognized"):
            make_preconditioner(M, "jacoby")
