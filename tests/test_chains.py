from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcomplex import (
    apply_q_down,
    apply_q_up,
    betti_profile,
    boundary_sums,
    check_basic_hole_properties,
    delta_sphere,
    from_facets,
    hodge_betti,
    is_basic_hole,
    laplacian,
    proof_inspector,
    quadratic_form,
    second_order_identity_check,
    simplex_skeleton,
    spectral_radius,
    tent_plus_common_edge,
    tented,
    transfer_to_down,
)
from qcomplex import acceptance, chains
from qcomplex.chains import LAPLACIAN_KINDS
from qcomplex.errors import (BadParams, DimensionOutOfRange, LengthMismatch,
                             TooLarge)

from conftest import (boundary_matrix, face_degree, faces, full_laplacian,
                      mixed_complexes, pure2_complexes, q_down, suspension)


def fraction_rank(M):
    """Independent rational Gaussian elimination (test oracle)."""
    rows = [[Fraction(int(x)) for x in row] for row in M]
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, m):
            if rows[r][col]:
                c = rows[r][col] / rows[rank][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestSignedBoundary:
    def test_triangle_column_signs(self, triangle):
        B = boundary_matrix(triangle, 2).toarray()
        # edges sorted: (0,1), (0,2), (1,2); omit vertex j -> sign (-1)^j
        assert B[:, 0].tolist() == [1, -1, 1]

    def test_chain_identity_delta4(self, delta4):
        B1 = boundary_matrix(delta4, 1).toarray()
        B2 = boundary_matrix(delta4, 2).toarray()
        assert not (B1 @ B2).any()
        assert acceptance._chain_product_max(delta4, 2) == 0

    def test_rank_of_delta4(self, delta4):
        B2 = boundary_matrix(delta4, 2).toarray()
        assert fraction_rank(B2) == 3

    def test_dimension_guard(self, triangle):
        with pytest.raises(DimensionOutOfRange):
            chains.boundary_index_table(triangle, 3)

    @staticmethod
    def _check_chain_identity(K):
        # the check battery composes the index tables; the oracle multiplies
        for j in range(2, K.dim + 1):
            prod = (boundary_matrix(K, j - 1).toarray()
                    @ boundary_matrix(K, j).toarray())
            assert not prod.any()
            assert acceptance._chain_product_max(K, j) == np.abs(prod).max()

    @given(mixed_complexes())
    @settings(max_examples=30, deadline=None)
    def test_chain_identity_everywhere(self, K):
        self._check_chain_identity(K)

    @pytest.mark.parametrize("K", [delta_sphere(3), simplex_skeleton(7, 4),
                                   from_facets(6, [(0, 1, 2, 3), (2, 3, 4, 5),
                                                   (0, 4, 5)])],
                             ids=["delta_sphere3", "K7_4", "mixed_dim3"])
    def test_chain_identity_up_to_dimension_four(self, K):
        self._check_chain_identity(K)


class TestSignlessBoundary:
    def test_triangle_all_ones(self, triangle):
        B = boundary_matrix(triangle, 2, signed=False).toarray()
        assert B[:, 0].tolist() == [1, 1, 1]

    def test_column_sums_are_three(self, delta4):
        B = boundary_matrix(delta4, 2, signed=False).toarray()
        assert (B.sum(axis=0) == 3).all()

    def test_row_sums_are_degrees(self, delta4):
        B = boundary_matrix(delta4, 2, signed=False).toarray()
        degrees = [face_degree(delta4, e) for e in faces(delta4, 1)]
        assert B.sum(axis=1).tolist() == degrees
        assert degrees == [2] * 6


class TestBoundaryCopies:
    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_writing_a_returned_matrix_leaves_the_cache_alone(self, method,
                                                              monkeypatch):
        # the dense Laplacians are scribbled on at the usual limit
        limit = 0 if method == "lanczos" else chains.DENSE_LIMIT

        def results(K):
            with monkeypatch.context() as patch:
                patch.setattr(chains, "DENSE_LIMIT", limit)
                res = spectral_radius(K, 1)
            return (apply_q_up(K, 1, f).tobytes(), res.value,
                    res.vector.tobytes())

        def scribble(K):
            for kind, i in valid_operators(K):
                laplacian(K, i, kind)[:] = 7.0

        f = np.random.default_rng(3).standard_normal(tented(8, 2).n_faces(1))
        want = results(tented(8, 2))
        K = tented(8, 2)
        scribble(K)  # before the operator ever ran on K
        assert results(K) == want
        scribble(K)  # after
        assert results(K) == want


class TestLaplacian:
    def test_triangle_q_up_all_ones(self, triangle):
        Q = laplacian(triangle, 1, "Q_up")
        assert np.array_equal(Q, np.ones((3, 3)))

    def test_delta4_q_up_structure(self, delta4):
        # oracle: explicit product of the signless boundary with itself
        B = boundary_matrix(delta4, 2, signed=False).toarray()
        expected = B @ B.T
        Q = laplacian(delta4, 1, "Q_up")
        assert np.allclose(Q, expected)
        edges = faces(delta4, 1)
        for a, ea in enumerate(edges):
            for b, eb in enumerate(edges):
                if a == b:
                    assert Q[a, b] == 2
                else:
                    spans_facet = len(set(ea) | set(eb)) == 3
                    assert Q[a, b] == (1 if spans_facet else 0)

    def test_connected_graph_laplacian_kernel(self):
        K = from_facets(5, arrays=[tented(5, 2).rows(1)])
        L0 = laplacian(K, 0, "L_up")
        eigs = np.linalg.eigvalsh(L0)
        assert (np.abs(eigs) < 1e-9).sum() == 1
        constant = np.ones(K.n_faces(0))
        assert np.allclose(L0 @ constant, 0.0)

    def test_kind_guards(self, triangle):
        with pytest.raises(BadParams):
            laplacian(triangle, 1, "bogus")
        with pytest.raises(DimensionOutOfRange):
            laplacian(triangle, 2, "Q_up")
        with pytest.raises(DimensionOutOfRange):
            laplacian(triangle, 0, "L_down")
        for kind in ("L_full", "Q_down"):  # test oracles only
            with pytest.raises(BadParams):
                laplacian(triangle, 1, kind)

    def test_q_up_diagonal_is_degree(self, delta4):
        Q = laplacian(delta4, 1, "Q_up")
        degrees = [face_degree(delta4, e) for e in faces(delta4, 1)]
        assert np.array_equal(np.diag(Q), degrees)

    @given(pure2_complexes())
    @settings(max_examples=20, deadline=None)
    def test_nonzero_spectra_up_down_agree(self, K):
        up = np.linalg.eigvalsh(laplacian(K, 1, "Q_up"))
        down = np.linalg.eigvalsh(q_down(K, 2))
        nz_up = sorted(x for x in up if x > 1e-8)
        nz_down = sorted(x for x in down if x > 1e-8)
        assert len(nz_up) == len(nz_down)
        assert np.allclose(nz_up, nz_down, atol=1e-8)

    @given(pure2_complexes())
    @settings(max_examples=20, deadline=None)
    def test_symmetry_and_psd(self, K):
        for kind in LAPLACIAN_KINDS:
            M = laplacian(K, 1, kind)
            assert np.allclose(M, M.T)
            assert np.linalg.eigvalsh(M)[0] > -1e-9


def sparse_laplacian(K, i, kind):
    """The sparse product of the boundaries (test oracle for the dense
    `laplacian` scatter)."""
    signed = kind.startswith("L")
    if kind.endswith("down"):
        B = boundary_matrix(K, i, signed)
        return (B.T @ B).tocsr()
    B = boundary_matrix(K, i + 1, signed)
    return (B @ B.T).tocsr()


def valid_operators(K):
    for kind in LAPLACIAN_KINDS:
        lo = 1 if kind.endswith("down") else 0
        hi = K.dim - 1 if kind.endswith("up") else K.dim
        for i in range(lo, hi + 1):
            yield kind, i


class TestLaplacianForms:
    @given(mixed_complexes())
    @settings(max_examples=40, deadline=None)
    def test_scatter_equals_sparse_product_bitwise(self, K):
        for kind, i in valid_operators(K):
            dense = laplacian(K, i, kind)
            oracle = sparse_laplacian(K, i, kind).toarray()
            assert dense.dtype == oracle.dtype == np.float64
            assert dense.shape == oracle.shape
            assert dense.tobytes() == oracle.tobytes()

    def test_vertex_only_complex(self):
        # no kind exists on the vertices of a 0-complex; the Hodge oracle
        # there is the 2 x 2 zero matrix
        K = from_facets(2, [(0,), (1,)])
        for kind in LAPLACIAN_KINDS:
            with pytest.raises(DimensionOutOfRange):
                laplacian(K, 0, kind)
        L = full_laplacian(K, 0)
        assert L.dtype == np.float64 and not L.any() and L.shape == (2, 2)

    def test_too_large_refused_before_scatter(self, monkeypatch):
        K = tent_plus_common_edge(33, 1)  # 528 edges
        assert K.n_faces(1) > chains.DENSE_LIMIT

        def no_scatter(*args, **kwargs):
            raise AssertionError("scatter reached past the size check")

        monkeypatch.setattr(np, "bincount", no_scatter)
        with pytest.raises(TooLarge):
            laplacian(K, 1, "Q_up")


class TestApplyQUp:
    def test_indicator_on_triangle(self, triangle):
        f = np.array([1.0, 0.0, 0.0])
        assert np.allclose(apply_q_up(triangle, 1, f), np.ones(3))

    def test_constant_on_delta4(self, delta4):
        f = np.ones(6)
        assert np.allclose(apply_q_up(delta4, 1, f), 6.0)

    def test_matches_explicit_matrix_on_tent(self):
        K = tented(8, 2)
        Q = laplacian(K, 1, "Q_up")
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = rng.standard_normal(K.n_faces(1))
            assert np.abs(apply_q_up(K, 1, f) - Q @ f).max() <= 1e-12

    def test_length_guard(self, triangle):
        with pytest.raises(LengthMismatch):
            apply_q_up(triangle, 1, np.ones(4))

    @given(pure2_complexes())
    @settings(max_examples=20, deadline=None)
    def test_q_down_matches_explicit(self, K):
        Qd = q_down(K, 2)
        rng = np.random.default_rng(0)
        g = rng.standard_normal(K.n_faces(2))
        assert np.abs(apply_q_down(K, 2, g) - Qd @ g).max() <= 1e-12


def spread_vector(rng, n):
    """Random signs and magnitudes over ten decades, so that every change
    in the order of a floating-point sum shows in the last bits."""
    return rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)


class TestOperatorsAgainstCsrProducts:
    """The index-table operators reproduce the scipy CSR products with the
    oracle's signless boundary bit for bit."""

    @staticmethod
    def _check(K, rng):
        for i in range(K.dim + 1):
            f = spread_vector(rng, K.n_faces(i))
            if i < K.dim:
                B = boundary_matrix(K, i + 1, signed=False)
                assert np.array_equal(boundary_sums(K, i, f), B.T @ f)
                assert np.array_equal(apply_q_up(K, i, f), B @ (B.T @ f))
            if i >= 1:
                B = boundary_matrix(K, i, signed=False)
                assert np.array_equal(apply_q_down(K, i, f), B.T @ (B @ f))

    @given(mixed_complexes(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_on_mixed_complexes(self, K, seed):
        self._check(K, np.random.default_rng(seed))

    def test_bitwise_on_the_largest_tent(self):
        self._check(tent_plus_common_edge(240, 2), np.random.default_rng(5))


class TestNoCsrOnTheOperatorPath:
    """The check battery, Lanczos, the basic-hole checks and the proof
    inspector on the index tables (the library builds no CSR boundary)."""

    @pytest.mark.parametrize("make", [lambda: tent_plus_common_edge(7, 2),
                                      lambda: tented(6, 3)])
    def test_check_battery_on_a_non_hole(self, make):
        K = make()
        profile = betti_profile(K)
        hodge = [hodge_betti(K, i) for i in range(K.dim + 1)]
        assert hodge == list(profile.betti)
        i = K.dim - 1
        res = spectral_radius(K, i)
        assert res.iterations == 0
        g = transfer_to_down(K, i, res)
        assert np.linalg.norm(apply_q_down(K, i + 1, g) - res.value * g) \
            <= 1e-9 * np.linalg.norm(g)
        assert second_order_identity_check(K, i, res) <= 1e-9 * res.value ** 2
        assert is_basic_hole(K) is False

    def test_lanczos_on_a_tent(self):
        res = spectral_radius(tent_plus_common_edge(60, 1), 1)
        assert res.iterations > 0 and res.residual <= 1e-10

    def test_basic_hole_checks(self):
        K = suspension(12)
        assert is_basic_hole(K) is True
        assert check_basic_hole_properties(K).all_pass

    def test_proof_inspector_on_a_tent(self):
        rep = proof_inspector(tent_plus_common_edge(40, 1))
        assert (rep.apex, rep.n_outside, rep.down_pair_count) == (0, 37, 5481)
        assert all(rep.verdicts.values())


class TestQuadraticForm:
    def test_indicator_single_facet(self, triangle):
        f = np.array([1.0, 0.0, 0.0])
        assert quadratic_form(triangle, 1, f, f) == pytest.approx(1.0)

    def test_constant_on_delta4(self, delta4):
        f = np.ones(6)
        assert quadratic_form(delta4, 1, f, f) == pytest.approx(36.0)

    def test_zero_vector(self, delta4):
        f = np.ones(6)
        assert quadratic_form(delta4, 1, f, np.zeros(6)) == 0.0

    @given(pure2_complexes())
    @settings(max_examples=30, deadline=None)
    def test_matches_operator_inner_product(self, K):
        rng = np.random.default_rng(K.n_faces(2))
        f = rng.standard_normal(K.n_faces(1))
        g = rng.standard_normal(K.n_faces(1))
        lhs = quadratic_form(K, 1, f, g)
        rhs = float(apply_q_up(K, 1, f) @ g)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_boundary_sums_triangle(self, triangle):
        s = boundary_sums(triangle, 1, np.array([1.0, 2.0, 4.0]))
        assert s.tolist() == [7.0]
