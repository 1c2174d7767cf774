import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qcomplex import (
    betti_profile,
    check_basic_hole_properties,
    delta_sphere,
    euler_characteristic,
    from_facets,
    hodge_betti,
    integer_rank,
    is_basic_hole,
    rhombic,
    simplex_skeleton,
    tent_plus_common_edge,
    tented,
)
from qcomplex import chains, complex_core, homology
from qcomplex.errors import (
    BadParams,
    NotBasicHole,
    NotPure,
    SpectrumAmbiguous,
    TooLarge,
)

from conftest import (boundary_matrix, face_degree, faces, full_laplacian,
                      mixed_complexes, pure2_complexes, suspension)
from test_chains import fraction_rank


def disjoint_union(K, L):
    """K beside a copy of L on the vertices after K's."""
    shift = K.n_vertices
    return from_facets(shift + L.n_vertices,
                       list(K.facets) + [tuple(v + shift for v in f)
                                         for f in L.facets])


def projective_plane():
    """The 6-vertex triangulation of the real projective plane."""
    return from_facets(6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5),
                           (0, 1, 5), (1, 2, 4), (2, 3, 5), (1, 3, 4),
                           (2, 4, 5), (1, 3, 5)])


def grid_surface(m, wrap_rows=True, drop=0):
    """The m x m grid torus, each square cut by a diagonal; without
    ``wrap_rows`` the annulus, and the first ``drop`` triangles left out."""
    def v(i, j):
        return (i % m) * m + j % m
    facets = [f for i in range(m if wrap_rows else m - 1) for j in range(m)
              for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                        (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    return from_facets(m * m, facets[drop:])


def rp2_plus(*facets):
    """The 6-vertex real projective plane with extra facets."""
    return from_facets(7, list(projective_plane().facets) + list(facets))


class TestIntegerRank:
    def test_against_fraction_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            m = rng.randint(1, 7)
            n = rng.randint(1, 7)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            assert integer_rank(np.array(M)) == fraction_rank(M)

    def test_big_entries_fall_back_exactly(self):
        # entries above the int64 guard engage the arbitrary-precision path
        big = 1 << 40
        assert integer_rank(np.array([[big, 1], [1, big]], dtype=np.int64)) == 2
        assert integer_rank(np.array([[big, big], [big, big]],
                                     dtype=np.int64)) == 1

    def test_intermediate_growth_falls_back_exactly(self):
        # small entries whose Bareiss minors outgrow the int64 guard: the
        # elimination goes on in Python ints
        rng = random.Random(5)
        L = np.array([[rng.randint(-30, 30) for _ in range(7)] for _ in range(10)])
        R = np.array([[rng.randint(-30, 30) for _ in range(12)] for _ in range(7)])
        M = L @ R
        assert M.dtype == np.int64 and np.abs(M).max() < 2 ** 31
        echelon, pivots = homology._bareiss(M.copy())
        assert echelon.dtype == object and len(pivots) == 7
        assert fraction_rank(echelon.tolist()) == 7
        assert integer_rank(M) == fraction_rank(M.tolist()) == 7

    @given(st.integers(2, 7), st.integers(2, 9), st.integers(2, 9),
           st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    def test_widening_matches_python_ints_from_the_start(self, k, m, n, s):
        # products of random factors, some of whose minors outgrow the
        # int64 guard part way: the int64 start gives the same echelon
        # rows and pivots, bit for bit, as an elimination in Python ints
        rng = np.random.default_rng(s)
        bound = int(rng.choice([3, 300, 30000]))
        M = (rng.integers(-bound, bound, (m, k))
             @ rng.integers(-bound, bound, (k, n)))
        echelon, pivots = homology._bareiss(M.copy())
        wide, wide_pivots = homology._bareiss(M.astype(object))
        assert pivots == wide_pivots
        assert echelon.tolist() == wide.tolist()
        assert len(pivots) == fraction_rank(M.tolist())

    def test_kernel_vector_after_widening(self):
        # 7 independent rows of a matrix whose minors outgrow the guard,
        # and an 8th column in their span: the kernel vector is read off
        # the widened echelon rows
        rng = random.Random(5)
        L = np.array([[rng.randint(-30, 30) for _ in range(7)] for _ in range(10)])
        R = np.array([[rng.randint(-30, 30) for _ in range(7)] for _ in range(7)])
        M = L @ R
        A = np.column_stack([M, M @ np.array([3, -1, 4, 1, -5, 9, 2])])
        assert homology._bareiss(A.copy())[0].dtype == object
        y = homology._kernel_vector(A)
        assert any(y) and not (A.astype(object) @ np.array(y, dtype=object)).any()

    def test_closed_torus_stays_in_int64(self):
        # the residual top boundary of the 8 x 8 grid torus: every minor
        # fits, so the echelon rows come back int64, equal to those of the
        # same elimination in Python ints
        K = grid_surface(8)
        left, _, _ = homology._coreduce(K)
        A = chains.dense_boundary(K, 2, left)
        assert A.shape[1] == K.n_faces(2) == 128 and A.any()
        echelon, pivots = homology._bareiss(A.copy())
        wide, wide_pivots = homology._bareiss(A.astype(object))
        assert echelon.dtype == np.int64 and wide.dtype == object
        assert len(pivots) == len(wide_pivots) == A.shape[1] - 1
        assert pivots == wide_pivots and echelon.tolist() == wide.tolist()

    def test_zero_matrix(self):
        assert integer_rank(np.zeros((3, 4), dtype=np.int64)) == 0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_has_rank_zero(self, shape):
        assert integer_rank(np.zeros(shape, dtype=np.int64)) == 0

    @pytest.mark.parametrize("A", [[1, 2, 3], 5, np.ones((2, 2, 2), np.int64),
                                   []], ids=["row", "scalar", "3d", "empty_1d"])
    def test_not_a_matrix_refused(self, A):
        # [1, 2, 3] read as a 1 x 3 matrix has rank 1, not the 0 it gave
        with pytest.raises(BadParams, match="2-D"):
            integer_rank(A)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                 min_size=n - 1, max_size=n - 1),
        st.lists(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
                 max_size=3))))
    @settings(max_examples=100, deadline=None)
    def test_kernel_vector_of_a_one_dimensional_kernel(self, drawn):
        # n - 1 rows of full rank plus integer combinations of them
        base, mixes = drawn
        n = len(base[0]) if base else 1
        A = base + [[sum(c * row[j] for c, row in zip(mix, base))
                     for j in range(n)] for mix in mixes]
        assume(fraction_rank(A) == n - 1 if A else n == 1)
        y = homology._kernel_vector(np.array(A, dtype=np.int64).reshape(-1, n))
        assert len(y) == n and any(y)
        assert all(type(x) is int for x in y)
        assert all(sum(a * x for a, x in zip(row, y)) == 0 for row in A)

    def test_integral_floats_accepted(self):
        assert integer_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
        assert integer_rank([[2.0 ** 70, 1.0], [1.0, 1.0]]) == 2

    @pytest.mark.parametrize("A", [[[0.5, 0], [0, 1]], [[np.nan, 0], [0, 1]],
                                   [[np.inf, 1]], [["1", "0"]]],
                             ids=["half", "nan", "inf", "strings"])
    def test_non_integral_entries_refused(self, A):
        # truncating 0.5 to 0 would answer 1 against the rational rank 2
        with pytest.raises(BadParams):
            integer_rank(A)

    def test_entries_beyond_int64_are_exact(self):
        assert integer_rank([[2 ** 70, 1], [1, 1]]) == 2
        assert integer_rank([[2 ** 70, 2 ** 71], [1, 2]]) == 1
        assert integer_rank([[-(2 ** 63), 1], [1, 1]]) == 2
        assert integer_rank(np.array([[2 ** 63, 1], [1, 1]],
                                     dtype=np.uint64)) == 2


class TestBettiProfile:
    def test_delta_sphere(self):
        assert betti_profile(delta_sphere(2)).betti == (1, 0, 1)

    def test_rhombic_sphere(self):
        assert betti_profile(rhombic(2)).betti == (1, 0, 1)

    def test_tent_is_hole_free(self):
        for n in (4, 6, 9):
            assert betti_profile(tented(n, 2)).betti == (1, 0, 0)

    @pytest.mark.parametrize("n,t", [(6, 1), (6, 2), (8, 3), (12, 5)])
    def test_tent_plus_common_edge(self, n, t):
        assert betti_profile(tent_plus_common_edge(n, t)).betti == (1, 0, t)

    def test_dense_matrix_above_limit_refused(self, monkeypatch):
        # no face of the 2-skeleton of the 59-simplex is free, but
        # coreduction from vertex 0 removes every vertex and edge: its
        # 32509 top faces are left with a zero boundary, so no elimination
        # runs
        monkeypatch.setattr(homology, "integer_rank", None)
        K = simplex_skeleton(60, 2)
        profile = betti_profile(K)
        assert profile.betti == (1, 0, 32509)
        assert profile.ranks == (0, 59, 1711)
        assert not is_basic_hole(K)
        # two disjoint copies: coreduction starts in each of them, so no
        # elimination runs either
        twice = disjoint_union(K, K)
        profile = betti_profile(twice)
        assert profile.betti == (2, 0, 65018)
        assert profile.ranks == (0, 118, 3422)
        assert not is_basic_hole(twice)
        # the 6-vertex real projective plane has no free face and
        # coreduces to a nonzero 5 x 5 top boundary (25 cells), which a
        # cell budget one lower refuses before any elimination runs. The
        # planes are built first: construction reads the same budget
        planes = projective_plane(), projective_plane()
        monkeypatch.setattr(complex_core, "CELL_BUDGET", 5 * 5 - 1)
        with pytest.raises(TooLarge, match="5 x 5"):
            betti_profile(planes[0])
        with pytest.raises(TooLarge, match="5 x 5"):
            is_basic_hole(planes[1])
        monkeypatch.undo()
        assert betti_profile(projective_plane()).betti == (1, 0, 0)
        # the 240-vertex tent's 28680 x 28442 top boundary (6.5 GB)
        # reduces to one triangle with no boundary left
        K = tent_plus_common_edge(240, 1)
        profile = betti_profile(K)
        assert profile.betti == (1, 0, 1)
        assert profile.ranks == (0, 239, K.n_faces(2) - 1)
        assert not is_basic_hole(K)

    def test_tent_coreduces_to_two_triangles(self):
        # the reduction removes every vertex and edge and all but one
        # triangle per added triangle
        K = tent_plus_common_edge(50, 2)
        assert betti_profile(K).betti == (1, 0, 2)
        left, components, pairs = homology._coreduce(K)
        assert [int(mask.sum()) for mask in left] == [0, 0, 2]
        assert components == 1
        assert len(pairs) == K.n_faces(2) - 2

    def test_relabelled_apex_needs_no_elimination(self, monkeypatch):
        # the apex of the 240-vertex tent moved to vertex 239, so vertex 0
        # is not the apex: the reduction still leaves only triangles with
        # no boundary
        monkeypatch.setattr(homology, "integer_rank", None)
        swap = {0: 239, 239: 0}
        K = from_facets(240, [tuple(swap.get(v, v) for v in f)
                              for f in tent_plus_common_edge(240, 2).facets])
        assert sum(239 in f for f in K.facets) == math.comb(239, 2)
        profile = betti_profile(K)
        assert profile.betti == (1, 0, 2)
        assert profile.ranks == (0, 239, K.n_faces(2) - 2)

    @pytest.mark.parametrize("K, betti", [
        (grid_surface(60, drop=1), (1, 2, 0)),
        (grid_surface(60, wrap_rows=False), (1, 1, 0)),
    ], ids=["punctured_torus", "annulus"])
    def test_surface_with_boundary_needs_no_elimination(self, K, betti,
                                                        monkeypatch):
        # the free edges collapse every triangle, and the graph left
        # reduces to beta_1 edges with no boundary. Coreduction pairs
        # alone remove no triangle here: the punctured torus would stall
        # at a 7201 x 7199 residual, above complex_core.CELL_BUDGET
        monkeypatch.setattr(homology, "integer_rank", None)
        profile = betti_profile(K)
        assert profile.betti == betti
        left, starts, pairs = homology._coreduce(K)
        assert [int(mask.sum()) for mask in left] == [0, betti[1], 0]
        assert starts == 1 and len(pairs) == K.n_faces(2)
        assert not is_basic_hole(K)

    def test_closed_torus_residual(self):
        # no free face and no triangle with one edge left: of the 36
        # vertices, 108 edges and 72 triangles the reduction keeps every
        # triangle and the 73 edges off a spanning tree
        K = grid_surface(6)
        left, _, _ = homology._coreduce(K)
        assert [int(mask.sum()) for mask in left] == [0, 73, 72]
        assert betti_profile(K).betti == (1, 2, 1)

    def test_two_components(self, two_triangles):
        assert betti_profile(two_triangles).betti == (2, 0, 0)

    def test_rank_of_boundary_vs_oracle(self, delta4):
        profile = betti_profile(delta4)
        assert profile.ranks == (0, 3, 3)
        assert fraction_rank(boundary_matrix(delta4, 2).toarray()) == 3

    @given(mixed_complexes())
    @settings(max_examples=30, deadline=None)
    def test_euler_identity_exact(self, K):
        profile = betti_profile(K)
        chi = euler_characteristic(K)
        assert chi == profile.euler
        assert chi == sum((-1) ** i * b for i, b in enumerate(profile.betti))

    @given(pure2_complexes())
    @settings(max_examples=30, deadline=None)
    def test_beta2_is_corank_of_top_boundary(self, K):
        profile = betti_profile(K)
        rank2 = fraction_rank(boundary_matrix(K, 2).toarray())
        assert profile.betti[2] == K.n_faces(2) - rank2


def oracle_profile(K):
    """Betti numbers and boundary ranks from the full, unreduced signed
    boundaries by rational elimination."""
    ranks = [0] + [fraction_rank(boundary_matrix(K, i).toarray())
                   for i in range(1, K.dim + 1)] + [0]
    betti = tuple(K.n_faces(i) - ranks[i] - ranks[i + 1]
                  for i in range(K.dim + 1))
    return betti, tuple(ranks[:-1])


class TestCollapseAgainstOracle:
    """The reduced profile and basic-hole answer against full elimination."""

    @given(mixed_complexes())
    @settings(max_examples=60, deadline=None)
    def test_betti_and_ranks_match_full_elimination(self, K):
        profile = betti_profile(K)
        assert (profile.betti, profile.ranks) == oracle_profile(K)

    @given(mixed_complexes())
    @settings(max_examples=60, deadline=None)
    def test_basic_hole_matches_uncollapsed_oracle(self, K):
        if not K.is_pure():
            with pytest.raises(NotPure):
                is_basic_hole(K)
        elif K.dim >= 1:
            assert is_basic_hole(K) == naive_deletion_check(K)

    @pytest.mark.parametrize("n,facets", [
        (1, [(0,)]),
        (4, [(0,), (1,), (3,)]),
        (5, [(0, 1), (2,), (3, 4)]),
        (9, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6), (7,)]),
        (10, list(combinations(range(5), 4)) + [(5, 6), (6, 7), (5, 7), (8, 9)]),
    ], ids=["one_vertex", "three_vertices", "edges_and_a_vertex",
            "sphere_triangle_vertex", "three_sphere_circle_edge"])
    def test_disconnected_and_vertex_only(self, n, facets):
        K = from_facets(n, facets)
        profile = betti_profile(K)
        assert (profile.betti, profile.ranks) == oracle_profile(K)

    @given(mixed_complexes(max_n=5), mixed_complexes(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_union_matches_full_elimination(self, K, L):
        union = disjoint_union(K, L)
        profile = betti_profile(union)
        assert (profile.betti, profile.ranks) == oracle_profile(union)
        assert profile.betti[0] == (betti_profile(K).betti[0]
                                    + betti_profile(L).betti[0])

    @given(mixed_complexes(), mixed_complexes(), mixed_complexes())
    @settings(max_examples=40, deadline=None)
    def test_disjoint_union_adds_betti_numbers(self, K, L, M):
        parts = [betti_profile(X).betti for X in (K, L, M)]
        want = tuple(sum(b[i] for b in parts if i < len(b))
                     for i in range(max(map(len, parts))))
        assert betti_profile(disjoint_union(disjoint_union(K, L), M)).betti == want

    @seed(20260)
    @given(mixed_complexes())
    @settings(max_examples=60, deadline=None)
    def test_basic_hole_reads_the_cached_top_betti(self, K):
        # beta_top != 1 answers False from the cached profile: no
        # coreduction, no rank and no kernel of the top boundary is computed
        top = betti_profile(K).betti[K.dim]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("integer_rank", "_kernel_vector", "_bareiss",
                         "_coreduce"):
                real = getattr(homology, name)
                mp.setattr(homology, name,
                           lambda *args, real=real, name=name:
                           calls.append(name) or real(*args))
            if not K.is_pure():
                with pytest.raises(NotPure):
                    is_basic_hole(K)
            elif K.dim >= 1:
                assert is_basic_hole(K) == naive_deletion_check(K)
        assert "integer_rank" not in calls
        if top != 1:
            assert not calls

    @pytest.mark.parametrize("K", [delta_sphere(2), rhombic(2), delta_sphere(3)],
                             ids=["delta_sphere2", "rhombic2", "delta_sphere3"])
    def test_spheres_keep_every_facet(self, K):
        # every facet carries the cycle, which is read off the removed
        # pairs: coreduction leaves one top face and nothing below it
        left, _, pairs = homology._coreduce(K)
        assert [int(mask.sum()) for mask in left] == [0] * K.dim + [1]
        assert len(pairs) == K.n_faces(K.dim) - 1
        assert is_basic_hole(K) and naive_deletion_check(K)
        profile = betti_profile(K)
        assert (profile.betti, profile.ranks) == oracle_profile(K)


class TestEulerCharacteristic:
    def test_delta4(self, delta4):
        assert euler_characteristic(delta4) == 4 - 6 + 4 == 2

    def test_single_triangle(self, triangle):
        assert euler_characteristic(triangle) == 3 - 3 + 1 == 1

    def test_tent_plus_two(self):
        K = tent_plus_common_edge(6, 2)
        assert (K.n_faces(0), K.n_faces(1), K.n_faces(2)) == (6, 15, 12)
        assert euler_characteristic(K) == 3
        assert sum((-1) ** i * b
                   for i, b in enumerate(betti_profile(K).betti)) == 3


class TestHodgeBetti:
    def test_delta4_top(self, delta4):
        assert hodge_betti(delta4, 2) == 1

    def test_tent_middle(self):
        assert hodge_betti(tented(6, 2), 1) == 0

    def test_triangle_connected(self, triangle):
        assert hodge_betti(triangle, 0) == 1

    def test_guard_band(self, triangle, monkeypatch):
        monkeypatch.setattr(homology, "ZERO_TOL", 1.0)
        with pytest.raises(SpectrumAmbiguous):
            hodge_betti(triangle, 1)

    @given(mixed_complexes(max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_matches_exact_profile(self, K):
        profile = betti_profile(K)
        for i in range(K.dim + 1):
            assert hodge_betti(K, i) == profile.betti[i]

    @given(mixed_complexes())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_full_laplacian_oracle(self, K):
        for i in range(K.dim + 1):
            assert hodge_betti(K, i) == dense_hodge_betti(K, i)
            # thresholds whose guard band edges sit away from every
            # eigenvalue refuse in both paths or in neither, else agree
            eigs = np.linalg.eigvalsh(full_laplacian(K, i))
            for zero_tol in (1e-3, 0.0173, 0.31, 1.37):
                edges = np.array([zero_tol, 100 * zero_tol])
                if np.abs(eigs[:, None] - edges).min() < 1e-6:
                    continue
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(homology, "ZERO_TOL", zero_tol)
                    got = _outcome(lambda: hodge_betti(K, i))
                assert got == _outcome(lambda: dense_hodge_betti(K, i, zero_tol))

    @pytest.mark.parametrize("make", [lambda: simplex_skeleton(6, 1),
                                      lambda: projective_plane(),
                                      lambda: tented(6, 3),
                                      lambda: from_facets(3, [(0,), (1, 2)]),
                                      lambda: from_facets(2, [(0,), (1,)])],
                             ids=["K6", "rp2", "tented6_3", "dim1_mixed",
                                  "points"])
    def test_one_eigensolve_per_boundary(self, make, monkeypatch):
        K = make()
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        hodge = [hodge_betti(K, i) for i in range(K.dim + 1)]
        assert hodge == list(betti_profile(K).betti)
        assert len(calls) == K.dim
        assert calls == [min(K.n_faces(j - 1), K.n_faces(j))
                         for j in range(1, K.dim + 1)]
        monkeypatch.setattr(homology, "ZERO_TOL", 1e-6)
        hodge_betti(K, K.dim)
        assert len(calls) == K.dim  # the spectra are cached on the complex

    def test_refused_above_the_dense_limit(self):
        K = simplex_skeleton(92, 1)  # the 1-skeleton of the 91-simplex
        assert (K.n_faces(0), K.n_faces(1)) == (92, 4186)
        assert K.n_faces(1) > chains.DENSE_LIMIT
        with pytest.raises(TooLarge):
            hodge_betti(K, 1)
        assert hodge_betti(K, 0) == 1
        with pytest.raises(TooLarge):
            hodge_betti(K, 1)  # also with the one spectrum it needs cached


def dense_hodge_betti(K, i, zero_tol=1e-8):
    """Oracle for hodge_betti: the eigenvalues of the full Laplacian
    L_down + L_up on the i-faces, below the threshold, with the same
    guard band."""
    eigs = np.linalg.eigvalsh(full_laplacian(K, i))
    band = eigs[(eigs >= zero_tol) & (eigs < 100 * zero_tol)]
    if band.size:
        raise SpectrumAmbiguous(f"eigenvalue {band[0]:.3e} in the guard band")
    return int((eigs < zero_tol).sum())


def _outcome(count):
    try:
        return count()
    except SpectrumAmbiguous:
        return "ambiguous"


def naive_deletion_check(K):
    """Oracle for is_basic_hole without the reduction: the full top boundary has
    a one-dimensional kernel and deleting any single facet kills it."""
    A = boundary_matrix(K, K.dim).toarray()
    if A.shape[1] - fraction_rank(A) != 1:
        return False
    for j in range(A.shape[1]):
        sub = np.delete(A, j, axis=1)
        beta = sub.shape[1] - fraction_rank(sub)
        if beta != 0:
            return False
    return True


class TestBasicHoles:
    def test_delta_sphere_is_basic(self):
        assert is_basic_hole(delta_sphere(2))

    def test_rhombic_is_basic(self):
        assert is_basic_hole(rhombic(2))

    def test_tent_is_not(self):
        assert not is_basic_hole(tented(5, 2))

    def test_circle_is_basic_in_dim_one(self):
        assert is_basic_hole(delta_sphere(1))

    def test_not_pure_rejected(self):
        K = from_facets(4, [(0, 1, 2), (2, 3)])
        with pytest.raises(NotPure):
            is_basic_hole(K)

    @given(pure2_complexes(max_n=5, max_facets=8))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_deletion_oracle(self, K):
        assert is_basic_hole(K) == naive_deletion_check(K)

    @pytest.mark.parametrize("K,want,residual", [
        (rp2_plus((0, 1, 6), (0, 4, 6), (1, 4, 6)), True, (0, 1)),
        (from_facets(7, [(0, 1, 2), (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 3, 4),
                         (0, 4, 6), (0, 5, 6), (1, 2, 4), (1, 3, 6), (1, 4, 5),
                         (1, 4, 6), (3, 4, 5), (3, 5, 6)]), True, (8, 9)),
        (disjoint_union(projective_plane(), delta_sphere(2)), False, (5, 6)),
    ], ids=["rp2_cone_on_doubled_loop", "relabelled_with_residual",
            "rp2_beside_sphere"])
    def test_cycle_read_off_coreduction(self, K, want, residual):
        # beta_2 = 1; the cycle comes from the kernel of the residual top
        # boundary and the removed pairs
        assert betti_profile(K).betti[2] == 1
        left, _, _ = homology._coreduce(K)
        A = chains.dense_boundary(K, 2, left)
        assert A.shape == residual and A.any() == (residual != (0, 1))
        assert is_basic_hole(K) == naive_deletion_check(K) == want

    @pytest.mark.parametrize("K", [delta_sphere(2), rhombic(2),
                                   rp2_plus((0, 1, 6), (0, 4, 6), (1, 4, 6))],
                             ids=["delta_sphere2", "rhombic2", "rp2_cone"])
    def test_reads_the_coreduction_of_the_profile(self, K, monkeypatch):
        # after betti_profile, is_basic_hole reads no incidence below the
        # top boundary: it builds no second coreduction
        profile = betti_profile(K)
        dims = []
        table = chains.boundary_index_table
        monkeypatch.setattr(chains, "boundary_index_table",
                            lambda K, i: dims.append(i) or table(K, i))
        assert is_basic_hole(K) == naive_deletion_check(K)
        assert set(dims) <= {K.dim}
        assert betti_profile(K) is profile

    def test_cycle_on_rp2_cone_has_coefficient_two(self):
        # the RP^2 triangles bound twice the loop 0-1-4, so the cone over
        # it carries coefficient 2 and every RP^2 triangle 1
        K = rp2_plus((0, 1, 6), (0, 4, 6), (1, 4, 6))
        z = homology._kernel_vector(boundary_matrix(K, 2).toarray())
        assert [abs(x) for f, x in zip(faces(K, 2), z) if 6 in f] == [2, 2, 2]
        assert all(abs(x) == 1 for f, x in zip(faces(K, 2), z) if 6 not in f)

    def test_suspension_takes_no_elimination_wider_than_a_column(
            self, monkeypatch):
        # the 300-gon suspension coreduces to one triangle: the cycle is
        # read off the removed pairs, and no matrix with more than one
        # column is eliminated
        widths = []
        for name in ("_kernel_vector", "integer_rank"):
            real = getattr(homology, name)
            monkeypatch.setattr(homology, name,
                                lambda A, real=real: widths.append(
                                    np.shape(A)[1]) or real(A))
        K = suspension(300)
        assert K.n_faces(2) == 600
        assert is_basic_hole(K)
        assert widths and max(widths) <= 1

    def test_bigger_sphere_with_redundant_face_is_not_basic(self):
        # delta_sphere(2) plus nothing is basic; gluing one extra facet
        # onto a sphere of its own keeps beta_2 = 1 but adds removable faces
        K = from_facets(5, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                            (1, 2, 4)])
        assert betti_profile(K).betti[2] == 1
        assert not is_basic_hole(K)
        assert naive_deletion_check(K) is False


class TestBasicHoleProperties:
    def test_delta_sphere_all_pass(self):
        rep = check_basic_hole_properties(delta_sphere(2))
        assert rep.path_connected and rep.min_degree_two
        assert rep.deletion_path_connected and rep.all_pass

    def test_rhombic_all_pass(self):
        assert check_basic_hole_properties(rhombic(2)).all_pass

    def test_dim_one_circle(self):
        assert check_basic_hole_properties(delta_sphere(1)).all_pass

    def test_non_hole_rejected(self):
        with pytest.raises(NotBasicHole):
            check_basic_hole_properties(tented(5, 2))

    @given(pure2_complexes(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_min_degree_matches_a_per_ridge_scan(self, K):
        # the degree count runs on non-holes too once the gate is lifted
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "is_basic_hole", lambda K: True)
            rep = check_basic_hole_properties(K)
        assert rep.min_degree_two is all(face_degree(K, F) >= 2
                                         for F in faces(K, 1))
