import io
import math
import numbers
import os
import re
import warnings
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcomplex import (
    SimplicialComplex,
    asymptotic_check,
    canonical_form,
    delta_sphere,
    face,
    facet_bound,
    from_facets,
    hodge_betti,
    random_pure2,
    read_facets,
    rhombic,
    simplex_skeleton,
    spectral_bound,
    spectral_radius,
    tent_plus_common_edge,
    tent_plus_faces,
    tented,
    write_facets,
)
from qcomplex import cli, complex_core, families
from qcomplex.errors import (
    BadParams,
    BadVertexId,
    DimensionOutOfRange,
    NotPure,
    QComplexError,
    TooLarge,
)
from qcomplex.chains import (boundary_index_table, coface_index,
                             is_path_connected, laplacian,
                             up_connected_after_deletion)

from conftest import (down_neighbors, down_neighbors_via_vertex, face_degree,
                      face_index, faces, facets_texts, has_face, int64_token,
                      is_isomorphic, mixed_candidates, mixed_complexes,
                      pure2_complexes, read_facets_oracle, suspension,
                      up_neighbors)


class TestFromFacets:
    def test_single_triangle_closure(self, triangle):
        assert faces(triangle, 2) == ((0, 1, 2),)
        assert faces(triangle, 1) == ((0, 1), (0, 2), (1, 2))
        assert faces(triangle, 0) == ((0,), (1,), (2,))

    def test_delta4_counts(self, delta4):
        assert delta4.n_faces(2) == 4
        assert delta4.n_faces(1) == 6
        assert delta4.n_faces(0) == 4

    def test_mixed_dimensions_rejected_when_pure(self):
        with pytest.raises(NotPure):
            from_facets(4, [(0, 1, 2), (2, 3)], require_pure=True)

    def test_mixed_dimensions_allowed_otherwise(self):
        K = from_facets(4, [(0, 1, 2), (2, 3)])
        assert not K.is_pure()
        assert K.dim == 2

    def test_non_maximal_faces_dropped(self):
        K = from_facets(3, [(0, 1, 2), (0, 1), (2,)])
        assert K.facets == ((0, 1, 2),)

    def test_bad_vertex_id(self):
        with pytest.raises(BadVertexId):
            from_facets(3, [(0, 1, 3)])

    def test_numpy_integer_ids_accepted(self):
        K = from_facets(np.int64(5), [(np.int64(0), 1, np.int32(2)),
                                      (np.uint8(2), 3, 4)])
        assert K == from_facets(5, [(0, 1, 2), (2, 3, 4)])

    @pytest.mark.parametrize("build", [
        lambda: from_facets(3, [(False, True, 2)]),
        lambda: from_facets(3, arrays=[np.array([[False, True]])]),
        lambda: face([False, True, 2]),
        lambda: tent_plus_faces(5, [(True, 2, 3)]),
        lambda: face([np.True_, 2]),
        lambda: face([0.5, 1]),
        lambda: face(["1", 2]),
    ], ids=["tuples", "bool_array", "face", "tent_plus_faces", "face_np_bool",
            "face_float", "face_str"])
    def test_vertex_id_that_is_no_integer_refused(self, build):
        # bool is an int subclass and a bool array casts safely to int64,
        # but True is no vertex id
        with pytest.raises(BadVertexId):
            build()

    def test_empty_facets(self):
        with pytest.raises(BadParams):
            from_facets(3, [])

    def test_int64_key_overflow_refused(self):
        assert from_facets(2 ** 61, [(0, 1, 2)]).facets == ((0, 1, 2),)
        with pytest.raises(TooLarge):
            from_facets(2 ** 62, [(0, 1, 2)])

    @pytest.mark.parametrize("n, facet", [(10 ** 20, (0, 1, 2)), (2 ** 63, (0,))])
    def test_vertex_count_past_int64_refused(self, n, facet):
        with pytest.raises(TooLarge, match=r"below 2\^63"):
            from_facets(n, [facet])
        assert from_facets(2 ** 63 - 1, [(0,)]).n_vertices == 2 ** 63 - 1

    def test_unsorted_input_normalized(self):
        K = from_facets(3, [(2, 0, 1)])
        assert K.facets == ((0, 1, 2),)


def _reached(*args, **kwargs):
    raise AssertionError("construction started over the cell budget")


class TestFaceBudget:
    """A construction whose closure lists more than `CELL_BUDGET` int64
    cells is refused before the closure or the subset listing starts."""

    # 30 vertices: 85 bytes whose closure lists 2^30 - 1 faces; 15,000:
    # a count with more digits than an int may print
    @pytest.mark.parametrize("width", [30, 15_000])
    def test_one_wide_facet(self, monkeypatch, tmp_path, width):
        monkeypatch.setattr(complex_core, "_prefix_keys", _reached)
        path = tmp_path / "wide.facets"
        path.write_text(f"n {width}\n" + " ".join(map(str, range(width))) + "\n")
        with pytest.raises(TooLarge, match="cell budget"):
            read_facets(path)

    @pytest.mark.parametrize("build", [
        lambda: delta_sphere(30), lambda: simplex_skeleton(200, 4),
        # 20,001 rows of 20,000 vertices: 3.2 GB had they been listed
        lambda: delta_sphere(19_999), lambda: rhombic(20_000),
        # C(10^6, 5 * 10^5) alone takes seconds to compute
        lambda: simplex_skeleton(10 ** 6, 5 * 10 ** 5 - 1),
    ], ids=["delta_sphere_30", "skeleton_200_4", "delta_sphere_19999",
            "rhombic_20000", "skeleton_half"])
    def test_subset_listing(self, monkeypatch, build):
        monkeypatch.setattr(complex_core, "_prefix_keys", _reached)
        monkeypatch.setattr(families, "combinations", _reached)
        comb = math.comb
        monkeypatch.setattr(math, "comb",
                            lambda n, k: comb(n, k) if k < 64 else _reached())
        with pytest.raises(TooLarge, match="cell budget"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: simplex_skeleton(45_000, np.int64(3)),
        lambda: tented(45_001, np.int64(4)),
        lambda: families.subset_rows(np.int64(45_000), np.int64(4)),
    ], ids=["skeleton", "tented", "subset_rows"])
    def test_numpy_integer_counts(self, monkeypatch, build):
        # C(45000, 4) * 4 << 4 wraps to a negative int64: the budget is
        # counted in Python ints
        monkeypatch.setattr(np, "fromiter", _reached)
        with pytest.raises(TooLarge, match="cell budget"):
            build()

    def test_numpy_integer_vertex_count(self):
        # 5 * 2^62 wraps to 2^62 in int64, which let the key-range check pass
        with pytest.raises(TooLarge, match="overflow the int64 keys"):
            from_facets(np.int64(2 ** 62), [range(5)])
        assert type(from_facets(np.int64(3), [(0, 1, 2)]).n_vertices) is int

    def test_cells_not_faces(self, monkeypatch):
        # a facet on 22 vertices lists 2^22 - 1 faces, which a budget of
        # 2^24 faces let through, but 22 * 2^21 int64 cells
        monkeypatch.setattr(complex_core, "_prefix_keys", _reached)
        with pytest.raises(TooLarge, match="cell budget"):
            from_facets(22, [range(22)])

    def test_width_three_verdicts(self):
        # the 2,190-vertex tent, C(2189, 2) triangles, lists 28,737,192
        # cells and fits; one vertex more does not
        complex_core.require_cells_fit([(math.comb(2189, 2), 3)], "the tent")
        with pytest.raises(TooLarge, match="cell budget"):
            complex_core.require_cells_fit([(math.comb(2190, 2), 3)], "the tent")
        with pytest.raises(TooLarge, match="cell budget"):
            tented(2191)

    def test_budget_is_inclusive(self, monkeypatch):
        # a triangle lists 12 cells (3 vertices, 3 edges, 1 triangle), two
        # triangles 24
        monkeypatch.setattr(complex_core, "CELL_BUDGET", 12)
        assert from_facets(3, [(0, 1, 2)]).n_faces(1) == 3
        assert families.subset_rows(3, 3).tolist() == [[0, 1, 2]]
        with pytest.raises(TooLarge):
            from_facets(4, [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(TooLarge):
            families.subset_rows(4, 3)


def oracle_from_facets(n, facets):
    """Oracle: facets and faces by dimension from Python sets of tuples,
    candidates taken largest first so maximality is one set lookup."""
    if not (isinstance(n, numbers.Integral) and n > 0):
        raise BadParams(f"n_vertices must be a positive integer, got {n!r}")
    if not all(isinstance(v, numbers.Integral) for f in facets for v in f):
        raise BadVertexId("non-integral vertex id")
    normalized = sorted({face(f) for f in facets})
    if not normalized:
        raise BadParams("facet list is empty")
    if max(f[-1] for f in normalized) >= n:
        raise BadVertexId("vertex outside [0, n)")
    by_dim = [set() for _ in range(max(map(len, normalized)))]
    maximal = []
    for f in sorted(normalized, key=len, reverse=True):
        if f in by_dim[len(f) - 1]:
            continue
        maximal.append(f)
        for i in range(len(f)):
            by_dim[i].update(combinations(f, i + 1))
    return tuple(sorted(maximal)), [tuple(sorted(s)) for s in by_dim]


def oracle_table(faces_by_dim, i):
    """Oracle: one dict lookup per i-face and omitted vertex."""
    lower = {f: k for k, f in enumerate(faces_by_dim[i - 1])}
    return np.array([[lower[F[:j] + F[j + 1:]] for j in range(i + 1)]
                     for F in faces_by_dim[i]], dtype=np.int64).reshape(-1, i + 1)


class TestConstructionAgainstSetOracle:
    @given(mixed_candidates(max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_faces_and_tables_match(self, candidates, rnd):
        # shuffled vertex order, shuffled list order and repeated candidates
        n, candidates = candidates
        listed = [rnd.sample(f, len(f)) for f in candidates + candidates[:2]]
        rnd.shuffle(listed)
        K = from_facets(n, listed)
        facets, by_dim = oracle_from_facets(n, listed)
        assert K.facets == facets
        assert K.dim == len(by_dim) - 1
        for i, fs in enumerate(by_dim):
            assert faces(K, i) == fs
            assert K.n_faces(i) == len(fs)
        for i in range(1, K.dim + 1):
            tab = boundary_index_table(K, i)
            assert tab.dtype == np.int64
            assert np.array_equal(tab, oracle_table(by_dim, i))

    @pytest.mark.parametrize("arrays,error", [
        ([np.array([[0, 1, 2.0]])], BadVertexId),
        ([np.array([[0, 1, 2]], np.uint64)], BadVertexId),
        ([np.array([0, 1, 2])], BadParams),
        ([np.array([[0, 1, 1]])], BadParams),
        ([np.array([[0, -1, 2]])], BadVertexId),
        ([np.array([[0, 1, 5]])], BadVertexId),
        ([np.zeros((2, 0), np.int64)], BadParams),
        ([np.zeros((0, 3), np.int64)], BadParams),
    ])
    def test_array_input_refused(self, arrays, error):
        with pytest.raises(error):
            from_facets(5, arrays=arrays)

    @pytest.mark.parametrize("n,facets,error", [
        (0, [(0, 1)], BadParams),
        (-3, [(0, 1)], BadParams),
        (4, [], BadParams),
        (4, [(0, 1), ()], BadParams),
        (4, [(0, 1, 2), (2, 1, 2)], BadParams),
        (4, [(0, 1), (-1, 2)], BadVertexId),
        (4, [(0, 1, 2), (1, 4)], BadVertexId),
        (4, [(0, 1, 2), (1, 2, 3, 7)], BadVertexId),
        (5, [(0, 1, 2.5)], BadVertexId),
        (5, [(0, 1), (0, 1, np.float64(2.0))], BadVertexId),
        (5, [(0, "1", 2)], BadVertexId),
        (5, [(0, 1, 2 ** 63)], BadVertexId),
        (5.5, [(0, 1, 2)], BadParams),
        (5.0, [(0, 1, 2)], BadParams),
        ("5", [(0, 1, 2)], BadParams),
    ])
    def test_error_types_match(self, n, facets, error):
        for build in (from_facets, oracle_from_facets):
            with pytest.raises(error):
                build(n, facets)

    @given(mixed_candidates(max_n=7), mixed_candidates(max_n=7),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_facets_eq_and_hash_match_the_oracle(self, c1, c2, rnd):
        # the facet tuples are built on first read from the row arrays;
        # == compares the arrays, hash the tuples
        (n1, f1), (n2, f2) = c1, c2
        K1, K2 = from_facets(n1, f1), from_facets(n2, f2)
        F1, F2 = oracle_from_facets(n1, f1)[0], oracle_from_facets(n2, f2)[0]
        assert (K1.facets, K2.facets) == (F1, F2)
        assert hash(K1) == hash((n1, F1))
        assert (K1 == K2) == ((n1, F1) == (n2, F2))
        shuffled = [rnd.sample(f, len(f)) for f in rnd.sample(f1, len(f1))]
        by_width = [np.array([f for f in shuffled if len(f) == w], np.int64)
                    for w in {len(f) for f in shuffled}]
        for K in (from_facets(n1, shuffled), from_facets(n1, arrays=by_width)):
            assert K == K1 and hash(K) == hash(K1)
            assert K.facets == F1

    @given(mixed_complexes())
    @settings(max_examples=80, deadline=None)
    def test_is_pure_reads_facet_lengths(self, K):
        assert K.is_pure() == all(len(f) == K.dim + 1 for f in K.facets)

    def test_large_tent_paths_build_no_tuples(self, monkeypatch, tmp_path):
        # the construction, Perron output and .facets writer read the row
        # arrays only: no facet tuples or per-facet input
        path = tmp_path / "t240.facets"
        write_facets(tent_plus_common_edge(240, 2), path)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SimplicialComplex, "facets", property(
            counted("facets", SimplicialComplex.facets.fget)))
        for mod in (complex_core, families):
            def from_rows_only(n, facets=(), *args, _build=mod.from_facets, **kw):
                if facets:
                    calls.append("from_facets with Python facets")
                return _build(n, facets, *args, **kw)
            monkeypatch.setattr(mod, "from_facets", from_rows_only)
        rows = asymptotic_check(2, [60, 120, 240])
        assert [r.n for r in rows] == [60, 120, 240]
        out = tmp_path / "perron.txt"
        assert cli.main(["spectra", str(path), "--dim", "1", "--perron",
                         "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 28680
        assert cli.main(["gen", "tent_plus_common_edge", "--n", "240", "--t",
                         "2", "-o", str(tmp_path / "gen.facets")]) == 0
        assert calls == []

    def test_lanczos_makes_no_face_tuple(self, monkeypatch):
        K = tent_plus_common_edge(60, 1)

        def refuse(self):
            raise AssertionError("the facet tuples were built")

        monkeypatch.setattr(SimplicialComplex, "facets", property(refuse))
        res = spectral_radius(K, 1)
        assert res.iterations > 0
        assert res.value == pytest.approx(117.0, abs=1e-3)


# -- the library's incidence, read per face --------------------------------

def row_of(K, F):
    """The index `row_index` finds for the tuple ``F``, or None when F is no
    face of K."""
    if not 0 < len(F) <= K.dim + 1:
        return None
    rows = K.rows(len(F) - 1)
    k = int(K.row_index(np.array([F], np.int64))[0])
    return k if k < len(rows) and tuple(rows[k].tolist()) == F else None


def incidence_degree(K, F):
    """The cofaces of the face ``F`` in `coface_index`."""
    i = len(F) - 1
    if i == K.dim:
        return 0
    ptr, k = coface_index(K, i)[0], row_of(K, F)
    return int(ptr[k + 1] - ptr[k])


def _others(K, i, indices, k):
    """The i-faces at ``indices`` other than the k-th, as sorted tuples."""
    return [tuple(K.rows(i)[j].tolist()) for j in np.unique(indices).tolist()
            if j != k]


def incidence_down(K, F):
    """The cofaces in `coface_index` of the boundary faces of ``F`` in
    `boundary_index_table`, F left out."""
    i, k = len(F) - 1, row_of(K, F)
    ptr, cof, _ = coface_index(K, i - 1)
    sides = boundary_index_table(K, i)[k].tolist()
    return _others(K, i, np.concatenate([cof[ptr[y]:ptr[y + 1]] for y in sides]), k)


def incidence_up(K, F):
    """The boundary faces in `boundary_index_table` of the cofaces of ``F``
    in `coface_index`, F left out."""
    i, k = len(F) - 1, row_of(K, F)
    if i == K.dim:
        return []
    ptr, cof, _ = coface_index(K, i)
    return _others(K, i, boundary_index_table(K, i + 1)[cof[ptr[k]:ptr[k + 1]]], k)


class TestFaceDegree:
    def test_tent_non_apex_edge(self):
        K = tented(5, 2)
        assert incidence_degree(K, (1, 2)) == face_degree(K, (1, 2)) == 1

    def test_delta4_every_edge_has_degree_two(self, delta4):
        # oracle: direct count over the 4 facets
        for e in faces(delta4, 1):
            count = sum(1 for f in delta4.facets if set(e) <= set(f))
            assert count == 2
            assert incidence_degree(delta4, e) == 2

    def test_single_triangle_edge(self, triangle):
        assert incidence_degree(triangle, (0, 1)) == 1


class TestDownNeighbors:
    def test_delta4_brute_force(self, delta4):
        # oracle: pairwise intersection sizes
        for F in faces(delta4, 2):
            assert incidence_down(delta4, F) == down_neighbors(delta4, F)
        assert len(incidence_down(delta4, (0, 1, 2))) == 3

    def test_single_triangle_no_neighbors(self, triangle):
        assert incidence_down(triangle, (0, 1, 2)) == []

    def test_added_face_of_tent_plus_one(self):
        K = tent_plus_faces(6, [(1, 2, 3)])
        got = incidence_down(K, (1, 2, 3))
        assert got == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]


class TestDownNeighborsViaVertex:
    # the down neighbours through x are those of the incidence holding x
    def test_delta4_all_present(self, delta4):
        got = [G for G in incidence_down(delta4, (0, 1, 2)) if 3 in G]
        assert got == down_neighbors_via_vertex(delta4, (0, 1, 2), 3)
        assert got == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def test_tent_apex_face(self):
        K = tented(6, 2)
        got = [G for G in incidence_down(K, (0, 1, 2)) if 3 in G]
        # {3,1,2} is absent: every facet contains the apex
        assert got == down_neighbors_via_vertex(K, (0, 1, 2), 3)
        assert got == [(0, 1, 3), (0, 2, 3)]


class TestUpNeighbors:
    def test_single_triangle(self, triangle):
        assert incidence_up(triangle, (0, 1)) == [(0, 2), (1, 2)]

    def test_delta4_edge_has_four(self, delta4):
        # oracle: brute force over covering facets
        expected = set()
        for f in delta4.facets:
            if {0, 1} <= set(f):
                for e in combinations(f, 2):
                    if e != (0, 1):
                        expected.add(e)
        got = incidence_up(delta4, (0, 1))
        assert sorted(expected) == got == up_neighbors(delta4, (0, 1))
        assert len(got) == 4

    def test_disjoint_triangles_stay_local(self, two_triangles):
        assert incidence_up(two_triangles, (0, 1)) == [(0, 2), (1, 2)]


class TestNeighborQueriesAgainstScan:
    @given(mixed_complexes())
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_on_every_vertex_subset(self, K):
        # every subset of the vertex set: `row_index` finds exactly the faces
        # (none above K.dim), and the degree and neighbours of each face read
        # off the incidence are those of the scans
        for size in range(1, K.n_vertices + 1):
            for F in combinations(range(K.n_vertices), size):
                assert (row_of(K, F) is not None) == has_face(K, F)
                if not has_face(K, F):
                    continue
                assert incidence_degree(K, F) == face_degree(K, F)
                assert incidence_up(K, F) == up_neighbors(K, F)
                if size > 1:
                    assert incidence_down(K, F) == down_neighbors(K, F)
        # the coface index behind them: every table entry once, as
        # tab[cof, pos] == x, with cof ascending on each i-face x
        for i in range(K.dim):
            tab = boundary_index_table(K, i + 1)
            ptr, cof, pos = coface_index(K, i)
            assert ptr[0] == 0 and ptr[-1] == len(cof) == tab.size
            x = np.repeat(np.arange(K.n_faces(i)), np.diff(ptr))
            assert np.array_equal(tab[cof, pos], x)
            assert (np.diff(cof)[np.diff(x) == 0] > 0).all()


class TestPathConnected:
    @staticmethod
    def _bfs_connected(K, i, skip=None):
        low = faces(K, i)
        pos = {f: k for k, f in enumerate(low)}
        adj = [set() for _ in low]
        for k, cof in enumerate(faces(K, i + 1)):
            if k == skip:
                continue
            members = [pos[tuple(v for v in cof if v != drop)] for drop in cof]
            for a in members:
                for b in members:
                    if a != b:
                        adj[a].add(b)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return len(seen) == len(low)

    def test_tent_is_connected(self):
        K = tented(8, 2)
        assert is_path_connected(K, 1) is self._bfs_connected(K, 1) is True

    def test_two_triangles_disconnected(self, two_triangles):
        assert is_path_connected(two_triangles, 1) is False

    def test_delta4_connected(self, delta4):
        assert is_path_connected(delta4, 1) is self._bfs_connected(delta4, 1)

    def test_index_out_of_range(self, triangle):
        with pytest.raises(DimensionOutOfRange):
            is_path_connected(triangle, 2)

    def _check_deletions(self, K, i):
        # the articulation pass against one BFS per left-out (i+1)-face
        kept = up_connected_after_deletion(K, i)
        assert kept.dtype == bool and kept.shape == (K.n_faces(i + 1),)
        assert kept.tolist() == [self._bfs_connected(K, i, skip)
                                 for skip in range(K.n_faces(i + 1))]

    @given(pure2_complexes())
    @settings(max_examples=40, deadline=None)
    def test_matches_bfs_oracle_with_and_without_a_facet(self, K):
        for i in (0, 1):
            assert is_path_connected(K, i) is self._bfs_connected(K, i)
            self._check_deletions(K, i)

    @given(mixed_complexes())
    @settings(max_examples=40, deadline=None)
    def test_deletions_match_bfs_oracle_in_every_dimension(self, K):
        for i in range(K.dim):
            assert is_path_connected(K, i) is self._bfs_connected(K, i)
            self._check_deletions(K, i)

    @pytest.mark.parametrize("m", [3, 4, 7, 12])
    def test_deletions_on_suspensions(self, m):
        K = suspension(m)
        assert up_connected_after_deletion(K, 1).all()
        self._check_deletions(K, 1)
        # a triangle hung on the ring edge (0, 1) is the one cut facet
        hung = from_facets(m + 3, list(K.facets) + [(0, 1, m + 2)])
        kept = up_connected_after_deletion(hung, 1)
        assert [k for k, ok in enumerate(kept) if not ok] == [
            face_index(hung, (0, 1, m + 2))]
        self._check_deletions(hung, 1)


class TestDimensionIndex:
    ENTRY_POINTS = {
        "rows": lambda K, i: K.rows(i),
        "n_faces": lambda K, i: K.n_faces(i),
        "faces": faces,
        "is_path_connected": is_path_connected,
        "boundary_index_table": boundary_index_table,
        "coface_index": coface_index,
        "laplacian": lambda K, i: laplacian(K, i, "L_up"),
        "hodge_betti": hodge_betti,
        "spectral_radius": spectral_radius,
    }

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("i", [0.5, 1.0, 1.5, np.float64(1.0), "1"])
    def test_non_integral_index_refused(self, name, i):
        K = tented(5, 2)
        self.ENTRY_POINTS[name](K, 1)  # with the caches warm
        with pytest.raises(DimensionOutOfRange):
            self.ENTRY_POINTS[name](K, i)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_numpy_integer_accepted(self, name):
        K = tented(5, 2)
        got = self.ENTRY_POINTS[name](K, np.int64(1))
        want = self.ENTRY_POINTS[name](K, 1)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        elif name == "coface_index":
            assert all(map(np.array_equal, got, want))
        elif name == "spectral_radius":
            assert got.value == want.value
        else:
            assert got == want


class TestIntegerParameters:
    @pytest.mark.parametrize("call", [
        lambda: simplex_skeleton(5.0, 2),
        lambda: simplex_skeleton(5, 2.0),
        lambda: tented(6, 2.0),
        lambda: tent_plus_common_edge(6.0, 1),
        lambda: tent_plus_faces(6.0, [(1, 2, 3)]),
        lambda: delta_sphere(2.0),
        lambda: rhombic(np.float64(2.0)),
        lambda: random_pure2(6.0),
        lambda: asymptotic_check(1, [60.5]),
        lambda: asymptotic_check(1.0, [60]),
        lambda: facet_bound(6, 2, 1.5),
        lambda: spectral_bound(6.0, 2, 1),
    ], ids=["skeleton_n", "skeleton_r", "tented_r", "common_edge_n",
            "plus_faces_n", "delta_sphere_r", "rhombic_r", "random_n",
            "asymptotic_n", "asymptotic_t", "facet_bound_t",
            "spectral_bound_n"])
    def test_non_integral_refused(self, call):
        with pytest.raises(BadParams):
            call()

    @pytest.mark.parametrize("call, error", [
        (lambda: asymptotic_check(1, None), BadParams),
        (lambda: tent_plus_faces(6, None), BadParams),
        (lambda: spectral_bound(10 ** 400, 2, 0), TooLarge),
    ], ids=["asymptotic_n_list", "plus_faces_added", "spectral_bound_float"])
    def test_hostile_arguments_refused_typed(self, call, error):
        with pytest.raises(error):
            call()

    def test_numpy_integers_accepted(self):
        assert facet_bound(np.int64(6), 2, np.int32(1)) == facet_bound(6, 2, 1)
        assert tented(np.int64(6), np.int64(2)) == tented(6, 2)

    @pytest.mark.parametrize("n, r, t", [(2 ** 40, 2, 1), (2 ** 62, 3, 2)])
    def test_numpy_integer_bounds_do_not_wrap(self, n, r, t):
        # C(n - 1, r) + np.int64(t) overflows; r * n wraps in int64
        as_numpy = tuple(map(np.int64, (n, r, t)))
        assert facet_bound(*as_numpy) == facet_bound(n, r, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_bound(*as_numpy) == spectral_bound(n, r, t)


class TestIsomorphism:
    def test_tent_apex_relabeling(self):
        apex0 = tented(5, 2)
        apex4 = from_facets(5, [tuple(sorted((4,) + rest))
                                for rest in combinations(range(4), 2)])
        assert is_isomorphic(apex0, apex4)
        assert canonical_form(apex0) == canonical_form(apex4)

    def test_delta4_vs_tent(self, delta4):
        assert not is_isomorphic(delta4, tented(4, 2))

    def test_tent_plus_one_members_equivalent(self):
        K1 = tent_plus_faces(6, [(1, 2, 3)])
        K2 = tent_plus_faces(6, [(3, 4, 5)])
        # oracle: explicit permutation found by brute force
        found = False
        target = set(K2.facets)
        for perm in permutations(range(6)):
            mapped = {tuple(sorted(perm[v] for v in f)) for f in K1.facets}
            if mapped == target:
                found = True
                break
        assert found
        assert is_isomorphic(K1, K2)
        assert canonical_form(K1) == canonical_form(K2)

    def test_different_vertex_counts(self):
        assert not is_isomorphic(tented(5, 2), tented(6, 2))

    def test_too_large(self):
        # the permutation search is refused above 8 vertices: it would take
        # about 10 s at 9 and 100 s at 10
        for K in (tented(9, 2), tented(11, 2)):
            with pytest.raises(TooLarge):
                canonical_form(K)

    def test_unused_vertices_do_not_matter(self):
        tri4 = from_facets(4, [(0, 1, 2)])
        tri5 = from_facets(5, [(1, 2, 4)])
        assert is_isomorphic(tri4, tri5)
        assert canonical_form(tri4) == canonical_form(tri5) == ((0, 1, 2),)

    @given(pure2_complexes(max_n=5), pure2_complexes(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_canonical_form_decides_isomorphism(self, K1, K2):
        same = canonical_form(K1) == canonical_form(K2)
        assert same == is_isomorphic(K1, K2)


class TestInvariants:
    @given(mixed_complexes())
    @settings(max_examples=40, deadline=None)
    def test_closure(self, K):
        for i in range(1, K.dim + 1):
            for F in faces(K, i):
                for sub in combinations(F, i):
                    assert has_face(K, sub)

    @given(pure2_complexes())
    @settings(max_examples=30, deadline=None)
    def test_neighbor_symmetry(self, K):
        for F in faces(K, 2):
            for G in incidence_down(K, F):
                assert F in incidence_down(K, G)
        for F in faces(K, 1):
            for G in incidence_up(K, F):
                assert F in incidence_up(K, G)

    @given(pure2_complexes())
    @settings(max_examples=30, deadline=None)
    def test_down_neighbor_decomposition(self, K):
        for F in faces(K, 2):
            union = []
            for x in range(K.n_vertices):
                if x not in F:
                    part = down_neighbors_via_vertex(K, F, x)
                    union.extend(part)
            assert sorted(union) == incidence_down(K, F)
            assert len(union) == len(set(union))  # disjoint over x

    @given(mixed_complexes())
    @settings(max_examples=30, deadline=None)
    def test_boundary_count(self, K):
        for i in range(1, K.dim + 1):
            for F in faces(K, i):
                assert len(list(combinations(F, i))) == i + 1


class TestFacetsFormat:
    def test_round_trip_byte_identical(self, tmp_path):
        K = tent_plus_common_edge(7, 2)
        p1 = tmp_path / "a.facets"
        p2 = tmp_path / "b.facets"
        write_facets(K, p1)
        K2 = read_facets(p1)
        write_facets(K2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert K2 == K

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.facets"
        p.write_text("# a comment\n\nn 3\n# another\n0 1 2\n")
        K = read_facets(p)
        assert K.facets == ((0, 1, 2),)

    def test_sparse_labels_remapped(self, tmp_path):
        p = tmp_path / "d.facets"
        p.write_text("n 3\n10 20 30\n")
        K = read_facets(p)
        assert K.facets == ((0, 1, 2),)

    def test_labels_inside_range_kept(self, tmp_path):
        # vertex 1 unused: labels must not be compacted
        p = tmp_path / "e.facets"
        p.write_text("n 4\n0 2 3\n")
        K = read_facets(p)
        assert K.facets == ((0, 2, 3),)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "f.facets"
        p.write_text("0 1 2\n")
        with pytest.raises(BadParams):
            read_facets(p)

    @pytest.mark.parametrize("header", [
        "n 1_0", "n \u0663", "n 5 junk", "n 99999999999999999999"])
    def test_header_count_is_one_label(self, tmp_path, header):
        # int() reads each of these counts; the label grammar does not
        path = tmp_path / "h.facets"
        path.write_text(f"{header}\n0 1 2\n", encoding="utf-8")
        with pytest.raises(BadParams, match=f"malformed header '{header}'"):
            read_facets(path)

    @pytest.mark.parametrize("path", [None, 2.5, 99])
    def test_read_of_no_path_refused(self, path):
        with pytest.raises(BadParams, match="file system path"):
            read_facets(path)

    def test_file_descriptor_is_no_path(self, tmp_path):
        # an int would name a descriptor, which open() would also close
        (tmp_path / "k.facets").write_text("n 3\n0 1 2\n")
        fd = os.open(tmp_path / "k.facets", os.O_RDWR)
        try:
            with pytest.raises(BadParams, match="file system path"):
                read_facets(fd)
            with pytest.raises(BadParams, match="file system path"):
                write_facets(tented(4), fd)
            os.fstat(fd)  # still open
        finally:
            os.close(fd)
        assert read_facets(tmp_path / "k.facets").facets == ((0, 1, 2),)

    def test_missing_file_is_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_facets(tmp_path / "absent.facets")

    def test_write_into_missing_directory_refused(self, tmp_path):
        path = tmp_path / "missing" / "x.facets"
        with pytest.raises(BadParams, match=f"^{re.escape(str(path))}: cannot write"):
            write_facets(tented(5, 1), path)
        assert not path.parent.exists()

    def test_too_many_labels(self, tmp_path):
        p = tmp_path / "g.facets"
        p.write_text("n 2\n0 1 5\n")
        with pytest.raises(BadVertexId):
            read_facets(p)

    @given(mixed_complexes())
    @settings(max_examples=60, deadline=None)
    def test_writer_matches_facet_tuple_lines(self, K):
        # mixed widths merge into the order of K.facets
        out = io.StringIO()
        write_facets(K, out)
        assert out.getvalue() == f"n {K.n_vertices}\n" + "".join(
            " ".join(map(str, f)) + "\n" for f in K.facets)

    @given(facets_texts())
    @settings(max_examples=300, deadline=None)
    def test_parser_contract(self, tmp_path_factory, text):
        # the same complex as the per-line oracle, or the same refusal with
        # the same message, under the narrowed label grammar
        path = tmp_path_factory.mktemp("contract") / "k.facets"
        path.write_text(text, encoding="utf-8")
        got, want = _outcome(read_facets, path), _outcome(
            lambda p: read_facets_oracle(p, token=int64_token), path)
        assert got == want
        if isinstance(got[0], SimplicialComplex):
            assert got[0].facets == want[0].facets

    @pytest.mark.parametrize("token", ["1_0", "\u0663", str(2 ** 63)])
    def test_narrowed_labels_are_malformed_lines(self, tmp_path, token):
        # int() reads these; the int64 label grammar does not
        path = tmp_path / "n.facets"
        path.write_text(f"n 3\n0 1\n1 {token}\n", encoding="utf-8")
        assert isinstance(read_facets_oracle(path), SimplicialComplex)
        with pytest.raises(BadParams, match=f"malformed facet line '1 {token}'"):
            read_facets(path)

    @pytest.mark.parametrize("token", ["2.7", "3.0", "1e3"])
    def test_integer_via_float_fallback_is_refused(self, tmp_path, monkeypatch, token):
        # numpy 1.23 deprecated, and later releases dropped, a fallback in
        # np.loadtxt: an integer field it cannot parse is read as a float and
        # truncated, with one DeprecationWarning. Emulate that numpy here.
        real_loadtxt = np.loadtxt

        def loadtxt_with_fallback(lines, dtype, **kwargs):
            fixed = []
            for ln in lines:
                toks = ln.split()
                for k, tok in enumerate(toks):
                    try:
                        int64_token(tok)
                    except ValueError:
                        try:
                            warnings.warn("loadtxt(): Parsing an integer via a "
                                          "float is deprecated.", DeprecationWarning)
                        except DeprecationWarning as exc:
                            raise ValueError(f"could not convert {tok!r}") from exc
                        toks[k] = str(int(float(tok)))
                fixed.append(" ".join(toks))
            return real_loadtxt(fixed, dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_with_fallback)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert loadtxt_with_fallback([f"1 {token}"], np.int64).tolist() == [
                1, int(float(token))]
        path = tmp_path / "f.facets"
        path.write_text(f"n 9\n0 1 2\n1 2 {token}\n", encoding="utf-8")
        with pytest.raises(BadParams, match=f"malformed facet line '1 2 {token}'"):
            read_facets(path)

    @pytest.mark.parametrize("token", ["+3", "003", "-0", str(-2 ** 63)])
    def test_labels_int_reads_are_kept(self, tmp_path, token):
        path = tmp_path / "k.facets"
        path.write_text(f"n 9\n0 1 2\n1 2 {token}\n", encoding="utf-8")
        assert _outcome(read_facets, path) == _outcome(read_facets_oracle, path)


def _outcome(read, path):
    """The complex read, or the refusal's type and message."""
    try:
        return read(path), None
    except QComplexError as exc:
        return type(exc), str(exc)

