import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcomplex import (
    betti_profile,
    delta_sphere,
    random_pure2,
    read_facets,
    rhombic,
    simplex_skeleton,
    spectral_radius,
    tent_plus_common_edge,
    tent_plus_faces,
    tented,
    write_facets,
)
from qcomplex.errors import (
    BadParams,
    BudgetExhausted,
    DuplicateFace,
    FaceContainsApex,
)
from qcomplex import families
from qcomplex.families import make, subset_rows

from conftest import is_isomorphic


class TestTented:
    @pytest.mark.parametrize("n", [4, 6, 12, 30])
    def test_facet_count(self, n):
        K = tented(n, 2)
        assert len(K.facets) == math.comb(n - 1, 2)
        assert K.facets[0] == (0, 1, 2)
        assert all(f[0] == 0 for f in K.facets)

    def test_minimal_case_is_single_triangle(self):
        assert tented(3, 2).facets == ((0, 1, 2),)

    def test_spectral_value(self):
        assert spectral_radius(tented(6, 2), 1).value == pytest.approx(9.0)

    def test_higher_rank(self):
        K = tented(6, 3)
        assert len(K.facets) == math.comb(5, 3)
        assert K.dim == 3

    def test_params(self):
        with pytest.raises(BadParams):
            tented(2, 2)


class TestSpheres:
    def test_delta_sphere_counts(self):
        K = delta_sphere(2)
        assert K.n_vertices == 4 and len(K.facets) == 4

    def test_delta_sphere_bettis(self):
        for r in (1, 2, 3):
            betti = betti_profile(delta_sphere(r)).betti
            assert betti[r] == 1
            assert all(betti[i] == 0 for i in range(1, r))
            assert betti[0] == 1

    def test_delta_sphere_dim_one_is_cycle(self):
        K = delta_sphere(1)
        assert K.facets == ((0, 1), (0, 2), (1, 2))
        assert betti_profile(K).betti == (1, 1)

    def test_rhombic_counts(self):
        K = rhombic(2)
        assert K.n_vertices == 5 and len(K.facets) == 6

    def test_rhombic_bettis(self):
        for r in (1, 2, 3):
            K = rhombic(r)
            assert len(K.facets) == 2 * (r + 1)
            betti = betti_profile(K).betti
            assert betti[r] == 1
            assert all(betti[i] == 0 for i in range(1, r))

    def test_simplex_skeleton(self):
        K = simplex_skeleton(5, 2)
        assert len(K.facets) == math.comb(5, 3)


class TestTentPlusCommonEdge:
    def test_counts_and_betti_n6(self):
        K1 = tent_plus_common_edge(6, 1)
        assert len(K1.facets) == 11
        assert betti_profile(K1).betti == (1, 0, 1)
        K2 = tent_plus_common_edge(6, 2)
        assert len(K2.facets) == math.comb(5, 2) + 2 == 12
        assert betti_profile(K2).betti == (1, 0, 2)

    @pytest.mark.parametrize("n", [5, 10, 20, 30])
    def test_facet_count_range(self, n):
        for t in (1, n - 3):
            K = tent_plus_common_edge(n, t)
            assert len(K.facets) == math.comb(n - 1, 2) + t
            assert betti_profile(K).betti == (1, 0, t)

    def test_t_out_of_range(self):
        with pytest.raises(BadParams):
            tent_plus_common_edge(6, 4)  # t = n - 2
        with pytest.raises(BadParams):
            tent_plus_common_edge(6, 0)


class TestTentPlusFaces:
    def test_single_face_matches_common_edge_family(self):
        K1 = tent_plus_faces(6, [(1, 2, 3)])
        assert is_isomorphic(K1, tent_plus_common_edge(6, 1))

    def test_disjoint_pair_differs_from_common_edge(self):
        K = tent_plus_faces(7, [(1, 2, 3), (4, 5, 6)])
        assert betti_profile(K).betti == (1, 0, 2)
        assert not is_isomorphic(K, tent_plus_common_edge(7, 2))

    def test_apex_rejected(self):
        with pytest.raises(FaceContainsApex):
            tent_plus_faces(6, [(0, 1, 2)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateFace):
            tent_plus_faces(6, [(1, 2, 3), (3, 2, 1)])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_betti_numbers_without_a_recount(self, data):
        # the generator counts on beta = (1, 0, k) for k added faces; the
        # exact profile is the oracle
        n = data.draw(st.integers(4, 9))
        pool = list(combinations(range(1, n), 3))
        picks = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                   max_size=len(pool)))
        added = [data.draw(st.permutations(f)) for f in picks]
        K = tent_plus_faces(n, added)
        assert betti_profile(K).betti == (1, 0, len(added))


class TestRandomPure2:
    def test_reproducible(self):
        K1 = random_pure2(6, seed=42)
        K2 = random_pure2(6, seed=42)
        assert K1 == K2

    def test_golden_facets(self):
        # frozen regeneration check: the seeded stream must stay stable
        K = random_pure2(5, seed=7)
        assert K.facets == ((0, 2, 3), (0, 2, 4), (1, 2, 3), (2, 3, 4))
        assert K.is_pure() and K.dim == 2

    def test_target_betti(self):
        K = random_pure2(5, target_t=0, seed=3)
        assert betti_profile(K).betti[2] == 0

    def test_range_bound(self):
        with pytest.raises(BadParams):
            random_pure2(13)

    @pytest.mark.parametrize("target_t", [1.5, -1, "1"])
    def test_bad_target_refused_before_sampling(self, target_t, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before refusing target_t")
        monkeypatch.setattr(families, "from_facets", no_sampling)
        with pytest.raises(BadParams, match="target_t"):
            random_pure2(12, target_t=target_t)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(families, "MAX_ATTEMPTS", 5)
        with pytest.raises(BudgetExhausted):
            random_pure2(5, target_t=50, seed=0)


class TestSubsetRows:
    @pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (5, 5), (6, 3), (9, 4),
                                     (30, 2)])
    def test_matches_combinations(self, n, k):
        rows = subset_rows(n, k)
        assert rows.dtype.kind == "i" and rows.shape == (math.comb(n, k), k)
        assert list(map(tuple, rows.tolist())) == list(combinations(range(n), k))

    @pytest.mark.parametrize("n,r", [(4, 1), (7, 2), (8, 3)])
    def test_families_match_tuple_lists(self, n, r):
        assert simplex_skeleton(n, r).facets == tuple(combinations(range(n), r + 1))
        assert tented(n, r).facets == tuple(
            (0,) + rest for rest in combinations(range(1, n), r))
        if r == 2:
            assert tent_plus_common_edge(n, 2).facets == tuple(sorted(
                tented(n, 2).facets + ((1, 2, 3), (1, 2, 4))))


class TestRoundTrip:
    @pytest.mark.parametrize("K", [
        tented(7, 2),
        delta_sphere(2),
        rhombic(3),
        tent_plus_common_edge(8, 2),
    ], ids=["tented", "delta", "rhombic", "tpce"])
    def test_families_round_trip_bytes(self, K, tmp_path):
        p1 = tmp_path / "a.facets"
        p2 = tmp_path / "b.facets"
        write_facets(K, p1)
        L = read_facets(p1)
        assert L == K and L.is_pure()
        write_facets(L, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestMake:
    def test_dispatch(self):
        assert make("tented", n=5) == tented(5, 2)
        assert make("delta_sphere", r=2) == delta_sphere(2)
        assert make("random_pure2", n=5, seed=1) == random_pure2(5, seed=1)

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            make("torus", n=5)

    def test_missing_params(self):
        with pytest.raises(BadParams):
            make("tented")


#: Per family: parameters that build it, and every parameter it reads.
MAKE_ARGS = {"simplex_skeleton": ({"n": 5, "r": 2}, {"n", "r"}),
             "tented": ({"n": 5}, {"n", "r"}),
             "tent_plus_common_edge": ({"n": 6, "t": 1}, {"n", "t"}),
             "tent_plus_faces": ({"n": 6, "added": [(1, 2, 3)]}, {"n", "added"}),
             "delta_sphere": ({"r": 2}, {"r"}),
             "rhombic": ({"r": 2}, {"r"}),
             "random_pure2": ({"n": 5}, {"n", "t"})}
EXTRA = {"n": 5, "r": 2, "t": 1, "added": [(1, 2, 4)]}


@pytest.mark.parametrize("family,param", [
    pytest.param(family, param, id=f"{family} {param}")
    for family in MAKE_ARGS for param in EXTRA])
def test_make_refuses_a_parameter_the_family_does_not_read(family, param):
    # `gen tented --n 5 --t 3` printed tented(5, 2), the --t unread
    base, reads = MAKE_ARGS[family]
    args = {**base, param: EXTRA[param]}
    if param in reads:
        assert make(family, **args).dim >= 1
    else:
        with pytest.raises(BadParams, match=f"{family} does not read {param}"):
            make(family, **args)
