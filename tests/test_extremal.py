import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from qcomplex import (
    betti_profile,
    canonical_form,
    detect_apex,
    enumerate_pure2,
    facet_bound,
    from_facets,
    max_facets_search,
    max_spectral_search,
    perron_profile,
    proof_inspector,
    spectral_bound,
    asymptotic_check,
    tent_plus_common_edge,
    tent_plus_faces,
    tented,
)
from qcomplex import spectra
from qcomplex.errors import (
    BadParams, NoApex, NotPure, PrecisionInsufficient, TooLarge)
from qcomplex.extremal import search_betti2, _tables, _triangle_space


class TestBounds:
    def test_facet_bound_values(self):
        assert facet_bound(5, 2, 1) == 7
        assert facet_bound(6, 2, 2) == 12
        assert facet_bound(9, 2, 0) == math.comb(8, 2)
        assert facet_bound(10, 3, 0) == math.comb(9, 3)

    def test_spectral_bound_values(self):
        assert spectral_bound(6, 2, 2) == 11.0
        assert spectral_bound(5, 2, 0) == 7.0
        assert spectral_bound(9, 3, 1) == 9 * 3 - 9 + 2

    def test_guards(self):
        with pytest.raises(BadParams):
            facet_bound(2, 2, 0)
        with pytest.raises(BadParams):
            spectral_bound(5, 2, -1)


def brute_force_covering_count(n):
    """Oracle: covering triangle subsets by direct subset iteration."""
    triangles = list(combinations(range(n), 3))
    edges = list(combinations(range(n), 2))
    count = 0
    for mask in range(1, 1 << len(triangles)):
        chosen = [triangles[k] for k in range(len(triangles)) if mask >> k & 1]
        covered = {e for t in chosen for e in combinations(t, 2)}
        if len(covered) == len(edges):
            count += 1
    return count


class TestEnumeration:
    def test_n4_five_complexes(self):
        got = list(enumerate_pure2(4))
        assert len(got) == 5 == brute_force_covering_count(4)
        sizes = sorted(len(K.facets) for K in got)
        assert sizes == [3, 3, 3, 3, 4]

    def test_n5_golden_count(self):
        got = sum(1 for _ in enumerate_pure2(5))
        assert got == 388  # frozen from the brute-force oracle
        assert got == brute_force_covering_count(5)

    def test_unrestricted_counts_all_nonempty_subsets(self):
        got = sum(1 for _ in enumerate_pure2(4, full_skeleton=False))
        assert got == 2 ** 4 - 1

    def test_too_large(self):
        with pytest.raises(TooLarge):
            next(enumerate_pure2(7))
        with pytest.raises(TooLarge):
            next(enumerate_pure2(6, full_skeleton=False))
        with pytest.raises(TooLarge):  # refused before any triangle table
            next(enumerate_pure2(10))

    def test_search_betti_matches_exact_profile(self):
        # dual route: the modular search rank against Bareiss Betti numbers
        space = _triangle_space(5)
        _tables(5)
        rng = np.random.default_rng(5)
        for _ in range(40):
            mask = int(rng.integers(1, 1 << 10))
            faces = [space.triangles[k] for k in range(10) if mask >> k & 1]
            K = from_facets(5, faces, require_pure=True)
            assert search_betti2(5, mask) == betti_profile(K).betti[2]


class TestTriangleSpace:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_combinations(self, n):
        # oracle: edge and triangle lists built directly, signs (-1)^j on
        # the edge that omits the j-th vertex
        edges = list(combinations(range(n), 2))
        triangles = list(combinations(range(n), 3))
        signless = np.zeros((len(edges), len(triangles)))
        cols, masks = [], []
        for k, t in enumerate(triangles):
            col = [0] * len(edges)
            mask = 0
            for j in range(3):
                e = edges.index(t[:j] + t[j + 1:])
                col[e] = (-1) ** j % 2_147_483_647
                mask |= 1 << e
                signless[e, k] = 1.0
            cols.append(tuple(col))
            masks.append(mask)
        space = _triangle_space(n)
        assert space.triangles == tuple(triangles)
        assert space.edge_masks == tuple(masks)
        assert space.signed_cols == tuple(cols)
        assert all(type(x) is int for col in space.signed_cols for x in col)
        assert space.signless.dtype == np.float64
        assert np.array_equal(space.signless, signless)


class TestMaxFacetsSearch:
    @pytest.mark.parametrize("t,expected", [(0, 6), (1, 7), (2, 8)])
    def test_n5(self, t, expected):
        rep = max_facets_search(5, t)
        assert rep.max_facets == expected == facet_bound(5, 2, t)
        assert rep.tent_attains_max
        assert not rep.bound_violations

    def test_n6_t0(self):
        rep = max_facets_search(6, 0)
        assert rep.max_facets == 10
        assert canonical_form(tented(6, 2)) in rep.facet_witnesses

    def test_witnesses_deduplicated(self):
        rep = max_facets_search(5, 0)
        # three isomorphism classes share the maximum; tent is one of them
        assert len(rep.facet_witnesses) == 3
        assert canonical_form(tented(5, 2)) in rep.facet_witnesses
        assert rep.enumerated_count == 207  # frozen from the rank table

    def test_facet_maximizers_are_connected_and_hole_free_below_top(self):
        # every facet maximizer has betti (1, 0, t)
        for t in (0, 1, 2):
            rep = max_facets_search(5, t)
            for facets in rep.facet_witnesses:
                K = from_facets(5, facets, require_pure=True)
                assert betti_profile(K).betti == (1, 0, t)

    def test_unrestricted_search_agrees(self):
        # MaxFace justification: dropping the skeleton restriction at n=5
        # does not find a better complex
        for t in (0, 1):
            full = max_facets_search(5, t)
            free = max_facets_search(5, t, full_skeleton=False)
            assert free.max_facets == full.max_facets

    def test_t_range_guard(self):
        with pytest.raises(BadParams):
            max_facets_search(5, 3)


class TestMaxSpectralSearch:
    def test_n5_t0_unique_tent(self):
        rep = max_spectral_search(5, 0)
        assert rep.max_q1 == pytest.approx(7.0, abs=1e-9)
        assert rep.spectral_witnesses == (canonical_form(tented(5, 2)),)
        assert rep.tent_attains_max
        assert not rep.bound_violations

    def test_n5_t1_bound_holds(self):
        rep = max_spectral_search(5, 1)
        assert rep.max_q1 <= 8.0 + 1e-7
        assert not rep.bound_violations
        assert rep.enumerated_count == 125  # frozen from the rank table

    def test_n6_t0_unique_tent(self):
        rep = max_spectral_search(6, 0)
        assert rep.max_q1 == pytest.approx(9.0, abs=1e-9)
        assert rep.spectral_witnesses == (canonical_form(tented(6, 2)),)

    def test_positive_betti_maximizer_strictly_above_tent(self):
        # with a hole present the maximum strictly exceeds 2n - 3
        for n, t in ((5, 1), (5, 2)):
            rep = max_spectral_search(n, t)
            assert rep.max_q1 > 2 * n - 3

    def test_workers_deterministic(self):
        seq = max_spectral_search(5, 1, workers=1)
        par = max_spectral_search(5, 1, workers=2)
        assert seq == par
        seq_f = max_facets_search(5, 2, workers=1)
        par_f = max_facets_search(5, 2, workers=2)
        assert seq_f == par_f


class TestDetectApex:
    def test_tent_families(self):
        for K in (tented(6, 2), tent_plus_common_edge(6, 2),
                  tent_plus_faces(7, [(1, 2, 3), (4, 5, 6)])):
            assert detect_apex(K) == (0, False)

    def test_disjoint_triangles_none(self, two_triangles):
        assert detect_apex(two_triangles) == (None, False)

    def test_delta4_multiple(self, delta4):
        got = detect_apex(delta4)
        assert got.vertex == 0 and got.multiple

    def test_not_pure(self):
        K = from_facets(4, [(0, 1, 2), (2, 3)])
        with pytest.raises(NotPure):
            detect_apex(K)


class TestProofInspector:
    def test_tent_plus_one_n6(self):
        rep = proof_inspector(tent_plus_common_edge(6, 1))
        assert rep.betti_top == 1
        assert rep.apex == 0
        assert rep.peak_face == (0, 1, 2)
        assert rep.outside_by_count[3] == 1  # vertex 3 closes all three faces
        assert rep.n_weak_outside == 0
        assert rep.n_apex_missing == 1
        assert rep.shared_edge_missing == ((1, 2, 3),)
        assert rep.verdicts["apex_missing_bound"]

    def test_partition_sums(self):
        for K in (tent_plus_common_edge(7, 2), tent_plus_common_edge(9, 3)):
            rep = proof_inspector(K)
            counts = rep.outside_by_count
            assert rep.n_weak_outside + counts[2] + counts[3] == rep.n_outside
            assert sum(rep.two_class_split) == counts[2]
            split = rep.two_class_split
            assert split[0] >= split[1] >= split[2]
            assert rep.n_outside == K.n_vertices - 3

    def test_tent_family_missing_verdict(self):
        for n, t in ((8, 2), (10, 4)):
            rep = proof_inspector(tent_plus_common_edge(n, t))
            assert rep.n_apex_missing == t
            assert rep.verdicts["apex_missing_bound"]  # t < 5t^2 + 10t

    def test_delta4_all_three_neighbors(self, delta4):
        rep = proof_inspector(delta4)
        assert rep.n_outside == 1
        assert rep.outside_by_count[3] == 1
        assert rep.down_pair_count == 9  # 3 down neighbors with 3 each

    def test_disconnected_rejected(self, two_triangles):
        from qcomplex.errors import NotPathConnected
        with pytest.raises(NotPathConnected):
            proof_inspector(two_triangles)


class TestPerronProfile:
    def test_t1_n30_classes(self):
        prof = perron_profile(tent_plus_common_edge(30, 1))
        dev = prof.max_rel_dev
        assert dev["apex_edges"] < 0.01
        assert dev["non_apex_edges"] < 0.05
        assert dev["missing_apex_faces"] < 0.05
        assert len(prof.missing_apex_faces) == 1

    def test_deviation_shrinks_with_n(self):
        small = perron_profile(tent_plus_common_edge(20, 2))
        large = perron_profile(tent_plus_common_edge(60, 2))
        assert large.overall_max_rel_dev < small.overall_max_rel_dev

    def test_no_apex(self, delta4):
        K = from_facets(22, [(a, b, c)
                             for a, b, c in combinations(range(5), 3)]
                        + [(5 + k, 10, 11) for k in range(3)])
        with pytest.raises((NoApex, BadParams)):
            perron_profile(K)

    def test_small_n_rejected(self):
        with pytest.raises(BadParams):
            perron_profile(tent_plus_common_edge(10, 1))


class TestAsymptoticCheck:
    def test_small_run_t1(self):
        rows = asymptotic_check(1, [40, 80])
        assert [r.n for r in rows] == [40, 80]
        for r in rows:
            assert r.excess > 0          # strict lower bound 2n-3 < q1
            assert r.error_bound < 0.05 * 9 / r.n ** 3
        assert abs(rows[1].g - 1) < abs(rows[0].g - 1)

    def test_t_guard(self):
        with pytest.raises(BadParams):
            asymptotic_check(3, [60])

    def test_ordering_guard(self):
        with pytest.raises(BadParams):
            asymptotic_check(1, [80, 40])

    def test_n_cap(self):
        with pytest.raises(BadParams):
            asymptotic_check(1, [300])

    def test_degenerate_top_refused(self, monkeypatch):
        # a numerically multiple top eigenvalue leaves q1 unidentified
        solve = spectra.spectral_radius
        monkeypatch.setattr(spectra, "spectral_radius", lambda *a, **kw:
                            dataclasses.replace(solve(*a, **kw), degenerate=True))
        with pytest.raises(PrecisionInsufficient):
            asymptotic_check(1, [40])


def test_telescoping_binomial_identity():
    for n in range(2, 31):
        for r in range(1, n):
            total = sum((-1) ** (i + 1) * math.comb(n, i)
                        for i in range(1, r + 1))
            total += (-1) ** (r + 2) * math.comb(n - 1, r)
            assert total == 1
