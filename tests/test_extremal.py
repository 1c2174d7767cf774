import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings

from qcomplex import (
    betti_profile,
    canonical_form,
    detect_apex,
    facet_bound,
    from_facets,
    max_facets_search,
    max_spectral_search,
    perron_profile,
    perron_vector,
    proof_inspector,
    simplex_skeleton,
    spectral_bound,
    asymptotic_check,
    tent_plus_common_edge,
    tent_plus_faces,
    tented,
)
from qcomplex import chains, extremal, homology, spectra
from qcomplex.errors import (
    BadParams, NoApex, NotPure, PrecisionInsufficient, TooLarge)
from qcomplex.chains import boundary_sums, is_path_connected
from qcomplex.extremal import (
    EPS_MAXIMIZER, RESOLVE_MARGIN, InspectorReport, _canonical_forms, _domain,
    _q_values, _tables)

from conftest import (down_neighbors, down_neighbors_via_vertex, face_index,
                      faces, has_face, pure2_complexes)


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


def _mask_faces(n, mask):
    """The triangles of a mask, as tuples: bit k is row k of the table."""
    triangles = _tables(n).triangles.tolist()
    return [tuple(f) for k, f in enumerate(triangles) if mask >> k & 1]


def domain_masks(n, full_skeleton):
    """The masks of the search domain, ascending."""
    tables = _tables(n)
    inside = tables.cover if full_skeleton else tables.popcount > 0
    return np.flatnonzero(inside[tables.orbit])


class TestEnumeration:
    def test_n4_five_complexes(self):
        got = [from_facets(4, _mask_faces(4, mask), require_pure=True)
               for mask in domain_masks(4, True).tolist()]
        assert len(got) == 5 == brute_force_covering_count(4)
        sizes = sorted(len(K.facets) for K in got)
        assert sizes == [3, 3, 3, 3, 4]

    def test_n5_golden_count(self):
        got = domain_masks(5, True).size
        assert got == 388  # frozen from the brute-force oracle
        assert got == brute_force_covering_count(5)

    def test_unrestricted_counts_all_nonempty_subsets(self):
        got = domain_masks(4, False).size
        assert got == 2 ** 4 - 1

    def test_too_large(self, monkeypatch):
        def build(n):  # refused before any triangle table
            raise AssertionError(f"tables built for n={n}")
        monkeypatch.setattr(extremal, "_tables", build)
        for n, full_skeleton in ((7, True), (7, False), (10, True)):
            with pytest.raises(TooLarge):
                _domain(n, 1, full_skeleton)
            for search in (max_facets_search, max_spectral_search):
                with pytest.raises(TooLarge):
                    search(n, 1, full_skeleton=full_skeleton)

    def test_search_betti_matches_exact_profile(self):
        # dual route: the orbit rank table against coreduced Betti numbers
        tables = _tables(5)
        rng = np.random.default_rng(5)
        for _ in range(40):
            mask = int(rng.integers(1, 1 << 10))
            K = from_facets(5, _mask_faces(5, mask), require_pure=True)
            orbit = tables.orbit[mask]
            assert (tables.popcount[orbit] - tables.rank[orbit]
                    == betti_profile(K).betti[2])


def oracle_boundary(n):
    """Triangles and the signed boundary built directly, signs (-1)^j on
    the edge that omits the j-th vertex."""
    edges = list(combinations(range(n), 2))
    triangles = list(combinations(range(n), 3))
    signed = np.zeros((len(edges), len(triangles)), dtype=np.int64)
    for k, t in enumerate(triangles):
        for j in range(3):
            signed[edges.index(t[:j] + t[j + 1:]), k] = (-1) ** j
    return triangles, signed


def dfs_rank_table(n):
    """Oracle: the depth-first rank sweep the search ran before its batched
    kernel, an incremental column echelon mod 2^31 - 1 on Python ints."""
    p = 2_147_483_647
    _, signed = oracle_boundary(n)
    cols = [[int(x) % p for x in col] for col in signed.T]
    m = len(cols)
    echelon = []
    out = np.empty(1 << m, dtype=np.int8)

    def reduce_column(col):
        v = list(col)
        for piv, evec in echelon:
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, evec)]
        piv = next((k for k, a in enumerate(v) if a), -1)
        if piv < 0:
            return None
        inv = pow(v[piv], p - 2, p)
        return piv, [(a * inv) % p for a in v]

    def sweep(idx, mask, rank):
        if idx == m:
            out[mask] = rank
            return
        sweep(idx + 1, mask, rank)
        entry = reduce_column(cols[idx])
        if entry is None:
            sweep(idx + 1, mask | 1 << idx, rank)
        else:
            echelon.append(entry)
            sweep(idx + 1, mask | 1 << idx, rank + 1)
            echelon.pop()

    sweep(0, 0, 0)
    return out


def per_mask_q(n, mask):
    """Oracle: one dense solve of B B^T on the mask's signless columns."""
    signless = _tables(n).signless
    B = signless[:, [k for k in range(signless.shape[1]) if mask >> k & 1]]
    return np.linalg.eigvalsh(B @ B.T)[-1]


def canonical_oracle(n, masks):
    return tuple(sorted({
        canonical_form(from_facets(n, _mask_faces(n, int(mask)),
                                   require_pure=True))
        for mask in masks}))


class TestTriangleSpace:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_combinations(self, n):
        triangles, signed = oracle_boundary(n)
        tables = _tables(n)
        assert tables.triangles.tolist() == [list(f) for f in triangles]
        assert tables.signless.dtype == np.float64
        assert np.array_equal(tables.signless, np.abs(signed))
        # the rank rules read the signed boundary of the same skeleton
        dense = chains.dense_boundary(simplex_skeleton(n, 2), 2)
        assert dense.dtype == np.int64 and np.array_equal(dense, signed)

    def test_tables_are_read_only(self):
        # a write into a cached table would change every later search
        before = max_spectral_search(5, 1)
        tables = _tables(5)
        arrays = [a for field in tables
                  for a in (field if isinstance(field, tuple) else (field,))]
        assert len(arrays) == len(tables) - 1 + len(tables.blocks)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] += 1
        assert max_spectral_search(5, 1) == before


def oracle_orbit_images(n, perm):
    """Image of every mask under a vertex permutation, from the
    lexicographic triangle list."""
    triangles = list(combinations(range(n), 3))
    images = np.zeros(1 << len(triangles), dtype=np.int64)
    for k, t in enumerate(triangles):
        half = 1 << k
        target = triangles.index(tuple(sorted(perm[v] for v in t)))
        images[half:2 * half] = images[:half] | 1 << target
    return images


class TestOrbits:
    @pytest.mark.parametrize("n,count", [(3, 2), (4, 5), (5, 34), (6, 2136)])
    def test_orbit_counts(self, n, count):
        # 3-uniform hypergraphs on n unlabeled vertices (OEIS A000665)
        tables = _tables(n)
        assert len(tables.reps) == tables.orbit.max() + 1 == count
        assert tables.orbit.dtype == np.int32 and tables.orbit.min() == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_ids_invariant_under_generators(self, n):
        # a transposition and an n-cycle generate every permutation
        orbit = _tables(n).orbit
        transposition = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        for perm in (transposition, cycle):
            assert np.array_equal(orbit[oracle_orbit_images(n, perm)], orbit)

    def test_image_tables_match_weight_sums(self):
        # row r of block table b is the image of r's bits, moved up by 7b,
        # under every permutation, as the sum of the permuted triangles'
        # weights
        triangles = list(combinations(range(6), 3))
        weights = np.array([[1 << triangles.index(tuple(sorted(
            perm[v] for v in t))) for t in triangles]
            for perm in permutations(range(6))], dtype=np.int64)
        blocks = _tables(6).blocks
        assert [table.shape for table in blocks] == [(128, 720), (128, 720),
                                                      (64, 720)]
        for b, table in enumerate(blocks):
            assert table.dtype == np.int64
            block = weights[:, 7 * b:7 * b + 7]
            for r in range(len(table)):
                bits = [j for j in range(7) if r >> j & 1]
                assert np.array_equal(table[r], block[:, bits].sum(axis=1))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_representative_is_least_member(self, n):
        tables = _tables(n)
        assert np.array_equal(tables.orbit[tables.reps],
                              np.arange(len(tables.reps)))
        assert (tables.reps[tables.orbit] <= np.arange(tables.orbit.size)).all()

    @pytest.mark.parametrize("n,sample", [(5, None), (6, 3000)])
    def test_members_solve_within_margin(self, n, sample):
        tables = _tables(n)
        masks = domain_masks(n, True)
        orbits = tables.orbit[masks]
        hits = masks[tables.popcount[orbits] - tables.rank[orbits] <= 2]
        if sample is not None:
            hits = np.random.default_rng(n).choice(hits, sample, replace=False)
        deviation = np.abs(_q_values(n, hits)
                           - _q_values(n, tables.reps[tables.orbit[hits]]))
        assert deviation.max() < RESOLVE_MARGIN / 10


def in_orbits(n, orbits):
    """Oracle: whether each of the 2^m masks lies in one of the orbits."""
    tables = _tables(n)
    chosen = np.zeros(len(tables.reps), dtype=bool)
    chosen[orbits] = True
    return chosen[tables.orbit]


def domains(ns):
    return [(n, t, full_skeleton) for n in ns for t in range(n - 2)
            for full_skeleton in (True, False)]


class TestImages:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stabiliser_counts_match_orbit_sizes(self, n):
        tables = _tables(n)
        assert np.array_equal(math.factorial(n) // tables.stabiliser,
                              np.bincount(tables.orbit))

    @pytest.mark.parametrize("n,t,full_skeleton", domains([3, 4, 5, 6]))
    def test_enumerated_count_matches_mask_sweep(self, n, t, full_skeleton):
        orbits = _domain(n, t, full_skeleton)
        want = int(np.count_nonzero(in_orbits(n, orbits)))
        assert extremal._enumerated_count(n, orbits) == want
        assert (max_facets_search(n, t, full_skeleton).enumerated_count
                == want)

    def test_unrestricted_n6_counts_match_mask_sweep(self):
        got = [int(np.count_nonzero(in_orbits(6, _domain(6, t, False))))
               for t in (0, 1, 2)]
        assert got == [358_884, 313_650, 199_645]

    @pytest.mark.parametrize("n,t,full_skeleton", domains([5, 6]))
    def test_spectral_members_match_mask_sweep(self, n, t, full_skeleton,
                                               monkeypatch):
        # the second batch of a spectral search holds the members of the
        # orbits whose representatives came near the maximum or the bound
        calls = []
        solve = extremal._q_values
        monkeypatch.setattr(extremal, "_q_values", lambda n, masks: calls.append(
            (masks, solve(n, masks))) or calls[-1][1])
        max_spectral_search(n, t, full_skeleton=full_skeleton)
        (reps, rep_qs), (members, _) = calls
        tables = _tables(n)
        orbits = tables.orbit[reps]
        bound = spectral_bound(n, 2, t)
        near = orbits[(rep_qs >= rep_qs.max() - EPS_MAXIMIZER - RESOLVE_MARGIN)
                      | (rep_qs > bound + extremal.BOUND_SLACK
                         - RESOLVE_MARGIN)]
        assert np.array_equal(members, np.flatnonzero(in_orbits(n, near)))

    def test_images_are_the_orbit(self):
        tables = _tables(6)
        rng = np.random.default_rng(20)
        masks = rng.choice(1 << 20, 50, replace=False)
        images = extremal._images(6, masks)
        assert images.shape == (50, 720) and images.dtype == np.int64
        for mask, row in zip(masks.tolist(), images):
            assert np.array_equal(np.unique(row), np.flatnonzero(
                tables.orbit == tables.orbit[mask]))


def test_searches_leave_no_blas_thread_spinning():
    # a float product on a BLAS with worker threads leaves them spinning
    # after it returns; the search builds its tables in integers. A fresh
    # process, since an earlier BLAS call here could leave one spinning
    code = """if True:
        import resource, time
        from qcomplex import max_facets_search, max_spectral_search
        max_facets_search(6, 1), max_spectral_search(6, 1)
        def cpu():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime
        before = cpu()
        time.sleep(0.2)
        print(cpu() - before)
    """
    package_root = os.path.dirname(os.path.dirname(extremal.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout) < 0.02


class TestRankTable:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_mask_matches_dfs_oracle(self, n):
        tables = _tables(n)
        assert np.array_equal(tables.rank[tables.orbit], dfs_rank_table(n))

    def test_n6_sample_matches_exact_betti(self):
        tables = _tables(6)
        rng = np.random.default_rng(6)
        for mask in rng.choice(np.arange(1, 1 << 20), 2000, replace=False):
            K = from_facets(6, _mask_faces(6, int(mask)),
                            require_pure=True)
            orbit = tables.orbit[mask]
            assert (tables.popcount[orbit] - tables.rank[orbit]
                    == betti_profile(K).betti[2])

    @pytest.mark.parametrize("n,eliminations", [(3, 0), (4, 0), (5, 1),
                                                 (6, 22)])
    def test_free_triangle_and_tetrahedron_rules_leave_few_eliminations(
            self, n, eliminations, monkeypatch):
        # the nonempty representatives with no free triangle and no
        # tetrahedron among their faces; the empty mask has rank 0
        calls = []
        rank = homology.integer_rank
        monkeypatch.setattr(homology, "integer_rank",
                            lambda A: calls.append(A.shape) or rank(A))
        _tables.cache_clear()
        tables = _tables(n)
        assert len(calls) == eliminations
        assert tables.rank[0] == 0 and tables.reps[0] == 0


class TestQValues:
    @pytest.mark.parametrize("n,sample", [(5, None), (6, 1500)])
    def test_bitwise_equal_to_per_mask_solve(self, n, sample):
        every = np.arange(1 << len(_tables(n).triangles))
        masks = every if sample is None else np.random.default_rng(
            n).choice(every, sample, replace=False)
        want = np.array([per_mask_q(n, int(mask)) for mask in masks])
        assert _q_values(n, masks).tobytes() == want.tobytes()

    def test_search_solves_at_most_1024_masks_at_once(self, monkeypatch):
        # _q_values solves all its masks in one batch; over the spectral
        # searches at n = 5 and 6 the largest batch is 704 masks
        sizes = []
        solve = extremal._q_values
        monkeypatch.setattr(extremal, "_q_values", lambda n, masks: sizes.append(
            masks.size) or solve(n, masks))
        for n in (5, 6):
            for t in (0, 1, 2):
                for full_skeleton in (True, False):
                    max_spectral_search(n, t, full_skeleton=full_skeleton)
        assert len(sizes) == 24
        assert max(sizes) <= 1024


class TestDedup:
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_n5_witness_sets_match_canonical_form(self, t):
        tables = _tables(5)
        masks = domain_masks(5, True)
        popcount = tables.popcount[tables.orbit]
        hits = masks[popcount[masks] - tables.rank[tables.orbit[masks]] == t]
        qs = _q_values(5, hits)
        for witnesses in (hits[popcount[hits] == popcount[hits].max()],
                          hits[qs >= qs.max() - EPS_MAXIMIZER]):
            assert (_canonical_forms(5, np.unique(tables.orbit[witnesses]))
                    == canonical_oracle(5, witnesses))

    def test_n6_sample_of_classes(self):
        # covering masks use every vertex; masks of at most four
        # triangles leave some unused
        tables = _tables(6)
        popcount = tables.popcount[tables.orbit]
        rng = np.random.default_rng(66)
        for pool in (np.flatnonzero(tables.cover[tables.orbit]),
                     np.flatnonzero((popcount > 0) & (popcount <= 4))):
            masks = rng.choice(pool, 30, replace=False)
            assert (_canonical_forms(6, np.unique(tables.orbit[masks]))
                    == canonical_oracle(6, masks))

    @pytest.mark.parametrize("n,t", [(4, 0), (4, 1), (5, 0), (5, 1), (5, 2),
                                     (6, 0), (6, 1), (6, 2), (6, 3)])
    def test_tent_form_from_the_orbit_tables(self, n, t):
        # the tent plus t faces on {1, 2} is the lexicographic prefix of
        # C(n-1, 2) + t triangles
        tent = tented(n, 2) if t == 0 else tent_plus_common_edge(n, t)
        assert (_canonical_forms(n, [extremal._tent_orbit(n, t)])
                == (canonical_form(tent),))

    def test_tent_verdict_reads_the_witness_orbits(self, monkeypatch):
        # the tent is a witness at every n <= 6; an orbit of the domain
        # that is none stands in for it
        orbits = extremal._domain(5, 1, True)
        fewest = int(orbits[_tables(5).popcount[orbits].argmin()])
        monkeypatch.setattr(extremal, "_tent_orbit", lambda n, t: fewest)
        facets, spectral = max_facets_search(5, 1), max_spectral_search(5, 1)
        assert not facets.tent_attains_max and not spectral.tent_attains_max
        assert {"kind": "tent_not_witness", "t": 1} in facets.bound_violations


class TestSearchParamGuards:
    def test_non_integral_refused_before_tables(self, monkeypatch):
        def build(n):
            raise AssertionError(f"tables built for n={n}")
        monkeypatch.setattr(extremal, "_tables", build)
        calls = [(max_facets_search, (5, 1.5)), (max_facets_search, (5.0, 1)),
                 (max_spectral_search, (5, 1.5)),
                 (max_spectral_search, (5.0, 1)),
                 (_domain, (5.0, 1, True))]
        for fn, args in calls:
            with pytest.raises(BadParams):
                fn(*args)


def per_mask_search(n, t):
    """Oracle: the hits with beta_2 = t of the n-vertex domain and their top
    eigenvalues, each solved on its own."""
    tables = _tables(n)
    masks = domain_masks(n, True)
    orbits = tables.orbit[masks]
    hits = masks[tables.popcount[orbits] - tables.rank[orbits] == t]
    qs = np.array([per_mask_q(n, int(mask)) for mask in hits])
    return hits, qs


class TestOrbitResolve:
    @pytest.mark.parametrize("t", [0, 1, 2])
    @pytest.mark.parametrize("tol", [EPS_MAXIMIZER, 0.0, 0.5])
    def test_maximum_and_witnesses_match_per_mask_search(self, t, tol,
                                                         monkeypatch):
        monkeypatch.setattr(extremal, "EPS_MAXIMIZER", tol)
        hits, qs = per_mask_search(5, t)
        rep = max_spectral_search(5, t)
        assert rep.max_q1 == float(qs.max())
        assert rep.spectral_witnesses == canonical_oracle(
            5, hits[qs >= qs.max() - tol])

    def test_bound_violations_match_per_mask_search(self, monkeypatch):
        # a bound at the least eigenvalue puts hits outside the witness
        # window above it
        hits, qs = per_mask_search(5, 1)
        bound = float(qs.min())
        monkeypatch.setattr(extremal, "spectral_bound", lambda n, r, t: bound)
        want = [{"kind": "spectral_bound", "q1": float(q), "bound": bound,
                 "facets": [list(f) for f in _mask_faces(5, int(mask))]}
                for mask, q in zip(hits, qs)
                if q > bound + extremal.BOUND_SLACK]
        assert len(want) > 2 * (qs >= qs.max() - EPS_MAXIMIZER).sum()
        assert list(max_spectral_search(5, 1).bound_violations) == want


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


class TestUnrestrictedN6:
    @pytest.mark.parametrize("t,count", [(0, 358_884), (1, 313_650),
                                         (2, 199_645)])
    @pytest.mark.parametrize("search", [max_facets_search, max_spectral_search])
    def test_same_maximizers_as_full_skeleton(self, search, t, count):
        # over every set of triangles at n = 6 the maximum, its witnesses
        # and the tent verdict are those of the full-skeleton domain
        full, free = search(6, t), search(6, t, full_skeleton=False)
        assert free.enumerated_count == count
        assert free.enumerated_count > full.enumerated_count
        assert dataclasses.replace(
            free, restricted_to_full_skeleton=True,
            enumerated_count=full.enumerated_count) == full


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

    def test_cold_and_warm_cache_reports_equal(self):
        _tables.cache_clear()
        cold = max_spectral_search(5, 1), max_facets_search(5, 2)
        warm = max_spectral_search(5, 1), max_facets_search(5, 2)
        assert cold == warm


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

    @given(pure2_complexes(max_n=6, max_facets=20))
    @settings(max_examples=120, deadline=None)
    def test_matches_pair_scan(self, K):
        # oracle: an apex forms a face with every pair of the other vertices
        active = [v for (v,) in faces(K, 0)]
        found = [u for u in active if all(
            has_face(K, tuple(sorted((u, x, y))))
            for x, y in combinations([v for v in active if v != u], 2))]
        assert detect_apex(K) == ((found[0], len(found) > 1) if found
                                  else (None, False))


class TestProofInspector:
    def test_tent_plus_one_n6(self):
        rep = proof_inspector(tent_plus_common_edge(6, 1))
        assert rep.betti_top == 1
        assert rep.apex == 0
        assert rep.peak_face == (0, 1, 2)
        assert rep.outside_3 == 1  # vertex 3 closes all three faces
        assert rep.n_weak_outside == 0
        assert rep.n_apex_missing == 1
        assert rep.shared_edge_missing == ((1, 2, 3),)
        assert rep.verdicts["apex_missing_bound"]

    def test_partition_sums(self):
        for K in (tent_plus_common_edge(7, 2), tent_plus_common_edge(9, 3)):
            rep = proof_inspector(K)
            assert (rep.n_weak_outside + rep.outside_2 + rep.outside_3
                    == rep.n_outside)
            split = (rep.two_class_u, rep.two_class_v, rep.two_class_w)
            assert sum(split) == rep.outside_2
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
        assert rep.outside_3 == 1
        assert rep.down_pair_count == 9  # 3 down neighbors with 3 each

    def test_disconnected_rejected(self, two_triangles):
        from qcomplex.errors import NotPathConnected
        with pytest.raises(NotPathConnected):
            proof_inspector(two_triangles)


def inspector_recount(K):
    """Oracle: the inspector's report recounted face by face with the
    tuple oracles (`has_face`, `down_neighbors_via_vertex`, `down_neighbors`)
    around the least face of the near window."""
    t = betti_profile(K).betti[2]
    sums = boundary_sums(
        K, 1, perron_vector(K, 1, "max_boundary_sum_one").vector)
    top = float(sums.max())
    f0 = min(F for F, s in zip(faces(K, 2), sums)
             if s >= top - 1e-9 * (1.0 + abs(top)))
    outside = [v for (v,) in faces(K, 0) if v not in f0]
    by_count = {k: [] for k in range(4)}
    for x in outside:
        by_count[len(down_neighbors_via_vertex(K, f0, x))].append(x)
    sizes = tuple(len(by_count[k]) for k in range(4))
    split = {x: 0 for x in f0}
    for y in by_count[2]:
        split[next(x for x in f0
                   if not has_face(K, tuple(sorted(set(f0) - {x} | {y}))))] += 1
    apex = detect_apex(K).vertex
    if apex in f0:
        u, (v, w) = apex, sorted(set(f0) - {apex}, key=lambda x: (-split[x], x))
    else:
        u, v, w = sorted(f0, key=lambda x: (-split[x], x))
    base = u if apex is None else apex
    missing = [F for F in faces(K, 2) if base not in F]
    pairs = sum(len(down_neighbors(K, F1)) for F1 in down_neighbors(K, f0))
    a, weak, closing = len(outside), sizes[0] + sizes[1], sizes[3]
    upper = 4 * a * a - 2 * a * weak + closing * (closing + 2 * weak) + 4 * t
    verdicts = {"pair_count_lower": pairs > 4 * a * a - 6 * t,
                "pair_count_upper": pairs <= upper,
                "apex_missing_bound": len(missing) < 5 * t * t + 10 * t}
    if split[v] > 0:
        verdicts["pair_count_upper_refined"] = (
            pairs <= upper - 2 * (sizes[2] - 1))
    shared = tuple(F for F in missing if v in F and w in F)
    return InspectorReport(
        f0, t, apex, u, v, w, a, *sizes, weak, split[u], split[v], split[w],
        len(missing), len(shared), shared, pairs, verdicts)


class TestInspectorRecount:
    @given(pure2_complexes())
    @settings(max_examples=150, deadline=None)
    def test_random_complexes(self, K):
        assume(is_path_connected(K, 1))
        assert proof_inspector(K) == inspector_recount(K)

    @pytest.mark.parametrize("n,t", [(5, 1), (6, 2), (9, 3), (14, 1), (21, 2),
                                     (30, 5)])
    def test_tents(self, n, t):
        K = tent_plus_common_edge(n, t)
        assert proof_inspector(K) == inspector_recount(K)

    @pytest.mark.parametrize("added", [[(1, 2, 3), (4, 5, 6)],
                                       [(1, 2, 3), (1, 2, 4), (2, 3, 4)]])
    def test_tent_plus_faces(self, added):
        K = tent_plus_faces(12, added)
        assert proof_inspector(K) == inspector_recount(K)

    def test_delta4(self, delta4):
        assert proof_inspector(delta4) == inspector_recount(delta4)


def profile_recount(K):
    """Oracle: the Perron profile's (measured, predicted) lists in face
    order, recounted face by face with the tuple oracles (`faces`,
    `face_index`, `down_neighbors`)."""
    u, n = detect_apex(K).vertex, K.n_vertices
    f = perron_vector(K, 1, "max_boundary_sum_one").vector
    missing = [F for F in faces(K, 2) if u not in F]
    on_edge = Counter(e for F in missing for e in combinations(F, 2))
    groups = {"non_apex_edges": ([], []), "apex_edges": ([], []),
              "missing_apex_faces": ([], [])}
    for k, e in enumerate(faces(K, 1)):
        if u in e:
            m, p = groups["apex_edges"]
            p.append(0.5 - 1.0 / (4 * n))
        else:
            m, p = groups["non_apex_edges"]
            p.append(1.0 / (2 * n - 3) + 3.0 * on_edge[e] / (4.0 * n * n))
        m.append(float(f[k]))
    sums = boundary_sums(K, 1, f)
    m, p = groups["missing_apex_faces"]
    for F in missing:
        m.append(float(sums[face_index(K, F)]))
        p.append(3.0 / (2 * n - 3)
                 + 3.0 * len(down_neighbors(K, F)) / (4.0 * n * n))
    return len(missing), groups


class TestPerronProfile:
    @pytest.mark.parametrize("K", [
        tent_plus_common_edge(20, 1), tent_plus_common_edge(31, 2),
        tent_plus_common_edge(40, 3),
        tent_plus_faces(24, [(1, 2, 3), (1, 2, 4), (2, 3, 4), (5, 6, 7)])],
        ids=["tent20_1", "tent31_2", "tent40_3", "tent24_faces"])
    def test_matches_recount(self, K):
        prof = perron_profile(K)
        t, groups = profile_recount(K)
        assert (prof.n, prof.t) == (K.n_vertices, t)
        for name, want in groups.items():
            got = getattr(prof, name)
            assert all(a.dtype == np.float64 for a in got)
            assert [a.tolist() for a in got] == list(want)
            assert prof.max_rel_dev[name] == max(
                (abs(m - p) / abs(p) for m, p in zip(*want)), default=0.0)

    def test_t1_n30_classes(self):
        prof = perron_profile(tent_plus_common_edge(30, 1))
        dev = prof.max_rel_dev
        assert dev["apex_edges"] < 0.01
        assert dev["non_apex_edges"] < 0.05
        assert dev["missing_apex_faces"] < 0.05
        assert len(prof.missing_apex_faces[0]) == 1

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

    @pytest.mark.parametrize("seed", [-3, 1.5])
    def test_bad_seed_refused(self, seed, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the seed was checked")
        monkeypatch.setattr(spectra, "spectral_radius", solve)
        with pytest.raises(BadParams):
            asymptotic_check(1, [60], seed=seed)

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
