"""Exhaustive extremal search over pure 2-complexes and proof inspectors.

The search domain at a given vertex count is the set of triangle subsets,
encoded as bitmasks over the lexicographic triangle list. Exact top Betti
numbers for every mask come from one depth-first sweep that maintains an
incremental column echelon of the signed boundary columns over a prime
field. The prime is far above the Hadamard bound on any minor of these
matrices, which makes the modular rank provably equal to the rational
rank (entries are -1/0/1 with three nonzeros per column, so any k x k
minor is at most 3^(k/2) < 3^8 in magnitude, while p = 2^31 - 1).

Spectral radii inside the scan use the dense eigensolve (the edge space
at n <= 6 has at most 15 dimensions); the large-n asymptotics go through
the Lanczos top-two solve in `spectra`.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterator, NamedTuple

import numpy as np

from . import chains, homology, spectra
from .complex_core import (
    Face,
    SimplicialComplex,
    canonical_form,
    from_facets,
)
from .errors import (
    BadParams,
    NoApex,
    NotPathConnected,
    NotPure,
    PrecisionInsufficient,
    TooLarge,
)
from .families import simplex_skeleton, tent_plus_common_edge, tented

_PRIME = 2_147_483_647

#: Exhaustive full-skeleton enumeration limit (2^C(n,3) masks get filtered).
FULL_SKELETON_MAX_N = 6
#: Unrestricted enumeration limit.
UNRESTRICTED_MAX_N = 5

#: Window for reporting near-ties with the spectral maximum.
EPS_MAXIMIZER = 1e-8
#: Slack allowed on the closed-form spectral bound.
BOUND_SLACK = 1e-7


def facet_bound(n: int, r: int, t: int) -> int:
    """Closed-form maximum facet count at prescribed top Betti number."""
    _check_bound_params(n, r, t)
    return math.comb(n - 1, r) + t


def spectral_bound(n: int, r: int, t: int) -> float:
    """Closed-form upper bound on the top spectral radius."""
    _check_bound_params(n, r, t)
    return float(r * n - r * r + t + 1)


def _check_bound_params(n: int, r: int, t: int) -> None:
    if r < 1 or n < r + 1 or t < 0:
        raise BadParams(f"need r >= 1, n >= r+1, t >= 0; got n={n}, r={r}, t={t}")


# -- triangle-space tables ----------------------------------------------------


class _TriangleSpace(NamedTuple):
    skeleton: SimplicialComplex   # 2-skeleton of the (n-1)-simplex
    triangles: tuple[Face, ...]
    edge_masks: tuple[int, ...]   # bitmask over edges per triangle
    signed_cols: tuple[tuple[int, ...], ...]  # signed boundary columns mod _PRIME
    signless: np.ndarray          # dense (edges, triangles) signless boundary


_SPACE_CACHE: dict[int, _TriangleSpace] = {}
_TABLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_Q_CACHE: dict[int, np.ndarray] = {}


def _triangle_space(n: int) -> _TriangleSpace:
    space = _SPACE_CACHE.get(n)
    if space is None:
        S = simplex_skeleton(n, 2)
        # modular Bareiss needs the prime above the Hadamard bound 3^(E/2)
        assert _PRIME > 3 ** (S.n_faces(1) // 2 + 1)
        emasks = tuple(sum(1 << e for e in row)
                       for row in chains.boundary_index_table(S, 2).tolist())
        cols = (chains.signed_boundary(S, 2).toarray() % _PRIME).T.tolist()
        space = _SPACE_CACHE[n] = _TriangleSpace(
            S, S.faces(2), emasks, tuple(map(tuple, cols)),
            chains.boundary_csr(S, 2).toarray())
    return space


def _rank_block_job(args: tuple[int, int, int]) -> tuple[int, np.ndarray]:
    """Rank of every triangle subset whose low bits equal ``prefix``.

    Returns an int8 array indexed by the suffix bits. Used both as the
    sequential core (one block, empty prefix) and as the worker task.
    """
    n, prefix, prefix_len = args
    space = _triangle_space(n)
    m = len(space.triangles)
    cols = space.signed_cols
    echelon: list[tuple[int, tuple[int, ...]]] = []

    def reduce_column(col) -> tuple[int, tuple[int, ...]] | None:
        v = list(col)
        for piv, evec in echelon:
            c = v[piv]
            if c:
                v = [(a - c * b) % _PRIME for a, b in zip(v, evec)]
        piv = next((k for k, a in enumerate(v) if a), -1)
        if piv < 0:
            return None
        inv = pow(v[piv], _PRIME - 2, _PRIME)
        return piv, tuple((a * inv) % _PRIME for a in v)

    base_rank = 0
    for bit in range(prefix_len):
        if prefix >> bit & 1:
            entry = reduce_column(cols[bit])
            if entry is not None:
                echelon.append(entry)
                base_rank += 1

    out = np.empty(1 << (m - prefix_len), dtype=np.int8)

    def sweep(idx: int, suffix: int, rank: int) -> None:
        if idx == m:
            out[suffix] = rank
            return
        sweep(idx + 1, suffix, rank)
        here = suffix | (1 << (idx - prefix_len))
        entry = reduce_column(cols[idx])
        if entry is None:
            sweep(idx + 1, here, rank)
        else:
            echelon.append(entry)
            sweep(idx + 1, here, rank + 1)
            echelon.pop()

    sweep(prefix_len, 0, base_rank)
    return prefix, out


def _tables(n: int, workers: int = 1):
    """Per-mask rank, full-skeleton coverage, and facet-count tables."""
    cached = _TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    space = _triangle_space(n)
    m = len(space.triangles)
    rank = np.empty(1 << m, dtype=np.int8)
    if workers > 1 and m >= 10:
        prefix_len = 3
        jobs = [(n, prefix, prefix_len) for prefix in range(1 << prefix_len)]
        # spawn: forking after BLAS threads exist is not reliably safe
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            for prefix, block in pool.imap_unordered(_rank_block_job, jobs):
                rank[prefix::1 << prefix_len] = block
    else:
        _, rank[:] = _rank_block_job((n, 0, 0))
    cover_union = np.zeros(1 << m, dtype=np.int64)
    popcount = np.zeros(1 << m, dtype=np.int8)
    for bit in range(m):
        half = 1 << bit
        cover_union[half:2 * half] = cover_union[:half] | space.edge_masks[bit]
        popcount[half:2 * half] = popcount[:half] + 1
    cover = cover_union == (1 << space.skeleton.n_faces(1)) - 1
    result = (rank, cover, popcount)
    _TABLE_CACHE[n] = result
    return result


def _mask_faces(space: _TriangleSpace, mask: int) -> list[Face]:
    return [space.triangles[k] for k in range(len(space.triangles)) if mask >> k & 1]


def _q_block_job(args: tuple[int, np.ndarray]) -> np.ndarray:
    """Top eigenvalue of the up signless Laplacian for each mask."""
    n, masks = args
    space = _triangle_space(n)
    out = np.empty(len(masks))
    for j, mask in enumerate(masks):
        B = space.signless[:, [k for k in range(len(space.triangles))
                               if mask >> k & 1]]
        out[j] = np.linalg.eigvalsh(B @ B.T)[-1]
    return out


def _q_values(n: int, masks: np.ndarray, workers: int = 1) -> np.ndarray:
    cache = _Q_CACHE.get(n)
    if cache is None:
        m = len(_triangle_space(n).triangles)
        cache = np.full(1 << m, np.nan)
        _Q_CACHE[n] = cache
    missing = masks[np.isnan(cache[masks])]
    if missing.size:
        if workers > 1 and missing.size >= 64:
            chunks = [c for c in np.array_split(missing, workers * 4) if c.size]
            with multiprocessing.get_context("spawn").Pool(workers) as pool:
                values = pool.map(_q_block_job, [(n, c) for c in chunks])
            cache[np.concatenate(chunks)] = np.concatenate(values)
        else:
            cache[missing] = _q_block_job((n, missing))
    return cache[masks]


# -- enumeration and searches -------------------------------------------------


def _domain_masks(n: int, full_skeleton: bool, workers: int = 1) -> np.ndarray:
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    limit = FULL_SKELETON_MAX_N if full_skeleton else UNRESTRICTED_MAX_N
    if n > limit:
        raise TooLarge(
            f"enumeration with full_skeleton={full_skeleton} is limited to "
            f"n <= {limit}, got {n}")
    rank, cover, popcount = _tables(n, workers)
    if full_skeleton:
        return np.nonzero(cover)[0]
    return np.nonzero(popcount > 0)[0]


def enumerate_pure2(n: int, full_skeleton: bool = True) -> Iterator[SimplicialComplex]:
    """Stream every pure 2-complex in the search domain, in mask order.

    With ``full_skeleton`` the domain is exactly the triangle subsets
    covering all possible edges; otherwise every nonempty subset.
    """
    masks = _domain_masks(n, full_skeleton)
    space = _triangle_space(n)
    for mask in masks:
        yield from_facets(n, _mask_faces(space, int(mask)), require_pure=True)


def search_betti2(n: int, mask: int) -> int:
    """Exact top Betti number of a triangle-subset mask (search fast path)."""
    rank, _, popcount = _tables(n)
    return int(popcount[mask]) - int(rank[mask])


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive search over the (n, t) domain."""

    n: int
    t: int
    restricted_to_full_skeleton: bool
    enumerated_count: int
    max_facets: int | None = None
    facet_witnesses: tuple[tuple[Face, ...], ...] = ()
    max_q1: float | None = None
    spectral_witnesses: tuple[tuple[Face, ...], ...] = ()
    bound_violations: tuple[dict, ...] = ()
    tent_attains_max: bool | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "restricted_to_full_skeleton": self.restricted_to_full_skeleton,
            "enumerated_count": self.enumerated_count,
            "max_facets": self.max_facets,
            "facet_witnesses": [[list(f) for f in w] for w in self.facet_witnesses],
            "max_q1": self.max_q1,
            "spectral_witnesses": [[list(f) for f in w]
                                   for w in self.spectral_witnesses],
            "bound_violations": list(self.bound_violations),
            "tent_attains_max": self.tent_attains_max,
        }


def _tent_canonical(n: int, t: int) -> tuple[Face, ...]:
    K = tented(n, 2) if t == 0 else tent_plus_common_edge(n, t)
    return canonical_form(K)


def _check_search_params(n: int, t: int) -> None:
    if not 0 <= t <= n - 3:
        raise BadParams(f"need 0 <= t <= n-3, got n={n}, t={t}")


_PERM_MAP_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _perm_triangle_maps(n: int) -> list[tuple[int, ...]]:
    """Triangle-index permutation induced by each vertex permutation."""
    maps = _PERM_MAP_CACHE.get(n)
    if maps is None:
        space = _triangle_space(n)
        maps = [
            tuple(space.skeleton.face_index(tuple(sorted(perm[v] for v in t)))
                  for t in space.triangles)
            for perm in permutations(range(n))
        ]
        _PERM_MAP_CACHE[n] = maps
    return maps


def _dedup_canonical(n: int, masks) -> tuple[tuple[Face, ...], ...]:
    """Canonical facet list of each isomorphism class among the masks.

    Witness sets can be large (tens of thousands of labeled maximizers),
    so grouping canonicalizes whole orbits of the vertex-permutation
    action at once instead of canonicalizing every mask.
    """
    space = _triangle_space(n)
    maps = _perm_triangle_maps(n)
    remaining = {int(m) for m in masks}
    forms = set()
    while remaining:
        mask = next(iter(remaining))
        orbit = set()
        for pm in maps:
            mm = mask
            image = 0
            while mm:
                low = mm & -mm
                image |= 1 << pm[low.bit_length() - 1]
                mm ^= low
            orbit.add(image)
        remaining -= orbit
        rep = min(orbit)
        forms.add(canonical_form(
            from_facets(n, _mask_faces(space, rep), require_pure=True)))
    return tuple(sorted(forms))


def max_facets_search(n: int, t: int, full_skeleton: bool = True,
                      workers: int = 1) -> SearchReport:
    """Exhaustive facet-count maximization over the (n, t) domain.

    Checks the closed-form bound and that the tent family attains it;
    discrepancies are recorded in ``bound_violations``.
    """
    _check_search_params(n, t)
    masks = _domain_masks(n, full_skeleton, workers)
    rank, _, popcount = _tables(n)
    beta = popcount[masks].astype(np.int64) - rank[masks]
    hits = masks[beta == t]
    violations: list[dict] = []
    if hits.size == 0:
        return SearchReport(n, t, full_skeleton, 0,
                            bound_violations=(
                                {"kind": "empty_domain",
                                 "detail": f"no complex with beta_2={t}"},))
    counts = popcount[hits].astype(np.int64)
    best = int(counts.max())
    witnesses = _dedup_canonical(n, hits[counts == best])
    bound = facet_bound(n, 2, t)
    if best != bound:
        violations.append({"kind": "facet_max_mismatch",
                           "max_facets": best, "bound": bound})
    tent_form = _tent_canonical(n, t)
    tent_hit = tent_form in witnesses
    if not tent_hit:
        violations.append({"kind": "tent_not_witness", "t": t})
    return SearchReport(n, t, full_skeleton, int(hits.size),
                        max_facets=best, facet_witnesses=witnesses,
                        bound_violations=tuple(violations),
                        tent_attains_max=tent_hit)


def max_spectral_search(n: int, t: int, tol: float = EPS_MAXIMIZER,
                        full_skeleton: bool = True,
                        workers: int = 1) -> SearchReport:
    """Exhaustive spectral-radius maximization over the (n, t) domain.

    Reports all maximizers within ``tol`` of the maximum (up to
    isomorphism), whether the tent family attains the maximum, and any
    violations of the closed-form bound. Tent extremality is recorded,
    not asserted: it is only guaranteed for large n.
    """
    _check_search_params(n, t)
    masks = _domain_masks(n, full_skeleton, workers)
    rank, _, popcount = _tables(n)
    beta = popcount[masks].astype(np.int64) - rank[masks]
    hits = masks[beta == t]
    if hits.size == 0:
        return SearchReport(n, t, full_skeleton, 0,
                            bound_violations=(
                                {"kind": "empty_domain",
                                 "detail": f"no complex with beta_2={t}"},))
    qs = _q_values(n, hits, workers)
    bound = spectral_bound(n, 2, t)
    space = _triangle_space(n)
    violations = [
        {"kind": "spectral_bound", "q1": float(q), "bound": bound,
         "facets": [list(f) for f in _mask_faces(space, int(mask))]}
        for mask, q in zip(hits, qs) if q > bound + BOUND_SLACK
    ]
    best = float(qs.max())
    witnesses = _dedup_canonical(n, hits[qs >= best - tol])
    tent_hit = _tent_canonical(n, t) in witnesses
    return SearchReport(n, t, full_skeleton, int(hits.size),
                        max_q1=best, spectral_witnesses=witnesses,
                        bound_violations=tuple(violations),
                        tent_attains_max=tent_hit)


# -- structure inspectors -------------------------------------------------------


class ApexResult(NamedTuple):
    vertex: int | None
    multiple: bool


def detect_apex(K: SimplicialComplex) -> ApexResult:
    """Vertex joined to every pair of the other active vertices, if any.

    Returns the smallest such vertex and whether several qualify.
    """
    if not K.is_pure() or K.dim != 2:
        raise NotPure("apex detection expects a pure 2-complex")
    vertices = [v for (v,) in K.faces(0)]
    found = []
    for u in vertices:
        others = [v for v in vertices if v != u]
        if all(K.has_face(tuple(sorted((u, x, y))))
               for x, y in combinations(others, 2)):
            found.append(u)
    if not found:
        return ApexResult(None, False)
    return ApexResult(found[0], len(found) > 1)


@dataclass(frozen=True)
class InspectorReport:
    """Counting quantities around the face with the largest boundary sum.

    The inequality verdicts are only expected to hold when the input is a
    global spectral maximizer on many vertices; the report records them
    for any input with that caveat attached.
    """

    peak_face: Face
    apex: int | None
    roles: tuple[int, int, int]           # peak-face vertices ordered (u, v, w)
    betti_top: int
    n_outside: int                        # vertices outside the peak face
    outside_by_count: tuple[int, int, int, int]  # grouped by down neighbors made
    n_weak_outside: int                   # those making at most one
    two_class_split: tuple[int, int, int]  # two-neighbor class per role, descending
    n_apex_missing: int                   # facets avoiding the apex vertex
    shared_edge_missing: tuple[Face, ...]  # those through the peak edge {v, w}
    down_pair_count: int                  # paths of two down-neighbor steps
    verdicts: dict = field(default_factory=dict)
    caveat: str = "hypothesis: K is a global maximizer"

    def to_dict(self) -> dict:
        return {
            "peak_face": list(self.peak_face),
            "apex": self.apex,
            "u": self.roles[0], "v": self.roles[1], "w": self.roles[2],
            "betti_top": self.betti_top,
            "n_outside": self.n_outside,
            "outside_0": self.outside_by_count[0],
            "outside_1": self.outside_by_count[1],
            "outside_2": self.outside_by_count[2],
            "outside_3": self.outside_by_count[3],
            "n_weak_outside": self.n_weak_outside,
            "two_class_u": self.two_class_split[0],
            "two_class_v": self.two_class_split[1],
            "two_class_w": self.two_class_split[2],
            "n_apex_missing": self.n_apex_missing,
            "n_shared_edge_missing": len(self.shared_edge_missing),
            "shared_edge_missing": [list(f) for f in self.shared_edge_missing],
            "down_pair_count": self.down_pair_count,
            "verdicts": dict(self.verdicts),
            "caveat": self.caveat,
        }


def proof_inspector(K: SimplicialComplex, tol: float = 1e-10,
                    seed: int = 0) -> InspectorReport:
    """Measure the counting quantities that control extremal structure.

    Locates the face maximizing the Perron boundary sum, partitions the
    outside vertices by how many of its down neighbors each one forms,
    splits the two-neighbor class by which face is missing, and checks
    the counting inequalities that pin down the maximizers.
    """
    if not K.is_pure() or K.dim != 2:
        raise NotPure("proof inspector expects a pure 2-complex")
    if not K.is_path_connected(1):
        raise NotPathConnected("proof inspector needs a 1-path-connected complex")
    t = homology.betti_profile(K).betti[2]
    result = spectra.perron_vector(K, 1, "max_boundary_sum_one",
                                   tol=tol, seed=seed)
    sums = chains.boundary_sums(K, 1, result.vector)
    top = float(sums.max())
    near = [k for k, s in enumerate(sums) if s >= top - 1e-9 * (1.0 + abs(top))]
    f0 = min(K.faces(2)[k] for k in near)

    active = [v for (v,) in K.faces(0)]
    outside = [x for x in active if x not in f0]
    by_count: dict[int, list[int]] = {0: [], 1: [], 2: [], 3: []}
    for x in outside:
        by_count[len(K.down_neighbors_via_vertex(f0, x))].append(x)
    a_sizes = tuple(len(by_count[k]) for k in range(4))

    # split the |N^d(F0, .)| = 2 class by which face is missing
    split: dict[int, list[int]] = {x: [] for x in f0}
    for y in by_count[2]:
        for x in f0:
            other = tuple(sorted(set(f0) - {x} | {y}))
            if not K.has_face(other):
                split[x].append(y)
                break
    apex = detect_apex(K).vertex
    if apex is not None and apex in f0:
        u = apex
        v, w = sorted((x for x in f0 if x != u),
                      key=lambda x: (-len(split[x]), x))
    else:
        u, v, w = sorted(f0, key=lambda x: (-len(split[x]), x))
    a2_split = (len(split[u]), len(split[v]), len(split[w]))

    base_vertex = apex if apex is not None else u
    missing = [F for F in K.faces(2) if base_vertex not in F]
    through_edge = tuple(F for F in missing if v in F and w in F)

    pair_count = sum(len(K.down_neighbors(F1))
                     for F1 in K.down_neighbors(f0))

    a = len(outside)
    weak = a_sizes[0] + a_sizes[1]
    closing = a_sizes[3]
    upper = 4 * a * a - 2 * a * weak + closing * (closing + 2 * weak) + 4 * t
    verdicts = {
        "pair_count_lower": pair_count > 4 * a * a - 6 * t,
        "pair_count_upper": pair_count <= upper,
        "apex_missing_bound": len(missing) < 5 * t * t + 10 * t,
    }
    if a2_split[1] > 0:
        verdicts["pair_count_upper_refined"] = (
            pair_count <= upper - 2 * (a_sizes[2] - 1))

    return InspectorReport(
        peak_face=f0, apex=apex, roles=(u, v, w), betti_top=t, n_outside=a,
        outside_by_count=a_sizes, n_weak_outside=weak,
        two_class_split=a2_split, n_apex_missing=len(missing),
        shared_edge_missing=through_edge, down_pair_count=pair_count,
        verdicts=verdicts)


# -- Perron profile and asymptotics ------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    label: str
    measured: float
    predicted: float
    rel_dev: float


@dataclass(frozen=True)
class PerronProfile:
    """Measured Perron-vector entries against their asymptotic predictions."""

    n: int
    t: int
    non_apex_edges: tuple[ProfileRow, ...]
    apex_edges: tuple[ProfileRow, ...]
    missing_apex_faces: tuple[ProfileRow, ...]

    @property
    def max_rel_dev(self) -> dict[str, float]:
        return {
            "non_apex_edges": max(r.rel_dev for r in self.non_apex_edges),
            "apex_edges": max(r.rel_dev for r in self.apex_edges),
            "missing_apex_faces": max(
                (r.rel_dev for r in self.missing_apex_faces), default=0.0),
        }

    @property
    def overall_max_rel_dev(self) -> float:
        return max(self.max_rel_dev.values())


def perron_profile(K: SimplicialComplex, tol: float = 1e-10,
                   seed: int = 0) -> PerronProfile:
    """Compare Perron-vector entries of a tent-plus-faces complex with the
    asymptotic predictions, grouped into non-apex edges, apex edges, and
    boundary sums of the apex-avoiding facets.
    """
    apex_res = detect_apex(K)
    if apex_res.vertex is None:
        raise NoApex("no vertex is joined to all pairs of the others")
    n = K.n_vertices
    if n < 20:
        raise BadParams(f"profile predictions need n >= 20, got {n}")
    u = apex_res.vertex
    result = spectra.perron_vector(K, 1, "max_boundary_sum_one",
                                   tol=tol, seed=seed)
    f = result.vector
    missing_faces = [F for F in K.faces(2) if u not in F]
    t = len(missing_faces)

    edge_missing_count: dict[Face, int] = {}
    for F in missing_faces:
        for e in combinations(F, 2):
            edge_missing_count[e] = edge_missing_count.get(e, 0) + 1

    def row(label, measured, predicted):
        m, p = float(measured), float(predicted)
        return ProfileRow(label, m, p, abs(m - p) / abs(p))

    non_apex, apex_rows = [], []
    for k, e in enumerate(K.faces(1)):
        if u in e:
            apex_rows.append(row(f"{e[0]},{e[1]}", f[k], 0.5 - 1.0 / (4 * n)))
        else:
            pred = (1.0 / (2 * n - 3)
                    + 3.0 * edge_missing_count.get(e, 0) / (4.0 * n * n))
            non_apex.append(row(f"{e[0]},{e[1]}", f[k], pred))

    missing_rows = []
    sums = chains.boundary_sums(K, 1, f)
    for F in missing_faces:
        nd = len(K.down_neighbors(F))
        pred = 3.0 / (2 * n - 3) + 3.0 * nd / (4.0 * n * n)
        missing_rows.append(row(",".join(map(str, F)), sums[K.face_index(F)],
                                pred))

    return PerronProfile(n, t, tuple(non_apex), tuple(apex_rows),
                         tuple(missing_rows))


@dataclass(frozen=True)
class AsymptoticRow:
    n: int
    q1: float
    excess: float          # q1 - (2n - 3)
    g: float               # excess * n^3 / (9 t)
    error_bound: float


def asymptotic_check(t: int, n_list, tol_schedule=None,
                     seed: int = 0) -> list[AsymptoticRow]:
    """Normalized spectral excess of the tent-plus-common-edge family.

    For each n computes g(n) = (q1 - (2n-3)) * n^3 / (9t) with a
    high-precision Lanczos solve. Restricted to t in {1, 2}, where the
    extremal complex is identified. Raises if the measured gap to the
    second eigenvalue is below `spectra.DEGENERACY_GAP` or the eigenvalue
    error bound is not comfortably below the signal 9t/n^3.
    """
    if t not in (1, 2):
        raise BadParams(f"asymptotic check is defined for t in {{1, 2}}, got {t}")
    ns = list(n_list)
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise BadParams("n_list must be strictly ascending")
    if ns and ns[-1] > 240:
        raise BadParams(f"max n is 240, got {ns[-1]}")
    if ns and ns[0] < t + 3:
        raise BadParams(f"need n >= t+3, got {ns[0]}")
    if tol_schedule is None:
        tols = [1e-10] * len(ns)
    elif isinstance(tol_schedule, (int, float)):
        tols = [float(tol_schedule)] * len(ns)
    else:
        tols = [float(x) for x in tol_schedule]
        if len(tols) != len(ns):
            raise BadParams("tol_schedule length must match n_list")
    rows = []
    eps = np.finfo(np.float64).eps
    for n, tol in zip(ns, tols):
        K = tent_plus_common_edge(n, t)
        res = spectra.spectral_radius(K, 1, tol=tol, seed=seed)
        if res.degenerate:
            raise PrecisionInsufficient(
                f"top eigenvalue numerically multiple at n={n}")
        signal = 9.0 * t / n ** 3
        error_bound = res.residual + 64 * eps * abs(res.value)
        if error_bound > 0.05 * signal:
            raise PrecisionInsufficient(
                f"error bound {error_bound:.2e} exceeds 5% of signal "
                f"{signal:.2e} at n={n}")
        excess = res.value - (2 * n - 3)
        rows.append(AsymptoticRow(n, res.value, excess,
                                  excess * n ** 3 / (9.0 * t), error_bound))
    return rows
