"""Exhaustive extremal search over pure 2-complexes and proof inspectors.

The search domain at a given vertex count is the set of triangle subsets,
encoded as bitmasks over the lexicographic triangle list. The three search
kernels are batched numpy in one process:

- Exact top Betti numbers of every mask come from the rank of its signed
  boundary columns over the prime field of p = 65521 elements. The
  boundary is first row-reduced mod p to its rank r (10 rows at n = 6);
  a doubling sweep then extends a reduced row echelon basis per mask one
  triangle at a time, for all masks at once. The modular rank equals the
  rational rank because p exceeds the Hadamard bound on every minor:
  entries are -1/0/1 with three nonzeros per column, so a k x k minor is
  at most 3^(k/2) <= 3^(r/2) (243 at n = 6). Products stay exact in int64
  because r p^2 < 2^63.
- The top eigenvalue of the up signless Laplacian of each mask comes from
  one batched `eigvalsh` per chunk of masks. Each Q_up is the sum of its
  triangles' outer products of signless boundary columns, so it is the
  very matrix a per-mask B B^T gives, and so are its eigenvalues.
- Witness masks are grouped into orbits of the vertex-permutation action
  through precomputed triangle-permutation tables, and each orbit's
  canonical form is read off the orbit itself.

The large-n asymptotics go through the Lanczos top-two solve in `spectra`.
"""

from __future__ import annotations

import functools
import math
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

_PRIME = 65_521  # largest prime below 2^16
#: Mask bits swept for all states at once before chunking the rest.
_LOW_BITS = 10
#: Low-bit states extended together over the high bits (a few MB each).
_STATE_CHUNK = 8
#: Masks per batched eigensolve.
_Q_CHUNK = 1024

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
    reduced_cols: np.ndarray      # (triangles, rank) int64 columns of the
                                  # signed boundary row-reduced mod _PRIME
    signless: np.ndarray          # dense (edges, triangles) signless boundary


_SPACE_CACHE: dict[int, _TriangleSpace] = {}
_TABLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_Q_CACHE: dict[int, np.ndarray] = {}


def _triangle_space(n: int) -> _TriangleSpace:
    space = _SPACE_CACHE.get(n)
    if space is None:
        S = simplex_skeleton(n, 2)
        rows = _row_basis_mod_p(chains.signed_boundary(S, 2).toarray())
        r = len(rows)
        # exact modular rank needs p > 3^(r/2) (Hadamard); the batched
        # products need r p^2 < 2^63
        assert 3 ** r < _PRIME ** 2 and r * _PRIME ** 2 < 2 ** 63
        emasks = tuple(sum(1 << e for e in row)
                       for row in chains.boundary_index_table(S, 2).tolist())
        space = _SPACE_CACHE[n] = _TriangleSpace(
            S, S.faces(2), emasks, np.ascontiguousarray(rows.T),
            chains.boundary_csr(S, 2).toarray())
    return space


def _row_basis_mod_p(A: np.ndarray) -> np.ndarray:
    """Echelon rows spanning the row space of an integer matrix mod _PRIME.

    Row operations are invertible mod p, so every subset of columns keeps
    its rank mod p.
    """
    A = A.astype(np.int64) % _PRIME
    rows = []
    for c in range(A.shape[1]):
        nz = np.flatnonzero(A[:, c])
        if nz.size:
            pivot = A[nz[0]] * pow(int(A[nz[0], c]), _PRIME - 2, _PRIME) % _PRIME
            A = (A - np.outer(A[:, c], pivot)) % _PRIME
            rows.append(pivot)
    return np.array(rows, dtype=np.int64).reshape(-1, A.shape[1])


@functools.cache
def _inverses() -> np.ndarray:
    """x^(p-2) mod p for every residue x, the inverse of each nonzero x."""
    base = np.arange(_PRIME, dtype=np.int64)
    out = np.ones(_PRIME, dtype=np.int64)
    e = _PRIME - 2
    while e:
        if e & 1:
            out = out * base % _PRIME
        base = base * base % _PRIME
        e >>= 1
    return out


def _extend(E: np.ndarray, rank: np.ndarray, col: np.ndarray):
    """The states without and then with one more column.

    ``E[s]`` is the reduced row echelon basis of state ``s`` with row j
    the basis vector whose pivot is j (zero if j is no pivot), so one
    product reduces ``col`` against every state, and a new pivot c
    enters as a rank-1 update that also clears column c of the other
    rows.
    """
    w = (col - col @ E) % _PRIME
    grows = w.any(axis=1)
    idx = np.flatnonzero(grows)
    w = w[idx]
    at = np.arange(idx.size)
    c = (w != 0).argmax(axis=1)
    u = w * _inverses()[w[at, c]][:, None] % _PRIME
    old = E[idx, :, c]
    old[at, c] -= 1               # row c is zero, so it becomes u
    grown = E.copy()
    grown[idx] = (E[idx] - old[:, :, None] * u[:, None, :]) % _PRIME
    return np.concatenate([E, grown]), np.concatenate([rank, rank + grows])


def _last_ranks(E: np.ndarray, rank: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Ranks of the states extended by each subset of one or two last
    columns, in mask order, from their residues alone."""
    w = [(col - col @ E) % _PRIME for col in tail]
    g = [x.any(axis=1) for x in w]
    if len(tail) == 1:
        return np.concatenate([rank, rank + g[0]])
    # the second residue adds to the first unless it is a multiple of it
    c = (w[0] != 0).argmax(axis=1)
    at = np.arange(len(c))
    cross = w[0][at, c][:, None] * w[1] - w[1][at, c][:, None] * w[0]
    second = np.where(g[0], (cross % _PRIME).any(axis=1), g[1])
    return np.concatenate([rank, rank + g[0], rank + g[1],
                           rank + g[0] + second])


def _rank_table(space: _TriangleSpace) -> np.ndarray:
    """Rank of the boundary columns of every mask, as int8 by mask.

    Doubles all states over the low bits, then takes the high bits in
    chunks of low-bit states, so no array grows with 2^m; the last two
    columns need residues only.
    """
    cols = space.reduced_cols
    m, r = cols.shape
    tail = min(m, 2)
    low = min(m - tail, _LOW_BITS)
    E = np.zeros((1, r, r), dtype=np.int64)
    rank = np.zeros(1, dtype=np.int8)
    for b in range(low):
        E, rank = _extend(E, rank, cols[b])
    width = min(_STATE_CHUNK, 1 << low)
    out = np.empty((1 << (m - low), 1 << low), dtype=np.int8)
    for s in range(0, 1 << low, width):
        e, q = E[s:s + width], rank[s:s + width]
        for b in range(low, m - tail):
            e, q = _extend(e, q, cols[b])
        out[:, s:s + width] = _last_ranks(e, q, cols[m - tail:]).reshape(-1, width)
    return out.reshape(-1)


def _tables(n: int):
    """Per-mask rank, full-skeleton coverage, and facet-count tables."""
    cached = _TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    space = _triangle_space(n)
    m = len(space.triangles)
    rank = _rank_table(space)
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


def _q_values(n: int, masks: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the up signless Laplacian for each mask."""
    space = _triangle_space(n)
    edges, m = space.signless.shape
    cache = _Q_CACHE.get(n)
    if cache is None:
        cache = _Q_CACHE[n] = np.full(1 << m, np.nan)
    missing = masks[np.isnan(cache[masks])]
    if missing.size:
        # Q_up of a mask is the sum of its triangles' outer products b b^T.
        # Adding each one's 0/1 support, rather than a BLAS product, keeps
        # the threaded BLAS from spinning a core through the eigensolves.
        B = space.signless
        support = [np.flatnonzero(np.outer(b, b)) for b in B.T]
        for start in range(0, missing.size, _Q_CHUNK):
            chunk = missing[start:start + _Q_CHUNK]
            Q = np.zeros((chunk.size, edges * edges))
            for k, nz in enumerate(support):
                Q[:, nz] += (chunk >> k & 1)[:, None]
            cache[chunk] = np.linalg.eigvalsh(Q.reshape(-1, edges, edges))[:, -1]
    return cache[masks]


# -- enumeration and searches -------------------------------------------------


def _check_domain(n: int, full_skeleton: bool) -> None:
    if n < 3:
        raise BadParams(f"need n >= 3, got {n}")
    limit = FULL_SKELETON_MAX_N if full_skeleton else UNRESTRICTED_MAX_N
    if n > limit:
        raise TooLarge(
            f"enumeration with full_skeleton={full_skeleton} is limited to "
            f"n <= {limit}, got {n}")


def _domain_masks(n: int, full_skeleton: bool) -> np.ndarray:
    _check_domain(n, full_skeleton)
    rank, cover, popcount = _tables(n)
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
    _check_domain(n, full_skeleton=True)  # the tables hold every mask
    m = math.comb(n, 3)
    if not 0 <= mask < 1 << m:
        raise BadParams(f"mask must lie in [0, 2^{m}), got {mask}")
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


_PERM_MAP_CACHE: dict[int, np.ndarray] = {}


def _perm_triangle_maps(n: int) -> np.ndarray:
    """(n!, triangles) table: where each vertex permutation sends each
    triangle index."""
    maps = _PERM_MAP_CACHE.get(n)
    if maps is None:
        space = _triangle_space(n)
        maps = _PERM_MAP_CACHE[n] = np.array([
            [space.skeleton.face_index(tuple(sorted(perm[v] for v in t)))
             for t in space.triangles]
            for perm in permutations(range(n))
        ], dtype=np.int64)
    return maps


def _dedup_canonical(n: int, masks) -> tuple[tuple[Face, ...], ...]:
    """Canonical facet list of each isomorphism class among the masks.

    Witness sets can be large (tens of thousands of labeled maximizers),
    so the loop runs once per orbit of the vertex-permutation action.
    Images of one mask have one size, and for equal sizes the sorted
    facet lists order like the bit-reversed masks (the least triangle of
    a symmetric difference is its highest reversed bit). So the least
    facet list in the orbit is the image with the largest reversed mask.
    It uses only vertex ids below the number of used vertices (moving a
    used id onto a lower unused one lowers every facet it touches), so it
    equals `canonical_form` of the mask's complex.
    """
    space = _triangle_space(n)
    maps = _perm_triangle_maps(n)
    m = maps.shape[1]
    weights, reversed_weights = 1 << maps, 1 << (m - 1 - maps)
    remaining = {int(x) for x in masks}
    forms = []
    while remaining:
        mask = next(iter(remaining))
        bits = [k for k in range(m) if mask >> k & 1]
        orbit = weights[:, bits].sum(axis=1)
        remaining.difference_update(orbit.tolist())
        least = orbit[reversed_weights[:, bits].sum(axis=1).argmax()]
        forms.append(tuple(_mask_faces(space, int(least))))
    return tuple(sorted(forms))


def max_facets_search(n: int, t: int,
                      full_skeleton: bool = True) -> SearchReport:
    """Exhaustive facet-count maximization over the (n, t) domain.

    Checks the closed-form bound and that the tent family attains it;
    discrepancies are recorded in ``bound_violations``.
    """
    _check_search_params(n, t)
    masks = _domain_masks(n, full_skeleton)
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
                        full_skeleton: bool = True) -> SearchReport:
    """Exhaustive spectral-radius maximization over the (n, t) domain.

    Reports all maximizers within ``tol`` of the maximum (up to
    isomorphism), whether the tent family attains the maximum, and any
    violations of the closed-form bound. Tent extremality is recorded,
    not asserted: it is only guaranteed for large n.
    """
    _check_search_params(n, t)
    masks = _domain_masks(n, full_skeleton)
    rank, _, popcount = _tables(n)
    beta = popcount[masks].astype(np.int64) - rank[masks]
    hits = masks[beta == t]
    if hits.size == 0:
        return SearchReport(n, t, full_skeleton, 0,
                            bound_violations=(
                                {"kind": "empty_domain",
                                 "detail": f"no complex with beta_2={t}"},))
    qs = _q_values(n, hits)
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
