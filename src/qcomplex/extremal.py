"""Exhaustive extremal search over pure 2-complexes and proof inspectors.

The triangle subsets at a given vertex count are encoded as bitmasks over
the lexicographic triangle list. Relabeling the vertices permutes the
triangles and so acts on the masks; the boundary rank, the edge coverage,
the facet count and the spectrum are constant on each orbit. The search
therefore works on orbit ids (2,136 orbits among the 2^20 masks at n = 6),
and a search domain is the ascending array of the ids of its orbits:

- One ascending scan of the masks gives every mask an orbit id. The
  first mask met in an orbit, its least, is the orbit's representative;
  its images under all n! permutations are the OR of one row of each of
  two image tables, indexed by its low and its high half of bits.
- The rank of each representative's signed boundary columns is exact.
  A triangle with an edge that no other triangle has lies in no 2-cycle,
  so it adds one to the rank of the mask without it: a smaller mask, in
  an orbit met earlier. A face of a tetrahedron whose four faces all lie
  in the mask is +-the sum of the other three (dd = 0) and adds nothing.
  The other nonempty representatives (22 at n = 6) go through the exact
  `homology.integer_rank`. Rank, coverage and facet count are stored
  once per orbit and read through the orbit id.
- The top eigenvalue of the up signless Laplacian comes from one batched
  `eigvalsh` per chunk of masks. Each Q_up is the sum of its triangles'
  outer products of signless boundary columns, so it is the very matrix
  a per-mask B B^T gives, and so are its eigenvalues. The representatives
  are solved first. A member's Q_up is its representative's in permuted
  order, and its computed eigenvalue can differ in the last bits, so the
  members of every orbit within `RESOLVE_MARGIN` of the witness window
  or of the bound are listed and re-solved one by one, in ascending mask
  order. The maximum, the witnesses and the bound violations are read
  from those labeled values.
- Witness orbits take their canonical form from the same permutation
  tables. The tent plus t faces on the edge {1, 2} is the first
  C(n-1, 2) + t triangles in lexicographic order, so its orbit is that
  of the mask of those low bits.

The proof inspectors read the incidence arrays only: the vertices closing
the peak face's edges come from `chains.coface_index`, and down-neighbour
counts from N x = Q_down x - 3x (`chains.down_neighbor_sum`). The large-n
asymptotics go through the Lanczos top-two solve in `spectra`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import permutations
from typing import NamedTuple

import numpy as np

from . import chains, homology, spectra
from .complex_core import Face, SimplicialComplex, check_seed, require_int
from .errors import (
    BadParams,
    NoApex,
    NotPure,
    PrecisionInsufficient,
    TooLarge,
)
from .families import simplex_skeleton, tent_plus_common_edge

#: Masks per step of the ascending orbit scan.
_SCAN_CHUNK = 4096
#: Masks per batched eigensolve.
_Q_CHUNK = 1024

#: Exhaustive enumeration limit, with or without the full-skeleton filter.
SEARCH_MAX_N = 6

#: Window for reporting near-ties with the spectral maximum.
EPS_MAXIMIZER = 1e-8
#: Slack allowed on the closed-form spectral bound.
BOUND_SLACK = 1e-7
#: How close an orbit representative's top eigenvalue must come to the
#: witness window or to the bound for its orbit's members to be re-solved
#: one by one. A member's Q_up is its representative's in permuted order;
#: backward-stable solves of the two each lie within a small multiple of
#: eps * ||Q|| (||Q|| <= 12 at n = 6) of the exact value. The largest
#: difference measured over every mask at n <= 6 is 2.3e-14; the margin
#: is about 40 times that.
RESOLVE_MARGIN = 1e-12


def facet_bound(n: int, r: int, t: int) -> int:
    """Closed-form maximum facet count at prescribed top Betti number."""
    n, r, t = _bound_params(n, r, t)
    return math.comb(n - 1, r) + t


def spectral_bound(n: int, r: int, t: int) -> float:
    """Closed-form upper bound on the top spectral radius."""
    n, r, t = _bound_params(n, r, t)
    try:
        return float(r * n - r * r + t + 1)
    except OverflowError:
        raise TooLarge(f"the bound at n={n}, r={r}, t={t} is past the float "
                       "range") from None


def _bound_params(n: int, r: int, t: int) -> tuple[int, int, int]:
    """The checked parameters as Python ints, in which numpy integers
    cannot wrap the bound's arithmetic."""
    require_int(n=n, r=r, t=t)
    if r < 1 or n < r + 1 or t < 0:
        raise BadParams(f"need r >= 1, n >= r+1, t >= 0; got n={n}, r={r}, t={t}")
    return operator.index(n), operator.index(r), operator.index(t)


# -- triangle-space tables ----------------------------------------------------


class _TriangleSpace(NamedTuple):
    skeleton: SimplicialComplex   # 2-skeleton of the (n-1)-simplex
    triangles: tuple[Face, ...]
    signed: np.ndarray            # dense (edges, triangles) int64 boundary
    signless: np.ndarray          # dense (edges, triangles) signless boundary
    tetrahedra: np.ndarray        # mask of each tetrahedron's four faces


class _Tables(NamedTuple):
    orbit: np.ndarray             # int32 orbit id per mask
    reps: np.ndarray              # least mask of each orbit, by orbit id
    rank: np.ndarray              # int8 boundary rank per orbit
    cover: np.ndarray             # whether each orbit covers every edge
    popcount: np.ndarray          # int8 facet count per orbit


@functools.cache
def _triangle_space(n: int) -> _TriangleSpace:
    S = simplex_skeleton(n, 2)
    signed = chains.dense_boundary(S, 2)
    faces = (chains.boundary_index_table(simplex_skeleton(n, 3), 3)
             if n > 3 else np.empty((0, 4), dtype=np.int64))
    return _TriangleSpace(S, tuple(map(tuple, S.rows(2).tolist())), signed,
                          np.abs(signed).astype(np.float64),
                          (1 << faces).sum(axis=1))


@functools.cache
def _perm_triangle_maps(n: int) -> np.ndarray:
    """(n!, triangles) table: where each vertex permutation sends each
    triangle index."""
    S = _triangle_space(n).skeleton
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    images = np.sort(perms[:, S.rows(2)], axis=2).reshape(-1, 3)
    return S.row_index(images).reshape(len(perms), -1)


def _mask_bits(mask: int) -> list[int]:
    return [k for k in range(int(mask).bit_length()) if mask >> k & 1]


def _mask_faces(space: _TriangleSpace, mask: int) -> list[Face]:
    return [space.triangles[k] for k in _mask_bits(mask)]


def _image_table(weights: np.ndarray) -> np.ndarray:
    """(2^k, n!) images of the masks over k columns of triangle weights:
    rows [2^j, 2^(j+1)) are rows [0, 2^j) OR-ed with column j."""
    table = np.zeros((1 << weights.shape[1], weights.shape[0]), np.int32)
    for j, column in enumerate(weights.T):
        table[1 << j:2 << j] = table[:1 << j] | column
    return table


@functools.cache
def _tables(n: int) -> _Tables:
    """Orbit id of every mask, and each orbit's rank, full-skeleton
    coverage and facet count.

    Masks are scanned in ascending order, so the first mask met in an
    orbit is its least; its images, one row of each half-mask image table
    OR-ed, are the orbit. Ranks follow the rules in the module docstring.
    """
    space = _triangle_space(n)
    weights = (1 << _perm_triangle_maps(n)).astype(np.int32)
    m = weights.shape[1]
    h = m // 2
    low, high = _image_table(weights[:, :h]), _image_table(weights[:, h:])
    orbit = np.full(1 << m, -1, dtype=np.int32)
    reps: list[int] = []
    for start in range(0, orbit.size, _SCAN_CHUNK):
        unseen = np.flatnonzero(orbit[start:start + _SCAN_CHUNK] < 0)
        for mask in (unseen + start).tolist():
            if orbit[mask] < 0:
                orbit[low[mask & (1 << h) - 1] | high[mask >> h]] = len(reps)
                reps.append(mask)
    least = np.array(reps, dtype=np.int64)
    bits = (least[:, None] >> np.arange(m) & 1).astype(float)
    degree = bits @ space.signless.T   # edge degrees per representative
    # free[i, k] > 0: triangle k of representative i has an edge that
    # no other of its triangles has, so it lies in no 2-cycle
    free = ((degree == 1) @ space.signless) * bits
    drop = free.argmax(axis=1).tolist()
    tets = space.tetrahedra   # drop a face of a tetrahedron in the mask
    full = least[:, None] & tets == tets
    face = np.where(full, tets & -tets, 0).max(axis=1, initial=0).tolist()
    rank = np.zeros(len(reps), dtype=np.int8)
    for i, mask in enumerate(reps):
        if free[i, drop[i]]:
            rank[i] = rank[orbit[mask ^ (1 << drop[i])]] + 1
        elif face[i]:
            rank[i] = rank[orbit[mask ^ face[i]]]
        elif mask:
            rank[i] = homology.integer_rank(space.signed[:, _mask_bits(mask)])
    return _Tables(orbit, least, rank, (degree > 0).all(axis=1),
                   bits.sum(axis=1).astype(np.int8))


def _q_values(n: int, masks: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the up signless Laplacian for each mask, bitwise
    the value a per-mask solve gives."""
    B = _triangle_space(n).signless
    edges = B.shape[0]
    # Q_up of a mask is the sum of its triangles' outer products b b^T.
    # Adding each one's 0/1 support, rather than a BLAS product, keeps
    # the threaded BLAS from spinning a core through the eigensolves.
    support = [np.flatnonzero(np.outer(b, b)) for b in B.T]
    out = np.empty(masks.size)
    for start in range(0, masks.size, _Q_CHUNK):
        chunk = masks[start:start + _Q_CHUNK]
        Q = np.zeros((chunk.size, edges * edges))
        for k, nz in enumerate(support):
            Q[:, nz] += (chunk >> k & 1)[:, None]
        out[start:start + chunk.size] = np.linalg.eigvalsh(
            Q.reshape(-1, edges, edges))[:, -1]
    return out


# -- enumeration and searches -------------------------------------------------


def _domain(n: int, t: int, full_skeleton: bool) -> np.ndarray:
    """Ascending ids of the domain's orbits with top Betti number t."""
    require_int(n=n, t=t)
    if not 0 <= t <= n - 3:
        raise BadParams(f"need 0 <= t <= n-3, got n={n}, t={t}")
    if n > SEARCH_MAX_N:
        raise TooLarge(f"enumeration is limited to n <= {SEARCH_MAX_N}, got {n}")
    tables = _tables(n)
    inside = tables.cover if full_skeleton else tables.popcount > 0
    return np.flatnonzero(inside & (tables.popcount - tables.rank == t))


def _in_orbits(n: int, orbits: np.ndarray) -> np.ndarray:
    """Whether each mask lies in one of the orbits."""
    tables = _tables(n)
    chosen = np.zeros(len(tables.reps), dtype=bool)
    chosen[orbits] = True
    return chosen[tables.orbit]


def _tent_orbit(n: int, t: int) -> int:
    """Orbit of the tent plus t faces on {1, 2}: the first C(n-1, 2) + t
    triangles in lexicographic order."""
    return int(_tables(n).orbit[(1 << math.comb(n - 1, 2) + t) - 1])


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


def _empty_report(n: int, t: int, full_skeleton: bool) -> SearchReport:
    return SearchReport(n, t, full_skeleton, 0,
                        bound_violations=(
                            {"kind": "empty_domain",
                             "detail": f"no complex with beta_2={t}"},))


def _canonical_forms(n: int, orbits) -> tuple[tuple[Face, ...], ...]:
    """Canonical facet list of each orbit, sorted.

    Images of one mask have one size, and for equal sizes the sorted
    facet lists order like the bit-reversed masks (the least triangle of
    a symmetric difference is its highest reversed bit). So the least
    facet list in the orbit is the image with the largest reversed mask.
    It uses only vertex ids below the number of used vertices (moving a
    used id onto a lower unused one lowers every facet it touches), so it
    is the least facet list over all relabellings of the orbit's complex.
    """
    space = _triangle_space(n)
    maps = _perm_triangle_maps(n)
    reversed_weights = 1 << (maps.shape[1] - 1 - maps)
    forms = []
    for rep in _tables(n).reps[orbits].tolist():
        bits = _mask_bits(rep)
        least = maps[reversed_weights[:, bits].sum(axis=1).argmax(), bits]
        forms.append(tuple(space.triangles[k] for k in sorted(least.tolist())))
    return tuple(sorted(forms))


def max_facets_search(n: int, t: int,
                      full_skeleton: bool = True) -> SearchReport:
    """Exhaustive facet-count maximization over the (n, t) domain.

    Checks the closed-form bound and that the tent family attains it;
    discrepancies are recorded in ``bound_violations``.
    """
    orbits = _domain(n, t, full_skeleton)
    if orbits.size == 0:
        return _empty_report(n, t, full_skeleton)
    counts = _tables(n).popcount[orbits]
    best = int(counts.max())
    top = orbits[counts == best]
    violations: list[dict] = []
    bound = facet_bound(n, 2, t)
    if best != bound:
        violations.append({"kind": "facet_max_mismatch",
                           "max_facets": best, "bound": bound})
    tent_hit = _tent_orbit(n, t) in top
    if not tent_hit:
        violations.append({"kind": "tent_not_witness", "t": t})
    return SearchReport(n, t, full_skeleton,
                        int(np.count_nonzero(_in_orbits(n, orbits))),
                        max_facets=best, facet_witnesses=_canonical_forms(n, top),
                        bound_violations=tuple(violations),
                        tent_attains_max=tent_hit)


def max_spectral_search(n: int, t: int,
                        full_skeleton: bool = True) -> SearchReport:
    """Exhaustive spectral-radius maximization over the (n, t) domain.

    Reports all maximizers within `EPS_MAXIMIZER` of the maximum (up to
    isomorphism), whether the tent family attains the maximum, and any
    violations of the closed-form bound. Tent extremality is recorded,
    not asserted: it is only guaranteed for large n.
    """
    orbits = _domain(n, t, full_skeleton)
    if orbits.size == 0:
        return _empty_report(n, t, full_skeleton)
    tables = _tables(n)
    rep_qs = _q_values(n, tables.reps[orbits])
    # the representative of an orbit is in it, so rep_qs.max() is no
    # larger than the labeled maximum
    bound = spectral_bound(n, 2, t)
    near = orbits[(rep_qs >= rep_qs.max() - EPS_MAXIMIZER - RESOLVE_MARGIN)
                  | (rep_qs > bound + BOUND_SLACK - RESOLVE_MARGIN)]
    members = np.flatnonzero(_in_orbits(n, near))
    qs = _q_values(n, members)
    space = _triangle_space(n)
    violations = [
        {"kind": "spectral_bound", "q1": q, "bound": bound,
         "facets": [list(f) for f in _mask_faces(space, mask)]}
        for mask, q in zip(members.tolist(), qs.tolist())
        if q > bound + BOUND_SLACK
    ]
    best = float(qs.max())
    top = np.unique(tables.orbit[members[qs >= best - EPS_MAXIMIZER]])
    return SearchReport(n, t, full_skeleton,
                        int(np.count_nonzero(_in_orbits(n, orbits))),
                        max_q1=best, spectral_witnesses=_canonical_forms(n, top),
                        bound_violations=tuple(violations),
                        tent_attains_max=_tent_orbit(n, t) in top)


# -- structure inspectors -------------------------------------------------------


class ApexResult(NamedTuple):
    vertex: int | None
    multiple: bool


def detect_apex(K: SimplicialComplex) -> ApexResult:
    """Vertex joined to every pair of the other active vertices, if any.

    Returns the smallest such vertex and whether several qualify.
    """
    if not K.is_pure() or K.dim != 2:
        raise NotPure("apex detection and proof inspection need a pure 2-complex")
    active = K.rows(0)[:, 0]  # an apex lies on a triangle with every other pair
    on = np.bincount(K.rows(2).ravel(), minlength=K.n_vertices)[active]
    found = active[on == math.comb(len(active) - 1, 2)].tolist()
    if not found:
        return ApexResult(None, False)
    return ApexResult(found[0], len(found) > 1)


@dataclass(frozen=True)
class InspectorReport:
    """Counting quantities around the face with the largest boundary sum,
    one row of the `inspect` table with its fields in column order.

    The inequality verdicts are only expected to hold when the input is a
    global spectral maximizer on many vertices; the report records them
    for any input with that caveat attached.
    """

    peak_face: Face
    betti_top: int
    apex: int | None
    u: int                  # the peak-face vertices in role order: the apex
    v: int                  # first when it is on the face, then by
    w: int                  # descending two-neighbor class
    n_outside: int          # vertices outside the peak face, by the number
    outside_0: int          # of the peak face's down neighbors each makes
    outside_1: int
    outside_2: int
    outside_3: int
    n_weak_outside: int     # those making at most one
    two_class_u: int        # the two-neighbor class, split by the role
    two_class_v: int        # vertex whose face is missing
    two_class_w: int
    n_apex_missing: int     # facets avoiding the apex vertex
    n_shared_edge_missing: int
    shared_edge_missing: tuple[Face, ...]  # those through the peak edge {v, w}
    down_pair_count: int    # paths of two down-neighbor steps
    verdicts: dict = field(default_factory=dict)
    caveat: str = "hypothesis: K is a global maximizer"


def proof_inspector(K: SimplicialComplex, seed: int = 0) -> InspectorReport:
    """Measure the counting quantities that control extremal structure.

    Locates the face maximizing the Perron boundary sum, partitions the
    outside vertices by how many of its down neighbors each one forms,
    splits the two-neighbor class by which face is missing, and checks
    the counting inequalities that pin down the maximizers.
    """
    apex = detect_apex(K).vertex  # refuses a complex that is not pure of dim 2
    # exact Betti numbers before the eigensolve, so that `TooLarge` comes
    # first; `perron_vector` refuses a complex that is not 1-path connected
    t = homology.betti_profile(K).betti[2]
    result = spectra.perron_vector(K, 1, "max_boundary_sum_one", seed=seed)
    sums = chains.boundary_sums(K, 1, result.vector)
    top = float(sums.max())
    # faces are sorted, so the least index in the near window is the least face
    k0 = int(np.flatnonzero(sums >= top - 1e-9 * (1.0 + abs(top)))[0])
    rows = K.rows(2)
    f0 = tuple(rows[k0].tolist())

    # row j: the vertices that close edge j of F0 (which omits F0[j]) to a
    # face other than F0: the vertex each coface of that edge omits from it
    ptr, cof, pos = chains.coface_index(K, 1)
    closes = np.zeros((3, K.n_vertices), dtype=np.int64)
    for j, e in enumerate(chains.boundary_index_table(K, 2)[k0].tolist()):
        closes[j, rows[cof[ptr[e]:ptr[e + 1]], pos[ptr[e]:ptr[e + 1]]]] = 1
    closes[[0, 1, 2], f0] = 0  # F0 itself closes edge j with F0[j]
    count = closes.sum(axis=0)  # |N^d(F0, x)| for each vertex x outside F0
    a = K.n_faces(0) - 3
    made = np.bincount(count, minlength=4)[1:].tolist()
    outside = (a - sum(made), *made)

    # split the |N^d(F0, .)| = 2 class by which face is missing
    split = dict(zip(f0, ((count == 2) & (closes == 0)).sum(axis=1).tolist()))
    if apex is not None and apex in f0:
        u = apex
        v, w = sorted((x for x in f0 if x != u), key=lambda x: (-split[x], x))
    else:
        u, v, w = sorted(f0, key=lambda x: (-split[x], x))

    base_vertex = apex if apex is not None else u
    missing = ~(rows == base_vertex).any(axis=1)
    through_edge = tuple(map(tuple, rows[
        missing & (rows == v).any(axis=1) & (rows == w).any(axis=1)].tolist()))
    n_missing = int(missing.sum())

    n_down = chains.down_neighbor_sum(K, 2, np.ones(len(rows)))
    pair_count = int(chains.down_neighbor_sum(K, 2, n_down)[k0])

    weak = outside[0] + outside[1]
    closing = outside[3]
    upper = 4 * a * a - 2 * a * weak + closing * (closing + 2 * weak) + 4 * t
    verdicts = {
        "pair_count_lower": pair_count > 4 * a * a - 6 * t,
        "pair_count_upper": pair_count <= upper,
        "apex_missing_bound": n_missing < 5 * t * t + 10 * t,
    }
    if split[v] > 0:
        verdicts["pair_count_upper_refined"] = (
            pair_count <= upper - 2 * (outside[2] - 1))

    return InspectorReport(
        f0, t, apex, u, v, w, a, *outside, weak, split[u], split[v], split[w],
        n_missing, len(through_edge), through_edge, pair_count, verdicts)


# -- Perron profile and asymptotics ------------------------------------------


@dataclass(frozen=True, eq=False)
class PerronProfile:
    """Measured Perron-vector entries against their asymptotic predictions.

    Each group is a (measured, predicted) pair of float64 arrays in face
    order: the edges off the apex, the edges through it, and the boundary
    sums of the facets that avoid it.
    """

    n: int
    t: int
    non_apex_edges: tuple[np.ndarray, np.ndarray]
    apex_edges: tuple[np.ndarray, np.ndarray]
    missing_apex_faces: tuple[np.ndarray, np.ndarray]

    @property
    def max_rel_dev(self) -> dict[str, float]:
        devs = {}
        for group in ("non_apex_edges", "apex_edges", "missing_apex_faces"):
            m, p = getattr(self, group)
            devs[group] = float(np.max(np.abs(m - p) / np.abs(p), initial=0.0))
        return devs

    @property
    def overall_max_rel_dev(self) -> float:
        return max(self.max_rel_dev.values())


def perron_profile(K: SimplicialComplex) -> PerronProfile:
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
    f = spectra.perron_vector(K, 1, "max_boundary_sum_one").vector
    rows = K.rows(2)
    missing = ~(rows == u).any(axis=1)
    edge_missing_count = np.bincount(
        chains.boundary_index_table(K, 2)[missing].ravel(),
        minlength=K.n_faces(1))
    on_apex = (K.rows(1) == u).any(axis=1)
    n_down = chains.down_neighbor_sum(K, 2, np.ones(len(rows)))
    return PerronProfile(
        n, int(missing.sum()),
        (f[~on_apex], 1.0 / (2 * n - 3)
         + 3.0 * edge_missing_count[~on_apex] / (4.0 * n * n)),
        (f[on_apex], np.full(int(on_apex.sum()), 0.5 - 1.0 / (4 * n))),
        (chains.boundary_sums(K, 1, f)[missing],
         3.0 / (2 * n - 3) + 3.0 * n_down[missing] / (4.0 * n * n)))


@dataclass(frozen=True)
class AsymptoticRow:
    n: int
    q1: float
    excess: float          # q1 - (2n - 3)
    g: float               # excess * n^3 / (9 t)
    error_bound: float


def asymptotic_check(t: int, n_list, seed: int = 0) -> list[AsymptoticRow]:
    """Normalized spectral excess of the tent-plus-common-edge family.

    For each n computes g(n) = (q1 - (2n-3)) * n^3 / (9t), where q1 comes
    from `spectra.spectral_radius` at residual tolerance
    `spectra.RESIDUAL_TOL` and ``seed``. Restricted to t in {1, 2}, where the
    extremal complex is identified. Raises if the measured gap to the
    second eigenvalue is below `spectra.DEGENERACY_GAP` or the eigenvalue
    error bound is not comfortably below the signal 9t/n^3.
    """
    require_int(t=t)
    if t not in (1, 2):
        raise BadParams(f"asymptotic check is defined for t in {{1, 2}}, got {t}")
    try:
        ns = list(n_list)
    except TypeError:
        raise BadParams(f"n_list must be an iterable of integers, got {n_list!r}"
                        ) from None
    for n in ns:
        require_int(n=n)
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise BadParams("n_list must be strictly ascending")
    if ns and ns[-1] > 240:
        raise BadParams(f"max n is 240, got {ns[-1]}")
    if ns and ns[0] < t + 3:
        raise BadParams(f"need n >= t+3, got {ns[0]}")
    check_seed(seed)
    rows = []
    eps = np.finfo(np.float64).eps
    for n in ns:
        K = tent_plus_common_edge(n, t)
        res = spectra.spectral_radius(K, 1, seed=seed)
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
