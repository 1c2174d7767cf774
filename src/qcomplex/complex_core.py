"""Pure simplicial complexes and their combinatorial neighbor structure.

A complex is stored as a vertex count plus its inclusion-maximal faces
(facets); every lower face is derived by closure. Faces are sorted integer
tuples, and the position of a face inside the sorted list ``faces(i)`` is
its index in all matrix representations, so indexing is stable across runs.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParams,
    BadVertexId,
    DimensionOutOfRange,
    FaceNotInComplex,
    NotPure,
    TooLarge,
    VertexInFace,
)

Face = tuple[int, ...]

#: Brute-force isomorphism limit; permutation search only.
ISO_MAX_VERTICES = 10


def face(vertices: Iterable[int]) -> Face:
    """Normalize an iterable of vertex ids into a face tuple.

    Vertices are sorted; duplicates and negative ids are rejected.
    """
    vs = tuple(sorted(vertices))
    if not vs:
        raise BadParams("a face needs at least one vertex")
    if vs[0] < 0:
        raise BadVertexId(f"negative vertex id in {vs}")
    if any(a == b for a, b in zip(vs, vs[1:])):
        raise BadParams(f"repeated vertex in face {vertices!r}")
    return vs


class SimplicialComplex:
    """Immutable simplicial complex on vertices ``0..n_vertices-1``.

    Construct through :func:`from_facets`; the constructor assumes its
    arguments are already validated and closed.
    """

    __slots__ = ("n_vertices", "facets", "dim", "_faces_by_dim", "_index", "_cache")

    def __init__(self, n_vertices: int, facets: tuple[Face, ...],
                 faces_by_dim: tuple[tuple[Face, ...], ...]):
        self.n_vertices = n_vertices
        self.facets = facets
        self.dim = len(faces_by_dim) - 1
        self._faces_by_dim = faces_by_dim
        self._index = tuple({f: k for k, f in enumerate(fs)} for fs in faces_by_dim)
        self._cache: dict = {}

    # -- basic queries ----------------------------------------------------

    def faces(self, i: int) -> tuple[Face, ...]:
        """All i-faces in sorted (lexicographic) order."""
        if not 0 <= i <= self.dim:
            raise DimensionOutOfRange(f"no faces of dimension {i} (dim={self.dim})")
        return self._faces_by_dim[i]

    def n_faces(self, i: int) -> int:
        return len(self.faces(i))

    def face_index(self, F: Face) -> int:
        """Rank of ``F`` within the sorted list of faces of its dimension."""
        i = len(F) - 1
        if not 0 <= i <= self.dim:
            raise FaceNotInComplex(f"{F} has no valid dimension here")
        try:
            return self._index[i][F]
        except KeyError:
            raise FaceNotInComplex(f"{F} is not a face") from None

    def has_face(self, F: Face) -> bool:
        i = len(F) - 1
        return 0 <= i <= self.dim and F in self._index[i]

    def is_pure(self) -> bool:
        d = self.dim
        return all(len(f) - 1 == d for f in self.facets)

    # -- neighbor structure -----------------------------------------------

    def face_degree(self, F: Face) -> int:
        """Number of (dim F + 1)-faces containing ``F``."""
        k = self.face_index(F)
        i = len(F) - 1
        if i + 1 > self.dim:
            return 0
        from .chains import boundary_csr  # chains imports this module

        indptr = boundary_csr(self, i + 1).indptr
        return int(indptr[k + 1] - indptr[k])

    def down_neighbors(self, F: Face) -> list[Face]:
        """Same-dimension faces sharing a codimension-1 face with ``F``."""
        k = self.face_index(F)
        i = len(F) - 1
        if i < 1:
            raise DimensionOutOfRange("down neighbors need dimension >= 1")
        from .chains import boundary_csr, boundary_index_table

        rows = boundary_csr(self, i)[boundary_index_table(self, i)[k]]
        return self._others(i, rows.indices, k)

    def down_neighbors_via_vertex(self, F: Face, x: int) -> list[Face]:
        """Down neighbors of ``F`` of the form {x} union (F minus one vertex)."""
        self.face_index(F)
        if not 0 <= x < self.n_vertices:
            raise BadVertexId(f"vertex {x} outside [0, {self.n_vertices})")
        if x in F:
            raise VertexInFace(f"vertex {x} lies in {F}")
        out = []
        for drop in F:
            G = tuple(sorted(set(F) - {drop} | {x}))
            if self.has_face(G):
                out.append(G)
        return sorted(out)

    def up_neighbors(self, F: Face) -> list[Face]:
        """Same-dimension faces jointly contained with ``F`` in a coface."""
        k = self.face_index(F)
        i = len(F) - 1
        if i + 1 > self.dim:
            return []
        from .chains import boundary_csr, boundary_index_table

        cofaces = boundary_csr(self, i + 1)[k].indices
        return self._others(i, boundary_index_table(self, i + 1)[cofaces], k)

    def _others(self, i: int, indices, k: int) -> list[Face]:
        """The i-faces at ``indices`` other than the k-th, in sorted order."""
        fs = self._faces_by_dim[i]
        return [fs[j] for j in np.unique(indices).tolist() if j != k]

    def is_path_connected(self, i: int) -> bool:
        """Connectivity of the up-neighbor graph on the i-faces."""
        if not 0 <= i < self.dim:
            raise DimensionOutOfRange(f"path connectivity needs 0 <= i < dim, got {i}")
        from .chains import up_connected  # chains imports this module

        return up_connected(self, i)

    # -- derived complexes --------------------------------------------------

    def skeleton(self, r: int) -> "SimplicialComplex":
        """Subcomplex of all faces of dimension at most ``r``."""
        if not 0 <= r <= self.dim:
            raise DimensionOutOfRange(f"skeleton order {r} outside [0, {self.dim}]")
        if r == self.dim:
            return self
        cand = list(self._faces_by_dim[r]) + [f for f in self.facets if len(f) - 1 < r]
        return from_facets(self.n_vertices, cand)

    def without_facet(self, F: Face) -> "SimplicialComplex":
        """The complex whose face set is the face set of this one minus ``F``.

        ``F`` must be a facet; lower faces of ``F`` survive, so boundary
        faces of ``F`` not covered elsewhere become facets of the result.
        """
        if F not in self.facets:
            raise FaceNotInComplex(f"{F} is not a facet")
        remaining = [g for g in self.facets if g != F]
        rem_sets = [set(g) for g in remaining]
        for drop in F:
            G = tuple(v for v in F if v != drop)
            if not any(set(G).issubset(s) for s in rem_sets):
                remaining.append(G)
        return from_facets(self.n_vertices, remaining)

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.n_vertices == other.n_vertices
                and self.facets == other.facets)

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.facets))

    def __repr__(self) -> str:
        return (f"SimplicialComplex(n={self.n_vertices}, dim={self.dim}, "
                f"facets={len(self.facets)})")


def from_facets(n: int, facets: Sequence[Iterable[int]],
                require_pure: bool = False) -> SimplicialComplex:
    """Build a complex from candidate facets.

    Non-maximal entries are dropped; with ``require_pure`` the surviving
    facets must all share one dimension. Candidates are processed largest
    first, so maximality is one closure-membership lookup per candidate.
    """
    if n <= 0:
        raise BadParams(f"n_vertices must be positive, got {n}")
    normalized = sorted({face(f) for f in facets})
    if not normalized:
        raise BadParams("facet list is empty")
    top_vertex = max(f[-1] for f in normalized)
    if top_vertex >= n:
        raise BadVertexId(f"vertex {top_vertex} outside [0, {n})")
    top = max(len(f) for f in normalized) - 1
    by_dim: list[set[Face]] = [set() for _ in range(top + 1)]
    maximal = []
    for f in sorted(normalized, key=len, reverse=True):
        d = len(f) - 1
        if f in by_dim[d]:
            continue
        maximal.append(f)
        for i in range(d + 1):
            by_dim[i].update(combinations(f, i + 1))
    dims = {len(f) - 1 for f in maximal}
    if require_pure and len(dims) > 1:
        raise NotPure(f"facet dimensions {sorted(dims)} are mixed")
    return SimplicialComplex(
        n, tuple(sorted(maximal)), tuple(tuple(sorted(s)) for s in by_dim))


# -- isomorphism ------------------------------------------------------------

def _support(K: SimplicialComplex) -> list[int]:
    return sorted({v for f in K.facets for v in f})


def _facet_fingerprint(K: SimplicialComplex) -> tuple:
    # active vertex -> multiset of facet sizes through it; label-invariant
    profile = sorted(
        tuple(sorted(len(f) for f in K.facets if v in f))
        for v in _support(K)
    )
    return (tuple(sorted(len(f) for f in K.facets)), tuple(profile))


def canonical_form(K: SimplicialComplex) -> tuple[Face, ...]:
    """Lexicographically least facet list over all vertex permutations.

    Unused vertex ids cannot appear in the minimum, so two complexes have
    equal canonical forms exactly when `is_isomorphic` accepts them.
    """
    n = K.n_vertices
    if n > ISO_MAX_VERTICES:
        raise TooLarge(f"canonical form is brute force; n={n} > {ISO_MAX_VERTICES}")
    support = _support(K)
    best: tuple[Face, ...] | None = None
    for perm in permutations(range(len(support))):
        relabel = dict(zip(support, perm))
        cand = tuple(sorted(tuple(sorted(relabel[v] for v in f))
                            for f in K.facets))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def is_isomorphic(K1: SimplicialComplex, K2: SimplicialComplex) -> bool:
    """Whether some bijection of active vertices maps facets onto facets."""
    for K in (K1, K2):
        if K.n_vertices > ISO_MAX_VERTICES:
            raise TooLarge(
                f"isomorphism is brute force; n={K.n_vertices} > {ISO_MAX_VERTICES}")
    if _facet_fingerprint(K1) != _facet_fingerprint(K2):
        return False
    s1, s2 = _support(K1), _support(K2)
    if len(s1) != len(s2) or len(K1.facets) != len(K2.facets):
        return False
    target = set(K2.facets)
    for perm in permutations(s2):
        relabel = dict(zip(s1, perm))
        if all(tuple(sorted(relabel[v] for v in f)) in target
               for f in K1.facets):
            return True
    return False


# -- .facets text format ------------------------------------------------------

def read_facets(path) -> SimplicialComplex:
    """Load a complex from the ``.facets`` text format.

    Lines starting with '#' are comments; the first content line is
    ``n <count>``; every following non-empty line is one facet. Labels
    already inside [0, n) are kept verbatim (so written files round-trip
    byte-identically); otherwise the distinct labels are remapped onto
    0..k-1 in sorted order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    content = [ln.strip() for ln in lines
               if ln.strip() and not ln.lstrip().startswith("#")]
    if not content or not content[0].startswith("n "):
        raise BadParams(f"{path}: expected leading 'n <integer>' line")
    try:
        n = int(content[0].split()[1])
    except (IndexError, ValueError):
        raise BadParams(f"{path}: malformed header {content[0]!r}") from None
    raw = []
    for ln in content[1:]:
        try:
            raw.append(tuple(int(tok) for tok in ln.split()))
        except ValueError:
            raise BadParams(f"{path}: malformed facet line {ln!r}") from None
    if not raw:
        raise BadParams(f"{path}: no facets")
    labels = sorted({v for f in raw for v in f})
    if labels and labels[0] < 0:
        raise BadVertexId(f"{path}: negative vertex label {labels[0]}")
    if labels and labels[-1] >= n:
        if len(labels) > n:
            raise BadVertexId(f"{path}: {len(labels)} distinct labels exceed n={n}")
        remap = {v: k for k, v in enumerate(labels)}
        raw = [tuple(remap[v] for v in f) for f in raw]
    return from_facets(n, raw)


def write_facets(K: SimplicialComplex, path) -> None:
    """Write the ``.facets`` format in canonical sorted order to a path,
    or to ``path`` itself when it is an open text stream."""
    if hasattr(path, "write"):
        path.write(f"n {K.n_vertices}\n")
        path.writelines(" ".join(map(str, f)) + "\n" for f in K.facets)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            write_facets(K, fh)
