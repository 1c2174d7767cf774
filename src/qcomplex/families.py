"""Generators for the named complex families and random test complexes.

Label conventions are fixed so that generated complexes are deterministic:
the apex of a tented complex is always vertex 0, and the shared edge of
the tent-plus-common-edge family is always {1, 2}. So each tent is a
lexicographic prefix of the (r+1)-subsets of range(n), as `subset_rows`
lists it: those through vertex 0, then for r = 2 the t faces (1, 2, 3)
... (1, 2, t + 2).
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice

import numpy as np

from . import homology
from .complex_core import (Face, SimplicialComplex, check_seed, face,
                           from_facets, is_integer, require_cells_fit, require_int)
from .errors import (
    BadParams,
    BudgetExhausted,
    DuplicateFace,
    FaceContainsApex,
)

#: Per family: its generator over the given parameters, the parameters it
#: needs, and those it also reads.
_MAKERS = {
    "simplex_skeleton": (lambda n, r, **_: simplex_skeleton(n, r), ("n", "r"), ()),
    "tented": (lambda n, r, **_: tented(n, 2 if r is None else r), ("n",), ("r",)),
    "tent_plus_common_edge": (lambda n, t, **_: tent_plus_common_edge(n, t),
                              ("n", "t"), ()),
    "tent_plus_faces": (lambda n, added, **_: tent_plus_faces(n, added),
                        ("n", "added"), ()),
    "delta_sphere": (lambda r, **_: delta_sphere(r), ("r",), ()),
    "rhombic": (lambda r, **_: rhombic(r), ("r",), ()),
    "random_pure2": (lambda n, t, seed, **_: random_pure2(n, target_t=t, seed=seed),
                     ("n",), ("t",)),
}
FAMILIES = tuple(_MAKERS)

#: Rejection sampling stays at or below this vertex count.
RANDOM_MAX_N = 12

#: Samples `random_pure2` draws for a target top Betti number.
MAX_ATTEMPTS = 500


def subset_rows(n: int, k: int, tent: int | None = None) -> np.ndarray:
    """The k-subsets of range(n), one row each, in lexicographic order;
    with ``tent`` = t the first C(n-1, k-1) + t: those through vertex 0,
    then t more. Rows over the cell budget are refused with `TooLarge`,
    as `from_facets` would refuse them, before any is listed. The count
    is taken only once one k-subset fits: for a wider k it takes seconds."""
    what = (f"the {k}-subsets of {n} vertices" if tent is None
            else f"the {n}-vertex tent of {k}-subsets")
    require_cells_fit([(1, k)], what)
    count = math.comb(n, k) if tent is None else math.comb(n - 1, k - 1) + tent
    require_cells_fit([(count, k)], what)
    listed = islice(combinations(range(n), k), count)
    return np.fromiter(chain.from_iterable(listed), np.int64).reshape(-1, k)


def simplex_skeleton(n: int, r: int) -> SimplicialComplex:
    """Pure r-complex on n vertices with every (r+1)-subset as a facet."""
    require_int(n=n, r=r)
    if r < 0 or n < r + 1:
        raise BadParams(f"need 0 <= r <= n-1, got n={n}, r={r}")
    return from_facets(n, arrays=[subset_rows(n, r + 1)], require_pure=True)


def tented(n: int, r: int = 2) -> SimplicialComplex:
    """All (r+1)-subsets of [n] through the apex vertex 0."""
    require_int(n=n, r=r)
    if r < 1 or n < r + 1:
        raise BadParams(f"need r >= 1 and n >= r+1, got n={n}, r={r}")
    return from_facets(n, arrays=[subset_rows(n, r + 1, tent=0)], require_pure=True)


def delta_sphere(r: int) -> SimplicialComplex:
    """Boundary of the (r+1)-simplex: the minimal r-sphere."""
    require_int(r=r)
    if r < 1:
        raise BadParams(f"need r >= 1, got {r}")
    return simplex_skeleton(r + 2, r)


def rhombic(r: int) -> SimplicialComplex:
    """Two apexes over the r-subsets of an (r+1)-set: the rhombic r-sphere.

    Vertices 0..r span the base; r+1 and r+2 are the apexes; the 2(r+1)
    facets are each apex joined with an r-subset of the base.
    """
    require_int(r=r)
    if r < 1:
        raise BadParams(f"need r >= 1, got {r}")
    base = subset_rows(r + 1, r)
    facets = [np.pad(base, ((0, 0), (0, 1)), constant_values=apex)
              for apex in (r + 1, r + 2)]
    return from_facets(r + 3, arrays=facets, require_pure=True)


def tent_plus_common_edge(n: int, t: int) -> SimplicialComplex:
    """The 2-dimensional tent plus t facets through the common edge {1, 2}."""
    require_int(n=n, t=t)
    if not 1 <= t <= n - 3:
        raise BadParams(f"need 1 <= t <= n-3, got n={n}, t={t}")
    return from_facets(n, arrays=[subset_rows(n, 3, tent=t)], require_pure=True)


def tent_plus_faces(n: int, added) -> SimplicialComplex:
    """The 2-dimensional tent plus an explicit list of apex-avoiding faces.

    Its Betti numbers are (1, 0, k) for k added faces, with no recount.
    The tent is a cone, so beta_1 = beta_2 = 0 before the faces are
    added. It holds every edge that avoids the apex, so each added face
    adds no lower face and raises the Euler characteristic by one; a
    2-face cannot raise beta_1, so it raises beta_2 by one.
    """
    require_int(n=n)
    if n < 4:
        raise BadParams(f"need n >= 4, got {n}")
    try:
        added_faces = [face(f) for f in added]
    except TypeError:
        raise BadParams(f"added must be an iterable of faces, got {added!r}") from None
    seen: set[Face] = set()
    for f in added_faces:
        if len(f) != 3:
            raise BadParams(f"added face {f} is not a 2-face")
        if 0 in f:
            raise FaceContainsApex(f"added face {f} contains the apex 0")
        if f in seen:
            raise DuplicateFace(f"added face {f} repeated")
        seen.add(f)
    return from_facets(n, added_faces, require_pure=True,
                       arrays=[subset_rows(n, 3, tent=0)])


def random_pure2(n: int, target_t: int | None = None,
                 seed: int = 0) -> SimplicialComplex:
    """Uniformly random nonempty triangle subset on n labeled vertices.

    With ``target_t`` set, rejection-samples until the top Betti number
    matches or `MAX_ATTEMPTS` samples have missed it.
    """
    require_int(n=n)
    if n < 3 or n > RANDOM_MAX_N:
        raise BadParams(f"need 3 <= n <= {RANDOM_MAX_N}, got {n}")
    if target_t is not None and not (is_integer(target_t) and target_t >= 0):
        raise BadParams(f"target_t must be a nonnegative integer, got {target_t!r}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    triangles = subset_rows(n, 3)
    for _ in range(MAX_ATTEMPTS):
        mask = rng.random(len(triangles)) < 0.5
        if not mask.any():
            continue
        K = from_facets(n, arrays=[triangles[mask]], require_pure=True)
        if target_t is None:
            return K
        if homology.betti_profile(K).betti[2] == target_t:
            return K
    raise BudgetExhausted(
        f"no sample with top Betti {target_t} in {MAX_ATTEMPTS} attempts")


def make(family: str, n: int | None = None, r: int | None = None,
         t: int | None = None, seed: int = 0,
         added=None) -> SimplicialComplex:
    """Dispatch a family name plus parameters to its generator (CLI entry).
    A parameter the family needs and lacks, or is given and does not read,
    is refused with `BadParams`; an empty ``added`` list counts as none."""
    if family not in _MAKERS:
        raise BadParams(f"unknown family {family!r}; choose from {FAMILIES}")
    build, needs, reads = _MAKERS[family]
    params = {"n": n, "r": r, "t": t, "added": added or None}
    missing = [k for k in needs if params[k] is None]
    if missing:
        raise BadParams(f"missing required parameter(s): {', '.join(missing)}")
    unread = [k for k, v in params.items()
              if v is not None and k not in needs + reads]
    if unread:
        raise BadParams(f"{family} does not read {', '.join(unread)}")
    return build(seed=seed, **params)
