"""Exact Betti numbers, the Euler identity, and basic-hole predicates.

Betti numbers are computed by collapse, then eliminate. Elementary
collapses remove a face that has exactly one coface together with that
coface; this keeps the homotopy type, so the Betti numbers stay exact.
The ranks of the residual boundary matrices then come from
fraction-free (Bareiss) integer elimination, so no tolerance enters any
Betti number. The eigenvalue-based `hodge_betti` exists purely as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import chains
from .complex_core import SimplicialComplex
from .errors import (
    DimensionOutOfRange,
    NotBasicHole,
    NotPure,
    SpectrumAmbiguous,
    TooLarge,
)

# int64 Bareiss updates are exact while |entries| stay below this bound
# (update magnitude <= 2*M^2 must fit in int64).
_INT64_GUARD = np.int64(1) << 31

#: Largest dense int64 residual boundary matrix, in bytes, that
#: `betti_profile` and `is_basic_hole` allocate after collapsing; larger
#: ones raise `TooLarge`. `integer_rank` holds about three more working
#: copies, so the peak is about four times this. Tents with added faces
#: collapse to a handful of faces at any size; the 2-skeleton of the
#: 59-simplex has no free face, and its 1770 x 34220 top boundary
#: (484 MB) is refused.
DENSE_BYTES_LIMIT = 256 * 2**20


def integer_rank(A) -> int:
    """Exact rank of an integer matrix via fraction-free elimination.

    Runs vectorized in int64 and falls back to Python big integers for
    the remaining submatrix if entries approach the overflow guard.
    """
    M = np.array(A, dtype=np.int64, copy=True)
    if M.ndim != 2 or 0 in M.shape:
        return 0
    m, n = M.shape
    rank = 0
    row = 0
    prev = np.int64(1)
    for col in range(n):
        if row >= m:
            break
        sub = M[row:, col]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        p = int(nz[np.abs(sub[nz]).argmin()]) + row
        if p != row:
            M[[row, p]] = M[[p, row]]
        if np.abs(M[row:]).max() >= _INT64_GUARD:
            return rank + _python_bareiss_rank(M[row:, col:].tolist(), int(prev))
        piv = M[row, col]
        below = M[row + 1:]
        if below.size:
            factor = below[:, col].copy()
            below[:] = (below * piv - np.outer(factor, M[row])) // prev
        prev = piv
        rank += 1
        row += 1
    return rank


def _python_bareiss_rank(rows: list[list[int]], prev: int) -> int:
    """Arbitrary-precision Bareiss on the remaining submatrix."""
    rows = [list(map(int, r)) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        if row >= m:
            break
        p, best = None, None
        for r in range(row, m):
            v = rows[r][col]
            if v and (best is None or abs(v) < best):
                best, p = abs(v), r
        if p is None:
            continue
        rows[row], rows[p] = rows[p], rows[row]
        piv = rows[row][col]
        pivot_row = rows[row]
        for r in range(row + 1, m):
            f = rows[r][col]
            rows[r] = [(a * piv - f * b) // prev
                       for a, b in zip(rows[r], pivot_row)]
        prev = piv
        rank += 1
        row += 1
    return rank


def rational_kernel_basis(A) -> list[list[Fraction]]:
    """Exact basis of the kernel of an integer matrix (column vectors)."""
    M = [[Fraction(int(x)) for x in row] for row in np.asarray(A)]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        p = next((r for r in range(row, m) if M[r][col]), None)
        if p is None:
            continue
        M[row], M[p] = M[p], M[row]
        inv = 1 / M[row][col]
        M[row] = [x * inv for x in M[row]]
        for r in range(m):
            if r != row and M[r][col]:
                c = M[r][col]
                M[r] = [a - c * b for a, b in zip(M[r], M[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


@dataclass(frozen=True)
class BettiProfile:
    """Betti numbers with the boundary ranks they came from."""

    betti: tuple[int, ...]
    euler: int
    ranks: tuple[int, ...]  # ranks[i] = rank of the i-th boundary map


def _require_dense_fits(n_rows: int, n_cols: int) -> None:
    nbytes = 8 * n_rows * n_cols
    if nbytes > DENSE_BYTES_LIMIT:
        raise TooLarge(
            f"dense {n_rows} x {n_cols} residual boundary needs "
            f"{nbytes / 2**20:.0f} MiB, above the {DENSE_BYTES_LIMIT // 2**20} "
            f"MiB limit")


def _collapse(K: SimplicialComplex) -> list[np.ndarray]:
    """Masks, one per dimension, of the faces left by elementary collapses.

    While some face has exactly one remaining coface, the pair is removed.
    That coface has no coface of its own, since one would hold a second
    coface of the face, so the residual stays a complex. Each face keeps
    the count and the index sum of its remaining cofaces, so the sum names
    the coface once the count is 1. Cached on the complex.
    """
    alive = K._cache.get("collapse")
    if alive is not None:
        return alive
    top = K.dim
    faces, count, cosum, stack = [None], [], [], []
    for d in range(top):
        tab = chains.boundary_index_table(K, d + 1)
        faces.append(tab.tolist())
        flat = tab.reshape(-1)
        owners = np.repeat(np.arange(tab.shape[0]), tab.shape[1])
        c = np.bincount(flat, minlength=K.n_faces(d))
        count.append(c.tolist())
        cosum.append(np.bincount(flat, weights=owners, minlength=K.n_faces(d))
                     .astype(np.int64).tolist())
        stack.extend((d, s) for s in np.flatnonzero(c == 1).tolist())
    removed = [[] for _ in range(top + 1)]
    while stack:
        d, s = stack.pop()
        if count[d][s] != 1:  # removed faces have no cofaces left
            continue
        t = cosum[d][s]
        removed[d].append(s)
        removed[d + 1].append(t)
        for e, x in ((d + 1, t), (d, s)):
            if e == 0:
                continue
            for f in faces[e][x]:
                count[e - 1][f] -= 1
                cosum[e - 1][f] -= x
                if count[e - 1][f] == 1:
                    stack.append((e - 1, f))
    alive = []
    for d in range(top + 1):
        mask = np.ones(K.n_faces(d), dtype=bool)
        mask[removed[d]] = False
        alive.append(mask)
    K._cache["collapse"] = alive
    return alive


def _residual_boundary(K: SimplicialComplex, alive: list[np.ndarray],
                       i: int) -> np.ndarray:
    """Dense signed i-th boundary between the faces that survive collapse."""
    tab = chains.boundary_index_table(K, i)[alive[i]]
    n_rows = int(alive[i - 1].sum())
    _require_dense_fits(n_rows, tab.shape[0])
    rows = np.cumsum(alive[i - 1]) - 1
    A = np.zeros((n_rows, tab.shape[0]), dtype=np.int64)
    signs = np.array([(-1) ** j for j in range(tab.shape[1])], dtype=np.int64)
    cols = np.repeat(np.arange(tab.shape[0]), tab.shape[1])
    A[rows[tab].reshape(-1), cols] = np.tile(signs, tab.shape[0])
    return A


def betti_profile(K: SimplicialComplex) -> BettiProfile:
    """Exact Betti numbers over the rationals: collapse, then eliminate."""
    alive = _collapse(K)
    sizes = [int(mask.sum()) for mask in alive]
    for i in range(1, K.dim + 1):  # refuse before any allocation or elimination
        _require_dense_fits(sizes[i - 1], sizes[i])
    residual = [0] + [integer_rank(_residual_boundary(K, alive, i))
                      for i in range(1, K.dim + 1)] + [0]
    betti = tuple(sizes[i] - residual[i] - residual[i + 1]
                  for i in range(K.dim + 1))
    # ranks of the boundary maps of K itself, top-down from its face counts
    ranks = [0] * (K.dim + 2)
    for i in range(K.dim, 0, -1):
        ranks[i] = K.n_faces(i) - betti[i] - ranks[i + 1]
    chi = euler_characteristic(K)
    chi_betti = sum((-1) ** i * b for i, b in enumerate(betti))
    if chi != chi_betti:
        raise AssertionError(
            f"Euler identity violated: {chi} != {chi_betti} on {K!r}")
    return BettiProfile(betti, chi, tuple(ranks[:-1]))


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of the face counts."""
    return sum((-1) ** i * K.n_faces(i) for i in range(K.dim + 1))


def hodge_betti(K: SimplicialComplex, i: int, zero_tol: float = 1e-8) -> int:
    """Betti number as the kernel dimension of the full signed Laplacian.

    Counts eigenvalues below ``zero_tol``; raises if any eigenvalue falls
    inside the guard band [zero_tol, 100*zero_tol). Cross-check only;
    `betti_profile` is the source of truth.
    """
    if not 0 <= i <= K.dim:
        raise DimensionOutOfRange(f"i={i} outside [0, {K.dim}]")
    L = chains.laplacian(K, i, "L_full").toarray()
    eigs = np.linalg.eigvalsh(L)
    band = eigs[(eigs >= zero_tol) & (eigs < 100 * zero_tol)]
    if band.size:
        raise SpectrumAmbiguous(
            f"eigenvalue {band[0]:.3e} inside [{zero_tol:.1e}, {100 * zero_tol:.1e})")
    return int((eigs < zero_tol).sum())


def _require_pure(K: SimplicialComplex) -> None:
    if not K.is_pure():
        raise NotPure("operation requires a pure complex")


def is_basic_hole(K: SimplicialComplex) -> bool:
    """Whether K carries exactly one top hole that every facet supports.

    True iff the top Betti number is 1 and deleting any single facet kills
    it. Since the top kernel is one-dimensional, deleting facet j drops
    the Betti number exactly when the kernel generator is nonzero at j,
    so a single exact kernel computation answers all deletions at once.

    Every top cycle vanishes on a facet removed by collapse (by induction
    over the collapse order, its free face meets no other remaining
    facet), so K is not a basic hole once any facet collapses. Otherwise
    the residual top boundary is the full one.
    """
    _require_pure(K)
    r = K.dim
    if r < 1:
        raise DimensionOutOfRange("basic holes need dimension >= 1")
    alive = _collapse(K)
    if not alive[r].all():
        return False
    A = _residual_boundary(K, alive, r)
    nullity = K.n_faces(r) - integer_rank(A)
    if nullity != 1:
        return False
    (z,) = rational_kernel_basis(A)
    return all(x != 0 for x in z)


@dataclass(frozen=True)
class BasicHoleReport:
    """Verdicts for the three structural claims about a basic hole."""

    path_connected: bool
    min_degree_two: bool
    deletion_path_connected: bool

    @property
    def all_pass(self) -> bool:
        return (self.path_connected and self.min_degree_two
                and self.deletion_path_connected)


def check_basic_hole_properties(K: SimplicialComplex) -> BasicHoleReport:
    """Verify the structural claims satisfied by every basic hole:
    (r-1)-path connectivity, every (r-1)-face lying in at least two
    facets, and (r-1)-path connectivity surviving any facet deletion.
    """
    if not is_basic_hole(K):
        raise NotBasicHole("input is not a basic hole")
    r = K.dim
    connected = K.is_path_connected(r - 1)
    degrees_ok = all(K.face_degree(F) >= 2 for F in K.faces(r - 1))
    deletion_ok = all(chains.up_connected(K, r - 1, skip)
                      for skip in range(K.n_faces(r)))
    return BasicHoleReport(connected, degrees_ok, deletion_ok)
