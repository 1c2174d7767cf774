"""Exact Betti numbers, the Euler identity, and basic-hole predicates.

Betti numbers are computed by reduction, then elimination. The reduction
(Mrozek and Batko, Discrete Comput. Geom. 41, 2009) removes pairs of a
face and a coface that leave the homology unchanged: a coreduction pair,
where the coface has no other boundary face left, and a collapse pair,
where the face has no other coface left. When none is left it removes the
least vertex, which lowers beta_0 by one, and goes on. The remaining faces
form an S-complex with the homology of the complex, except that beta_0 is
lower by the number of vertices so removed. The ranks of its boundary
matrices (`chains.dense_boundary` on the faces left), and the residual
kernel vector from which `is_basic_hole` builds the top cycle, come from
one fraction-free (Bareiss) integer elimination, `_bareiss` (Bareiss,
Math. Comp. 22, 1968): no tolerance and no rational arithmetic. It runs
in int64 and turns the matrix into Python integers in place once an
entry nears overflow. The reduction is cached on the complex, so
`betti_profile` and `is_basic_hole` share one.

The floating-point `hodge_betti` is the independent cross-check: beta_i
is the kernel dimension of the full Laplacian d_i^T d_i + d_{i+1} d_{i+1}^T.
As d_i d_{i+1} = 0, its nonzero spectrum is the union of those of the two
terms, and A A^T and A^T A share theirs (Eckmann 1944; Horak and Jost,
Adv. Math. 244, 2013). So each boundary d_j needs one eigensolve, of its
smaller Gram matrix, cached on the complex, and beta_i is |S_i| less the
nonzero eigenvalues of d_i and d_{i+1}.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import chains, complex_core
from .complex_core import SimplicialComplex, is_integer
from .errors import (
    BadParams,
    DimensionOutOfRange,
    NotBasicHole,
    NotPure,
    SpectrumAmbiguous,
    TooLarge,
)

# int64 Bareiss updates are exact while |entries| stay below this bound
# (update magnitude <= 2*M^2 must fit in int64); `_bareiss` turns the
# matrix into Python ints before an update with a larger entry.
_INT64_GUARD = np.int64(1) << 31

#: `hodge_betti` counts the eigenvalues below this as zeros, and refuses
#: one in the guard band [ZERO_TOL, 100 * ZERO_TOL).
ZERO_TOL = 1e-8


def _integer_matrix(A) -> np.ndarray:
    """A as an int64 array, or as an object array of Python ints when
    some entry lies outside int64; refuses a ragged A, an A that is not
    2-D and any non-integral entry."""
    try:
        M = np.asarray(A)
    except ValueError as exc:
        raise BadParams(f"integer_rank needs a rectangular matrix: {exc}") from None
    if M.ndim != 2:
        raise BadParams(f"integer_rank needs a 2-D matrix, got shape {M.shape}")
    if M.dtype.kind in "ib":
        return M.astype(np.int64)
    if M.dtype.kind == "f":
        integral = np.isfinite(M).all() and (M == np.round(M)).all()
        if integral and (M.size == 0 or np.abs(M).max() < 2.0 ** 63):
            return M.astype(np.int64)
    else:
        integral = M.dtype.kind in "uO" and all(
            isinstance(x, numbers.Integral) for x in M.flat)
    if not integral:
        raise BadParams("integer_rank needs integral entries")
    M = np.frompyfunc(int, 1, 1)(M).astype(object)
    bound = 1 << 63
    return M.astype(np.int64) if all(-bound <= x < bound for x in M.flat) else M


def integer_rank(A) -> int:
    """Exact rank of an integer matrix via fraction-free elimination.

    The elimination (`_bareiss`) runs in int64 and goes on in Python big
    integers once an entry nears the overflow guard, or from the start
    when an entry lies outside int64. Integral floats are accepted; any
    other non-integral entry, or an A that is not 2-D, raises `BadParams`.
    """
    return len(_bareiss(_integer_matrix(A))[1])


def _bareiss(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Fraction-free (Bareiss) elimination of M in place, taking the
    least |pivot| in each column: the nonzero echelon rows (the row space
    of M) and their pivot columns. An int64 M turns into an object array
    of Python ints before the first update that could leave int64, and
    the elimination goes on in that array."""
    m, n = M.shape
    pivots: list[int] = []
    prev = 1
    for col in range(n):
        row = len(pivots)
        if row >= m:
            break
        sub = M[row:, col]
        nz = np.flatnonzero(sub)
        if nz.size == 0:
            continue
        p = int(nz[np.abs(sub[nz]).argmin()]) + row
        if p != row:
            M[[row, p]] = M[[p, row]]
        if M.dtype != object and np.abs(M[row:]).max() >= _INT64_GUARD:
            M = M.astype(object)
        piv = M[row, col]
        below = M[row + 1:]
        if below.size:
            below[:] = (below * piv - np.outer(below[:, col], M[row])) // prev
        prev = piv
        pivots.append(col)
    return M[:len(pivots)], pivots


def _kernel_vector(A) -> list[int]:
    """Primitive integer y != 0 with A y = 0: 1 at the first non-pivot
    column of the Bareiss echelon form, then back-substituted over the
    pivot rows, last first, scaling y by pivot / gcd instead of dividing."""
    echelon, pivots = _bareiss(_integer_matrix(A))
    y = [0] * np.shape(A)[1]
    y[min(set(range(len(y))) - set(pivots))] = 1
    for row, p in zip(reversed(echelon.tolist()), reversed(pivots)):
        s = sum(a * x for a, x in zip(row, y))  # y[p] is still 0
        g = math.gcd(s, row[p])
        y = [x * (row[p] // g) for x in y]
        y[p] = -s // g
    g = math.gcd(*y)
    return [x // g for x in y]


@dataclass(frozen=True)
class BettiProfile:
    """Betti numbers with the boundary ranks they came from."""

    betti: tuple[int, ...]
    euler: int
    ranks: tuple[int, ...]  # ranks[i] = rank of the i-th boundary map


def _coreduce(K: SimplicialComplex
              ) -> tuple[list[np.ndarray], int, np.ndarray]:
    """Masks, one per dimension, of the faces left by the reduction, the
    number of vertices it started from, and the removed (ridge, facet)
    pairs of the top dimension, in removal order. Cached on the complex.

    Two kinds of pair (a, b), a a boundary face of b, are removed: a
    coreduction pair, where b has no remaining boundary face but a, and
    a collapse pair, where a has no remaining coface but b. Neither
    changes the homology of the remaining faces (Mrozek and Batko, 2009).
    Each face keeps the count and the index sum of its remaining boundary
    faces and of its remaining cofaces, so a sum names the partner once
    its count is 1. When no pair is left, every remaining edge keeps both
    or neither of its vertices, so each remaining vertex is a nonzero
    class of beta_0: the least one is removed, which lowers beta_0 by one,
    and the reduction restarts.
    """
    cached = K._cache.get("coreduction")
    if cached is not None:
        return cached
    top = K.dim
    left = [bytearray(b"\x01") * K.n_faces(d) for d in range(top + 1)]
    # per dimension d: boundary faces (faces[d][x]) and cofaces
    # (co_idx[d][co_ptr[d][x]:co_ptr[d][x + 1]]) of the d-face x, with the
    # count and index sum of those remaining
    faces, n_down, sum_down = [None], [None], [None]
    co_ptr, co_idx, n_up, sum_up = [], [], [], []
    stack = []  # (d, x, up): x has one remaining coface (up) or face
    for d in range(1, top + 1):
        tab = chains.boundary_index_table(K, d)
        ptr, cof, _ = chains.coface_index(K, d - 1)
        co = ptr[1:] - ptr[:-1]
        faces.append(tab.tolist())
        n_down.append([d + 1] * len(tab))
        sum_down.append(tab.sum(axis=1).tolist())
        co_ptr.append(ptr.tolist())
        co_idx.append(cof.tolist())
        n_up.append(co.tolist())
        sum_up.append(np.bincount(np.repeat(np.arange(len(co)), co), cof,
                                  minlength=len(co)).astype(np.int64).tolist())
        stack.extend(zip(repeat(d - 1), np.flatnonzero(co == 1).tolist(),
                         repeat(True)))
    pairs, starts = [], 0

    def remove(d: int, x: int) -> None:
        left[d][x] = 0
        if d:  # its boundary faces lose a coface
            count, total, alive = n_up[d - 1], sum_up[d - 1], left[d - 1]
            for y in faces[d][x]:
                count[y] -= 1
                total[y] -= x
                if count[y] == 1 and alive[y]:
                    stack.append((d - 1, y, True))
        if d < top and n_up[d][x]:  # its cofaces lose a boundary face
            count, total, alive = n_down[d + 1], sum_down[d + 1], left[d + 1]
            ptr = co_ptr[d]
            for y in (co_idx[d][ptr[x]:ptr[x + 1]] if n_up[d][x] > 1
                      else (sum_up[d][x],)):  # one left: the sum names it
                count[y] -= 1
                total[y] -= x
                if count[y] == 1 and alive[y]:
                    stack.append((d + 1, y, False))

    def reduce() -> None:
        while stack:
            d, x, up = stack.pop()
            if not left[d][x] or (n_up if up else n_down)[d][x] != 1:
                continue
            a, b, d = (x, sum_up[d][x], d + 1) if up else (sum_down[d][x], x, d)
            if d == top:
                pairs.extend((a, b))
            remove(d - 1, a)
            remove(d, b)

    reduce()
    for v in range(len(left[0])):
        if left[0][v]:
            starts += 1
            remove(0, v)
            reduce()
    cached = K._cache["coreduction"] = (
        [np.frombuffer(bytes(mask), dtype=bool) for mask in left], starts,
        np.array(pairs, dtype=np.int64).reshape(-1, 2))
    cached[2].setflags(write=False)  # the masks read immutable bytes
    return cached


def betti_profile(K: SimplicialComplex) -> BettiProfile:
    """Exact Betti numbers over the rationals: reduce, then eliminate.
    Cached on the complex. A residual boundary over the cell budget
    (`complex_core.CELL_BUDGET`) is refused with `TooLarge`."""
    profile = K._cache.get("betti")
    if profile is not None:
        return profile
    alive, starts, _ = _coreduce(K)
    sizes = [int(mask.sum()) for mask in alive]
    for i in range(1, K.dim + 1):  # refuse before any allocation or elimination
        if sizes[i - 1] * sizes[i] > (budget := complex_core.CELL_BUDGET):
            raise TooLarge(f"dense {sizes[i - 1]} x {sizes[i]} residual boundary "
                           f"has more int64 cells than the cell budget of {budget}")
    residual = [0]
    for i in range(1, K.dim + 1):
        A = chains.dense_boundary(K, i, alive)
        residual.append(integer_rank(A) if A.any() else 0)
    residual.append(0)
    betti = [sizes[i] - residual[i] - residual[i + 1] for i in range(K.dim + 1)]
    betti[0] += starts  # the vertices the reduction started from
    # ranks of the boundary maps of K itself, top-down from its face counts
    ranks = [0] * (K.dim + 2)
    for i in range(K.dim, 0, -1):
        ranks[i] = K.n_faces(i) - betti[i] - ranks[i + 1]
    chi = euler_characteristic(K)
    chi_betti = sum((-1) ** i * b for i, b in enumerate(betti))
    if chi != chi_betti:
        raise AssertionError(
            f"Euler identity violated: {chi} != {chi_betti} on {K!r}")
    profile = K._cache["betti"] = BettiProfile(tuple(betti), chi,
                                               tuple(ranks[:-1]))
    return profile


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of the face counts."""
    return sum((-1) ** i * K.n_faces(i) for i in range(K.dim + 1))


def _gram_spectrum(K: SimplicialComplex, j: int) -> np.ndarray:
    """Eigenvalues, ascending, of the smaller Gram matrix of the j-th
    signed boundary: ``L_up`` on S_{j-1} when |S_{j-1}| <= |S_j|, else
    ``L_down`` on S_j. Both have the nonzero spectrum of the boundary's
    squared singular values. Cached on the complex."""
    key = ("gram_eigs", j)
    eigs = K._cache.get(key)
    if eigs is None:
        if K.n_faces(j - 1) <= K.n_faces(j):
            gram = chains.laplacian(K, j - 1, "L_up")
        else:
            gram = chains.laplacian(K, j, "L_down")
        eigs = K._cache[key] = np.linalg.eigvalsh(gram)
        eigs.setflags(write=False)
    return eigs


def hodge_betti(K: SimplicialComplex, i: int) -> int:
    """Betti number as the kernel dimension of the full signed Laplacian
    L_i = d_i^T d_i + d_{i+1} d_{i+1}^T, in floating point.

    Since d_i d_{i+1} = 0, the spectrum of L_i is the nonzero spectrum of
    d_i^T d_i, that of d_{i+1} d_{i+1}^T, and beta_i zeros; and A A^T has
    the nonzero spectrum of A^T A. So the answer is |S_i| less the number
    of eigenvalues at least `ZERO_TOL` in the cached spectra of the
    smaller Gram matrices of d_i and d_{i+1} (those that exist): a battery
    over every i solves one matrix per boundary, of side
    min(|S_{j-1}|, |S_j|). Raises `SpectrumAmbiguous` if an eigenvalue of
    either spectrum falls inside the guard band [ZERO_TOL, 100*ZERO_TOL),
    and `TooLarge` when |S_i| exceeds `chains.DENSE_LIMIT`. Cross-check
    only; `betti_profile` is the source of truth.
    """
    if not (is_integer(i) and 0 <= i <= K.dim):
        raise DimensionOutOfRange(f"i={i} outside [0, {K.dim}]")
    n_i = K.n_faces(i)
    if n_i > chains.DENSE_LIMIT:
        raise TooLarge(f"dense Hodge spectrum refused for {n_i} faces of "
                       f"dimension {i}")
    spectra = [_gram_spectrum(K, j) for j in (i, i + 1) if 1 <= j <= K.dim]
    eigs = np.concatenate(spectra) if spectra else np.zeros(0)
    band = eigs[(eigs >= ZERO_TOL) & (eigs < 100 * ZERO_TOL)]
    if band.size:
        raise SpectrumAmbiguous(
            f"eigenvalue {band.min():.3e} inside [{ZERO_TOL:.1e}, {100 * ZERO_TOL:.1e})")
    return n_i - int((eigs >= ZERO_TOL).sum())


def _require_pure(K: SimplicialComplex) -> None:
    if not K.is_pure():
        raise NotPure("operation requires a pure complex")


def is_basic_hole(K: SimplicialComplex) -> bool:
    """Whether K carries exactly one top hole that every facet supports.

    True iff the top Betti number is 1 and deleting any single facet kills
    it, that is, iff the generator z of the top cycles is nonzero on every
    facet. The answer is False when the cached `betti_profile` has
    beta_top != 1. Otherwise z comes from the reduction that profile
    cached. For a removed top pair (a, b) of ridge and facet: in a
    coreduction pair b meets no other remaining ridge, and every other
    facet on a is removed later or remains; in a collapse pair every other
    facet on a was removed before, and z[b] = 0. So every cycle is a
    kernel vector of the residual top boundary extended by the equations
    of the paired ridges, z[b] = -s(a, b) * sum over F != b of s(a, F) z[F],
    solved in reverse removal order with the facets not yet solved at
    zero. These solutions form a space of dimension
    dim ker(residual) = beta_top = 1, so they are the cycles. Each z[b] is
    final once solved, so the first facet with z[b] = 0 answers False.
    """
    _require_pure(K)
    r = K.dim
    if r < 1:
        raise DimensionOutOfRange("basic holes need dimension >= 1")
    if betti_profile(K).betti[r] != 1:
        return False
    left, _, pairs = _coreduce(K)
    z = np.zeros(K.n_faces(r), dtype=object)
    z[left[r]] = _kernel_vector(chains.dense_boundary(K, r, left))
    ptr, cof, pos = chains.coface_index(K, r - 1)
    signs = 1 - 2 * (pos & 1)
    for a, b in zip(*pairs[::-1].T.tolist()):
        row = slice(ptr[a], ptr[a + 1])  # the facets on ridge a
        cols, s = cof[row].tolist(), signs[row].tolist()
        # z[b] is still 0 in the sum
        z[b] = -s[cols.index(b)] * sum(x * z[c] for x, c in zip(s, cols))
        if not z[b]:
            return False
    return all(z)


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
    connected = chains.is_path_connected(K, r - 1)
    degrees_ok = bool(np.bincount(chains.boundary_index_table(K, r).ravel(),
                                  minlength=K.n_faces(r - 1)).min() >= 2)
    deletion_ok = bool(chains.up_connected_after_deletion(K, r - 1).all())
    return BasicHoleReport(connected, degrees_ok, deletion_ok)
