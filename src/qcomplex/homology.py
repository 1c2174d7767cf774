"""Exact Betti numbers, the Euler identity, and basic-hole predicates.

Betti numbers are computed by collapse, then coreduce, then eliminate.
Elementary collapses remove a face that has exactly one coface together
with that coface; this keeps the homotopy type. Coreduction (Mrozek and
Batko, Discrete Comput. Geom. 41, 2009) is its dual: after one vertex of
each connected component is removed, which lowers beta_0 by the number of
components, a face with exactly one remaining boundary face is removed
together with that face; the remaining faces form an S-complex with the
same homology. The ranks of its boundary matrices, and the residual
kernel vector from which `is_basic_hole` builds the top cycle, come from
one fraction-free (Bareiss) integer elimination: no tolerance and no
rational arithmetic.

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

import numpy as np

from . import chains
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
# (update magnitude <= 2*M^2 must fit in int64).
_INT64_GUARD = np.int64(1) << 31

#: Largest dense int64 residual boundary matrix, in bytes, that
#: `betti_profile` and `is_basic_hole` allocate after collapse and
#: coreduction; larger ones raise `TooLarge`. `integer_rank` holds about
#: three more working copies, so the peak is about four times this. Tents
#: collapse to a handful of faces at any size, the 59-simplex's 2-skeleton
#: (no free face) coreduces to 32509 top faces with zero boundary in each
#: component, and a sphere coreduces to one top face, whose kernel vector
#: `is_basic_hole` extends to the cycle without any other matrix.
DENSE_BYTES_LIMIT = 256 * 2**20


def _integer_matrix(A) -> np.ndarray:
    """A as an int64 array, or as an object array of Python ints when
    some entry lies outside int64; refuses any non-integral entry."""
    M = np.asarray(A)
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

    Runs vectorized in int64 and falls back to Python big integers for
    the remaining submatrix if entries approach the overflow guard, or
    from the start when an entry lies outside int64. Integral floats are
    accepted; any other non-integral entry raises `BadParams`.
    """
    M = _integer_matrix(A)
    if M.ndim != 2 or 0 in M.shape:
        return 0
    if M.dtype == object:
        return len(_python_bareiss(M.tolist(), 1)[1])
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
            return rank + len(_python_bareiss(M[row:, col:].tolist(),
                                              int(prev))[1])
        piv = M[row, col]
        below = M[row + 1:]
        if below.size:
            factor = below[:, col].copy()
            below[:] = (below * piv - np.outer(factor, M[row])) // prev
        prev = piv
        rank += 1
        row += 1
    return rank


def _python_bareiss(rows: list[list[int]], prev: int) -> tuple[list, list]:
    """Arbitrary-precision Bareiss on the remaining submatrix: its nonzero
    echelon rows (the same row space) and their pivot columns."""
    rows = [list(map(int, r)) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    for col in range(n):
        row = len(pivots)
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
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _kernel_vector(A) -> list[int]:
    """Primitive integer y != 0 with A y = 0: 1 at the first non-pivot
    column of the Bareiss echelon form, then back-substituted over the
    pivot rows, last first, scaling y by pivot / gcd instead of dividing."""
    rows, pivots = _python_bareiss(np.asarray(A).tolist(), 1)
    y = [0] * np.shape(A)[1]
    y[min(set(range(len(y))) - set(pivots))] = 1
    for row, p in zip(reversed(rows), reversed(pivots)):
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


def _coreduce(K: SimplicialComplex, alive: list[np.ndarray]
              ) -> tuple[list[np.ndarray], int, list[tuple[int, int]]]:
    """Masks, one per dimension, of the collapse residual left by
    coreduction, the number of connected components of that residual,
    and the removed (ridge, facet) pairs of the top dimension, as indices
    in K, in removal order.

    The least vertex of every component is removed first, which lowers
    beta_0 by the number of components. Then, while some face b has
    exactly one remaining boundary face a, the pair (a, b) is removed.
    Each face keeps the count and the index sum of its remaining boundary
    faces, so the sum names a once the count is 1. A removed face has
    count 0 (b reaches it by losing a), so it is never picked again. The
    collapse residual is a subcomplex, so the work runs in local indices
    over it alone.
    """
    top = K.dim
    idx = [np.flatnonzero(mask) for mask in alive]
    count, bsum, co_ptr, co_idx = [None], [None], [], []
    for d in range(1, top + 1):
        local = np.cumsum(alive[d - 1]) - 1
        tab = local[chains.boundary_index_table(K, d)[idx[d]]]
        count.append([d + 1] * len(idx[d]))
        bsum.append(tab.sum(axis=1).tolist())
        order = np.argsort(tab.reshape(-1), kind="stable")
        co_idx.append((order // (d + 1)).tolist())
        co_ptr.append(np.concatenate(
            ([0], np.cumsum(np.bincount(tab.reshape(-1),
                                        minlength=len(idx[d - 1]))))).tolist())
    # depth-first search for the least vertex of each component; an
    # edge's other end is its boundary index sum less the known end
    starts, seen = [], [False] * len(idx[0])
    for s in range(len(seen)):
        if seen[s]:
            continue
        starts.append(s)
        seen[s], todo = True, [s]
        while top and todo:
            x = todo.pop()
            for e in co_idx[0][co_ptr[0][x]:co_ptr[0][x + 1]]:
                y = bsum[1][e] - x
                if not seen[y]:
                    seen[y] = True
                    todo.append(y)
    removed = [list(starts)] + [[] for _ in range(top)]
    stack, pairs = [], []

    def drop(e: int, x: int) -> None:
        # face x of dimension e - 1 is gone: its cofaces lose a boundary face
        if e > top:
            return
        cnt, total = count[e], bsum[e]
        for c in co_idx[e - 1][co_ptr[e - 1][x]:co_ptr[e - 1][x + 1]]:
            cnt[c] -= 1
            total[c] -= x
            if cnt[c] == 1:
                stack.append((e, c))

    for v in starts:
        drop(1, v)
    while stack:
        d, b = stack.pop()
        if count[d][b] != 1:
            continue
        a = bsum[d][b]
        removed[d - 1].append(a)
        removed[d].append(b)
        if d == top:
            pairs.append((int(idx[d - 1][a]), int(idx[d][b])))
        if d > 1:
            count[d - 1][a] = 0
        drop(d, a)
        drop(d + 1, b)
    left = []
    for d in range(top + 1):
        mask = alive[d].copy()
        mask[idx[d][removed[d]]] = False
        left.append(mask)
    return left, len(starts), pairs


def _residual_boundary(K: SimplicialComplex, alive: list[np.ndarray],
                       i: int) -> np.ndarray:
    """Dense signed i-th boundary restricted to the surviving faces.

    Columns are the surviving i-faces and rows the surviving (i-1)-faces;
    entries on removed rows are dropped.
    """
    tab = chains.boundary_index_table(K, i)[alive[i]]
    n_rows = int(alive[i - 1].sum())
    _require_dense_fits(n_rows, tab.shape[0])
    rows = np.cumsum(alive[i - 1]) - 1
    cols, js = np.nonzero(alive[i - 1][tab])
    A = np.zeros((n_rows, tab.shape[0]), dtype=np.int64)
    A[rows[tab[cols, js]], cols] = 1 - 2 * (js & 1)
    return A


def betti_profile(K: SimplicialComplex) -> BettiProfile:
    """Exact Betti numbers over the rationals: collapse, coreduce, then
    eliminate. Cached on the complex."""
    profile = K._cache.get("betti")
    if profile is not None:
        return profile
    alive, components, _ = _coreduce(K, _collapse(K))
    sizes = [int(mask.sum()) for mask in alive]
    for i in range(1, K.dim + 1):  # refuse before any allocation or elimination
        _require_dense_fits(sizes[i - 1], sizes[i])
    residual = [0]
    for i in range(1, K.dim + 1):
        A = _residual_boundary(K, alive, i)
        residual.append(integer_rank(A) if A.any() else 0)
    residual.append(0)
    betti = [sizes[i] - residual[i] - residual[i + 1] for i in range(K.dim + 1)]
    betti[0] += components  # the vertices that started the coreduction
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
    return eigs


def hodge_betti(K: SimplicialComplex, i: int, zero_tol: float = 1e-8) -> int:
    """Betti number as the kernel dimension of the full signed Laplacian
    L_i = d_i^T d_i + d_{i+1} d_{i+1}^T, in floating point.

    Since d_i d_{i+1} = 0, the spectrum of L_i is the nonzero spectrum of
    d_i^T d_i, that of d_{i+1} d_{i+1}^T, and beta_i zeros; and A A^T has
    the nonzero spectrum of A^T A. So the answer is |S_i| less the number
    of eigenvalues at least ``zero_tol`` in the cached spectra of the
    smaller Gram matrices of d_i and d_{i+1} (those that exist): a battery
    over every i solves one matrix per boundary, of side
    min(|S_{j-1}|, |S_j|). Raises `SpectrumAmbiguous` if an eigenvalue of
    either spectrum falls inside the guard band [zero_tol, 100*zero_tol),
    and `TooLarge` when |S_i| exceeds `chains.DENSE_LIMIT`. Cross-check
    only; `betti_profile` is the source of truth.
    """
    if not (is_integer(i) and 0 <= i <= K.dim):
        raise DimensionOutOfRange(f"i={i} outside [0, {K.dim}]")
    if not (isinstance(zero_tol, numbers.Real) and 0 < zero_tol < math.inf):
        raise BadParams(
            f"zero_tol must be a positive finite number, got {zero_tol!r}")
    n_i = K.n_faces(i)
    if n_i > chains.DENSE_LIMIT:
        raise TooLarge(f"dense Hodge spectrum refused for {n_i} faces of "
                       f"dimension {i}")
    spectra = [_gram_spectrum(K, j) for j in (i, i + 1) if 1 <= j <= K.dim]
    eigs = np.concatenate(spectra) if spectra else np.zeros(0)
    band = eigs[(eigs >= zero_tol) & (eigs < 100 * zero_tol)]
    if band.size:
        raise SpectrumAmbiguous(
            f"eigenvalue {band.min():.3e} inside [{zero_tol:.1e}, {100 * zero_tol:.1e})")
    return n_i - int((eigs >= zero_tol).sum())


def _require_pure(K: SimplicialComplex) -> None:
    if not K.is_pure():
        raise NotPure("operation requires a pure complex")


def is_basic_hole(K: SimplicialComplex) -> bool:
    """Whether K carries exactly one top hole that every facet supports.

    True iff the top Betti number is 1 and deleting any single facet kills
    it, that is, iff the generator z of the top cycles is nonzero on every
    facet. A top cycle vanishes on a facet removed by collapse (its free
    face meets no other remaining facet), so then the answer is False, as
    it is when the cached `betti_profile` has beta_top != 1. Otherwise z
    comes from coreduction. A facet b removed with ridge a meets no
    surviving ridge, and every other facet F on a is removed later or
    survives. So every cycle is a kernel vector of the residual top
    boundary extended by the equations of the paired ridges,
    z[b] = -s(a, b) * sum over F != b of s(a, F) z[F], solved in reverse
    removal order. These solutions form a space of dimension
    dim ker(residual) = beta_top = 1, so they are the cycles.
    """
    _require_pure(K)
    r = K.dim
    if r < 1:
        raise DimensionOutOfRange("basic holes need dimension >= 1")
    alive = _collapse(K)
    if not alive[r].all() or betti_profile(K).betti[r] != 1:
        return False
    left, _, pairs = _coreduce(K, alive)
    z = np.zeros(K.n_faces(r), dtype=object)
    z[left[r]] = _kernel_vector(_residual_boundary(K, left, r))
    B = chains.boundary_csr(K, r, signed=True)
    ptr, cols = B.indptr.tolist(), B.indices.tolist()
    signs = B.data.astype(np.int64).tolist()
    for a, b in reversed(pairs):
        span = range(ptr[a], ptr[a + 1])
        s_ab = next(signs[k] for k in span if cols[k] == b)
        z[b] = -s_ab * sum(signs[k] * z[cols[k]] for k in span)  # z[b] is 0
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
    connected = K.is_path_connected(r - 1)
    degrees_ok = bool(np.bincount(chains.boundary_index_table(K, r).ravel(),
                                  minlength=K.n_faces(r - 1)).min() >= 2)
    deletion_ok = bool(chains.up_connected_after_deletion(K, r - 1).all())
    return BasicHoleReport(connected, degrees_ok, deletion_ok)
