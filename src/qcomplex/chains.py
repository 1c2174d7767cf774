"""Signed and signless boundary matrices and the Laplace operators.

Faces are oriented by ascending vertex order, so the signed boundary of a
column face carries the sign (-1)^j on the row face obtained by omitting
its j-th vertex. The signless variants replace every sign with +1.

Each complex holds one incidence per dimension, cached on it: the
face-index table `boundary_index_table` and the CSR matrices
`boundary_csr` built from it (signless, and signed on request). The
neighbour queries of `SimplicialComplex`, `homology`, `spectra` and
`extremal` all read this incidence. On top of it sit

* explicit sparse operators (`signed_boundary`, `signless_boundary`,
  `laplacian`) for desk-scale instances, and
* operator applications (`apply_q_up`, `apply_q_down`, `boundary_sums`)
  that never form a Laplacian. The large-n eigensolver runs on
  `apply_q_up`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complex_core import Face, SimplicialComplex
from .errors import DimensionOutOfRange, LengthMismatch, TooLarge, BadParams

#: Explicit dense matrices are only materialized up to this side length.
DENSE_LIMIT = 4096

LAPLACIAN_KINDS = ("L_up", "L_down", "L_full", "Q_up", "Q_down")


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse boundary map from i-chains to (i-1)-chains.

    Triplets are ordered by (row, col); values are +-1 when signed and 1
    when signless. Every column holds exactly i+1 nonzeros.
    """

    rows: tuple[Face, ...]
    cols: tuple[Face, ...]
    row_indices: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    signed: bool

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def tocsr(self, dtype=np.float64) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values.astype(dtype), (self.row_indices, self.col_indices)),
            shape=self.shape)

    def toarray(self) -> np.ndarray:
        if max(self.shape) > DENSE_LIMIT:
            raise TooLarge(f"dense form refused for shape {self.shape}")
        out = np.zeros(self.shape, dtype=np.int64)
        out[self.row_indices, self.col_indices] = self.values
        return out

    def write_triplets(self, path) -> None:
        """Dump as text: header ``rows cols nnz`` then ``i j value`` lines."""
        order = np.lexsort((self.col_indices, self.row_indices))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.shape[0]} {self.shape[1]} {self.nnz}\n")
            for k in order:
                fh.write(f"{self.row_indices[k]} {self.col_indices[k]} "
                         f"{self.values[k]}\n")


def _check_boundary_dim(K: SimplicialComplex, i: int) -> None:
    if not 1 <= i <= K.dim:
        raise DimensionOutOfRange(f"boundary map needs 1 <= i <= {K.dim}, got {i}")


def boundary_index_table(K: SimplicialComplex, i: int) -> np.ndarray:
    """Array of shape (|S_i|, i+1): row k lists the indices (in S_{i-1})
    of the boundary faces of the k-th i-face, in vertex-omission order.

    Cached on the complex; the CSR boundaries and `boundary_sums` read it.
    """
    _check_boundary_dim(K, i)
    key = ("btab", i)
    tab = K._cache.get(key)
    if tab is None:
        lower = K._index[i - 1]
        rows = [
            [lower[F[:j] + F[j + 1:]] for j in range(i + 1)]
            for F in K.faces(i)
        ]
        tab = np.array(rows, dtype=np.int64)
        K._cache[key] = tab
    return tab


def signed_boundary(K: SimplicialComplex, i: int) -> BoundaryMatrix:
    """Matrix of the i-th boundary map in the lexicographic face bases."""
    return _boundary(K, i, signed=True)


def signless_boundary(K: SimplicialComplex, i: int) -> BoundaryMatrix:
    """Same support as the signed boundary with every entry equal to 1."""
    return _boundary(K, i, signed=False)


def boundary_csr(K: SimplicialComplex, i: int,
                 signed: bool = False) -> sp.csr_matrix:
    """The i-th boundary (signless by default) as a float64 CSR matrix,
    cached on the complex."""
    key = ("csr", i, signed)
    B = K._cache.get(key)
    if B is None:
        B = K._cache[key] = _boundary(K, i, signed).tocsr()
    return B


def _boundary(K: SimplicialComplex, i: int, signed: bool) -> BoundaryMatrix:
    tab = boundary_index_table(K, i)
    n_cols, width = tab.shape
    col_indices = np.repeat(np.arange(n_cols, dtype=np.int64), width)
    row_indices = tab.reshape(-1)
    if signed:
        values = np.tile(np.array([(-1) ** j for j in range(width)],
                                  dtype=np.int64), n_cols)
    else:
        values = np.ones(n_cols * width, dtype=np.int64)
    return BoundaryMatrix(K.faces(i - 1), K.faces(i),
                          row_indices, col_indices, values, signed)


@dataclass(frozen=True)
class LaplacianOperator:
    """Symmetric PSD operator on the space spanned by the i-faces."""

    kind: str
    dim_index: int
    matrix: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def apply(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=np.float64)
        if f.shape != (self.shape[1],):
            raise LengthMismatch(f"vector length {f.shape} vs {self.shape}")
        return self.matrix @ f

    def toarray(self) -> np.ndarray:
        if max(self.shape) > DENSE_LIMIT:
            raise TooLarge(f"dense form refused for shape {self.shape}")
        return self.matrix.toarray()


def laplacian(K: SimplicialComplex, i: int, kind: str) -> LaplacianOperator:
    """Explicit operator of the requested kind on the i-faces.

    ``L_*`` kinds use the signed boundary, ``Q_*`` the signless one;
    ``L_full`` is the sum of the up and down parts (terms that do not
    exist at the boundary dimensions are zero).
    """
    if kind not in LAPLACIAN_KINDS:
        raise BadParams(f"kind must be one of {LAPLACIAN_KINDS}, got {kind!r}")
    if not 0 <= i <= K.dim:
        raise DimensionOutOfRange(f"i={i} outside [0, {K.dim}]")
    if kind in ("L_up", "Q_up") and i >= K.dim:
        raise DimensionOutOfRange(f"{kind} needs i < dim = {K.dim}")
    if kind in ("L_down", "Q_down") and i < 1:
        raise DimensionOutOfRange(f"{kind} needs i >= 1")

    def up(signed: bool) -> sp.csr_matrix:
        B = boundary_csr(K, i + 1, signed)
        return (B @ B.T).tocsr()

    def down(signed: bool) -> sp.csr_matrix:
        B = boundary_csr(K, i, signed)
        return (B.T @ B).tocsr()

    if kind == "Q_up":
        M = up(signed=False)
    elif kind == "Q_down":
        M = down(signed=False)
    elif kind == "L_up":
        M = up(signed=True)
    elif kind == "L_down":
        M = down(signed=True)
    else:  # L_full
        n_i = K.n_faces(i)
        M = sp.csr_matrix((n_i, n_i), dtype=np.float64)
        if i < K.dim:
            M = M + up(signed=True)
        if i >= 1:
            M = M + down(signed=True)
        M = M.tocsr()
    return LaplacianOperator(kind, i, M)


def up_connected(K: SimplicialComplex, i: int, skip: int | None = None) -> bool:
    """Whether the i-faces are connected through shared (i+1)-faces, with
    the (i+1)-face of index ``skip`` left out when given.

    Components of the bipartite incidence graph of i- and (i+1)-faces.
    """
    from scipy.sparse.csgraph import connected_components

    B = boundary_csr(K, i + 1)
    if skip is not None:
        B = B[:, np.arange(B.shape[1]) != skip]
    _, labels = connected_components(sp.bmat([[None, B], [B.T, None]]),
                                     directed=False)
    return bool((labels[:B.shape[0]] == labels[0]).all())


# -- operator applications ----------------------------------------------------


def _as_vector(K: SimplicialComplex, i: int, f) -> np.ndarray:
    v = np.asarray(f, dtype=np.float64)
    want = K.n_faces(i)
    if v.shape != (want,):
        raise LengthMismatch(f"expected length {want} over S_{i}, got {v.shape}")
    return v


def boundary_sums(K: SimplicialComplex, i: int, f) -> np.ndarray:
    """Vector over S_{i+1} of boundary sums: entry F-bar is sum of f over
    the i-faces of F-bar."""
    v = _as_vector(K, i, f)
    tab = boundary_index_table(K, i + 1)
    return v[tab].sum(axis=1)


def apply_q_up(K: SimplicialComplex, i: int, f) -> np.ndarray:
    """Application of the i-up signless Laplace operator as B (B^T f).

    Entry F of the result is the sum, over the (i+1)-faces containing F,
    of the boundary sum of ``f`` on that coface. Agrees with the explicit
    operator to machine precision.
    """
    B = boundary_csr(K, i + 1)
    return B @ (B.T @ _as_vector(K, i, f))


def apply_q_down(K: SimplicialComplex, i: int, g) -> np.ndarray:
    """Application of the i-down signless Laplace operator as B^T (B g)."""
    B = boundary_csr(K, i)
    return B.T @ (B @ _as_vector(K, i, g))


def quadratic_form(K: SimplicialComplex, i: int, f, g) -> float:
    """Sum over the (i+1)-faces of the product of boundary sums of f and g.

    Coincides with the inner product of ``Q_i_up f`` against ``g``.
    """
    sf = boundary_sums(K, i, f)
    sg = boundary_sums(K, i, g)
    return float(sf @ sg)
