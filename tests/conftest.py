import re
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from qcomplex import from_facets
from qcomplex.errors import BadParams, BadVertexId


@pytest.fixture
def triangle():
    return from_facets(3, [(0, 1, 2)])


@pytest.fixture
def delta4():
    """Boundary of the tetrahedron: all four triples of {0,1,2,3}."""
    return from_facets(4, list(combinations(range(4), 3)))


@pytest.fixture
def two_triangles():
    return from_facets(6, [(0, 1, 2), (3, 4, 5)])


def suspension(m):
    """The suspension of an m-gon: 2m triangles forming a 2-sphere."""
    ring = [tuple(sorted((i, (i + 1) % m))) for i in range(m)]
    return from_facets(m + 2, [e + (apex,) for e in ring
                               for apex in (m, m + 1)])


@st.composite
def pure2_complexes(draw, min_n=4, max_n=6, max_facets=12):
    """Random nonempty triangle subsets on a small labeled vertex set."""
    n = draw(st.integers(min_n, max_n))
    triangles = list(combinations(range(n), 3))
    picks = draw(st.sets(st.integers(0, len(triangles) - 1),
                         min_size=1, max_size=min(max_facets, len(triangles))))
    return from_facets(n, [triangles[k] for k in picks])


@st.composite
def mixed_candidates(draw, max_n=6):
    """Vertex count and candidate faces of mixed dimensions (1 to 3)."""
    n = draw(st.integers(4, max_n))
    candidates = []
    for size in (2, 3, 4):
        pool = list(combinations(range(n), size))
        picks = draw(st.sets(st.integers(0, len(pool) - 1), max_size=5))
        candidates.extend(pool[k] for k in picks)
    return n, candidates or [(0, 1)]


def mixed_complexes(max_n=6):
    """Random complexes with facets of mixed dimensions (1 to 3)."""
    return mixed_candidates(max_n).map(lambda c: from_facets(*c))


def dense_q_up_spectrum(K, i):
    """Oracle: all eigenvalues of the i-up signless Laplacian, ascending,
    from one dense solve of B B^T at any size."""
    B = boundary_matrix(K, i + 1, signed=False)
    return np.linalg.eigvalsh((B @ B.T).toarray())


# -- faces by tuple: set scans over K.facets and K.rows, no incidence ---------

def faces(K, i):
    """Oracle: the i-faces as sorted vertex tuples, in row order."""
    return tuple(map(tuple, K.rows(i).tolist()))


def boundary_matrix(K, i, signed=True):
    """Oracle: the i-th boundary map in the lexicographic face bases, a
    float64 CSR matrix. The column of each i-face carries (-1)^j, or 1
    when not ``signed``, on the row of the face that omits its j-th
    vertex; rows are found in a dict of the (i-1)-face tuples."""
    row_of = {F: k for k, F in enumerate(faces(K, i - 1))}
    entries = [(row_of[F[:j] + F[j + 1:]], c, (-1) ** j if signed else 1)
               for c, F in enumerate(faces(K, i)) for j in range(i + 1)]
    rows, cols, values = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return sp.csr_matrix((values.astype(np.float64), (rows, cols)),
                         shape=(K.n_faces(i - 1), K.n_faces(i)))


def full_laplacian(K, i):
    """Oracle: the dense Hodge Laplacian L_up + L_down on the i-faces, from
    the products of the signed boundaries (a part that does not exist at
    the boundary dimensions is zero)."""
    L = np.zeros((K.n_faces(i), K.n_faces(i)))
    if i < K.dim:
        B = boundary_matrix(K, i + 1)
        L += (B @ B.T).toarray()
    if i >= 1:
        B = boundary_matrix(K, i)
        L += (B.T @ B).toarray()
    return L


def q_down(K, i):
    """Oracle: the dense i-down signless Laplacian B^T B, 1 <= i <= dim."""
    B = boundary_matrix(K, i, signed=False)
    return (B.T @ B).toarray()


def has_face(K, F):
    """Oracle: whether the tuple ``F`` is a face of K."""
    return 0 < len(F) <= K.dim + 1 and tuple(F) in faces(K, len(F) - 1)


def face_index(K, F):
    """Oracle: the position of the face ``F`` among the faces of its
    dimension; `ValueError` when it is no face."""
    return faces(K, len(F) - 1).index(tuple(F))


def _cofaces(K, F):
    """The (dim F + 1)-faces containing ``F``, as subsets of the facets."""
    return {G for f in K.facets for G in combinations(f, len(F) + 1)
            if set(F) <= set(G)}


def face_degree(K, F):
    """Oracle: the number of (dim F + 1)-faces containing ``F``."""
    return len(_cofaces(K, F))


def down_neighbors(K, F):
    """Oracle: the faces of F's dimension meeting ``F`` in all but one
    vertex, in sorted order."""
    i = len(F) - 1
    return [G for G in faces(K, i) if G != F and len(set(F) & set(G)) == i]


def down_neighbors_via_vertex(K, F, x):
    """Oracle: the down neighbours of ``F`` that swap one vertex of F for
    the vertex ``x`` outside it, in sorted order."""
    swapped = (tuple(sorted(set(F) - {drop} | {x})) for drop in F)
    return sorted(G for G in swapped if has_face(K, G))


def up_neighbors(K, F):
    """Oracle: the faces of F's dimension other than ``F`` in the boundary of
    some coface of ``F``, in sorted order."""
    return sorted({G for cof in _cofaces(K, F) for G in combinations(cof, len(F))
                   if G != F})


def _support(K):
    return sorted({v for f in K.facets for v in f})


def facet_fingerprint(K):
    """Label-invariant: the facet sizes, and for each used vertex the
    sizes of the facets through it."""
    profile = sorted(tuple(sorted(len(f) for f in K.facets if v in f))
                     for v in _support(K))
    return tuple(sorted(len(f) for f in K.facets)), tuple(profile)


def is_isomorphic(K1, K2):
    """Oracle: whether some bijection of the used vertices maps facets onto
    facets, by brute force over the permutations."""
    if facet_fingerprint(K1) != facet_fingerprint(K2):
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


def int64_token(tok):
    """``int`` narrowed to the labels `read_facets` parses: an optional sign,
    ASCII decimal digits, and a value in the int64 range."""
    if not re.fullmatch(r"[+-]?[0-9]+", tok) or not -2 ** 63 <= int(tok) < 2 ** 63:
        raise ValueError(f"not an int64 label: {tok!r}")
    return int(tok)


def read_facets_oracle(path, token=int):
    """Oracle: the per-line ``.facets`` reader, one tuple of ``token``-parsed
    labels per line, labels remapped through a Python dict."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    content = [ln for ln in map(str.strip, lines) if ln and not ln.startswith("#")]
    if not content or not content[0].startswith("n "):
        raise BadParams(f"{path}: expected leading 'n <integer>' line")
    try:
        n = int(content[0].split()[1])
    except (IndexError, ValueError):
        raise BadParams(f"{path}: malformed header {content[0]!r}") from None
    raw = []
    for ln in content[1:]:
        try:
            raw.append(tuple(map(token, ln.split())))
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


_PLAIN_LABELS = st.one_of(st.integers(0, 6), st.integers(0, 6),
                          st.integers(-2, 40)).map(str)
_ODD_LABELS = st.one_of(_PLAIN_LABELS, st.sampled_from(
    ["+3", "1_0", "3.0", "0x1", "#", "007", "\u0663", str(2 ** 63),
     str(-2 ** 63)]))


@st.composite
def facets_texts(draw):
    """``.facets`` texts: comments, blank lines, ragged widths, labels at or
    above n, negative and repeated labels; in a quarter of them also odd tokens
    (a sign, leading zeros, ``1_0``, ``3.0``, ``0x1``, a non-ASCII digit, the
    int64 limits) and a '#' in mid-line."""
    n = draw(st.one_of(st.integers(5, 9), st.integers(5, 9), st.integers(-1, 4)))
    header = draw(st.sampled_from([f"n {n}"] * 12 + [
        f"  n {n}  ", f"n {n} x", f"n\t{n}", "n", f"n {n}.0", "m 3"]))
    odd = draw(st.sampled_from([False, False, False, True]))
    facet = st.tuples(st.sampled_from([" ", "  ", "\t"]), st.lists(
        _ODD_LABELS if odd else _PLAIN_LABELS, min_size=1, max_size=4)).map(
        lambda sep_labels: sep_labels[0].join(sep_labels[1]))
    tail = facet.map(lambda ln: ln + " # tail") if odd else facet
    body = draw(st.lists(st.one_of(facet, facet, facet, tail, st.sampled_from(
        ["", "   ", "# note"])), min_size=1, max_size=10))
    lead = draw(st.lists(st.sampled_from(["", "# first", "  "]), max_size=2))
    return "\n".join(lead + [header] + body) + draw(st.sampled_from(["", "\n"]))
