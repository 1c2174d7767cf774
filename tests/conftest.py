from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import strategies as st

from qcomplex import from_facets, laplacian


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
    faces = []
    for size in (2, 3, 4):
        pool = list(combinations(range(n), size))
        picks = draw(st.sets(st.integers(0, len(pool) - 1), max_size=5))
        faces.extend(pool[k] for k in picks)
    if not faces:
        faces = [(0, 1)]
    return n, faces


def mixed_complexes(max_n=6):
    """Random complexes with facets of mixed dimensions (1 to 3)."""
    return mixed_candidates(max_n).map(lambda c: from_facets(*c))


def dense_q_up_spectrum(K, i):
    """Oracle: all eigenvalues of the i-up signless Laplacian, ascending,
    from one dense solve."""
    return np.linalg.eigvalsh(laplacian(K, i, "Q_up"))


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
