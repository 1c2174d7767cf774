import math
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings

from qcomplex import (
    apply_q_down,
    apply_q_up,
    from_facets,
    perron_vector,
    rayleigh_quotient,
    second_order_identity_check,
    spectral_radius,
    tent_plus_common_edge,
    tented,
    transfer_to_down,
)
from qcomplex.errors import (
    BadParams,
    DimensionOutOfRange,
    NoConvergence,
    NotPathConnected,
    ResidualTooLarge,
)
from qcomplex import chains, spectra
from qcomplex.spectra import DEGENERACY_GAP, SpectralResult

from conftest import dense_q_up_spectrum, pure2_complexes, q_down


def twin_tents(n, extra_face):
    """Two disjoint n-vertex tents, optionally with one more face on the
    second."""
    first = [(0, a, b) for a, b in combinations(range(1, n), 2)]
    second = [(n, n + a, n + b) for a, b in combinations(range(1, n), 2)]
    extra = [(n + 1, n + 2, n + 3)] if extra_face else []
    return from_facets(2 * n, first + second + extra)


class TestSpectralRadius:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_tented_formula(self, n):
        res = spectral_radius(tented(n, 2), 1)
        assert res.value == pytest.approx(2 * n - 3, abs=1e-8)

    def test_single_triangle(self, triangle):
        # the operator is the 3x3 all-ones matrix
        res = spectral_radius(triangle, 1)
        assert res.value == pytest.approx(3.0, abs=1e-10)

    def test_delta4_by_symmetry(self, delta4):
        res = spectral_radius(delta4, 1)
        assert res.value == pytest.approx(6.0, abs=1e-10)
        # oracle: dense solve of the explicit operator
        assert res.value == pytest.approx(dense_q_up_spectrum(delta4, 1)[-1],
                                          abs=1e-10)

    def test_lanczos_matches_dense(self):
        K = tent_plus_common_edge(40, 2)
        assert K.n_faces(1) > chains.DENSE_LIMIT
        lanczos = spectral_radius(K, 1)
        assert lanczos.value == pytest.approx(dense_q_up_spectrum(K, 1)[-1],
                                              abs=1e-9)
        assert lanczos.iterations > 0
        assert lanczos.residual <= 1e-10
        assert not lanczos.degenerate

    def test_residual_bound_respected(self, monkeypatch):
        monkeypatch.setattr(chains, "DENSE_LIMIT", 0)
        res = spectral_radius(tented(12, 2), 1)
        assert res.iterations > 0 and res.residual <= spectra.RESIDUAL_TOL

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(chains, "DENSE_LIMIT", 0)
        monkeypatch.setattr(spectra, "LANCZOS_MIN_APPLICATIONS", 2)
        monkeypatch.setattr(spectra, "LANCZOS_APPLICATIONS_PER_FACE", 0)
        with pytest.raises(NoConvergence) as exc:
            spectral_radius(tented(10, 2), 1)
        assert exc.value.iterations == 2
        assert math.isfinite(exc.value.residual)

    def test_lanczos_guards(self, monkeypatch):
        # an eigensolver that never stops is cut at max(100, 10 |S_1|)
        # operator applications: 100 for 6 edges, 450 for 45
        def endless(A, v0, **kwargs):
            while True:
                v0 = A.matvec(v0)
                v0 /= np.linalg.norm(v0)

        monkeypatch.setattr(chains, "DENSE_LIMIT", 0)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", endless)
        for K, cap in ((tented(4, 2), 100), (tented(10, 2), 450)):
            with pytest.raises(NoConvergence) as exc:
                spectral_radius(K, 1)
            assert exc.value.iterations == cap
            assert math.isfinite(exc.value.residual)

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_bad_seed_refused(self, seed, method, monkeypatch):
        # numpy used to raise a bare ValueError or TypeError mid-solve
        monkeypatch.setattr(np.linalg, "eigh", None)
        monkeypatch.setattr(spectra, "_lanczos_top2", None)
        if method == "lanczos":
            monkeypatch.setattr(chains, "DENSE_LIMIT", 0)
        with pytest.raises(BadParams):
            spectral_radius(tent_plus_common_edge(8, 1), 1, seed=seed)

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_residual_is_taken_at_the_value(self, method, monkeypatch):
        # ||Q f - value f|| at the reported value on both paths; at the
        # dense eigh value it differs in the last bits on this tent
        if method == "lanczos":
            monkeypatch.setattr(chains, "DENSE_LIMIT", 0)
        K = tented(12, 2)
        res = spectral_radius(K, 1)
        assert (res.iterations > 0) == (method == "lanczos")
        f = res.vector
        assert res.residual == float(np.linalg.norm(apply_q_up(K, 1, f)
                                                    - res.value * f))

    def test_dense_residual_above_tol_refused(self, monkeypatch):
        # no eigensolve reaches a zero residual; the dense pair is refused
        # as it stands, with no Lanczos solve after it
        def lanczos(*args, **kwargs):
            raise AssertionError("Lanczos ran on a dense-size complex")
        monkeypatch.setattr(spectra, "_lanczos_top2", lanczos)
        monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NoConvergence) as exc:
            spectral_radius(tented(8, 2), 1)
        assert exc.value.iterations == 0
        assert 0 < exc.value.residual <= 1e-10

    def test_twin_tent_small_gap(self):
        # top gap about 1.6e-4: resolved, and not flagged as multiple
        K = twin_tents(40, extra_face=True)
        assert K.n_faces(1) == 1560
        dense = dense_q_up_spectrum(K, 1)
        res = spectral_radius(K, 1)
        assert res.value == pytest.approx(dense[-1], abs=1e-9)
        assert dense[-1] - dense[-2] > DEGENERACY_GAP
        assert not res.degenerate

    def test_identical_twin_tents_degenerate(self):
        K = twin_tents(40, extra_face=False)
        dense = dense_q_up_spectrum(K, 1)
        assert dense[-1] - dense[-2] < DEGENERACY_GAP
        res = spectral_radius(K, 1)
        assert res.value == pytest.approx(dense[-1], abs=1e-9)
        assert res.degenerate

    def test_dimension_guard(self, triangle):
        with pytest.raises(DimensionOutOfRange):
            spectral_radius(triangle, 2)

    def test_degenerate_top_flagged(self, two_triangles):
        # two disjoint triangles: eigenvalue 3 with multiplicity two
        res = spectral_radius(two_triangles, 1)
        assert res.degenerate

    def test_monotone_rayleigh_sequence(self):
        # the power-iteration Rayleigh readout is nondecreasing on PSD input
        K = tent_plus_common_edge(9, 2)
        n1 = K.n_faces(1)
        rng = np.random.default_rng(3)
        f = rng.uniform(0.5, 1.5, n1)
        f /= np.linalg.norm(f)
        last = -math.inf
        for _ in range(60):
            theta = float(f @ apply_q_up(K, 1, f))
            assert theta >= last - 1e-9 * max(1.0, abs(theta))
            last = theta
            g = apply_q_up(K, 1, f)
            f = g / np.linalg.norm(g)

    @given(pure2_complexes())
    @settings(max_examples=20, deadline=None)
    def test_rayleigh_quotient_below_radius(self, K):
        res = spectral_radius(K, 1)
        rng = np.random.default_rng(1)
        for _ in range(3):
            f = rng.standard_normal(K.n_faces(1))
            assert rayleigh_quotient(K, 1, f) <= res.value + 1e-8

    def test_rayleigh_quotient_of_zero_vector_refused(self):
        K = tented(5, 1)
        with pytest.raises(BadParams, match="zero vector"):
            rayleigh_quotient(K, 0, np.zeros(K.n_faces(0)))

    def test_subcomplex_monotonicity(self):
        # growing chain of full-edge-set complexes on six vertices
        chain = [tented(6, 2), tent_plus_common_edge(6, 1),
                 tent_plus_common_edge(6, 2), tent_plus_common_edge(6, 3)]
        values = [spectral_radius(K, 1).value for K in chain]
        for small, big in zip(values, values[1:]):
            assert big >= small - 1e-10


class TestPerronVector:
    def test_delta4_constant_vector(self, delta4):
        res = perron_vector(delta4, 1)
        assert np.allclose(res.vector, 1.0 / math.sqrt(6.0), atol=1e-9)

    def test_max_boundary_sum_normalization(self):
        K = tented(5, 2)
        res = perron_vector(K, 1, "max_boundary_sum_one")
        from qcomplex import boundary_sums
        sums = boundary_sums(K, 1, res.vector)
        assert sums.max() == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_rejected(self, two_triangles):
        with pytest.raises(NotPathConnected):
            perron_vector(two_triangles, 1)

    def test_strictly_positive(self):
        res = perron_vector(tent_plus_common_edge(7, 2), 1)
        assert res.vector.min() > 0

    @pytest.mark.parametrize("seed", [-1, 2.0])
    def test_bad_seed_refused(self, seed, two_triangles):
        # refused before the connectivity check
        with pytest.raises(BadParams):
            perron_vector(two_triangles, 1, seed=seed)

    def test_bad_normalization(self, delta4):
        with pytest.raises(BadParams):
            perron_vector(delta4, 1, "bogus")


class TestTransferToDown:
    def test_single_triangle(self, triangle):
        res = spectral_radius(triangle, 1)
        g = transfer_to_down(triangle, 1, res)
        # constant c on the edges transfers to 3c on the single facet,
        # an eigenvector of the 1x1 down operator [3]
        assert g.shape == (1,)
        assert g[0] == pytest.approx(3 * res.vector[0], abs=1e-9)
        assert apply_q_down(triangle, 2, g)[0] == pytest.approx(3 * g[0])

    def test_delta4_down_eigenvector(self, delta4):
        res = spectral_radius(delta4, 1)
        g = transfer_to_down(delta4, 1, res)
        # oracle: explicit 4x4 down operator via the dense boundary
        Qd = q_down(delta4, 2)
        assert np.abs(Qd @ g - 6.0 * g).max() <= 1e-9
        assert np.allclose(g, g[0])

    def test_tent_residual(self):
        K = tented(6, 2)
        res = spectral_radius(K, 1)
        g = transfer_to_down(K, 1, res)
        resid = (np.linalg.norm(apply_q_down(K, 2, g) - res.value * g)
                 / np.linalg.norm(g))
        assert resid <= 1e-7

    def test_rejects_sloppy_eigenpair(self, delta4):
        # the gate is the solver's RESIDUAL_TOL (1e-10), for both identities
        for residual in (1e-3, 1e-9):
            sloppy = SpectralResult(6.0, np.ones(6), residual, 1)
            for check in (transfer_to_down, second_order_identity_check):
                with pytest.raises(ResidualTooLarge):
                    check(delta4, 1, sloppy)

    def test_refuses_what_is_not_a_spectral_result(self, delta4):
        # the eigenpair gate reads .residual only after checking the type
        for result in (None, 6.0, (6.0, np.ones(6), 0.0, 0)):
            for check in (transfer_to_down, second_order_identity_check):
                with pytest.raises(BadParams, match="SpectralResult"):
                    check(delta4, 1, result)


class TestSecondOrderIdentity:
    def test_single_triangle_exact(self, triangle):
        res = spectral_radius(triangle, 1)
        assert second_order_identity_check(triangle, 1, res) <= 1e-12

    def test_delta4(self, delta4):
        res = spectral_radius(delta4, 1)
        assert second_order_identity_check(delta4, 1, res) <= 1e-10

    def test_tent8(self):
        K = tented(8, 2)
        res = spectral_radius(K, 1)
        assert second_order_identity_check(K, 1, res) <= 1e-8

    @given(pure2_complexes())
    @settings(max_examples=15, deadline=None)
    def test_scaled_error_small(self, K):
        res = spectral_radius(K, 1)
        err = second_order_identity_check(K, 1, res)
        assert err <= 1e-6 * res.value ** 2
