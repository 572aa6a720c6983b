"""Structural-approximation maps and witness smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qent
from conftest import oracle_spa_pt_two_qubit, random_density
from qent import linalg, spa
from qent.errors import DimensionError, EigensolverError, NotAWitness, TraceViolation
from qent.linalg import (
    PSD_FLOOR,
    Spectrum,
    herm_eigenvalues,
    partial_transpose,
    validate_density,
)
from qent.measures import structured_negativity
from qent.spa import (
    spa_pt_d1d2,
    spa_pt_dd,
    spa_pt_qutrit_qubit,
    spa_pt_three_qubit,
    spa_pt_two_qubit,
    spa_witness,
)
from qent.states import qutrit_qubit_alpha_state


class TestBipartiteMaps:
    def test_two_qubit_equals_generic(self, rng):
        for _ in range(50):
            rho = random_density(rng, (2, 2))
            a = spa_pt_two_qubit(rho)
            b = spa_pt_dd(rho, 2)
            assert np.max(np.abs(a.rho_tilde.mat - b.rho_tilde.mat)) <= 1e-12
            assert a.threshold == b.threshold

    def test_dd_affine_spectrum(self, rng):
        for d in (2, 3):
            rho = random_density(rng, (d, d))
            lam_pt = herm_eigenvalues(partial_transpose(rho, 1)).eigenvalues
            lam_spa = herm_eigenvalues(spa_pt_dd(rho, d).rho_tilde.mat).eigenvalues
            expected = (d + lam_pt) / (d ** 3 + 1.0)
            assert np.max(np.abs(np.sort(lam_spa) - np.sort(expected))) <= 1e-10

    def test_dd_threshold_and_mixing(self, rng):
        s = spa_pt_dd(random_density(rng, (3, 3)), 3)
        assert abs(s.threshold - 3.0 / 28.0) <= 1e-15
        assert abs(s.mixing - 27.0 / 28.0) <= 1e-15

    def test_d1d2_threshold(self, rng):
        s = spa_pt_d1d2(random_density(rng, (2, 3)), 2, 3)
        assert abs(s.threshold - 3.0 / 13.0) <= 1e-15

    def test_three_qubit_affine_spectrum(self, rng):
        rho = random_density(rng, (2, 2, 2))
        for q in "ABC":
            s = spa_pt_three_qubit(rho, q)
            assert abs(s.mixing - 0.8) <= 1e-15
            assert abs(s.threshold - 0.1) <= 1e-15
            lam = herm_eigenvalues(s.rho_tilde.mat).eigenvalues
            full = rho.mat.reshape((2,) * 6)
            k = "ABC".index(q)
            perm = list(range(6))
            perm[k], perm[k + 3] = perm[k + 3], perm[k]
            pt = full.transpose(perm).reshape(8, 8)
            expected = 0.1 + 0.2 * herm_eigenvalues(pt).eigenvalues
            assert np.max(np.abs(np.sort(lam) - np.sort(expected))) <= 1e-10


def _spa_map(dims):
    d1, d2 = dims
    if d1 != d2:
        return lambda rho: spa_pt_d1d2(rho, d1, d2)
    return lambda rho: spa_pt_dd(rho, d1)


class TestTwoQubitOracle:
    def test_closed_form_oracle_equals_generic(self, rng):
        for _ in range(50):
            rho = random_density(rng, (2, 2))
            got = spa_pt_dd(rho, 2).rho_tilde.mat
            assert np.max(np.abs(oracle_spa_pt_two_qubit(rho.mat) - got)) <= 1e-12

    def test_traced_names_stay_importable(self):
        # bench/tracer.py wraps these by name.
        for module, name in ((linalg, "partial_transpose_qubit"),
                             (spa, "spa_pt_two_qubit"), (spa, "spa_pt_three_qubit")):
            assert getattr(module, name) is getattr(qent, name), name


class TestDerivedSpectrum:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)])
    def test_matches_direct_solve(self, rng, dims):
        for _ in range(5):
            out = _spa_map(dims)(random_density(rng, dims)).rho_tilde
            direct = herm_eigenvalues(out.mat).eigenvalues
            assert np.max(np.abs(out.spectrum.eigenvalues - direct)) <= 1e-12

    def test_two_qubit_closed_form_matches_direct_solve(self, rng):
        out = spa_pt_two_qubit(random_density(rng, (2, 2))).rho_tilde
        direct = herm_eigenvalues(out.mat).eigenvalues
        assert np.max(np.abs(out.spectrum.eigenvalues - direct)) <= 1e-12

    @pytest.mark.parametrize("qubit", "ABC")
    def test_three_qubit_cut_solves_once(self, rng, solve_sizes, qubit):
        rho = random_density(rng, (2, 2, 2))
        solve_sizes.clear()
        out = spa_pt_three_qubit(rho, qubit).rho_tilde
        assert solve_sizes == [8]
        direct = np.linalg.eigvalsh(out.mat)
        assert np.max(np.abs(out.spectrum.eigenvalues - direct)) <= 1e-12

    def test_spa_outputs_reuse_the_pt_solve(self, rng, solve_sizes):
        rho = random_density(rng, (2, 2))
        solve_sizes.clear()
        spa_pt_dd(rho, 2)
        spa_pt_two_qubit(rho)
        spa_pt_d1d2(rho, 2, 2)
        assert solve_sizes == [4]

    @pytest.mark.parametrize("make", [
        lambda rho: spa_pt_dd(rho, 3),
        lambda rho: spa_pt_d1d2(rho, 3, 3),
    ])
    def test_corrupted_pt_spectrum_raises(self, rng, make):
        rho = random_density(rng, (3, 3))
        spec = rho.pt_spectrum
        lam = spec.eigenvalues.copy()
        lam[0] += 1e-6
        # The cache entry both parties of a bipartite state share.
        rho._pt_spectra[1] = Spectrum(lam, spec.residual, spec.vectors)
        with pytest.raises(EigensolverError):
            make(rho)

    def test_two_qubit_map_is_checked_against_the_pt(self, rng):
        rho = random_density(rng, (2, 2))
        rho._pt_spectra[1] = random_density(rng, (2, 2)).pt_spectrum
        with pytest.raises(EigensolverError):
            spa_pt_two_qubit(rho)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([2, 3, 4]), st.integers(min_value=1, max_value=16))
    def test_output_is_a_valid_state(self, seed, d, rank):
        # Low ranks put the input on the boundary of the state space.
        rng = np.random.default_rng(seed)
        n = d * d
        a = rng.normal(size=(n, min(rank, n))) + 1j * rng.normal(size=(n, min(rank, n)))
        rho = validate_density(a @ a.conj().T / np.linalg.norm(a) ** 2, [d, d])
        out = spa_pt_dd(rho, d).rho_tilde
        again = validate_density(out.mat, [d, d])
        assert again.spectrum.eigenvalues[0] >= PSD_FLOOR
        assert np.max(np.abs(again.spectrum.eigenvalues - out.spectrum.eigenvalues)) <= 1e-12
        assert structured_negativity(rho).value >= 0.0


class TestQutritQubitMap:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_printed_entry_closed_forms(self, alpha):
        t = spa_pt_qutrit_qubit(qutrit_qubit_alpha_state(alpha)).rho_tilde.mat
        closed = {
            (0, 0): 54.0 / 384.0 + 7.0 * alpha / 384.0,
            (0, 2): 9.0 / 128.0,
            (0, 4): -9.0 / 128.0 + 3.0 * alpha / 128.0,
            (0, 5): alpha / 24.0,
            (1, 1): 9.0 / 64.0 + 23.0 * alpha / 384.0,
            (1, 3): 9.0 / 128.0,
            (1, 5): -9.0 / 128.0 + 3.0 * alpha / 128.0,
            (2, 2): 77.0 / 384.0 - 23.0 * alpha / 384.0,
            (2, 4): 3.0 / 64.0 + 3.0 * alpha / 128.0,
            (3, 3): 61.0 / 384.0 - 7.0 * alpha / 384.0,
            (3, 4): (1.0 - alpha) / 24.0,
            (3, 5): 3.0 / 64.0 + 3.0 * alpha / 128.0,
            (4, 4): 61.0 / 384.0 + alpha / 24.0,
            (5, 5): 77.0 / 384.0 - alpha / 24.0,
        }
        for (i, j), v in closed.items():
            assert abs(t[i, j] - v) <= 1e-12, (i, j)
            assert abs(t[j, i] - np.conj(t[i, j])) <= 1e-12
        assert abs(np.trace(t) - 1.0) <= 1e-12

    def test_output_is_valid_state(self):
        s = spa_pt_qutrit_qubit(qutrit_qubit_alpha_state(0.3))
        lam = herm_eigenvalues(s.rho_tilde.mat).eigenvalues
        assert lam[0] >= -1e-12

    @pytest.mark.parametrize("alpha", [i / 20 for i in range(21)])
    def test_family_outputs_revalidate_with_the_same_spectrum(self, solve_sizes, alpha):
        rho = qutrit_qubit_alpha_state(alpha)
        solve_sizes.clear()
        out = spa_pt_qutrit_qubit(rho).rho_tilde
        # Wrapped unchecked: solved on first use, not by the map.
        assert solve_sizes == []
        again = validate_density(out.mat, [3, 2])
        assert np.max(np.abs(out.spectrum.eigenvalues - again.spectrum.eigenvalues)) <= 1e-12

    def test_state_outside_the_family_is_refused(self, rng):
        with pytest.raises(TraceViolation):
            spa_pt_qutrit_qubit(random_density(rng, (3, 2)))


class TestWitnessSmoothing:
    def test_symmetric_family_witness_matrix(self):
        f = 0.25 + 0.25j
        k = -f / abs(f)
        psi = np.array([k, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
        w = partial_transpose(np.outer(psi, psi.conj()), 1, dims=[2, 2])
        sw = spa_witness(w, 2, 2)
        assert abs(sw.p - 1.0 / 3.0) <= 1e-12
        expected = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
        expected[1, 2] = k / 6.0
        expected[2, 1] = np.conj(k) / 6.0
        assert np.max(np.abs(sw.w_tilde - expected)) <= 1e-12
        assert abs(sw.r_bound - 1.0 / 6.0) <= 1e-12

    def test_rejects_psd_operator(self):
        with pytest.raises(NotAWitness):
            spa_witness(np.eye(4) / 4.0, 2, 2)

    def test_explicit_mixing_override(self):
        psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
        w = partial_transpose(np.outer(psi, psi.conj()), 1, dims=[2, 2])
        sw = spa_witness(w, 2, 2, p=0.25)
        assert abs(sw.p - 0.25) <= 1e-15
        lam = herm_eigenvalues(sw.w_tilde).eigenvalues
        assert lam[0] >= -1e-12


    def test_rejects_mixing_that_leaves_witness_negative(self):
        psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
        w = partial_transpose(np.outer(psi, psi.conj()), 1, dims=[2, 2])
        with pytest.raises(NotAWitness):
            spa_witness(w, 2, 2, p=0.9)

    def test_normalizes_a_witness_of_other_trace(self):
        psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
        w = partial_transpose(np.outer(psi, psi.conj()), 1, dims=[2, 2])
        unit, scaled = spa_witness(w, 2, 2), spa_witness(3.0 * w, 2, 2)
        assert abs(scaled.p - unit.p) <= 1e-15
        assert np.max(np.abs(scaled.w_tilde - unit.w_tilde)) <= 1e-15

    def test_rejects_a_zero_trace_witness(self):
        with pytest.raises(NotAWitness, match="zero trace"):
            spa_witness(np.diag([1.0, -1.0, 0.0, 0.0]), 2, 2)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_rejects_mixing_outside_the_unit_interval(self, p):
        psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
        w = partial_transpose(np.outer(psi, psi.conj()), 1, dims=[2, 2])
        with pytest.raises(DimensionError, match="mixing p"):
            spa_witness(w, 2, 2, p=p)

    def test_rejects_a_witness_of_the_wrong_shape(self):
        with pytest.raises(DimensionError, match="does not match 2x3"):
            spa_witness(np.eye(4) / 4.0, 2, 3)

    def test_solves_once(self, solve_sizes):
        psi = np.array([1.0, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
        w = partial_transpose(np.outer(psi, psi.conj()), 1, dims=[2, 2])
        spa_witness(w, 2, 2)
        assert solve_sizes == [4]


class TestLinearity:
    def test_spa_is_affine_on_mixtures(self, rng):
        # SPA of a convex mixture equals the convex mixture of the SPAs.
        for maker, dims in ((lambda r: spa_pt_dd(r, 2), (2, 2)),
                            (lambda r: spa_pt_three_qubit(r, "B"), (2, 2, 2))):
            r1 = random_density(rng, dims)
            r2 = random_density(rng, dims)
            for p in (0.0, 0.3, 0.7, 1.0):
                mix = validate_density(p * r1.mat + (1 - p) * r2.mat, list(dims))
                lhs = maker(mix).rho_tilde.mat
                rhs = p * maker(r1).rho_tilde.mat + (1 - p) * maker(r2).rho_tilde.mat
                assert np.max(np.abs(lhs - rhs)) <= 1e-12
