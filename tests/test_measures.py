"""Entanglement and coherence measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_concurrence_2q,
    random_density,
    random_product_density,
    random_pure,
    random_unitary,
)
from qent import linalg, measures
from qent.detect import criterion2, criterion3, ppt_check, realignment_check, reduction_check
from qent.errors import DimensionError, EigensolverError
from qent.linalg import (
    EIG_RESIDUAL_TOL,
    DensityMatrix,
    Spectrum,
    partial_trace,
    tensor,
    validate_density,
)
from qent.measures import (
    MeasureValue,
    concurrence_2q,
    concurrence_lb_chen,
    concurrence_pure,
    l1_coherence,
    negativity,
    structured_negativity,
    tangle_pure,
    three_pi,
)
from qent.spa import spa_pt_dd, spa_pt_two_qubit
from qent.states import (
    bell_phi_plus,
    projector,
    ghz_state,
    ghz_w_mixture,
    mems_state,
    two_qutrit_a_state,
    two_qutrit_alpha_state,
    w_state,
    werner_state,
    x_state,
)


class TestConcurrence:
    def test_bell_state(self):
        v = bell_phi_plus()
        rho = validate_density(np.outer(v, v.conj()), [2, 2])
        assert abs(concurrence_2q(rho).value - 1.0) <= 1e-12

    def test_mems_hits_target(self):
        for c in (0.1, 0.4, 2.0 / 3.0, 0.8, 1.0):
            assert abs(concurrence_2q(mems_state(c)).value - c) <= 1e-10

    def test_separable_is_zero(self, rng):
        for _ in range(10):
            rho = random_product_density(rng, (2, 2))
            assert concurrence_2q(rho).value <= 1e-9

    def test_symmetric_family_doubles_closed_form(self):
        # The spin-flip spectrum of the symmetric X family gives twice the
        # family's published closed form |f| - a.
        a, b, f = 0.1, 0.4, 0.25 + 0.25j
        got = concurrence_2q(x_state(a, b, f)).value
        assert abs(got - 2.0 * (abs(f) - a)) <= 1e-10

    def test_pure_matches_mixed_on_projectors(self, rng):
        from conftest import random_pure
        v = random_pure(rng, 4)
        rho = validate_density(np.outer(v, v.conj()), [2, 2])
        assert abs(concurrence_pure(v, 2, 2).value - concurrence_2q(rho).value) <= 1e-7

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_pure_product_states_are_zero(self, rng, d1, d2):
        # 1 - Tr(rho_A^2) once left 2.98e-8 on |0> (x) |+>.
        plus = np.ones(d2) / np.sqrt(d2)
        assert concurrence_pure(np.kron(np.eye(d1)[0], plus), d1, d2).value <= 1e-15
        for _ in range(20):
            v = np.kron(random_pure(rng, d1), random_pure(rng, d2))
            assert concurrence_pure(v, d1, d2).value <= 1e-15

    @pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 3), (4, 2)])
    def test_pure_matches_the_purity_formula(self, rng, d1, d2):
        for _ in range(20):
            v = random_pure(rng, d1 * d2).reshape(d1, d2)
            rho_a = v @ v.conj().T
            ref = np.sqrt(2.0 * (1.0 - np.trace(rho_a @ rho_a).real))
            assert abs(concurrence_pure(v.reshape(-1), d1, d2).value - ref) <= 1e-12


def _two_qubit_state(seed, rank, kind):
    """A two-qubit state of ``rank`` 1 to 4: a validated mixture of complex
    or real random kets, a mixture of product kets, or (rank 1) the
    projector of a ket.  The rank-deficient ones have zero eigenvalues that
    round to either sign."""
    rng = np.random.default_rng(seed)
    if kind == "projector":
        return projector(random_pure(rng, 4), [2, 2])
    if kind == "product":
        kets = [np.kron(random_pure(rng, 2), random_pure(rng, 2)) for _ in range(rank)]
        g = np.stack(kets, axis=1) * np.sqrt(rng.dirichlet(np.ones(rank)))
    else:
        g = rng.normal(size=(4, rank)) + (kind == "complex") * 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, [2, 2])


class TestConcurrenceKernel:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           rank=st.integers(min_value=1, max_value=4),
           kind=st.sampled_from(["complex", "real", "product", "projector"]))
    def test_the_column_scaling_has_the_bits_of_the_diagonal_matmul(self, seed, rank, kind):
        rho = _two_qubit_state(seed, rank, kind)
        solved = []
        solve = measures.herm_eigenvalues

        def recording(h):
            solved.append(h)
            return solve(h)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "herm_eigenvalues", recording)
            got = concurrence_2q(rho).value
        ref_solved, ref = oracle_concurrence_2q(rho)
        assert len(solved) == 1 and solved[0].tobytes() == ref_solved.tobytes()
        assert got.hex() == ref.hex()

    def test_pure_and_product_states_reach_both_ends(self):
        # The property's states include concurrence 1 and exact zeros.
        bell = projector(bell_phi_plus(), [2, 2])
        assert concurrence_2q(bell).value.hex() == oracle_concurrence_2q(bell)[1].hex()
        product = _two_qubit_state(3, 2, "product")
        assert concurrence_2q(product).value == oracle_concurrence_2q(product)[1] == 0.0


class TestNegativities:
    def test_werner_closed_form(self):
        for f in np.linspace(0.35, 1.0, 10):
            n = negativity(werner_state(f)).value
            ns = structured_negativity(werner_state(f)).value
            assert abs(n - (3 * f - 1) / 2.0) <= 1e-9
            assert abs(ns - (3 * f - 1) / 2.0) <= 1e-9

    def test_mems_branches(self):
        for c in (0.7, 0.85, 1.0):
            n = negativity(mems_state(c)).value
            ref = -1 + c + np.sqrt(1 - 2 * c + 2 * c * c)
            assert abs(n - ref) <= 1e-9
            assert abs(structured_negativity(mems_state(c)).value - ref) <= 1e-9
        for c in (0.1, 0.3, 0.6):
            n = negativity(mems_state(c)).value
            ref = (-1 + np.sqrt(1 + 9 * c * c)) / 3.0
            assert abs(n - ref) <= 1e-9
            assert abs(structured_negativity(mems_state(c)).value - ref) <= 1e-9

    def test_two_qutrit_a_family(self):
        for a in np.linspace(1 / np.sqrt(2), 1.0, 7):
            d = 5 + 2 * a * a
            ref = (np.sqrt(2) * a - 1 - a * a + np.sqrt(5 - 2 * a * a + a ** 4)) / d
            assert abs(negativity(two_qutrit_a_state(a)).value - ref) <= 1e-9
            assert abs(structured_negativity(two_qutrit_a_state(a)).value - 3.0 / d) <= 1e-9

    def test_two_qutrit_alpha_family(self):
        for al in np.linspace(4.0, 5.0, 6):
            ref = (np.sqrt(41 - 20 * al + 4 * al * al) - 5) / 14.0
            assert abs(negativity(two_qutrit_alpha_state(al)).value - ref) <= 1e-9
            assert abs(structured_negativity(two_qutrit_alpha_state(al)).value - ref) <= 1e-9

    def test_chen_bound_below_wootters(self, rng):
        for _ in range(20):
            rho = random_density(rng, (2, 2))
            assert concurrence_lb_chen(rho).value <= concurrence_2q(rho).value + 1e-9


class TestStructuredNegativityProperties:
    def test_p1_zero_on_separable(self, rng):
        for dims in ((2, 2), (3, 3)):
            for _ in range(10):
                rho = random_product_density(rng, dims)
                assert structured_negativity(rho).value <= 1e-9

    def test_p2_local_unitary_invariance(self, rng):
        # Structured negativity, negativity and the realignment trace norm
        # are all invariant under local unitaries U (x) V.
        for dims in ((2, 2), (3, 3)):
            rho = random_density(rng, dims)
            base = structured_negativity(rho).value
            base_neg = negativity(rho).value
            base_realign = rho.realign_norm
            for _ in range(3):
                u = tensor(random_unitary(rng, dims[0]), random_unitary(rng, dims[1]))
                rot = validate_density(u @ rho.mat @ u.conj().T, list(dims))
                assert abs(structured_negativity(rot).value - base) <= 1e-9
                assert abs(negativity(rot).value - base_neg) <= 1e-9
                assert abs(rot.realign_norm - base_realign) <= 1e-9

    def test_p3_convexity(self, rng):
        for dims in ((2, 2), (3, 3)):
            r1 = random_density(rng, dims)
            r2 = random_density(rng, dims)
            for p in (0.2, 0.5, 0.8):
                mix = validate_density(p * r1.mat + (1 - p) * r2.mat, list(dims))
                lhs = structured_negativity(mix).value
                rhs = (p * structured_negativity(r1).value
                       + (1 - p) * structured_negativity(r2).value)
                assert lhs <= rhs + 1e-9


class TestStructuredNegativityFromThePtSpectrum:
    @staticmethod
    def _states(rng, d):
        return ([random_density(rng, (d, d)) for _ in range(4)]
                + [random_product_density(rng, (d, d)) for _ in range(4)])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_the_spa_pt_output_bit_for_bit(self, rng, d):
        for rho in self._states(rng, d):
            spa = spa_pt_dd(rho, d)
            lam = float(spa.rho_tilde.spectrum.eigenvalues[0])
            want = d * (d ** 3 + 1) * max(spa.threshold - lam, 0.0)
            assert structured_negativity(rho).value.hex() == want.hex()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_cached_pt_spectrum_needs_no_lapack_call(self, rng, eigh_shapes, d):
        rho = random_density(rng, (d, d))
        rho.pt_spectrum
        eigh_shapes.clear()
        structured_negativity(rho)
        assert eigh_shapes == []

    @pytest.mark.parametrize("factor, raises", [(1.0 - 1e-9, False), (1.0 + 1e-6, True),
                                                 (float("nan"), True)])
    def test_the_pt_residual_is_held_to_the_spa_pt_bound(self, rng, factor, raises):
        # scale * residual against EIG_RESIDUAL_TOL * max(1, max |lambda_tilde|).
        d = 3
        rho = random_density(rng, (d, d))
        spec = rho.pt_spectrum
        scale = 1.0 / (d ** 3 + 1)
        lam_tilde = d * scale + scale * spec.eigenvalues
        bound = EIG_RESIDUAL_TOL * max(1.0, float(np.abs(lam_tilde).max()))
        # The cache entry both parties of a bipartite state share.
        rho._pt_spectra[1] = Spectrum(spec.eigenvalues, factor * bound / scale, spec.vectors)
        if raises:
            with pytest.raises(EigensolverError):
                structured_negativity(rho)
        else:
            structured_negativity(rho)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_pt_residual_within_the_tolerance_skips_the_bound(self, rng, monkeypatch, d):
        def refuse(residual, lam):
            raise AssertionError("per-matrix bound computed")

        rho = random_density(rng, (d, d))
        assert rho.pt_spectrum.residual <= EIG_RESIDUAL_TOL
        # Both names, so a bound reached through either module is refused.
        monkeypatch.setattr(linalg, "_check_residual", refuse)
        monkeypatch.setattr(measures, "_check_residual", refuse, raising=False)
        assert structured_negativity(rho).value >= 0.0


class TestThreeQubitMeasures:
    def test_tangle_ghz_and_w(self):
        assert abs(tangle_pure(ghz_state()).value - 1.0) <= 1e-12
        assert tangle_pure(w_state()).value <= 1e-12

    def test_three_pi_values(self):
        assert abs(three_pi(ghz_state()).value - 1.0) <= 1e-9
        assert three_pi(w_state()).value > 0.0

    def test_three_pi_equals_negativities_of_validated_cuts(self, rng):
        # N_{A(BC)} = |rho^{T_A}|_1 - 1, the negativity of the [2, 4] state;
        # three_pi takes N_{AB} = (|rho_AB^{T_B}|_1 - 1)/2, half the negativity
        # of the marginal.
        for _ in range(50):
            v = random_pure(rng, 8)
            t = v.reshape(2, 2, 2)
            n = {}
            for order in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
                w = t.transpose(order).ravel()
                n[order[0]] = negativity(validate_density(np.outer(w, w.conj()), [2, 4])).value
            for pair in ((0, 1), (0, 2), (1, 2)):
                marg = partial_trace(np.outer(v, v.conj()), pair, [2, 2, 2])
                n[pair] = n[pair[::-1]] = negativity(marg).value / 2.0
            pis = [n[0] ** 2 - n[0, 1] ** 2 - n[0, 2] ** 2,
                   n[1] ** 2 - n[1, 0] ** 2 - n[1, 2] ** 2,
                   n[2] ** 2 - n[2, 0] ** 2 - n[2, 1] ** 2]
            assert abs(three_pi(v).value - sum(pis) / 3.0) <= 1e-12

    def test_three_pi_of_a_product_state_is_zero(self, rng):
        v = np.kron(np.kron(random_pure(rng, 2), random_pure(rng, 2)), random_pure(rng, 2))
        assert three_pi(v).value <= 1e-15

    def test_tangle_of_tilted_ghz(self):
        for a in (0.3, 0.5, 1 / np.sqrt(2)):
            b = np.sqrt(1 - a * a)
            assert abs(tangle_pure(ghz_state(a, b)).value - 4 * a * a * b * b) <= 1e-12


class TestCoherence:
    def test_diagonal_zero(self, rng):
        rho = validate_density(np.diag(rng.dirichlet(np.ones(4))), [2, 2])
        assert l1_coherence(rho).value <= 1e-12

    def test_ghz_w_and_mixture(self):
        g = np.outer(ghz_state(), ghz_state().conj())
        w = np.outer(w_state(), w_state().conj())
        assert abs(l1_coherence(g).value - 1.0) <= 1e-12
        assert abs(l1_coherence(w).value - 2.0) <= 1e-12
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(l1_coherence(ghz_w_mixture(q)).value - (2.0 - q)) <= 1e-12


class TestNaNAndSolveCounts:
    def test_measure_value_refuses_nan(self):
        with pytest.raises(DimensionError):
            MeasureValue(value=float("nan"), measure="negativity", d=2)

    def test_three_pi_zero_vector(self):
        with pytest.raises(DimensionError):
            three_pi(np.zeros(8))

    def test_structured_negativity_solves_once(self, rng, solve_sizes):
        # Built by hand, so its partial transpose is solved on first use.
        rho = DensityMatrix(mat=random_density(rng, (3, 3)).mat, dims=(3, 3))
        solve_sizes.clear()
        structured_negativity(rho)
        assert solve_sizes == [9]

    def test_concurrence_solves_once(self, rng, solve_sizes):
        rho = random_density(rng, (2, 2))
        solve_sizes.clear()
        concurrence_2q(rho)
        assert solve_sizes == [4]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bipartite_battery_solves_each_matrix_once(self, rng, solve_sizes, d):
        # The state, rho^{T_B} and rho_A (x) I - rho, all by the validation's
        # one call; the realigned matrix goes through an SVD.
        mat = random_density(rng, (d, d)).mat
        solve_sizes.clear()
        rho = validate_density(mat, [d, d])
        for check in (ppt_check, realignment_check, reduction_check,
                      negativity, structured_negativity, concurrence_lb_chen):
            check(rho)
        assert solve_sizes == [d * d] * 3

    @pytest.mark.parametrize("d, passes", [(2, 3), (3, 2), (4, 2)])
    def test_bipartite_battery_makes_one_hermiticity_pass_per_caller_matrix(
            self, rng, monkeypatch, d, passes):
        # The benchmark's bipartite op: the validation's pass, the realigned
        # matrix's in trace_norm and, on two qubits, the input check of
        # concurrence_2q's solve of sqrt(rho) flipped sqrt(rho), which is
        # Hermitian only to rounding.  The state, its partial transpose and
        # rho_A (x) I - rho are solved unchecked, being exactly Hermitian.
        mat = random_density(rng, (d, d)).mat
        seen = []
        herm_dev = linalg._herm_dev
        monkeypatch.setattr(linalg, "_herm_dev", lambda *a: seen.append(a[0].shape) or herm_dev(*a))
        rho = validate_density(mat, [d, d])
        for check in (ppt_check, realignment_check, reduction_check,
                      negativity, structured_negativity, concurrence_lb_chen):
            check(rho)
        if d == 2:
            conc = concurrence_2q(rho).value
            rho_tilde = spa_pt_two_qubit(rho)
            criterion2(rho, rho_tilde, conc)
            criterion3(rho, rho_tilde, conc)
        assert len(seen) == passes

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pt_measures_share_one_solve(self, rng, solve_sizes, d):
        # Built by hand, so its partial transpose is solved on first use.
        rho = DensityMatrix(mat=random_density(rng, (d, d)).mat, dims=(d, d))
        solve_sizes.clear()
        negativity(rho)
        structured_negativity(rho)
        concurrence_lb_chen(rho)
        assert solve_sizes == [d * d]

    def test_three_pi_solves_three_times(self, rng, solve_sizes):
        three_pi(random_pure(rng, 8))
        assert sorted(solve_sizes) == [4, 4, 4]

    def test_three_pi_makes_one_lapack_call(self, rng, eigh_shapes):
        three_pi(random_pure(rng, 8))
        assert eigh_shapes == [(3, 4, 4)]
