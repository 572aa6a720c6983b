"""Sanity checks for the bundled state constructors."""

import warnings

import numpy as np
import pytest

from qent import states
from qent.detect import Outcome, ppt_check
from qent.errors import DimensionError, NonFiniteEntry
from qent.linalg import herm_eigenvalues, partial_trace, validate_density
from qent.measures import concurrence_pure
from qent.states import (
    bell_phi_plus,
    bisep_a_bc_state,
    coherence_bisep_four_qubit,
    coherence_bisep_mixture,
    embed_pair_product,
    ghz_corner_mixture,
    ghz_state,
    ghz_w_mixture,
    ghz_w_wtilde_mixture,
    ghz_werner_state,
    isotropic_two_qutrit,
    kay_state,
    ket,
    mems_state,
    pptes_two_qutrit,
    projector,
    two_qutrit_alpha_state,
    two_slice_superposition,
    two_term_product_mixture,
    w_state,
    werner_state,
    x_state,
    x_state_concurrence,
)


class TestVectors:
    def test_ket_normalizes_and_validates(self):
        v = ket([3, 0, 0, 4], [2, 2])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        with pytest.raises(DimensionError):
            ket([1, 0, 0], [2, 2])
        with pytest.raises(DimensionError):
            ket([0, 0, 0, 0], [2, 2])

    @pytest.mark.parametrize("dims", [[2 ** 62 + 1, 4], [-2, -2]])
    def test_ket_checks_dims_exactly(self, dims):
        # [2**62 + 1, 4] multiplies to 4 only in wrapped 64-bit arithmetic.
        with pytest.raises(DimensionError):
            ket([0.5] * 4, dims)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ket_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(NonFiniteEntry):
            ket([bad, 1, 0, 0], [2, 2])
        with pytest.raises(NonFiniteEntry):
            concurrence_pure([bad, 1, 0, 0], 2, 2)

    @pytest.mark.parametrize("amps, count", [
        ([np.nan, 0, 0, 0], 1),
        ([np.inf, 0, 0, 0], 1),
        ([np.inf, -np.inf, 0, 0], 2),
        ([complex(0, np.nan), 0, 0, 0], 1),
        ([complex(0, np.inf), 0, 0, np.nan], 2),
    ], ids=["nan", "inf", "inf-and-minus-inf", "imaginary-nan", "imaginary-inf-and-nan"])
    def test_only_non_finite_amplitudes_are_not_a_zero_vector(self, amps, count):
        # The finiteness scan runs before the zero test and before rescaling:
        # max(0.0, nan) makes a NaN imaginary part beside zero real parts a
        # largest entry of 0, and rescaled by an infinite largest entry the
        # vector would turn NaN and recurse without end.
        with pytest.raises(NonFiniteEntry) as err:
            ket(amps, [2, 2])
        assert err.value.magnitude == count

    def test_ket_checks_the_length_before_finiteness(self):
        with pytest.raises(DimensionError):
            ket([np.nan, 0, 0], [2, 2])

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_ket_of_huge_or_tiny_amplitudes(self, scale):
        # Their squares overflow to inf or underflow to 0 inside the norm.
        amps = [scale, scale, 0, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ket(amps, [2, 2])
            rho = projector(amps, [2, 2])
            again = validate_density(rho.mat, [2, 2])
        assert np.array_equal(v, np.array([1, 1, 0, 0]) / np.sqrt(2))
        assert np.max(np.abs(rho.spectrum.eigenvalues - again.spectrum.eigenvalues)) <= 1e-15

    def test_concurrence_of_an_overflowing_product_state(self):
        # |0> (x) |+>: unscaled, the overflowed norm gives the zero vector
        # and a concurrence of sqrt(2).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = concurrence_pure([1e200, 1e200, 0, 0], 2, 2).value
        assert value == concurrence_pure([1, 1, 0, 0], 2, 2).value <= 1e-7

    def test_ordinary_ket_keeps_its_bits(self):
        amps = np.array([0.3 + 0.1j, -0.2, 0.5j, 0.7])
        assert ket(amps, [2, 2]).tobytes() == (amps / np.linalg.norm(amps)).tobytes()

    def test_projector_is_rank_one(self):
        rho = projector(bell_phi_plus(), [2, 2])
        lam = herm_eigenvalues(rho.mat).eigenvalues
        assert abs(lam[-1] - 1.0) <= 1e-12 and abs(lam[0]) <= 1e-12

    def test_named_pure_states_normalized(self):
        for v in (ghz_state(), w_state(), two_slice_superposition(0.6, 0.3, 0.7)):
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestFamilies:
    def test_x_state_constraint(self):
        with pytest.raises(DimensionError):
            x_state(0.2, 0.2, 0.1)
        rho = x_state(0.1, 0.4, 0.3j)
        assert abs(rho.mat[1, 2] - 0.3j) <= 1e-15

    @pytest.mark.parametrize("a, f", [
        (float("nan"), 0.1), (0.1, float("nan")), (0.1, complex(float("nan"), 0.2)),
        (float("inf"), 0.1), (0.1, float("inf")), (float("inf"), float("inf")),
    ])
    def test_x_state_concurrence_refuses_what_is_not_finite(self, a, f):
        with pytest.raises(DimensionError, match="finite a and f"):
            x_state_concurrence(a, f)

    def test_x_state_concurrence_is_the_clipped_difference(self):
        assert x_state_concurrence(0.1, 0.4j) == abs(0.4j) - 0.1
        assert x_state_concurrence(0.4, 0.1) == 0.0

    def test_mems_trace_and_branch(self):
        for c in (0.2, 0.9):
            rho = mems_state(c)
            assert abs(np.trace(rho.mat) - 1.0) <= 1e-12
            assert abs(rho.mat[0, 3] - c / 2.0) <= 1e-15

    def test_pptes_is_ppt(self):
        assert ppt_check(pptes_two_qutrit()).outcome is Outcome.Inconclusive

    def test_kay_family_bipartite_cuts_are_ppt(self):
        # Known PPT-entangled region 2 <= a < 2 sqrt(2): every 1|2 cut is PPT.
        for a in (2.0, 2.5, 3.0, 3.9):
            rho = kay_state(a)
            mat_a = rho.mat.reshape(2, 4, 2, 4)
            cut = validate_density(mat_a.reshape(8, 8), [2, 4])
            assert ppt_check(cut).outcome is Outcome.Inconclusive

    @pytest.mark.parametrize("pos", [-1, 3, 5])
    def test_embed_pair_product_rejects_a_position_outside_the_register(self, pos):
        with pytest.raises(DimensionError):
            embed_pair_product(np.eye(2) / 2, pos, np.eye(4) / 4, n=3)

    def test_embed_pair_product_takes_nested_lists(self):
        # Both factors are read through np.shape, so a nested-list pair works
        # as a nested-list single does.
        psi = ket([1, 1j, 0, 1], [2, 2])
        single, pair = np.diag([0.25, 0.75]), np.outer(psi, psi.conj())
        want = embed_pair_product(single, 1, pair).tobytes()
        assert embed_pair_product(single, 1, pair.tolist()).tobytes() == want
        assert embed_pair_product(single.tolist(), 1, pair.tolist()).tobytes() == want

    def test_three_term_mixture_weights(self):
        with pytest.raises(DimensionError):
            ghz_w_wtilde_mixture(0.7, 0.5)
        rho = ghz_w_wtilde_mixture(0.5, 0.3)
        marg = partial_trace(rho, [0])
        assert abs(np.trace(marg.mat) - 1.0) <= 1e-12


# The families that weight and add fixed projectors.
MIXED_FAMILIES = {
    "werner_state": lambda: werner_state(0.6),
    "isotropic_two_qutrit": lambda: isotropic_two_qutrit(0.4),
    "two_qutrit_alpha_state": lambda: two_qutrit_alpha_state(4.5),
    "ghz_werner_state": lambda: ghz_werner_state(0.3),
    "ghz_corner_mixture": lambda: ghz_corner_mixture(0.3),
    "ghz_w_mixture": lambda: ghz_w_mixture(0.3),
    "ghz_w_wtilde_mixture": lambda: ghz_w_wtilde_mixture(0.3, 0.2),
    "bisep_a_bc_state": lambda: bisep_a_bc_state(0.3),
    "coherence_bisep_mixture": lambda: coherence_bisep_mixture(0.3),
    "two_term_product_mixture": lambda: two_term_product_mixture(0.3),
    "coherence_bisep_four_qubit": coherence_bisep_four_qubit,
}


class TestFixedProjectors:
    @pytest.mark.parametrize("name", MIXED_FAMILIES)
    def test_families_build_without_normalizing_a_ket(self, monkeypatch, name):
        want = MIXED_FAMILIES[name]().mat

        def refuse(*args, **kwargs):
            raise AssertionError("ket called after import")

        monkeypatch.setattr(states, "ket", refuse)
        assert np.array_equal(MIXED_FAMILIES[name]().mat, want)

    @pytest.mark.parametrize("name", ["_PSI_MINUS", "_PHI_PLUS", "_PHI_MINUS", "_PHI_PLUS_3",
                                      "_S_PLUS", "_S_MINUS", "_GHZ", "_W", "_W_TILDE",
                                      "_PLUS01", "_PHI_P3", "_PHI_M3", "_PAULI", "_SIGMA_YY"])
    def test_constants_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(states, name)[0, 0] = 1.0
