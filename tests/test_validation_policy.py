"""One validation policy: a caller's matrix is checked once, by
``validate_density``; what a completely positive, trace preserving map builds
from a validated state, and the projector of a checked ket, are trusted, and
the matrices solved from a state get no second Hermiticity pass.  These tests
hold the checks that no longer run on the library's outputs, and what still
catches a ``DensityMatrix`` built by hand around a bad matrix: the residual
check of the solves that read it."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qent.classify3 import CanonicalThreeQubit, canonical_projector
from qent.cli import EXIT_OK, main, write_state_file
from conftest import random_product_density, random_pure
from qent.detect import (
    Outcome,
    criterion1,
    ppt_check,
    realignment_check,
    reduction_check,
    witness_from_pure,
)
from qent.errors import DensityMatrixError, DimensionError
from qent.linalg import (
    HERM_TOL,
    PSD_FLOOR,
    SLACK,
    DensityMatrix,
    partial_trace,
    validate_density,
)
from qent.measures import concurrence_2q, concurrence_lb_chen, negativity, structured_negativity
from qent.spa import spa_pt_d1d2, spa_pt_dd, spa_pt_three_qubit, spa_pt_two_qubit, spa_witness
from qent.states import ghz_w_mixture, ghz_w_wtilde_mixture, horodecki_bound_entangled, projector

DELTA = 0.9e-9


def _edge_product_state(delta=DELTA):
    """``(1+3 delta)/3 |1><1| (x) I_3 - delta |0><0| (x) I_3`` on ``[2, 3]``.

    A product state up to an eigenvalue of ``-delta``, which validation
    allows; its marginal on the first party has ``-3 delta``, below
    ``PSD_FLOOR``.
    """
    return validate_density(np.kron(np.diag([-delta, (1 + 3 * delta) / 3]), np.eye(3)),
                            [2, 3])


class TestMarginalOfAValidState:
    def test_partial_trace_returns_the_marginal(self):
        rho = _edge_product_state()
        marg = partial_trace(rho, [0])
        assert marg.dims == (2,)
        assert np.max(np.abs(marg.mat - np.diag([-3 * DELTA, 1 + 3 * DELTA]))) <= 1e-15
        assert marg.spectrum.eigenvalues[0] < PSD_FLOOR

    def test_reduction_check_is_inconclusive(self):
        verdict = reduction_check(_edge_product_state())
        assert verdict.outcome is Outcome.Inconclusive
        # The evidence is lambda_min(rho_A (x) I - rho) itself: -2 delta.
        assert abs(verdict.evidence + 2 * DELTA) <= 1e-15


def _floor_product_state(d, eps=0.99e-9):
    """``(1 + n eps)|00><00| - eps I`` on ``[d, d]``: validation lets its
    eigenvalue ``-eps`` through, and its nearest state is ``|00><00|``."""
    n = d * d
    mat = -eps * np.eye(n, dtype=complex)
    mat[0, 0] += 1.0 + n * eps
    return validate_density(mat, [d, d])


class TestRealignmentAtTheValidationFloor:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_product_state_is_inconclusive(self, d):
        # Was Entangled, with evidence 1 + 3.96e-9, 1 + 9.9e-9 and 1 + 1.78e-8.
        verdict = realignment_check(_floor_product_state(d))
        assert verdict.evidence > 1.0 + SLACK
        assert verdict.evidence <= 1.0 + SLACK + (d * d + d) * 0.99e-9
        assert verdict.outcome is Outcome.Inconclusive

    def test_detect_reports_no_entanglement(self, tmp_path, capsys):
        path = tmp_path / "floor.json"
        write_state_file(path, _floor_product_state(2))
        capsys.readouterr()
        assert main(["detect", str(path)]) == EXIT_OK
        outcomes = {r["name"]: r["verdict"] for r in json.loads(capsys.readouterr().out)["results"]}
        assert "Entangled" not in outcomes.values()

    def test_entangled_states_are_still_detected(self):
        rho = horodecki_bound_entangled(0.3)
        assert realignment_check(rho).outcome is Outcome.Entangled


class TestSeparableStatesAtTheValidationFloor:
    # A product mixture sigma pushed to (1 + n eps) sigma - eps I passes
    # validation for eps below -PSD_FLOOR, and its nearest state is the
    # separable sigma: no criterion may claim it (see each docstring for
    # the criterion's allowance).
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           eps=st.floats(min_value=0.0, max_value=0.99e-9))
    def test_no_criterion_says_entangled(self, dims, seed, eps):
        rng = np.random.default_rng(seed)
        n = math.prod(dims)
        sigma = random_product_density(rng, dims)
        rho = validate_density((1.0 + n * eps) * sigma.mat - eps * np.eye(n), list(dims))
        # An SPA witness of a random ket, entangled with probability one.
        witness = spa_witness(witness_from_pure(random_pure(rng, n), 1, list(dims)), *dims)
        verdicts = [ppt_check(rho), reduction_check(rho), criterion1(rho, witness)]
        if dims[0] == dims[1]:
            verdicts.append(realignment_check(rho))
        assert [v for v in verdicts if v.outcome is Outcome.Entangled] == []


def _near_hermitian_matrix():
    """``I/8 + (i 4.5e-11 sigma_x) (x) I_4`` on ``[2, 4]``.

    Its Hermiticity deviation, 9e-11, is within ``HERM_TOL``; a partial
    trace over the second party adds four such entries.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.eye(8) / 8 + np.kron(1j * 4.5e-11 * sx, np.eye(4))


class TestValidatedStatesAreExactlyHermitian:
    def test_validation_keeps_the_hermitian_part(self):
        m = _near_hermitian_matrix()
        assert 0 < np.max(np.abs(m - m.conj().T)) <= HERM_TOL
        rho = validate_density(m, [2, 4])
        assert np.array_equal(rho.mat, np.eye(8) / 8)

    def test_marginal_and_reduction_check(self):
        rho = validate_density(_near_hermitian_matrix(), [2, 4])
        assert np.array_equal(partial_trace(rho, [0]).spectrum.eigenvalues, [0.5, 0.5])
        assert reduction_check(rho).outcome is Outcome.Inconclusive

    def test_detect_exits_zero(self, tmp_path):
        path = tmp_path / "near-hermitian.json"
        write_state_file(path, DensityMatrix(mat=_near_hermitian_matrix(), dims=(2, 4)))
        assert main(["detect", str(path)]) == EXIT_OK

    def test_exactly_hermitian_input_keeps_its_bits(self):
        mat = np.diag([0.1, 0.4, 0.4, 0.1]).astype(complex)
        mat[1, 2], mat[2, 1] = 0.1 + 0.3j, 0.1 - 0.3j
        assert validate_density(mat, [2, 2]).mat.tobytes() == mat.tobytes()


def _random_state(seed, dims, rank):
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    return validate_density(a @ a.conj().T / np.linalg.norm(a) ** 2, list(dims))


def _derived_outputs(rho):
    """Every partial trace and every SPA-PT output of ``rho`` except the
    qutrit-qubit closed form, which holds for its published family only
    (tested in ``test_spa.py``)."""
    n = len(rho.dims)
    outs = [partial_trace(rho, keep)
            for r in range(1, n + 1) for keep in itertools.combinations(range(n), r)]
    if n == 3:
        return outs + [spa_pt_three_qubit(rho, q).rho_tilde for q in "ABC"]
    d1, d2 = rho.dims
    outs.append(spa_pt_d1d2(rho, d1, d2).rho_tilde)
    if d1 == d2:
        outs.append(spa_pt_dd(rho, d1).rho_tilde)
    if d1 == d2 == 2:
        outs.append(spa_pt_two_qubit(rho).rho_tilde)
    return outs


def _pure_outputs(seed, dims, exponent):
    """The projector of random amplitudes of size ``10**exponent`` and, on
    three qubits, a canonical projector whose smaller lambdas have that size
    when it is below 1."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    amps = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** exponent
    outs = [projector(amps, list(dims))]
    if dims == (2, 2, 2):
        lam = rng.uniform(size=5)
        lam[1:3] *= 10.0 ** min(exponent, 0)
        lam /= np.linalg.norm(lam)
        outs.append(canonical_projector(CanonicalThreeQubit(*lam, rng.uniform(0, np.pi))))
    return outs


# Amplitudes whose squares overflow or underflow as well as ordinary ones.
EXPONENTS = st.sampled_from([0, 170, -170])


class TestDerivedOutputsAreStates:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2)])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           rank=st.integers(min_value=1, max_value=9), exponent=EXPONENTS)
    def test_outputs_revalidate_with_the_same_spectrum(self, dims, seed, rank, exponent):
        # Ranks from 1 to full: low ranks put the input on the boundary.
        rho = _random_state(seed, dims, min(rank, math.prod(dims)))
        for out in _derived_outputs(rho) + _pure_outputs(seed, dims, exponent):
            again = validate_density(out.mat, list(out.dims))
            assert np.max(np.abs(out.spectrum.eigenvalues
                                 - again.spectrum.eigenvalues)) <= 1e-12


    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), exponent=EXPONENTS)
    def test_outputs_are_exactly_hermitian(self, dims, seed, exponent):
        outs = _derived_outputs(_random_state(seed, dims, math.prod(dims)))
        for out in outs + _pure_outputs(seed, dims, exponent):
            assert np.array_equal(out.mat, out.mat.conj().T)

    def test_ghz_w_mixtures_revalidate_with_the_same_spectrum(self):
        outs = [ghz_w_mixture(q) for q in np.linspace(0.0, 1.0, 11)]
        outs += [ghz_w_wtilde_mixture(i / 10, j / 10) for i in range(11) for j in range(11 - i)]
        for out in outs:
            again = validate_density(out.mat, list(out.dims))
            assert np.array_equal(out.mat, out.mat.conj().T)
            assert np.max(np.abs(out.spectrum.eigenvalues
                                 - again.spectrum.eigenvalues)) <= 1e-12

    @pytest.mark.parametrize("weights", [(-0.1,), (1.1,), (np.nan,), (0.7, 0.5),
                                         (-0.1, 0.5), (np.nan, 0.5), (0.5, np.nan)])
    def test_ghz_w_mixtures_check_their_weights(self, weights):
        # ghz_w_mixture raised NegativityViolation from validation before.
        build = ghz_w_mixture if len(weights) == 1 else ghz_w_wtilde_mixture
        with pytest.raises(DimensionError):
            build(*weights)


class TestProjectorKeepsItsKet:
    def test_ket_is_the_normalized_amplitudes(self):
        amps = np.array([3.0, 0, 0, 0, 0, 0, 0, 4.0j])
        rho = projector(amps, [2, 2, 2])
        assert np.array_equal(rho.ket, amps / 5.0)
        assert np.allclose(np.outer(rho.ket, rho.ket.conj()), rho.mat, rtol=0.0, atol=1e-16)

    def test_other_states_carry_none(self):
        rho = validate_density(np.eye(4) / 4, [2, 2])
        assert rho.ket is None
        assert partial_trace(projector(np.ones(8), [2, 2, 2]), [0, 1]).ket is None

    def test_ket_is_left_out_of_repr_and_equality(self):
        rho = projector(np.ones(4), [2, 2])
        assert "ket" not in repr(rho)
        assert rho.__dataclass_fields__["ket"].compare is False


class TestPartiesOfDimensionOne:
    def test_negativity(self):
        with pytest.raises(DimensionError):
            negativity(validate_density(np.eye(4) / 4, [1, 4]))

    @pytest.mark.parametrize("measure", [structured_negativity, concurrence_lb_chen])
    def test_square_measures(self, measure):
        with pytest.raises(DimensionError):
            measure(validate_density(np.eye(1), [1, 1]))


def _hand_built(kind, d):
    """A ``[d, d]`` state wrapped around a matrix that was never validated."""
    n = d * d
    if kind == "nan":
        mat = np.full((n, n), np.nan)
    elif kind == "inf":
        mat = np.full((n, n), np.inf)
    elif kind == "inf above the diagonal":
        # In the triangle LAPACK does not read, beside exact zeros.
        mat = np.eye(n) / n
        mat[0, n - 1] = np.inf
    else:
        mat = np.triu(np.ones((n, n))) / n  # unit trace, far from Hermitian
    return DensityMatrix(mat=mat, dims=(d, d))


_HAND_BUILT_READS = {
    "ppt_check": ppt_check,
    "realignment_check": realignment_check,
    "reduction_check": reduction_check,
    "negativity": negativity,
    "structured_negativity": structured_negativity,
    "concurrence_lb_chen": concurrence_lb_chen,
    "concurrence_2q": concurrence_2q,
    "spectrum": lambda rho: rho.spectrum,
}


@pytest.mark.parametrize("d, read", [(d, read) for d in (2, 3) for read in _HAND_BUILT_READS
                                     if d == 2 or read != "concurrence_2q"])
@pytest.mark.parametrize("kind", ["nan", "inf", "inf above the diagonal", "non-Hermitian"])
def test_a_hand_built_bad_state_raises_a_density_matrix_error(kind, d, read):
    # No verdict or value, and no numpy error or floating-point warning
    # (warnings are errors here): the solve that reads the matrix refuses it.
    with pytest.raises(DensityMatrixError):
        _HAND_BUILT_READS[read](_hand_built(kind, d))
