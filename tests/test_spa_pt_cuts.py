"""The SLOCC classifier and the three-qubit SPA-PT map solve partial
transposes, never SPA-PT outputs: an SPA-PT spectrum is
``shift + scale * spec(rho^{T_k})``."""

import sys

import numpy as np
import pytest

from conftest import random_product_density
from qent import linalg
from qent.classify3 import SloccOutcome, slocc_classify
from qent.linalg import PSD_FLOOR, SLACK, DensityMatrix, partial_transpose, validate_density
from qent.spa import spa_pt_three_qubit
from qent.states import ghz_w_wtilde_mixture


def _pt(mat, k):
    """Partial transpose of an 8x8 matrix over qubit ``k``, by index swap."""
    perm = list(range(6))
    perm[k], perm[k + 3] = perm[k + 3], perm[k]
    return mat.reshape((2,) * 6).transpose(perm).reshape(8, 8)


def _spa_pt_minima(mat):
    """``lambda_min`` of ``(1/10) I + (1/5) rho^{T_k}`` for k = A, B, C, each
    from a solve of the SPA-PT output itself."""
    return [np.linalg.eigvalsh(0.1 * np.eye(8) + 0.2 * _pt(mat, k))[0] for k in range(3)]


def _random_of_rank(rng, rank):
    a = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    m = a @ a.conj().T
    return validate_density(m / np.trace(m).real, [2, 2, 2])


@pytest.mark.parametrize("qubit", "ABC")
def test_a_cut_after_the_classifier_needs_no_lapack_call(rng, eigh_shapes, qubit):
    mat = _random_of_rank(rng, 5).mat
    rho = validate_density(mat, [2, 2, 2])
    slocc_classify(rho)
    eigh_shapes.clear()
    out = spa_pt_three_qubit(rho, qubit).rho_tilde
    assert eigh_shapes == []
    fresh = spa_pt_three_qubit(validate_density(mat, [2, 2, 2]), qubit).rho_tilde
    # The classifier's stacked solve gives the bits of the cut solved alone.
    assert out.mat.tobytes() == fresh.mat.tobytes()
    assert out.spectrum.eigenvalues.tobytes() == fresh.spectrum.eigenvalues.tobytes()
    assert out.spectrum.vectors.tobytes() == fresh.spectrum.vectors.tobytes()
    assert float(out.spectrum.residual).hex() == float(fresh.spectrum.residual).hex()


@pytest.mark.parametrize("rank", range(1, 9))
def test_mixed_lambdas_equal_the_solved_spa_pt_outputs(rng, rank):
    for _ in range(25):
        rho = _random_of_rank(rng, rank)
        assert rho.ket is None
        got = slocc_classify(rho).lambdas
        assert np.max(np.abs(np.array(got) - _spa_pt_minima(rho.mat))) <= 1e-15


def test_grid_lambdas_equal_the_solved_spa_pt_outputs():
    worst = 0.0
    for i in range(41):
        for j in range(41 - i):
            rho = ghz_w_wtilde_mixture(i / 40, j / 40)
            got = slocc_classify(rho).lambdas
            worst = max(worst, np.max(np.abs(np.array(got) - _spa_pt_minima(rho.mat))))
    assert worst <= 1e-15


def test_product_mixtures_at_the_validation_floor_stay_unclaimed(rng):
    # (1 + 8 eps) sigma - eps I passes validation, and its nearest state is
    # the fully separable sigma; no cut may be claimed (see slocc_classify).
    eps = 0.99e-9
    for _ in range(200):
        sigma = random_product_density(rng, (2, 2, 2))
        rho = validate_density((1.0 + 8.0 * eps) * sigma.mat - eps * np.eye(8), [2, 2, 2])
        assert rho.spectrum.eigenvalues[0] >= PSD_FLOOR
        verdict = slocc_classify(rho)
        assert verdict.outcome is SloccOutcome.FullySeparableConsistent
        assert min(verdict.lambdas) >= 0.1 - eps / 5.0 - 1e-15 > 0.1 - SLACK


def _by_hand(rho):
    """``rho`` built by hand, so its cuts are solved on first use rather
    than seeded by its validation."""
    return DensityMatrix(mat=rho.mat, dims=rho.dims)


def _record(monkeypatch, name, store):
    """Wrap ``name`` in every qent module that binds it; calls append their
    first argument to ``store``."""
    original = getattr(linalg, name)

    def recording(*args, **kwargs):
        store.append(args[0])
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("qent") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)


def test_a_mixed_classification_wraps_no_spa_pt_output(rng, monkeypatch):
    rho = _by_hand(_random_of_rank(rng, 8))
    wrapped, solved = [], []
    _record(monkeypatch, "_derived", wrapped)
    _record(monkeypatch, "_solve", solved)
    slocc_classify(rho)
    assert wrapped == []
    (stack,) = solved
    assert np.array_equal(stack, [partial_transpose(rho, k) for k in range(3)])


@pytest.mark.parametrize("qubit", "ABC")
def test_a_three_qubit_cut_solves_its_partial_transpose(rng, monkeypatch, qubit):
    rho = _by_hand(_random_of_rank(rng, 8))
    solved = []
    _record(monkeypatch, "_solve", solved)
    out = spa_pt_three_qubit(rho, qubit).rho_tilde
    (mat,) = solved
    assert np.array_equal(mat, _pt(rho.mat, "ABC".index(qubit)))
    assert np.max(np.abs(out.spectrum.eigenvalues - np.linalg.eigvalsh(out.mat))) <= 1e-15
