"""Coherence product rule and separability bounds."""

import numpy as np
import pytest

from conftest import random_density
from qent.coherence import (
    Ensemble,
    biseparable_pure_bound,
    classify_by_coherence,
    coherence_product_rule,
    mixed_biseparable_bound,
    separable_bound,
)
from qent.detect import Outcome
from qent.errors import DimensionError
from qent.linalg import partial_trace, tensor, validate_density
from qent.measures import l1_coherence
from qent.states import (
    coherence_bisep_four_qubit,
    coherence_bisep_mixture,
    diagonal_four_qubit,
    ghz_w_mixture,
    three_qutrit_bisep,
)


def _proj(v, dims):
    return validate_density(np.outer(v, v.conj()), dims)


class TestProductRule:
    def test_exact_identity_random_pairs(self, rng):
        for _ in range(100):
            r1 = random_density(rng, (2,))
            r2 = random_density(rng, (3,))
            whole = validate_density(tensor(r1.mat, r2.mat), [2, 3])
            assert abs(l1_coherence(whole).value
                       - coherence_product_rule(r1, r2)) <= 1e-12


class TestBiseparableBounds:
    def _mixture_ensemble(self, q):
        phi_p = _proj(np.array([1, 0, 0, 1]) / np.sqrt(2), [2, 2])
        phi_m = _proj(np.array([1, 0, 0, -1]) / np.sqrt(2), [2, 2])
        one = validate_density(np.diag([1.0, 0.0]), [2])
        two = validate_density(np.diag([0.0, 1.0]), [2])
        return Ensemble(weights=(q, 1 - q), parts=((one, phi_p), (two, phi_m)),
                        labels=("A-BC", "B-AC"))

    def test_two_cut_mixture_example(self):
        # 1 + C = 2 against (1/4) sum p_i (X_i + 2)^2 = 9/4
        rho = coherence_bisep_mixture(0.5)
        v = mixed_biseparable_bound(self._mixture_ensemble(0.5), rho)
        assert v.outcome is Outcome.ConditionSatisfied
        assert abs(l1_coherence(rho).value - 1.0) <= 1e-12
        assert abs(v.evidence - (9.0 / 4.0 - 2.0)) <= 1e-12

    def test_classify_takes_the_mixed_cut_bound(self):
        rho = coherence_bisep_mixture(0.5)
        v = classify_by_coherence(rho, [self._mixture_ensemble(0.5)])
        assert v.outcome is Outcome.ConditionSatisfied
        assert v.criterion == "coherence:mixed_bisep_bound"
        assert abs(v.evidence - (9.0 / 4.0 - 2.0)) <= 1e-12

    def test_classify_returns_the_first_bound_that_passes(self):
        # C(rho) = 1; three incoherent factors bound it by 0, three |+>
        # factors by 2^3 - 1 = 7.
        rho = coherence_bisep_mixture(0.5)
        zero = validate_density(np.diag([1.0, 0.0]), [2])
        plus = validate_density(np.full((2, 2), 0.5), [2])
        incoherent = Ensemble(weights=(1.0,), parts=((zero,) * 3,), labels=("product",))
        coherent = Ensemble(weights=(1.0,), parts=((plus,) * 3,), labels=("product",))
        v = classify_by_coherence(rho, [incoherent, coherent, self._mixture_ensemble(0.5)])
        assert v.outcome is Outcome.ConditionSatisfied
        assert v.criterion == "coherence:separable_bound"
        assert abs(v.evidence - 6.0) <= 1e-12

    def test_four_qubit_example(self):
        rho = coherence_bisep_four_qubit()
        phi_p = _proj(np.array([0, 0, 1, 0, 1, 0, 0, 0]) / np.sqrt(2), [2, 2, 2])
        phi_m = _proj(np.array([0, 0, -1, 0, 1, 0, 0, 0]) / np.sqrt(2), [2, 2, 2])
        one = validate_density(np.diag([1.0, 0.0]), [2])
        two = validate_density(np.diag([0.0, 1.0]), [2])
        e = Ensemble(weights=(0.5, 0.5), parts=((one, phi_p), (two, phi_m)),
                     labels=("A-BC", "B-AC"))
        v = mixed_biseparable_bound(e, rho)
        assert v.outcome is Outcome.ConditionSatisfied
        assert abs(v.evidence - (9.0 / 4.0 - 2.0)) <= 1e-12

    def test_three_qutrit_pure_example(self):
        psi = three_qutrit_bisep()
        rho = _proj(psi, [3, 3, 3])
        pair = np.zeros(9, dtype=complex)
        pair[1] = pair[5] = pair[6] = 1.0 / np.sqrt(3.0)
        e = Ensemble(weights=(1.0,),
                     parts=((validate_density(np.diag([1.0, 0, 0]), [3]),
                             _proj(pair, [3, 3])),),
                     labels=("A-BC",))
        v = biseparable_pure_bound(e, rho)
        assert abs(l1_coherence(rho).value - 2.0) <= 1e-12
        assert v.outcome is Outcome.ConditionSatisfied
        assert abs(v.evidence - 1.0) <= 1e-12  # bound X^2/4 + X = 3 vs C = 2

    def test_diagonal_separable_example(self):
        rho = diagonal_four_qubit()
        factors = []
        for idx in (0, 3, 8, 15):
            bits = [(idx >> (3 - k)) & 1 for k in range(4)]
            factors.append(tuple(
                validate_density(np.diag([1.0 - b, float(b)]), [2]) for b in bits))
        e = Ensemble(weights=(0.25,) * 4, parts=tuple(factors), labels=("product",) * 4)
        v = separable_bound(e, rho)
        assert v.outcome is Outcome.ConditionSatisfied
        assert abs(v.evidence) <= 1e-12


class TestGhzWViolations:
    def _candidates(self, rho):
        # best biseparable candidate: a single term with X = 2/3
        single = validate_density(np.diag([2.0 / 3.0, 1.0 / 3.0]), [2])
        psi_p = _proj(np.array([0, 1, 1, 0]) / np.sqrt(2), [2, 2])
        pair_mat = np.diag([1.0 / 3.0, 0, 0, 0]).astype(complex) + (2.0 / 3.0) * psi_p.mat
        pair = validate_density(pair_mat, [2, 2])
        bisep = Ensemble(weights=(1.0,), parts=((single, pair),), labels=("A-BC",))
        marginals = tuple(partial_trace(rho, [k]) for k in range(3))
        product = Ensemble(weights=(1.0,), parts=(marginals,), labels=("product",))
        return bisep, product

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_violates_biseparable_and_separable_bounds(self, q):
        rho = ghz_w_mixture(q)
        bisep, product = self._candidates(rho)
        assert mixed_biseparable_bound(bisep, rho).outcome is Outcome.ConditionViolated
        assert separable_bound(product, rho).outcome is Outcome.ConditionViolated
        v = classify_by_coherence(rho, [bisep, product])
        assert v.outcome is Outcome.Entangled


class TestEnsembleValidation:
    def test_weights_must_sum_to_one(self):
        one = validate_density(np.diag([1.0, 0.0]), [2])
        with pytest.raises(DimensionError):
            Ensemble(weights=(0.5, 0.4), parts=((one,), (one,)),
                     labels=("product", "product"))

    @pytest.mark.parametrize("weights", [(float("nan"),), (2.0, -1.0), (float("nan"), 1.0)])
    def test_nan_and_negative_weights_are_refused(self, weights):
        # A NaN sum compares False with the trace tolerance, so it has to
        # fail the check rather than pass it.
        one = validate_density(np.diag([1.0, 0.0]), [2])
        with pytest.raises(DimensionError):
            Ensemble(weights=weights, parts=((one,),) * len(weights),
                     labels=("product",) * len(weights))

    def test_classify_needs_candidates(self, rng):
        with pytest.raises(DimensionError):
            classify_by_coherence(random_density(rng, (2, 2)), [])
