"""End-to-end acceptance suite.

One test class per criterion.  Three assertions pin published figures that
the implementation demonstrably cannot reproduce (the full-form witness
examples H7 and H8, and the printed minimum eigenvalue of the GHZ noise
family); they are kept verbatim in their own test functions and are
expected to fail — see the docstrings on those tests for the computed
values and the consistency arguments.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    loop_partial_transpose,
    oracle_partial_trace,
    oracle_tensor,
    random_density,
    random_product_density,
    random_unitary,
)
from qent.classify3 import (
    CanonicalThreeQubit,
    SloccOutcome,
    ghz_w_mixture_analysis,
    ghz_witness_value,
    slocc_classify,
)
from qent.cli import load_golden, reproduce
from qent.coherence import (
    Ensemble,
    biseparable_pure_bound,
    coherence_product_rule,
    mixed_biseparable_bound,
    separable_bound,
)
from qent.detect import Outcome, criterion1, criterion2, ppt_check, witness_from_pure
from qent.linalg import (
    herm_eigenvalues,
    partial_trace,
    partial_transpose,
    tensor,
    validate_density,
)
from qent.measures import l1_coherence, negativity, structured_negativity
from qent.spa import spa_pt_dd, spa_pt_qutrit_qubit, spa_pt_two_qubit, spa_witness
from qent.states import (
    coherence_bisep_four_qubit,
    coherence_bisep_mixture,
    ghz_state,
    ghz_w_mixture,
    ghz_werner_state,
    kay_state,
    qutrit_qubit_alpha_state,
    three_qutrit_bisep,
    x_state,
)

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _x_witness(f):
    k = -f / abs(f)
    psi = np.array([k, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
    return witness_from_pure(psi, 1, [2, 2])


def _proj(v, dims):
    return validate_density(np.outer(np.asarray(v), np.asarray(v).conj()), dims)


class TestCriterion1AverageFidelityTable:
    def test_witness_averages_match_published_table(self):
        golden = load_golden("2.1")
        for a, b, re_f, im_f, favg in golden["rows"]:
            f = complex(re_f, im_f)
            v = criterion1(x_state(a, b, f), spa_witness(_x_witness(f), 2, 2))
            assert v.outcome is Outcome.Entangled
            assert abs(v.evidence - favg) <= 1e-3


class TestCriterion2OverlapTables:
    def test_tables_2_2_and_2_3_reproduce(self):
        for table_id in ("2.2", "2.3"):
            _, mismatched = reproduce(table_id, tol=1e-3)
            assert not mismatched, table_id

    def test_sandwich_holds_on_every_row(self):
        for a, b, re_f, im_f, *_ in load_golden("2.2")["rows"]:
            rho = x_state(a, b, complex(re_f, im_f))
            spa = spa_pt_two_qubit(rho)
            c = abs(complex(re_f, im_f)) - a
            assert criterion2(rho, spa, c).outcome is Outcome.ConditionSatisfied


class TestCriterion3QutritQubitSpa:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_printed_matrix_entries(self, alpha):
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
        for (i, j), ref in closed.items():
            assert abs(t[i, j] - ref) <= 1e-12, (i, j)

    def test_concurrence_bound_curve(self):
        # Witness lower bound 2r sqrt(4 - 8a + 5a^2) and the SPA overlap
        # Tr(rho~ rho); the two curves bound different quantities and are
        # not mutually ordered.
        _, mismatched = reproduce("fig2.1")
        assert not mismatched
        for _, lower, overlap in load_golden("fig2.1")["rows"]:
            assert lower >= 0.0 and overlap >= 0.0


class TestCriterion4SubclassWitnesses:
    @pytest.mark.parametrize("params,which,val", [
        ((0.4, 0.911043, 0.0, 0.0, 0.1), "H1", -0.3712),
        ((0.4, 0.0, 0.894427, 0.0, 0.2), "H2", -0.2176),
        ((0.4, 0.0, 0.0, 0.894427, 0.2), "H3", -0.2176),
        ((0.35, 0.0, 0.3, 0.864581, 0.2), "H4", -0.108386),
        ((0.5, 0.83666, 0.2, 0.0, 0.1), "H5", -0.540548),
        ((0.5, 0.83666, 0.0, 0.2, 0.1), "H6", -0.540548),
    ])
    def test_worked_values_h1_to_h6(self, params, which, val):
        assert abs(ghz_witness_value(CanonicalThreeQubit(*params), which)
                   - val) <= 1e-4

    def test_worked_value_h7_published(self):
        """Published Tr(H7 rho) = -0.303798 at (0.6, 0.785812, 0.1, 0.05, 0.1).

        Expected to fail: the H7 coefficient formula evaluated at these
        parameters gives -0.669253, and the operator expectation
        Tr((O1 - c7 I) rho) agrees with that closed form to 1e-15, so the
        published figure is not consistent with the stated operator and
        parameter point.  Kept verbatim per the acceptance contract.
        """
        p = CanonicalThreeQubit(0.6, 0.785812, 0.1, 0.05, 0.1)
        assert abs(ghz_witness_value(p, "H7") - (-0.303798)) <= 1e-4

    def test_worked_value_h8_published(self):
        """Published Tr(H8 rho) = -0.129027 at (0.01, 0.948631, 0.3, 0, 0.1).

        Expected to fail: the H8 witness O1 + O4/2 - c8 I evaluated at these
        parameters gives +0.022576 (closed form and operator expectation
        agree to 1e-15).  Kept verbatim per the acceptance contract.
        """
        p = CanonicalThreeQubit(0.01, 0.948631, 0.3, 0.0, 0.1)
        assert abs(ghz_witness_value(p, "H8") - (-0.129027)) <= 1e-4

    def test_sign_pattern_table(self):
        golden = load_golden("3.1")
        assert len(golden["rows"]) == 8
        for a, c, p, h4, h5, h6 in golden["rows"]:
            b, d = np.sqrt(1 - a * a), np.sqrt(1 - c * c)
            prm = CanonicalThreeQubit(np.sqrt(p) * a, 0.0,
                                      np.sqrt(1 - p) * d, np.sqrt(1 - p) * c,
                                      np.sqrt(p) * b)
            got4 = ghz_witness_value(prm, "H4")
            got5 = ghz_witness_value(prm, "H5")
            got6 = ghz_witness_value(prm, "H6")
            assert abs(got4 - h4) <= 1e-9
            assert got4 < 0.0 < min(got5, got6)


class TestCriterion5SloccClassifier:
    def test_tilted_ghz_exact(self):
        for a in (0.2, 0.5, 1 / np.sqrt(2), 0.9):
            b = np.sqrt(1 - a * a)
            v = slocc_classify(ghz_state(a, b))
            for lam in v.lambdas:
                assert abs(lam - (1.0 - 2.0 * a * b) / 10.0) <= 1e-12

    def test_tables_5_1_and_5_2(self):
        for table_id in ("5.1", "5.2"):
            _, mismatched = reproduce(table_id, tol=1e-3)
            assert not mismatched, table_id

    def test_ghz_noise_family_published_minimum(self):
        """Published lambda_min(rho~) = (alpha+4)/40 for the GHZ noise family.

        Expected to fail: the SPA-PT spectrum of
        (1-alpha) GHZ + (alpha/8) I is {0.1 + 0.2 x} over the PT branches
        x in {(1-alpha)/2 + alpha/8, -(1-alpha)/2 + alpha/8, alpha/8},
        whose minimum is alpha/8; (alpha+4)/40 is the second-smallest
        eigenvalue.  The publication's own separability conclusion on the
        same lines (separable exactly for alpha > 0.8) matches alpha/8 and
        contradicts the printed formula, which exceeds 0.1 for every
        alpha > 0.  The two agree only at alpha = 1.  Kept verbatim per the
        acceptance contract.
        """
        for alpha in (0.2, 0.5, 0.8, 1.0):
            v = slocc_classify(ghz_werner_state(alpha))
            for lam in v.lambdas:
                assert abs(lam - (alpha + 4.0) / 40.0) <= 1e-9

    def test_ghz_w_mixture_minimum_formulas(self):
        for q in np.linspace(0.0, 1.0, 21):
            r = ghz_w_mixture_analysis(q)
            r1 = 1.0 - 2.0 * q + 10.0 * q * q
            r2 = 32.0 - 64.0 * q + 41.0 * q * q
            ref = min((4.0 - q - np.sqrt(r1)) / 30.0,
                      (6.0 + 3.0 * q - np.sqrt(r2)) / 60.0)
            assert abs(min(r.lambdas) - ref) <= 1e-9


class TestCriterion6Measures:
    def test_closed_form_curves(self):
        for table_id in ("fig6.1", "fig6.2", "fig6.3", "fig6.4", "fig6.5"):
            _, mismatched = reproduce(table_id)
            assert not mismatched, table_id

    @pytest.mark.parametrize("d", [2, 3])
    def test_negativity_bounded_by_structured_negativity(self, rng, d):
        for _ in range(1000):
            rho = random_density(rng, (d, d))
            n = negativity(rho).value
            ns = structured_negativity(rho).value
            assert n <= 2.0 * (1.0 - 1.0 / d) * ns + 1e-9

    def test_p1_vanishes_on_separable(self, rng):
        for d in (2, 3):
            for _ in range(20):
                rho = random_product_density(rng, (d, d))
                assert structured_negativity(rho).value <= 1e-9

    def test_p2_local_unitary_invariant(self, rng):
        for d in (2, 3):
            rho = random_density(rng, (d, d))
            base = structured_negativity(rho).value
            for _ in range(5):
                u = tensor(random_unitary(rng, d), random_unitary(rng, d))
                rot = validate_density(u @ rho.mat @ u.conj().T, [d, d])
                assert abs(structured_negativity(rot).value - base) <= 1e-9

    def test_p3_convex(self, rng):
        for d in (2, 3):
            r1, r2 = random_density(rng, (d, d)), random_density(rng, (d, d))
            for p in (0.25, 0.5, 0.75):
                mix = validate_density(p * r1.mat + (1 - p) * r2.mat, [d, d])
                assert structured_negativity(mix).value <= (
                    p * structured_negativity(r1).value
                    + (1 - p) * structured_negativity(r2).value + 1e-9)

    def test_lemma1_linearity(self, rng):
        for d in (2, 3):
            r1, r2 = random_density(rng, (d, d)), random_density(rng, (d, d))
            for p in (0.0, 0.4, 1.0):
                mix = validate_density(p * r1.mat + (1 - p) * r2.mat, [d, d])
                lhs = spa_pt_dd(mix, d).rho_tilde.mat
                rhs = (p * spa_pt_dd(r1, d).rho_tilde.mat
                       + (1 - p) * spa_pt_dd(r2, d).rho_tilde.mat)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestCriterion7Coherence:
    def test_product_rule_exact_500_pairs(self, rng):
        for _ in range(500):
            d1, d2 = rng.integers(2, 4, size=2)
            r1 = random_density(rng, (int(d1),))
            r2 = random_density(rng, (int(d2),))
            whole = validate_density(tensor(r1.mat, r2.mat), [int(d1), int(d2)])
            assert abs(l1_coherence(whole).value
                       - coherence_product_rule(r1, r2)) <= 1e-12

    def test_three_qubit_mixture_bound(self):
        rho = coherence_bisep_mixture(0.5)
        phi_p = _proj(np.array([1, 0, 0, 1]) / np.sqrt(2), [2, 2])
        phi_m = _proj(np.array([1, 0, 0, -1]) / np.sqrt(2), [2, 2])
        one = validate_density(np.diag([1.0, 0.0]), [2])
        two = validate_density(np.diag([0.0, 1.0]), [2])
        e = Ensemble(weights=(0.5, 0.5), parts=((one, phi_p), (two, phi_m)),
                     labels=("A-BC", "B-AC"))
        v = mixed_biseparable_bound(e, rho)
        assert v.outcome is Outcome.ConditionSatisfied
        assert abs((1.0 + l1_coherence(rho).value) - 2.0) <= 1e-12
        assert abs(v.evidence - (9.0 / 4.0 - 2.0)) <= 1e-12  # 2 <= 9/4

    @pytest.mark.parametrize("q", ALPHAS)
    def test_ghz_w_mixture_violates_results_3_and_4(self, q):
        rho = ghz_w_mixture(q)
        single = validate_density(np.diag([2.0 / 3.0, 1.0 / 3.0]), [2])
        psi_p = _proj(np.array([0, 1, 1, 0]) / np.sqrt(2), [2, 2])
        pair = validate_density(
            np.diag([1.0 / 3.0, 0, 0, 0]).astype(complex) + (2.0 / 3.0) * psi_p.mat,
            [2, 2])
        bisep = Ensemble(weights=(1.0,), parts=((single, pair),), labels=("A-BC",))
        product = Ensemble(weights=(1.0,),
                           parts=(tuple(partial_trace(rho, [k]) for k in range(3)),),
                           labels=("product",))
        assert mixed_biseparable_bound(bisep, rho).outcome is Outcome.ConditionViolated
        assert separable_bound(product, rho).outcome is Outcome.ConditionViolated

    def test_four_qubit_and_three_qutrit_examples(self):
        rho4 = coherence_bisep_four_qubit()
        phi_p = _proj(np.array([0, 0, 1, 0, 1, 0, 0, 0]) / np.sqrt(2), [2, 2, 2])
        phi_m = _proj(np.array([0, 0, -1, 0, 1, 0, 0, 0]) / np.sqrt(2), [2, 2, 2])
        one = validate_density(np.diag([1.0, 0.0]), [2])
        two = validate_density(np.diag([0.0, 1.0]), [2])
        e4 = Ensemble(weights=(0.5, 0.5), parts=((one, phi_p), (two, phi_m)),
                      labels=("A-BC", "B-AC"))
        v4 = mixed_biseparable_bound(e4, rho4)
        assert v4.outcome is Outcome.ConditionSatisfied
        assert abs(v4.evidence - (9.0 / 4.0 - 2.0)) <= 1e-12

        rho9 = _proj(three_qutrit_bisep(), [3, 3, 3])
        pair = np.zeros(9, dtype=complex)
        pair[1] = pair[5] = pair[6] = 1.0 / np.sqrt(3.0)
        e9 = Ensemble(weights=(1.0,),
                      parts=((validate_density(np.diag([1.0, 0, 0]), [3]),
                              _proj(pair, [3, 3])),),
                      labels=("A-BC",))
        v9 = biseparable_pure_bound(e9, rho9)
        assert v9.outcome is Outcome.ConditionSatisfied
        assert abs(l1_coherence(rho9).value - 2.0) <= 1e-12
        assert abs(v9.evidence - 1.0) <= 1e-12  # C = 2 against bound 3


class TestCriterion8OracleEquivalence:
    def test_two_qubit_map_equals_generic(self, rng):
        for _ in range(20):
            rho = random_density(rng, (2, 2))
            a = spa_pt_two_qubit(rho).rho_tilde.mat
            b = spa_pt_dd(rho, 2).rho_tilde.mat
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_structure_maps_vs_index_loops(self, rng):
        for dims in ((2, 3), (3, 3)):
            rho = random_density(rng, dims)
            for sys in (0, 1):
                assert np.max(np.abs(partial_transpose(rho, sys)
                                     - loop_partial_transpose(rho.mat, sys, dims))) <= 1e-12
        for dims in ((2, 3), (3, 3), (2, 2, 2)):
            rho = random_density(rng, dims)
            for keep in itertools.combinations(range(len(dims)), len(dims) - 1):
                assert np.max(np.abs(partial_trace(rho, list(keep)).mat
                                     - oracle_partial_trace(rho.mat, list(keep), dims))) <= 1e-12
        a = random_density(rng, (2,)).mat
        b = random_density(rng, (3,)).mat
        assert np.max(np.abs(tensor(a, b) - oracle_tensor(a, b))) <= 1e-12

    def test_eigensolver_against_closed_form_and_sum_rules(self, rng):
        for _ in range(20):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (m + m.conj().T) / 2.0
            tr, det = float(np.trace(h).real), float(np.linalg.det(h).real)
            disc = np.sqrt(max(0.0, tr * tr - 4.0 * det))
            ref = np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])
            got = herm_eigenvalues(h).eigenvalues
            assert np.max(np.abs(np.sort(got) - ref)) <= 1e-12
        for n in (3, 6, 9):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (m + m.conj().T) / 2.0
            lam = herm_eigenvalues(h).eigenvalues
            assert abs(np.sum(lam) - np.trace(h).real) <= 1e-12 * n
            assert abs(np.sum(lam ** 2) - np.sum(np.abs(h) ** 2)) <= 1e-10


class TestCriterion9KnownLimitation:
    def test_threshold_verdict_vs_ppt_on_bipartitions(self):
        # The eigenvalue-threshold classifier reads these states as
        # consistent-with-separable for every a in [2, 4), and none of the
        # three bipartite cuts is NPT, so ppt_check stays Inconclusive —
        # even though part of this range is known to be (bound) entangled.
        # This documented divergence must not be silently "fixed".
        for a in (2.0, 2.5, 2.8, 3.5, 3.99):
            rho = kay_state(a)
            v = slocc_classify(rho)
            assert v.outcome is SloccOutcome.FullySeparableConsistent
            t = rho.mat.reshape((2,) * 6)
            cuts = {
                "A": validate_density(rho.mat, [2, 4]),
                "B": validate_density(
                    t.transpose(1, 0, 2, 4, 3, 5).reshape(8, 8), [2, 4]),
                "C": validate_density(
                    t.transpose(2, 0, 1, 5, 3, 4).reshape(8, 8), [2, 4]),
            }
            for name, cut in cuts.items():
                assert ppt_check(cut).outcome is Outcome.Inconclusive, (a, name)
