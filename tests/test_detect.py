"""Detection criteria: PPT, realignment, reduction, SPA criteria 1-3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_product_density
from qent import detect
from qent.errors import DimensionError, NonFiniteEntry
from qent.detect import (
    Outcome,
    bounds_LU,
    concurrence_bounds,
    criterion1,
    criterion2,
    criterion3,
    ppt_check,
    realignment_check,
    reduction_check,
    witness_from_pure,
)
from qent.linalg import herm_eigenvalues, partial_trace, partial_transpose
from qent.measures import concurrence_2q
from qent.spa import spa_pt_two_qubit, spa_witness
from qent.states import (
    bell_phi_plus,
    horodecki_bound_entangled,
    isotropic_two_qutrit,
    pptes_two_qutrit,
    werner_state,
    x_state,
)


def _x_witness(f):
    k = -f / abs(f)
    psi = np.array([k, 0, 0, 1.0], dtype=complex) / np.sqrt(2.0)
    return witness_from_pure(psi, 1, [2, 2])


def test_reduction_uses_the_partial_trace_bits(rng, monkeypatch):
    # rho_A (x) I - rho, built from partial_trace, is the matrix solved.
    seen = []
    solve = detect._solve
    monkeypatch.setattr(detect, "_solve", lambda h: seen.append(h) or solve(h))
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 4)):
        rho = random_density(rng, dims)
        rho_a = partial_trace(rho, [0]).mat
        want = np.kron(rho_a, np.eye(dims[1])) - rho.mat
        seen.clear()
        reduction_check(rho)
        (got,) = seen
        assert got.tobytes() == want.tobytes()


class TestStandardCriteria:
    def test_werner_ppt(self):
        v = ppt_check(werner_state(0.5))
        assert v.outcome is Outcome.Entangled
        assert abs(v.evidence + 0.125) <= 1e-12
        assert ppt_check(werner_state(0.3)).outcome is Outcome.Inconclusive

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_ppt_over_either_factor_shares_one_solve(self, rng, solve_sizes, dims):
        rho = random_density(rng, dims)
        direct = herm_eigenvalues(partial_transpose(rho, 0)).eigenvalues[0]
        solve_sizes.clear()
        v0, v1 = ppt_check(rho, 0), ppt_check(rho, 1)
        assert solve_sizes == [rho.dim]
        assert v0 == v1
        assert abs(v0.evidence - direct) <= 1e-12

    @pytest.mark.parametrize("sys", [-1, 2])
    def test_ppt_rejects_other_sys(self, sys):
        with pytest.raises(DimensionError):
            ppt_check(werner_state(0.5), sys)

    def test_product_states_all_inconclusive(self, rng):
        for _ in range(5):
            rho = random_product_density(rng, (2, 2))
            assert ppt_check(rho).outcome is Outcome.Inconclusive
            assert realignment_check(rho).outcome is Outcome.Inconclusive
            assert reduction_check(rho).outcome is Outcome.Inconclusive

    # PPT is entangled exactly above F = 1/3 on the Werner line and above
    # alpha = 1/4 on the isotropic two-qutrit line.
    @pytest.mark.parametrize("family,edge", [(werner_state, 1 / 3),
                                             (isotropic_two_qutrit, 1 / 4)],
                             ids=["werner", "isotropic"])
    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(min_value=0.0, max_value=1.0),
           b=st.floats(min_value=0.0, max_value=1.0))
    def test_ppt_verdict_is_monotone_along_the_line(self, family, edge, a, b):
        lo, hi = sorted((a, b))
        if ppt_check(family(lo)).outcome is Outcome.Entangled:
            assert ppt_check(family(hi)).outcome is Outcome.Entangled
        assert ppt_check(family(edge - 1e-6)).outcome is Outcome.Inconclusive
        assert ppt_check(family(edge + 1e-6)).outcome is Outcome.Entangled

    def test_realignment_catches_ppt_entangled(self):
        rho = pptes_two_qutrit()
        assert ppt_check(rho).outcome is Outcome.Inconclusive
        assert realignment_check(rho).outcome is Outcome.Entangled

    def test_bound_entangled_family_is_ppt(self):
        rho = horodecki_bound_entangled(0.5)
        assert ppt_check(rho).outcome is Outcome.Inconclusive

    def test_reduction_on_bell(self):
        v = bell_phi_plus()
        rho = np.outer(v, v.conj())
        from qent.linalg import validate_density
        assert reduction_check(validate_density(rho, [2, 2])).outcome is Outcome.Entangled


class TestSpaCriteria:
    @pytest.mark.parametrize("a,b,f,favg", [
        (0.05, 0.45, 0.4 + 0.1j, 0.04589),
        (0.1, 0.4, 0.25 + 0.25j, 0.08214),
        (0.15, 0.35, 0.24 + 0.2j, 0.11253),
        (0.2, 0.3, 0.27 + 0.13j, 0.13344),
    ])
    def test_criterion1_symmetric_family(self, a, b, f, favg):
        rho = x_state(a, b, f)
        sw = spa_witness(_x_witness(f), 2, 2)
        v = criterion1(rho, sw)
        assert v.outcome is Outcome.Entangled
        assert abs(v.evidence - favg) <= 1e-3
        assert abs(v.evidence - (2 * a + b - abs(f)) / 3.0) <= 1e-12

    def test_criterion1_refuses_a_non_finite_bare_state(self):
        # A NaN state must not become an Inconclusive verdict with NaN evidence.
        sw = spa_witness(_x_witness(0.25 + 0.25j), 2, 2)
        with pytest.raises(NonFiniteEntry):
            criterion1(np.full((4, 4), np.nan), sw)

    def test_bounds_lu_sandwich(self):
        rho = x_state(0.1, 0.4, 0.25 + 0.25j)
        spa = spa_pt_two_qubit(rho)
        lo, hi = bounds_LU(rho, spa, _x_witness(0.25 + 0.25j))
        lam = float(herm_eigenvalues(spa.rho_tilde.mat).eigenvalues[0])
        assert max(lo, 0.0) - 1e-9 <= lam <= hi + 1e-9

    def test_criterion2_and_3_family_rows(self):
        from qent.linalg import expectation
        for a, b, f in [(0.05, 0.45, 0.2 + 0.2j), (0.1, 0.4, 0.25 + 0.25j),
                        (0.15, 0.35, 0.24 + 0.2j), (0.2, 0.3, 0.27 + 0.13j)]:
            rho = x_state(a, b, f)
            spa = spa_pt_two_qubit(rho)
            assert criterion2(rho, spa, abs(f) - a).outcome is Outcome.ConditionSatisfied
            # criterion3 fires exactly when the concurrence estimate exceeds
            # the SPA overlap Tr(rho_tilde rho)
            c = concurrence_2q(rho).value
            overlap = expectation(spa.rho_tilde.mat, rho)
            v = criterion3(rho, spa, c)
            assert abs(v.evidence - (0.5 + overlap - c)) <= 1e-12
            expected = Outcome.Entangled if c > overlap + 1e-9 else Outcome.Inconclusive
            assert v.outcome is expected

    def test_concurrence_bounds_bracket_wootters(self):
        rho = x_state(0.05, 0.45, 0.2 + 0.2j)
        sw = spa_witness(_x_witness(0.2 + 0.2j), 2, 2)
        cb = concurrence_bounds(rho, sw, spa_pt_two_qubit(rho))
        c = concurrence_2q(rho).value
        assert cb.lower <= c + 1e-9
        assert cb.lower <= cb.upper
