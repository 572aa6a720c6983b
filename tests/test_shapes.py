"""The dims rules of :mod:`qent.linalg`: every guarded library function
raises ``DimensionError`` exactly on the states its ``Shape`` does not fit,
and every criterion and measure of the CLI fits exactly the states its
library function accepts."""

import numpy as np
import pytest

from conftest import random_density
from qent import cli
from qent.classify3 import correlation_tensors, slocc_classify
from qent.detect import ppt_check, reduction_check
from qent.errors import DimensionError
from qent.linalg import (
    BIPARTITE,
    PROPER_BIPARTITE,
    PROPER_SQUARE,
    SQUARE,
    THREE_QUBIT,
    TWO_QUBIT,
    exact_dims,
    partial_transpose_qubit,
    realign,
)
from qent.measures import concurrence_2q, concurrence_lb_chen, negativity, structured_negativity
from qent.spa import (
    spa_pt_d1d2,
    spa_pt_dd,
    spa_pt_qutrit_qubit,
    spa_pt_three_qubit,
    spa_pt_three_qubit_cuts,
    spa_pt_two_qubit,
)
from qent.states import bell_phi_plus, ghz_state, projector, qutrit_qubit_alpha_state


def _states():
    rng = np.random.default_rng(20240824)
    states = {str(list(dims)): random_density(rng, dims)
              for dims in ((4,), (1, 4), (2, 2), (2, 3), (3, 3), (4, 4), (2, 2, 2),
                           (2, 2, 2, 2))}
    # In the family of the qutrit-qubit element map, whose trace check
    # refuses a state outside it.
    states["[3, 2]"] = qutrit_qubit_alpha_state(0.3)
    states["[2, 2] pure"] = projector(bell_phi_plus(), [2, 2])
    states["[2, 2, 2] pure"] = projector(ghz_state(), [2, 2, 2])
    return states


STATES = _states()

GUARDED = {
    "spa_pt_dd": (lambda rho: spa_pt_dd(rho, 3), exact_dims(3, 3)),
    "spa_pt_d1d2": (lambda rho: spa_pt_d1d2(rho, 2, 3), exact_dims(2, 3)),
    "spa_pt_two_qubit": (spa_pt_two_qubit, TWO_QUBIT),
    "spa_pt_qutrit_qubit": (spa_pt_qutrit_qubit, exact_dims(3, 2)),
    "spa_pt_three_qubit": (lambda rho: spa_pt_three_qubit(rho, "B"), THREE_QUBIT),
    "spa_pt_three_qubit_cuts": (spa_pt_three_qubit_cuts, THREE_QUBIT),
    "pt_spectrum": (lambda rho: rho.pt_spectrum, BIPARTITE),
    "ppt_check": (ppt_check, BIPARTITE),
    "reduction_check": (reduction_check, BIPARTITE),
    "concurrence_2q": (concurrence_2q, TWO_QUBIT),
    "negativity": (negativity, PROPER_BIPARTITE),
    "structured_negativity": (structured_negativity, PROPER_SQUARE),
    "concurrence_lb_chen": (concurrence_lb_chen, PROPER_SQUARE),
    "correlation_tensors": (correlation_tensors, THREE_QUBIT),
    "slocc_classify": (slocc_classify, THREE_QUBIT),
    "realign": (realign, SQUARE),
    "partial_transpose_qubit": (lambda rho: partial_transpose_qubit(rho, "C"), THREE_QUBIT),
}


def _misfits(run, fits):
    """Names of the states on which ``run`` raises ``DimensionError`` when
    ``fits`` holds, or returns when it does not."""
    found = []
    for state, rho in STATES.items():
        try:
            run(rho)
        except DimensionError:
            raised = True
        else:
            raised = False
        if raised == fits(rho):
            found.append(state)
    return found


@pytest.mark.parametrize("name", GUARDED)
def test_guard_raises_exactly_where_the_shape_does_not_fit(name):
    run, shape = GUARDED[name]
    assert _misfits(run, lambda rho: shape.fits(rho.dims)) == []


@pytest.mark.parametrize("table, name", [("_CRITERIA", name) for name in cli._CRITERIA]
                         + [("_MEASURES", name) for name in cli._MEASURES])
def test_cli_entry_fits_exactly_where_its_function_accepts_the_state(table, name):
    entry = getattr(cli, table)[name]
    assert _misfits(entry.run, entry.fits) == []


def test_shape_error_names_the_function_and_the_dims():
    with pytest.raises(DimensionError, match=r"realign needs dims \[d, d\], got dims \[2, 3\]"):
        SQUARE.require((2, 3), "realign")
    SQUARE.require([3, 3], "realign")
