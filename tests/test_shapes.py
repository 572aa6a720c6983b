"""The dims rules of :mod:`qent.linalg`: every guarded library function
raises ``DimensionError`` exactly on the states its ``Shape`` does not fit,
and every criterion and measure of the CLI fits exactly the states its
library function accepts.  The argument guards outside the shape table
raise ``DimensionError`` too."""

import numpy as np
import pytest

from conftest import random_density
from qent import cli
from qent.classify3 import (
    CanonicalThreeQubit,
    correlation_tensors,
    ghz_witness_value,
    slocc_classify,
    subclass_fidelities,
)
from qent.coherence import (
    Ensemble,
    biseparable_pure_bound,
    mixed_biseparable_bound,
    separable_bound,
)
from qent.detect import (
    concurrence_bounds,
    criterion2,
    criterion3,
    ppt_check,
    realignment_check,
    reduction_check,
)
from qent.errors import DimensionError
from qent.linalg import (
    BIPARTITE,
    PROPER_BIPARTITE,
    PROPER_SQUARE,
    SQUARE,
    THREE_QUBIT,
    TWO_QUBIT,
    exact_dims,
    expectation,
    partial_trace,
    partial_transpose,
    partial_transpose_qubit,
    realign,
    validate_density,
)
from qent.measures import concurrence_2q, concurrence_lb_chen, negativity, structured_negativity
from qent.spa import (
    SpaWitness,
    spa_pt_d1d2,
    spa_pt_dd,
    spa_pt_qutrit_qubit,
    spa_pt_three_qubit,
    spa_pt_two_qubit,
)
from qent.states import (
    bell_phi_plus,
    embed_pair_product,
    ghz_state,
    projector,
    qutrit_qubit_alpha_state,
)


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
    "realignment_check": (realignment_check, SQUARE),
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


_TWO_QUBIT = STATES["[2, 2]"]
_MAXIMALLY_MIXED = validate_density(np.eye(4) / 4, [2, 2])
_GHZ_CLASS = CanonicalThreeQubit(0.6, 0.0, 0.0, 0.0, 0.8)


def _ensemble(*labels):
    parts = tuple((_TWO_QUBIT,) for _ in labels)
    return Ensemble(weights=(1.0 / len(labels),) * len(labels), parts=parts, labels=labels)


ARGUMENT_GUARDS = {
    "Ensemble misaligned": (lambda: Ensemble(weights=(1.0,), parts=(), labels=("A-BC",)),
                            "must align"),
    "Ensemble label": (lambda: _ensemble("AB-C"), "unknown partition label"),
    "biseparable_pure_bound label": (lambda: biseparable_pure_bound(
        _ensemble("A-BC", "B-AC"), _TWO_QUBIT), "one common cut label"),
    "mixed_biseparable_bound label": (lambda: mixed_biseparable_bound(
        _ensemble("A-BC", "product"), _TWO_QUBIT), "cut-labeled terms only"),
    "separable_bound label": (lambda: separable_bound(
        _ensemble("product", "C-AB"), _TWO_QUBIT), "fully-product terms"),
    "concurrence_bounds p = 0": (lambda: concurrence_bounds(
        _TWO_QUBIT, SpaWitness(w_tilde=np.eye(4) / 4, p=0.0, r_bound=0.25),
        spa_pt_two_qubit(_TWO_QUBIT)), "p must be nonzero"),
    "criterion2 c < 0": (lambda: criterion2(_TWO_QUBIT, spa_pt_two_qubit(_TWO_QUBIT), -0.1),
                         "must be nonnegative"),
    "criterion3 c < 0": (lambda: criterion3(_TWO_QUBIT, spa_pt_two_qubit(_TWO_QUBIT), -0.1),
                         "must be nonnegative"),
    "criterion2 c = nan": (lambda: criterion2(_TWO_QUBIT, spa_pt_two_qubit(_TWO_QUBIT),
                                              float("nan")), "must be nonnegative"),
    "criterion3 c = nan": (lambda: criterion3(_TWO_QUBIT, spa_pt_two_qubit(_TWO_QUBIT),
                                              float("nan")), "must be nonnegative"),
    # I/4 is separable, so an infinite estimate would make criterion 3 claim it.
    "criterion2 c = inf": (lambda: criterion2(_MAXIMALLY_MIXED, spa_pt_two_qubit(
        _MAXIMALLY_MIXED), float("inf")), "must be nonnegative"),
    "criterion3 c = inf": (lambda: criterion3(_MAXIMALLY_MIXED, spa_pt_two_qubit(
        _MAXIMALLY_MIXED), float("inf")), "must be nonnegative"),
    "realignment_check dims": (lambda: realignment_check(STATES["[2, 3]"]),
                               r"realignment_check needs dims \[d, d\], got dims \[2, 3\]"),
    "partial_trace empty keep": (lambda: partial_trace(_TWO_QUBIT, []), "nonempty"),
    "partial_trace keep out of range": (lambda: partial_trace(_TWO_QUBIT, [2]), "out of range"),
    "expectation shapes": (lambda: expectation(np.eye(2), _TWO_QUBIT), "!= state shape"),
    "bare matrix without dims": (lambda: partial_transpose(np.eye(4) / 4, 0),
                                 "required for a bare matrix"),
    "embed_pair_product pair size": (lambda: embed_pair_product(
        np.eye(2) / 2, 0, np.eye(2) / 2), "wrong size"),
    "subclass_fidelities subclass": (lambda: subclass_fidelities(_GHZ_CLASS, "S5"),
                                     "unknown subclass"),
    "ghz_witness_value witness": (lambda: ghz_witness_value(_GHZ_CLASS, "H9"),
                                  "unknown witness"),
}


@pytest.mark.parametrize("name", ARGUMENT_GUARDS)
def test_argument_guard_raises_dimension_error(name):
    run, message = ARGUMENT_GUARDS[name]
    with pytest.raises(DimensionError, match=message):
        run()
