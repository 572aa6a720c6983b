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
    witness_from_pure,
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
from qent.measures import (
    concurrence_2q,
    concurrence_lb_chen,
    concurrence_pure,
    negativity,
    structured_negativity,
)
from qent.spa import (
    SpaWitness,
    spa_pt_d1d2,
    spa_pt_dd,
    spa_pt_qutrit_qubit,
    spa_pt_three_qubit,
    spa_pt_two_qubit,
    spa_witness,
)
from qent.states import (
    bell_phi_plus,
    embed_pair_product,
    ghz_state,
    ket,
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
_BELL_WITNESS = witness_from_pure(bell_phi_plus(), 1, [2, 2])


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
    "concurrence_bounds p = nan": (lambda: concurrence_bounds(
        _MAXIMALLY_MIXED, SpaWitness(w_tilde=np.eye(4) / 4, p=float("nan"), r_bound=0.25),
        spa_pt_two_qubit(_MAXIMALLY_MIXED)), "p must be nonzero"),
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
    "criterion2 c = array": (lambda: criterion2(_TWO_QUBIT, spa_pt_two_qubit(_TWO_QUBIT),
                                                np.array([0.1, 0.2])), "must be nonnegative"),
    "criterion3 c = array": (lambda: criterion3(_TWO_QUBIT, spa_pt_two_qubit(_TWO_QUBIT),
                                                np.array([0.1, 0.2])), "must be nonnegative"),
    "realignment_check dims": (lambda: realignment_check(STATES["[2, 3]"]),
                               r"realignment_check needs dims \[d, d\], got dims \[2, 3\]"),
    "validate_density dims 2.5": (lambda: validate_density(np.eye(4) / 4, [2.5, 2]),
                                  "not a whole number"),
    "validate_density dims nan": (lambda: validate_density(np.eye(4) / 4, [float("nan"), 2]),
                                  "not a whole number"),
    "validate_density dims inf": (lambda: validate_density(np.eye(4) / 4, [float("inf"), 2]),
                                  "not a whole number"),
    "validate_density dims str": (lambda: validate_density(np.eye(4) / 4, ["2", "2"]),
                                  "not a whole number"),
    "validate_density dims bool": (lambda: validate_density(np.eye(4) / 4, [True, 4]),
                                   "not a whole number"),
    "validate_density dims word": (lambda: validate_density(np.eye(4) / 4, ["x", 4]),
                                   "not a whole number"),
    "validate_density dims None": (lambda: validate_density(np.eye(4) / 4, [None, 4]),
                                   "not a whole number"),
    "ket dims 2.7": (lambda: ket([1, 0, 0, 1], [2.7, 2]), "not a whole number"),
    "spa_pt_dd d = 2.9": (lambda: spa_pt_dd(_TWO_QUBIT, 2.9), "not a whole number"),
    "spa_pt_d1d2 d2 = 3.5": (lambda: spa_pt_d1d2(STATES["[2, 3]"], 2, 3.5), "not a whole number"),
    "spa_witness d1 = 2.5": (lambda: spa_witness(_BELL_WITNESS, 2.5, 2), "not a whole number"),
    "spa_witness d2 = nan": (lambda: spa_witness(_BELL_WITNESS, 2, float("nan")),
                             "not a whole number"),
    "partial_trace empty keep": (lambda: partial_trace(_TWO_QUBIT, []), "nonempty"),
    "partial_trace keep out of range": (lambda: partial_trace(_TWO_QUBIT, [2]), "out of range"),
    "partial_trace keep 0.7": (lambda: partial_trace(_TWO_QUBIT, [0.7]), "not a whole number"),
    "partial_trace keep 1.5": (lambda: partial_trace(_TWO_QUBIT, [1.5]), "not a whole number"),
    "partial_transpose sys 0.5": (lambda: partial_transpose(_TWO_QUBIT, 0.5),
                                  "not a whole number"),
    "partial_transpose sys True": (lambda: partial_transpose(_TWO_QUBIT, True),
                                   "not a whole number"),
    "ppt_check sys 0.5": (lambda: ppt_check(_TWO_QUBIT, 0.5), "not a whole number"),
    "expectation shapes": (lambda: expectation(np.eye(2), _TWO_QUBIT), "!= state shape"),
    "bare matrix without dims": (lambda: partial_transpose(np.eye(4) / 4, 0),
                                 "required for a bare matrix"),
    "embed_pair_product pair size": (lambda: embed_pair_product(
        np.eye(2) / 2, 0, np.eye(2) / 2), "wrong size"),
    "embed_pair_product single size": (lambda: embed_pair_product(
        np.eye(3) / 3, 0, np.eye(4) / 4), "wrong size"),
    "embed_pair_product single_pos 1.5": (lambda: embed_pair_product(
        np.eye(2) / 2, 1.5, np.eye(4) / 4), "not a whole number"),
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


@pytest.mark.parametrize("two", [2.0, np.int64(2)], ids=["float", "numpy int"])
def test_whole_valued_dims_work_as_ints(two):
    assert validate_density(np.eye(4) / 4, [two, 2]).dims == (2, 2)
    assert np.array_equal(ket([1, 0, 0, 1], [two, 2]), ket([1, 0, 0, 1], [2, 2]))
    got, want = spa_pt_dd(_TWO_QUBIT, two), spa_pt_dd(_TWO_QUBIT, 2)
    assert np.array_equal(got.rho_tilde.mat, want.rho_tilde.mat)
    assert (got.mixing, got.threshold) == (want.mixing, want.threshold)
    got, want = spa_witness(_BELL_WITNESS, two, two), spa_witness(_BELL_WITNESS, 2, 2)
    assert np.array_equal(got.w_tilde, want.w_tilde)
    assert (got.p, got.r_bound) == (want.p, want.r_bound)
    assert concurrence_pure([1, 0, 0, 1], two, two) == concurrence_pure([1, 0, 0, 1], 2, 2)


@pytest.mark.parametrize("one", [1.0, np.int64(1)], ids=["float", "numpy int"])
def test_whole_valued_party_indices_work_as_ints(one):
    assert np.array_equal(partial_transpose(_TWO_QUBIT, one), partial_transpose(_TWO_QUBIT, 1))
    assert ppt_check(_TWO_QUBIT, one) == ppt_check(_TWO_QUBIT, 1)
    assert np.array_equal(partial_trace(_TWO_QUBIT, [one]).mat,
                          partial_trace(_TWO_QUBIT, [1]).mat)
    single, pair = np.diag([0.0, 1.0]), np.eye(4) / 4
    want = embed_pair_product(single, 1, pair, n=3)
    assert np.array_equal(embed_pair_product(single, one, pair, n=3), want)
    assert np.array_equal(embed_pair_product(single, 1, pair, n=3 * one), want)


# An int beyond the float range is a whole number too: it must fail the
# range or product rule with DimensionError, not overflow on its way there.
HUGE_WHOLE_NUMBERS = {
    "validate_density dims 10**400": (lambda: validate_density(np.eye(1), [10 ** 400]),
                                      "do not multiply"),
    "validate_density dims -10**400": (lambda: validate_density(np.eye(1), [-10 ** 400]),
                                       "at least 1"),
    "partial_transpose sys 10**400": (lambda: partial_transpose(np.eye(4), 10 ** 400, [2, 2]),
                                      "out of range"),
    "partial_trace keep 10**400": (lambda: partial_trace(_TWO_QUBIT, [10 ** 400]),
                                   "out of range"),
    "ppt_check sys -10**400": (lambda: ppt_check(_TWO_QUBIT, -10 ** 400), "out of range"),
    "ket dims 10**400": (lambda: ket([1, 0, 0, 1], [10 ** 400, 2]), "do not multiply"),
}


@pytest.mark.parametrize("name", HUGE_WHOLE_NUMBERS)
def test_a_whole_number_beyond_the_float_range_is_a_dimension_error(name):
    run, message = HUGE_WHOLE_NUMBERS[name]
    with pytest.raises(DimensionError, match=message):
        run()
