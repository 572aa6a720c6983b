"""Invariances of the entanglement evidence under maps that cannot change
entanglement.  Complex conjugation and local unitaries leave unchanged the
negativity, the structured negativity, the Chen concurrence bound, the
two-qubit concurrence, the PPT, realignment and reduction evidence and the
three SPA-PT lambdas of a three-qubit state, and the lambdas, the
three-tangle and the three-pi measure of a ket.  A swap of the parties,
with their dims, leaves all but the reduction evidence unchanged (the
reduction check is one-sided); a permutation of three qubits permutes
their lambdas and leaves the tangle and three-pi unchanged.

States of every rank from 1 to ``n`` are drawn for each dims.  Values are
compared within ``EIG_RESIDUAL_TOL`` times their scale; the concurrence
takes square roots of eigenvalues near 0, which turn a rounding error
``delta`` into ``sqrt(delta)``, so it is compared within
``sqrt(EIG_RESIDUAL_TOL)``.  Verdicts are compared only where the evidence
lies farther than the value tolerance, the slack and the floor budget from
the threshold."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from qent.classify3 import slocc_classify
from qent.detect import ppt_check, realignment_check, reduction_check
from qent.linalg import (
    BIPARTITE,
    EIG_RESIDUAL_TOL,
    PROPER_BIPARTITE,
    PROPER_SQUARE,
    SLACK,
    SQUARE,
    TWO_QUBIT,
    _floor_eps,
    validate_density,
)
from qent.measures import (
    concurrence_2q,
    concurrence_lb_chen,
    negativity,
    structured_negativity,
    tangle_pure,
    three_pi,
)
from qent.spa import THREE_QUBIT_THRESHOLD

_BIPARTITE = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)]
_SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
_RANKS = st.floats(min_value=0.0, max_value=1.0)
_MEASURES = {"negativity": (PROPER_BIPARTITE, negativity),
             "structured_negativity": (PROPER_SQUARE, structured_negativity),
             "concurrence_lb_chen": (PROPER_SQUARE, concurrence_lb_chen),
             "concurrence_2q": (TWO_QUBIT, concurrence_2q)}
# Each check's shape, threshold and floor budget per unit of eps, as its
# docstring derives it.
_CHECKS = {"ppt": (BIPARTITE, ppt_check, 0.0, lambda d: 0.0),
           "realignment": (SQUARE, realignment_check, 1.0, lambda d: d[0] ** 2 + d[0]),
           "reduction": (BIPARTITE, reduction_check, 0.0, lambda d: d[1] - 1)}


def _draw(seed, rank_share, dims):
    """``(rng, matrix)``: a random state of dims ``dims`` whose rank runs
    from 1 (``rank_share`` 0) to ``n`` (``rank_share`` 1), and the rng that
    drew it, for the unitaries."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    rank = 1 + round(rank_share * (n - 1))
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = a @ a.conj().T
    return rng, m / np.trace(m).real


def _local_unitary(rng, dims):
    u = np.eye(1)
    for d in dims:
        u = np.kron(u, random_unitary(rng, d))
    return u


def _permute(m, dims, order):
    """``m`` with its parties reordered: party ``j`` of the result is party
    ``order[j]`` of ``m``."""
    n = len(dims)
    t = m.reshape(dims + dims).transpose(list(order) + [n + k for k in order])
    return t.reshape(m.shape)


def _values(rho):
    """The measure values that apply to ``rho``'s dims, by name."""
    return {name: fn(rho).value for name, (shape, fn) in _MEASURES.items()
            if shape.fits(rho.dims)}


def _assert_same_values(a, b):
    assert a.keys() == b.keys()
    for name in a:
        tol = math.sqrt(EIG_RESIDUAL_TOL) if name == "concurrence_2q" else EIG_RESIDUAL_TOL
        assert abs(a[name] - b[name]) <= tol * max(1.0, abs(a[name])), name


def _assert_same_verdicts(rho, other, names):
    """The checks ``names`` give ``rho`` and ``other`` the same evidence, and
    the same outcome wherever it is far from the threshold."""
    eps = max(_floor_eps(rho), _floor_eps(other))
    for name in names:
        shape, check, threshold, budget = _CHECKS[name]
        if not shape.fits(rho.dims):
            continue
        a, b = check(rho), check(other)
        assert abs(a.evidence - b.evidence) <= EIG_RESIDUAL_TOL * max(1.0, a.evidence), name
        far = EIG_RESIDUAL_TOL + SLACK + budget(rho.dims) * eps
        if abs(a.evidence - threshold) > far:
            assert a.outcome is b.outcome, name


def _assert_same_classes(rho, other, order=(0, 1, 2)):
    """The SPA-PT lambdas of ``other``, ``rho`` with its qubits in
    ``order``, are ``rho``'s in that order; with the qubits in place, so is
    the verdict wherever every lambda is far from the threshold."""
    a, b = slocc_classify(rho), slocc_classify(other)
    for j, k in enumerate(order):
        assert abs(b.lambdas[j] - a.lambdas[k]) <= EIG_RESIDUAL_TOL
    far = EIG_RESIDUAL_TOL + SLACK + max(_floor_eps(rho), _floor_eps(other)) / 5.0
    if tuple(order) == (0, 1, 2) and all(abs(lam - THREE_QUBIT_THRESHOLD) > far
                                         for lam in a.lambdas):
        assert a.outcome is b.outcome


@pytest.mark.parametrize("dims", _BIPARTITE, ids=str)
@settings(max_examples=15, deadline=None)
@given(seed=_SEEDS, rank_share=_RANKS)
def test_conjugation_and_local_unitaries_keep_the_bipartite_evidence(dims, seed, rank_share):
    rng, m = _draw(seed, rank_share, dims)
    rho = validate_density(m, dims)
    u = _local_unitary(rng, dims)
    for mat in (m.conj(), u @ m @ u.conj().T):
        other = validate_density(mat, dims)
        _assert_same_values(_values(rho), _values(other))
        _assert_same_verdicts(rho, other, _CHECKS)


@pytest.mark.parametrize("dims", _BIPARTITE, ids=str)
@settings(max_examples=15, deadline=None)
@given(seed=_SEEDS, rank_share=_RANKS)
def test_a_party_swap_keeps_the_measures_and_two_sided_checks(dims, seed, rank_share):
    _, m = _draw(seed, rank_share, dims)
    rho = validate_density(m, dims)
    swapped = validate_density(_permute(m, dims, (1, 0)), dims[::-1])
    _assert_same_values(_values(rho), _values(swapped))
    _assert_same_verdicts(rho, swapped, ("ppt", "realignment"))


@settings(max_examples=25, deadline=None)
@given(seed=_SEEDS, rank_share=_RANKS)
def test_conjugation_and_local_unitaries_keep_the_three_qubit_lambdas(seed, rank_share):
    rng, m = _draw(seed, rank_share, (2, 2, 2))
    rho = validate_density(m, [2, 2, 2])
    u = _local_unitary(rng, (2, 2, 2))
    for mat in (m.conj(), u @ m @ u.conj().T):
        _assert_same_classes(rho, validate_density(mat, [2, 2, 2]))


@pytest.mark.parametrize("order", [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)],
                         ids=str)
@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, rank_share=_RANKS)
def test_the_three_qubit_lambdas_permute_with_the_qubits(order, seed, rank_share):
    _, m = _draw(seed, rank_share, (2, 2, 2))
    rho = validate_density(m, [2, 2, 2])
    _assert_same_classes(rho, validate_density(_permute(m, (2, 2, 2), order), [2, 2, 2]),
                         order)


@settings(max_examples=25, deadline=None)
@given(seed=_SEEDS)
def test_a_ket_keeps_its_measures_and_permutes_its_lambdas(seed):
    # A ket takes the closed-form path of slocc_classify, with no solve.
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    lams = slocc_classify(v).lambdas
    values = (tangle_pure(v).value, three_pi(v).value)
    for w in (v.conj(), _local_unitary(rng, (2, 2, 2)) @ v):
        assert slocc_classify(w).lambdas == pytest.approx(lams, abs=EIG_RESIDUAL_TOL)
        assert (tangle_pure(w).value, three_pi(w).value) == pytest.approx(
            values, abs=EIG_RESIDUAL_TOL)
    for order in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        w = v.reshape(2, 2, 2).transpose(order).ravel()
        assert slocc_classify(w).lambdas == pytest.approx([lams[k] for k in order],
                                                          abs=EIG_RESIDUAL_TOL)
        assert (tangle_pure(w).value, three_pi(w).value) == pytest.approx(
            values, abs=EIG_RESIDUAL_TOL)
