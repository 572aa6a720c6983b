"""Bipartite entanglement detection.

Standard criteria (PPT, realignment, reduction) plus the SPA-based decision
procedures: witness construction from pure states, the physical Criterion-1
on SPA witnesses, eigenvalue bounds L/U for the SPA-PT state, and the
concurrence-linked Criteria 2-3.  Every criterion, and every bound of
:mod:`qent.coherence`, returns its :class:`Verdict` through :func:`_decide`.

All "iff" claims from the source material are implemented one-directionally:
an ``Entangled`` outcome is sound, anything else is ``Inconclusive`` (or a
plain condition flag) rather than a separability proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import DimensionError
from .linalg import DensityMatrix, _below, _floor_eps, expectation
from .spa import SpaState, SpaWitness
from .states import projector


class Outcome(Enum):
    """Result category of a detection or classification procedure."""

    Entangled = "Entangled"
    Inconclusive = "Inconclusive"
    ConditionSatisfied = "ConditionSatisfied"
    ConditionViolated = "ConditionViolated"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a criterion together with the scalar that produced it.

    Attributes
    ----------
    outcome : Outcome
    evidence : float
        The decision scalar (minimum eigenvalue, trace norm, trace value, ...).
    criterion : str
        Name of the criterion that was applied.
    """

    outcome: Outcome
    evidence: float
    criterion: str


_CONDITION = (Outcome.ConditionViolated, Outcome.ConditionSatisfied)


def _decide(criterion, evidence, statistic, threshold, budget=0.0,
            outcomes=(Outcome.Entangled, Outcome.Inconclusive)):
    """The :class:`Verdict` of ``criterion``: ``outcomes[0]`` when
    ``_below(statistic, threshold, budget)``, else ``outcomes[1]``."""
    return Verdict(outcome=outcomes[not _below(statistic, threshold, budget)],
                   evidence=float(evidence), criterion=criterion)


def ppt_check(rho: DensityMatrix, sys=1) -> Verdict:
    """PPT (Peres) criterion: a negative partial-transpose eigenvalue proves
    entanglement.

    Necessary and sufficient for 2x2 and 2x3; only necessary above.
    Evidence is ``lambda_min(rho^{T_sys})`` from ``rho.pt_spectrum_of(sys)``,
    the entry both parties share, since ``rho^{T_A} = (rho^{T_B})^T`` has the
    same spectrum.  Floor budget (:func:`~qent.linalg._floor_eps`):
    ``I^{T_B} = I`` gives ``eps``, inside the slack: 0.
    """
    linalg.BIPARTITE.require(rho.dims, "ppt_check")
    lam = float(rho.pt_spectrum_of(sys).eigenvalues[0])
    return _decide("ppt", lam, lam, 0.0)


def realignment_check(rho: DensityMatrix) -> Verdict:
    """Realignment (CCNR) criterion: trace norm of the realigned matrix
    above 1 proves entanglement (catches some PPT-entangled states).  The
    evidence is ``|R(rho)|_1``.  Floor budget (:func:`~qent.linalg._floor_eps`):
    ``n = d^2`` and ``R(I) = vec(I) vec(I)^T`` has trace norm ``d``, so
    ``(d^2 + d) eps``.
    """
    linalg.SQUARE.require(rho.dims, "realignment_check")
    lam = rho.realign_norm
    d = rho.dims[0]
    return _decide("realignment", lam, -lam, -1.0, (d * d + d) * _floor_eps(rho))


def reduction_check(rho: DensityMatrix) -> Verdict:
    """Reduction criterion, one side: a negative eigenvalue of ``rho_A (x) I
    - rho`` proves entanglement.  The evidence is ``lambda_min(R(rho))``, from
    ``rho.reduction_spectrum``.  Floor budget (:func:`~qent.linalg._floor_eps`):
    ``R(X) = X_A (x) I - X`` has ``R(I) = (d_B - 1) I``, so ``(d_B - 1) eps``.

    Only ``rho_A (x) I - rho`` is tested, not ``I (x) rho_B - rho`` as well,
    so the verdict can depend on the order of the parties: on the swapped
    state it tests the other side.  Each side alone is sound.
    """
    linalg.BIPARTITE.require(rho.dims, "reduction_check")
    lam = float(rho.reduction_spectrum.eigenvalues[0])
    return _decide("reduction", lam, lam, 0.0, (rho.dims[1] - 1) * _floor_eps(rho))


def witness_from_pure(psi, sys, dims):
    """Witness operator from an entangled pure state.

    ``W = (|psi><psi|)^{T_sys}`` — Hermitian, trace 1, with a negative
    eigenvalue whenever ``psi`` is entangled across the cut.

    Parameters
    ----------
    psi : array_like
        Bipartite state vector; :func:`~qent.states.ket` normalizes it.
    sys : int
        Subsystem to transpose.
    dims : list of int
        Subsystem dimensions.

    Returns
    -------
    numpy.ndarray
    """
    return linalg.partial_transpose(projector(psi, dims), sys)


def criterion1(rho: DensityMatrix, w_tilde: SpaWitness) -> Verdict:
    """Physical witness criterion: ``Tr(W_tilde rho) < (1-p)/(d1 d2)``
    detects entanglement through a measurable observable.

    ``W_tilde = p W + r I`` with ``r = (1-p)/n`` (the ``r_bound``) has unit
    trace, and a separable ``sigma`` has ``Tr(W sigma) >= 0``, so
    ``Tr(W_tilde sigma) >= r``.  Floor budget
    (:func:`~qent.linalg._floor_eps`): ``eps (1 - n r) = eps p``, inside the
    slack for ``p <= 1``: 0.
    """
    val = expectation(w_tilde.w_tilde, rho)
    return _decide("criterion1", val, val, w_tilde.r_bound)


def bounds_LU(rho: DensityMatrix, rho_tilde: SpaState, w):
    """Eigenvalue bounds for the SPA-PT state.

    Returns ``(L, U)`` with ``L = Tr(rho_tilde rho) + Tr(W rho)`` and
    ``U = 1/2 + L``; the minimum eigenvalue of ``rho_tilde`` satisfies
    ``max(L, 0) <= lambda_min <= U`` when ``W`` detects ``rho``.
    """
    val = (expectation(rho_tilde.rho_tilde, rho)
           + expectation(np.asarray(w, dtype=complex), rho))
    return float(val), float(0.5 + val)


@dataclass(frozen=True)
class ConcurrenceBounds:
    """Lower and upper bounds on the concurrence from measurable quantities."""

    lower: float
    upper: float


def concurrence_bounds(rho: DensityMatrix, w_tilde: SpaWitness,
                       rho_tilde: SpaState) -> ConcurrenceBounds:
    """Concurrence bounds from the SPA witness and SPA-PT state.

    ``lower = (1-p)/(p d1 d2) - Tr(W_tilde rho)/p`` and
    ``upper = Tr(rho_tilde rho)``.
    """
    # Written so that a NaN p fails the check.
    if not 0.0 < w_tilde.p <= 1.0:
        raise DimensionError(f"witness mixing p must be nonzero, in (0, 1], got {w_tilde.p}")
    dim = rho.dim
    lower = (1.0 - w_tilde.p) / (w_tilde.p * dim) - expectation(w_tilde.w_tilde, rho) / w_tilde.p
    upper = expectation(rho_tilde.rho_tilde, rho)
    return ConcurrenceBounds(lower=float(lower), upper=float(upper))


def _check_estimate(c):
    """Refuse a concurrence estimate that is not one nonnegative finite number."""
    # Written so that a NaN estimate fails the check.
    if np.ndim(c) != 0 or not 0.0 <= c < np.inf:
        raise DimensionError(
            f"concurrence estimate must be nonnegative, finite and scalar, got {c}")


def criterion2(rho: DensityMatrix, rho_tilde: SpaState, c) -> Verdict:
    """Eigenvalue floor check: ``lambda_min(rho_tilde) >= Tr(rho_tilde rho) - C``.

    Evidence is the margin ``lambda_min - (Tr(rho_tilde rho) - C)``.
    """
    _check_estimate(c)
    rt = rho_tilde.rho_tilde
    lam = float(rt.spectrum.eigenvalues[0])
    margin = lam - (expectation(rt, rho) - c)
    return _decide("criterion2", margin, margin, 0.0, outcomes=_CONDITION)


def criterion3(rho: DensityMatrix, rho_tilde: SpaState, c) -> Verdict:
    """Entanglement from the tightened upper bound:
    ``U_ent = 1/2 + Tr(rho_tilde rho) - C < 1/2`` detects entanglement."""
    _check_estimate(c)
    u_ent = 0.5 + expectation(rho_tilde.rho_tilde, rho) - c
    return _decide("criterion3", u_ent, u_ent, 0.5)
