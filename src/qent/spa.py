"""Structural physical approximation (SPA) of partial transposition.

The SPA of the (positive but not completely positive) partial-transpose map
mixes it with the fully depolarizing map just enough to make the result a
physical channel.  Applied to a state, the output ``rho_tilde`` is again a
density matrix whose minimum eigenvalue carries the entanglement information
of the original partial transpose.

This module provides the generic ``d (x) d`` and ``d1 (x) d2`` maps, the
two-qubit map (``d = 2``; its closed-form element map is a test oracle) and
the per-qubit map for three qubits, all built by one constructor, plus the
closed-form qutrit-qubit element map and the SPA of witness operators.

An SPA-PT output ``shift*I + scale*rho^{T_k}`` is never solved: its spectrum
is ``shift + scale*spec(rho^{T_k})``, from the solve of the partial transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, NotAWitness
from .linalg import (
    PSD_FLOOR,
    TRACE_TOL,
    ZERO_TOL,
    DensityMatrix,
    _checked_spectrum,
    _derived,
    _eye,
    _qubit_party,
    _unit_trace,
    _whole,
    herm_eigenvalues,
    partial_transpose,
)


@dataclass(frozen=True)
class SpaState:
    """Output of an SPA-PT map.

    Attributes
    ----------
    rho_tilde : DensityMatrix
        The approximated state.
    mixing : float
        Mixing parameter actually used (weight of the depolarizing part).
    threshold : float
        Separability floor for this dimension pair: separable inputs give
        ``lambda_min(rho_tilde) >= threshold``.
    """

    rho_tilde: DensityMatrix
    mixing: float
    threshold: float


@dataclass(frozen=True, eq=False)
class SpaWitness:
    """SPA of a witness operator: a physical (PSD, unit-trace) observable.

    Attributes
    ----------
    w_tilde : numpy.ndarray
        ``p W + ((1-p)/(d1 d2)) I``; positive semidefinite with unit trace.
    p : float
        Mixing weight kept on the witness.
    r_bound : float
        Detection threshold ``(1-p)/(d1 d2)``: entangled states detected by W
        give ``Tr(W_tilde rho) < r_bound``.
    """

    w_tilde: np.ndarray
    p: float
    r_bound: float


def _spa_pt(rho: DensityMatrix, party, shift, scale):
    """``shift*I + scale*rho^{T_k}`` (``scale > 0``) over party ``k``,
    unchecked: the SPA mixing makes it a completely positive, trace
    preserving map.  Its spectrum is the affine image of ``rho``'s cached
    spectrum of ``rho^{T_k}`` (``rho.pt_spectrum_of(k)``), with the residual
    measured against the output; the output itself is never solved."""
    pt = rho.pt_spectrum_of(party)
    out = shift * _eye(rho.dim) + scale * partial_transpose(rho, party)
    return _derived(out, rho.dims,
                    _checked_spectrum(out, shift + scale * pt.eigenvalues, pt.vectors))


def _spa_coefficients(d1, d2):
    """``(shift, scale, threshold, mixing)`` of the ``d1 (x) d2`` SPA-PT
    ``shift I + scale rho^{T_B}``: ``m/k``, ``1/k``, ``M/k`` and ``(k-1)/k``
    with ``m = min(d1, d2)``, ``M = max(d1, d2)`` and ``k = m^2 M + 1``, the
    published minimal-lambda forms with ``lambda = 1/m`` cancelled.  The
    threshold is the separability floor on ``d (x) d``; for unequal
    dimensions it exceeds the maximally mixed state's eigenvalue (see
    package notes), so it is exposed, not enforced."""
    m, big = min(d1, d2), max(d1, d2)
    k = float(m * m * big + 1)
    return m / k, 1.0 / k, big / k, (k - 1.0) / k


def spa_pt_dd(rho: DensityMatrix, d) -> SpaState:
    """SPA-PT for a ``d (x) d`` state, ``spa_pt_d1d2(rho, d, d)``:
    ``rho_tilde = (d/(d^3+1)) I + (1/(d^3+1)) rho^{T_B}``; separable states
    satisfy ``lambda_min(rho_tilde) >= d/(d^3+1)``."""
    return spa_pt_d1d2(rho, d, d)


def spa_pt_d1d2(rho: DensityMatrix, d1, d2) -> SpaState:
    """SPA-PT ``shift I + scale rho^{T_B}`` of a ``d1 (x) d2`` state, with the
    coefficients of :func:`_spa_coefficients`; the output's spectrum is the
    affine image of ``rho.pt_spectrum``, its residual measured against it."""
    d1, d2 = _whole(d1), _whole(d2)
    linalg.exact_dims(d1, d2).require(rho.dims, "spa_pt_d1d2")
    shift, scale, threshold, mixing = _spa_coefficients(d1, d2)
    out = _spa_pt(rho, 1, shift, scale)
    return SpaState(rho_tilde=out, mixing=mixing, threshold=threshold)


def spa_pt_two_qubit(rho: DensityMatrix) -> SpaState:
    """Two-qubit SPA-PT ``(2/9) I + (1/9) rho^{T_B}``, i.e. ``spa_pt_dd(rho, 2)``.

    The published closed-form element map is kept in the tests as an oracle.
    """
    return spa_pt_dd(rho, 2)


# Entries i < j of a 3 x 2 matrix whose qubit indices differ (i + j odd).
_QUBITS_DIFFER = np.triu(np.add.outer(np.arange(6), np.arange(6)) % 2 == 1)
_QUBITS_DIFFER.flags.writeable = False


def spa_pt_qutrit_qubit(rho):
    """Closed-form qutrit-qubit (3 x 2) SPA-PT element map.

    Implements the published element equations with the symmetric map
    parameters ``a = b = c = 1/sqrt(2)``.  Its entries between different
    qubit values are ``rho^{T_B}/12``.  The map is specified for states
    whose off-diagonal blocks satisfy the symmetry of the published family;
    outside that family the element equations do not preserve the trace
    (the excess is ``(3/16) Re[(t13+t24) - (t15+t26) + (t35+t46)]`` in
    1-indexed entries), and the trace check rejects the output with
    :class:`~qent.errors.TraceViolation`.  That check is the only one the
    output needs: read with the constant 1 as ``Tr rho``, the map's linear
    part has a positive semidefinite Choi matrix, and the output is
    Hermitian by construction, so a unit-trace output is a state.  It is
    wrapped unchecked and solved on first use.

    ``rho`` is one state, which gives one :class:`SpaState`, or a tuple of
    states, which gives a tuple: their matrices are mapped as one stack,
    entry by entry, so each output has the bits of its state mapped alone,
    and a stack fails the trace check as its worst output fails it alone.
    """
    states = rho if isinstance(rho, tuple) else (rho,)
    linalg.exact_dims(3, 2).require(linalg._one_dims(states), "spa_pt_qutrit_qubit")
    r = np.stack([one.mat for one in states])

    def t(i, j):
        return r[:, i - 1, j - 1]

    # a = b = c = 1/sqrt(2): every product of two parameters is 1/2.
    half = 0.5
    c32 = 3.0 / 32.0
    out = np.zeros(r.shape, dtype=complex)

    br11 = c32 * (1.0 + half * (t(3, 3) + t(4, 4)) + half * (t(5, 5) + t(6, 6))
                  + half * (t(3, 5) + np.conj(t(3, 5)) + t(4, 6) + np.conj(t(4, 6))))
    br13 = c32 * (half * (1.0 + t(5, 5) + t(6, 6)) - half * (t(1, 3) + t(2, 4))
                  - half * (t(1, 5) + t(2, 6))
                  + half * (np.conj(t(3, 5)) + np.conj(t(4, 6))))
    br15 = c32 * (-half * (1.0 + t(3, 3) + t(4, 4)) - half * (t(1, 3) + t(2, 4))
                  - half * (t(1, 5) + t(2, 6)) - half * (t(3, 5) + t(4, 6)))
    br33 = c32 * (1.0 + half * (t(1, 1) + t(2, 2)) + half * (t(5, 5) + t(6, 6))
                  - half * (t(1, 5) + np.conj(t(1, 5)) + t(2, 6) + np.conj(t(2, 6))))
    br35 = c32 * (half * (1.0 + t(1, 1) + t(2, 2)) - half * (t(1, 5) + t(2, 6))
                  + half * (np.conj(t(1, 3)) + np.conj(t(2, 4)))
                  - half * (t(3, 5) + t(4, 6)))
    br55 = c32 * (1.0 + half * (t(1, 1) + t(2, 2)) + half * (t(3, 3) + t(4, 4))
                  + half * (t(1, 3) + np.conj(t(1, 3)) + t(2, 4) + np.conj(t(2, 4))))
    # Block (i, j): its bracket plus the qubit entries t(i, j), t(i+1, j+1),
    # weighted (2/3, 1/3) in row i-1 and (1/3, 2/3) in row i.
    for (i, j), br in zip(((1, 1), (1, 3), (1, 5), (3, 3), (3, 5), (5, 5)),
                          (br11, br13, br15, br33, br35, br55)):
        out[:, i - 1, j - 1] = br + 0.25 * ((2.0 / 3.0) * t(i, j) + (1.0 / 3.0) * t(i + 1, j + 1))
        out[:, i, j] = br + 0.25 * ((1.0 / 3.0) * t(i, j) + (2.0 / 3.0) * t(i + 1, j + 1))

    out[:, _QUBITS_DIFFER] = partial_transpose(r, 1, [3, 2])[:, _QUBITS_DIFFER] / 12.0

    for i in range(6):
        for j in range(i + 1, 6):
            out[:, j, i] = np.conj(out[:, i, j])
    _unit_trace(out, "qutrit-qubit SPA-PT output")
    # Published 2x3 floor; exposed for reference (see _spa_coefficients).
    outs = tuple(SpaState(rho_tilde=_derived(mat, [3, 2]), mixing=0.75, threshold=3.0 / 13.0)
                 for mat in out)
    return outs if isinstance(rho, tuple) else outs[0]


# The three-qubit SPA-PT (1/10) I_8 + (1/5) rho^{T_k}: mixing p = 4/5 is
# hard-coded, because it is the minimal completely positive value and the
# 1/10 classification threshold assumes it.
THREE_QUBIT_SHIFT = 0.1
THREE_QUBIT_SCALE = 0.2
THREE_QUBIT_THRESHOLD = 0.1


def spa_pt_three_qubit(rho: DensityMatrix, qubit) -> SpaState:
    """SPA of single-qubit partial transposition for a three-qubit state.

    ``rho_tilde = (1/10) I_8 + (1/5) rho^{T_qubit}``; separable cuts satisfy
    ``lambda_min(rho_tilde) >= 1/10``.
    """
    party = _qubit_party(qubit)
    linalg.THREE_QUBIT.require(rho.dims, "spa_pt_three_qubit")
    out = _spa_pt(rho, party, THREE_QUBIT_SHIFT, THREE_QUBIT_SCALE)
    return SpaState(rho_tilde=out, mixing=0.8, threshold=THREE_QUBIT_THRESHOLD)


def spa_witness(w, d1, d2, p=None):
    """SPA of a witness operator, or of each of a stack of them.

    ``W_tilde = p W + ((1-p)/(d1 d2)) I``.  When ``p`` is omitted it defaults
    to the largest value keeping ``W_tilde`` positive semidefinite,
    ``p = (1/(d1 d2)) / (1/(d1 d2) + |lambda_min(W)|)``.

    Parameters
    ----------
    w : array_like
        Hermitian witness ``(n, n)``, or a stack ``(k, n, n)`` of them; each
        is normalized to unit trace if necessary.
    d1, d2 : int
        Subsystem dimensions.
    p : float, optional
        Explicit mixing override in (0, 1], the same for every witness.

    Returns
    -------
    SpaWitness or tuple of SpaWitness
        One for a matrix, one per matrix for a stack.  A stack is solved by
        one :func:`~qent.linalg.herm_eigenvalues` call, and each of its
        witnesses has the bits of its matrix taken alone; a stack raises the
        first check that any of its matrices fails.

    Raises
    ------
    NotAWitness
        If a witness has no negative eigenvalue.
    """
    w = np.asarray(w, dtype=complex)
    d1, d2 = _whole(d1), _whole(d2)
    dim = d1 * d2
    if not 2 <= w.ndim <= 3 or w.shape[-2:] != (dim, dim):
        raise DimensionError(f"witness shape {w.shape} does not match {d1}x{d2}")
    stack = w if w.ndim == 3 else w[np.newaxis]
    traces = [complex(np.trace(one)) for one in stack]
    off = [i for i, tr in enumerate(traces) if abs(tr - 1.0) > TRACE_TOL]
    if any(abs(traces[i]) < ZERO_TOL for i in off):
        raise NotAWitness("witness has zero trace and cannot be normalized")
    if off:
        stack = stack.copy()
        for i in off:
            stack[i] = stack[i] / traces[i]
    # A lone witness is solved 2-D (see the linalg module notes).
    specs = herm_eigenvalues(stack) if w.ndim == 3 else (herm_eigenvalues(stack[0]),)
    lam_mins = [float(spec.eigenvalues[0]) for spec in specs]
    if max(lam_mins) >= -ZERO_TOL:
        raise NotAWitness("operator is positive semidefinite, not a witness")
    inv = 1.0 / dim
    ps = [inv / (inv + abs(lam)) for lam in lam_mins] if p is None else [p] * len(stack)
    for q in ps:
        if not (0.0 < q <= 1.0):
            raise DimensionError(f"mixing p must lie in (0, 1], got {q}")
    # W_tilde is an affine image of W with p >= 0, so its smallest eigenvalue
    # follows from W's.
    if any(q * lam + (1.0 - q) / dim < PSD_FLOOR for q, lam in zip(ps, lam_mins)):
        raise NotAWitness("chosen p leaves the approximated witness non-positive")
    eye = _eye(dim)
    out = tuple(SpaWitness(w_tilde=q * one + ((1.0 - q) / dim) * eye, p=float(q),
                           r_bound=(1.0 - q) / dim) for q, one in zip(ps, stack))
    return out if w.ndim == 3 else out[0]
