"""Entanglement and coherence quantifiers.

Two-qubit concurrence (spin-flip construction), generalized pure-state
concurrence, negativity, structured negativity (the SPA-PT based measure),
the Chen-style concurrence lower bound, the pure-state three-tangle, the
three-pi measure, and the l1-norm of coherence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, EigensolverError
from .linalg import EIG_RESIDUAL_TOL, PSD_FLOOR, DensityMatrix, _as_square, herm_eigenvalues
from .spa import _spa_coefficients
from .states import _cut_schmidt_products, ket

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


@dataclass(frozen=True)
class MeasureValue:
    """A nonnegative measure value with its name and dimension context."""

    value: float
    measure: str
    d: int

    def __post_init__(self):
        value = float(self.value)
        # Written so that NaN is refused too (max(0.0, nan) would be 0.0).
        if not value >= PSD_FLOOR:
            raise DimensionError(f"{self.measure} produced an invalid value {value}")
        object.__setattr__(self, "value", max(0.0, value))


def concurrence_2q(rho: DensityMatrix) -> MeasureValue:
    """Two-qubit concurrence via the spin-flipped spectrum.

    ``max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))`` where ``l_i`` are
    the descending eigenvalues of ``rho (sy (x) sy) rho* (sy (x) sy)``.
    """
    linalg.TWO_QUBIT.require(rho.dims, "concurrence_2q")
    flipped = _SIGMA_YY @ rho.mat.conj() @ _SIGMA_YY
    # rho @ flipped is similar to the Hermitian PSD matrix
    # sqrt(rho) flipped sqrt(rho), so its spectrum can be taken Hermitianly.
    spec = rho.spectrum
    root = spec.vectors @ np.diag(np.sqrt(np.clip(spec.eigenvalues, 0.0, None))) \
        @ spec.vectors.conj().T
    lam = herm_eigenvalues(root @ flipped @ root).eigenvalues
    lam = np.sqrt(np.clip(lam[::-1], 0.0, None))
    return MeasureValue(value=max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3])),
                        measure="concurrence", d=2)


def concurrence_pure(psi, d1, d2) -> MeasureValue:
    """Generalized concurrence of a bipartite pure state.

    ``sqrt(2 (1 - Tr(rho_A^2)))`` (unit prefactors), which reduces to the
    two-qubit concurrence on qubit pairs.  ``2 (1 - Tr(rho_A^2))`` is
    computed as ``4 sum_{i<j} s_i^2 s_j^2`` over the Schmidt coefficients
    ``s_i``, so a product state gives 0 to rounding instead of the square
    root of a rounding error.
    """
    v = ket(psi, [d1, d2])
    p = np.linalg.svd(v.reshape(d1, d2), compute_uv=False) ** 2
    cross = float(np.triu(np.outer(p, p), 1).sum())
    return MeasureValue(value=float(np.sqrt(4.0 * cross)),
                        measure="concurrence_pure", d=min(d1, d2))


def _pt_trace_norm(rho):
    """``|rho^{T_B}|_1 = |rho^{T_A}|_1`` from the cached partial-transpose spectrum."""
    return float(np.sum(np.abs(rho.pt_spectrum.eigenvalues)))


def negativity(rho: DensityMatrix) -> MeasureValue:
    """Negativity ``(|rho^{T_B}|_1 - 1)/(d - 1)``.

    Equals ``2/(d-1)`` times the absolute sum of negative partial-transpose
    eigenvalues.  For unequal subsystem dimensions ``d = min(d1, d2)``.
    """
    linalg.PROPER_BIPARTITE.require(rho.dims, "negativity")
    d = min(rho.dims)
    val = (_pt_trace_norm(rho) - 1.0) / (d - 1.0)
    return MeasureValue(value=val, measure="negativity", d=d)


def structured_negativity(rho: DensityMatrix) -> MeasureValue:
    """Structured negativity ``K max(d/(d^3+1) - lambda_min(rho_tilde), 0)``.

    ``K = d (d^3 + 1)`` and ``rho_tilde = shift I + scale rho^{T_B}`` is the
    SPA-PT of the state (:func:`qent.spa.spa_pt_dd`) — an experimentally
    accessible analogue of negativity (they coincide for two qubits).  With
    ``scale > 0``, ``lambda_min(rho_tilde) = shift + scale lambda_min`` of
    ``rho.pt_spectrum``, so ``rho_tilde`` is not built.

    The eigenpairs of ``rho^{T_B}`` are eigenpairs of ``rho_tilde``:
    ``rho_tilde v - (shift + scale lambda) v = scale (rho^{T_B} v - lambda
    v)``, so their residual against ``rho_tilde`` is ``scale`` times the
    checked ``rho.pt_spectrum.residual``.  That product is held to the bound
    :func:`qent.linalg.herm_eigenvalues` puts on a solve of ``rho_tilde``,
    ``EIG_RESIDUAL_TOL max(1, max |lambda_tilde|)``.
    """
    linalg.PROPER_SQUARE.require(rho.dims, "structured_negativity")
    d = rho.dims[0]
    shift, scale, threshold, _ = _spa_coefficients(d, d)
    pt = rho.pt_spectrum
    lam = shift + scale * float(pt.eigenvalues[0])
    lam_max = shift + scale * float(pt.eigenvalues[-1])
    residual = scale * pt.residual
    # Written so that a NaN residual fails the check.
    if not residual <= EIG_RESIDUAL_TOL * max(1.0, abs(lam), abs(lam_max)):
        raise EigensolverError("eigensolver residual above tolerance", residual)
    k = d * (d ** 3 + 1)
    return MeasureValue(value=k * max(threshold - lam, 0.0),
                        measure="structured_negativity", d=d)


def concurrence_lb_chen(rho: DensityMatrix) -> MeasureValue:
    """Lower bound on the concurrence from PT and realignment trace norms.

    ``sqrt(2/(d(d-1))) (max(|rho^{T_B}|_1, |R(rho)|_1) - 1)``, clamped at 0.
    """
    linalg.PROPER_SQUARE.require(rho.dims, "concurrence_lb_chen")
    d = rho.dims[0]
    best = max(_pt_trace_norm(rho), rho.realign_norm)
    val = np.sqrt(2.0 / (d * (d - 1.0))) * (best - 1.0)
    return MeasureValue(value=max(0.0, float(val)), measure="concurrence_lb", d=d)


def tangle_pure(psi) -> MeasureValue:
    """Three-tangle of a pure three-qubit state, ``4 |d1 - 2 d2 + 4 d3|``.

    Amplitudes ``a..h`` correspond to |000>..|111>; the ``d_i`` are the
    standard hyperdeterminant quartics.  Zero on W-class, 1 on standard GHZ.
    """
    a, b, c, d, e, f, g, h = ket(psi, [2, 2, 2])
    d1 = a * a * h * h + b * b * g * g + c * c * f * f + d * d * e * e
    d2 = (a * h * d * e + a * h * f * c + a * h * g * b
          + d * e * f * c + d * e * g * b + f * c * g * b)
    d3 = a * d * f * g + b * c * e * h
    return MeasureValue(value=4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3),
                        measure="tangle", d=2)


def three_pi(psi) -> MeasureValue:
    """Three-pi measure of a pure three-qubit state.

    ``(pi_a + pi_b + pi_c)/3`` with
    ``pi_a = N_{A(BC)}^2 - N_{AB}^2 - N_{AC}^2``.  The one-versus-rest
    negativity is ``N_{A(BC)} = 2 s0 s1`` in the Schmidt coefficients of the
    cut, taken from the 2x2 minors of its coefficient matrix (see
    :func:`qent.classify3.slocc_classify`).  The pairwise terms
    ``N_{AB} = (|rho_AB^{T_B}|_1 - 1)/2`` come from the partial transposes
    of the three pair marginals, built straight from the ket tensor and
    solved together as one stack.

    The two negativities are normalized differently: the pair terms are
    ``(|rho^T|_1 - 1)/2`` and the one-versus-rest term is ``|rho^T|_1 - 1``.
    On the W state this gives 0.804, where Ou and Fan's pi-tangle, with
    ``|rho^T|_1 - 1`` for both, gives ``4 (sqrt 5 - 1)/9 = 0.549``.
    """
    t = ket(psi, [2, 2, 2]).reshape(2, 2, 2)
    # Pairs AB, AC and BC, each with the traced qubit last; entry
    # [a, b, x, y] of a partial transpose over the second qubit of the pair
    # is rho_pair[a y, x b] = sum_c t[a, y, c] t*[x, b, c].
    pair_tensors = np.stack([t, t.transpose(0, 2, 1), t.transpose(1, 2, 0)])
    pts = np.einsum("payc,pxbc->pabxy", pair_tensors, pair_tensors.conj())
    pt_spectra = herm_eigenvalues(pts.reshape(3, 4, 4))
    n_ab, n_ac, n_bc = ((float(np.sum(np.abs(spec.eigenvalues))) - 1.0) / 2.0
                        for spec in pt_spectra)
    # N_{k(rest)}^2 = 4 (s0 s1)^2 for k = A, B, C.
    sq_a, sq_b, sq_c = (4.0 * _cut_schmidt_products(t.ravel()) ** 2).tolist()
    pis = (sq_a - n_ab ** 2 - n_ac ** 2,
           sq_b - n_ab ** 2 - n_bc ** 2,
           sq_c - n_ac ** 2 - n_bc ** 2)
    return MeasureValue(value=sum(pis) / 3.0, measure="three_pi", d=2)


def l1_coherence(rho) -> MeasureValue:
    """l1-norm of coherence: sum of moduli of off-diagonal entries in the
    computational basis."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else _as_square(rho)
    val = float(np.sum(np.abs(mat)) - np.sum(np.abs(np.diag(mat))))
    return MeasureValue(value=val, measure="l1_coherence", d=mat.shape[0])
