"""Entanglement and coherence quantifiers.

Two-qubit concurrence (spin-flip construction), generalized pure-state
concurrence, negativity, structured negativity (the SPA-PT based measure),
the Chen-style concurrence lower bound, the pure-state three-tangle, the
three-pi measure, and the l1-norm of coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError
from .linalg import PSD_FLOOR, DensityMatrix, _matrix, _residual_gate, _solve
from .spa import _spa_coefficients
from .states import _SIGMA_YY, _cut_schmidt_products, ket


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
    spec = rho.spectrum  # first: a hand-built non-finite rho raises before inf * 0 below
    flipped = _SIGMA_YY @ rho.mat.conj() @ _SIGMA_YY
    # rho @ flipped is similar to the Hermitian PSD matrix
    # sqrt(rho) flipped sqrt(rho), so its spectrum can be taken Hermitianly.
    # Built here, the product skips the input pass (qent.linalg's notes).
    # Scaling column j by s_j has the bits of the product with diag(s): each
    # entry of that matmul is v_ij s_j plus exact zeros.  np.clip(x, 0.0,
    # None) is np.maximum(x, 0.0) (clip calls it when there is no upper
    # bound), and the tail rounds on Python floats as on numpy scalars.
    root = (spec.vectors * np.sqrt(np.maximum(spec.eigenvalues, 0.0))) @ spec.vectors.conj().T
    lam = _solve(root @ flipped @ root).eigenvalues
    l1, l2, l3, l4 = np.sqrt(np.maximum(lam[::-1], 0.0)).tolist()
    return MeasureValue(value=max(0.0, l1 - l2 - l3 - l4), measure="concurrence", d=2)


def concurrence_pure(psi, d1, d2) -> MeasureValue:
    """Generalized concurrence of a bipartite pure state.

    ``sqrt(2 (1 - Tr(rho_A^2)))`` (unit prefactors), which reduces to the
    two-qubit concurrence on qubit pairs.  ``2 (1 - Tr(rho_A^2))`` is
    computed as ``4 sum_{i<j} s_i^2 s_j^2`` over the Schmidt coefficients
    ``s_i``, so a product state gives 0 to rounding instead of the square
    root of a rounding error.
    """
    d1, d2 = linalg._whole(d1), linalg._whole(d2)
    v = ket(psi, [d1, d2])
    p = linalg._singular_values(v.reshape(d1, d2)) ** 2
    cross = float(np.triu(np.outer(p, p), 1).sum())
    return MeasureValue(value=float(np.sqrt(4.0 * cross)),
                        measure="concurrence_pure", d=min(d1, d2))


def negativity(rho: DensityMatrix) -> MeasureValue:
    """Negativity ``(|rho^{T_B}|_1 - 1)/(d - 1)``.

    Equals ``2/(d-1)`` times the absolute sum of negative partial-transpose
    eigenvalues.  For unequal subsystem dimensions ``d = min(d1, d2)``.
    """
    linalg.PROPER_BIPARTITE.require(rho.dims, "negativity")
    d = min(rho.dims)
    val = (rho.pt_spectrum.trace_norm - 1.0) / (d - 1.0)
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
    a solve of ``rho_tilde`` meets, by its gate (:func:`qent.linalg._residual_gate`).
    """
    linalg.PROPER_SQUARE.require(rho.dims, "structured_negativity")
    d = rho.dims[0]
    shift, scale, threshold, _ = _spa_coefficients(d, d)
    pt = rho.pt_spectrum
    # The two ends of the affine spectrum are all the bound and the value read.
    lo, hi = (shift + scale * pt.eigenvalues.item(i) for i in (0, -1))
    _residual_gate(scale * pt.residual, (lo, hi))
    k = d * (d ** 3 + 1)
    return MeasureValue(value=k * max(threshold - lo, 0.0),
                        measure="structured_negativity", d=d)


def concurrence_lb_chen(rho: DensityMatrix) -> MeasureValue:
    """Lower bound on the concurrence from PT and realignment trace norms.

    ``sqrt(2/(d(d-1))) (max(|rho^{T_B}|_1, |R(rho)|_1) - 1)``, clamped at 0.
    """
    linalg.PROPER_SQUARE.require(rho.dims, "concurrence_lb_chen")
    d = rho.dims[0]
    best = max(rho.pt_spectrum.trace_norm, rho.realign_norm)
    val = math.sqrt(2.0 / (d * (d - 1.0))) * (best - 1.0)
    return MeasureValue(value=max(0.0, val), measure="concurrence_lb", d=d)


def tangle_pure(psi) -> MeasureValue:
    """Three-tangle of a pure three-qubit state, ``4 |d1 - 2 d2 + 4 d3|``.

    Amplitudes ``a..h`` correspond to |000>..|111>; the ``d_i`` are the
    standard hyperdeterminant quartics.  Zero on W-class, 1 on standard GHZ.
    """
    # Python complex arithmetic: the same products as on numpy scalars, faster.
    a, b, c, d, e, f, g, h = ket(psi, [2, 2, 2]).tolist()
    d1 = a * a * h * h + b * b * g * g + c * c * f * f + d * d * e * e
    d2 = (a * h * d * e + a * h * f * c + a * h * g * b
          + d * e * f * c + d * e * g * b + f * c * g * b)
    d3 = a * d * f * g + b * c * e * h
    return MeasureValue(value=4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3),
                        measure="tangle", d=2)


# The ket indices of three_pi's pair tensors, shape (3, 2, 2, 2): the ket
# tensor with the pair AB, AC or BC first and the traced qubit last.
_PAIR_TENSORS = np.stack([np.arange(8).reshape(2, 2, 2).transpose(axes)
                          for axes in ((0, 1, 2), (0, 2, 1), (1, 2, 0))])
_PAIR_TENSORS.flags.writeable = False


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
    v = ket(psi, [2, 2, 2])
    # Pairs AB, AC and BC, each with the traced qubit last; entry
    # [a, b, x, y] of a partial transpose over the second qubit of the pair
    # is rho_pair[a y, x b] = sum_c t[a, y, c] t*[x, b, c] for its tensor t.
    # Entry [x, y, a, b] conjugates entry [a, b, x, y] term by term: exactly Hermitian.
    pair_tensors = v[_PAIR_TENSORS]
    pts = np.einsum("payc,pxbc->pabxy", pair_tensors, pair_tensors.conj())
    pt_spectra = _solve(pts.reshape(3, 4, 4))
    n_ab, n_ac, n_bc = ((spec.trace_norm - 1.0) / 2.0 for spec in pt_spectra)
    # N_{k(rest)}^2 = 4 (s0 s1)^2 for k = A, B, C.
    sq_a, sq_b, sq_c = (4.0 * _cut_schmidt_products(v) ** 2).tolist()
    pis = (sq_a - n_ab ** 2 - n_ac ** 2,
           sq_b - n_ab ** 2 - n_bc ** 2,
           sq_c - n_ac ** 2 - n_bc ** 2)
    return MeasureValue(value=sum(pis) / 3.0, measure="three_pi", d=2)


def l1_coherence(rho) -> MeasureValue:
    """l1-norm of coherence: sum of moduli of off-diagonal entries in the
    computational basis."""
    mat = _matrix(rho)
    val = float(np.sum(np.abs(mat)) - np.sum(np.abs(np.diag(mat))))
    return MeasureValue(value=val, measure="l1_coherence", d=mat.shape[0])
