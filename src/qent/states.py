"""Named state families used across the detection, measure, and
classification examples.

Mixed families return validated :class:`~qent.linalg.DensityMatrix`
instances (the GHZ/W mixtures, convex combinations of checked kets with
checked weights, are states by construction and are wrapped unchecked);
pure families return vectors from :func:`ket`, which only :func:`projector`
turns into states.  Basis ordering is big-endian computational, subsystem 0
leftmost.

The one-parameter families of the paper's curves (:func:`werner_state`,
:func:`mems_state`, :func:`qutrit_qubit_alpha_state`,
:func:`two_qutrit_a_state` and :func:`two_qutrit_alpha_state`) broadcast:
a scalar parameter gives one state, and an array of them a tuple of states
validated as one stack, each with the bits of its scalar call.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import (ZERO_TOL, _checked_dims, _derived, _finite, _party, _whole, tensor,
                     validate_density)


def ket(amplitudes, dims):
    """Normalized state vector from raw amplitudes.

    Parameters
    ----------
    amplitudes : array_like
        Finite complex amplitudes in the computational basis.
    dims : list of int
        Subsystem dimensions, each at least 1; their product must equal the
        vector length.

    Returns
    -------
    numpy.ndarray

    Notes
    -----
    The checks run in this order: the vector's shape, then ``dims`` against
    its length, then finiteness, then the zero vector.  A NaN or infinite
    amplitude makes the norm NaN or infinite, so finiteness is scanned only
    when the norm is not finite and positive, the path an ordinary ket skips.
    """
    v = np.asarray(amplitudes, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector of amplitudes, got shape {v.shape}")
    _checked_dims(dims, v.size)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        # A non-finite amplitude, or squares that overflowed or underflowed.
        _finite(v, "amplitude vector")
        big = max(np.max(np.abs(v.real)), np.max(np.abs(v.imag)))
        if big == 0:
            raise DimensionError("zero vector")
        return ket(v / big, dims)
    return v / norm


def projector(psi, dims):
    """``|psi><psi|`` of the normalized :func:`ket` of ``psi``, the one way a
    ket becomes a state: ``(M + M^H)/2`` of the outer product is exactly
    Hermitian, so it is wrapped unchecked, keeps the ket as ``rho.ket`` and
    is solved on first use."""
    v = ket(psi, dims)
    m = np.outer(v, v.conj())
    return _derived((m + m.conj().T) / 2, dims, ket=v)


def _minor_factors(v):
    """The factors ``a, b, c, d`` of the 2x2 minors ``a b - c d`` of the cuts
    A|BC, B|AC and C|AB of ``v``, stacked to shape (4, 3, 6): rows 0 and 1
    of the ``2 x 4`` coefficient matrix of each qubit against the rest, at
    the column pairs ``i < j``."""
    t = v.reshape(2, 2, 2)
    m = np.stack([t.reshape(2, 4), t.transpose(1, 0, 2).reshape(2, 4),
                  t.transpose(2, 0, 1).reshape(2, 4)])
    i, j = np.triu_indices(4, 1)
    return np.stack([m[:, 0, i], m[:, 1, j], m[:, 0, j], m[:, 1, i]])


# The ket indices of every minor factor, read-only: v[_MINOR_FACTORS] is
# _minor_factors(v).
_MINOR_FACTORS = _minor_factors(np.arange(8))
_MINOR_FACTORS.flags.writeable = False


def _cut_schmidt_products(v):
    """``s0 s1 = sqrt(det rho_k)`` for the cuts A|BC, B|AC and C|AB of a
    normalized three-qubit ket ``v``, as an array of three.

    ``s0, s1`` are the Schmidt coefficients of the cut, the singular values
    of the ``2 x 4`` coefficient matrix ``M`` of qubit ``k`` against the
    rest, so ``rho_k = M M^H``.  By Cauchy-Binet ``det(M M^H)`` is the sum
    of ``|M_0i M_1j - M_0j M_1i|^2`` over the column pairs ``i < j``: a sum
    of squares, with no cancellation, so a product cut gives 0 to rounding
    (``rho_00 rho_11 - |rho_01|^2`` leaves ~1e-16 there, ~1e-8 after the
    square root).  The factors of every minor are gathered from ``v`` at
    once through ``_MINOR_FACTORS``, the table of ket indices that
    :func:`_minor_factors` makes of ``arange(8)``.
    """
    a, b, c, d = v[_MINOR_FACTORS]
    return np.linalg.norm(a * b - c * d, axis=1)


def _amplitudes(dim, entries):
    """Complex vector of length ``dim``, zero but for ``entries`` (index ->
    amplitude); not normalized."""
    v = np.zeros(dim, dtype=complex)
    v[list(entries)] = list(entries.values())
    return v


# ---------------------------------------------------------------------------
# Two-qubit families
# ---------------------------------------------------------------------------

def bell_phi_plus():
    """|phi+> = (|00> + |11>)/sqrt(2) as a two-qubit vector."""
    return ket([1, 0, 0, 1], [2, 2])


def bell_psi_minus():
    """|psi-> = (|01> - |10>)/sqrt(2) as a two-qubit vector."""
    return ket([0, 1, -1, 0], [2, 2])


def _stacked(param):
    """A family parameter (a scalar or an array of them) with two trailing
    axes, to broadcast against a matrix."""
    return np.asarray(param)[..., np.newaxis, np.newaxis]


def werner_state(F):
    """Werner state ``F |psi-><psi-| + (1-F) I/4``.

    Entangled (NPT) exactly for F > 1/3.
    """
    F = _stacked(F)
    mat = F * _PSI_MINUS + (1.0 - F) * np.eye(4) / 4.0
    return validate_density(mat, [2, 2])


def x_state(a, b, f):
    """Two-qubit X-shaped state: diag(a, b, b, a) with coherence f between |01> and |10>.

    Requires ``a + b = 1/2``; positive semidefinite iff ``|f| <= b`` and
    entangled iff ``a < |f| <= b`` with concurrence ``|f| - a``.
    """
    if abs((a + b) - 0.5) > ZERO_TOL:
        raise DimensionError("x_state needs a + b = 1/2")
    mat = np.diag([a, b, b, a]).astype(complex)
    mat[1, 2] = f
    mat[2, 1] = np.conj(f)
    return validate_density(mat, [2, 2])


def x_state_concurrence(a, f):
    """Closed-form concurrence parameter ``max(0, |f| - a)`` of the X family.

    This is the scale used by the family's witness and eigenvalue bounds;
    it is half the Wootters concurrence ``2(|f| - a)`` of the same state.
    A NaN or infinite ``a`` or ``f`` raises
    :class:`~qent.errors.DimensionError`, as ``max`` would hide a NaN.
    """
    # Written so that a NaN difference fails the check.
    if not abs(abs(f) - a) < np.inf:
        raise DimensionError(f"x_state_concurrence needs finite a and f, got a={a}, f={f}")
    return max(0.0, abs(f) - a)


def mems_state(C):
    """Maximally entangled mixed state with target concurrence ``C``.

    The two-parameter family with ``h = C/2`` for ``C >= 2/3`` and ``h = 1/3``
    below.
    """
    C = np.asarray(C)
    h = np.where(C >= 2.0 / 3.0, C / 2.0, 1.0 / 3.0)
    mat = np.zeros(C.shape + (4, 4), dtype=complex)
    mat[..., 0, 0] = h
    mat[..., 3, 3] = h
    mat[..., 1, 1] = 1.0 - 2.0 * h
    mat[..., 0, 3] = mat[..., 3, 0] = C / 2.0
    return validate_density(mat, [2, 2])


# ---------------------------------------------------------------------------
# Qutrit-qubit family
# ---------------------------------------------------------------------------

def qutrit_qubit_alpha_state(alpha):
    """Qutrit-qubit mixture ``alpha P[(|01>+|21>)/sqrt2] + (1-alpha) P[(|02>... )]``.

    Concretely (6x6, qutrit first): weight ``alpha`` on the projector onto
    ``(|0>|1> + |2>|0>)/sqrt(2)`` and ``1 - alpha`` on the projector onto
    ``(|1>|0> + |2>|1>)/sqrt(2)``; entangled for every ``alpha`` in [0, 1].
    """
    alpha = np.asarray(alpha)
    mat = np.zeros(alpha.shape + (6, 6), dtype=complex)
    mat[..., 1, 1] = mat[..., 4, 4] = mat[..., 1, 4] = mat[..., 4, 1] = alpha / 2.0
    mat[..., 2, 2] = mat[..., 5, 5] = mat[..., 2, 5] = mat[..., 5, 2] = (1.0 - alpha) / 2.0
    return validate_density(mat, [3, 2])


# ---------------------------------------------------------------------------
# Two-qutrit families
# ---------------------------------------------------------------------------

def isotropic_two_qutrit(alpha):
    """Two-qutrit isotropic state ``alpha |phi+><phi+| + (1-alpha) I/9``.

    With ``|phi+> = (|00>+|11>+|22>)/sqrt(3)``; flagged by the reduction
    criterion for ``alpha > 1/4``.
    """
    mat = alpha * _PHI_PLUS_3 + (1.0 - alpha) * np.eye(9) / 9.0
    return validate_density(mat, [3, 3])


def horodecki_bound_entangled(a):
    """3x3 bound-entangled a-family flagged by the realignment criterion.

    PPT for every ``a`` in [0, 1] yet entangled for ``0 < a < 1``.
    """
    r = np.zeros((9, 9), dtype=complex)
    for i in range(9):
        r[i, i] = a
    r[6, 6] = (1.0 + a) / 2.0
    r[8, 8] = (1.0 + a) / 2.0
    s = np.sqrt(1.0 - a * a) / 2.0
    r[6, 8] = r[8, 6] = s
    for i, j in [(0, 4), (0, 8), (4, 8)]:
        r[i, j] = a
        r[j, i] = a
    return validate_density(r / (8.0 * a + 1.0), [3, 3])


def pptes_two_qutrit():
    """A fixed 9x9 PPT-entangled two-qutrit state (all PT eigenvalues >= 0)."""
    root5 = np.sqrt(5.0)
    a = (1.0 + root5) / (3.0 + 9.0 * root5)
    b = -2.0 / (3.0 + 9.0 * root5)
    c = (-1.0 + root5) / (3.0 + 9.0 * root5)
    mat = np.diag([a, c, a, a, a, c, c, a, a]).astype(complex)
    for i, j in [(0, 4), (0, 8), (5, 7)]:
        mat[i, j] = b
        mat[j, i] = b
    return validate_density(mat, [3, 3])


def two_qutrit_a_state(a):
    """Two-qutrit mixture of three unnormalized projectors, ``1/sqrt2 <= a <= 1``.

    ``(|psi1><psi1| + |psi2><psi2| + |psi3><psi3|)/(5 + 2a^2)`` with
    ``|psi_i> = |0i> - a|i0>`` (i = 1, 2) and ``|psi3> = sum_i |ii>``.
    """
    a = np.asarray(a)
    p1 = _amplitudes(9, {1: 1.0}) - a[..., np.newaxis] * _amplitudes(9, {3: 1.0})  # |01> - a|10>
    p2 = _amplitudes(9, {2: 1.0}) - a[..., np.newaxis] * _amplitudes(9, {6: 1.0})  # |02> - a|20>
    p3 = _amplitudes(9, {0: 1.0, 4: 1.0, 8: 1.0})
    outers = (p[..., :, np.newaxis] * p.conj()[..., np.newaxis, :] for p in (p1, p2, p3))
    mat = sum(outers) / _stacked(5.0 + 2.0 * a * a)
    return validate_density(mat, [3, 3])


def two_qutrit_alpha_state(alpha):
    """Two-qutrit alpha-family ``(2/7) phi+ + (alpha/7) s+ + ((5-alpha)/7) s-``.

    ``s+`` mixes |01>,|12>,|20>; ``s-`` mixes |10>,|21>,|02>.  NPT entangled
    for ``4 < alpha <= 5``, PPT (bound) entangled for ``3 < alpha <= 4``.
    """
    alpha = _stacked(alpha)
    mat = (2.0 / 7.0) * _PHI_PLUS_3 + (alpha / 7.0) * _S_PLUS + ((5.0 - alpha) / 7.0) * _S_MINUS
    return validate_density(mat, [3, 3])


# ---------------------------------------------------------------------------
# Three-qubit vectors and families
# ---------------------------------------------------------------------------

def ghz_state(alpha=None, beta=None):
    """Generalized GHZ vector ``alpha|000> + beta|111>`` (defaults 1/sqrt2)."""
    if alpha is None:
        alpha = beta = 1.0 / np.sqrt(2.0)
    return ket(_amplitudes(8, {0: alpha, 7: beta}), [2, 2, 2])


def w_state(l0=None, l1=None, l2=None):
    """Generalized W vector ``l0|001> + l1|010> + l2|100>`` (defaults 1/sqrt3)."""
    if l0 is None:
        l0 = l1 = l2 = 1.0 / np.sqrt(3.0)
    return ket(_amplitudes(8, {1: l0, 2: l1, 4: l2}), [2, 2, 2])


def w_tilde_state():
    """Flipped W vector ``(|110> + |101> + |011>)/sqrt(3)``."""
    return ket(_amplitudes(8, dict.fromkeys((6, 5, 3), 1.0)), [2, 2, 2])


# Fixed projectors of the families: built once, at import, and read-only.
# _PLUS01 projects on (|001> + |101>)/sqrt2, _PHI_P3 and _PHI_M3 on (|100> +- |010>)/sqrt2.
_PSI_MINUS, _PHI_PLUS, _PHI_MINUS, _PHI_PLUS_3, _GHZ, _W, _W_TILDE, _PLUS01, _PHI_P3, _PHI_M3 = (
    np.outer(v, v.conj()) for v in (bell_psi_minus(), bell_phi_plus(), ket([1, 0, 0, -1], [2, 2]),
                                     ket([1, 0, 0, 0, 1, 0, 0, 0, 1], [3, 3]),
                                     ghz_state(), w_state(), w_tilde_state(),
                                     ket([0, 1, 0, 0, 0, 1, 0, 0], [2, 2, 2]),
                                     ket([0, 0, 1, 0, 1, 0, 0, 0], [2, 2, 2]),
                                     ket([0, 0, -1, 0, 1, 0, 0, 0], [2, 2, 2])))
# s+ mixes |01>, |12>, |20>; s- mixes |10>, |21>, |02>.
_S_PLUS = np.diag([0, 1, 0, 0, 0, 1, 1, 0, 0]) / 3.0 + 0j
_S_MINUS = np.diag([0, 0, 1, 1, 0, 0, 0, 1, 0]) / 3.0 + 0j
# The Pauli matrices X, Y, Z as one stack, and the spin flip Y (x) Y.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_SIGMA_YY = np.kron(_PAULI[1], _PAULI[1])
for _m in (_PSI_MINUS, _PHI_PLUS, _PHI_MINUS, _PHI_PLUS_3, _GHZ, _W, _W_TILDE, _PLUS01,
           _PHI_P3, _PHI_M3, _S_PLUS, _S_MINUS, _PAULI, _SIGMA_YY):
    _m.flags.writeable = False


def g2_state():
    """The fixed genuine five-term vector ``(|000>+|100>+|101>+|110>+|111>)/sqrt5``."""
    return ket(_amplitudes(8, dict.fromkeys((0, 4, 5, 6, 7), 1.0)), [2, 2, 2])


def bisep_a_bc_state(q):
    """Mixed state biseparable in the A-BC cut.

    ``q |0><0| (x) phi+ + (1-q) |1><1| (x) phi-`` with Bell states on BC.
    """
    mat = q * tensor(np.diag([1.0, 0.0]), _PHI_PLUS) \
        + (1.0 - q) * tensor(np.diag([0.0, 1.0]), _PHI_MINUS)
    return validate_density(mat, [2, 2, 2])


def kay_state(a):
    """Kay's one-parameter 8x8 family, valid for ``a >= 2``.

    Separable for ``a >= 4`` and PPT-entangled for ``2 <= a < 2 sqrt(2)``.
    """
    diag = np.array([4.0 + a, a, a, a, a, a, a, 4.0 + a])
    anti = np.array([2.0, 2.0, -2.0, 2.0, 2.0, -2.0, 2.0, 2.0])
    mat = np.diag(diag).astype(complex)
    for i in range(8):
        mat[i, 7 - i] += anti[i]
    return validate_density(mat / (8.0 + 8.0 * a), [2, 2, 2])


def ghz_werner_state(alpha):
    """GHZ state mixed with white noise: ``(1-alpha) GHZ + alpha I/8``."""
    mat = (1.0 - alpha) * _GHZ + alpha * np.eye(8) / 8.0
    return validate_density(mat, [2, 2, 2])


def two_term_product_mixture(q):
    """Fully separable mixture ``q P[|+>|0>|1>] + (1-q) P[|111>]``."""
    mat = q * _PLUS01
    mat[7, 7] += 1.0 - q
    return validate_density(mat, [2, 2, 2])


def ghz_corner_mixture(q):
    """Separable-boundary mixture ``q |000><000| + (1-q) GHZ``."""
    mat = (1.0 - q) * _GHZ
    mat[0, 0] += q
    return validate_density(mat, [2, 2, 2])


def ghz_w_mixture(q):
    """Two-term mixture ``q GHZ + (1-q) W`` of the standard GHZ and W states:
    the three-term :func:`ghz_w_wtilde_mixture` with no W~ (its weight
    ``(1 - q) - (1 - q)`` is exactly 0)."""
    return ghz_w_wtilde_mixture(q, 1.0 - q)


def ghz_w_wtilde_mixture(q1, q2):
    """Three-term mixture ``q1 GHZ + q2 W + (1-q1-q2) W~``: a convex
    combination of checked kets, so once the weights are a probability
    vector it is a state by construction, wrapped unchecked and solved on
    first use."""
    # Written so that a NaN weight fails the check.
    if not (q1 >= -ZERO_TOL and q2 >= -ZERO_TOL and q1 + q2 <= 1 + ZERO_TOL):
        raise DimensionError("need q1, q2 >= 0 and q1 + q2 <= 1")
    mat = q1 * _GHZ + q2 * _W + (1.0 - q1 - q2) * _W_TILDE
    return _derived(mat, [2, 2, 2])


def two_slice_superposition(a, c, p):
    """Vector ``sqrt(p)(a|000> + b|111>) - sqrt(1-p)(c|110> + d|101>)``.

    With ``b = sqrt(1-a^2)`` and ``d = sqrt(1-c^2)``.
    """
    b = np.sqrt(1.0 - a * a)
    dd = np.sqrt(1.0 - c * c)
    return ket(_amplitudes(8, {0: np.sqrt(p) * a, 7: np.sqrt(p) * b,
                               6: -np.sqrt(1.0 - p) * c, 5: -np.sqrt(1.0 - p) * dd}), [2, 2, 2])


# ---------------------------------------------------------------------------
# Coherence-example states (three-qubit, four-qubit, three-qutrit)
# ---------------------------------------------------------------------------

def embed_pair_product(single, single_pos, pair, n=3):
    """Product of a single-qubit state at ``single_pos`` with a two-qubit state
    on the remaining ordered positions of an ``n``-qubit register.

    Parameters
    ----------
    single : numpy.ndarray
        2x2 density matrix.
    single_pos : int
        Register position of the single qubit, ``0 <= single_pos < n``.
    pair : numpy.ndarray
        4x4 density matrix on the remaining qubits in ascending position order.
    n : int
        Register size (the pair part must have ``n - 1`` qubits; default 3).

    Returns
    -------
    numpy.ndarray
        The ``2^n x 2^n`` product matrix with factors routed to their positions.
    """
    n = _whole(n, "register size")
    rest = 2 ** (n - 1)
    if np.shape(single) != (2, 2) or pair.shape != (rest, rest):
        raise DimensionError("a factor has the wrong size for this register")
    single_pos = _party(single_pos, n)
    full = tensor(single, pair).reshape([2] * (2 * n))
    order = list(range(1, n))
    order.insert(single_pos, 0)
    # output axis k carries product-layout axis perm[k]
    perm = order + [o + n for o in order]
    return full.transpose(perm).reshape(2 ** n, 2 ** n)


def coherence_bisep_mixture(q):
    """Three-qubit ``q |0>_A<0| (x) phi+_BC + (1-q) |1>_B<1| (x) phi-_AC``."""
    term_a = tensor(np.diag([1.0, 0.0]), _PHI_PLUS)
    term_b = embed_pair_product(np.diag([0.0, 1.0]).astype(complex), 1, _PHI_MINUS, n=3)
    return validate_density(q * term_a + (1.0 - q) * term_b, [2, 2, 2])


def coherence_bisep_four_qubit():
    """Four-qubit ``(1/2)|0>_A<0| (x) phi+_BCD + (1/2)|1>_B<1| (x) phi-_ACD``.

    With ``phi+- = (|100> +- |010>)/sqrt(2)`` on the three remaining qubits.
    """
    term_a = tensor(np.diag([1.0, 0.0]), _PHI_P3)
    term_b = embed_pair_product(np.diag([0.0, 1.0]).astype(complex), 1, _PHI_M3, n=4)
    return validate_density(0.5 * term_a + 0.5 * term_b, [2, 2, 2, 2])


def diagonal_four_qubit():
    """Separable incoherent four-qubit mixture of |0000>, |0011>, |1000>, |1111>."""
    mat = np.zeros((16, 16), dtype=complex)
    for idx in (0, 3, 8, 15):
        mat[idx, idx] = 0.25
    return validate_density(mat, [2, 2, 2, 2])


def three_qutrit_bisep():
    """Three-qutrit vector ``|0>_A (x) (|12> + |01> + |20>)/sqrt(3)``."""
    # |0>|12>, |0>|01>, |0>|20>
    return ket(_amplitudes(27, dict.fromkeys((5, 1, 6), 1.0 / np.sqrt(3.0))), [3, 3, 3])
