"""Dense complex-matrix substrate for small multipartite quantum states.

Everything here operates on plain ``numpy`` arrays of ``complex128`` plus a
list of subsystem dimensions.  Subsystem 0 is the *leftmost* tensor factor and
the computational basis is big-endian (for three qubits, basis index 0 is
|000> and index 7 is |111>).  One kernel, :func:`partial_transpose`, serves
every cut of every state.

Every eigenproblem goes through :func:`herm_eigenvalues`, which calls LAPACK
(``numpy.linalg.eigh``) and raises :class:`~qent.errors.EigensolverError` when
the returned eigenpairs do not satisfy ``H v = lambda v`` to within
``EIG_RESIDUAL_TOL`` relative to the spectral radius.  Each distinct matrix
of a state is solved at most once: a :class:`DensityMatrix` caches

* ``rho.spectrum``, the spectrum of the state (seeded by its validation);
* ``rho.pt_spectrum``, the spectrum of the partial transpose over the second
  factor, which the PPT check, negativity, the Chen bound, the NPT witness and
  the SPA-PT maps all read;
* ``rho.realign_norm``, the trace norm of the realigned matrix, which the
  realignment check and the Chen bound both read.

An SPA-PT output ``shift*I + scale*rho^{T_B}`` is validated against the
eigenpairs of ``rho.pt_spectrum`` mapped affinely: the same Hermiticity,
trace, residual and PSD checks as :func:`validate_density`, without a second
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    EigensolverError,
    HermiticityViolation,
    NegativityViolation,
    NonFiniteEntry,
    TraceViolation,
)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9
EIG_RESIDUAL_TOL = 1e-9
SLACK = 1e-9  # decision slack: margin by which a criterion must pass its threshold


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix with its subsystem dimension list.

    Instances should be created through :func:`validate_density`, which
    enforces hermiticity, unit trace, and positive semidefiniteness.

    Attributes
    ----------
    mat : numpy.ndarray
        Square complex matrix.
    dims : tuple of int
        Subsystem dimensions; their product equals the side length.
    """

    mat: np.ndarray
    dims: tuple

    @property
    def dim(self):
        """Total Hilbert-space dimension (side length of ``mat``)."""
        return self.mat.shape[0]

    @cached_property
    def spectrum(self):
        """:class:`Spectrum` of ``mat``, solved at most once per instance.

        :func:`validate_density` fills it from its own solve; an instance
        built directly solves on first access.  ``mat`` must not be changed
        in place afterwards.
        """
        return herm_eigenvalues(self.mat)

    @cached_property
    def pt_spectrum(self):
        """:class:`Spectrum` of the partial transpose over the second factor
        of a bipartite state, solved at most once per instance."""
        return herm_eigenvalues(partial_transpose(self, 1))

    @cached_property
    def realign_norm(self):
        """Trace norm of the realigned matrix of a ``[d, d]`` state, computed
        at most once per instance."""
        return trace_norm(realign(self))

    def __post_init__(self):
        object.__setattr__(self, "mat", np.asarray(self.mat, dtype=complex))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a Hermitian matrix, sorted ascending.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Real eigenvalues in ascending order.
    residual : float
        max over returned pairs of ``|H v - lambda v|`` (infinity norm).
    vectors : numpy.ndarray
        Unit eigenvectors as columns, aligned with ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    residual: float
    vectors: np.ndarray = field(repr=False, default=None)


def tensor(a, b):
    """Kronecker product of two matrices.

    Entry ``(i1*rb + i2, j1*cb + j2)`` equals ``a[i1, j1] * b[i2, j2]``.

    Parameters
    ----------
    a, b : array_like
        Input matrices.

    Returns
    -------
    numpy.ndarray
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _as_square(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    bad = int(np.count_nonzero(~np.isfinite(m)))
    if bad:
        raise NonFiniteEntry("matrix has NaN or infinite entries", bad)
    return m


def _checked_dims(dims, side):
    """``dims`` as a list of ints, once each is at least 1 and their exact
    product is ``side``."""
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionError(f"dims {dims} must all be at least 1")
    if math.prod(dims) != side:
        raise DimensionError(f"dims {dims} do not multiply to side length {side}")
    return dims


def _mat_dims(rho, dims=None):
    """Accept a DensityMatrix or a (matrix, dims) pair."""
    if isinstance(rho, DensityMatrix):
        return rho.mat, list(rho.dims)
    if dims is None:
        raise DimensionError("subsystem dimensions required for a bare matrix")
    mat = _as_square(rho)
    return mat, _checked_dims(dims, mat.shape[0])


def partial_transpose(rho, sys, dims=None):
    """Partial transpose over one party of a matrix of any number of parties.

    Parameters
    ----------
    rho : DensityMatrix or array_like
        State of ``n`` parties (pass ``dims`` for a bare matrix).
    sys : int
        Which party to transpose, ``0 <= sys < n``.
    dims : list of int, optional
        Subsystem dimensions when ``rho`` is a bare matrix.

    Returns
    -------
    numpy.ndarray
        The matrix with the chosen party's indices transposed.
    """
    mat, d = _mat_dims(rho, dims)
    n = len(d)
    if sys not in range(n):
        raise DimensionError(f"sys must lie in [0, {n - 1}], got {sys}")
    axes = list(range(2 * n))
    axes[sys], axes[sys + n] = axes[sys + n], axes[sys]
    return mat.reshape(d + d).transpose(axes).reshape(mat.shape)


def _qubit_party(qubit):
    """Party index of a named qubit of a three-qubit state (A is leftmost)."""
    try:
        return ("A", "B", "C").index(qubit)
    except ValueError:
        raise DimensionError(f"qubit must be 'A', 'B' or 'C', got {qubit!r}") from None


def partial_transpose_qubit(rho, qubit):
    """Partial transpose of a three-qubit state over one named qubit.

    Parameters
    ----------
    rho : DensityMatrix or array_like
        8x8 three-qubit state.
    qubit : {'A', 'B', 'C'}
        Qubit to transpose (A is the leftmost factor).

    Returns
    -------
    numpy.ndarray
    """
    mat, d = _mat_dims(rho, [2, 2, 2] if not isinstance(rho, DensityMatrix) else None)
    if d != [2, 2, 2] or mat.shape != (8, 8):
        raise DimensionError("partial_transpose_qubit needs an 8x8 state with dims [2,2,2]")
    return partial_transpose(mat, _qubit_party(qubit), d)


def partial_trace(rho, keep, dims=None):
    """Reduced density matrix over a kept subset of subsystems.

    Parameters
    ----------
    rho : DensityMatrix or array_like
        Multipartite state.
    keep : iterable of int
        Indices of subsystems to keep, in ascending order of position.
    dims : list of int, optional
        Required when ``rho`` is a bare matrix.

    Returns
    -------
    DensityMatrix
        Valid reduced state over the kept subsystems.
    """
    mat, d = _mat_dims(rho, dims)
    keep = sorted(set(int(k) for k in keep))
    n = len(d)
    if not keep:
        raise DimensionError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")
    t = mat.reshape(d + d)
    traced = [k for k in range(n) if k not in keep]
    # Trace out highest-numbered subsystems first so axis numbers stay valid.
    nleft = n
    for k in reversed(traced):
        t = np.trace(t, axis1=k, axis2=k + nleft)
        nleft -= 1
    side = int(np.prod([d[k] for k in keep]))
    out = t.reshape(side, side)
    return validate_density(out, [d[k] for k in keep])


def realign(rho, dims=None):
    """Realignment of a bipartite matrix with square blocks.

    Each ``d x d`` block of the matrix is flattened into one row of the
    output, so for a state ``A (x) B`` the result is ``vec(A) vec(B)^T``.

    Parameters
    ----------
    rho : DensityMatrix or array_like
        State with dims ``[d, d]``.
    dims : list of int, optional

    Returns
    -------
    numpy.ndarray
        The realigned ``d^2 x d^2`` matrix.
    """
    mat, d = _mat_dims(rho, dims)
    if len(d) != 2 or d[0] != d[1]:
        raise DimensionError(f"realignment needs dims [d, d], got {d}")
    n = d[0]
    return mat.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def herm_eigenvalues(h):
    """Real spectrum of a Hermitian matrix (LAPACK ``eigh``).

    Parameters
    ----------
    h : array_like
        Hermitian matrix (checked to 1e-10).

    Returns
    -------
    Spectrum
        Ascending eigenvalues, eigenvectors, and the achieved residual.

    Raises
    ------
    HermiticityViolation
        If the input is not Hermitian within tolerance.
    EigensolverError
        If the residual exceeds ``EIG_RESIDUAL_TOL * max(1, max |lambda|)``.
    """
    m = _as_square(h)
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > HERM_TOL:
        raise HermiticityViolation("eigensolver input is not Hermitian", herm_dev)
    lam, vec = np.linalg.eigh(m)
    return _checked_spectrum(m, lam, vec)


def _checked_spectrum(m, lam, vec):
    """Wrap eigenpairs of ``m`` as a :class:`Spectrum` once ``m v = lambda v``
    holds to ``EIG_RESIDUAL_TOL * max(1, max |lambda|)``."""
    residual = float(np.max(np.abs(m @ vec - vec * lam[np.newaxis, :])))
    # Written so that a NaN residual fails the check.
    if not residual <= EIG_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(lam)))):
        raise EigensolverError("eigensolver residual above tolerance", residual)
    # Read-only, because DensityMatrix.spectrum hands one Spectrum to every caller.
    lam.flags.writeable = False
    vec.flags.writeable = False
    return Spectrum(eigenvalues=lam, residual=residual, vectors=vec)


def trace_norm(a):
    """Trace norm (sum of singular values) of a square matrix.

    For Hermitian input this is the sum of absolute eigenvalues; otherwise
    it is the sum of the singular values from LAPACK's SVD.

    Parameters
    ----------
    a : array_like
        Square matrix.

    Returns
    -------
    float
    """
    m = _as_square(a)
    if np.max(np.abs(m - m.conj().T)) <= HERM_TOL:
        return float(np.sum(np.abs(herm_eigenvalues(m).eigenvalues)))
    return float(np.linalg.svd(m, compute_uv=False).sum())


def expectation(h, rho):
    """Expectation value ``Tr(h rho)`` of a Hermitian operator.

    Parameters
    ----------
    h : array_like
        Hermitian operator.
    rho : DensityMatrix or array_like
        State of matching dimension.

    Returns
    -------
    float
        The (real) trace value.
    """
    hm = _as_square(h)
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if hm.shape != mat.shape:
        raise DimensionError(f"operator shape {hm.shape} != state shape {mat.shape}")
    val = complex(np.trace(hm @ mat))
    if abs(val.imag) > 1e-8:
        raise HermiticityViolation("expectation value has an imaginary part", abs(val.imag))
    return float(val.real)


def validate_density(m, dims):
    """Validate a matrix as a density matrix and wrap it.

    Parameters
    ----------
    m : array_like
        Candidate square matrix.
    dims : list of int
        Subsystem dimensions, each at least 1; product must equal the side
        length.

    Returns
    -------
    DensityMatrix

    Raises
    ------
    DimensionError
        If ``dims`` has an entry below 1 or does not multiply to the side.
    NonFiniteEntry, HermiticityViolation, TraceViolation, NegativityViolation
        With the offending magnitude attached.
    """
    return _validated(m, dims, herm_eigenvalues)


def _affine_density(mat, dims, shift, scale, x_spec):
    """Validate ``mat = shift*I + scale*X`` (``scale > 0``) given ``X``'s spectrum.

    The eigenpairs of ``mat`` are ``(shift + scale*lambda, v)`` for the pairs
    of ``x_spec``, so no second solve is needed.  Every check of
    :func:`validate_density` still runs, and the residual is measured against
    ``mat`` itself, so a ``mat`` that is not this affine image of ``X`` raises
    :class:`~qent.errors.EigensolverError`.
    """
    def solve(m):
        return _checked_spectrum(m, shift + scale * x_spec.eigenvalues, x_spec.vectors)

    return _validated(mat, dims, solve)


def _validated(m, dims, solve):
    mat = _as_square(m)
    dims = _checked_dims(dims, mat.shape[0])
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_dev > HERM_TOL:
        raise HermiticityViolation("density matrix is not Hermitian", herm_dev)
    trace_dev = abs(complex(np.trace(mat)) - 1.0)
    if trace_dev > TRACE_TOL:
        raise TraceViolation("density matrix trace differs from 1", trace_dev)
    spec = solve(mat)
    lam_min = float(spec.eigenvalues[0])
    if lam_min < PSD_FLOOR:
        raise NegativityViolation("density matrix has a negative eigenvalue", -lam_min)
    rho = DensityMatrix(mat=mat, dims=tuple(dims))
    # cached_property stores in the instance dict, which the frozen
    # dataclass's __setattr__ guard does not cover.
    object.__setattr__(rho, "spectrum", spec)
    return rho
