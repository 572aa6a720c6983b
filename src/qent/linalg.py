"""Dense complex-matrix substrate for small multipartite quantum states.

Everything here operates on plain ``numpy`` arrays of ``complex128`` plus a
list of subsystem dimensions.  Subsystem 0 is the *leftmost* tensor factor and
the computational basis is big-endian (for three qubits, basis index 0 is
|000> and index 7 is |111>).  One kernel, :func:`partial_transpose`, serves
every cut of every state.

Every eigenproblem goes through :func:`herm_eigenvalues`, which calls LAPACK
(``numpy.linalg.eigh``) and raises :class:`~qent.errors.EigensolverError` when
the returned eigenpairs do not satisfy ``H v = lambda v`` to within
``EIG_RESIDUAL_TOL`` relative to the spectral radius.  It takes one matrix
or a stack ``(k, n, n)``: a stack is checked for finite entries and
Hermiticity in one pass (a NaN or infinite entry makes the Hermiticity
deviation NaN or infinite, so only a failing deviation is scanned for
them), solved by one LAPACK call, and each of its matrices is held to the
residual bound of its own spectral radius; a single matrix is the
one-element case.  Each distinct matrix of a state is solved at most once:
a :class:`DensityMatrix` caches

* ``rho.spectrum``, the spectrum of the state (seeded by its validation);
* ``rho.pt_spectrum``, the spectrum of the partial transpose over the second
  factor, which the PPT check, negativity, structured negativity, the Chen
  bound, the NPT witness and the bipartite SPA-PT maps all read;
* ``rho.realign_norm``, the trace norm of the realigned matrix, which the
  realignment check and the Chen bound both read.

Only :func:`_derived` builds a :class:`DensityMatrix`, unchecked.  A
caller's matrix reaches it through :func:`validate_density`, which checks it
once and keeps its Hermitian part ``(M + M^H)/2``.  What the library builds
from checked input reaches it directly, because it is a state by
construction and exactly Hermitian:

* the partial trace of a :class:`DensityMatrix`;
* the SPA-PT outputs ``shift*I + scale*rho^{T_k}``, completely positive,
  trace preserving images of a validated state (the qutrit-qubit element
  map keeps its trace check, which rejects states outside its family).
  No SPA-PT output is solved: its spectrum is ``shift + scale*spec(rho^{T_k})``,
  with the residual measured against the output;
* the :func:`qent.states.projector` of a checked ket;
* the GHZ/W(/flipped-W) mixtures of :mod:`qent.states`, convex combinations
  of checked kets with checked weights.

Every solve still checks its residual.  A projector also keeps its
normalized ket as ``rho.ket`` (``None`` on every other state), so a pure
three-qubit state is decided from its amplitudes without an eigensolve;
only :func:`qent.states.projector` sets it.

Which subsystem dimensions a function accepts is stated once, as one of the
:class:`Shape` constants of this module; every guard of the library calls
its ``require`` and the CLI selects its criteria and measures by its ``fits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    EigensolverError,
    HermiticityViolation,
    NegativityViolation,
    NonFiniteEntry,
    TraceViolation,
)

# The numerical policy of the package; no other module writes a tolerance.
HERM_TOL = 1e-10  # largest |M - M^H| entry of a matrix taken as Hermitian
TRACE_TOL = 1e-10  # largest |sum - 1| of a trace or of probabilities
PSD_FLOOR = -1e-9  # smallest eigenvalue (or value) taken as nonnegative
EIG_RESIDUAL_TOL = 1e-9  # largest |H v - lambda v|, relative to the spectral radius
SLACK = 1e-9  # decision slack: margin by which a criterion must pass its threshold
ZERO_TOL = 1e-12  # a scalar parameter within this of zero is zero
IMAG_TOL = 1e-8  # largest imaginary part of an expectation value
PARAM_NORM_TOL = 1e-6  # largest |sum lambda_i^2 - 1| of typed canonical parameters
TABLE_TOL = 1e-3  # per-cell tolerance of a reproduced golden table
CURVE_TOL = 1e-9  # per-cell tolerance of a reproduced golden curve


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix with its subsystem dimension list.

    A caller's matrix becomes one through :func:`validate_density`, which
    enforces hermiticity, unit trace, and positive semidefiniteness; the
    maps of this package wrap their outputs unchecked (see the module notes).
    Instances compare and hash by identity (``==`` of two arrays is not a
    truth value), so a state can key a cache.

    Attributes
    ----------
    mat : numpy.ndarray
        Square complex matrix.
    dims : tuple of int
        Subsystem dimensions; their product equals the side length.
    ket : numpy.ndarray or None
        The normalized amplitude vector of a pure state built by
        :func:`qent.states.projector` (``mat`` is its projector); ``None``
        otherwise.  Private by convention: only :func:`_derived` sets it.
    """

    mat: np.ndarray
    dims: tuple
    ket: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def dim(self):
        """Total Hilbert-space dimension (side length of ``mat``)."""
        return self.mat.shape[0]

    @cached_property
    def spectrum(self):
        """:class:`Spectrum` of ``mat``, solved at most once per instance.

        :func:`validate_density` fills it from its own solve and the SPA-PT
        maps from the solve of the partial transpose; any other instance
        solves on first access.  ``mat`` must not be changed in place
        afterwards.
        """
        return herm_eigenvalues(self.mat)

    @cached_property
    def pt_spectrum(self):
        """:class:`Spectrum` of the partial transpose over the second factor
        of a bipartite state, solved at most once per instance."""
        BIPARTITE.require(self.dims, "the partial-transpose spectrum")
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


def _square(m, ndims=(2,)):
    """``m`` as a complex array once it is a nonempty square matrix (or, with
    ``ndims=(2, 3)``, a stack of them)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in ndims or m.shape[-1] != m.shape[-2] or not m.size:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _as_square(m):
    """``m`` as a complex array once it is a nonempty square finite matrix."""
    return _finite(_square(m), "matrix")


def _finite(a, what):
    """``a`` once every entry is finite."""
    if not np.isfinite(a).all():
        raise NonFiniteEntry(f"{what} has NaN or infinite entries",
                             int(np.count_nonzero(~np.isfinite(a))))
    return a


@np.errstate(invalid="ignore")
def _herm_dev(m):
    """Largest entry of ``|m - m^H|`` over a matrix or a stack of them; an
    infinite entry makes it NaN (``inf - inf``) without a warning."""
    return float(abs(m - m.swapaxes(-1, -2).conj()).max())


def _finite_herm_dev(m):
    """``_herm_dev(m)``, once every entry of ``m`` is finite.

    A NaN or infinite entry makes its entry of ``m - m^H`` NaN or infinite,
    and so the deviation; only a deviation that is not within ``HERM_TOL``
    needs the scan for them, which then wins over the Hermiticity error.
    """
    herm_dev = _herm_dev(m)
    if not herm_dev <= HERM_TOL:
        _finite(m, "matrix")
    return herm_dev


def _checked_real(val):
    """Real part of a complex scalar or array of expectation values, once
    every imaginary part is within ``IMAG_TOL`` (a NaN one is not).  A
    Python ``complex`` is checked without a numpy round trip."""
    imag = abs(val.imag) if isinstance(val, complex) else float(np.abs(val.imag).max())
    if not imag <= IMAG_TOL:
        raise HermiticityViolation("expectation value has an imaginary part", imag)
    return val.real


def _checked_dims(dims, side):
    """``dims`` as a list of ints, once each is at least 1 and their exact
    product is ``side``."""
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionError(f"dims {dims} must all be at least 1")
    if math.prod(dims) != side:
        raise DimensionError(f"dims {dims} do not multiply to side length {side}")
    return dims


@dataclass(frozen=True)
class Shape:
    """The subsystem dimensions a function accepts: ``ANY``, ``BIPARTITE``,
    ``SQUARE`` (``[d, d]``), ``PROPER_BIPARTITE`` and ``PROPER_SQUARE`` (the
    same with parties of dimension at least 2), ``TWO_QUBIT``,
    ``THREE_QUBIT``, and :func:`exact_dims` for the parametrised SPA-PT maps."""

    phrase: str      # completes "<name> needs ..."
    fits: Callable   # dims tuple -> bool

    def require(self, dims, name):
        """Raise :class:`~qent.errors.DimensionError` unless ``dims`` fits."""
        if not self.fits(tuple(dims)):
            raise DimensionError(f"{name} needs {self.phrase}, got dims {list(dims)}")


def exact_dims(*dims):
    """The :class:`Shape` of the states with subsystem dimensions ``dims``."""
    return Shape(f"dims {list(dims)}", lambda d: d == dims)


ANY = Shape("a state", lambda d: True)
BIPARTITE = Shape("a bipartite state", lambda d: len(d) == 2)
SQUARE = Shape("dims [d, d]", lambda d: len(d) == 2 and d[0] == d[1])
# Negativity, structured negativity and the Chen bound divide by d - 1.
PROPER_BIPARTITE = Shape("two parties of dimension at least 2",
                         lambda d: len(d) == 2 and min(d) >= 2)
PROPER_SQUARE = Shape("dims [d, d] with d >= 2",
                      lambda d: len(d) == 2 and d[0] == d[1] >= 2)
TWO_QUBIT = Shape("a two-qubit state", lambda d: d == (2, 2))
THREE_QUBIT = Shape("a three-qubit state", lambda d: d == (2, 2, 2))


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
    THREE_QUBIT.require(d, "partial_transpose_qubit")
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
        Reduced state over the kept subsystems: unchecked for a
        :class:`DensityMatrix` (a state by construction), validated for a
        bare matrix.
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
    kept = [d[k] for k in keep]
    out = t.reshape(math.prod(kept), math.prod(kept))
    if isinstance(rho, DensityMatrix):
        return _derived(out, kept)
    return validate_density(out, kept)


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
    SQUARE.require(d, "realign")
    n = d[0]
    return mat.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def herm_eigenvalues(h):
    """Real spectrum of a Hermitian matrix, or of each of a stack of them
    (one LAPACK ``eigh`` call either way).

    Parameters
    ----------
    h : array_like
        Hermitian matrix ``(n, n)`` or stack ``(k, n, n)`` (checked to
        ``HERM_TOL``).

    Returns
    -------
    Spectrum or tuple of Spectrum
        Ascending eigenvalues, eigenvectors, and the achieved residual: one
        :class:`Spectrum` for a matrix, one per matrix for a stack.

    Raises
    ------
    NonFiniteEntry, HermiticityViolation
        If any matrix has a NaN or infinite entry or is not Hermitian within
        tolerance.
    EigensolverError
        If the residual of any matrix exceeds ``EIG_RESIDUAL_TOL * max(1,
        max |lambda|)``, taken over that matrix's own eigenvalues.
    """
    m = _square(h, (2, 3))
    herm_dev = _finite_herm_dev(m)
    if herm_dev > HERM_TOL:
        raise HermiticityViolation("eigensolver input is not Hermitian", herm_dev)
    lam, vec = np.linalg.eigh(m)
    return _checked_spectrum(m, lam, vec)


def _checked_spectrum(m, lam, vec):
    """Wrap eigenpairs of ``m`` (a matrix, or a stack of them with stacked
    ``lam`` and ``vec``) as :class:`Spectrum` objects once ``m v = lambda v``
    holds for each matrix to ``EIG_RESIDUAL_TOL * max(1, max |lambda|)`` of
    its own eigenvalues."""
    residual = abs(m @ vec - vec * lam[..., np.newaxis, :]).max(axis=(-2, -1))
    bound = EIG_RESIDUAL_TOL * abs(lam).max(axis=-1, initial=1.0)
    # Written so that a NaN residual fails the check.
    if not (residual <= bound).all():
        worst = np.where(residual <= bound, 0.0, residual).max()
        raise EigensolverError("eigensolver residual above tolerance", float(worst))
    # Read-only, because DensityMatrix.spectrum hands one Spectrum to every caller.
    lam.flags.writeable = False
    vec.flags.writeable = False
    if m.ndim == 2:
        return Spectrum(eigenvalues=lam, residual=float(residual), vectors=vec)
    return tuple(Spectrum(eigenvalues=l, residual=r, vectors=v)
                 for l, r, v in zip(lam, residual.tolist(), vec))


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
    m = _square(a)
    if _finite_herm_dev(m) <= HERM_TOL:
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
    mat = rho.mat if isinstance(rho, DensityMatrix) else _as_square(rho)
    if hm.shape != mat.shape:
        raise DimensionError(f"operator shape {hm.shape} != state shape {mat.shape}")
    return _checked_real(complex(np.trace(hm @ mat)))


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
        Wrapping ``m`` when it is exactly Hermitian, else ``(m + m^H)/2``.

    Raises
    ------
    DimensionError
        If ``dims`` has an entry below 1 or does not multiply to the side.
    NonFiniteEntry, HermiticityViolation, TraceViolation, NegativityViolation
        With the offending magnitude attached.
    """
    mat = _square(m)
    herm_dev = _finite_herm_dev(mat)
    dims = _checked_dims(dims, mat.shape[0])
    if herm_dev > HERM_TOL:
        raise HermiticityViolation("density matrix is not Hermitian", herm_dev)
    _unit_trace(mat, "density matrix")
    if herm_dev:
        # Exactly Hermitian from here on, so every map of it is too.
        mat = (mat + mat.conj().T) / 2
    spec = herm_eigenvalues(mat)
    lam_min = float(spec.eigenvalues[0])
    if lam_min < PSD_FLOOR:
        raise NegativityViolation("density matrix has a negative eigenvalue", -lam_min)
    return _derived(mat, dims, spec)


def _unit_trace(mat, what):
    """``mat`` once its trace is within ``TRACE_TOL`` of 1."""
    trace_dev = abs(complex(np.trace(mat)) - 1.0)
    # Written so that a NaN trace fails the check.
    if not trace_dev <= TRACE_TOL:
        raise TraceViolation(f"{what} trace differs from 1", trace_dev)
    return mat


def _derived(mat, dims, spectrum=None, ket=None):
    """Wrap ``mat`` unchecked, seeding its spectrum when it is known and
    keeping the normalized ``ket`` of a projector: a state by construction
    (see the module notes)."""
    rho = DensityMatrix(mat=mat, dims=tuple(dims), ket=ket)
    if spectrum is not None:
        # cached_property stores in the instance dict, which the frozen
        # dataclass's __setattr__ guard does not cover.
        object.__setattr__(rho, "spectrum", spectrum)
    return rho
