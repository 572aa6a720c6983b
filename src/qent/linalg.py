"""Dense complex-matrix substrate for small multipartite quantum states.

Everything here operates on plain ``numpy`` arrays of ``complex128`` plus a
list of subsystem dimensions.  Subsystem 0 is the *leftmost* tensor factor and
the computational basis is big-endian (for three qubits, basis index 0 is
|000> and index 7 is |111>).  A partial transpose and a realignment are
fixed permutations of a matrix's entries: :func:`partial_transpose` serves
every cut of every state with one gather through the flat index table of its
``(dims, parties)`` (:func:`_pt_table`, which concatenates the cuts of
several states or parties), and :func:`realign` through that of its ``d``
(:func:`_realign_table`).  These tables, the identity of
:func:`_eye` (the ``I`` of the SPA-PT maps, the SPA witnesses and the
reduction check) and the :func:`exact_dims` shapes are the fixed operands of
the package: each is built on first use and read-only.  The arrays are
cached by one rule (:func:`_fixed_operand`: at most ``OPERAND_CACHE_COUNT``
of each kind, and only those of matrices of side at most
``OPERAND_CACHE_SIDE``; a larger one is built per call), and the shapes,
which are tiny, by the count alone.  Importing the package builds none.

Every eigenproblem goes through :func:`_solve`, which calls LAPACK
(``numpy.linalg.eigh``) and raises :class:`~qent.errors.EigensolverError` when it
fails or its eigenpairs miss ``H v = lambda v`` by over ``EIG_RESIDUAL_TOL`` times
their matrix's spectral radius (:func:`_check_residual`, gated by :func:`_residual_gate`).
Each distinct matrix of a state is solved at most once: a
:class:`DensityMatrix` caches

* ``rho.spectrum``, the spectrum of the state (seeded by its validation);
* ``rho.pt_spectrum_of(k)``, the spectrum of the partial transpose over party
  ``k`` (``rho.pt_spectrum`` on a bipartite state, whose parties share it),
  which every check, measure, SPA-PT map and classifier built on it reads;
* ``rho.realign_norm``, the trace norm of the realigned matrix, which the
  realignment check and the Chen bound both read;
* ``rho.reduction_spectrum``, the spectrum of ``rho_A (x) I - rho`` on a
  bipartite state, which the reduction check reads.

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

A state, its partial transposes (permutations of its entries), ``rho_A (x) I -
rho`` (``rho_A`` sums the same terms in the same order for entries ``(i, j)`` and
``(j, i)``) and :func:`qent.measures.three_pi`'s pair partial transposes are
exactly Hermitian too, and :func:`qent.measures.concurrence_2q`'s product is to
rounding, which its residual bounds.  So only a caller's matrix gets a finiteness
and Hermiticity pass (in :func:`herm_eigenvalues` or :func:`validate_density`).
Every solve checks its residual, which also catches a :class:`DensityMatrix`
built by hand around a NaN, infinite or far from Hermitian matrix.  A projector
also keeps its normalized ket as ``rho.ket`` (``None`` on every other state), so
a pure three-qubit state is decided from its amplitudes without an eigensolve;
only :func:`qent.states.projector` sets it.

Which subsystem dimensions a function accepts is stated once, as one of the
:class:`Shape` constants of this module; every guard of the library calls
its ``require`` and the CLI selects its criteria and measures by its ``fits``.
So are a whole number (:func:`_whole`) and a party index (:func:`_party`).

Stacks of states.  A matrix ``(n, n)`` and a stack ``(k, n, n)`` follow the
same rules by the same code, a matrix being the one-element case:
:func:`herm_eigenvalues`, :func:`validate_density`, :func:`partial_transpose`,
:func:`realign` and :func:`trace_norm` take both, and the two maps also take
a tuple of states, whose validated matrices are not scanned again.
:func:`fill_spectra` fills the partial-transpose cache of a tuple of states
with one gather and one stacked solve per map (a single state fills its
partial transposes this way too, its lone matrix gathered and solved 2-D).
Each matrix of a stack gets the bits it gets on its own: stacked ``eigh``
and ``svd`` solve each matrix as a loop would, every other step is a
gather, elementwise, or a reduction within one matrix, and a stack with one
bad matrix raises what that matrix raises alone.  Three steps still see the
leading axis: the returned container (one value for a matrix, a tuple or
array of ``k`` for a stack); the LAPACK call, which solves a lone matrix 2-D
rather than as a stack of one (which gains nothing, having the same bits and
time, and the tests pin the 2-D shapes); and :func:`validate_density` of a
lone bipartite matrix, which solves ``[rho, rho^{T_B}, rho_A (x) I - rho]`` as
one ``(3, n, n)`` stack and seeds all three entries (a stack, which pays the
call overhead once, keeps its path).
:class:`DensityMatrix` stays one state; a stack of states is a tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
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

# The cache rule of the fixed operands (see the module notes).
OPERAND_CACHE_SIDE = 64  # largest matrix side whose operands are cached
OPERAND_CACHE_COUNT = 1024  # most operands of one kind kept at once


def _below(statistic, threshold, budget=0.0):
    """Whether ``statistic`` lies below ``threshold`` by more than ``SLACK``
    and the claim's floor ``budget`` (:func:`_floor_eps`): the one rule of
    every decision.  A claim above a threshold is ``_below(-statistic,
    -threshold, budget)``, which rounds as ``statistic > threshold + SLACK +
    budget`` does (``fl(-a - b) = -fl(a + b)``).  NaN is never below."""
    return statistic < threshold - SLACK - budget


def _floor_eps(rho):
    """``eps = max(0, -lambda_min(rho))``, the validation floor of a state.

    Validation lets ``eps`` reach ``-PSD_FLOOR = SLACK``.  The nearest state
    is ``rho' = (rho + eps I)/(1 + n eps)``, so ``rho = (1 + n eps) rho' -
    eps I`` and a linear map ``L`` has ``L(rho) = (1 + n eps) L(rho') - eps
    L(I)``.  Where every separable ``rho'`` has ``L(rho') >= 0`` with
    ``L(I) = c I``, ``lambda_min(L(rho))`` may reach ``-c eps``; where it has
    ``Tr(W rho') >= t``, ``Tr(W rho)`` may reach ``t - eps (Tr W - n t)``;
    where it has ``|L(rho')|_1 <= t``, ``|L(rho)|_1`` may reach ``t + eps (n t
    + |L(I)|_1)``.  That allowance is the claim's budget in :func:`_below`;
    one of at most ``SLACK`` is inside the slack and passed as 0, and only
    rounding decides the edge case ``eps = SLACK``."""
    return max(0.0, -float(rho.spectrum.eigenvalues[0]))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix with its subsystem dimension list.

    A caller's matrix becomes one through :func:`validate_density`, which
    enforces hermiticity, unit trace, and positive semidefiniteness (and seeds
    a bipartite state's ``pt_spectrum`` and ``reduction_spectrum`` too); the
    package wraps and solves what it derives unchecked (see the module notes).
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
    _pt_spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self):
        """Total Hilbert-space dimension (side length of ``mat``)."""
        return self.mat.shape[0]

    @cached_property
    def spectrum(self):
        """:class:`Spectrum` of ``mat``, solved at most once per instance.

        :func:`validate_density` fills it from its own solve and the SPA-PT
        maps from the solve of the partial transpose; any other instance
        solves on first access, without an input pass.  ``mat`` must not be
        changed in place afterwards.
        """
        return _solve(self.mat)

    @property
    def pt_spectrum(self):
        """The :meth:`pt_spectrum_of` entry both parties of a bipartite state share."""
        BIPARTITE.require(self.dims, "the partial-transpose spectrum")
        return self.pt_spectrum_of(1)

    def pt_spectrum_of(self, k):
        """Cached :class:`Spectrum` of the partial transpose over party ``k``,
        solved by :func:`fill_spectra` on a miss.  Both parties of a bipartite
        state share the entry of ``rho^{T_B}``, whose transpose is
        ``rho^{T_A}``: it has ``rho^{T_A}``'s eigenvalues, but the complex
        conjugates of ``rho^{T_A}``'s eigenvectors (``vectors.conj()`` are
        those)."""
        key = _pt_key(self.dims, k)
        if key not in self._pt_spectra:
            fill_spectra((self,), ("pt_spectrum",), (key,))
        return self._pt_spectra[key]

    @cached_property
    def realign_norm(self):
        """Trace norm of the realigned matrix of a ``[d, d]`` state, computed
        at most once per instance (:func:`fill_spectra` fills it for a stack)."""
        return trace_norm(realign(self))

    @cached_property
    def reduction_spectrum(self):
        """:class:`Spectrum` of ``rho_A (x) I - rho`` on a bipartite state, seeded
        by :func:`validate_density`; any other instance solves it on first use."""
        BIPARTITE.require(self.dims, "the reduction spectrum")
        self.spectrum  # first: a hand-built non-finite mat raises before inf * 0 below
        return _solve(_reduction_operator(self.mat, self.dims))

    def __post_init__(self):
        object.__setattr__(self, "mat", np.asarray(self.mat, dtype=complex))
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def trace_norm(self):
        """Trace norm of the solved matrix, the sum of ``|lambda|`` as a
        float, summed on the first read."""
        return float(abs(self.eigenvalues).sum())


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


def _finite(a, what):
    """``a`` once every entry is finite."""
    if not np.isfinite(a).all():
        raise NonFiniteEntry(f"{what} has NaN or infinite entries",
                             int(np.count_nonzero(~np.isfinite(a))))
    return a


@np.errstate(invalid="ignore")
def _herm_dev(m, axis=None):
    """Largest entry of ``|m - m^H|`` over a matrix or a stack of them, or
    with ``axis=(-2, -1)`` of each matrix of a stack; an infinite entry
    makes it NaN (``inf - inf``) without a warning."""
    return np.maximum.reduce(abs(m - m.swapaxes(-1, -2).conj()), axis=axis)


def _finite_herm_dev(m, axis=None):
    """``(worst, devs)``: the deviations ``_herm_dev(m, axis)`` and the
    largest of them as a float, once every entry of ``m`` is finite: one
    Hermiticity pass.

    A NaN or infinite entry makes its entry of ``m - m^H``, and so the
    deviation, NaN or infinite; only a deviation that is not finite needs
    the scan for them, which then wins over the Hermiticity error.
    """
    devs = _herm_dev(m, axis)
    worst = float(devs if devs.ndim == 0 else devs.max())
    if not math.isfinite(worst):
        _finite(m, "matrix")
    return worst, devs


def _checked_real(val):
    """Real part of a complex scalar or array of expectation values, once
    every imaginary part is within ``IMAG_TOL`` (a NaN one is not).  A
    Python ``complex`` is checked without a numpy round trip, and an array
    passes when the ``math.hypot`` of its parts (under an ulp off, and never
    overflowing) is within ``IMAG_TOL / 2``, before its largest part is read."""
    imag = (abs(val.imag) if isinstance(val, complex)
            else 0.0 if math.hypot(*val.reshape(-1).imag.tolist()) <= IMAG_TOL / 2
            else float(abs(val.imag).max()))
    if not imag <= IMAG_TOL:
        raise HermiticityViolation("expectation value has an imaginary part", imag)
    return val.real


def _whole(d, what="dimension"):
    """``d`` as an int, once it is a whole number: ``2``, ``2.0`` and
    ``numpy.int64(2)`` are; ``2.5``, NaN, infinity, bools and strings are not.
    An exact ``int`` is one as it is, at any size."""
    if type(d) is int:
        return d
    if (isinstance(d, bool) or not isinstance(d, (int, float, np.integer, np.floating))
            or not float(d).is_integer()):
        raise DimensionError(f"{what} {d!r} is not a whole number")
    return int(d)


def _party(k, n):
    """Party index ``k`` of ``n`` parties as an int, once whole and in ``[0, n - 1]``."""
    k = _whole(k, "party index")
    if not 0 <= k < n:
        raise DimensionError(f"party index {k} out of range for {n} subsystems")
    return k


def _checked_dims(dims, side):
    """``dims`` as a list of ints, once each is a whole number at least 1
    and their exact product is ``side``."""
    dims = [d if type(d) is int else _whole(d) for d in dims]
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


@lru_cache(maxsize=OPERAND_CACHE_COUNT, typed=True)
def exact_dims(*dims):
    """The :class:`Shape` of the states with subsystem dimensions ``dims``,
    built once per ``dims`` (of the ``OPERAND_CACHE_COUNT`` latest)."""
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


def _mat_dims(rho, dims=None, ndims=(2,)):
    """Accept a DensityMatrix or a (matrix, dims) pair, giving the matrix and
    its dims as a tuple; with ``ndims=(2, 3)`` the bare matrix may be a stack
    of them, and ``rho`` a tuple of states with one dims, whose matrices are
    stacked unscanned (each is a validated state already)."""
    if isinstance(rho, DensityMatrix):
        return rho.mat, rho.dims
    if 3 in ndims and _is_states(rho):
        dims = _one_dims(rho)
        return np.stack([one.mat for one in rho]), dims
    if dims is None:
        raise DimensionError("subsystem dimensions required for a bare matrix")
    mat = _finite(_square(rho, ndims), "matrix")
    return mat, tuple(_checked_dims(dims, mat.shape[-1]))


def _is_states(rho):
    """Whether ``rho`` is a tuple of states rather than an array-like matrix."""
    return isinstance(rho, tuple) and bool(rho) and isinstance(rho[0], DensityMatrix)


def _one_dims(states):
    """The dims that every state of a tuple shares, each tested to be a state
    first; an empty tuple has none, and is refused as a mixed one is."""
    if not states or any(not isinstance(rho, DensityMatrix) or rho.dims != states[0].dims
                         for rho in states):
        raise DimensionError("a stack of states needs states of one dims")
    return states[0].dims


def _fixed_operand(side):
    """Decorate the builder of a fixed operand with the one cache rule of
    the package: the operand, made read-only, of a key whose matrices have
    side ``side(*key)`` at most ``OPERAND_CACHE_SIDE`` is built once and kept
    (the ``OPERAND_CACHE_COUNT`` latest of them), and a larger one is built
    on every call by the same builder, so a large state leaves nothing
    behind.  The decorated function keeps the cache's ``cache_info``."""
    def decorate(build):
        def read_only(*key):
            out = build(*key)
            out.flags.writeable = False
            return out

        cached = lru_cache(maxsize=OPERAND_CACHE_COUNT)(read_only)

        @wraps(build)
        def operand(*key):
            return (cached if side(*key) <= OPERAND_CACHE_SIDE else read_only)(*key)

        operand.cache_info = cached.cache_info
        return operand
    return decorate


@_fixed_operand(lambda n: n)
def _eye(n):
    """The read-only ``n x n`` identity (float), a :func:`_fixed_operand`."""
    return np.eye(n)


@_fixed_operand(lambda dims, parties: math.prod(dims) * len(parties))
def _pt_table(dims, parties):
    """Flat index table of the partial transposes over ``parties`` (checked
    party indices) of an ``N x N`` matrix of subsystem dimensions ``dims``,
    concatenated: flat entry ``i`` of transpose ``j`` is flat entry ``table[j
    N^2 + i]`` of the matrix.  A read-only :func:`_fixed_operand`, sized as a
    matrix of side ``N`` times the number of parties for the cache rule."""
    index = np.arange(math.prod(dims) ** 2).reshape(dims + dims)
    return np.concatenate([index.swapaxes(k, k + len(dims)).ravel() for k in parties])


@_fixed_operand(lambda d: d * d)
def _realign_table(d):
    """Flat index table of the realignment of a ``[d, d]`` matrix, as
    :func:`_pt_table`: entry ``((i, j), (k, l))`` moves to ``((i, k), (j, l))``."""
    return np.arange(d ** 4).reshape(d, d, d, d).swapaxes(1, 2).ravel()


def _gather(mat, table):
    """``mat``, or each matrix of a stack, with flat entry ``i`` taken from
    its flat entry ``table[i]``: one ``take``."""
    return mat.reshape(mat.shape[:-2] + (-1,)).take(table, -1).reshape(mat.shape)


def partial_transpose(rho, sys, dims=None):
    """Partial transpose over one party of a matrix of any number of parties,
    or of each matrix of a stack: one gather through the index table of
    ``(dims, (sys,))`` (:func:`_pt_table`).

    Parameters
    ----------
    rho : DensityMatrix, tuple of DensityMatrix, or array_like
        State of ``n`` parties, a tuple of states with one dims, or a bare
        matrix ``(N, N)`` or stack ``(k, N, N)`` (pass ``dims`` for a bare
        matrix or stack).  A tuple of states is mapped as the stack of their
        matrices, which are not scanned again.
    sys : int or tuple of int
        Which party to transpose, ``0 <= sys < n``.  With a tuple of ``k``
        states, also a tuple of ``k`` parties: matrix ``j`` of the result is
        state ``j`` transposed over party ``j``, so ``partial_transpose((rho,)
        * 3, (0, 1, 2))`` gathers all three cuts of ``rho`` from its own
        matrix at once.
    dims : list of int, optional
        Subsystem dimensions when ``rho`` is a bare matrix or stack.

    Returns
    -------
    numpy.ndarray
        The matrix (or stack, ``(k, N, N)`` for a tuple of states) with the
        chosen party's indices transposed.
    """
    if isinstance(sys, tuple):
        return _pt_pairs(rho, sys)
    mat, d = _mat_dims(rho, dims, (2, 3))
    return _gather(mat, _pt_table(d, (_party(sys, len(d)),)))


def _pt_pairs(states, parties):
    """Matrix ``j`` is ``states[j]`` transposed over ``parties[j]``: one
    gather through the concatenated tables, from the one matrix of a tuple
    that repeats one state, else from the stack of the states' matrices."""
    if not _is_states(states) or len(parties) != len(states):
        raise DimensionError("a tuple of parties needs a tuple of as many states")
    dims = _one_dims(states)
    table = _pt_table(dims, tuple(_party(k, len(dims)) for k in parties))
    first = states[0].mat
    if states.count(states[0]) == len(states):
        src = first
    else:
        src = np.stack([rho.mat for rho in states])
        table = table + np.repeat(np.arange(0, src.size, first.size), first.size)
    return src.reshape(-1)[table].reshape((len(states),) + first.shape)


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
    n = len(d)
    keep = sorted(set(_party(k, n) for k in keep))
    if not keep:
        raise DimensionError("keep set must be nonempty")
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
    """Realignment of a bipartite matrix with square blocks, or of each
    matrix of a stack: one gather through the index table of ``d``
    (:func:`_realign_table`).

    Each ``d x d`` block of the matrix is flattened into one row of the
    output, so for a state ``A (x) B`` the result is ``vec(A) vec(B)^T``.

    Parameters
    ----------
    rho : DensityMatrix, tuple of DensityMatrix, or array_like
        State with dims ``[d, d]``, a tuple of them (mapped as the stack of
        their matrices, not scanned again), or a bare matrix or stack ``(k,
        d^2, d^2)``.
    dims : list of int, optional

    Returns
    -------
    numpy.ndarray
        The realigned ``d^2 x d^2`` matrix (or stack).
    """
    mat, d = _mat_dims(rho, dims, (2, 3))
    SQUARE.require(d, "realign")
    return _gather(mat, _realign_table(d[0]))


def _reduction_operator(mat, dims):
    """``rho_A (x) I - rho`` of a bipartite matrix: ``rho_A`` by one trace of its
    ``(d_A, d_B, d_A, d_B)`` view, ``(x) I`` by broadcasting (``np.kron``'s bits, 1/4 the cost)."""
    d0, d1 = dims
    rho_a = mat.reshape(d0, d1, d0, d1).trace(axis1=1, axis2=3)
    return (rho_a[:, None, :, None] * _eye(d1)[None, :, None, :]).reshape(mat.shape) - mat


def herm_eigenvalues(h):
    """Real spectrum of a caller's Hermitian matrix, or of each of a stack of
    them (one LAPACK ``eigh`` call either way): one input pass, then :func:`_solve`.

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
        If LAPACK fails or the residual of any matrix exceeds ``EIG_RESIDUAL_TOL
        * max(1, max |lambda|)``, taken over that matrix's own eigenvalues.
    """
    m = _square(h, (2, 3))
    herm_dev, _ = _finite_herm_dev(m)
    if herm_dev > HERM_TOL:
        raise HermiticityViolation("eigensolver input is not Hermitian", herm_dev)
    return _solve(m)


def _solve(m):
    """:func:`herm_eigenvalues` without its input pass (module notes); a LAPACK failure, or
    numpy's warning on a hand-built non-finite entry raised as an error, is EigensolverError."""
    try:
        return _checked_spectrum(m, *np.linalg.eigh(m))
    except (np.linalg.LinAlgError, RuntimeWarning) as err:
        raise EigensolverError(f"eigensolver failed: {err}", math.nan) from None


def _check_residual(residual, lam):
    """The one residual bound, behind :func:`_residual_gate`: raise
    :class:`~qent.errors.EigensolverError` unless each residual (one per matrix)
    is within ``EIG_RESIDUAL_TOL * max(1, max |lambda|)`` over the last axis of ``lam``."""
    bound = EIG_RESIDUAL_TOL * np.abs(lam).max(axis=-1, initial=1.0)
    # Written so that a NaN residual fails the check.
    if not (residual <= bound).all():
        worst = np.where(residual <= bound, 0.0, residual).max()
        raise EigensolverError("eigensolver residual above tolerance", float(worst))


def _residual_gate(residual, lam):
    """Skip :func:`_check_residual` when each residual is within its floor ``EIG_RESIDUAL_TOL``."""
    if not (residual <= EIG_RESIDUAL_TOL if isinstance(residual, float)  # NaN fails either test
            else all(map(EIG_RESIDUAL_TOL.__ge__, residual))):
        _check_residual(residual, lam)


def _checked_spectrum(m, lam, vec):
    """Wrap eigenpairs of ``m`` (a matrix, or a stack of them with stacked
    ``lam`` and ``vec``) as :class:`Spectrum` objects once ``m v = lambda v``
    holds for each matrix (:func:`_residual_gate`), each residual a float."""
    r = m @ vec
    r -= vec * lam[..., np.newaxis, :]
    r = abs(r)
    residual = np.maximum.reduce(r, axis=None if m.ndim == 2 else (-2, -1)).tolist()
    _residual_gate(residual, lam)
    # Read-only, because DensityMatrix.spectrum hands one Spectrum to every caller.
    lam.setflags(write=False)
    vec.setflags(write=False)
    if m.ndim == 2:
        return Spectrum(lam, residual, vec)
    return tuple(map(Spectrum, lam, residual, vec))


def trace_norm(a):
    """Trace norm (sum of singular values) of a square matrix, or of each
    of a stack of them.

    For a matrix that is Hermitian within ``HERM_TOL`` this is the sum of
    absolute eigenvalues; otherwise it is the sum of the singular values
    from LAPACK's SVD.  A stack is split by that test into one stacked
    eigensolve and one stacked SVD, so each matrix gets the value it gets
    on its own.

    Parameters
    ----------
    a : array_like
        Square matrix ``(n, n)`` or stack ``(k, n, n)``.

    Returns
    -------
    float or numpy.ndarray
        One norm for a matrix, an array of ``k`` for a stack.
    """
    m = _square(a, (2, 3))
    herm = _finite_herm_dev(m, (-2, -1))[1] <= HERM_TOL
    if m.ndim == 2:
        return (_solve(m).trace_norm if herm
                else float(np.linalg.svd(m, compute_uv=False).sum()))
    norms = np.empty(len(m))
    if herm.any():
        norms[herm] = [s.trace_norm for s in _solve(m[herm])]
    if not herm.all():
        norms[~herm] = np.linalg.svd(m[~herm], compute_uv=False).sum(axis=-1)
    return norms


def _matrix(a):
    """The matrix of a :class:`DensityMatrix`, read without a scan (a state
    is finite by construction), or ``a`` as a complex array once it is a
    finite square matrix."""
    return a.mat if isinstance(a, DensityMatrix) else _finite(_square(a), "matrix")


def expectation(h, rho):
    """Expectation value ``Tr(h rho)`` of a Hermitian operator.

    Parameters
    ----------
    h : DensityMatrix or array_like
        Hermitian operator.  A :class:`DensityMatrix` (say the SPA-PT state
        ``rho_tilde``) is read as its matrix without a finiteness scan,
        because a state is finite by construction; a bare operator is
        scanned.
    rho : DensityMatrix or array_like
        State of matching dimension, read the same way.

    Returns
    -------
    float
        The (real) trace value.
    """
    hm, mat = _matrix(h), _matrix(rho)
    if hm.shape != mat.shape:
        raise DimensionError(f"operator shape {hm.shape} != state shape {mat.shape}")
    return _checked_real(complex((hm @ mat).trace()))


def validate_density(m, dims):
    """Validate a matrix, or each matrix of a stack, as a density matrix
    and wrap it.

    A stack ``(k, n, n)`` gets one finiteness and Hermiticity pass, a trace
    and a ``lambda_min`` check of each matrix, and one LAPACK call; each of
    its states has the bits, spectrum included, that its matrix gets on its
    own.  A lone bipartite matrix is solved in one LAPACK call with the two
    matrices the PPT and reduction checks read, ``rho^{T_B}`` and ``rho_A (x) I - rho``.

    Parameters
    ----------
    m : array_like
        Candidate square matrix ``(n, n)``, or a stack ``(k, n, n)`` of them.
    dims : list of int
        Subsystem dimensions of every matrix, each at least 1; product must
        equal the side length.

    Returns
    -------
    DensityMatrix or tuple of DensityMatrix
        One state for a matrix, one per matrix for a stack, seeded with its
        spectrum (a lone bipartite state also with ``pt_spectrum`` and
        ``reduction_spectrum``).  Each wraps its matrix when the input is
        exactly Hermitian, else ``(m + m^H)/2``.

    Raises
    ------
    DimensionError
        If ``dims`` has an entry below 1 or does not multiply to the side.
    NonFiniteEntry, HermiticityViolation, TraceViolation, NegativityViolation
        With the offending magnitude attached.  A stack raises the first of
        these checks that any of its matrices fails, so a stack with one bad
        matrix raises what that matrix raises alone, magnitude included.
    EigensolverError
        If the LAPACK call fails or misses its residual bound.  The call of a
        lone bipartite matrix also solves ``rho^{T_B}`` and ``rho_A (x) I - rho``,
        whose residuals are checked before the PSD check: a miss on either raises
        this ahead of any NegativityViolation, even if their spectra go unread.
    """
    mat = _square(m, (2, 3))
    herm_dev, devs = _finite_herm_dev(mat, (-2, -1))
    dims = _checked_dims(dims, mat.shape[-1])
    if herm_dev > HERM_TOL:
        raise HermiticityViolation("density matrix is not Hermitian", herm_dev)
    _unit_trace(mat, "density matrix")
    if herm_dev:
        # Exactly Hermitian from here on, so every map of it is too.  Only
        # the inexact matrices of a stack change, as they would on their own;
        # a lone matrix is the one-element case of the mask.
        inexact = devs > 0
        mat = mat.copy()
        part = mat[inexact]
        mat[inexact] = (part + part.conj().swapaxes(-1, -2)) / 2
    # A lone bipartite state seeds the spectra the PPT and reduction checks read.
    fused = mat.ndim == 2 and len(dims) == 2
    spec, *seeds = (_solve(np.array((mat, _gather(mat, _pt_table(tuple(dims), (1,))),
                                     _reduction_operator(mat, dims)))) if fused else (_solve(mat),))
    # A lone matrix is the one-element stack from here on.
    mats, specs = (mat, spec) if mat.ndim == 3 else ((mat,), (spec,))
    lam_min = min(float(s.eigenvalues[0]) for s in specs)
    if lam_min < PSD_FLOOR:
        raise NegativityViolation("density matrix has a negative eigenvalue", -lam_min)
    states = tuple(_derived(one, dims, s) for one, s in zip(mats, specs))
    if fused:
        states[0]._pt_spectra[_pt_key(dims, 1)], vars(states[0])["reduction_spectrum"] = seeds
    return states if mat.ndim == 3 else states[0]


def _unit_trace(mat, what):
    """Raise :class:`~qent.errors.TraceViolation` unless the trace of
    ``mat``, or of each matrix of a stack, is within ``TRACE_TOL`` of 1."""
    trace_dev = abs(mat.trace(axis1=-2, axis2=-1) - 1.0)
    # A NaN trace makes the largest deviation NaN, which fails the check.
    worst = float(np.maximum.reduce(trace_dev, axis=None))
    if not worst <= TRACE_TOL:
        raise TraceViolation(f"{what} trace differs from 1", worst)


def _pt_key(dims, party):
    """Cache key of ``rho^{T_party}``: the checked party, or 1 on a bipartite state."""
    party = _party(party, len(dims))
    return 1 if len(dims) == 2 else party


def fill_spectra(states, names=("pt_spectrum", "realign_norm"), parties=(1,)):
    """Fill the cached partial-transpose spectra over ``parties``
    (:meth:`DensityMatrix.pt_spectrum_of`) and ``realign_norm`` (or those
    ``names`` list) of each of ``states``, a sequence of states with the
    same dims, keeping those cached already.  Every (state, party) pair not
    cached yet is taken by one :func:`partial_transpose` call, one gather
    from the states' own matrices (party-major, each state once per party
    it misses), and solved by one stacked :func:`_solve` call; a
    lone pair is gathered and solved as its 2-D matrix.  The norms take one
    :func:`realign` of the states and one :func:`trace_norm` call, as a stack
    even for one state (whose own ``realign_norm`` computes it 2-D).  Each
    value has the bits the state gets solved on its own.  An empty tuple of
    states fills nothing.

    Raises
    ------
    DimensionError
        If ``states`` is one state, ``names`` one string or ``parties`` one
        integer, an entry of ``names`` is neither ``"pt_spectrum"`` nor
        ``"realign_norm"`` (checked first, even for an empty tuple), a state
        is not one or the states' dims differ, a party is not one of theirs, or
        the realignment does not apply to them (it needs dims ``[d, d]``).
    """
    # One type test per argument, as DensityMatrix.pt_spectrum_of calls this on every miss.
    lone = ("states" if isinstance(states, DensityMatrix) else "names" if isinstance(names, str)
            else "parties" if isinstance(parties, (int, np.integer)) else None)
    if lone:
        raise DimensionError(f"fill_spectra takes {lone} as a sequence, not one value")
    states = tuple(states)  # realign takes only a tuple as a stack of states
    unknown = [name for name in names if name not in ("pt_spectrum", "realign_norm")]
    if unknown:
        raise DimensionError(f"fill_spectra cannot fill {', '.join(map(repr, unknown))}")
    if not states:
        return
    dims = _one_dims(states)
    if "pt_spectrum" in names:
        keys = dict.fromkeys(_pt_key(dims, k) for k in parties)
        todo = [(rho, k) for k in keys for rho in states if k not in rho._pt_spectra]
        if todo:
            owners, cuts = zip(*todo)
            specs = (_solve(partial_transpose(owners, cuts)) if len(todo) > 1
                     else (_solve(partial_transpose(*todo[0])),))
            for rho, k, spec in zip(owners, cuts, specs):
                rho._pt_spectra[k] = spec
    if "realign_norm" in names:
        for rho, norm in zip(states, trace_norm(realign(states)).tolist()):
            vars(rho).setdefault("realign_norm", norm)


def _derived(mat, dims, spectrum=None, ket=None):
    """Wrap ``mat`` unchecked, seeding its spectrum when it is known and
    keeping the normalized ``ket`` of a projector: a state by construction
    (see the module notes)."""
    rho = DensityMatrix(mat=mat, dims=dims, ket=ket)
    if spectrum is not None:
        # cached_property stores in the instance dict, which the frozen
        # dataclass's __setattr__ guard does not cover.
        object.__setattr__(rho, "spectrum", spectrum)
    return rho
