"""Three-qubit classification.

Two complementary toolsets:

* canonical-state machinery for pure states — the five-parameter normal
  form, correlation tensors, local-unitary invariants, and the family of
  GHZ-subclass witnesses ``H1..H8`` built from few-body observables;
* the SPA-PT eigenvalue-threshold SLOCC classifier for arbitrary (mixed)
  three-qubit states, comparing the minimum eigenvalues of the three
  single-qubit SPA partial transposes against the 1/10 floor.  Each is
  ``1/10 + (1/5) lambda_min(rho^{T_k})``, so the classifier solves the
  partial transposes and never builds an SPA-PT output.

The subclass witnesses assume phase ``theta = 0``; nonzero phases are
rejected rather than silently handled.  Witness signs are evidence about
the parametric form, not a SLOCC-inequivalence proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import DimensionError, NotGHZClass
from .linalg import PARAM_NORM_TOL, ZERO_TOL, DensityMatrix, _below, _checked_real, tensor
from .spa import THREE_QUBIT_SCALE, THREE_QUBIT_SHIFT, THREE_QUBIT_THRESHOLD
from .states import (
    _PAULI,
    _amplitudes,
    _cut_schmidt_products,
    ghz_w_wtilde_mixture,
    ket,
    projector,
)

# Tangle boundary of the GHZ/W/W~ mixture regimes (quoted value).
_W_CLASS_MAX_Q1 = 0.6269


@dataclass(frozen=True)
class CanonicalThreeQubit:
    """Parameters of the five-parameter canonical pure three-qubit state.

    ``lambda0 |000> + lambda1 e^{i theta} |100> + lambda2 |101>
    + lambda3 |110> + lambda4 |111>`` with all lambdas in [0, 1] and
    squared norms summing to 1, kept as floats once checked.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    theta: float = 0.0

    @property
    def lambdas(self):
        return (self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4)

    def __post_init__(self):
        s = sum(l * l for l in self.lambdas)
        # Written so that a NaN lambda fails the check.
        if not abs(s - 1.0) <= PARAM_NORM_TOL:
            raise DimensionError(f"canonical lambdas have squared norm {s}, expected 1")
        if min(self.lambdas) < 0.0:
            raise DimensionError(f"canonical lambdas must be nonnegative, got {self.lambdas}")
        if not (0.0 <= self.theta <= np.pi):
            raise DimensionError("theta must lie in [0, pi]")
        for k, l in enumerate(self.lambdas):
            object.__setattr__(self, f"lambda{k}", float(l))


def _canonical_amplitudes(params):
    """Raw amplitudes of the canonical state (basis |000>..|111>)."""
    l0, l1, l2, l3, l4 = params.lambdas
    return _amplitudes(8, {0: l0, 4: l1 * np.exp(1j * params.theta), 5: l2, 6: l3, 7: l4})


def canonical_projector(params: CanonicalThreeQubit) -> DensityMatrix:
    """Density matrix of the canonical state, carrying its ket."""
    return projector(_canonical_amplitudes(params), [2, 2, 2])


@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Three-body correlation tensors of a three-qubit state.

    ``T_w[r, c] = Tr(rho sigma_w (x) sigma_c (x) sigma_r)`` for
    ``w in {x, y, z}`` and row/column indices running over (x, y, z) —
    the column picks the middle qubit's Pauli and the row the last one's.
    """

    Tx: np.ndarray
    Ty: np.ndarray
    Tz: np.ndarray


def _correlation_tables():
    """Read-only ``(8, 3, 3, 3)`` flat indices into ``rho`` and phases: term ``(a, b, c)``
    of ``T[w, r, k]`` is ``rho[abc, xyz] P_w[x, a] P_k[y, b] P_r[z, c]``, one per column."""
    a, b, c, w, r, k = np.ix_(*[range(2)] * 3, *[range(3)] * 3)
    x, y, z = (np.abs(_PAULI).argmax(axis=1)[p, i] for p, i in ((w, a), (k, b), (r, c)))
    index = ((4 * a + 2 * b + c) * 8 + 4 * x + 2 * y + z).reshape(8, 3, 3, 3)
    phase = (_PAULI[w, x, a] * _PAULI[k, y, b] * _PAULI[r, z, c]).reshape(8, 3, 3, 3)
    index.flags.writeable = phase.flags.writeable = False
    return index, phase


_CT_INDEX, _CT_PHASE = _correlation_tables()


def correlation_tensors(rho: DensityMatrix) -> CorrelationTensor:
    """Correlation tensors of a three-qubit state, by one gather of the 216 nonzero terms
    ``+-rho[i, j]``, ``+-i rho[i, j]`` (an einsum forms 1,728), summed in turn from ``+0j``
    in ``(a, b, c)`` order: the einsum's order, so every bit, signed zeros included, is its."""
    linalg.THREE_QUBIT.require(rho.dims, "correlation_tensors")
    t = np.add.reduce(rho.mat.reshape(-1)[_CT_INDEX] * _CT_PHASE, axis=0, initial=0j)
    tx, ty, tz = _checked_real(t)
    return CorrelationTensor(Tx=tx, Ty=ty, Tz=tz)


@dataclass(frozen=True)
class LuInvariants:
    """Local-unitary invariants of a canonical three-qubit state."""

    tau: float
    c_ab: float
    c_ac: float
    c_bc: float
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float


def lu_invariants(params: CanonicalThreeQubit) -> LuInvariants:
    """Tangle, pairwise concurrences, and the polynomial invariants I1..I5."""
    l0, l1, l2, l3, l4 = params.lambdas
    phase = np.exp(1j * params.theta)
    return LuInvariants(
        tau=4.0 * l0 ** 2 * l4 ** 2,
        c_ab=2.0 * l0 * l3,
        c_ac=2.0 * l0 * l2,
        c_bc=2.0 * abs(l2 * l3 - phase * l1 * l4),
        i1=1.0,
        i2=2.0 * (l1 * l2 + l3 * l4) ** 2,
        i3=2.0 * (l1 * l3 + l2 * l4) ** 2,
        i4=2.0 * l0 ** 2 * l1 ** 2,
        i5=4.0 * l0 ** 4 * l4 ** 4,
    )


# ---------------------------------------------------------------------------
# Few-body observables and GHZ-subclass witnesses
# ---------------------------------------------------------------------------

# The observables of the subclass witnesses: O1 = 2 sx sx sx, O4 = 2 sx I I.
_O1 = 2.0 * tensor(tensor(_PAULI[0], _PAULI[0]), _PAULI[0])
_O4 = 2.0 * tensor(_PAULI[0], np.eye(4))
_O1.flags.writeable = _O4.flags.writeable = False


def _require_theta_zero(params):
    if abs(params.theta) > ZERO_TOL:
        raise DimensionError("subclass witnesses are defined for theta = 0 only")


def _root(x):
    """``sqrt(x)``, reading a radicand rounded below 0 (or a NaN) as 0."""
    return math.sqrt(x if x > 0.0 else 0.0)


def _witness_coefficients(params):
    """Multiple of I that each of ``H1..H8`` subtracts from O1, from one set of
    powers of the lambdas (``l ** 4`` is one ``pow``; ``(l ** 2) ** 2`` rounds twice)."""
    l0, l1, l2, l3, l4 = params.lambdas
    s0, s1, s2, s3, s4 = l0 ** 2, l1 ** 2, l2 ** 2, l3 ** 2, l4 ** 2
    f1, f2, f3, f4 = l1 ** 4, l2 ** 4, l3 ** 4, l4 ** 4
    t1 = f2 - 2.0 * s2 * s3 + 2.0 * s2 * s4 + (s3 + s4) ** 2
    t4 = (f1 + f2 + f3 + f4 + 8.0 * l1 * l2 * l3 * l4 - 2.0 * s2 * s3 + 2.0 * s2 * s4
          + 2.0 * s1 * s2 + 2.0 * s1 * s3 - 2.0 * s1 * s4 + 2.0 * s3 * s4)
    c5 = 2.0 * s0 * (s1 + s2 + s4 + _root(f1 + 2.0 * s1 * (s2 - s4) + (s2 + s4) ** 2))
    c6 = 2.0 * s0 * (s1 + s3 + s4 + _root(f1 + 2.0 * s1 * (s3 - s4) + (s3 + s4) ** 2))
    return {"H1": 4.0 * s0 * s1, "H2": 4.0 * s0 * (s2 + s4), "H3": 4.0 * s0 * (s3 + s4),
            "H4": 2.0 * s0 * (1.0 - s0 + _root(t1)), "H5": c5, "H6": c6,
            "H7": 2.0 * s0 * (s1 + s2 + s3 + s4 + _root(t4)), "H8": c5}


def _witness_coefficient(params, which):
    _require_theta_zero(params)
    if which not in _WITNESS_NAMES:
        raise DimensionError(f"unknown witness {which!r}")
    return _witness_coefficients(params)[which]


def ghz_witness_operator(params: CanonicalThreeQubit, which):
    """Matrix form of subclass witness ``H1..H8`` for the given parameters.

    ``H_k = O1 - c_k(params) I`` (plus ``O4/2`` for ``H8``); the scalar
    ``c_k`` is built from the state's own parameters, so these witnesses are
    tuned per state.
    """
    h = _O1 - _witness_coefficient(params, which) * np.eye(8)
    return h + _O4 / 2.0 if which == "H8" else h


def ghz_witness_value(params: CanonicalThreeQubit, which):
    """Closed-form expectation ``Tr(H_k rho)`` of a subclass witness.

    Agrees with ``expectation(ghz_witness_operator(params, which), rho)``
    for the canonical state of the same parameters.
    """
    val = 4.0 * params.lambda0 * params.lambda4 - _witness_coefficient(params, which)
    return val + 2.0 * params.lambda0 * params.lambda1 if which == "H8" else val


_IMPLICATIONS = {
    "H1": "separates the lambda1 single-extension (subclass-II) from subclass-I",
    "H2": "separates the lambda2 single-extension (subclass-II) from subclass-I",
    "H3": "separates the lambda3 single-extension (subclass-II) from subclass-I",
    "H4": "separates the lambda2,lambda3 double-extension (subclass-III) from subclass-I",
    "H5": "separates the lambda1,lambda2 double-extension (subclass-III) from subclass-I",
    "H6": "separates the lambda1,lambda3 double-extension (subclass-III) from subclass-I",
    "H7": "separates the full five-parameter form (subclass-IV) from subclass-I",
    "H8": "separates subclass-III from subclass-I and subclass-II",
}

_WITNESS_NAMES = tuple(f"H{k}" for k in range(1, 9))


def parametric_subclass(params: CanonicalThreeQubit):
    """Structural subclass S1..S4 from the zero pattern of lambda1..lambda3."""
    extras = sum(1 for l in params.lambdas[1:4] if l > ZERO_TOL)
    return f"S{extras + 1}"


@dataclass(frozen=True)
class SubclassReport:
    """Witness table for a GHZ-class canonical state.

    Attributes
    ----------
    values : dict
        Expectation value of each witness H1..H8 plus the maximal-slice
        witness ``W_MS = O1 - I``.
    negative : tuple of str
        Witnesses with value below ``-SLACK``.
    implications : dict
        What a negative value of each listed witness indicates.
    subclass : str
        Structural subclass S1..S4 read off the parameter zero pattern.
    """

    values: dict
    negative: tuple
    implications: dict
    subclass: str


def classify_ghz_subclass(params: CanonicalThreeQubit) -> SubclassReport:
    """Evaluate all subclass witnesses and report the sign pattern."""
    _require_theta_zero(params)
    l0, l4 = params.lambda0, params.lambda4
    if 4.0 * l0 ** 2 * l4 ** 2 < ZERO_TOL ** 2:
        raise NotGHZClass("tangle is zero; subclass witnesses need lambda0, lambda4 > 0")
    g = 4.0 * l0 * l4
    values = {w: g - c for w, c in _witness_coefficients(params).items()}
    values["H8"] += 2.0 * l0 * params.lambda1
    values["W_MS"] = g - 1.0
    negative = tuple(w for w in _WITNESS_NAMES if _below(values[w], 0.0))
    return SubclassReport(
        values=values,
        negative=negative,
        implications={w: _IMPLICATIONS[w] for w in negative},
        subclass=parametric_subclass(params),
    )


def subclass_fidelities(params: CanonicalThreeQubit, subclass):
    """Maximal teleportation fidelities ``(F_A, F_B, F_C)`` per subclass.

    ``subclass`` is one of ``"S1".."S4"`` and must match the parameter zero
    pattern (S2 is the lambda1 variant, S3 the lambda1,lambda2 variant).
    """
    _require_theta_zero(params)
    l0, l1, l2, l3, l4 = params.lambdas
    need_zero = {"S1": (l1, l2, l3), "S2": (l2, l3), "S3": (l3,), "S4": ()}
    if subclass not in need_zero:
        raise DimensionError(f"unknown subclass {subclass!r}")
    if any(abs(l) > ZERO_TOL for l in need_zero[subclass]):
        raise DimensionError(f"parameters do not match the {subclass} zero pattern")
    base = 2.0 * (1.0 + l0 * l4) / 3.0
    if subclass == "S1":
        return (base, base, base)
    f_a = 2.0 * (1.0 + l4 * _root(l0 ** 2 + l1 ** 2)) / 3.0
    if subclass == "S2":
        return (f_a, base, base)
    f_b = 2.0 * (1.0 + l0 * _root(l2 ** 2 + l4 ** 2)) / 3.0
    if subclass == "S3":
        return (f_a, f_b, base)
    y = (l0 ** 2 * l4 ** 2 + l1 ** 2 * l4 ** 2 + l2 ** 2 * l3 ** 2
         - 4.0 * l1 * l2 * l3 * l4)
    f_a4 = 2.0 * (1.0 + _root(y)) / 3.0
    f_c = 2.0 * (1.0 + l0 * _root(l3 ** 2 + l4 ** 2)) / 3.0
    return (f_a4, f_b, f_c)


# ---------------------------------------------------------------------------
# SPA-PT threshold SLOCC classifier
# ---------------------------------------------------------------------------

class SloccOutcome(Enum):
    """SLOCC-level verdicts from the SPA-PT eigenvalue thresholds, exact for a ket.

    For a mixed state, ``Genuine`` means that all three cuts are NPT: necessary
    for genuine multipartite entanglement, not sufficient.  ``ghz_werner_state(0.79)``
    is ``Genuine``, with lambda = 0.09875 on every cut, yet biseparable (Guhne &
    Seevinck, NJP 12, 053002 (2010)).  ``BiseparableX`` means "consistent with X|rest".
    """

    Genuine = "Genuine"
    BiseparableA_BC = "BiseparableA_BC"
    BiseparableB_AC = "BiseparableB_AC"
    BiseparableC_AB = "BiseparableC_AB"
    FullySeparableConsistent = "FullySeparableConsistent"
    Inconclusive = "Inconclusive"


@dataclass(frozen=True)
class SloccVerdict:
    """Classifier outcome with the three decision eigenvalues.

    ``lambdas`` holds ``lambda_min`` of the SPA-PT over qubits A, B, C.
    ``FullySeparableConsistent`` deliberately does not claim separability:
    the threshold test is necessary only and cannot see bound entanglement.
    """

    outcome: SloccOutcome
    lambdas: tuple


def slocc_classify(rho) -> SloccVerdict:
    """Classify a three-qubit state by its SPA-PT minimum eigenvalues.

    Accepts a :class:`DensityMatrix` or a pure-state amplitude vector.

    Decision order against the 1/10 floor (``SLACK`` slack): all three below
    gives Genuine (for a mixed state, only "all cuts NPT"; see
    :class:`SloccOutcome`); otherwise the first qubit (A, B, C order) at or
    above the floor names the cut X of BiseparableX when another qubit is
    below; all three at or above the floor gives FullySeparableConsistent.

    The SPA-PT ``(1/10) I_8 + (1/5) rho^{T_k}`` has
    ``lambda_min = 1/10 + (1/5) lambda_min(rho^{T_k})``, so no SPA-PT output
    is built.  A mixed state reads the spectra of its three partial transposes
    from its cache (``rho.pt_spectrum_of``), which one stacked solve fills with
    those not cached yet; :func:`~qent.linalg.validate_density` of a lone
    three-qubit matrix has seeded all three, so a validated state is
    classified with no further solve.  A pure state (an amplitude vector,
    or a projector carrying ``rho.ket``) needs no solve.  Cut ``k | rest`` of a ket has
    Schmidt coefficients ``s0, s1``, so ``|psi> = s0|a0>|b0> + s1|a1>|b1>``
    and ``(|psi><psi|)^{T_k}`` acts as ``s0^2`` and ``s1^2`` on
    ``|a0*>|b0>`` and ``|a1*>|b1>``, as ``+-s0 s1`` on
    ``|a0*>|b1> +- |a1*>|b0>`` and as 0 on the four remaining dimensions.
    Its smallest eigenvalue is ``-s0 s1``, with ``s0 s1 = sqrt(det rho_k)``
    taken as the norm of the 2x2 minors of the cut's ``2 x 4`` coefficient
    matrix (Cauchy-Binet), which has no cancellation: a product cut stays
    at 1/10 to rounding and is never claimed.  The solved spectra are the
    test oracle of this closed form.

    Floor budget (:func:`~qent.linalg._floor_eps`): ``I^{T_k} = I``, so a cut
    separable in the nearest state has a value of at least ``1/10 - eps/5``: 0.
    """
    if isinstance(rho, DensityMatrix):
        linalg.THREE_QUBIT.require(rho.dims, "slocc_classify")
        v = rho.ket
    else:
        v = ket(np.ravel(rho), [2, 2, 2])
    if v is None:
        linalg.fill_spectra((rho,), ("pt_spectrum",), (0, 1, 2))
        lam_pt = [rho.pt_spectrum_of(k).eigenvalues.item(0) for k in range(3)]
    else:
        lam_pt = [-s for s in _cut_schmidt_products(v).tolist()]
    lams = tuple(THREE_QUBIT_SHIFT + THREE_QUBIT_SCALE * lam for lam in lam_pt)
    below = [_below(lam, THREE_QUBIT_THRESHOLD) for lam in lams]
    outcome = (SloccOutcome.Genuine if all(below)
               else SloccOutcome.FullySeparableConsistent if not any(below)
               else (SloccOutcome.BiseparableA_BC, SloccOutcome.BiseparableB_AC,
                     SloccOutcome.BiseparableC_AB)[below.index(False)])
    return SloccVerdict(outcome=outcome, lambdas=lams)


@dataclass(frozen=True)
class MixtureReport:
    """Analysis of GHZ/W(/flipped-W) mixtures under the SPA-PT classifier.

    Attributes
    ----------
    q1, q2 : float
        GHZ and W weights (the flipped-W weight is ``1 - q1 - q2``).
    lambdas : tuple of float
        Computed minimum SPA-PT eigenvalues per qubit cut.
    predicted : float
        Closed-form eigenvalue branch for the mixture family.  For the
        two-term mixture this is ``min(Q1, Q2)`` and always equals
        ``min(lambdas)``; for the three-term mixture it is one exact
        branch of the SPA-PT spectrum, never below ``min(lambdas)`` by
        more than ``SLACK``, which coincides with the minimum only on part
        of the ``(q1, q2)`` region: on the grid of step 1/40 (861 points)
        it equals ``min(lambdas)`` to 1e-9 at 352 points, and every other
        point has ``q1 <= 0.45`` (another branch dips below it there, by up
        to 0.094).

        Where it stops: the three cuts share one SPA-PT spectrum, and over
        qubit A it splits into the 2x2 block on {|011>, |100>}, whose
        smaller root is this branch, and the 3x3 blocks on {|000>, |101>,
        |110>} and {|001>, |010>, |111>}.  Each 3x3 block has the
        eigenvalue 1/10 (from |101> - |110>, resp. |001> - |010>) and,
        with ``q3 = 1 - q1 - q2``, the smaller roots
        ``B1 = (6 + 3 q1 + 4 q3 - sqrt((3 q1 - 4 q3)^2 + 32 q2^2))/60`` and
        ``B2 = (6 + 3 q1 + 4 q2 - sqrt((3 q1 - 4 q2)^2 + 32 q3^2))/60``.
        So ``min(lambdas) = min(predicted, B1, B2, 1/10)``: the branch is
        the minimum exactly where ``predicted <= min(B1, B2, 1/10)``, and
        stops being it on the curves ``predicted = B1`` and
        ``predicted = B2`` (and beyond ``predicted = 1/10``).  At
        (0.1, 0.5), for example, ``B1`` = 0.0798 is below the branch's
        0.1195.
    q_forms : tuple of float or None
        The two eigenvalue branches (Q1, Q2) for the two-term GHZ/W mixture.
    regime : str or None
        Tangle-regime label by GHZ weight: W-class for
        ``0.25 <= q1 <= 0.6269``, GHZ-class above, None below.
    verdict : SloccVerdict
        Full classifier output on the mixture.
    """

    q1: float
    q2: float
    lambdas: tuple
    predicted: float
    q_forms: tuple
    regime: str
    verdict: SloccVerdict


def ghz_w_mixture_analysis(q1, q2=None) -> MixtureReport:
    """Analyze ``q1 GHZ + q2 W + (1-q1-q2) W~`` (or the two-term GHZ/W
    mixture when ``q2`` is omitted) under the SPA-PT classifier."""
    two_term = q2 is None
    q2 = 1.0 - q1 if two_term else q2
    # Built first: the mixture checks the weights before any closed form.
    verdict = slocc_classify(ghz_w_wtilde_mixture(q1, q2))
    q1, q2 = float(q1), float(q2)
    if two_term:
        r1 = 1.0 - 2.0 * q1 + 10.0 * q1 ** 2
        r2 = 32.0 - 64.0 * q1 + 41.0 * q1 ** 2
        q_forms = ((4.0 - q1 - _root(r1)) / 30.0,
                   (6.0 + 3.0 * q1 - _root(r2)) / 60.0)
        predicted = min(q_forms)
    else:
        # (q1 + 2 q2 - 1)^2 + 9 q1^2, which rounds below 0 near (0, 1/2).
        rad = (1.0 - 2.0 * q1 + 10.0 * q1 ** 2 - 4.0 * q2 + 4.0 * q1 * q2
               + 4.0 * q2 ** 2)
        q_forms = None
        predicted = (4.0 - q1 - _root(rad)) / 30.0
    if q1 > _W_CLASS_MAX_Q1:
        regime = "GHZ-class"
    elif q1 >= 0.25:
        regime = "W-class"
    else:
        regime = None
    return MixtureReport(q1=q1, q2=q2, lambdas=verdict.lambdas, predicted=predicted,
                         q_forms=q_forms, regime=regime, verdict=verdict)
