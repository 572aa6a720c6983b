"""Coherence-based separability bounds for multipartite states.

The l1-norm of coherence obeys an exact product rule under tensor products;
from it follow necessary conditions (upper bounds on the global coherence)
for biseparable and fully separable states.  The bounds quantify over
ensemble decompositions, which cannot be computed from a density matrix
alone, so every bound here takes an explicit caller-supplied
:class:`Ensemble`.  A ``ConditionViolated`` verdict therefore means
"violated for the supplied decomposition"; concluding genuine entanglement
from such violations mirrors the usage of the source criteria and carries
the same logical caveat.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detect import _CONDITION, Outcome, Verdict, _decide
from .errors import DimensionError
from .linalg import TRACE_TOL, DensityMatrix
from .measures import l1_coherence

_CUTS = ("A-BC", "B-AC", "C-AB")


@dataclass(frozen=True)
class Ensemble:
    """A weighted decomposition into (bi)product terms.

    Attributes
    ----------
    weights : tuple of float
        Probabilities: nonnegative, summing to 1 within ``TRACE_TOL``.
    parts : tuple of tuple of DensityMatrix
        For each weight, the factor states of that term (e.g. a single-party
        state and the state of the complementary pair).
    labels : tuple of str
        Partition label per term: one of ``"A-BC"``, ``"B-AC"``, ``"C-AB"``
        or ``"product"`` (one factor per party).
    """

    weights: tuple
    parts: tuple
    labels: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        # Written so that a NaN weight fails the check.
        if not (all(x >= 0.0 for x in w) and abs(sum(w) - 1.0) <= TRACE_TOL):
            raise DimensionError(f"ensemble weights must be nonnegative and sum to 1, got {w}")
        if not (len(w) == len(self.parts) == len(self.labels)):
            raise DimensionError("weights, parts, and labels must align")
        for lab in self.labels:
            if lab not in _CUTS + ("product",):
                raise DimensionError(f"unknown partition label {lab!r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "parts", tuple(tuple(p) for p in self.parts))
        object.__setattr__(self, "labels", tuple(self.labels))


def _coh(state):
    return l1_coherence(state).value


def coherence_product_rule(rho1, rho2):
    """l1 coherence of a tensor product: ``C1 + C2 + C1*C2`` (exact)."""
    c1, c2 = _coh(rho1), _coh(rho2)
    return c1 + c2 + c1 * c2


def _term_x(factors):
    """X value of one biseparable term: sum of its factor coherences."""
    return sum(_coh(f) for f in factors)


def biseparable_pure_bound(e: Ensemble, rho: DensityMatrix) -> Verdict:
    """Single-cut biseparability bound.

    For a state biseparable across one fixed cut with decomposition
    ``{p_i, sigma_i}``: ``C(rho) <= sum_i p_i (X_i^2/4 + X_i)`` with
    ``X_i`` the summed factor coherences.  Evidence is ``RHS - LHS``.
    """
    cuts = set(e.labels)
    if len(cuts) != 1 or "product" in cuts:
        raise DimensionError("biseparable_pure_bound needs one common cut label")
    lhs = _coh(rho)
    rhs = sum(p * (x ** 2 / 4.0 + x) for p, x in zip(e.weights, map(_term_x, e.parts)))
    return _decide("bisep_pure_bound", rhs - lhs, -lhs, -rhs, outcomes=_CONDITION)


def mixed_biseparable_bound(e: Ensemble, rho: DensityMatrix) -> Verdict:
    """General biseparability bound across mixed cuts.

    ``1 + C(rho) <= (1/4) sum_i p_i (X_i + 2)^2``.  Violation means the
    state is not biseparable with the supplied decomposition family.
    """
    if "product" in e.labels:
        raise DimensionError("mixed_biseparable_bound takes cut-labeled terms only")
    lhs = 1.0 + _coh(rho)
    rhs = 0.25 * sum(p * (_term_x(fs) + 2.0) ** 2
                     for p, fs in zip(e.weights, e.parts))
    return _decide("mixed_bisep_bound", rhs - lhs, -lhs, -rhs, outcomes=_CONDITION)


def separable_bound(e: Ensemble, rho: DensityMatrix) -> Verdict:
    """Full-separability bound.

    For ``rho = sum_i p_i prod_x sigma_i^x`` the product rule gives
    ``C(rho) <= sum_i p_i [prod_x (1 + C(sigma_i^x)) - 1]``, i.e. the sum of
    all elementary symmetric combinations of the factor coherences (the
    printed three- and four-party expansions).
    """
    if any(lab != "product" for lab in e.labels):
        raise DimensionError("separable_bound needs fully-product terms")
    lhs = _coh(rho)
    rhs = 0.0
    for p, fs in zip(e.weights, e.parts):
        prod = 1.0
        for f in fs:
            prod *= 1.0 + _coh(f)
        rhs += p * (prod - 1.0)
    return _decide("separable_bound", rhs - lhs, -lhs, -rhs, outcomes=_CONDITION)


def classify_by_coherence(rho: DensityMatrix, ensembles) -> Verdict:
    """Combine coherence bounds over candidate decompositions.

    Runs the appropriate bound for each supplied ensemble.  Reports
    ``Entangled`` (genuine, in the three-qubit setting) only when *every*
    candidate bound is violated; otherwise reports ``ConditionSatisfied``
    with the evidence of the first bound that passed.
    """
    ensembles = list(ensembles)
    if not ensembles:
        raise DimensionError("need at least one candidate decomposition")
    margins = []
    for e in ensembles:
        if all(lab == "product" for lab in e.labels):
            v = separable_bound(e, rho)
        elif len(set(e.labels)) == 1:
            v = biseparable_pure_bound(e, rho)
        else:
            v = mixed_biseparable_bound(e, rho)
        if v.outcome is Outcome.ConditionSatisfied:
            return Verdict(outcome=Outcome.ConditionSatisfied, evidence=v.evidence,
                           criterion=f"coherence:{v.criterion}")
        margins.append(v.evidence)
    return Verdict(outcome=Outcome.Entangled, evidence=float(max(margins)),
                   criterion="coherence:all_bounds_violated")
