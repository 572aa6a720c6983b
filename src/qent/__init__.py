"""Entanglement detection, quantification, and classification for
low-dimensional quantum states.

Core objects live in :mod:`qent.linalg` (validated density matrices and a
residual-checked Hermitian eigensolver); positive-map machinery in
:mod:`qent.spa`; detection criteria in :mod:`qent.detect`; measures in
:mod:`qent.measures`; coherence-based separability bounds in
:mod:`qent.coherence`; three-qubit classification in :mod:`qent.classify3`;
named state families in :mod:`qent.states`; the paper's reference tables
and curves, as data, in :mod:`qent.reproduce`.  The ``qent`` console script
(:mod:`qent.cli`) exposes the main workflows.
"""

from .classify3 import (
    CanonicalThreeQubit,
    CorrelationTensor,
    LuInvariants,
    MixtureReport,
    SloccOutcome,
    SloccVerdict,
    SubclassReport,
    canonical_projector,
    classify_ghz_subclass,
    correlation_tensors,
    ghz_w_mixture_analysis,
    ghz_witness_operator,
    ghz_witness_value,
    lu_invariants,
    parametric_subclass,
    slocc_classify,
    subclass_fidelities,
)
from .coherence import (
    Ensemble,
    biseparable_pure_bound,
    classify_by_coherence,
    coherence_product_rule,
    mixed_biseparable_bound,
    separable_bound,
)
from .detect import (
    ConcurrenceBounds,
    Outcome,
    Verdict,
    bounds_LU,
    concurrence_bounds,
    criterion1,
    criterion2,
    criterion3,
    ppt_check,
    realignment_check,
    reduction_check,
    witness_from_pure,
)
from .errors import (
    DensityMatrixError,
    DimensionError,
    EigensolverError,
    HermiticityViolation,
    NegativityViolation,
    NonFiniteEntry,
    NotAWitness,
    NotGHZClass,
    TraceViolation,
)
from .linalg import (
    DensityMatrix,
    Spectrum,
    expectation,
    fill_spectra,
    herm_eigenvalues,
    partial_trace,
    partial_transpose,
    partial_transpose_qubit,
    realign,
    tensor,
    trace_norm,
    validate_density,
)
from .measures import (
    MeasureValue,
    concurrence_2q,
    concurrence_lb_chen,
    concurrence_pure,
    l1_coherence,
    negativity,
    structured_negativity,
    tangle_pure,
    three_pi,
)
from .spa import (
    SpaState,
    SpaWitness,
    spa_pt_d1d2,
    spa_pt_dd,
    spa_pt_qutrit_qubit,
    spa_pt_three_qubit,
    spa_pt_two_qubit,
    spa_witness,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
