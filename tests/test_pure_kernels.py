"""The pure three-qubit kernels against the constructions they replace.

The norm and outer product of ``ket`` and ``projector``, the cut minors of
the SLOCC classifier and of ``three_pi``, the pair tensors of ``three_pi``
and the hyperdeterminant of ``tangle_pure`` are kept here in their plain
form: ``numpy.linalg.norm`` and ``numpy.outer``, three stacked ``2 x 4``
coefficient matrices with ``triu_indices`` minors, a stack of transposes,
and the tangle on numpy scalars.  The library's kernels must give the same
bytes on every ket.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qent.classify3 import (
    CanonicalThreeQubit,
    _canonical_amplitudes,
    canonical_projector,
    slocc_classify,
)
from qent.linalg import PARAM_NORM_TOL, herm_eigenvalues
from qent.measures import _PAIR_TENSORS, tangle_pure, three_pi
from qent.states import (
    _MINOR_FACTORS,
    _cut_schmidt_products,
    ghz_state,
    ket,
    projector,
    w_state,
    w_tilde_state,
)


def oracle_ket(psi):
    """``v / numpy.linalg.norm(v)``, after scaling by the largest real or
    imaginary part when the squares overflow or underflow."""
    v = np.asarray(psi, dtype=complex)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        big = max(np.abs(v.real).max(), np.abs(v.imag).max())
        if 1.0 / float(big) == math.inf:  # exactly, as 1 / big overflows
            v, big = v * 2.0 ** 64, big * 2.0 ** 64
        v = v / big
        norm = np.linalg.norm(v)
    return v / norm


def oracle_projector(psi):
    """``(M + M^H)/2`` of ``M = numpy.outer(v, v.conj())`` of :func:`oracle_ket`."""
    v = oracle_ket(psi)
    m = np.outer(v, v.conj())
    return (m + m.conj().T) / 2


def oracle_cut_products(v):
    """``s0 s1`` of the cuts A|BC, B|AC and C|AB, from the ``2 x 4``
    coefficient matrix of each cut and its six ``2 x 2`` minors."""
    t = v.reshape(2, 2, 2)
    m = np.stack([t.reshape(2, 4), t.transpose(1, 0, 2).reshape(2, 4),
                  t.transpose(2, 0, 1).reshape(2, 4)])
    i, j = np.triu_indices(4, 1)
    minors = m[:, 0, i] * m[:, 1, j] - m[:, 0, j] * m[:, 1, i]
    return np.linalg.norm(minors, axis=1)


def oracle_pair_tensors(v):
    """The ket tensor with the pairs AB, AC and BC first, the traced qubit last."""
    t = v.reshape(2, 2, 2)
    return np.stack([t, t.transpose(0, 2, 1), t.transpose(1, 2, 0)])


def oracle_three_pi(psi):
    v = ket(psi, [2, 2, 2])
    pair_tensors = oracle_pair_tensors(v)
    pts = np.einsum("payc,pxbc->pabxy", pair_tensors, pair_tensors.conj())
    n_ab, n_ac, n_bc = ((spec.trace_norm - 1.0) / 2.0
                        for spec in herm_eigenvalues(pts.reshape(3, 4, 4)))
    sq_a, sq_b, sq_c = (4.0 * oracle_cut_products(v) ** 2).tolist()
    pis = (sq_a - n_ab ** 2 - n_ac ** 2,
           sq_b - n_ab ** 2 - n_bc ** 2,
           sq_c - n_ac ** 2 - n_bc ** 2)
    # MeasureValue clamps a rounding-negative value to 0.
    return max(0.0, sum(pis) / 3.0)


def oracle_tangle(psi):
    """``4 |d1 - 2 d2 + 4 d3|`` on the numpy complex scalars of the ket."""
    a, b, c, d, e, f, g, h = ket(psi, [2, 2, 2])
    d1 = a * a * h * h + b * b * g * g + c * c * f * f + d * d * e * e
    d2 = (a * h * d * e + a * h * f * c + a * h * g * b
          + d * e * f * c + d * e * g * b + f * c * g * b)
    d3 = a * d * f * g + b * c * e * h
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def amplitude_vectors(seed, n):
    """Unnormalized three-qubit amplitudes of every kind the kernels see:
    random complex, product, sparse real and canonical-form kets, ``n`` of
    each, then GHZ, W and W~."""
    rng = np.random.default_rng(seed)
    out = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(n)]
    for _ in range(n):
        qubits = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        out.append(np.kron(np.kron(qubits[0], qubits[1]), qubits[2]))
    for _ in range(n):
        v = rng.normal(size=8)
        v[rng.permutation(8)[:rng.integers(1, 8)]] = 0.0
        out.append(v if v.any() else np.eye(8)[rng.integers(8)])
    for _ in range(n):
        out.append(canonical_projector(CanonicalThreeQubit(*np.sqrt(rng.dirichlet(np.ones(5))),
                                                           theta=rng.uniform(0.0, np.pi))).ket)
    return out + [ghz_state(), w_state(), w_tilde_state()]


@pytest.fixture(scope="module")
def vectors():
    return amplitude_vectors(2024, 60)


def test_cut_products_keep_their_bits(vectors):
    for psi in vectors:
        v = ket(psi, [2, 2, 2])
        assert _cut_schmidt_products(v).tobytes() == oracle_cut_products(v).tobytes()


def test_pair_tensors_keep_their_bits(vectors):
    for psi in vectors:
        v = ket(psi, [2, 2, 2])
        assert v[_PAIR_TENSORS].tobytes() == oracle_pair_tensors(v).tobytes()


@pytest.mark.parametrize("table, shape", [(_MINOR_FACTORS, (4, 3, 6)),
                                          (_PAIR_TENSORS, (3, 2, 2, 2))],
                         ids=["minor-factors", "pair-tensors"])
def test_index_tables_are_read_only(table, shape):
    assert table.shape == shape
    assert not table.flags.writeable


def test_three_pi_keeps_its_bits(vectors):
    for psi in vectors:
        assert np.float64(three_pi(psi).value).tobytes() == \
            np.float64(oracle_three_pi(psi)).tobytes()


def test_tangle_keeps_its_bits(vectors):
    for psi in vectors:
        assert np.float64(tangle_pure(psi).value).tobytes() == \
            np.float64(oracle_tangle(psi)).tobytes()


# sha256 over the float.hex of every SLOCC lambda, tangle and three_pi value,
# and the SLOCC outcome, of amplitude_vectors(555, 80) in order.
_PURE_PATH_SHA256 = "1470ca81a25cfc0db2b2a13d13da3b53319f5f3a5ed2e7d2a0c8304ef096ad48"


def test_pure_three_qubit_path_is_pinned():
    digest = hashlib.sha256()
    for psi in amplitude_vectors(555, 80):
        verdict = slocc_classify(psi)
        values = (*verdict.lambdas, tangle_pure(psi).value, three_pi(psi).value)
        digest.update(" ".join([verdict.outcome.name, *map(float.hex, values)]).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == _PURE_PATH_SHA256


def hexes(a):
    """``float.hex`` of every real and imaginary part of ``a``."""
    a = np.asarray(a)
    return [*map(float.hex, a.real.ravel().tolist()), *map(float.hex, a.imag.ravel().tolist())]


_PART = st.floats(-1.0, 1.0)
# 1e200 and 1e155 overflow the squares of the norm, 1e-200 underflows them.
_SCALE = st.sampled_from([1.0, 1e200, 1e155, 1e-200, 1e-160])


@st.composite
def _amplitudes(draw):
    """Raw amplitudes of 4, 8 or 9 entries, with their dims, at a scale that
    may send ``ket`` down its slow path, as a contiguous, strided or
    reversed-stride array."""
    dims = draw(st.sampled_from([[2, 2], [2, 2, 2], [3, 3]]))
    n = math.prod(dims)
    parts = draw(st.lists(_PART, min_size=2 * n, max_size=2 * n))
    v = draw(_SCALE) * (np.array(parts[:n]) + 1j * np.array(parts[n:]))
    assume(v.any())
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed"]))
    if layout == "strided":
        v = np.repeat(v, 2)[::2]
    elif layout == "reversed":
        v = v[::-1].copy()[::-1]
    return v, dims


@settings(max_examples=300, deadline=None)
@given(_amplitudes())
def test_ket_and_projector_match_their_plain_forms(case):
    psi, dims = case
    assert hexes(ket(psi, dims)) == hexes(oracle_ket(psi))
    rho = projector(psi, dims)
    assert hexes(rho.mat) == hexes(oracle_projector(psi))
    assert hexes(rho.ket) == hexes(oracle_ket(psi))


@st.composite
def _off_norm_params(draw):
    """Canonical parameters whose squared norm is off 1 by up to
    ``PARAM_NORM_TOL``, with or without a phase."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    assume(sum(weights) > 0.01)
    off = draw(st.floats(-PARAM_NORM_TOL, PARAM_NORM_TOL)) * 0.999
    scale = math.sqrt(1.0 + off) / math.sqrt(sum(w * w for w in weights))
    theta = draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi)))
    return CanonicalThreeQubit(*(w * scale for w in weights), theta=theta)


@settings(max_examples=300, deadline=None)
@given(_off_norm_params())
def test_canonical_projector_matches_the_plain_forms(params):
    rho = canonical_projector(params)
    raw = _canonical_amplitudes(params)
    assert hexes(rho.mat) == hexes(oracle_projector(raw))
    assert hexes(rho.ket) == hexes(oracle_ket(raw))


@pytest.mark.parametrize("psi, plain", [
    ([1e200, 1e200, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0]),
    (1e-200 * np.array([1, 1j, 0, 0, 0, 0, 0, 1]), [1, 1j, 0, 0, 0, 0, 0, 1]),
    # 1 / 5e-324 overflows, so a complex division by the largest part cannot scale.
    (np.array([5e-324, 0, 0, 0, 0, 0, 0, 5e-324j]), [1, 0, 0, 0, 0, 0, 0, 1j]),
], ids=["squares-overflow", "squares-underflow", "subnormal"])
def test_extreme_amplitudes_give_the_normalized_kets_results(psi, plain):
    # The pytest configuration turns a RuntimeWarning into an error, so a
    # norm whose squares overflow outside ket's errstate guard fails here.
    assert ket(psi, [2, 2, 2]).tobytes() == ket(plain, [2, 2, 2]).tobytes()
    got, want = slocc_classify(psi), slocc_classify(plain)
    assert got.outcome is want.outcome
    assert list(map(float.hex, got.lambdas)) == list(map(float.hex, want.lambdas))
    for measure in (tangle_pure, three_pi):
        assert float.hex(measure(psi).value) == float.hex(measure(plain).value)
