"""The pure three-qubit kernels against the constructions they replace.

The cut minors of the SLOCC classifier and of ``three_pi``, the pair
tensors of ``three_pi`` and the hyperdeterminant of ``tangle_pure`` are
kept here in their plain form: three stacked ``2 x 4`` coefficient matrices
with ``triu_indices`` minors, a stack of transposes, and the tangle on numpy
scalars.  The library's kernels must give the same bytes on every ket.
"""

import hashlib

import numpy as np
import pytest

from qent.classify3 import CanonicalThreeQubit, canonical_state, slocc_classify
from qent.linalg import herm_eigenvalues
from qent.measures import _PAIR_TENSORS, tangle_pure, three_pi
from qent.states import (
    _MINOR_FACTORS,
    _cut_schmidt_products,
    ghz_state,
    ket,
    w_state,
    w_tilde_state,
)


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
        out.append(canonical_state(CanonicalThreeQubit(*np.sqrt(rng.dirichlet(np.ones(5))),
                                                       theta=rng.uniform(0.0, np.pi))))
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
