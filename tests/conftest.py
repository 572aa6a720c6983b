"""Shared helpers: seeded random states, index-loop oracles, and a solve
counter."""

import sys

import numpy as np
import pytest

from qent import linalg
from qent.linalg import validate_density


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def random_density(rng, dims):
    n = int(np.prod(dims))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return validate_density(m / np.trace(m).real, list(dims))


def random_pure(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_product_density(rng, dims):
    """Random fully separable state: mixture of product pure states."""
    n = int(np.prod(dims))
    mat = np.zeros((n, n), dtype=complex)
    weights = rng.dirichlet(np.ones(4))
    for w in weights:
        v = np.array([1.0 + 0.0j])
        for d in dims:
            v = np.kron(v, random_pure(rng, d))
        mat += w * np.outer(v, v.conj())
    return validate_density(mat, list(dims))


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Index-loop oracles (deliberately naive)
# ---------------------------------------------------------------------------

def oracle_tensor(a, b):
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(nb):
            for k in range(na):
                for l in range(nb):
                    out[i * nb + j, k * nb + l] = a[i, k] * b[j, l]
    return out


def oracle_partial_transpose(mat, sys, dims):
    d0, d1 = dims
    out = np.zeros_like(mat)
    for i in range(d0):
        for j in range(d1):
            for k in range(d0):
                for l in range(d1):
                    if sys == 0:
                        out[i * d1 + j, k * d1 + l] = mat[k * d1 + j, i * d1 + l]
                    else:
                        out[i * d1 + j, k * d1 + l] = mat[i * d1 + l, k * d1 + j]
    return out


def oracle_spa_pt_two_qubit(mat):
    """Published closed-form two-qubit SPA-PT element map.

    Diagonal ``(2 + e_ii)/9`` and off-diagonals ``e_12*/9, e_13/9, e_23/9,
    e_14/9, e_24/9, e_34*/9`` (1-indexed) at the partially transposed
    positions; the lower triangle is the conjugate of the upper.
    """
    e = mat
    t = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        t[i, i] = (2.0 + e[i, i]) / 9.0
    t[0, 1] = np.conj(e[0, 1]) / 9.0
    t[0, 2] = e[0, 2] / 9.0
    t[0, 3] = e[1, 2] / 9.0
    t[1, 2] = e[0, 3] / 9.0
    t[1, 3] = e[1, 3] / 9.0
    t[2, 3] = np.conj(e[2, 3]) / 9.0
    for i in range(4):
        for j in range(i + 1, 4):
            t[j, i] = np.conj(t[i, j])
    return t


def oracle_partial_trace(mat, keep, dims):
    dims = list(dims)
    n_parties = len(dims)
    keep = list(keep)
    kept = [dims[i] for i in keep]
    nk = int(np.prod(kept))
    out = np.zeros((nk, nk), dtype=complex)
    full = mat.reshape(*(dims + dims))
    import itertools
    for idx in itertools.product(*[range(d) for d in dims]):
        for jdx in itertools.product(*[range(d) for d in dims]):
            if any(idx[t] != jdx[t] for t in range(n_parties) if t not in keep):
                continue
            ri = 0
            rj = 0
            for t in keep:
                ri = ri * dims[t] + idx[t]
                rj = rj * dims[t] + jdx[t]
            out[ri, rj] += full[idx + jdx]
    return out


_PAULIS = (np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]).astype(complex))


def oracle_correlation_tensors(mat):
    """``T[w][r, c] = Tr(rho sigma_w (x) sigma_c (x) sigma_r)`` by 27 Kronecker
    products, returned as a ``(3, 3, 3)`` array indexed ``[w, r, c]``."""
    out = np.zeros((3, 3, 3))
    for w, pw in enumerate(_PAULIS):
        for r, pr in enumerate(_PAULIS):
            for c, pc in enumerate(_PAULIS):
                val = complex(np.trace(np.kron(np.kron(pw, pc), pr) @ mat))
                assert abs(val.imag) <= 1e-8
                out[w, r, c] = val.real
    return out


_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def oracle_jacobi(h):
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Returns ``(eigenvalues, vectors)`` unsorted.  Independent of LAPACK and
    accurate to high relative precision, so it cross-checks the production
    solver.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            row = np.abs(a[p, p + 1:])
            if row.size:
                off = max(off, row.max())
        if off < _JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mod = abs(apq)
                if mod < _JACOBI_OFF_TOL:
                    continue
                phase = apq / mod
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mod)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # Rotation U: U[p,p]=c, U[p,q]=s*phase, U[q,p]=-s*conj(phase),
                # U[q,q]=c; update A <- U^dagger A U and accumulate V <- V U.
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - s * np.conj(phase) * vcol_q
                v[:, q] = s * phase * vcol_p + c * vcol_q
    return np.real(np.diag(a)), v


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


@pytest.fixture
def solve_sizes(monkeypatch):
    """List that records the side of every ``herm_eigenvalues`` call.

    The counter replaces the solver in every qent module that binds it, so
    calls between modules and through ``DensityMatrix.spectrum`` are seen.
    """
    sizes = []
    solve = linalg.herm_eigenvalues

    def counting(h):
        sizes.append(np.shape(h)[0])
        return solve(h)

    for name, module in list(sys.modules.items()):
        if name.startswith("qent") and getattr(module, "herm_eigenvalues", None) is solve:
            monkeypatch.setattr(module, "herm_eigenvalues", counting)
    return sizes
