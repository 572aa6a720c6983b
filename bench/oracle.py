"""Independent reference values computed with numpy's LAPACK routines.

Nothing here calls qent.  The functions are bound at import, before the
tracer counts calls into ``numpy.linalg``, so oracle work is never counted
as program work.  Each helper mirrors the decision rule of the qent function
it checks, with the same 1e-9 slack, so verdicts can be compared exactly.
"""

from __future__ import annotations

import numpy as np

eigh = np.linalg.eigh
eigvalsh = np.linalg.eigvalsh
svdvals = np.linalg.svd

TOL = 1e-8
# Concurrence takes square roots of eigenvalues that can be exactly 0, where
# a rounding error of 1e-17 becomes 3e-9; it is compared at this looser bound.
SQRT_TOL = 1e-6
SLACK = 1e-9
SLOCC_FLOOR = 0.1


def partial_transpose(mat, dims, sys):
    """Transpose subsystem ``sys`` of a multipartite matrix."""
    n = len(dims)
    t = mat.reshape(list(dims) * 2)
    axes = list(range(2 * n))
    axes[sys], axes[sys + n] = axes[sys + n], axes[sys]
    return t.transpose(axes).reshape(mat.shape)


def reduced_first(mat, d0, d1):
    """Partial trace over the second factor of a bipartite matrix."""
    return np.trace(mat.reshape(d0, d1, d0, d1), axis1=1, axis2=3)


def realigned(mat, d):
    return mat.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def bipartite(mat, dims):
    """Evidence and verdict of every bipartite check and measure.

    Returns a dict keyed by the names qent reports: ``ppt``,
    ``realignment`` and ``reduction`` map to ``(evidence, verdict)``; the
    measures map to a value.
    """
    d0, d1 = dims
    lam_pt = eigvalsh(partial_transpose(mat, dims, 1))
    lam_red = eigvalsh(np.kron(reduced_first(mat, d0, d1), np.eye(d1)) - mat)[0]
    out = {
        "ppt": (lam_pt[0], _verdict(lam_pt[0] < -SLACK)),
        "reduction": (lam_red, _verdict(lam_red < -SLACK)),
        "negativity": (np.sum(np.abs(lam_pt)) - 1.0) / (min(dims) - 1.0),
    }
    if d0 == d1:
        tn_r = float(np.sum(svdvals(realigned(mat, d0), compute_uv=False)))
        tn_pt = float(np.sum(np.abs(lam_pt)))
        out["realignment"] = (tn_r, _verdict(tn_r > 1.0 + SLACK))
        # lambda_min of the SPA-PT state is (d + lambda_min(rho^T_B))/(d^3+1).
        out["structured_negativity"] = d0 * max(-lam_pt[0], 0.0)
        out["concurrence_lb"] = max(0.0, np.sqrt(2.0 / (d0 * (d0 - 1.0)))
                                    * (max(tn_pt, tn_r) - 1.0))
    return out


def _verdict(entangled):
    return "Entangled" if entangled else "Inconclusive"


def slocc(mat):
    """lambda_min of ``0.1 I + 0.2 rho^{T_q}`` per qubit and the verdict."""
    lams = tuple(float(eigvalsh(0.1 * np.eye(8) + 0.2 * partial_transpose(mat, (2, 2, 2), q))[0])
                 for q in range(3))
    below = [lam < SLOCC_FLOOR - SLACK for lam in lams]
    if all(below):
        outcome = "Genuine"
    elif not any(below):
        outcome = "FullySeparableConsistent"
    else:
        outcome = ("BiseparableA_BC", "BiseparableB_AC",
                   "BiseparableC_AB")[below.index(False)]
    return lams, outcome


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))


def correlation_tensors(mat):
    """``T[w][r, c] = Tr(rho s_w (x) s_c (x) s_r)`` for w, r, c over x, y, z."""
    s = np.stack(_PAULI)
    # Tr(rho (A x B x C)) = sum rho[ijk, lmn] A[l, i] B[m, j] C[n, k].
    t = np.einsum("ijklmn,wli,cmj,rnk->wrc", mat.reshape(2, 2, 2, 2, 2, 2), s, s, s)
    return t.real


_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])


def tangle(psi):
    """Three-tangle ``2 |a a a a eps^6|`` of a normalized three-qubit vector
    (Coffman, Kundu, Wootters 2000)."""
    a = (psi / np.linalg.norm(psi)).reshape(2, 2, 2)
    val = np.einsum("ijk,lmn,opq,rst,il,jm,or,ps,kq,nt->", a, a, a, a,
                    _EPS, _EPS, _EPS, _EPS, _EPS, _EPS)
    return 2.0 * abs(val)


def three_pi(psi):
    """Three-pi measure with the residual-negativity definition qent uses."""
    v = psi / np.linalg.norm(psi)
    rho = np.outer(v, v.conj()).reshape(2, 2, 2, 2, 2, 2)
    total = 0.0
    for i in range(3):
        others = [j for j in range(3) if j != i]
        rho_i = np.einsum(_trace_keep([i]), rho)
        n_big = 2.0 * np.sqrt(max(0.0, float(np.linalg.det(rho_i).real)))
        pis = n_big ** 2
        for j in others:
            pair = np.einsum(_trace_keep([i, j]), rho).reshape(4, 4)
            lam = eigvalsh(partial_transpose(pair, (2, 2), 0))
            pis -= ((np.sum(np.abs(lam)) - 1.0) / 2.0) ** 2
        total += pis
    return total / 3.0


def _trace_keep(keep):
    """einsum spec tracing a three-qubit tensor down to the ``keep`` qubits."""
    rows = "abc"
    cols = "def"
    col = "".join(cols[k] if k in keep else rows[k] for k in range(3))
    out = "".join(rows[k] for k in keep) + "".join(cols[k] for k in keep)
    return f"{rows}{col}->{out}"


_YY = np.kron(_PAULI[1], _PAULI[1])


def concurrence_2q(mat):
    """Wootters concurrence from the singular values of ``sqrt(rho) sqrt(rho~)``,
    which are the square roots of the spectrum of ``rho rho~``."""
    lam, vec = eigh(mat)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    s = svdvals(root @ _YY @ root.conj() @ _YY, compute_uv=False)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def top_vector(mat):
    """Eigenvector of the largest eigenvalue (the state vector of a pure state)."""
    return eigh(mat)[1][:, -1]


def l1_coherence(mat):
    return float(np.sum(np.abs(mat)) - np.sum(np.abs(np.diag(mat))))


def close(a, b, tol=TOL):
    return abs(float(a) - float(b)) <= tol
