"""Core linear algebra: eigensolver, tensor ops, validation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    loop_partial_transpose,
    loop_realign,
    oracle_jacobi,
    oracle_partial_trace,
    oracle_partial_transpose,
    oracle_realign,
    oracle_tensor,
    random_density,
    random_hermitian,
    random_pure,
)
from qent.classify3 import CorrelationTensor
from qent.errors import (
    DensityMatrixError,
    DimensionError,
    EigensolverError,
    HermiticityViolation,
    NegativityViolation,
    NonFiniteEntry,
    TraceViolation,
)
from qent import linalg
from qent.linalg import (
    EIG_RESIDUAL_TOL,
    IMAG_TOL,
    DensityMatrix,
    Spectrum,
    expectation,
    herm_eigenvalues,
    partial_trace,
    partial_transpose,
    partial_transpose_qubit,
    realign,
    tensor,
    trace_norm,
    validate_density,
)
from qent.spa import SpaWitness


def _oracle_inputs(rng, n):
    """Side-n inputs for the Jacobi cross-check: a random Hermitian matrix
    and degenerate spectra (maximally mixed, a product state and, for square
    n, the partial transpose of an isotropic state)."""
    cases = {"random": random_hermitian(rng, n), "maximally-mixed": np.eye(n) / n}
    dims = next(((p, n // p) for p in range(2, n) if n % p == 0), (n,))
    v = np.ones(1, dtype=complex)
    for d in dims:
        v = np.kron(v, random_pure(rng, d))
    cases["product"] = np.outer(v, v.conj())
    d = int(round(np.sqrt(n)))
    if d * d == n:
        phi = np.eye(d).reshape(-1) / np.sqrt(d)
        iso = 0.6 * np.outer(phi, phi) + 0.4 * np.eye(n) / n
        cases["isotropic-pt"] = partial_transpose(iso, 1, dims=[d, d])
    return cases


class TestEigensolver:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 16])
    def test_matches_jacobi_oracle(self, rng, n):
        for name, h in _oracle_inputs(rng, n).items():
            spec = herm_eigenvalues(h)
            ref = np.sort(oracle_jacobi(h)[0])
            assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-10, name
            bound = EIG_RESIDUAL_TOL * max(1.0, np.max(np.abs(spec.eigenvalues)))
            assert spec.residual <= bound, name

    @pytest.mark.parametrize("shift", [1e-6, np.nan])
    def test_bad_eigenpair_raises(self, rng, monkeypatch, shift):
        eigh = np.linalg.eigh

        def perturbed(m):
            lam, vec = eigh(m)
            lam = lam.copy()
            lam[0] += shift
            return lam, vec

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(EigensolverError):
            herm_eigenvalues(random_hermitian(rng, 4))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_lapack_failure_raises_an_eigensolver_error(self, monkeypatch, stacked):
        # LAPACK's non-convergence on finite input, or on a non-finite entry
        # of a hand-built state, which no input pass has seen.
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        mat = np.eye(4) / 4
        with pytest.raises(EigensolverError, match="did not converge") as err:
            herm_eigenvalues(np.stack([mat, mat]) if stacked else mat)
        assert math.isnan(err.value.magnitude)
        with pytest.raises(EigensolverError):
            validate_density(np.stack([mat, mat]) if stacked else mat, [2, 2])

    def test_matches_2x2_closed_form(self, rng):
        for _ in range(50):
            h = random_hermitian(rng, 2)
            a, d = h[0, 0].real, h[1, 1].real
            s = np.sqrt(((a - d) / 2.0) ** 2 + abs(h[0, 1]) ** 2)
            expected = np.array([(a + d) / 2.0 - s, (a + d) / 2.0 + s])
            got = herm_eigenvalues(h).eigenvalues
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_sum_rules(self, rng):
        for n in range(2, 10):
            h = random_hermitian(rng, n)
            lam = herm_eigenvalues(h).eigenvalues
            assert abs(np.sum(lam) - np.trace(h).real) <= 1e-12 * n
            assert abs(np.sum(lam ** 2) - np.linalg.norm(h) ** 2) <= 1e-10 * n

    def test_matches_lapack(self, rng):
        for n in range(2, 10):
            h = random_hermitian(rng, n)
            got = herm_eigenvalues(h).eigenvalues
            ref = np.linalg.eigvalsh(h)
            assert np.max(np.abs(got - ref)) <= 1e-10

    def test_eigenvector_residual(self, rng):
        spec = herm_eigenvalues(random_hermitian(rng, 8))
        assert spec.residual <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityViolation):
            herm_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_diagonal_spectrum_property(self, seed):
        rng = np.random.default_rng(seed)
        d = np.sort(rng.normal(size=5))
        u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        lam = herm_eigenvalues(u @ np.diag(d) @ u.conj().T).eigenvalues
        assert np.max(np.abs(lam - d)) <= 1e-10


def _perturb_eigh(monkeypatch, which, shift):
    """Make ``np.linalg.eigh`` return, for matrix ``which`` of a stack (0 for
    a lone matrix), its lowest eigenvalue moved by ``shift`` (a residual of
    about ``shift``)."""
    eigh = np.linalg.eigh

    def perturbed(m):
        lam, vec = eigh(m)
        lam = lam.copy()
        lam.reshape(-1, lam.shape[-1])[which, 0] += shift
        return lam, vec

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


class TestStackedSolve:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 16])
    @pytest.mark.parametrize("k", [1, 3])
    def test_stack_equals_a_loop_of_single_solves(self, rng, n, k):
        stack = np.stack([random_hermitian(rng, n) for _ in range(k)])
        spectra = herm_eigenvalues(stack)
        assert isinstance(spectra, tuple) and len(spectra) == k
        for h, spec in zip(stack, spectra):
            one = herm_eigenvalues(h)
            assert np.array_equal(spec.eigenvalues, one.eigenvalues)
            assert np.array_equal(spec.vectors, one.vectors)
            assert spec.residual == one.residual
            assert not spec.eigenvalues.flags.writeable
            assert not spec.vectors.flags.writeable

    def test_a_matrix_is_the_one_element_stack(self, rng):
        h = random_hermitian(rng, 4)
        one = herm_eigenvalues(h)
        assert isinstance(one, Spectrum)
        (first,) = herm_eigenvalues(h[np.newaxis])
        assert np.array_equal(first.eigenvalues, one.eigenvalues)

    @pytest.mark.parametrize("pos", [0, 1, 2])
    @pytest.mark.parametrize("bad,error", [
        (np.nan, NonFiniteEntry), (np.inf, NonFiniteEntry),
        ("non-hermitian", HermiticityViolation)])
    def test_a_bad_matrix_anywhere_in_the_stack_raises(self, rng, pos, bad, error):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(3)])
        if bad == "non-hermitian":
            stack[pos, 0, 1] += 1e-6
        else:
            stack[pos, 2, 2] = bad
        with pytest.raises(error):
            herm_eigenvalues(stack)

    # Matrix 0 has spectral radius 1e6, so its residual bound is 1e-3;
    # matrix 1's is EIG_RESIDUAL_TOL, from its own spectrum.  Diagonal
    # matrices make a moved eigenvalue a residual of exactly the shift.
    _RADII = np.stack([np.diag([1e6, 1.0, 2.0, 3.0]), np.diag([0.1, 0.2, 0.3, 0.4])])

    @pytest.mark.parametrize("shift", [1e-6, 2 * EIG_RESIDUAL_TOL])
    def test_a_large_matrix_does_not_loosen_the_others_bound(self, monkeypatch, shift):
        _perturb_eigh(monkeypatch, 1, shift)
        with pytest.raises(EigensolverError) as err:
            herm_eigenvalues(self._RADII)
        assert err.value.magnitude == pytest.approx(shift)
        # The stack raises the residual its bad matrix raises alone.
        monkeypatch.undo()
        _perturb_eigh(monkeypatch, 0, shift)
        with pytest.raises(EigensolverError) as alone:
            herm_eigenvalues(self._RADII[1])
        assert err.value.magnitude == alone.value.magnitude

    def test_a_large_matrix_keeps_its_own_bound(self, monkeypatch):
        _perturb_eigh(monkeypatch, 0, 1e-6)
        big, small = herm_eigenvalues(self._RADII)
        assert big.residual == pytest.approx(1e-6)
        assert small.residual <= EIG_RESIDUAL_TOL

    def test_lapack_s_own_residual_above_the_tolerance_passes_within_its_bound(self, rng):
        # At spectral radius ~1e8, LAPACK's residual exceeds EIG_RESIDUAL_TOL,
        # so the stack fails the stack-wide gate and passes the per-matrix bounds.
        stack = np.stack([random_hermitian(rng, 8), 1e8 * random_hermitian(rng, 8)])
        small, big = herm_eigenvalues(stack)
        assert big.residual > EIG_RESIDUAL_TOL
        assert small.residual == herm_eigenvalues(stack[0]).residual
        assert big.residual == herm_eigenvalues(stack[1]).residual

    def test_a_stack_within_the_tolerance_skips_the_per_matrix_bounds(self, rng, monkeypatch):
        def refuse(residual, lam):
            raise AssertionError("per-matrix bounds computed")

        monkeypatch.setattr(linalg, "_check_residual", refuse)
        spectra = herm_eigenvalues(np.stack([random_hermitian(rng, 8) for _ in range(3)]))
        assert max(spec.residual for spec in spectra) <= EIG_RESIDUAL_TOL

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 2, 2), (0, 4, 4), (4,)])
    def test_rejects_what_is_not_a_stack_of_square_matrices(self, shape):
        with pytest.raises(DimensionError):
            herm_eigenvalues(np.zeros(shape))


class TestTensorOps:
    def test_tensor_oracle(self, rng):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 2)
        assert np.max(np.abs(tensor(a, b) - oracle_tensor(a, b))) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("sys", [0, 1])
    def test_partial_transpose_oracle(self, rng, dims, sys):
        rho = random_density(rng, dims)
        got = partial_transpose(rho, sys)
        ref = loop_partial_transpose(rho.mat, sys, dims)
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("qubit,sys", [("A", 0), ("B", 1), ("C", 2)])
    def test_partial_transpose_qubit_oracle(self, rng, qubit, sys):
        rho = random_density(rng, (2, 2, 2))
        got = partial_transpose_qubit(rho.mat, qubit)
        full = rho.mat.reshape((2,) * 6)
        ref = full.transpose(*(
            [sys + 3 if k == sys else (sys if k == sys + 3 else k) for k in range(6)]
        )).reshape(8, 8)
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("keep", [[0], [1], [0, 1], [1, 2]])
    def test_partial_trace_oracle(self, rng, keep):
        dims = (2, 2, 2)
        if max(keep) >= len(dims):
            pytest.skip("keep outside dims")
        rho = random_density(rng, dims)
        got = partial_trace(rho, keep).mat
        ref = oracle_partial_trace(rho.mat, keep, dims)
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_partial_transpose_rejects_out_of_range_sys(self, rng, dims):
        rho = random_density(rng, dims)
        for sys in (-1, len(dims)):
            with pytest.raises(DimensionError):
                partial_transpose(rho, sys)

    def test_bare_matrix_dims_must_match(self):
        for op in (lambda: partial_transpose(np.eye(4) / 4.0, 0, dims=[2, 3]),
                   lambda: partial_trace(np.eye(4) / 4.0, [0], dims=[2, 3]),
                   lambda: realign(np.eye(6) / 6.0, dims=[3, 3])):
            with pytest.raises(DimensionError):
                op()

    @pytest.mark.parametrize("qubit", ["D", "AB", 0, None])
    def test_partial_transpose_qubit_rejects_bad_name(self, rng, qubit):
        with pytest.raises(DimensionError):
            partial_transpose_qubit(random_density(rng, (2, 2, 2)), qubit)

    def test_partial_trace_of_product(self, rng):
        a = random_density(rng, (2,)).mat
        b = random_density(rng, (3,)).mat
        rho = validate_density(tensor(a, b), [2, 3])
        assert np.max(np.abs(partial_trace(rho, [0]).mat - a)) <= 1e-12
        assert np.max(np.abs(partial_trace(rho, [1]).mat - b)) <= 1e-12

    def test_realign_rank_one_structure(self, rng):
        # R(|i><j| (x) |k><l|) moves matrix units so that realignment of a
        # product A (x) B has entries A_ij * B_kl at ((i,j),(k,l)).
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        r = realign(tensor(a, b), dims=[2, 2])
        ref = np.outer(a.reshape(-1), b.reshape(-1))
        assert np.max(np.abs(r - ref)) <= 1e-12

    def test_trace_norm_vs_svd(self, rng):
        for _ in range(10):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            assert abs(trace_norm(m) - np.sum(np.linalg.svd(m, compute_uv=False))) <= 1e-9


def _random_matrix(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


_SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestPartialTransposeProperties:
    @pytest.mark.parametrize("dims,sys", [
        (dims, sys) for dims in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]
        for sys in range(len(dims))])
    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS)
    def test_involution_preserving_the_trace(self, dims, sys, seed):
        m = _random_matrix(seed, int(np.prod(dims)))
        pt = partial_transpose(m, sys, dims=list(dims))
        assert np.array_equal(partial_transpose(pt, sys, dims=list(dims)), m)
        assert abs(np.trace(pt) - np.trace(m)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    @settings(max_examples=20, deadline=None)
    @given(seed=_SEEDS)
    def test_first_factor_is_transpose_of_second(self, dims, seed):
        m = _random_matrix(seed, int(np.prod(dims)))
        t0 = partial_transpose(m, 0, dims=list(dims))
        t1 = partial_transpose(m, 1, dims=list(dims))
        assert np.array_equal(t0, t1.T)


class TestRealignProperties:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @settings(max_examples=15, deadline=None)
    @given(seed=_SEEDS)
    def test_matches_the_index_loop_oracle(self, d, seed):
        m = _random_matrix(seed, d * d)
        assert np.array_equal(realign(m, dims=[d, d]), loop_realign(m, d))
        rho = random_density(np.random.default_rng(seed), (d, d))
        assert np.array_equal(realign(rho), loop_realign(rho.mat, d))


# Every dims of one to four parties, each of dimension 1 to 4, with at most
# 16 basis states.
TABLE_DIMS = [dims for n in range(1, 5) for dims in itertools.product(range(1, 5), repeat=n)
              if math.prod(dims) <= 16]


def _same_bytes(got, ref):
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class TestIndexTables:
    @settings(max_examples=10, deadline=None)
    @given(seed=_SEEDS, k=st.integers(min_value=1, max_value=3))
    def test_the_gather_is_the_reshape_kernel_byte_for_byte(self, seed, k):
        rng = np.random.default_rng(seed)
        for dims in TABLE_DIMS:
            n = math.prod(dims)
            stack = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
            for sys in range(len(dims)):
                for m in (stack, stack[0]):
                    assert _same_bytes(partial_transpose(m, sys, list(dims)),
                                       oracle_partial_transpose(m, sys, dims))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(min_value=1, max_value=4), seed=_SEEDS,
           k=st.integers(min_value=1, max_value=3))
    def test_the_realignment_gather_is_the_reshape_kernel_byte_for_byte(self, d, seed, k):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(k, d * d, d * d)) + 1j * rng.normal(size=(k, d * d, d * d))
        for m in (stack, stack[0]):
            assert _same_bytes(realign(m, [d, d]), oracle_realign(m, d))

    def test_a_tuple_of_states_is_mapped_as_the_stack_of_their_matrices(self, rng):
        a, b = random_density(rng, (2, 2, 2)), random_density(rng, (2, 2, 2))
        stack = np.stack([a.mat, b.mat])
        assert _same_bytes(partial_transpose((a, b), 2), partial_transpose(stack, 2, [2, 2, 2]))
        pairs = partial_transpose((a, b, a, a), (0, 2, 2, 1))
        assert _same_bytes(pairs, np.stack([partial_transpose(a, 0), partial_transpose(b, 2),
                                            partial_transpose(a, 2), partial_transpose(a, 1)]))
        alone = partial_transpose((a,) * 3, (2, 1, 0))
        assert _same_bytes(alone, np.stack([partial_transpose(a, k) for k in (2, 1, 0)]))
        c, e = random_density(rng, (3, 3)), random_density(rng, (3, 3))
        assert _same_bytes(realign((c, e)), np.stack([realign(c), realign(e)]))

    def test_a_tuple_of_states_needs_one_dims_and_one_party_each(self, rng):
        a, b = random_density(rng, (2, 2)), random_density(rng, (4,))
        c = random_density(rng, (3, 3))
        for op in (lambda: partial_transpose((a, b), 0),
                   lambda: partial_transpose((a, c), 0),
                   lambda: partial_transpose((a, c), (0, 0)),
                   lambda: realign((a, c)),
                   lambda: partial_transpose((a, a), (0,)),
                   lambda: partial_transpose((a, a), (0, 2)),
                   lambda: partial_transpose((a, a), (0, True)),
                   lambda: partial_transpose(a, (0, 1)),
                   lambda: partial_transpose((a, a.mat), (0, 1)),
                   lambda: realign((a, b))):
            with pytest.raises(DimensionError):
                op()

    def test_a_nested_tuple_is_still_a_bare_matrix(self):
        m = ((1.0, 2.0), (3.0, 4.0))
        assert np.array_equal(partial_transpose(m, 0, [2]), [[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(realign(((2.0,),), [1, 1]), [[2.0]])


class TestOperandCaches:
    def test_a_large_state_leaves_no_table_behind(self, rng):
        # Above OPERAND_CACHE_SIDE each table is built per call: mapping a
        # 9-qubit matrix over each party leaves the cache as it was, while a
        # small map is served from it.
        dims = (2,) * 9
        m = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
        before = linalg._pt_table.cache_info()
        for sys in range(len(dims)):
            assert _same_bytes(partial_transpose(m, sys, list(dims)),
                               oracle_partial_transpose(m, sys, dims))
        assert linalg._pt_table.cache_info() == before
        small = rng.normal(size=(9, 9))
        partial_transpose(small, 0, [3, 3])
        hits = linalg._pt_table.cache_info().hits
        assert _same_bytes(partial_transpose(small, 0, [3, 3]),
                           oracle_partial_transpose(small.astype(complex), 0, (3, 3)))
        assert linalg._pt_table.cache_info().hits == hits + 1

    def test_a_long_stack_leaves_no_table_behind(self, rng):
        # The table of k cuts of N x N matrices is sized as a matrix of side
        # k N, so a stack of 17 two-qubit states (side 68) is built per call.
        states = tuple(random_density(rng, (2, 2)) for _ in range(17))
        before = linalg._pt_table.cache_info()
        stacked = partial_transpose(states, (1,) * 17)
        assert linalg._pt_table.cache_info() == before
        assert all(_same_bytes(m, partial_transpose(rho, 1)) for m, rho in zip(stacked, states))

    def test_every_fixed_operand_follows_the_side_rule(self):
        side = linalg.OPERAND_CACHE_SIDE
        cases = [(linalg._pt_table, ((2, side // 2), (1,)), ((2, side // 2 + 1), (1,))),
                 (linalg._pt_table, ((2, side // 4), (0, 1)), ((2, side // 4 + 1), (0, 1))),
                 (linalg._realign_table, (8,), (9,)),
                 (linalg._eye, (side,), (side + 1,))]
        for builder, kept, built in cases:
            assert builder(*kept) is builder(*kept)
            before = builder.cache_info()
            assert np.array_equal(builder(*built), builder(*built))
            assert builder(*built) is not builder(*built)
            assert builder.cache_info() == before
        assert np.array_equal(linalg._eye(3), np.eye(3))

    def test_the_shapes_are_bounded_by_count(self):
        assert linalg.exact_dims(2, 3) is linalg.exact_dims(2, 3)
        assert linalg.exact_dims(2, 3).fits((2, 3)) and not linalg.exact_dims(2, 3).fits((3, 2))
        for d in range(linalg.OPERAND_CACHE_COUNT + 5):
            linalg.exact_dims(1, d)
        assert linalg.exact_dims.cache_info().currsize == linalg.OPERAND_CACHE_COUNT
        # A float dimension is a key of its own, with its own phrase.
        assert "2.0" in linalg.exact_dims(2.0, 2.0).phrase
        assert "2.0" not in linalg.exact_dims(2, 2).phrase


class TestResidualBound:
    @pytest.mark.parametrize("lam", [[-3.0, 0.5, 2.0], [-0.5, 0.25], [-1.0, 4.0], [0.1, 0.2],
                                     [-2.0], [-1e300, 1e-300]])
    def test_the_bound_is_the_tolerance_times_the_largest_modulus_or_one(self, lam):
        lam = np.array(lam)
        edge = EIG_RESIDUAL_TOL * abs(lam).max(initial=1.0)
        over = np.nextafter(edge, np.inf)
        linalg._check_residual(edge, lam)
        linalg._check_residual(np.array([edge, 0.0]), np.stack([lam, lam]))
        with pytest.raises(EigensolverError) as alone:
            linalg._check_residual(over, lam)
        with pytest.raises(EigensolverError) as stacked:
            linalg._check_residual(np.array([edge, over]), np.stack([lam, lam]))
        assert alone.value.magnitude == stacked.value.magnitude == over

    def test_a_nan_residual_fails(self):
        lam = np.array([-1.0, 1.0])
        with pytest.raises(EigensolverError):
            linalg._check_residual(np.nan, lam)
        with pytest.raises(EigensolverError):
            linalg._check_residual(np.array([0.0, np.nan]), np.stack([lam, lam]))


class TestTraceNorms:
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, k=st.integers(min_value=1, max_value=6),
           n=st.integers(min_value=1, max_value=16))
    def test_a_stacked_norm_is_each_matrix_s_own_sum(self, seed, k, n):
        rng = np.random.default_rng(seed)
        specs = herm_eigenvalues(np.stack([random_hermitian(rng, n) for _ in range(k)]))
        for i in rng.permutation(k):
            own = float(np.sum(np.abs(specs[i].eigenvalues)))
            assert specs[i].trace_norm.hex() == own.hex()
        alone = herm_eigenvalues(specs[0].vectors @ np.diag(specs[0].eigenvalues)
                                 @ specs[0].vectors.conj().T)
        assert alone.trace_norm.hex() == float(np.sum(np.abs(alone.eigenvalues))).hex()

    def test_a_spectrum_built_by_hand_sums_its_own_eigenvalues(self):
        spec = Spectrum(np.array([-0.25, 0.5, 0.75]), 0.0)
        assert spec.trace_norm == 1.5
        assert spec.trace_norm == 1.5


# Records that hold arrays, each built twice from equal values.
ARRAY_RECORDS = {
    "Spectrum": lambda: Spectrum(np.array([0.25, 0.75]), 0.0, np.eye(2)),
    "CorrelationTensor": lambda: CorrelationTensor(*(np.eye(3),) * 3),
    "SpaWitness": lambda: SpaWitness(w_tilde=np.eye(4) / 4, p=1.0, r_bound=0.0),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_a_record_that_holds_arrays_compares_and_hashes_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2


class TestValidation:
    def test_accepts_valid(self, rng):
        rho = random_density(rng, (2, 3))
        assert isinstance(rho, DensityMatrix)
        assert rho.dim == 6

    def test_rejects_bad_trace(self):
        with pytest.raises(TraceViolation):
            validate_density(np.eye(4), [2, 2])

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(HermiticityViolation):
            validate_density(m, [2, 2])

    def test_rejects_negative(self):
        with pytest.raises(NegativityViolation):
            validate_density(np.diag([0.6, 0.6, 0.0, -0.2]), [2, 2])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionError):
            validate_density(np.eye(4) / 4.0, [2, 3])

    @pytest.mark.parametrize("side, dims", [(4, [-2, -2]), (1, [-1, -1]), (4, [-4, -1]),
                                            (4, [4, 1, 0]), (4, [2 ** 62 + 1, 4])])
    def test_rejects_dims_below_one_or_not_multiplying(self, side, dims):
        # The last case multiplies to 4 only in wrapped 64-bit arithmetic.
        m = np.eye(side) / side
        for op in (lambda: validate_density(m, dims),
                   lambda: partial_transpose(m, 0, dims=dims),
                   lambda: partial_trace(m, [0], dims=dims)):
            with pytest.raises(DimensionError):
                op()

    def test_an_inexact_matrix_takes_one_hermiticity_pass(self, rng, monkeypatch):
        passes = []
        herm_dev = linalg._herm_dev

        def counting(m, *axis):
            passes.append(np.shape(m))
            return herm_dev(m, *axis)

        m = random_density(rng, (2, 2, 2)).mat.copy()
        m[0, 1] += 1e-13
        monkeypatch.setattr(linalg, "_herm_dev", counting)
        rho = validate_density(m, [2, 2, 2])
        assert np.array_equal(rho.mat, (m + m.conj().T) / 2)
        # The validation's pass only: its solve takes the exactly Hermitian part unchecked.
        assert passes == [(8, 8)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[1, 1] = bad
        with pytest.raises(NonFiniteEntry):
            validate_density(m, [2, 2])
        with pytest.raises(DensityMatrixError):
            herm_eigenvalues(m)


class TestNonFiniteBeforeHermiticity:
    _BAD = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, np.inf)]

    @staticmethod
    def _spoil(m, bad, where):
        m = m.copy()
        i, j = where
        m[..., i, j] = bad
        if where == (0, 2):
            m[..., j, i] = np.conj(bad)  # the Hermitian partner is spoiled too
        return m

    @pytest.mark.parametrize("where", [(1, 1), (0, 3), (0, 2)])
    @pytest.mark.parametrize("bad", _BAD)
    def test_single_and_stacked_inputs(self, rng, bad, where):
        h = random_hermitian(rng, 4)
        with pytest.raises(NonFiniteEntry):
            herm_eigenvalues(self._spoil(h, bad, where))
        stack = np.stack([h, h, h])
        stack[1] = self._spoil(h, bad, where)
        with pytest.raises(NonFiniteEntry):
            herm_eigenvalues(stack)
        with pytest.raises(NonFiniteEntry):
            trace_norm(self._spoil(h, bad, where))

    @pytest.mark.parametrize("where", [(1, 1), (0, 3), (0, 2)])
    @pytest.mark.parametrize("bad", _BAD)
    def test_validation_raises_it_before_dims_and_hermiticity(self, bad, where):
        m = self._spoil(np.eye(4, dtype=complex) / 4.0, bad, where)
        m[1, 2] += 1e-3  # not Hermitian either
        for dims in ([2, 2], [2, 3]):
            with pytest.raises(NonFiniteEntry):
                validate_density(m, dims)

    def test_finite_input_keeps_the_order_dims_then_hermiticity(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[1, 2] += 1e-3
        with pytest.raises(DimensionError):
            validate_density(m, [2, 3])
        with pytest.raises(HermiticityViolation):
            validate_density(m, [2, 2])


class TestCheckedReal:
    # An array passes on the norm of its imaginary parts when that is within
    # IMAG_TOL / 2 and else reads the largest part: the rule stays the plain
    # check's, the largest |imag| within IMAG_TOL, with NaN failing it.
    @pytest.mark.parametrize("imag", [
        [0.0] * 27,
        [IMAG_TOL / 2] + [0.0] * 26,
        [IMAG_TOL] * 27,
        [-IMAG_TOL] + [0.0] * 26,
        [math.nextafter(IMAG_TOL, 1.0)] + [0.0] * 26,
        [0.0] * 26 + [np.nan],
        [np.inf, np.nan] + [0.0] * 25,
        [1e200] * 27,
        [1e-300] * 27,
    ], ids=["zero", "at-the-gate", "all-at-the-bound", "negative-at-the-bound",
            "one-ulp-above", "nan", "inf-and-nan", "overflowing-squares", "tiny"])
    def test_an_array_keeps_the_rule_of_its_largest_part(self, imag):
        val = np.empty((3, 3, 3), dtype=complex)
        val.real, val.imag = np.arange(27.0).reshape(3, 3, 3), np.reshape(imag, (3, 3, 3))
        worst = float(np.abs(val.imag).max())
        if worst <= IMAG_TOL:
            assert linalg._checked_real(val).tobytes() == val.real.tobytes()
        else:
            with pytest.raises(HermiticityViolation) as info:
                linalg._checked_real(val)
            assert np.float64(info.value.magnitude).tobytes() == np.float64(worst).tobytes()


class TestExpectation:
    def test_rejects_a_non_finite_bare_state(self):
        with pytest.raises(NonFiniteEntry):
            expectation(np.eye(4), np.full((4, 4), np.nan))

    def test_rejects_an_imaginary_part(self):
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        with pytest.raises(HermiticityViolation):
            expectation(sy, np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (2, 2, 2)])
    def test_a_state_operator_has_the_bits_of_its_matrix(self, rng, dims):
        op, rho = random_density(rng, dims), random_density(rng, dims)
        for state in (rho, rho.mat):
            assert expectation(op, state).hex() == expectation(op.mat, state).hex()

    def test_rejects_a_non_finite_bare_operator(self, rng):
        rho = random_density(rng, (2, 2))
        for bad in (np.nan, np.inf):
            op = np.eye(4, dtype=complex)
            op[1, 2] = bad
            with pytest.raises(NonFiniteEntry):
                expectation(op, rho)


class TestIdentity:
    def test_states_compare_and_hash_by_identity(self):
        a = validate_density(np.eye(4) / 4, [2, 2])
        b = validate_density(np.eye(4) / 4, [2, 2])
        assert a != b
        assert a == a
        assert len({a, b, a}) == 2


class TestSpectrumReuse:
    def test_validation_seeds_spectrum(self, rng, solve_sizes):
        mat = random_density(rng, (2, 3)).mat
        solve_sizes.clear()
        rho = validate_density(mat, [2, 3])
        # One call: the state, its partial transpose and rho_A (x) I - rho.
        assert solve_sizes == [6, 6, 6]
        spec = rho.spectrum
        assert solve_sizes == [6, 6, 6]
        assert abs(spec.eigenvalues[0] - np.linalg.eigvalsh(rho.mat)[0]) <= 1e-12

    def test_direct_instance_solves_once(self, solve_sizes):
        rho = DensityMatrix(mat=np.eye(4) / 4.0, dims=(2, 2))
        assert solve_sizes == []
        assert np.max(np.abs(rho.spectrum.eigenvalues - 0.25)) <= 1e-15
        assert rho.spectrum is rho.spectrum
        assert solve_sizes == [4]
