"""Stacks of states: ``validate_density``, ``partial_transpose``, ``realign``,
``trace_norm`` and ``spa_witness`` take a stack ``(k, n, n)`` as well as one
matrix, and ``fill_spectra`` fills the cached spectra of a tuple of states
with one gather and one stacked solve per map, over any parties.  Every
state of a stack must carry the bits of the same matrix validated and solved
on its own, and a stack with one bad matrix must fail as that matrix fails
alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qent import linalg
from qent.classify3 import slocc_classify
from qent.detect import witness_from_pure
from qent.errors import (
    DimensionError,
    HermiticityViolation,
    NegativityViolation,
    NonFiniteEntry,
    NotAWitness,
    TraceViolation,
)
from qent.linalg import (
    DensityMatrix,
    fill_spectra,
    herm_eigenvalues,
    partial_transpose,
    realign,
    trace_norm,
    validate_density,
)
from qent.measures import concurrence_lb_chen, negativity, structured_negativity
from qent.reproduce import TABLES
from qent.spa import spa_pt_qutrit_qubit, spa_witness
from qent.states import (
    mems_state,
    qutrit_qubit_alpha_state,
    two_qutrit_a_state,
    two_qutrit_alpha_state,
    werner_state,
)

_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]


def _swap(mat, d):
    """``S mat S`` for the swap ``S`` of a ``[d, d]`` matrix."""
    return mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def _random_state_matrix(rng, dims, hermitian_realignment):
    """A random density matrix of random rank.  With
    ``hermitian_realignment`` (square dims only) it is ``(s + S s* S)/2``,
    whose realigned matrix is Hermitian, so ``trace_norm`` takes its
    eigensolver branch rather than the SVD."""
    n = int(np.prod(dims))
    rank = int(rng.integers(1, n + 1))
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = a @ a.conj().T
    m /= np.trace(m).real
    if hermitian_realignment:
        m = (m + _swap(m.conj(), dims[0])) / 2
    return m


def _stack(seed, k, dims):
    rng = np.random.default_rng(seed)
    square = dims[0] == dims[1]
    return np.stack([_random_state_matrix(rng, dims, square and bool(rng.integers(2)))
                     for _ in range(k)])


def _measures(rho):
    """The measures defined on ``rho``'s dims, as floats."""
    values = [negativity(rho).value]
    if linalg.PROPER_SQUARE.fits(rho.dims):
        values += [structured_negativity(rho).value, concurrence_lb_chen(rho).value]
    return values


def _same_spectrum(a, b):
    return (np.array_equal(a.eigenvalues, b.eigenvalues)
            and np.array_equal(a.vectors, b.vectors) and a.residual == b.residual)


class TestStackEqualsLoop:
    @pytest.mark.parametrize("dims", _DIMS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           k=st.integers(min_value=1, max_value=6))
    def test_every_state_of_a_stack_has_the_bits_of_its_own_validation(self, dims, seed, k):
        stack = _stack(seed, k, dims)
        states = validate_density(stack, list(dims))
        assert isinstance(states, tuple) and len(states) == k
        names = ("pt_spectrum", "realign_norm") if dims[0] == dims[1] else ("pt_spectrum",)
        fill_spectra(states, names)
        for m, rho in zip(stack, states):
            one = validate_density(m, list(dims))
            assert isinstance(rho, DensityMatrix) and rho.dims == one.dims
            assert np.array_equal(rho.mat, one.mat)
            assert _same_spectrum(rho.spectrum, one.spectrum)
            assert _same_spectrum(rho.pt_spectrum, one.pt_spectrum)
            if dims[0] == dims[1]:
                assert rho.realign_norm == one.realign_norm
            assert _measures(rho) == _measures(one)

    @pytest.mark.parametrize("dims", _DIMS)
    def test_the_maps_of_a_stack_are_the_maps_of_its_matrices(self, rng, dims):
        stack = _stack(int(rng.integers(2 ** 32)), 4, dims)
        for sys in (0, 1):
            pts = partial_transpose(stack, sys, list(dims))
            assert pts.shape == stack.shape
            for m, pt in zip(stack, pts):
                assert np.array_equal(pt, partial_transpose(m, sys, list(dims)))
        if dims[0] == dims[1]:
            rs = realign(stack, list(dims))
            assert np.array_equal(rs, [realign(m, list(dims)) for m in stack])
            norms = trace_norm(rs)
            assert norms.shape == (4,)
            assert norms.tolist() == [trace_norm(r) for r in rs]

    def test_a_matrix_is_the_one_element_case(self, eigh_shapes):
        m = _stack(7, 1, (3, 3))
        (first,) = validate_density(m, [3, 3])
        one = validate_density(m[0], [3, 3])
        assert isinstance(one, DensityMatrix)
        assert _same_spectrum(first.spectrum, one.spectrum)
        eigh_shapes.clear()
        one.pt_spectrum
        one.realign_norm
        # A single state is solved as a matrix, not as a stack of one.
        assert all(len(shape) == 2 for shape in eigh_shapes)

    def test_fill_spectra_keeps_what_is_cached(self):
        states = validate_density(_stack(3, 3, (2, 2)), [2, 2])
        cached = states[1].pt_spectrum
        fill_spectra(states, ("pt_spectrum",))
        assert states[1].pt_spectrum is cached
        assert _same_spectrum(states[0].pt_spectrum,
                              validate_density(states[0].mat, [2, 2]).pt_spectrum)
        norm = states[2].realign_norm
        fill_spectra(states, ("realign_norm",))
        assert states[2].realign_norm is norm
        assert states[0].realign_norm == validate_density(states[0].mat, [2, 2]).realign_norm

    def test_fill_spectra_needs_one_dims_for_the_stack(self):
        a = validate_density(_stack(1, 1, (2, 2))[0], [2, 2])
        b = validate_density(_stack(2, 1, (2, 2))[0], [4])
        with pytest.raises(DimensionError):
            fill_spectra((a, b), ("pt_spectrum",))

    @pytest.mark.parametrize("name,dims", [("pt_spectrum", [4]), ("realign_norm", [2, 3])])
    def test_fill_spectra_keeps_each_maps_shape_rule(self, name, dims):
        n = int(np.prod(dims))
        rho = validate_density(np.eye(n) / n, dims)
        with pytest.raises(DimensionError):
            fill_spectra((rho, rho), (name,))
        with pytest.raises(DimensionError):
            getattr(rho, name)

    @pytest.mark.parametrize("lone", [False, True], ids=["no states", "one state"])
    def test_fill_spectra_refuses_a_name_it_cannot_fill(self, eigh_shapes, lone):
        rho = validate_density(np.eye(4) / 4, [2, 2])
        states = (rho,) if lone else ()
        with pytest.raises(DimensionError, match="'pt_spectra'"):
            fill_spectra(states, ("pt_spectrum", "pt_spectra"))
        assert eigh_shapes == [(4, 4)]  # the validation's solve, nothing filled
        assert not rho._pt_spectra and "realign_norm" not in vars(rho)

    def test_fill_spectra_of_no_states_fills_nothing(self, eigh_shapes, svd_shapes):
        fill_spectra(())
        fill_spectra((), ("pt_spectrum",), (0, 1, 2))
        assert eigh_shapes == [] and svd_shapes == []

    def test_fill_spectra_takes_names_and_parties_as_any_sequence(self):
        states = validate_density(_stack(3, 2, (2, 2)), [2, 2])
        fill_spectra(states, ["pt_spectrum", "realign_norm"], range(2))
        assert all(rho._pt_spectra and "realign_norm" in vars(rho) for rho in states)
        # A list of states too, though realign takes only a tuple as a stack of states.
        listed = list(validate_density(_stack(3, 2, (2, 2)), [2, 2]))
        fill_spectra(listed, ("realign_norm",))
        assert [rho.realign_norm for rho in listed] == [rho.realign_norm for rho in states]


def _bits(spec):
    return spec.eigenvalues.tobytes(), spec.vectors.tobytes(), float(spec.residual).hex()


def _three_qubit_stack(seed, k):
    rng = np.random.default_rng(seed)
    return np.stack([_random_state_matrix(rng, (2, 2, 2), False) for _ in range(k)])


class TestThreeQubitCuts:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           k=st.integers(min_value=1, max_value=5))
    def test_every_cut_of_a_stack_has_the_bits_of_its_own_solve(self, seed, k):
        stack = _three_qubit_stack(seed, k)
        classified = validate_density(stack, [2, 2, 2])
        filled = validate_density(stack, [2, 2, 2])
        for rho in classified:
            slocc_classify(rho)  # one (3, 8, 8) solve per state
        fill_spectra(filled, ("pt_spectrum",), (0, 1, 2))  # one (3k, 8, 8) solve
        for a, b in zip(classified, filled):
            for party in range(3):
                alone = herm_eigenvalues(partial_transpose(a.mat, party, [2, 2, 2]))
                assert _bits(a.pt_spectrum_of(party)) == _bits(alone)
                assert _bits(b.pt_spectrum_of(party)) == _bits(alone)

    def test_the_missing_cuts_of_a_tuple_are_solved_in_one_call(self, eigh_shapes):
        states = validate_density(_three_qubit_stack(5, 4), [2, 2, 2])
        eigh_shapes.clear()
        fill_spectra(states, ("pt_spectrum",), (0, 1, 2))
        assert eigh_shapes == [(12, 8, 8)]
        fill_spectra(states, ("pt_spectrum",), (2, 1, 0))
        assert eigh_shapes == [(12, 8, 8)]
        states = validate_density(_three_qubit_stack(6, 3), [2, 2, 2])
        cached = states[1].pt_spectrum_of(2)
        eigh_shapes.clear()
        fill_spectra(states, ("pt_spectrum",), (0, 1, 2))
        assert eigh_shapes == [(8, 8, 8)]
        assert states[1].pt_spectrum_of(2) is cached

    def test_a_fill_gathers_and_solves_exactly_the_missing_pairs(self, monkeypatch, eigh_shapes):
        states = validate_density(_three_qubit_stack(12, 3), [2, 2, 2])
        a, b, c = states
        cached = [a.pt_spectrum_of(1), c.pt_spectrum_of(0), c.pt_spectrum_of(2)]
        gathers = []
        gather = linalg.partial_transpose

        def counting(rho, sys, dims=None):
            gathers.append((rho, sys))
            return gather(rho, sys, dims)

        monkeypatch.setattr(linalg, "partial_transpose", counting)
        eigh_shapes.clear()
        fill_spectra(states, ("pt_spectrum",), (0, 1, 2))
        # Party-major, each state once per party it misses.
        assert gathers == [((a, b, b, c, a, b), (0, 0, 1, 1, 2, 2))]
        assert eigh_shapes == [(6, 8, 8)]
        assert [a.pt_spectrum_of(1), c.pt_spectrum_of(0), c.pt_spectrum_of(2)] == cached
        # One state's three cuts are one gather from its own matrix.
        (rho,) = validate_density(_three_qubit_stack(13, 1), [2, 2, 2])
        gathers.clear()
        eigh_shapes.clear()
        slocc_classify(rho)
        assert gathers == [((rho, rho, rho), (0, 1, 2))]
        assert eigh_shapes == [(3, 8, 8)]

    def test_a_fill_does_not_scan_validated_states_again(self, monkeypatch):
        states = two_qutrit_alpha_state(np.array([4.0 + i / 10.0 for i in range(5)]))
        lone = two_qutrit_alpha_state(4.5)
        scans = []
        finite = linalg._finite

        def counting(a, what):
            scans.append(np.shape(a))
            return finite(a, what)

        monkeypatch.setattr(linalg, "_finite", counting)
        fill_spectra(states)
        fill_spectra((lone,))
        assert scans == []
        assert states[0].realign_norm > 1.0 and lone.pt_spectrum is lone.pt_spectrum

    def test_a_lone_missing_cut_is_solved_as_a_matrix(self, eigh_shapes):
        states = validate_density(_three_qubit_stack(8, 2), [2, 2, 2])
        fill_spectra(states, ("pt_spectrum",), (0, 2))
        states[1].pt_spectrum_of(1)
        eigh_shapes.clear()
        fill_spectra(states, ("pt_spectrum",), (0, 1, 2))
        assert eigh_shapes == [(8, 8)]
        alone = herm_eigenvalues(partial_transpose(states[0].mat, 1, [2, 2, 2]))
        assert _bits(states[0].pt_spectrum_of(1)) == _bits(alone)

    def test_both_parties_of_a_bipartite_state_share_one_entry(self, eigh_shapes):
        (rho,) = validate_density(_stack(9, 1, (2, 3)), [2, 3])
        eigh_shapes.clear()
        fill_spectra((rho,), ("pt_spectrum",), (0, 1))
        assert rho.pt_spectrum_of(0) is rho.pt_spectrum_of(1) is rho.pt_spectrum
        assert eigh_shapes == [(6, 6)]

    def test_party_0_of_a_bipartite_state_reads_conjugate_vectors(self):
        (rho,) = validate_density(_stack(11, 1, (2, 3)), [2, 3])
        assert np.iscomplexobj(rho.mat) and np.abs(rho.mat.imag).max() > 0.01
        spec = rho.pt_spectrum_of(0)
        assert spec is rho.pt_spectrum_of(1)
        # rho^{T_A} is the transpose of rho^{T_B}, so its eigenvectors are
        # the conjugates of the shared entry's, with the same eigenvalues.
        pt_a = partial_transpose(rho, 0)
        conj = spec.vectors.conj()
        residual = abs(pt_a @ conj - conj * spec.eigenvalues).max()
        assert residual <= linalg.EIG_RESIDUAL_TOL * max(1.0, abs(spec.eigenvalues).max())
        # The vectors themselves are not rho^{T_A}'s.
        assert abs(pt_a @ spec.vectors - spec.vectors * spec.eigenvalues).max() > 1e-3

    @pytest.mark.parametrize("party", [3, -1, 1.5, True])
    def test_a_party_outside_the_state_is_refused(self, party):
        rho = validate_density(np.eye(8) / 8, [2, 2, 2])
        with pytest.raises(DimensionError):
            fill_spectra((rho,), ("pt_spectrum",), (party,))
        # Refused with every cut cached too: True == 1 must not read party 1.
        fill_spectra((rho,), ("pt_spectrum",), (0, 1, 2))
        with pytest.raises(DimensionError):
            rho.pt_spectrum_of(party)

    def test_a_whole_number_party_reads_its_entry(self):
        rho = validate_density(np.eye(8) / 8, [2, 2, 2])
        assert rho.pt_spectrum_of(np.int64(2)) is rho.pt_spectrum_of(2)
        assert rho.pt_spectrum_of(1.0) is rho.pt_spectrum_of(1)


def _spoiled(m, defects):
    """``m`` with each named defect applied, in a fixed order."""
    m = m.copy()
    if "negative" in defects:
        m = np.diag([1.25, -0.25] + [0.0] * (len(m) - 2)).astype(complex)
    if "off-trace" in defects:
        m = m * 1.01
    if "non-hermitian" in defects:
        m[0, 1] += 1e-6
    if "nan" in defects:
        m[1, 1] = np.nan
    return m


_DEFECTS = [("nan",), ("non-hermitian",), ("off-trace",), ("negative",),
            ("nan", "non-hermitian"), ("non-hermitian", "off-trace"),
            ("off-trace", "negative"), ("nan", "off-trace", "negative")]


class TestOneBadMatrix:
    @pytest.mark.parametrize("defects", _DEFECTS, ids="+".join)
    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_a_stack_fails_as_its_bad_matrix_fails_alone(self, defects, pos):
        stack = _stack(11, 5, (2, 3))
        stack[pos] = _spoiled(stack[pos], defects)
        with pytest.raises((NonFiniteEntry, HermiticityViolation, TraceViolation,
                            NegativityViolation)) as alone:
            validate_density(stack[pos], [2, 3])
        with pytest.raises(type(alone.value)) as stacked:
            validate_density(stack, [2, 3])
        assert type(stacked.value) is type(alone.value)
        assert stacked.value.magnitude == alone.value.magnitude

    def test_an_exactly_hermitian_matrix_keeps_its_bits_beside_an_inexact_one(self):
        # Off-diagonal entries whose sum overflows: halving the sum would
        # turn them infinite, which the matrix alone never meets.
        huge = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        huge[0, 1] = huge[1, 0] = 1e308
        inexact = np.eye(4, dtype=complex) / 4
        inexact[0, 1] = 1e-12j
        with pytest.raises(NegativityViolation) as alone:
            validate_density(huge, [2, 2])
        with pytest.raises(NegativityViolation) as stacked:
            validate_density(np.stack([inexact, huge]), [2, 2])
        assert stacked.value.magnitude == alone.value.magnitude
        first, second = validate_density(np.stack([inexact, np.eye(4) / 4]), [2, 2])
        assert np.array_equal(first.mat, validate_density(inexact, [2, 2]).mat)
        assert np.array_equal(second.mat, np.eye(4) / 4)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 4, 4), (2, 2, 4, 4)])
    def test_rejects_what_is_not_a_stack_of_square_matrices(self, shape):
        with pytest.raises(DimensionError):
            validate_density(np.zeros(shape), [2, 2])

    def test_dims_must_fit_the_side_of_the_stack(self):
        with pytest.raises(DimensionError):
            validate_density(np.stack([np.eye(4) / 4] * 2), [2, 3])


def _witnesses(seed, k):
    """``k`` witnesses ``(|psi><psi|)^{T_B}`` of random entangled 2 x 3 kets,
    every other one scaled by 3 so that it is normalized first."""
    rng = np.random.default_rng(seed)
    ws = []
    for i in range(k):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        ws.append(witness_from_pure(psi, 1, [2, 3]) * (3.0 if i % 2 else 1.0))
    return np.stack(ws)


def _weak_witness(rng):
    """The witness of a 2 x 3 ket a little away from a product: its smallest
    eigenvalue is negative but small, so it stays a witness at ``p = 0.9``."""
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)) + 0.002 * rng.normal(size=6)
    return witness_from_pure(psi, 1, [2, 3])


def _witness_bits(sw):
    return sw.w_tilde.tobytes(), float(sw.p).hex(), float(sw.r_bound).hex(), type(sw.r_bound)


class TestWitnessStacks:
    @pytest.mark.parametrize("p", [None, 0.25])
    def test_every_witness_of_a_stack_has_the_bits_of_its_own(self, eigh_shapes, p):
        ws = _witnesses(21, 5)
        stacked = spa_witness(ws, 2, 3, p=p)
        assert eigh_shapes == [(5, 6, 6)]
        assert isinstance(stacked, tuple) and len(stacked) == 5
        for w, sw in zip(ws, stacked):
            assert _witness_bits(sw) == _witness_bits(spa_witness(w, 2, 3, p=p))

    def test_a_lone_witness_is_solved_as_a_matrix(self, eigh_shapes):
        sw = spa_witness(_witnesses(22, 1)[0], 2, 3)
        assert eigh_shapes == [(6, 6)]
        assert not isinstance(sw, tuple)

    @pytest.mark.parametrize("case", ["positive", "zero trace", "p too large",
                                      "p outside [0, 1]"])
    def test_a_stack_fails_as_its_bad_witness_fails_alone(self, case):
        rng = np.random.default_rng(24)
        ws = np.stack([_weak_witness(rng) for _ in range(3)])
        bad, p = {"positive": (np.eye(6) / 6, None),
                  "zero trace": (np.diag([1.0, -1.0, 0, 0, 0, 0]), None),
                  "p too large": (_witnesses(23, 1)[0], 0.9),
                  "p outside [0, 1]": (ws[1], 1.5)}[case]
        if case != "p outside [0, 1]":
            # The other witnesses pass every check: only the bad one fails.
            spa_witness(np.delete(ws, 1, axis=0), 2, 3, p=p)
        ws[1] = bad
        with pytest.raises((NotAWitness, DimensionError)) as alone:
            spa_witness(ws[1], 2, 3, p=p)
        with pytest.raises(type(alone.value)) as stacked:
            spa_witness(ws, 2, 3, p=p)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("shape", [(6,), (2, 6, 4), (2, 2, 6, 6), (4, 4)])
    def test_rejects_what_is_not_a_stack_of_witnesses_of_the_dims(self, shape):
        with pytest.raises(DimensionError):
            spa_witness(np.zeros(shape), 2, 3)


# Each family's curve grid, as the figures use it.
_FAMILIES = [
    (werner_state, [0.35 + 0.05 * i for i in range(14)]),
    (mems_state, [(2.0 / 3.0) * i / 10.0 for i in range(11)]
     + [2.0 / 3.0 + (1.0 / 3.0) * i / 10.0 for i in range(11)]),
    (two_qutrit_a_state, [1 / np.sqrt(2.0) + (1.0 - 1 / np.sqrt(2.0)) * i / 10.0
                          for i in range(11)]),
    (two_qutrit_alpha_state, [4.0 + i / 10.0 for i in range(11)]),
    (qutrit_qubit_alpha_state, [i / 20.0 for i in range(20)]),
]


class TestFamilies:
    @pytest.mark.parametrize("family,grid", _FAMILIES, ids=lambda f: getattr(f, "__name__", ""))
    def test_an_array_of_parameters_is_a_tuple_of_the_scalar_states(self, family, grid):
        states = family(np.array(grid))
        assert isinstance(states, tuple) and len(states) == len(grid)
        for x, rho in zip(grid, states):
            one = family(x)
            assert isinstance(one, DensityMatrix) and one.dims == rho.dims
            assert np.array_equal(rho.mat, one.mat)
            assert _same_spectrum(rho.spectrum, one.spectrum)

    def test_the_qutrit_qubit_map_of_a_tuple_is_the_map_of_each_state(self):
        states = qutrit_qubit_alpha_state(np.array([i / 20.0 for i in range(20)]))
        outs = spa_pt_qutrit_qubit(states)
        assert isinstance(outs, tuple) and len(outs) == 20
        for rho, out in zip(states, outs):
            one = spa_pt_qutrit_qubit(rho)
            assert np.array_equal(out.rho_tilde.mat, one.rho_tilde.mat)
            assert (out.mixing, out.threshold) == (one.mixing, one.threshold)

    def test_the_qutrit_qubit_map_checks_the_trace_of_each_output(self):
        good = qutrit_qubit_alpha_state(0.3)
        m = np.eye(6, dtype=complex) / 6
        m[0, 2] = m[2, 0] = 0.1  # outside the family: the map leaves the trace
        bad = validate_density(m, [3, 2])
        with pytest.raises(TraceViolation) as alone:
            spa_pt_qutrit_qubit(bad)
        with pytest.raises(TraceViolation) as stacked:
            spa_pt_qutrit_qubit((good, bad, good))
        assert stacked.value.magnitude == alone.value.magnitude


@pytest.fixture
def svd_shapes(monkeypatch):
    """List that records the input shape of every ``np.linalg.svd`` call."""
    shapes = []
    svd = np.linalg.svd

    def counting(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


class TestCurveSolves:
    @pytest.mark.parametrize("table_id", ["fig6.1", "fig6.2", "fig6.3", "fig6.4", "fig6.5"])
    def test_a_figure_6_curve_makes_one_call_per_layer(self, eigh_shapes, svd_shapes, table_id):
        table = TABLES[table_id]
        table.generate()
        k = len(table.points)
        n = eigh_shapes[0][-1]
        # Validation, the partial transposes, and the realigned matrices
        # split into a Hermitian stack (eigh) and the rest (svd).
        assert len(eigh_shapes) <= 3 and len(svd_shapes) <= 1
        assert eigh_shapes[:2] == [(k, n, n), (k, n, n)]
        assert sum(s[0] for s in eigh_shapes[2:] + svd_shapes) == k

    def test_fig2_1_validates_its_curve_as_one_stack(self, eigh_shapes):
        TABLES["fig2.1"].generate()
        # The validation of the 20 states, then their 20 witnesses.
        assert eigh_shapes == [(20, 6, 6), (20, 6, 6)]
