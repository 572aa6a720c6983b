"""Three-qubit canonical form, subclass witnesses, and the SLOCC classifier."""

import itertools
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    einsum_correlation_tensors,
    oracle_correlation_tensors,
    random_density,
    random_pure,
    random_unitary,
)
from qent import classify3
from qent.classify3 import (
    CanonicalThreeQubit,
    SloccOutcome,
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
from qent.errors import DimensionError, HermiticityViolation, NotGHZClass
from qent.linalg import (
    SLACK,
    DensityMatrix,
    expectation,
    herm_eigenvalues,
    partial_trace,
    validate_density,
)
from qent.measures import concurrence_2q, tangle_pure
from qent.spa import spa_pt_three_qubit
from qent.states import (
    bisep_a_bc_state,
    g2_state,
    ghz_corner_mixture,
    ghz_state,
    ghz_w_mixture,
    ghz_w_wtilde_mixture,
    ghz_werner_state,
    kay_state,
    projector,
    two_term_product_mixture,
)


def _random_params(rng):
    return CanonicalThreeQubit(*np.sqrt(rng.dirichlet(np.ones(5))))


class TestCanonicalForm:
    def test_state_is_normalized_projector(self, rng):
        rho = canonical_projector(_random_params(rng))
        assert abs(np.linalg.norm(rho.ket) - 1.0) <= 1e-12
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(DimensionError):
            CanonicalThreeQubit(1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DimensionError):
            CanonicalThreeQubit(0.6, 0.0, 0.0, 0.0, 0.8, theta=4.0)

    @pytest.mark.parametrize("pos", range(5))
    def test_rejects_a_negative_lambda(self, pos):
        # (-0.6, 0, 0, 0, 0.8) once gave all eight witnesses negative.
        args = [0.6, 0.0, 0.0, 0.0, 0.0]
        args[pos or 4] = 0.8
        args[pos] = -args[pos]
        with pytest.raises(DimensionError):
            CanonicalThreeQubit(*args)

    @pytest.mark.parametrize("pos", range(6))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_parameters(self, pos, bad):
        # A NaN lambda once gave subclass S4 with every witness value NaN.
        args = [0.5, 0.5, 0.5, 0.5, 0.0, 0.0]
        args[pos] = bad
        with pytest.raises(DimensionError):
            CanonicalThreeQubit(*args)

    def test_correlation_tensors_vs_kron_oracle(self, rng):
        p = _random_params(rng)
        rho = canonical_projector(p)
        t = correlation_tensors(rho)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        paulis = (sx, sy, sz)
        for (wi, w), (ci, c), (ri, r) in itertools.product(
                enumerate(paulis), enumerate(paulis), enumerate(paulis)):
            ref = np.trace(rho.mat @ np.kron(np.kron(w, c), r)).real
            got = (t.Tx, t.Ty, t.Tz)[wi][ri, ci]
            assert abs(got - ref) <= 1e-12

    def test_correlation_tensors_vs_loop_oracle_on_mixed_states(self, rng):
        for _ in range(10):
            rho = random_density(rng, (2, 2, 2))
            t = correlation_tensors(rho)
            ref = oracle_correlation_tensors(rho.mat)
            assert np.max(np.abs(np.stack([t.Tx, t.Ty, t.Tz]) - ref)) <= 1e-12

    def test_correlation_tensors_reject_a_nan_imaginary_part(self):
        rho = DensityMatrix(mat=np.full((8, 8), np.nan), dims=(2, 2, 2))
        with pytest.raises(HermiticityViolation):
            correlation_tensors(rho)

    def test_correlation_tensors_reject_imaginary_expectation(self):
        mat = np.eye(8, dtype=complex) / 8.0
        mat[0, 0] += 1e-3j  # <zzz> picks up an imaginary part
        with pytest.raises(HermiticityViolation):
            correlation_tensors(DensityMatrix(mat=mat, dims=(2, 2, 2)))

    def test_ghz_correlation_signature(self):
        v = ghz_state()
        from qent.linalg import validate_density
        t = correlation_tensors(validate_density(np.outer(v, v.conj()), [2, 2, 2]))
        assert abs(t.Tx[0, 0] - 1.0) <= 1e-12   # <xxx> = 1
        assert abs(t.Tx[1, 1] + 1.0) <= 1e-12   # <xyy> = -1
        assert abs(t.Ty[0, 1] + 1.0) <= 1e-12   # <yyx> = -1
        assert abs(t.Tz[2, 2]) <= 1e-12         # <zzz> = 0


# lambda1..lambda3 nonzero per GHZ subclass S1..S4.
_ZERO_PATTERNS = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1))


@st.composite
def _canonical_params(draw):
    """Canonical parameters of one of the four zero patterns, with or without
    a phase."""
    pattern = draw(st.sampled_from(_ZERO_PATTERNS))
    weights = [draw(st.floats(0.01, 1.0))]
    weights += [draw(st.floats(0.01, 1.0)) if nz else 0.0 for nz in pattern]
    weights += [draw(st.floats(0.01, 1.0))]
    norm = math.sqrt(sum(w * w for w in weights))
    phase = draw(st.one_of(st.just(0.0), st.floats(0.0, math.pi)))
    return CanonicalThreeQubit(*(w / norm for w in weights), theta=phase)


def _mixed_state(seed, rank):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, [2, 2, 2])


class TestCorrelationTensorBits:
    """The gather has the einsum's bits, signed zeros included."""

    @staticmethod
    def _assert_einsum_bits(rho):
        t = correlation_tensors(rho)
        want = einsum_correlation_tensors(rho.mat).real
        assert np.stack([t.Tx, t.Ty, t.Tz]).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
    def test_random_mixed_states(self, seed, rank):
        self._assert_einsum_bits(_mixed_state(seed, rank))

    @settings(max_examples=200, deadline=None)
    @given(_canonical_params())
    def test_canonical_projectors_of_every_zero_pattern(self, params):
        self._assert_einsum_bits(canonical_projector(params))

    def test_exact_zeros_and_signed_zeros(self):
        # GHZ has 60 zero entries, I/8 has 56; every zero entry is made -0 - 0j.
        # Sums start from +0j, as the einsum's do, so a zero tensor entry is +0.
        for mat in (np.outer(ghz_state(), ghz_state().conj()), np.eye(8, dtype=complex) / 8.0):
            mat = mat.copy()
            mat[mat == 0] = complex(-0.0, -0.0)
            rho = DensityMatrix(mat=mat, dims=(2, 2, 2))
            self._assert_einsum_bits(rho)
            t = correlation_tensors(rho)
            t = np.stack([t.Tx, t.Ty, t.Tz])
            assert (t == 0).any() and not np.signbit(t[t == 0]).any()


class TestLuInvariants:
    def test_tangle_matches_hyperdeterminant(self, rng):
        for _ in range(10):
            p = _random_params(rng)
            assert abs(lu_invariants(p).tau
                       - tangle_pure(canonical_projector(p).ket).value) <= 1e-12

    def test_pairwise_concurrences_match_marginals(self, rng):
        for _ in range(5):
            p = _random_params(rng)
            inv = lu_invariants(p)
            rho = canonical_projector(p)
            assert abs(concurrence_2q(partial_trace(rho, [0, 1])).value
                       - inv.c_ab) <= 1e-7
            assert abs(concurrence_2q(partial_trace(rho, [0, 2])).value
                       - inv.c_ac) <= 1e-7
            assert abs(concurrence_2q(partial_trace(rho, [1, 2])).value
                       - inv.c_bc) <= 1e-7


class TestSubclassWitnesses:
    def test_closed_form_equals_operator_expectation(self, rng):
        for _ in range(10):
            p = _random_params(rng)
            rho = canonical_projector(p)
            for k in range(1, 9):
                w = f"H{k}"
                assert abs(expectation(ghz_witness_operator(p, w), rho)
                           - ghz_witness_value(p, w)) <= 1e-12

    def test_operators_are_built_from_constants(self, monkeypatch):
        p = CanonicalThreeQubit(0.5, 0.83666, 0.2, 0.0, 0.1)
        want = {w: ghz_witness_operator(p, w) for w in ("H1", "H8")}

        def refuse(*args):
            raise AssertionError("tensor called after import")

        monkeypatch.setattr(classify3, "tensor", refuse)
        for w, h in want.items():
            assert np.array_equal(ghz_witness_operator(p, w), h)
        for name in ("_O1", "_O4"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(classify3, name)[0, 0] = 1.0

    @pytest.mark.parametrize("params,which,val", [
        ((0.4, 0.911043, 0.0, 0.0, 0.1), "H1", -0.3712),
        ((0.4, 0.0, 0.894427, 0.0, 0.2), "H2", -0.2176),
        ((0.4, 0.0, 0.0, 0.894427, 0.2), "H3", -0.2176),
        ((0.35, 0.0, 0.3, 0.864581, 0.2), "H4", -0.108386),
        ((0.5, 0.83666, 0.2, 0.0, 0.1), "H5", -0.540548),
        ((0.5, 0.83666, 0.0, 0.2, 0.1), "H6", -0.540548),
    ])
    def test_worked_values(self, params, which, val):
        p = CanonicalThreeQubit(*params)
        assert abs(ghz_witness_value(p, which) - val) <= 1e-4

    def test_full_form_witnesses_regression(self):
        # Pinned computed values at the H7/H8 example points; these differ
        # from the corresponding published figures (see the acceptance suite).
        p7 = CanonicalThreeQubit(0.6, 0.785812, 0.1, 0.05, 0.1)
        assert abs(ghz_witness_value(p7, "H7") + 0.6692533679) <= 1e-9
        p8 = CanonicalThreeQubit(0.01, 0.948631, 0.3, 0.0, 0.1)
        assert abs(ghz_witness_value(p8, "H8") - 0.0225762926) <= 1e-9

    @pytest.mark.parametrize("params,which", [
        ((0.7270937711087943, 0.6566063115629335, 0.14177940546939863,
          0.14177940546939863, 0.0), "H4"),
        ((0.08055826410711227, 0.0, 0.7048086144777349, 0.7048086144777349, 0.0), "H7"),
    ])
    def test_a_radicand_rounded_below_zero_gives_a_finite_witness(self, params, which):
        # Both radicands vanish here in exact arithmetic; expanded, they round
        # below 0.  With a zero root and lambda4 = 0, H4 is -2 l0^2 (1 - l0^2)
        # and H7 (lambda1 = 0, lambda2 = lambda3) is -4 l0^2 l2^2.
        p = CanonicalThreeQubit(*params)
        value, h = ghz_witness_value(p, which), ghz_witness_operator(p, which)
        assert math.isfinite(value) and np.isfinite(h).all()
        assert abs(expectation(h, canonical_projector(p)) - value) <= 1e-12
        l0, l2 = params[0], params[2]
        exact = -2.0 * l0 ** 2 * (1.0 - l0 ** 2) if which == "H4" else -4.0 * l0 ** 2 * l2 ** 2
        assert abs(value - exact) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 1.0))
    def test_witnesses_are_finite_where_the_radicands_vanish(self, l0, l1, l2):
        # lambda2 = lambda3 and lambda4 = 0: H4's radicand
        # ((l2-l3)^2+l4^2)((l2+l3)^2+l4^2) is 0, and H7's (l1^2+l2^2-l3^2-l4^2)^2
        # + 4(l1 l3+l2 l4)^2 is 0 too when lambda1 = 0.
        norm = math.sqrt(l0 * l0 + l1 * l1 + 2.0 * l2 * l2)
        p = CanonicalThreeQubit(l0 / norm, l1 / norm, l2 / norm, l2 / norm, 0.0)
        for which in classify3._WITNESS_NAMES:
            assert math.isfinite(ghz_witness_value(p, which))
            assert np.isfinite(ghz_witness_operator(p, which)).all()

    # Values of the form that computed each coefficient alone, with its own powers.
    _PINNED = {
        (0.35, 0.1, 0.3, math.sqrt(1.0 - 0.35 ** 2 - 0.1 ** 2 - 0.3 ** 2 - 0.2 ** 2), 0.2): [
            "0x1.19b3d07c84b5dp-2", "0x1.bafb7e90ff972p-3", "-0x1.9d97f62b6ae7cp-4",
            "-0x1.b20f3e1909fd4p-4", "0x1.b3e01c4e05b24p-3", "-0x1.b0a4d62737120p-4",
            "-0x1.d9f493fec0108p-4", "0x1.219e22a1e420dp-2"],
        (0.4, 0.4, 0.2, 0.0, 0.8): [
            "0x1.2d77318fc5049p+0", "0x1.b089a02752546p-1", "0x1.bda5119ce0760p-1",
            "0x1.9652bd3c36114p-1", "0x1.ac988689827bfp-1", "0x1.bda5119ce0760p-1",
            "0x1.ac988689827c0p-1", "0x1.2837c863798fep+0"],
        (0.7270937711087943, 0.6566063115629335, 0.14177940546939863,
         0.14177940546939863, 0.0): [
            "-0x1.d2ca1091db55ep-1", "-0x1.5c39033415670p-5", "-0x1.5c39033415670p-5",
            "-0x1.fe5130f85e02ap-2", "-0x1.e88da0c51cac5p-1", "-0x1.e88da0c51cac5p-1",
            "-0x1.fd63247747a99p-1", "0x1.46ba22965d800p-11"],
    }

    @pytest.mark.parametrize("params", [
        (0.6, 0.0, 0.0, 0.0, 0.8),
        (0.6, 0.48, 0.0, 0.0, 0.64),
        (0.4, 0.4, 0.2, 0.0, 0.8),
        (0.35, 0.1, 0.3, math.sqrt(1.0 - 0.35 ** 2 - 0.1 ** 2 - 0.3 ** 2 - 0.2 ** 2), 0.2),
        (0.7270937711087943, 0.6566063115629335, 0.14177940546939863,
         0.14177940546939863, 0.0),
        (0.08055826410711227, 0.0, 0.7048086144777349, 0.7048086144777349, 0.0),
    ], ids=["S1", "S2", "S3", "S4", "H4 radicand", "H7 radicand"])
    def test_report_value_and_operator_read_one_coefficient(self, params):
        p = CanonicalThreeQubit(*params)
        coefficients = classify3._witness_coefficients(p)
        values = [ghz_witness_value(p, w) for w in classify3._WITNESS_NAMES]
        for w, value in zip(classify3._WITNESS_NAMES, values):
            c = coefficients[w]
            want = 4.0 * p.lambda0 * p.lambda4 - c
            want = want + 2.0 * p.lambda0 * p.lambda1 if w == "H8" else want
            assert type(value) is float and value.hex() == want.hex()
            h = classify3._O1 - c * np.eye(8)
            if w == "H8":
                h = h + classify3._O4 / 2.0
            assert ghz_witness_operator(p, w).tobytes() == h.tobytes()
        if p.lambda4 == 0.0:
            with pytest.raises(NotGHZClass):
                classify_ghz_subclass(p)
        else:
            report = classify_ghz_subclass(p).values
            assert list(report) == [*classify3._WITNESS_NAMES, "W_MS"]
            assert [report[w].hex() for w in classify3._WITNESS_NAMES] == [
                v.hex() for v in values]
        if params in self._PINNED:
            assert [v.hex() for v in values] == self._PINNED[params]

    def test_theta_and_class_guards(self):
        tilted = CanonicalThreeQubit(0.6, 0.1, 0.0, 0.0,
                                     np.sqrt(1 - 0.37), theta=0.5)
        with pytest.raises(DimensionError):
            ghz_witness_value(tilted, "H1")
        w_class = CanonicalThreeQubit(0.6, 0.8, 0.0, 0.0, 0.0)
        with pytest.raises(NotGHZClass):
            classify_ghz_subclass(w_class)

    def test_subclass_report(self):
        p = CanonicalThreeQubit(0.35, 0.0, 0.3, 0.864581, 0.2)
        rep = classify_ghz_subclass(p)
        assert "H4" in rep.negative
        assert rep.subclass == "S3"
        assert abs(rep.values["W_MS"] - (4 * 0.35 * 0.2 - 1.0)) <= 1e-12
        assert parametric_subclass(CanonicalThreeQubit(
            np.sqrt(0.5), 0, 0, 0, np.sqrt(0.5))) == "S1"

    def test_fidelities(self):
        l0 = l4 = np.sqrt(0.5)
        f = subclass_fidelities(CanonicalThreeQubit(l0, 0, 0, 0, l4), "S1")
        assert all(abs(x - 2.0 * (1.0 + l0 * l4) / 3.0) <= 1e-12 for x in f)
        with pytest.raises(DimensionError):
            subclass_fidelities(CanonicalThreeQubit(0.35, 0.0, 0.3, 0.864581, 0.2), "S2")
        l3 = np.sqrt(1.0 - 0.35 ** 2 - 0.1 ** 2 - 0.3 ** 2 - 0.2 ** 2)
        fa, fb, fc = subclass_fidelities(
            CanonicalThreeQubit(0.35, 0.1, 0.3, l3, 0.2), "S4")
        assert min(fa, fb, fc) >= 2.0 / 3.0
        # Plain floats, whatever the type of the parameters, with pinned bits.
        assert all(type(x) is float for x in (*f, fa, fb, fc))
        assert [x.hex() for x in (fa, fb, fc)] == [
            "0x1.a27741d4b8210p-1", "0x1.80685beb3c0b7p-1", "0x1.beac994b2d2fcp-1"]

    def test_fidelities_of_the_s2_and_s3_variants(self):
        # S2, the lambda1 variant: only F_A moves, to 2(1 + l4 |(l0, l1)|)/3.
        base = 2.0 * (1.0 + 0.6 * 0.64) / 3.0
        f = subclass_fidelities(CanonicalThreeQubit(0.6, 0.48, 0.0, 0.0, 0.64), "S2")
        assert np.allclose(f, (2.0 * (1.0 + 0.64 * np.hypot(0.6, 0.48)) / 3.0, base, base),
                           rtol=0, atol=1e-12)
        assert all(type(x) is float for x in f)
        assert f[0].hex() == "0x1.fd2ff90298129p-1"
        # S3, the lambda1,lambda2 variant: F_B moves too, to 2(1 + l0 |(l2, l4)|)/3.
        f = subclass_fidelities(CanonicalThreeQubit(0.4, 0.4, 0.2, 0.0, 0.8), "S3")
        assert np.allclose(f, (2.0 * (1.0 + 0.8 * np.hypot(0.4, 0.4)) / 3.0,
                               2.0 * (1.0 + 0.4 * np.hypot(0.2, 0.8)) / 3.0,
                               2.0 * (1.0 + 0.4 * 0.8) / 3.0), rtol=0, atol=1e-12)
        assert all(type(x) is float for x in f)
        assert [x.hex() for x in f[:2]] == ["0x1.efcd9c55501a0p-1", "0x1.c5ebee4221a0bp-1"]
        with pytest.raises(DimensionError, match="S3 zero pattern"):
            subclass_fidelities(CanonicalThreeQubit(0.4, 0.4, 0.0, 0.2, 0.8), "S3")


class TestSloccClassifier:
    def test_tilted_ghz_closed_form(self):
        for a in (0.3, 0.5, 1 / np.sqrt(2)):
            b = np.sqrt(1 - a * a)
            v = slocc_classify(ghz_state(a, b))
            assert v.outcome is SloccOutcome.Genuine
            for lam in v.lambdas:
                assert abs(lam - (1.0 - 2.0 * a * b) / 10.0) <= 1e-12

    def test_genuine_rank_two_example(self):
        v = slocc_classify(g2_state())
        assert v.outcome is SloccOutcome.Genuine
        assert abs(v.lambdas[0] - 0.030718) <= 1e-6
        assert abs(v.lambdas[1] - 0.0434315) <= 1e-6
        assert abs(v.lambdas[2] - 0.0434315) <= 1e-6

    def test_biseparable_cut_named(self):
        for q in (0.2, 0.5, 0.8):
            v = slocc_classify(bisep_a_bc_state(q))
            assert v.outcome is SloccOutcome.BiseparableA_BC
            assert abs(v.lambdas[0] - 0.1) <= 1e-12
            assert v.lambdas[1] < 0.1 and v.lambdas[2] < 0.1

    def test_fully_separable_examples(self):
        for q in (0.2, 0.7):
            v = slocc_classify(two_term_product_mixture(q))
            assert v.outcome is SloccOutcome.FullySeparableConsistent
            assert all(abs(lam - 0.1) <= 1e-12 for lam in v.lambdas)
        for a in (2.0, 3.0, 3.9):
            v = slocc_classify(kay_state(a))
            assert v.outcome is SloccOutcome.FullySeparableConsistent
            ref = (2.0 + 5.0 * a) / (40.0 * (1.0 + a))
            assert all(abs(lam - ref) <= 1e-12 for lam in v.lambdas)

    def test_corner_mixture_scaling(self):
        for q in (0.3, 0.6, 0.9):
            v = slocc_classify(ghz_corner_mixture(q))
            assert v.outcome is SloccOutcome.Genuine
            assert all(abs(lam - q / 10.0) <= 1e-12 for lam in v.lambdas)

    def test_ghz_noise_family_boundary(self):
        # lambda_min = alpha/8, crossing the 0.1 floor exactly at alpha = 0.8.
        for alpha in (0.2, 0.5, 0.79):
            v = slocc_classify(ghz_werner_state(alpha))
            assert v.outcome is SloccOutcome.Genuine
            assert all(abs(lam - alpha / 8.0) <= 1e-12 for lam in v.lambdas)
        for alpha in (0.8, 0.9, 1.0):
            v = slocc_classify(ghz_werner_state(alpha))
            assert v.outcome is SloccOutcome.FullySeparableConsistent
            assert all(abs(lam - alpha / 8.0) <= 1e-12 for lam in v.lambdas)


def _trig_roots(a):
    """Eigenvalues of a real symmetric 3x3 matrix (nested lists) from the
    trigonometric solution of its characteristic cubic, with no eigensolver:
    ``q + 2 p cos(phi + 2 pi k / 3)``, where ``q`` is the mean eigenvalue,
    ``p`` the deviation scale and ``cos(3 phi) = det((A - q I)/p)/2``."""
    q = (a[0][0] + a[1][1] + a[2][2]) / 3.0
    off = a[0][1] ** 2 + a[0][2] ** 2 + a[1][2] ** 2
    p = np.sqrt(((a[0][0] - q) ** 2 + (a[1][1] - q) ** 2 + (a[2][2] - q) ** 2
                 + 2.0 * off) / 6.0)
    if p == 0.0:
        return [q, q, q]
    b = [[(a[i][j] - (q if i == j else 0.0)) / p for j in range(3)] for i in range(3)]
    det = (b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
           - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
           + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0]))
    phi = np.arccos(min(1.0, max(-1.0, det / 2.0))) / 3.0
    return [q + 2.0 * p * np.cos(phi + 2.0 * np.pi * k / 3.0) for k in range(3)]


def _spa_pt_blocks(q1, q2):
    """The blocks of ``rho^{T_A}`` for ``q1 GHZ + q2 W + (1-q1-q2) W~``: the
    3x3 blocks on {|000>, |101>, |110>} and {|001>, |010>, |111>}, and the
    smaller root of the 2x2 block on {|011>, |100>}."""
    g, w, t = q1 / 2.0, q2 / 3.0, (1.0 - q1 - q2) / 3.0
    first = [[g, w, w], [w, t, t], [w, t, t]]
    second = [[w, w, t], [w, w, t], [t, t, g]]
    mean, det = (t + w) / 2.0, t * w - g * g
    return first, second, mean - np.sqrt(mean * mean - det)


class TestMixtureAnalysis:
    def test_two_term_branch_is_the_minimum(self):
        for q in np.linspace(0.0, 1.0, 21):
            r = ghz_w_mixture_analysis(q)
            assert abs(r.predicted - min(r.q_forms)) <= 1e-15
            assert abs(r.predicted - min(r.lambdas)) <= 1e-9
            assert all(type(x) is float for x in (r.q1, r.q2, r.predicted, *r.q_forms))
        # Pinned bits of the two branches.
        assert [x.hex() for x in ghz_w_mixture_analysis(0.3).q_forms] == [
            "0x1.5d805a917022cp-4", "0x1.83a5a607133d7p-5"]
        assert [x.hex() for x in ghz_w_mixture_analysis(0.75).q_forms] == [
            "0x1.0d492427343f7p-5", "0x1.7dc7625f5f75bp-4"]

    def test_a_three_term_radicand_rounded_below_zero_gives_the_branch(self):
        # The radicand is (q1 + 2 q2 - 1)^2 + 9 q1^2 >= 0; expanded, it rounds
        # to -2.2e-16 here, and the branch is its root at 0.
        q1, q2 = 8.80776060671029e-10, 0.5000000001967209
        r = ghz_w_mixture_analysis(q1, q2)
        assert r.predicted == (4.0 - q1) / 30.0
        assert r.predicted >= min(r.lambdas) - SLACK

    def test_regime_labels(self):
        assert ghz_w_mixture_analysis(0.1).regime is None
        assert ghz_w_mixture_analysis(0.4).regime == "W-class"
        assert ghz_w_mixture_analysis(0.8).regime == "GHZ-class"

    def test_three_term_branch_bounds_the_minimum_on_the_simplex(self):
        # Every point of the (q1, q2) grid of step 1/40; the branch equals
        # the minimum at 352 of the 861 points (see MixtureReport.predicted).
        reports = [ghz_w_mixture_analysis(i / 40, j / 40)
                   for i in range(41) for j in range(41 - i)]
        assert len(reports) == 861
        assert all(r.predicted >= min(r.lambdas) - SLACK for r in reports)
        agree = [abs(r.predicted - min(r.lambdas)) <= 1e-9 for r in reports]
        assert sum(agree) == 352
        # Another branch dips below only at GHZ weights up to 0.45.
        assert all(r.q1 <= 0.45 for r, a in zip(reports, agree) if not a)

    def test_the_spa_pt_blocks_give_the_minimum_on_the_simplex(self):
        # Over qubit A the SPA-PT splits into the 3x3 blocks {|000>, |101>,
        # |110>} and {|001>, |010>, |111>} and the 2x2 block {|011>, |100>}
        # (the paper's branch); the three cuts share one spectrum.  The
        # cubic roots of the 3x3 blocks, in trigonometric form, and the 2x2
        # roots together give min(lambdas) at every grid point.
        worst = 0.0
        for i in range(41):
            for j in range(41 - i):
                q1, q2 = i / 40, j / 40
                first, second, pair = _spa_pt_blocks(q1, q2)
                oracle = 0.1 + 0.2 * min(*_trig_roots(first), *_trig_roots(second), pair)
                worst = max(worst, abs(oracle - min(ghz_w_mixture_analysis(q1, q2).lambdas)))
        assert worst <= 1e-12

    def test_the_first_cubic_block_dips_below_the_branch(self):
        # The example of MixtureReport.predicted.
        r = ghz_w_mixture_analysis(0.1, 0.5)
        first = 0.1 + 0.2 * min(_trig_roots(_spa_pt_blocks(0.1, 0.5)[0]))
        assert abs(first - 0.0798) <= 1e-4 and abs(r.predicted - 0.1195) <= 1e-4
        assert abs(first - min(r.lambdas)) <= 1e-12

    def test_three_term_branch_is_in_the_spectrum(self):
        from qent.states import ghz_w_wtilde_mixture
        for q1, q2 in ((0.1, 0.1), (0.3, 0.2), (0.5, 0.3), (0.7, 0.1)):
            r = ghz_w_mixture_analysis(q1, q2)
            rho = ghz_w_wtilde_mixture(q1, q2)
            gaps = []
            for q in ("A", "B", "C"):
                lam = herm_eigenvalues(
                    spa_pt_three_qubit(rho, q).rho_tilde.mat).eigenvalues
                gaps.append(np.min(np.abs(lam - r.predicted)))
            assert min(gaps) <= 1e-9
            assert r.predicted >= min(r.lambdas) - 1e-9


def test_slocc_classify_solves_three_times(rng, solve_sizes):
    rho = random_density(rng, (2, 2, 2))
    solve_sizes.clear()
    slocc_classify(rho)
    assert solve_sizes == [8, 8, 8]


@pytest.mark.parametrize("pure", [False, True])
def test_slocc_classify_makes_one_lapack_call(rng, eigh_shapes, pure):
    rho = random_pure(rng, 8) if pure else random_density(rng, (2, 2, 2))
    eigh_shapes.clear()
    slocc_classify(rho)
    # A ket is decided from its Schmidt coefficients, with no solve.
    assert eigh_shapes == ([] if pure else [(3, 8, 8)])


def test_canonical_projector_is_classified_without_a_solve(rng, solve_sizes):
    rho = canonical_projector(_random_params(rng))
    slocc_classify(rho)
    assert solve_sizes == []


@pytest.mark.parametrize("build", [lambda: ghz_w_mixture(0.4),
                                   lambda: ghz_w_wtilde_mixture(0.3, 0.2)],
                         ids=["two-term", "three-term"])
def test_ghz_w_mixtures_are_solved_only_by_the_classifier(solve_sizes, build):
    rho = build()
    assert solve_sizes == []
    slocc_classify(rho)
    assert solve_sizes == [8, 8, 8]


def _local_unitary(rng):
    u = [random_unitary(rng, 2) for _ in range(3)]
    return np.kron(np.kron(u[0], u[1]), u[2])


def _product_across(rng, cut):
    """Random ket that is a product of qubit ``cut`` and the other two,
    under random local unitaries."""
    t = np.multiply.outer(random_pure(rng, 2), random_pure(rng, 4).reshape(2, 2))
    order = [1, 2]
    order.insert(cut, 0)
    return _local_unitary(rng) @ t.transpose(order).ravel()


def _pure_case(rng, kind):
    """(ket or projector carrying one, the same state without its ket)."""
    if kind == "canonical":
        lam = rng.uniform(0.0, 1.0, size=5)
        lam[[0, 4]] += 0.2
        rho = canonical_projector(CanonicalThreeQubit(*(lam / np.linalg.norm(lam)),
                                                      rng.uniform(0.0, np.pi)))
        return rho, rho.ket
    v = random_pure(rng, 8) if kind == "random" else _product_across(rng, kind)
    return v, v / np.linalg.norm(v)


class TestPureStateClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           kind=st.sampled_from(["random", "canonical", 0, 1, 2]))
    def test_equals_the_stacked_spa_pt_path(self, seed, kind):
        rng = np.random.default_rng(seed)
        pure, v = _pure_case(rng, kind)
        got = slocc_classify(pure)
        want = slocc_classify(validate_density(np.outer(v, v.conj()), [2, 2, 2]))
        assert max(abs(a - b) for a, b in zip(got.lambdas, want.lambdas)) <= 1e-12
        assert got.outcome is want.outcome
        if kind in (0, 1, 2):
            # A product cut is never claimed.
            assert got.lambdas[kind] >= 0.1 - SLACK
            assert got.outcome is not SloccOutcome.Genuine

    def test_vector_and_projector_agree(self, rng):
        v = random_pure(rng, 8)
        assert slocc_classify(v) == slocc_classify(projector(v, [2, 2, 2]))

    def test_projector_of_another_shape_is_refused(self, rng):
        with pytest.raises(DimensionError):
            slocc_classify(projector(random_pure(rng, 8), [2, 4]))
