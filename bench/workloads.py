"""Seeded inputs and ops for the three benchmark workloads.

A workload is built once per set-up as a *deck*: a fixed-composition list of
ops whose input values come from the seed.  The run loop cycles through the
deck.  Every op has a ``run`` callable (the timed call into qent) and a
``check`` callable that compares its output against ``oracle`` and returns
``(errors, fingerprint)``; the loop also requires the fingerprint of a
repeated op to equal the first one, so reports must be byte-stable.

qent functions are looked up on their modules at call time, so the wrappers
the tracer installs are seen by the ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from qent import classify3, cli, detect, linalg, measures, spa, states

RATIONALE = {
    "bipartite-dense": "seeded dense 4x4, 9x9 and 16x16 states through every "
                       "bipartite check and measure: the eigensolver at its "
                       "worst case and the north-star size",
    "three-qubit": "mostly structured three-qubit inputs through the SPA-PT "
                   "SLOCC classifier and canonical-form tools: cheap solves, "
                   "so fixed per-call cost shows",
    "cli": "every CLI command in-process, reports to memory: argument "
           "parsing, state-file JSON, golden loading and report "
           "serialization",
}

BIPARTITE_DIMS = ([2, 2], [3, 3], [4, 4])
BIPARTITE_PER_DIM = 20
BIPARTITE_SEPARABLE_PER_DIM = 7

GRID_STEP = 20          # (q1, q2) simplex grid with spacing 1/20
THREE_QUBIT_GRID = 36
THREE_QUBIT_CANONICAL_PER_PATTERN = 9
THREE_QUBIT_PURE = 36
THREE_QUBIT_MIXED = 12

CLI_RANDOM_PER_KIND = 4     # random dense 2x2, 3x3, 4x4
CLI_SEPARABLE_PER_KIND = 2  # separable 2x2, 3x3
CLI_FAMILY_PER_KIND = 3     # seeded parameters per paper family
CLI_THREE_QUBIT_RANDOM = 2  # random mixed and random pure 8x8

REPRODUCE_IDS = ("2.1", "2.2", "2.3", "3.1", "5.1", "5.2", "fig2.1",
                 "fig6.1", "fig6.2", "fig6.3", "fig6.4", "fig6.5")

# Zero pattern of (lambda1, lambda2, lambda3) per GHZ subclass.  S3 uses the
# lambda1,lambda2 variant, the one the fidelity closed forms cover.
SUBCLASS_PATTERNS = {"S1": (0, 0, 0), "S2": (1, 0, 0), "S3": (1, 1, 0),
                     "S4": (1, 1, 1)}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def build(name, seed, scratch):
    """Deck of ops for workload ``name``; ``scratch`` holds state files."""
    rng = np.random.default_rng([seed, list(RATIONALE).index(name)])
    if name == "bipartite-dense":
        return _bipartite_deck(rng)
    if name == "three-qubit":
        return _three_qubit_deck(rng)
    return _cli_deck(rng, scratch)


# ---------------------------------------------------------------------------
# Random states
# ---------------------------------------------------------------------------

def random_mixed(rng, n):
    """Full-rank Hilbert-Schmidt random state ``G G^dagger / Tr``."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def random_pure(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_separable(rng, d):
    """Mixture of ``d^2`` products of random full-rank local states."""
    k = d * d
    weights = rng.dirichlet(np.ones(k))
    mat = sum(w * np.kron(random_mixed(rng, d), random_mixed(rng, d)) for w in weights)
    return (mat + mat.conj().T) / 2.0


NPT_MARGIN = 0.01


def random_npt(rng, d):
    """Random dense state whose partial transpose has
    ``lambda_min < -NPT_MARGIN``, so its PPT verdict is never borderline."""
    while True:
        mat = random_mixed(rng, d * d)
        if oracle.bipartite(mat, [d, d])["ppt"][0] < -NPT_MARGIN:
            return mat


# ---------------------------------------------------------------------------
# bipartite-dense
# ---------------------------------------------------------------------------

def _bipartite_deck(rng):
    per_dim = []
    for dims in BIPARTITE_DIMS:
        d = dims[0]
        separable = set(rng.choice(BIPARTITE_PER_DIM, BIPARTITE_SEPARABLE_PER_DIM,
                                   replace=False).tolist())
        per_dim.append([random_separable(rng, d) if i in separable
                        else random_mixed(rng, d * d)
                        for i in range(BIPARTITE_PER_DIM)])
    deck = []
    for i in range(BIPARTITE_PER_DIM):
        for dims, mats in zip(BIPARTITE_DIMS, per_dim):
            deck.append(_bipartite_op(mats[i], dims))
    return deck


def _bipartite_op(mat, dims):
    def run():
        rho = linalg.validate_density(mat, dims)
        out = {
            "ppt": detect.ppt_check(rho),
            "realignment": detect.realignment_check(rho),
            "reduction": detect.reduction_check(rho),
            "negativity": measures.negativity(rho),
            "structured_negativity": measures.structured_negativity(rho),
            "concurrence_lb": measures.concurrence_lb_chen(rho),
        }
        if dims == [2, 2]:
            conc = measures.concurrence_2q(rho)
            rho_tilde = spa.spa_pt_two_qubit(rho)
            out["concurrence"] = conc
            out["criterion2"] = detect.criterion2(rho, rho_tilde, conc.value)
            out["criterion3"] = detect.criterion3(rho, rho_tilde, conc.value)
        return out

    def check(out):
        ref = oracle.bipartite(mat, dims)
        errors = []
        for name, (value, verdict) in ((k, ref[k]) for k in ("ppt", "realignment", "reduction")):
            _expect(errors, name, out[name].evidence, value)
            if out[name].outcome.value != verdict:
                errors.append(f"{name}: verdict {out[name].outcome.value}, oracle {verdict}")
        for name in ("negativity", "structured_negativity", "concurrence_lb"):
            _expect(errors, name, out[name].value, ref[name])
        if "concurrence" in out:
            _expect(errors, "concurrence", out["concurrence"].value,
                    oracle.concurrence_2q(mat), oracle.SQRT_TOL)
        return errors, _fingerprint(out)

    return Op(f"bipartite-{dims[0]}x{dims[1]}", run, check)


def _fingerprint(out):
    parts = []
    for name in sorted(out):
        r = out[name]
        if hasattr(r, "evidence"):
            parts.append((name, r.outcome.value, float(r.evidence).hex()))
        else:
            parts.append((name, float(r.value).hex()))
    return tuple(parts)


def _expect(errors, name, got, want, tol=oracle.TOL):
    if not np.isfinite(got) or not oracle.close(got, want, tol):
        errors.append(f"{name}: got {got!r}, oracle {want!r}")


# ---------------------------------------------------------------------------
# three-qubit
# ---------------------------------------------------------------------------

_GHZ = np.zeros(8, dtype=complex)
_GHZ[[0, 7]] = 1.0 / np.sqrt(2.0)
_W = np.zeros(8, dtype=complex)
_W[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
_WT = np.zeros(8, dtype=complex)
_WT[[3, 5, 6]] = 1.0 / np.sqrt(3.0)


def _mixture(q1, q2):
    return sum(q * np.outer(v, v.conj()) for q, v in ((q1, _GHZ), (q2, _W), (1.0 - q1 - q2, _WT)))


def random_canonical(rng, subclass):
    """Canonical GHZ-class parameters with the subclass's zero pattern."""
    l1, l2, l3 = (rng.uniform(0.1, 1.0) if nz else 0.0 for nz in SUBCLASS_PATTERNS[subclass])
    lams = np.array([rng.uniform(0.2, 1.0), l1, l2, l3, rng.uniform(0.2, 1.0)])
    lams /= np.linalg.norm(lams)
    return classify3.CanonicalThreeQubit(*lams.tolist())


def _three_qubit_deck(rng):
    grid = [(i / GRID_STEP, j / GRID_STEP)
            for i in range(GRID_STEP + 1) for j in range(GRID_STEP + 1 - i)]
    picks = rng.choice(len(grid), THREE_QUBIT_GRID, replace=False)
    grid_ops = [_grid_op(*grid[k]) for k in picks]
    canon_ops = [_canonical_op(random_canonical(rng, s), s)
                 for _ in range(THREE_QUBIT_CANONICAL_PER_PATTERN)
                 for s in SUBCLASS_PATTERNS]
    pure_ops = [_pure_op(random_pure(rng, 8)) for _ in range(THREE_QUBIT_PURE)]
    mixed_ops = [_mixed_op(random_mixed(rng, 8)) for _ in range(THREE_QUBIT_MIXED)]
    deck = []
    for i, ops in enumerate(zip(grid_ops, canon_ops, pure_ops)):
        deck += ops
        if i % 3 == 2:
            deck.append(mixed_ops[i // 3])
    return deck


def _check_slocc(errors, verdict, mat):
    lams, outcome = oracle.slocc(mat)
    for q, got, want in zip("ABC", verdict.lambdas, lams):
        _expect(errors, f"lambda_min:{q}", got, want)
    if verdict.outcome.value != outcome:
        errors.append(f"slocc: verdict {verdict.outcome.value}, oracle {outcome}")
    return (verdict.outcome.value,) + tuple(float(x).hex() for x in verdict.lambdas)


def _grid_op(q1, q2):
    def check(rep):
        errors = []
        return errors, _check_slocc(errors, rep.verdict, _mixture(q1, q2))

    return Op("grid", lambda: classify3.ghz_w_mixture_analysis(q1, q2), check)


def _canonical_op(params, subclass):
    v = np.zeros(8, dtype=complex)
    v[[0, 4, 5, 6, 7]] = params.lambdas

    def run():
        rep = classify3.classify_ghz_subclass(params)
        fids = classify3.subclass_fidelities(params, rep.subclass)
        rho = classify3.canonical_projector(params)
        return rep, fids, classify3.correlation_tensors(rho), classify3.slocc_classify(rho)

    def check(out):
        rep, fids, ct, verdict = out
        errors = []
        if rep.subclass != subclass:
            errors.append(f"subclass {rep.subclass}, generated as {subclass}")
        if not all(2.0 / 3.0 - 1e-12 <= f <= 1.0 + 1e-12 for f in fids):
            errors.append(f"teleportation fidelities {fids} outside [2/3, 1]")
        ref = oracle.correlation_tensors(np.outer(v, v.conj()))
        got = np.stack([ct.Tx, ct.Ty, ct.Tz])
        if not np.allclose(got, ref, rtol=0.0, atol=oracle.TOL):
            errors.append(f"correlation tensors differ by {np.max(np.abs(got - ref))!r}")
        fp = _check_slocc(errors, verdict, np.outer(v, v.conj()))
        return errors, (rep.subclass, rep.negative, tuple(float(f).hex() for f in fids),
                        got.tobytes(), fp)

    return Op("canonical", run, check)


def _pure_op(psi):
    def run():
        return (classify3.slocc_classify(psi), measures.tangle_pure(psi),
                measures.three_pi(psi))

    def check(out):
        verdict, tau, pi3 = out
        errors = []
        fp = _check_slocc(errors, verdict, np.outer(psi, psi.conj()))
        _expect(errors, "tangle", tau.value, oracle.tangle(psi))
        _expect(errors, "three_pi", pi3.value, oracle.three_pi(psi))
        return errors, fp + (float(tau.value).hex(), float(pi3.value).hex())

    return Op("pure", run, check)


def _mixed_op(mat):
    def check(verdict):
        errors = []
        return errors, _check_slocc(errors, verdict, mat)

    return Op("mixed",
              lambda: classify3.slocc_classify(linalg.validate_density(mat, [2, 2, 2])),
              check)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _cli_states(rng):
    """(label, DensityMatrix, is_pure) for every state file the deck uses.

    Every bipartite state except the PPT families is NPT with a margin, so
    which files take the criterion-1 witness path is fixed by the deck.
    """
    dm = linalg.DensityMatrix
    out = []
    for d in (2, 3, 4):
        out += [(f"dense-{d}x{d}-{i}", dm(random_npt(rng, d), (d, d)), False)
                for i in range(CLI_RANDOM_PER_KIND)]
    for d in (2, 3):
        out += [(f"separable-{d}x{d}-{i}", dm(random_separable(rng, d), (d, d)), False)
                for i in range(CLI_SEPARABLE_PER_KIND)]
    for i in range(CLI_FAMILY_PER_KIND):
        x_a = rng.uniform(0.02, 0.15)
        x_f = rng.uniform(x_a + 0.05, 0.5 - x_a) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        out += [
            (f"werner-{i}", states.werner_state(rng.uniform(0.4, 0.95)), False),
            (f"x-state-{i}", states.x_state(x_a, 0.5 - x_a, x_f), False),
            (f"mems-{i}", states.mems_state(rng.uniform(0.2, 1.0)), False),
            (f"isotropic-{i}", states.isotropic_two_qutrit(rng.uniform(0.35, 0.9)), False),
            (f"horodecki-{i}", states.horodecki_bound_entangled(rng.uniform(0.1, 0.9)), False),
            # alpha in (3, 4]: PPT (bound) entangled, so criterion1 finds no witness.
            (f"qutrit-alpha-{i}", states.two_qutrit_alpha_state(rng.uniform(3.2, 3.9)), False),
            (f"ghz-werner-{i}", states.ghz_werner_state(rng.uniform(0.1, 0.9)), False),
            (f"kay-{i}", states.kay_state(rng.uniform(2.0, 5.0)), False),
            (f"ghz-w-{i}", states.ghz_w_mixture(rng.uniform(0.0, 1.0)), False),
        ]
    out.append(("pptes", states.pptes_two_qutrit(), False))
    for i in range(CLI_THREE_QUBIT_RANDOM):
        psi = random_pure(rng, 8)
        out += [(f"dense-8-{i}", dm(random_mixed(rng, 8), (2, 2, 2)), False),
                (f"pure-8-{i}", dm(np.outer(psi, psi.conj()), (2, 2, 2)), True)]
    return out


def write_states(rng, scratch):
    """Write the deck's state files; returns (path, matrix, dims, is_pure)."""
    files = []
    for label, rho, pure in _cli_states(rng):
        path = os.path.join(scratch, f"{label}.json")
        cli.write_state_file(path, rho, label)
        files.append((path, rho.mat, list(rho.dims), pure))
    return files


def _cli_deck(rng, scratch):
    deck = [_cli_op(["reproduce", tid], _check_reproduce) for tid in REPRODUCE_IDS]
    for path, mat, dims, pure in write_states(rng, scratch):
        if len(dims) == 2:
            flags = ["--ppt", "--realign", "--reduce", "--criterion1"]
            if dims == [2, 2]:
                flags += ["--criterion2", "--criterion3"]
            deck.append(_cli_op(["detect", path] + flags, _check_detect(mat, dims)))
            deck.append(_cli_op(["measure", path], _check_measure(mat, dims, pure)))
        else:
            deck.append(_cli_op(["classify3", path], _check_classify3(mat)))
            deck.append(_cli_op(["measure", path], _check_measure(mat, dims, pure)))
    for subclass in SUBCLASS_PATTERNS:
        params = random_canonical(rng, subclass)
        v = np.zeros(8, dtype=complex)
        v[[0, 4, 5, 6, 7]] = params.lambdas
        argv = ["classify3", "--canonical"] + [repr(x) for x in params.lambdas]
        deck.append(_cli_op(argv, _check_classify3(np.outer(v, v.conj()))))
    return deck


def _cli_op(argv, check_report):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, stdout, stderr = result
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"], result
        return check_report(json.loads(stdout)), result

    return Op(argv[0], run, check)


def _results(report):
    return {r["name"]: r for r in report["results"]}


def _check_reproduce(report):
    if report["status"] != "match":
        return [f"reproduce {report['id']}: {report['status']}"]
    return []


def _check_detect(mat, dims):
    def check(report):
        ref = oracle.bipartite(mat, dims)
        errors = []
        got = _results(report)
        for name in ("ppt", "realignment", "reduction"):
            value, verdict = ref[name]
            _expect(errors, name, got[name]["value"], value)
            if got[name]["verdict"] != verdict:
                errors.append(f"{name}: verdict {got[name]['verdict']}, oracle {verdict}")
        return errors

    return check


def _check_measure(mat, dims, pure):
    def check(report):
        errors = []
        got = _results(report)
        want = {"coherence": oracle.l1_coherence(mat)}
        if len(dims) == 2:
            ref = oracle.bipartite(mat, dims)
            want["negativity"] = ref["negativity"]
            want["structured-negativity"] = ref["structured_negativity"]
            want["concurrence-lb"] = ref["concurrence_lb"]
        if dims == [2, 2]:
            want["concurrence"] = oracle.concurrence_2q(mat)
        elif pure:
            psi = oracle.top_vector(mat)
            want["tangle"] = oracle.tangle(psi)
            want["three-pi"] = oracle.three_pi(psi)
        if set(got) != set(want):
            errors.append(f"measures {sorted(got)}, expected {sorted(want)}")
        for name in set(got) & set(want):
            tol = oracle.SQRT_TOL if name == "concurrence" else oracle.TOL
            _expect(errors, name, got[name]["value"], want[name], tol)
        return errors

    return check


def _check_classify3(mat):
    def check(report):
        got = _results(report)
        lams, outcome = oracle.slocc(mat)
        errors = []
        for q, want in zip("ABC", lams):
            _expect(errors, f"lambda_min:{q}", got[f"lambda_min:{q}"]["value"], want)
        if got["slocc"]["verdict"] != outcome:
            errors.append(f"slocc: verdict {got['slocc']['verdict']}, oracle {outcome}")
        return errors

    return check


def reproduce_bytes(table_id):
    """Report bytes ``qent reproduce <table_id>`` prints."""
    code, stdout, _ = _cli_op(["reproduce", table_id], None).run()
    return stdout.encode("utf-8") if code == 0 else b""
