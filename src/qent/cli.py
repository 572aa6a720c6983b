"""Command-line surface.

Four subcommands:

* ``qent detect FILE``     — run detection criteria on a density matrix;
* ``qent measure FILE``    — evaluate entanglement/coherence measures;
* ``qent classify3``       — SLOCC-classify a three-qubit state (from a
  file or from canonical parameters);
* ``qent reproduce ID``    — regenerate a bundled reference table or curve
  and diff it against golden data.

State files are JSON documents with keys ``dims`` (list of subsystem
dimensions) and ``matrix`` (row-major nested array whose entries are
``[re, im]`` pairs), plus an optional ``label``.  Reports are printed as
deterministic JSON (sorted keys, native float repr) so identical inputs
produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 file parse error, 3 validation
error (density-matrix invariant violation or golden-data mismatch).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .classify3 import (
    CanonicalThreeQubit,
    canonical_projector,
    classify_ghz_subclass,
    ghz_witness_value,
    slocc_classify,
    subclass_fidelities,
)
from .detect import (
    Outcome,
    criterion1 as _criterion1,
    criterion2 as _criterion2,
    criterion3 as _criterion3,
    ppt_check,
    realignment_check,
    reduction_check,
    witness_from_pure,
)
from .errors import DensityMatrixError, DimensionError, NotAWitness, NotGHZClass
from .linalg import (
    SLACK,
    DensityMatrix,
    expectation,
    validate_density,
)
from .measures import (
    concurrence_2q,
    concurrence_lb_chen,
    l1_coherence,
    negativity,
    structured_negativity,
    tangle_pure,
    three_pi,
)
from .spa import spa_pt_qutrit_qubit, spa_pt_two_qubit, spa_witness
from .states import (
    mems_state,
    qutrit_qubit_alpha_state,
    two_qutrit_a_state,
    two_qutrit_alpha_state,
    werner_state,
    x_state,
    x_state_concurrence,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

TABLE_TOL = 1e-3
CURVE_TOL = 1e-9


class UsageError(Exception):
    """Command-line misuse (bad flags, wrong dimensions for a criterion)."""


class ParseError(Exception):
    """Malformed state file."""


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------

def parse_state_file(path):
    """Parse a state file into ``(label, DensityMatrix)``.

    Raises ParseError for malformed documents and the density-matrix
    validation errors for well-formed but unphysical matrices.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("dims", "matrix"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field {key!r}")
    try:
        dims = [int(d) for d in doc["dims"]]
        rows = doc["matrix"]
        mat = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: field 'matrix' must hold [re, im] pairs ({exc})") from None
    if not np.all(np.isfinite(mat)):
        raise ParseError(f"{path}: field 'matrix' has NaN or infinite entries")
    label = doc.get("label", os.path.basename(path))
    return label, validate_density(mat, dims)


def state_document(rho: DensityMatrix, label=None):
    """Canonical document form of a density matrix."""
    doc = {
        "dims": [int(d) for d in rho.dims],
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.mat],
    }
    if label is not None:
        doc["label"] = str(label)
    return doc


def document_bytes(doc):
    """Canonical byte serialization of a report or state document."""
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


def write_state_file(path, rho: DensityMatrix, label=None):
    """Write a state file in canonical form (round-trip stable)."""
    with open(path, "wb") as fh:
        fh.write(document_bytes(state_document(rho, label)))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _emit(report, out_path):
    payload = document_bytes(report)
    sys.stdout.write(payload.decode("utf-8"))
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)


def _entry(name, value, verdict=None):
    e = {"name": name, "value": value}
    if verdict is not None:
        e["verdict"] = verdict
    return e


def _verdict_entry(v):
    return _entry(v.criterion, float(v.evidence), v.outcome.value)


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def _npt_spa_witness(rho: DensityMatrix):
    """SPA witness from the most negative partial-transpose eigenvector.

    Returns None when the state is PPT (no witness of this form exists).
    """
    spec = rho.pt_spectrum
    if spec.eigenvalues[0] >= -SLACK:
        return None
    psi = spec.vectors[:, 0]
    w = witness_from_pure(psi, 1, list(rho.dims))
    return spa_witness(w, rho.dims[0], rho.dims[1])


def cmd_detect(args):
    label, rho = parse_state_file(args.state)
    chosen = [name for name in ("ppt", "realign", "reduce",
                                "criterion1", "criterion2", "criterion3")
              if getattr(args, name)]
    if not chosen:
        chosen = ["ppt", "realign", "reduce"]
    if len(rho.dims) != 2:
        raise UsageError("detect needs a bipartite state file")
    results = []
    for name in chosen:
        if name == "ppt":
            results.append(_verdict_entry(ppt_check(rho)))
        elif name == "realign":
            results.append(_verdict_entry(realignment_check(rho)))
        elif name == "reduce":
            results.append(_verdict_entry(reduction_check(rho)))
        elif name == "criterion1":
            sw = _npt_spa_witness(rho)
            if sw is None:
                results.append(_entry("criterion1", None, Outcome.Inconclusive.value))
            else:
                results.append(_verdict_entry(_criterion1(rho, sw)))
        else:
            if list(rho.dims) != [2, 2]:
                raise UsageError(f"{name} needs a two-qubit state")
            spa = spa_pt_two_qubit(rho)
            c = concurrence_2q(rho).value
            fn = _criterion2 if name == "criterion2" else _criterion3
            results.append(_verdict_entry(fn(rho, spa, c)))
    _emit({
        "command": "detect",
        "input": label,
        "results": results,
        "tolerances": {"slack": SLACK},
        "version": __version__,
    }, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

_MEASURES = ("negativity", "structured-negativity", "concurrence",
             "concurrence-lb", "coherence", "tangle", "three-pi")


def _pure_vector(rho: DensityMatrix):
    """Amplitude vector if ``rho`` is (numerically) pure, else None."""
    if abs(float(np.trace(rho.mat @ rho.mat).real) - 1.0) > 1e-9:
        return None
    return rho.spectrum.vectors[:, -1]


def _default_measures(rho: DensityMatrix):
    dims = list(rho.dims)
    if dims == [2, 2]:
        return ["negativity", "structured-negativity", "concurrence",
                "concurrence-lb", "coherence"]
    if len(dims) == 2 and dims[0] == dims[1]:
        return ["negativity", "structured-negativity", "concurrence-lb", "coherence"]
    if dims == [2, 2, 2]:
        base = ["coherence"]
        if _pure_vector(rho) is not None:
            base += ["tangle", "three-pi"]
        return base
    if len(dims) == 2:
        return ["negativity", "coherence"]
    return ["coherence"]


def cmd_measure(args):
    label, rho = parse_state_file(args.state)
    names = list(args.measures) if args.measures else _default_measures(rho)
    results = []
    for name in names:
        if name not in _MEASURES:
            raise UsageError(f"unknown measure {name!r}; choose from {', '.join(_MEASURES)}")
        if name == "negativity":
            mv = negativity(rho)
        elif name == "structured-negativity":
            mv = structured_negativity(rho)
        elif name == "concurrence":
            if list(rho.dims) != [2, 2]:
                raise UsageError("concurrence needs a two-qubit state")
            mv = concurrence_2q(rho)
        elif name == "concurrence-lb":
            mv = concurrence_lb_chen(rho)
        elif name == "coherence":
            mv = l1_coherence(rho)
        else:
            if list(rho.dims) != [2, 2, 2]:
                raise UsageError(f"{name} needs a three-qubit state")
            v = _pure_vector(rho)
            if v is None:
                raise UsageError(f"{name} is defined here for pure states only")
            mv = tangle_pure(v) if name == "tangle" else three_pi(v)
        results.append(_entry(name, float(mv.value)))
    _emit({
        "command": "measure",
        "input": label,
        "results": results,
        "version": __version__,
    }, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify3
# ---------------------------------------------------------------------------

def cmd_classify3(args):
    if (args.state is None) == (args.canonical is None):
        raise UsageError("classify3 needs exactly one of: a state file, --canonical")
    results = []
    if args.canonical is not None:
        try:
            params = CanonicalThreeQubit(*args.canonical)
        except DimensionError as exc:
            raise UsageError(str(exc)) from None
        label = "canonical(" + ", ".join(repr(x) for x in args.canonical) + ")"
        rho = canonical_projector(params)
        verdict = slocc_classify(rho)
        try:
            rep = classify_ghz_subclass(params)
            for name in sorted(rep.values):
                results.append(_entry(f"witness:{name}", float(rep.values[name]),
                                      "negative" if name in rep.negative else "nonnegative"))
            results.append(_entry("subclass", None, rep.subclass))
            try:
                fids = subclass_fidelities(params, rep.subclass)
            except DimensionError:
                # The fidelity closed forms cover specific zero patterns only
                # (e.g. the lambda1,lambda2 variant of S3); skip otherwise.
                fids = None
            if fids is not None:
                for qubit, f in zip("ABC", fids):
                    results.append(_entry(f"fidelity:{qubit}", float(f)))
        except NotGHZClass:
            results.append(_entry("subclass", None, "NotGHZClass"))
    else:
        label, rho = parse_state_file(args.state)
        if list(rho.dims) != [2, 2, 2]:
            raise UsageError("classify3 needs a three-qubit state")
        verdict = slocc_classify(rho)
    for qubit, lam in zip("ABC", verdict.lambdas):
        results.append(_entry(f"lambda_min:{qubit}", float(lam)))
    results.append(_entry("slocc", None, verdict.outcome.value))
    _emit({
        "command": "classify3",
        "input": label,
        "results": results,
        "tolerances": {"slack": SLACK},
        "version": __version__,
    }, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

_T21_PARAMS = [(0.05, 0.45, 0.4 + 0.1j), (0.1, 0.4, 0.25 + 0.25j),
               (0.15, 0.35, 0.24 + 0.2j), (0.2, 0.3, 0.27 + 0.13j)]
_T22_PARAMS = [(0.05, 0.45, 0.2 + 0.2j), (0.1, 0.4, 0.25 + 0.25j),
               (0.15, 0.35, 0.24 + 0.2j), (0.2, 0.3, 0.27 + 0.13j)]
_T31_PARAMS = [(0.8, 0.3, 0.2955), (0.9, 0.4, 0.559), (0.91, 0.8, 0.455),
               (0.85, 0.35, 0.44), (0.88, 0.8, 0.3175), (0.78, 0.3, 0.214),
               (0.95, 0.4, 0.695), (0.83, 0.45, 0.285)]
_T51_PARAMS = [(0.7, 0.1, 0.707107), (0.3, 0.4, 0.866), (0.7, 0.3, 0.648),
               (0.1, 0.2, 0.9747), (0.2, 0.4, 0.8944)]
_T52_PARAMS = [(0.1, 0.4, 0.911), (0.2, 0.4, 0.8944), (0.6, 0.1, 0.7937),
               (0.5, 0.4, 0.7681)]


def _x_witness_avg(a, b, f):
    """Tr(W_tilde rho) for the symmetric X family and its tuned witness."""
    rho = x_state(a, b, f)
    k = -f / abs(f)
    psi = np.array([k, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    sw = spa_witness(witness_from_pure(psi, 1, [2, 2]), 2, 2)
    return rho, float(expectation(sw.w_tilde, rho))


def _qutrit_qubit_witness(alpha):
    """SPA witness (p = 1/4) for the qutrit-qubit alpha family."""
    kappa = (alpha + np.sqrt(4.0 - 8.0 * alpha + 5.0 * alpha ** 2)) / (2.0 * (1.0 - alpha))
    chi = np.zeros(6, dtype=complex)
    chi[3] = -kappa          # |11> in the 3x2 basis
    chi[4] = 1.0             # |20>
    chi /= np.linalg.norm(chi)
    return spa_witness(witness_from_pure(chi, 1, [3, 2]), 3, 2, p=0.25)


def _gen_2_1():
    rows = []
    for a, b, f in _T21_PARAMS:
        rho, favg = _x_witness_avg(a, b, f)
        rows.append([a, b, f.real, f.imag, favg])
    return {"columns": ["a", "b", "re_f", "im_f", "F_avg_witness"], "rows": rows}


def _gen_2_2():
    rows = []
    for a, b, f in _T22_PARAMS:
        rho, favg = _x_witness_avg(a, b, f)
        spa = spa_pt_two_qubit(rho)
        upper = float(expectation(spa.rho_tilde.mat, rho))
        rows.append([a, b, f.real, f.imag, favg, upper, x_state_concurrence(a, f)])
    return {"columns": ["a", "b", "re_f", "im_f", "F_avg_witness",
                        "F_avg_spa", "concurrence"], "rows": rows}


def _gen_2_3():
    rows = []
    for a, b, f in _T22_PARAMS:
        rho = x_state(a, b, f)
        spa = spa_pt_two_qubit(rho)
        lam = float(spa.rho_tilde.spectrum.eigenvalues[0])
        v = _criterion2(rho, spa, x_state_concurrence(a, f))
        rows.append([a, b, f.real, f.imag, lam,
                     1.0 if v.outcome is Outcome.ConditionSatisfied else 0.0])
    return {"columns": ["a", "b", "re_f", "im_f", "lambda_min", "criterion2_ok"],
            "rows": rows}


def _gen_3_1():
    rows = []
    for a, c, p in _T31_PARAMS:
        b = np.sqrt(1.0 - a * a)
        d = np.sqrt(1.0 - c * c)
        params = CanonicalThreeQubit(np.sqrt(p) * a, 0.0, np.sqrt(1.0 - p) * d,
                                     np.sqrt(1.0 - p) * c, np.sqrt(p) * b)
        rows.append([a, c, p,
                     ghz_witness_value(params, "H4"),
                     ghz_witness_value(params, "H5"),
                     ghz_witness_value(params, "H6")])
    return {"columns": ["a", "c", "p", "H4", "H5", "H6"], "rows": rows}


def _gen_5_1():
    rows = []
    for l0, l1, l2 in _T51_PARAMS:
        v = np.zeros(8, dtype=complex)
        v[0], v[4], v[7] = l0, l1, l2
        lams = slocc_classify(v).lambdas
        rows.append([l0, l1, l2, lams[0], lams[1], max(lams)])
    return {"columns": ["l0", "l1", "l2", "lam_A", "lam_BC", "lam_max"], "rows": rows}


def _gen_5_2():
    rows = []
    for l0, l1, l2 in _T52_PARAMS:
        v = np.zeros(8, dtype=complex)
        v[1], v[5], v[7] = l0, l1, l2
        lams = slocc_classify(v).lambdas
        rows.append([l0, l1, l2, lams[0], lams[2]])
    return {"columns": ["l0", "l1", "l2", "lam_AB", "lam_C"], "rows": rows}


def _gen_fig2_1():
    rows = []
    for i in range(20):
        alpha = i / 20.0
        rho = qutrit_qubit_alpha_state(alpha)
        sw = _qutrit_qubit_witness(alpha)
        spa = spa_pt_qutrit_qubit(rho)
        lower = (1.0 - sw.p) / (sw.p * 6.0) - float(expectation(sw.w_tilde, rho)) / sw.p
        upper = float(expectation(spa.rho_tilde.mat, rho))
        rows.append([alpha, lower, upper])
    return {"columns": ["alpha", "concurrence_lower", "concurrence_upper"], "rows": rows}


def _curve(rho):
    return [negativity(rho).value, structured_negativity(rho).value,
            concurrence_lb_chen(rho).value]


def _gen_fig6_1():
    rows = []
    for i in range(14):
        f = 0.35 + 0.05 * i
        rows.append([f] + _curve(werner_state(f)))
    return {"columns": ["F", "negativity", "structured_negativity",
                        "concurrence_lb"], "rows": rows}


def _gen_fig6_2():
    rows = []
    for i in range(11):
        c = 2.0 / 3.0 + (1.0 / 3.0) * i / 10.0
        rows.append([c] + _curve(mems_state(c)))
    return {"columns": ["C", "negativity", "structured_negativity",
                        "concurrence_lb"], "rows": rows}


def _gen_fig6_3():
    rows = []
    for i in range(11):
        c = (2.0 / 3.0) * i / 10.0
        rows.append([c] + _curve(mems_state(c)))
    return {"columns": ["C", "negativity", "structured_negativity",
                        "concurrence_lb"], "rows": rows}


def _gen_fig6_4():
    lo = 1.0 / np.sqrt(2.0)
    rows = []
    for i in range(11):
        a = lo + (1.0 - lo) * i / 10.0
        rows.append([a] + _curve(two_qutrit_a_state(a)))
    return {"columns": ["a", "negativity", "structured_negativity",
                        "concurrence_lb"], "rows": rows}


def _gen_fig6_5():
    rows = []
    for i in range(11):
        alpha = 4.0 + i / 10.0
        rows.append([alpha] + _curve(two_qutrit_alpha_state(alpha)))
    return {"columns": ["alpha", "negativity", "structured_negativity",
                        "concurrence_lb"], "rows": rows}


_GENERATORS = {
    "2.1": (_gen_2_1, "table"),
    "2.2": (_gen_2_2, "table"),
    "2.3": (_gen_2_3, "table"),
    "3.1": (_gen_3_1, "table"),
    "5.1": (_gen_5_1, "table"),
    "5.2": (_gen_5_2, "table"),
    "fig2.1": (_gen_fig2_1, "curve"),
    "fig6.1": (_gen_fig6_1, "curve"),
    "fig6.2": (_gen_fig6_2, "curve"),
    "fig6.3": (_gen_fig6_3, "curve"),
    "fig6.4": (_gen_fig6_4, "curve"),
    "fig6.5": (_gen_fig6_5, "curve"),
}


def load_golden(table_id):
    """Load golden data for a table id, honoring QENT_GOLDEN_DIR."""
    override = os.environ.get("QENT_GOLDEN_DIR")
    if override:
        path = os.path.join(override, f"{table_id}.json")
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    ref = resources.files("qent").joinpath("golden").joinpath(f"{table_id}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def reproduce(table_id, tol=None):
    """Regenerate a reference table/curve and diff it against golden data.

    Returns ``(report, mismatched)``.
    """
    if table_id not in _GENERATORS:
        raise UsageError(f"unknown table id {table_id!r}; choose from "
                         + ", ".join(sorted(_GENERATORS)))
    gen, kind = _GENERATORS[table_id]
    data = gen()
    if tol is None:
        tol = TABLE_TOL if kind == "table" else CURVE_TOL
    try:
        golden = load_golden(table_id)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"golden data for {table_id}: {exc}") from None
    diffs = []
    cell_diffs = []
    if len(golden["rows"]) != len(data["rows"]):
        diffs.append("row count differs")
    else:
        for i, (grow, row) in enumerate(zip(golden["rows"], data["rows"])):
            if len(grow) != len(row):
                diffs.append(f"row {i}: {len(row)} cells, golden {len(grow)}")
            for j, (g, v) in enumerate(zip(grow, row)):
                d = abs(float(g) - float(v))
                cell_diffs.append(d)
                # Written so that a NaN cell counts as a mismatch.
                if not d <= tol:
                    diffs.append(f"row {i} col {data['columns'][j]}: "
                                 f"got {v!r}, golden {g!r}")
    # max() would skip a NaN difference, and JSON has no NaN: report null.
    max_diff = max(cell_diffs, default=0.0) if all(map(math.isfinite, cell_diffs)) else None
    report = {
        "command": "reproduce",
        "id": table_id,
        "kind": kind,
        "columns": data["columns"],
        "rows": data["rows"],
        "max_abs_diff": max_diff,
        "mismatches": diffs,
        "status": "match" if not diffs else "mismatch",
        "tolerances": {"tol": tol},
        "version": __version__,
    }
    return report, bool(diffs)


def cmd_reproduce(args):
    report, mismatched = reproduce(args.table_id, args.tol)
    _emit(report, args.out)
    return EXIT_VALIDATION if mismatched else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def tolerance(text):
    """argparse type for ``--tol``: a finite, nonnegative float."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


def build_parser():
    parser = _Parser(prog="qent",
                     description="Entanglement detection, measurement, and "
                                 "classification for low-dimensional states.")
    parser.add_argument("--version", action="version", version=f"qent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run detection criteria on a state file")
    p.add_argument("state", help="path to a state file")
    p.add_argument("--ppt", action="store_true", help="partial-transpose criterion")
    p.add_argument("--realign", action="store_true", help="realignment criterion")
    p.add_argument("--reduce", action="store_true", help="reduction criterion")
    p.add_argument("--criterion1", action="store_true", help="SPA witness criterion")
    p.add_argument("--criterion2", action="store_true",
                   help="SPA eigenvalue-floor check (two-qubit)")
    p.add_argument("--criterion3", action="store_true",
                   help="SPA tightened upper-bound criterion (two-qubit)")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("measure", help="evaluate measures on a state file")
    p.add_argument("state", help="path to a state file")
    p.add_argument("measures", nargs="*",
                   help=f"measures to evaluate (default: all applicable); "
                        f"choices: {', '.join(_MEASURES)}")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("classify3", help="classify a three-qubit state")
    p.add_argument("state", nargs="?", help="path to a three-qubit state file")
    p.add_argument("--canonical", nargs=5, type=float,
                   metavar=("L0", "L1", "L2", "L3", "L4"),
                   help="canonical pure-state parameters instead of a file")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_classify3)

    p = sub.add_parser("reproduce", help="regenerate a reference table or curve")
    p.add_argument("table_id", help="one of: " + ", ".join(sorted(_GENERATORS)))
    p.add_argument("--tol", type=tolerance, default=None,
                   help="per-cell tolerance (default 1e-3 tables, 1e-9 curves)")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"qent: error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        sys.stderr.write(f"qent: parse error: {exc}\n")
        return EXIT_PARSE
    except (DensityMatrixError, DimensionError, NotAWitness, NotGHZClass) as exc:
        sys.stderr.write(f"qent: validation error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
