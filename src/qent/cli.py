"""Command-line surface.

Four subcommands:

* ``qent detect FILE``     — run detection criteria on a density matrix;
* ``qent measure FILE``    — evaluate entanglement/coherence measures;
* ``qent classify3``       — SLOCC-classify a three-qubit state (from a
  file or from canonical parameters);
* ``qent reproduce ID``    — regenerate a bundled reference table or curve
  (see :mod:`qent.reproduce`) and diff it against golden data.

State files are JSON documents with keys ``dims`` (nonempty list of
positive subsystem dimensions) and ``matrix`` (row-major nested array whose
entries are ``[re, im]`` pairs), plus an optional ``label``.  Reports are
printed as deterministic JSON (sorted keys, native float repr) so identical
inputs produce byte-identical output.

The criteria of ``detect`` and the measures of ``measure`` are tables whose
entries name the :class:`~qent.linalg.Shape` their library function requires
(``tangle`` and ``three-pi`` also need a pure state).  With no names given, a
command runs every default entry that fits the state; a name that does not
fit is a usage error, raised before anything is computed.  :func:`main`
builds the argument parser on its first call and reuses it.

Exit codes: 0 success, 1 usage error, 2 file parse error, 3 validation
error (density-matrix invariant violation or golden-data mismatch).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, linalg
from .classify3 import (
    CanonicalThreeQubit,
    canonical_projector,
    classify_ghz_subclass,
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
from .linalg import CURVE_TOL, SLACK, TABLE_TOL, DensityMatrix, validate_density
from .measures import (
    concurrence_2q,
    concurrence_lb_chen,
    l1_coherence,
    negativity,
    structured_negativity,
    tangle_pure,
    three_pi,
)
from .reproduce import TABLES
from .spa import spa_pt_two_qubit, spa_witness

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    """Command-line misuse (bad flags, wrong dimensions for a criterion)."""


class ParseError(Exception):
    """Malformed state file."""


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------

def _positive_int(d):
    """A JSON number that is a whole number >= 1 (``2.0`` counts, ``true`` does not)."""
    return (type(d) is int or type(d) is float and d.is_integer()) and d >= 1


def _matrix(rows):
    """The complex matrix of a ``matrix`` field: rows of ``[re, im]`` pairs of
    JSON numbers (``true`` is not one).  A field with no cells at all, such as
    ``[]`` or ``[[]]``, gives an empty array, which validation refuses."""
    cells = np.array(rows, dtype=object)
    if not cells.size and cells.ndim < 3:
        return np.zeros(cells.shape, dtype=complex)
    if (cells.ndim != 3 or cells.shape[-1] != 2
            or not set(map(type, cells.flat)) <= {int, float}):
        raise ValueError("not a matrix of [re, im] pairs of numbers")
    # An [re, im] pair of float64 is laid out as one complex128.
    return cells.astype(float).view(complex)[..., 0]


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
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("dims", "matrix"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field {key!r}")
    dims = doc["dims"]
    if not (isinstance(dims, list) and dims and all(map(_positive_int, dims))):
        raise ParseError(f"{path}: field 'dims' must be a nonempty list of positive "
                         f"integers, got {dims!r}")
    try:
        mat = _matrix(doc["matrix"])
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: field 'matrix' must hold [re, im] pairs ({exc})") from None
    if not np.all(np.isfinite(mat)):
        raise ParseError(f"{path}: field 'matrix' has NaN or infinite entries")
    label = doc.get("label", os.path.basename(path))
    try:
        json.dumps(label, allow_nan=False)
    except ValueError:
        raise ParseError(f"{path}: field 'label' has NaN or infinite numbers") from None
    return label, validate_density(mat, [int(d) for d in dims])


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
# Criterion and measure tables
# ---------------------------------------------------------------------------

def _pure_vector(rho: DensityMatrix):
    """Amplitude vector if ``rho`` is (numerically) pure, else None."""
    if abs(float(np.trace(rho.mat @ rho.mat).real) - 1.0) > SLACK:
        return None
    return rho.spectrum.vectors[:, -1]


def _require(shape: linalg.Shape, rho, name):
    """A usage error unless ``rho`` has the dims that ``name`` needs."""
    try:
        shape.require(rho.dims, name)
    except DimensionError as exc:
        raise UsageError(str(exc)) from None


class _Entry(NamedTuple):
    """One criterion or measure, with the :class:`~qent.linalg.Shape` its
    library function requires; ``pure`` entries take a pure state only.
    ``run`` calls through this module's globals, so a wrapper bound to one
    of those names (``bench/tracer.py`` binds them) sees the call."""

    run: Callable
    shape: linalg.Shape
    default: bool = True
    help: str = ""
    pure: bool = False

    def fits(self, rho):
        return self.shape.fits(rho.dims) and (not self.pure or _pure_vector(rho) is not None)


def _select(table, names, rho):
    """The entries of ``table`` to run on ``rho``: ``names`` if given, else
    every default entry that fits ``rho``, in table order."""
    if not names:
        return [name for name, e in table.items() if e.default and e.fits(rho)]
    for name in names:
        _require(table[name].shape, rho, name)
        if not table[name].fits(rho):
            raise UsageError(f"{name} needs a pure state")
    return names


def _criterion1_entry(rho: DensityMatrix):
    """Criterion 1 with the SPA witness of the most negative partial-transpose
    eigenvector; Inconclusive when the state is PPT (no such witness)."""
    spec = rho.pt_spectrum
    if spec.eigenvalues[0] >= -SLACK:
        return _entry("criterion1", None, Outcome.Inconclusive.value)
    w = witness_from_pure(spec.vectors[:, 0], 1, list(rho.dims))
    return _verdict_entry(_criterion1(rho, spa_witness(w, rho.dims[0], rho.dims[1])))


@functools.lru_cache(maxsize=1)
def _two_qubit_spa(rho):
    """The SPA-PT state and the concurrence of a two-qubit state, shared by
    criteria 2 and 3.  A :class:`DensityMatrix` hashes by identity, and the
    one entry holds the state it was made from."""
    return spa_pt_two_qubit(rho), concurrence_2q(rho).value


def _two_qubit_spa_entry(criterion, rho):
    return _verdict_entry(criterion(rho, *_two_qubit_spa(rho)))


_CRITERIA = {
    "ppt": _Entry(lambda rho: _verdict_entry(ppt_check(rho)), linalg.BIPARTITE,
                  help="partial-transpose criterion"),
    "realign": _Entry(lambda rho: _verdict_entry(realignment_check(rho)), linalg.SQUARE,
                      help="realignment criterion"),
    "reduce": _Entry(lambda rho: _verdict_entry(reduction_check(rho)), linalg.BIPARTITE,
                     help="reduction criterion"),
    "criterion1": _Entry(_criterion1_entry, linalg.BIPARTITE, False, "SPA witness criterion"),
    "criterion2": _Entry(lambda rho: _two_qubit_spa_entry(_criterion2, rho), linalg.TWO_QUBIT,
                         False, "SPA eigenvalue-floor check (two-qubit)"),
    "criterion3": _Entry(lambda rho: _two_qubit_spa_entry(_criterion3, rho), linalg.TWO_QUBIT,
                         False, "SPA tightened upper-bound criterion (two-qubit)"),
}

_MEASURES = {
    "negativity": _Entry(lambda rho: negativity(rho), linalg.PROPER_BIPARTITE),
    "structured-negativity": _Entry(lambda rho: structured_negativity(rho), linalg.PROPER_SQUARE),
    "concurrence": _Entry(lambda rho: concurrence_2q(rho), linalg.TWO_QUBIT),
    "concurrence-lb": _Entry(lambda rho: concurrence_lb_chen(rho), linalg.PROPER_SQUARE),
    "coherence": _Entry(lambda rho: l1_coherence(rho), linalg.ANY),
    "tangle": _Entry(lambda rho: tangle_pure(_pure_vector(rho)), linalg.THREE_QUBIT, pure=True),
    "three-pi": _Entry(lambda rho: three_pi(_pure_vector(rho)), linalg.THREE_QUBIT, pure=True),
}


def cmd_detect(args):
    label, rho = parse_state_file(args.state)
    _require(linalg.BIPARTITE, rho, "detect")
    names = _select(_CRITERIA, [name for name in _CRITERIA if getattr(args, name)], rho)
    _emit({
        "command": "detect",
        "input": label,
        "results": [_CRITERIA[name].run(rho) for name in names],
        "tolerances": {"slack": SLACK},
        "version": __version__,
    }, args.out)
    return EXIT_OK


def cmd_measure(args):
    label, rho = parse_state_file(args.state)
    for name in args.measures:
        if name not in _MEASURES:
            raise UsageError(f"unknown measure {name!r}; choose from {', '.join(_MEASURES)}")
    names = _select(_MEASURES, args.measures, rho)
    _emit({
        "command": "measure",
        "input": label,
        "results": [_entry(name, float(_MEASURES[name].run(rho).value)) for name in names],
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
        _require(linalg.THREE_QUBIT, rho, "classify3")
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

def load_golden(table_id):
    """Load golden data for a table id, honoring QENT_GOLDEN_DIR."""
    override = os.environ.get("QENT_GOLDEN_DIR")
    if override:
        path = os.path.join(override, f"{table_id}.json")
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    ref = resources.files("qent").joinpath("golden").joinpath(f"{table_id}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _golden_rows(golden, table_id):
    """The golden ``rows`` as lists of floats, once they are lists of JSON numbers."""
    rows = golden.get("rows") if isinstance(golden, dict) else None
    if isinstance(rows, list) and all(isinstance(row, list) for row in rows) and all(
            type(g) in (int, float) for row in rows for g in row):
        try:
            return [[float(g) for g in row] for row in rows]
        except OverflowError:  # an integer beyond the float range
            pass
    raise ParseError(f"golden data for {table_id}: 'rows' must be a list of rows of numbers")


def reproduce(table_id, tol=None):
    """Regenerate a reference table/curve and diff it against golden data.

    Returns ``(report, mismatched)``.
    """
    if table_id not in TABLES:
        raise UsageError(f"unknown table id {table_id!r}; choose from "
                         + ", ".join(sorted(TABLES)))
    table = TABLES[table_id]
    data = table.generate()
    if tol is None:
        tol = TABLE_TOL if table.kind == "table" else CURVE_TOL
    try:
        golden = _golden_rows(load_golden(table_id), table_id)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers invalid JSON and text that is not UTF-8.
        raise ParseError(f"golden data for {table_id}: {exc}") from None
    diffs = []
    cell_diffs = []
    rows_match = len(golden) == len(data["rows"])
    if not rows_match:
        diffs.append("row count differs")
    else:
        for i, (grow, row) in enumerate(zip(golden, data["rows"])):
            if len(grow) != len(row):
                diffs.append(f"row {i}: {len(row)} cells, golden {len(grow)}")
            for j, (g, v) in enumerate(zip(grow, row)):
                d = abs(g - float(v))
                cell_diffs.append(d)
                # Written so that a NaN cell counts as a mismatch.
                if not d <= tol:
                    diffs.append(f"row {i} col {data['columns'][j]}: "
                                 f"got {v!r}, golden {g!r}")
    # null when no difference can be stated: the rows could not be paired, or
    # a difference is NaN (which max() would skip, and JSON cannot hold).
    max_diff = (max(cell_diffs, default=0.0)
                if rows_match and all(map(math.isfinite, cell_diffs)) else None)
    report = {
        "command": "reproduce",
        "id": table_id,
        "kind": table.kind,
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "--tol -1e-9" (and -inf, -nan) as a value for the range check,
        # not as an unknown option; argparse's own pattern misses exponents.
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

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
    for name, criterion in _CRITERIA.items():
        p.add_argument(f"--{name}", action="store_true", help=criterion.help)
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
    p.add_argument("table_id", help="one of: " + ", ".join(sorted(TABLES)))
    p.add_argument("--tol", type=tolerance, default=None,
                   help=f"per-cell tolerance (default {TABLE_TOL:g} tables, "
                        f"{CURVE_TOL:g} curves)")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_reproduce)
    return parser


_parser = None  # built by the first main() call and reused by every later one


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
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
