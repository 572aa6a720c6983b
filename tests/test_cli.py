"""Command-line interface: file format, reports, exit codes, reproduction."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qent import cli
from qent.classify3 import CanonicalThreeQubit, subclass_fidelities
from qent.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ParseError,
    document_bytes,
    load_golden,
    main,
    parse_state_file,
    reproduce,
    state_document,
    write_state_file,
)
from qent.errors import DensityMatrixError, DimensionError
from qent.linalg import CURVE_TOL, TABLE_TOL, validate_density
from qent.reproduce import TABLES
from qent.states import (
    ghz_state,
    ghz_w_mixture,
    ghz_werner_state,
    projector,
    qutrit_qubit_alpha_state,
    two_qutrit_alpha_state,
    w_state,
    werner_state,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    write_state_file(path, werner_state(0.5), label="werner-0.5")
    return str(path)


class TestStateFiles:
    def test_round_trip_is_bit_identical(self, tmp_path, werner_file):
        with open(werner_file, "rb") as fh:
            first = fh.read()
        label, rho = parse_state_file(werner_file)
        assert label == "werner-0.5"
        again = tmp_path / "again.json"
        write_state_file(again, rho, label=label)
        assert again.read_bytes() == first

    def test_complex_entries_survive(self, tmp_path):
        mat = np.diag([0.1, 0.4, 0.4, 0.1]).astype(complex)
        mat[1, 2] = 0.25 + 0.25j
        mat[2, 1] = 0.25 - 0.25j
        rho = validate_density(mat, [2, 2])
        path = tmp_path / "x.json"
        write_state_file(path, rho)
        _, back = parse_state_file(path)
        assert np.max(np.abs(back.mat - rho.mat)) == 0.0

    @pytest.mark.parametrize("command", ["detect", "measure", "classify3"])
    def test_missing_state_file_is_a_parse_error(self, capsys, tmp_path, command):
        path = str(tmp_path / "absent.json")
        assert main([command, path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert err.count(path) == 1

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["detect", str(bad)]) == EXIT_PARSE
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"dims": [2, 2]}))
        assert main(["detect", str(missing)]) == EXIT_PARSE

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_is_a_parse_error(self, tmp_path, bad):
        doc = state_document(werner_state(0.5))
        doc["matrix"][1][2] = [bad, 0.0]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            parse_state_file(str(path))
        assert main(["detect", str(path)]) == EXIT_PARSE
        assert main(["measure", str(path)]) == EXIT_PARSE

    @pytest.mark.parametrize("matrix, code", [
        ([], EXIT_VALIDATION),
        ([[]], EXIT_VALIDATION),
        ([[], []], EXIT_VALIDATION),
        ([[[1, 0], [0, 0]]], EXIT_VALIDATION),
        ([[[]]], EXIT_PARSE),
        ([[[1, 0]], []], EXIT_PARSE),
        ([[[1, 0], [1]]], EXIT_PARSE),
        ([[[[1], [0]]]], EXIT_PARSE),
        ([[{"re": 1}]], EXIT_PARSE),
        ([1, 0], EXIT_PARSE),
        (True, EXIT_PARSE),
        ("1", EXIT_PARSE),
        ([[[1, 0, 0]]], EXIT_PARSE),
        ([[[1, None]]], EXIT_PARSE),
        ([[["1", 0]]], EXIT_PARSE),
        (float("inf"), EXIT_PARSE),
        ([[[float("inf"), 0]]], EXIT_PARSE),
        (float("nan"), EXIT_PARSE),
        ([[[float("nan"), 0]]], EXIT_PARSE),
        ([[[1, 0]]], EXIT_OK),
        ([[[1.0, -0.0]]], EXIT_OK),
    ])
    def test_matrix_shapes_and_cells_exit_codes(self, capsys, tmp_path, matrix, code):
        path = tmp_path / "shape.json"
        # json.dumps writes inf as Infinity, which json.load reads back as 1e400 does.
        path.write_text(json.dumps({"dims": [1], "matrix": matrix}))
        assert main(["measure", str(path)]) == code
        captured = capsys.readouterr()
        assert (captured.out == "") == (code != EXIT_OK)

    def test_integer_and_float_cells_parse_alike(self, tmp_path, werner_file):
        with open(werner_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["matrix"] = [[[int(x) if x.is_integer() else x for x in cell] for cell in row]
                         for row in doc["matrix"]]
        doc["matrix"][0][1] = [0, -0.0]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        _, rho = parse_state_file(str(path))
        _, want = parse_state_file(werner_file)
        assert np.signbit(rho.mat[0, 1].imag)
        rho.mat[0, 1] = want.mat[0, 1]
        assert rho.mat.tobytes() == want.mat.tobytes()

    def test_validation_error_exit_code(self, tmp_path):
        doc = state_document(werner_state(0.5))
        doc["matrix"][0][0] = [0.9, 0.0]  # breaks unit trace
        bad = tmp_path / "trace.json"
        bad.write_bytes(document_bytes(doc))
        assert main(["detect", str(bad)]) == EXIT_VALIDATION


class TestCommands:
    def _run(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, (json.loads(out) if out else None)

    def test_detect_default_battery(self, capsys, werner_file):
        code, rep = self._run(capsys, ["detect", werner_file])
        assert code == EXIT_OK
        by_name = {e["name"]: e for e in rep["results"]}
        assert by_name["ppt"]["verdict"] == "Entangled"
        assert abs(by_name["ppt"]["value"] + 0.125) <= 1e-12
        assert set(by_name) == {"ppt", "realignment", "reduction"} \
            or len(by_name) == 3

    @pytest.mark.parametrize("flags, solves", [
        # the validation's one call (the state, rho^{T_B} and rho_A (x) I -
        # rho) and the spin-flip matrix
        (["--criterion2", "--criterion3"], 4),
        # ... and the realigned matrix and the witness
        (["--ppt", "--realign", "--reduce", "--criterion1", "--criterion2", "--criterion3"], 6),
    ])
    def test_spa_criteria_share_one_spa_state_and_concurrence(
            self, capsys, solve_sizes, werner_file, flags, solves):
        solve_sizes.clear()
        assert main(["detect", werner_file] + flags) == EXIT_OK
        assert solve_sizes == [4] * solves
        both = json.loads(capsys.readouterr().out)["results"]
        alone = [self._run(capsys, ["detect", werner_file, flag])[1]["results"][0]
                 for flag in flags]
        assert both == alone

    def test_detect_report_is_byte_stable(self, capsys, werner_file):
        main(["detect", werner_file])
        first = capsys.readouterr().out
        main(["detect", werner_file])
        assert capsys.readouterr().out == first

    def test_measure_defaults_and_explicit(self, capsys, werner_file):
        code, rep = self._run(capsys, ["measure", werner_file])
        assert code == EXIT_OK
        names = [e["name"] for e in rep["results"]]
        assert "negativity" in names and "structured-negativity" in names
        code, rep = self._run(capsys, ["measure", werner_file, "negativity"])
        assert code == EXIT_OK
        assert abs(rep["results"][0]["value"] - 0.25) <= 1e-9

    def test_report_tolerances(self, capsys, werner_file):
        _, rep = self._run(capsys, ["detect", werner_file])
        assert rep["tolerances"] == {"slack": 1e-9}
        _, rep = self._run(capsys, ["measure", werner_file])
        assert "tolerances" not in rep

    def test_detect_and_measure_have_no_tol(self, capsys, werner_file):
        assert main(["detect", werner_file, "--tol=0.5"]) == EXIT_USAGE
        assert main(["measure", werner_file, "--tol=0.5"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_measure_unknown_name_is_usage_error(self, capsys, werner_file):
        assert main(["measure", werner_file, "nope"]) == EXIT_USAGE

    def test_a_measure_named_twice_runs_once_in_the_order_first_named(self, capsys, werner_file):
        argv = ["measure", werner_file, "coherence", "negativity", "coherence", "negativity"]
        code, rep = self._run(capsys, argv)
        assert code == EXIT_OK
        assert [e["name"] for e in rep["results"]] == ["coherence", "negativity"]
        _, once = self._run(capsys, ["measure", werner_file, "coherence", "negativity"])
        assert rep == once

    def test_measure_pure_three_qubit(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        write_state_file(path, projector(ghz_state(), [2, 2, 2]))
        code, rep = self._run(capsys, ["measure", str(path)])
        assert code == EXIT_OK
        by_name = {e["name"]: e["value"] for e in rep["results"]}
        assert abs(by_name["tangle"] - 1.0) <= 1e-9

    # The sha256 of each `qent measure FILE` report on a pure three-qubit
    # file of write_state_file(projector(psi, [2, 2, 2]), label=LABEL).
    _PURE_MEASURE_SHA256 = {
        "ghz": "1ea67144280e346384640b740143aa56abc0d7a8d545373a9bf72213b15ccc31",
        "w": "1097eba8e1770144441412ff50b423424eec609c2599c79fa98fa4ce6545f48e",
        "random": "5d95fd68c4861fb978fd162f865d6ef3ee3473c15c22c7d1d8b71faa6ff02148",
    }

    @pytest.mark.parametrize("label", sorted(_PURE_MEASURE_SHA256))
    def test_pure_measures_find_the_vector_once(self, capsysbinary, tmp_path, label):
        # The selection's two fits and the tangle and three-pi runs all read
        # the amplitude vector; it is computed once per state.
        rng = np.random.default_rng(7)
        psi = {"ghz": ghz_state(), "w": w_state(),
               "random": rng.normal(size=8) + 1j * rng.normal(size=8)}[label]
        path = tmp_path / f"{label}.json"
        write_state_file(path, projector(psi, [2, 2, 2]), label=label)
        cli._pure_vector.cache_clear()
        assert main(["measure", str(path)]) == EXIT_OK
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == self._PURE_MEASURE_SHA256[label]
        assert cli._pure_vector.cache_info()[:2] == (3, 1)  # hits, misses

    def test_classify3_canonical(self, capsys):
        args = ["classify3", "--canonical", "0.35", "0", "0.3", "0.864581", "0.2"]
        code, rep = self._run(capsys, args)
        assert code == EXIT_OK
        by_name = {e["name"]: e for e in rep["results"]}
        assert by_name["subclass"]["verdict"] == "S3"
        assert by_name["witness:H4"]["verdict"] == "negative"

    @pytest.mark.parametrize("params, subclass", [
        ((0.6, 0.0, 0.0, 0.0, 0.8), "S1"),
        ((0.6, 0.48, 0.0, 0.0, 0.64), "S2"),
        ((0.4, 0.4, 0.2, 0.0, 0.8), "S3"),  # the lambda1,lambda2 variant
        ((0.35, 0.1, 0.3, math.sqrt(1 - 0.35 ** 2 - 0.1 ** 2 - 0.3 ** 2 - 0.2 ** 2), 0.2), "S4"),
    ])
    def test_classify3_canonical_reports_the_fidelities(self, capsys, params, subclass):
        argv = ["classify3", "--canonical"] + [repr(x) for x in params]
        code, rep = self._run(capsys, argv)
        assert code == EXIT_OK
        by_name = {e["name"]: e for e in rep["results"]}
        assert by_name["subclass"]["verdict"] == subclass
        want = subclass_fidelities(CanonicalThreeQubit(*params), subclass)
        assert tuple(by_name[f"fidelity:{q}"]["value"] for q in "ABC") == want

    def test_classify3_canonical_without_tangle_is_not_ghz_class(self, capsys):
        code, rep = self._run(capsys, ["classify3", "--canonical", "1", "0", "0", "0", "0"])
        assert code == EXIT_OK
        assert {"name": "subclass", "value": None, "verdict": "NotGHZClass"} in rep["results"]
        assert not [e for e in rep["results"]
                    if e["name"].startswith(("witness:", "fidelity:"))]

    @pytest.mark.parametrize("name", ["tangle", "three-pi"])
    def test_pure_state_measure_of_a_mixed_state_is_usage_error(self, capsys, tmp_path, name):
        path = tmp_path / "ghz-noise.json"
        write_state_file(path, ghz_werner_state(0.3))
        assert main(["measure", str(path), name]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{name} needs a pure state" in err

    @pytest.mark.parametrize("argv", [
        ["detect", "{state}"],
        ["measure", "{state}"],
        ["classify3", "--canonical", "0.6", "0", "0", "0", "0.8"],
        ["reproduce", "2.1"],
    ])
    def test_out_file_holds_the_stdout_bytes(self, capsysbinary, tmp_path, werner_file, argv):
        out = tmp_path / "report.json"
        code = main([a.format(state=werner_file) for a in argv] + ["--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == capsysbinary.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["detect", "{state}"],
        ["measure", "{state}"],
        ["classify3", "--canonical", "0.6", "0", "0", "0", "0.8"],
        ["reproduce", "2.1"],
    ])
    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, werner_file, argv,
                                             target):
        # FileNotFoundError and IsADirectoryError escaped main before, after
        # the report was printed.
        box = tmp_path / "box"
        box.mkdir()
        out = box / target
        code = main([a.format(state=werner_file) for a in argv] + ["--out", str(out)])
        stdout, stderr = capsys.readouterr()
        assert code == EXIT_USAGE
        assert stdout == ""
        assert stderr.startswith(f"qent: error: cannot write {out}: ")
        assert stderr.count(str(out)) == 1
        assert list(box.iterdir()) == []

    def test_classify3_non_finite_canonical_is_usage_error(self, capsys):
        assert main(["classify3", "--canonical", "nan", "0.5", "0.5", "0.5", "0.5"]) == EXIT_USAGE

    def test_classify3_negative_canonical_is_usage_error(self, capsys):
        # Exited 0 with every witness negative before.
        assert main(["classify3", "--canonical", "-0.6", "0", "0", "0", "0.8"]) == EXIT_USAGE

    def test_classify3_needs_exactly_one_input(self, capsys, werner_file):
        assert main(["classify3"]) == EXIT_USAGE
        assert main(["classify3", werner_file, "--canonical",
                     "1", "0", "0", "0", "0"]) == EXIT_USAGE

    def test_usage_exit_codes(self, capsys):
        assert main(["reproduce", "no-such-table"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE  # missing subcommand


class TestReproduce:
    def test_all_tables_match(self, capsys):
        for table_id in ("2.1", "2.2", "2.3", "3.1", "5.1", "5.2",
                         "fig2.1", "fig6.1", "fig6.2", "fig6.3",
                         "fig6.4", "fig6.5"):
            code = main(["reproduce", table_id])
            rep = json.loads(capsys.readouterr().out)
            assert code == EXIT_OK, table_id
            assert rep["status"] == "match", table_id

    def test_golden_dir_override_detects_mismatch(self, capsys, tmp_path, monkeypatch):
        golden = load_golden("2.1")
        golden["rows"][0][-1] += 0.5
        (tmp_path / "2.1.json").write_text(json.dumps(golden))
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        code = main(["reproduce", "2.1"])
        rep = json.loads(capsys.readouterr().out)
        assert code == EXIT_VALIDATION
        assert rep["status"] == "mismatch"
        assert rep["mismatches"]

    def test_tol_override(self):
        report, mismatched = reproduce("2.1", tol=1e-15)
        assert mismatched  # printed five-digit values differ at this tolerance
        report, mismatched = reproduce("2.1", tol=1e-2)
        assert not mismatched

    def test_tol_help_gives_the_default_tolerances(self, capsys):
        assert main(["reproduce", "--help"]) == EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        table, curve = re.search(r"default (\S+) tables, (\S+) curves", help_text).groups()
        assert (float(table), float(curve)) == (TABLE_TOL, CURVE_TOL)

    @pytest.fixture
    def tampered_golden(self, tmp_path, monkeypatch):
        golden = load_golden("2.1")
        golden["rows"][0][-1] += 5.0
        (tmp_path / "2.1.json").write_text(json.dumps(golden))
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        return golden

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1e-9", "-0.5"])
    def test_non_finite_or_negative_tol_is_usage_error(self, capsys, tampered_golden,
                                                       werner_file, bad):
        # "--tol=X" so that argparse cannot mistake a negative value for a flag.
        assert main(["reproduce", "2.1", f"--tol={bad}"]) == EXIT_USAGE
        assert main(["detect", werner_file, f"--tol={bad}"]) == EXIT_USAGE
        assert main(["measure", werner_file, f"--tol={bad}"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert main(["reproduce", "2.1", "--tol", "0.01"]) == EXIT_VALIDATION

    def test_nan_golden_cell_is_a_mismatch(self, tmp_path, monkeypatch):
        golden = load_golden("2.1")
        golden["rows"][0][-1] = float("nan")
        (tmp_path / "2.1.json").write_text(json.dumps(golden))
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        report, mismatched = reproduce("2.1")
        assert mismatched
        assert report["status"] == "mismatch"

    def test_nan_golden_cell_reports_null_max_diff(self, capsys, tmp_path, monkeypatch):
        golden = load_golden("2.1")
        golden["rows"][0][-1] = float("nan")
        (tmp_path / "2.1.json").write_text(json.dumps(golden))
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        assert main(["reproduce", "2.1"]) == EXIT_VALIDATION
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "mismatch"
        assert rep["max_abs_diff"] is None

    def test_short_golden_row_is_a_mismatch(self, capsys, tmp_path, monkeypatch):
        golden = load_golden("2.1")
        golden["rows"][0] = golden["rows"][0][:2]
        (tmp_path / "2.1.json").write_text(json.dumps(golden))
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        assert main(["reproduce", "2.1"]) == EXIT_VALIDATION
        rep = json.loads(capsys.readouterr().out)
        assert rep["mismatches"] == ["row 0: 5 cells, golden 2"]

    def test_reports_refuse_nan(self):
        with pytest.raises(ValueError):
            document_bytes({"x": float("nan")})


class TestConsoleScript:
    def test_entry_point_runs(self, werner_file):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qent.cli", "detect", werner_file],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["command"] == "detect"


def _swap_parties(rho):
    """The same state with its two parties in the other order."""
    d0, d1 = rho.dims
    mat = rho.mat.reshape(d0, d1, d0, d1).transpose(1, 0, 3, 2).reshape(rho.mat.shape)
    return validate_density(mat, [d1, d0])


@pytest.fixture(params=[[3, 2], [2, 3]], ids=["3x2", "2x3"])
def nonsquare_file(tmp_path, request):
    rho = qutrit_qubit_alpha_state(0.5)
    if request.param == [2, 3]:
        rho = _swap_parties(rho)
    path = tmp_path / "nonsquare.json"
    write_state_file(path, rho, label="qutrit-qubit-0.5")
    return str(path)


def _refuse(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before the usage error")
    return fail


class TestNonSquareStates:
    def _run(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, (json.loads(out) if out else None)

    def test_detect_default_runs_ppt_and_reduction(self, capsys, nonsquare_file):
        code, rep = self._run(capsys, ["detect", nonsquare_file])
        assert code == EXIT_OK
        assert [e["name"] for e in rep["results"]] == ["ppt", "reduction"]
        assert rep["results"][0]["verdict"] == "Entangled"

    def test_measure_default(self, capsys, nonsquare_file):
        code, rep = self._run(capsys, ["measure", nonsquare_file])
        assert code == EXIT_OK
        assert [e["name"] for e in rep["results"]] == ["negativity", "coherence"]

    @pytest.mark.parametrize("argv", [
        ["detect", "--realign"],
        ["detect", "--ppt", "--realign"],
        ["detect", "--criterion2"],
        ["measure", "structured-negativity"],
        ["measure", "negativity", "concurrence-lb"],
        ["measure", "negativity", "concurrence"],
        ["measure", "coherence", "tangle"],
    ])
    def test_criterion_that_does_not_fit_is_usage_error_before_compute(
            self, capsys, monkeypatch, nonsquare_file, argv):
        for name in ("ppt_check", "negativity", "l1_coherence"):
            monkeypatch.setattr(cli, name, _refuse(name))
        code = main(argv[:1] + [nonsquare_file] + argv[1:])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "needs" in captured.err

    @pytest.mark.parametrize("dims", [[1, 1], [1, 4], [4, 1]])
    def test_party_of_dimension_one(self, capsys, tmp_path, dims):
        path = tmp_path / "trivial.json"
        write_state_file(path, validate_density(np.eye(dims[0] * dims[1]) / (dims[0] * dims[1]),
                                                dims))
        assert main(["measure", str(path)]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in rep["results"]] == ["coherence"]
        for name in ("negativity", "structured-negativity", "concurrence-lb"):
            assert main(["measure", str(path), name]) == EXIT_USAGE
        assert main(["detect", str(path), "--ppt", "--reduce"]) == EXIT_OK

    def test_dims_that_do_not_multiply_keep_exit_3(self, tmp_path):
        doc = state_document(qutrit_qubit_alpha_state(0.5))
        doc["dims"] = [2, 2]
        path = tmp_path / "mismatch.json"
        path.write_bytes(document_bytes(doc))
        assert main(["detect", str(path)]) == EXIT_VALIDATION
        assert main(["measure", str(path)]) == EXIT_VALIDATION


class TestDefaultSets:
    @pytest.mark.parametrize("rho, names", [
        (werner_state(0.5), ["negativity", "structured-negativity", "concurrence",
                             "concurrence-lb", "coherence"]),
        (two_qutrit_alpha_state(4.5), ["negativity", "structured-negativity",
                                       "concurrence-lb", "coherence"]),
        (ghz_w_mixture(0.5), ["coherence"]),
        (projector(ghz_state(), [2, 2, 2]), ["coherence", "tangle", "three-pi"]),
        (validate_density(np.eye(4) / 4.0, [4]), ["coherence"]),
    ], ids=["2x2", "3x3", "2x2x2-mixed", "2x2x2-pure", "single-party"])
    def test_measure_defaults(self, capsys, tmp_path, rho, names):
        path = tmp_path / "state.json"
        write_state_file(path, rho)
        assert main(["measure", str(path)]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in rep["results"]] == names

    @pytest.mark.parametrize("rho", [werner_state(0.5), two_qutrit_alpha_state(4.5)],
                             ids=["2x2", "3x3"])
    def test_detect_defaults_on_square_states(self, capsys, tmp_path, rho):
        path = tmp_path / "state.json"
        write_state_file(path, rho)
        assert main(["detect", str(path)]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in rep["results"]] == ["ppt", "realignment", "reduction"]

    def test_detect_needs_a_bipartite_state(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        write_state_file(path, projector(ghz_state(), [2, 2, 2]))
        assert main(["detect", str(path)]) == EXIT_USAGE
        assert main(["detect", str(path), "--ppt"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestStateFileDims:
    @pytest.mark.parametrize("side, dims", [
        (4, [-2, -2]), (1, [-1, -1]), (1, []), (4, [2.5, 2]), (4, [2, 2.5]),
        (4, ["2", "2"]), (4, "22"), (4, 4), (4, None), (4, [True, 4]), (4, [2, None]),
        (4, [float("inf"), 2]), (4, {"a": 2}),
    ])
    def test_bad_dims_are_parse_errors(self, capsys, tmp_path, side, dims):
        doc = {"dims": dims, "matrix": [[[1.0 / side if i == j else 0.0, 0.0]
                                         for j in range(side)] for i in range(side)]}
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="dims"):
            parse_state_file(str(path))
        assert main(["detect", str(path)]) == EXIT_PARSE
        assert main(["measure", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().out == ""

    def test_integral_float_dims_are_accepted(self, capsys, tmp_path, werner_file):
        with open(werner_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["dims"] = [2.0, 2.0]
        path = tmp_path / "float-dims.json"
        path.write_text(json.dumps(doc))
        _, rho = parse_state_file(str(path))
        assert rho.dims == (2, 2)
        for argv in (["detect"], ["measure"]):
            assert main(argv + [werner_file]) == EXIT_OK
            first = capsys.readouterr().out
            assert main(argv + [str(path)]) == EXIT_OK
            assert capsys.readouterr().out == first

    # A JSON integer beyond the float range passes the parser as a whole
    # number; validation must refuse it as it refuses any dims that do not
    # multiply to the side.
    @pytest.mark.parametrize("dims", [[10 ** 400], [10 ** 400, 2], [2, 10 ** 400]],
                             ids=["alone", "first", "second"])
    def test_a_dim_beyond_the_float_range_is_a_validation_error(self, capsys, tmp_path, dims):
        doc = state_document(werner_state(0.5))
        doc["dims"] = dims
        path = tmp_path / "huge.json"
        path.write_bytes(document_bytes(doc))
        for command in ("detect", "measure"):
            assert main([command, str(path)]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("qent: validation error: dims")
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("field, value", [
        ("cell", {"0": 0.25, "1": 0.0}), ("cell", [10 ** 400, 0.0]), ("cell", [0.25]),
        ("label", float("nan")), ("label", ["x", float("inf")]),
    ])
    def test_malformed_cell_or_label_is_a_parse_error(self, tmp_path, field, value):
        doc = state_document(werner_state(0.5))
        if field == "cell":
            doc["matrix"][1][2] = value
        else:
            doc["label"] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=field.replace("cell", "matrix")):
            parse_state_file(str(path))
        assert main(["measure", str(path)]) == EXIT_PARSE

    @pytest.mark.parametrize("payload", [b"\xff\xfe{", b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_documents_are_parse_errors(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        with pytest.raises(ParseError):
            parse_state_file(str(path))
        assert main(["detect", str(path)]) == EXIT_PARSE


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12,
)
_CELL = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2) | _JSON
_MATRIX = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_CELL, min_size=n, max_size=n), min_size=n, max_size=n))
# Maximally mixed states of side n: valid matrices, so the dims decide.
_MIXED = st.integers(1, 6).map(lambda n: [[[1.0 / n if i == j else 0.0, 0.0]
                                           for j in range(n)] for i in range(n)])
_DIMS = st.lists(st.integers(-4, 6) | st.floats(-4.0, 6.0), max_size=3) | _JSON
_DOCUMENTS = (st.fixed_dictionaries({"dims": _DIMS, "matrix": _MATRIX | _MIXED | _JSON},
                                    optional={"label": _JSON})
              | _JSON)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "state.json"


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
def test_fuzzed_state_files_fail_only_with_documented_errors(fuzz_path, doc):
    fuzz_path.write_text(json.dumps(doc))
    try:
        parse_state_file(str(fuzz_path))
    except (ParseError, DimensionError, DensityMatrixError):
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["measure", str(fuzz_path)]) in (EXIT_OK, EXIT_USAGE)
        assert main(["detect", str(fuzz_path)]) in (EXIT_OK, EXIT_USAGE)


class TestReproduceTables:
    # The sha256 of each report's bytes, as `qent reproduce ID` prints it.
    _REPORT_SHA256 = {
        "2.1": "b3c6efacdb0fc7de3ab1557e9635f827e53ee21f62b4844b52b683fe91e342fc",
        "2.2": "47f7e5010f90032c2176337f2d00e6b936c18ffe3ff31f15538eadc459cfdcee",
        "2.3": "1c93e493151be1d9a5936250211c450fb596be7fedc3f826ab0cf98b5bc5d2f0",
        "3.1": "784af3e271cddb35a7ae151df54579c5b1bb6f78161286960087f0bbe0de9cb9",
        "5.1": "9960c788ca40bebdd5ce83b3365760abc330745ce3799e8376e98088337c8694",
        "5.2": "e5d6508f2b0630125055cde1375c0bb8382344f608e5292c38c445fb71e47dcc",
        "fig2.1": "c4ad3ae5e5fc25295a7b59faff185d368ef252d146ca2edc897112a468b9679b",
        "fig6.1": "07e86926647c04d0497b2f3eaf15b29bd02a0befc4f817b7a7aa1aa2ecdca4cf",
        "fig6.2": "3c2ed21172cb05f551dcd34ce31cc2e3eedb7d38f6befa1a756da99326e8774e",
        "fig6.3": "badd692bba2faa43acc3084f2de6d1223784bbab5eac9f4a45da91139b7dec5b",
        "fig6.4": "d43d6b29379f9991267ab70761f8c029dd812b82ca32ef3d4282d43da3f2883d",
        "fig6.5": "853ad7993d179b3c8c259e52475b95cad9c4cf07306516782a79606226b4bfb5",
    }

    def test_every_table_has_a_pinned_report(self):
        assert sorted(self._REPORT_SHA256) == sorted(TABLES)

    @pytest.mark.parametrize("table_id", sorted(_REPORT_SHA256))
    def test_report_bytes_are_pinned(self, capsysbinary, table_id):
        # Reports are byte-stable: a change to how a row is computed that
        # moves any bit of any cell changes the hash.
        assert main(["reproduce", table_id]) == EXIT_OK
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == self._REPORT_SHA256[table_id]

    def test_grid_column_is_bit_identical_to_golden(self):
        for table_id in TABLES:
            report, _ = reproduce(table_id)
            golden = load_golden(table_id)
            assert [r[0] for r in report["rows"]] == [r[0] for r in golden["rows"]], table_id

    def test_missing_golden_row_reports_null_max_diff(self, capsys, tmp_path, monkeypatch):
        golden = load_golden("2.1")
        del golden["rows"][-1]
        (tmp_path / "2.1.json").write_text(json.dumps(golden))
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        assert main(["reproduce", "2.1"]) == EXIT_VALIDATION
        rep = json.loads(capsys.readouterr().out)
        assert rep["status"] == "mismatch"
        assert rep["mismatches"] == ["row count differs"]
        assert rep["max_abs_diff"] is None


class TestHelpScreens:
    # The sha256 of each --help screen at 80 columns, as `qent ... --help`
    # prints it.
    _HELP_SHA256 = {
        "qent": "41113bbd8898bbc67d177923eb4e0e5ff92ffed0416e2e45dc626da077f0819a",
        "qent detect": "717975334a3f60a06f7f27f7b59d2ac250d9d1e6abf3eb3f0f55a25293843561",
        "qent measure": "dadfaf9364632a4f1292e4976cfbf101c8b35f32e0f0ff4c40ea3d346b6db1ba",
        "qent classify3": "6890c146bea1c6a2a01df37fed346bbe632c9cf82299929736d0c4f83efb0698",
        "qent reproduce": "72681844feb77288e9f5c26d47b945b10ff72b7b0a6258a6d32bb3ce656dda75",
    }

    @pytest.mark.parametrize("command", sorted(_HELP_SHA256))
    def test_help_bytes_are_pinned(self, capsysbinary, monkeypatch, command):
        # argparse wraps help to the terminal width, which COLUMNS sets.
        monkeypatch.setenv("COLUMNS", "80")
        assert main(command.split()[1:] + ["--help"]) == EXIT_OK
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == self._HELP_SHA256[command]


class TestCachedParser:
    @pytest.fixture
    def build_count(self, monkeypatch):
        """Empty the parser cache and count calls to cli.build_parser."""
        calls = []
        build = cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        return calls

    @pytest.fixture
    def files(self, tmp_path, werner_file):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        doc = state_document(werner_state(0.5))
        doc["matrix"][0][0] = [0.9, 0.0]
        bad_trace = tmp_path / "trace.json"
        bad_trace.write_bytes(document_bytes(doc))
        ghz = tmp_path / "ghz.json"
        write_state_file(ghz, projector(ghz_state(), [2, 2, 2]), label="ghz")
        return werner_file, str(bad_json), str(bad_trace), str(ghz)

    def test_many_calls_build_one_parser(self, capsys, build_count, werner_file):
        for _ in range(5):
            assert main(["measure", werner_file]) == EXIT_OK
            assert main(["--version"]) == EXIT_OK
            assert main(["detect", werner_file, "--nope"]) == EXIT_USAGE
        assert len(build_count) == 1

    def test_interleaved_calls_repeat_their_first_output(self, capsys, build_count, files):
        werner, bad_json, bad_trace, ghz = files
        argvs = [
            [],
            ["detect", werner, "--nope"],
            ["measure", werner, "nope"],
            ["--version"],
            ["detect", bad_json],
            ["detect", bad_trace],
            ["detect", werner],
            ["detect", werner, "--ppt", "--criterion1", "--criterion2", "--criterion3"],
            ["measure", werner],
            ["measure", werner, "coherence"],
            ["measure", ghz],
            ["classify3", ghz],
            ["classify3", "--canonical", "0.35", "0", "0.3", "0.864581", "0.2"],
            ["reproduce", "5.2"],
            ["reproduce", "2.1", "--tol", "0.5"],
        ]
        first = {}
        for argv in argvs + argvs[::-1] + argvs[1::2] + argvs[::2]:
            code = main(argv)
            captured = capsys.readouterr()
            got = (code, captured.out, captured.err)
            assert first.setdefault(tuple(argv), got) == got, argv
        assert [first[tuple(a)][0] for a in argvs] == [
            EXIT_USAGE, EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION,
            EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        assert len(build_count) == 1

    def test_measure_names_do_not_leak_between_calls(self, capsys, build_count, werner_file):
        assert main(["measure", werner_file]) == EXIT_OK
        defaults = capsys.readouterr().out
        assert main(["measure", werner_file, "negativity"]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in rep["results"]] == ["negativity"]
        assert main(["measure", werner_file]) == EXIT_OK
        assert capsys.readouterr().out == defaults


class TestMalformedInputsFailCleanly:
    @pytest.mark.parametrize("doc", [
        {"columns": []}, [], {"rows": 3}, {"rows": [3]},
        {"rows": [["x", 1, 1, 1, 1]]}, {"rows": [[None, 1, 1, 1, 1]]},
        {"rows": [[True, 1, 1, 1, 1]]}, {"rows": [[10 ** 400, 1, 1, 1, 1]]},
    ])
    def test_malformed_golden_file_is_a_parse_error(self, capsys, tmp_path, monkeypatch, doc):
        (tmp_path / "2.1.json").write_text(json.dumps(doc))
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        with pytest.raises(ParseError, match="golden data for 2.1"):
            reproduce("2.1")
        assert main(["reproduce", "2.1"]) == EXIT_PARSE
        assert capsys.readouterr().out == ""

    def test_golden_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, monkeypatch):
        (tmp_path / "2.1.json").write_bytes(b"\xff\xfe{")
        monkeypatch.setenv("QENT_GOLDEN_DIR", str(tmp_path))
        assert main(["reproduce", "2.1"]) == EXIT_PARSE

    @pytest.mark.parametrize("doc", [
        {"dims": [1], "matrix": [[[True, False]]]},
        {"dims": [1], "matrix": [[[1.0, False]]]},
        {"dims": [1], "matrix": [[[1.0, 0.0, 7.0]]]},
    ])
    def test_cell_must_be_a_pair_of_numbers(self, capsys, tmp_path, doc):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="matrix"):
            parse_state_file(str(path))
        assert main(["measure", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bad", ["-1e-9", "-1E-9", "-0.5", "-.5", "-5", "-inf", "-nan"])
    def test_negative_tol_after_a_space_gets_the_range_message(self, capsys, bad):
        assert main(["reproduce", "2.1", f"--tol={bad}"]) == EXIT_USAGE
        joined = capsys.readouterr()
        assert main(["reproduce", "2.1", "--tol", bad]) == EXIT_USAGE
        spaced = capsys.readouterr()
        assert spaced.out == joined.out == ""
        assert spaced.err == joined.err
        assert "must be finite and nonnegative" in spaced.err
