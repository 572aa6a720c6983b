"""Command-line interface: file format, reports, exit codes, reproduction."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
from qent.linalg import validate_density
from qent.states import ghz_state, projector, werner_state


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

    def test_measure_pure_three_qubit(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        write_state_file(path, projector(ghz_state(), [2, 2, 2]))
        code, rep = self._run(capsys, ["measure", str(path)])
        assert code == EXIT_OK
        by_name = {e["name"]: e["value"] for e in rep["results"]}
        assert abs(by_name["tangle"] - 1.0) <= 1e-9

    def test_classify3_canonical(self, capsys):
        args = ["classify3", "--canonical", "0.35", "0", "0.3", "0.864581", "0.2"]
        code, rep = self._run(capsys, args)
        assert code == EXIT_OK
        by_name = {e["name"]: e for e in rep["results"]}
        assert by_name["subclass"]["verdict"] == "S3"
        assert by_name["witness:H4"]["verdict"] == "negative"

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
        proc = subprocess.run(
            [sys.executable, "-m", "qent.cli", "detect", werner_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["command"] == "detect"
