"""Tests of the development tools.  ``tools/ab_decks.py``, the in-process A/B
of two source trees, runs this tree against itself, one pass of each
workload with no warm-up, so the paired-evidence tool keeps working as
``src/`` and the decks change.  ``tools/loc.py`` counts one synthetic module
exactly and this tree's modules as ``wc -l`` does."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["bipartite-dense", "three-qubit", "cli"])
def test_ab_decks_runs_the_tree_against_itself(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_decks.py"), str(ROOT), str(ROOT),
         "--workload", workload, "--passes", "1", "--warmup", "0"],
        capture_output=True, text=True, timeout=300, check=False)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith(f"{workload} seed 901: 1 passes of ")
    # A fault is printed as "op <position> (<kind>): <errors>".
    assert not [line for line in lines if line.startswith("op ")]


def _loc(tree):
    """The rows of ``tools/loc.py`` on ``tree``: name to (lines, code lines)."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"), str(tree)],
                         capture_output=True, text=True, timeout=60, check=False)
    assert out.returncode == 0, out.stdout + out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["module", "lines", "code"]
    return {name: (int(lines), int(code)) for name, lines, code in map(str.split, rows)}


def test_loc_counts_a_synthetic_module_exactly(tmp_path):
    package = tmp_path / "src" / "qent"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        "'''Module docstring,\n"             # 1  docstring
        "two lines.'''\n"                    # 2  docstring
        "\n"                                 # 3  blank
        "import os  # a trailing comment\n"  # 4  code
        "\n"                                 # 5  blank
        "# a comment line\n"                 # 6  comment
        "def f(x):\n"                        # 7  code
        '    """Function docstring."""\n'    # 8  docstring
        "    return (x +\n"                  # 9  code
        "            1)\n"                   # 10 code
        "\n"                                 # 11 blank
        's = """a string\n'                  # 12 code
        'that is not a docstring"""\n',      # 13 code
        encoding="utf-8")
    assert _loc(tmp_path) == {"m.py": (13, 6), "total": (13, 6)}


def test_loc_counts_this_tree_as_wc_does():
    rows = _loc(ROOT)
    paths = sorted((ROOT / "src" / "qent").glob("*.py"))
    assert list(rows) == [path.name for path in paths] + ["total"]
    for path in paths:
        lines, code = rows[path.name]
        assert lines == path.read_bytes().count(b"\n")
        assert 0 < code < lines
    assert rows["total"] == tuple(map(sum, zip(*(rows[path.name] for path in paths))))
