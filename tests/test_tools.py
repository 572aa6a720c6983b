"""Smoke test of ``tools/ab_decks.py``, the in-process A/B of two source
trees: this tree against itself, one pass of each workload with no warm-up,
so the paired-evidence tool keeps working as ``src/`` and the decks change."""

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
