"""The benchmark decks give the same outputs, bit for bit.

Every op of the three benchmark decks, seed-major over 901, 17 and 4242,
passes its oracle check, and one sha256 over ``repr`` of the check
fingerprints (bipartite evidence and values as float hex, three-qubit
outputs, and each ``cli`` op's exit code, stdout and stderr) equals the pin
below.  A change that is meant to move no output keeps it; a change to a
deck itself, or to an output on purpose, re-pins it.
"""

import hashlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEEDS = (901, 17, 4242)
WORKLOADS = ("bipartite-dense", "three-qubit", "cli")
DECK_SHA256 = "e6d3364ff300e964d152c0d2e8cfcfe099648fc7a853b9b4976e7bfacdb8d6b5"


def test_every_deck_op_passes_its_check_and_the_fingerprints_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for seed in SEEDS:
        for name in WORKLOADS:
            scratch = tmp_path / f"{name}-{seed}"
            scratch.mkdir()
            for key, op in enumerate(workloads.build(name, seed, scratch)):
                errors, fingerprint = op.check(op.run())
                assert not errors, f"{name} seed {seed} op {key} ({op.kind}): {errors}"
                digest.update(repr(fingerprint).encode())
    assert digest.hexdigest() == DECK_SHA256
