#!/usr/bin/env python3
"""In-process A/B of two source trees on one benchmark deck.

Usage (from the repository root)::

    python3 tools/ab_decks.py PARENT_TREE [CHANGE_TREE] --workload cli --passes 40

Each tree is a checkout with ``src/qent`` and ``bench/workloads.py``
(``CHANGE_TREE`` defaults to this repository).  For each tree in turn, the
``qent``, ``workloads`` and ``oracle`` modules are dropped from
``sys.modules`` and ``bench/workloads.py`` is imported against that tree's
``src``, so one process holds both packages side by side, each with its own
deck of the workload; each side's modules are put back in ``sys.modules``
before each of its ops.  After untimed warm-up passes, every pass runs each
op of the deck on both sides, alternating which side runs first, so machine
drift falls on both alike.

The script prints ``ops_per_s`` of each side as ``bench/run.py`` computes
it (the deck's op count over the sum of the per-op medians over the
passes), overall and per op kind, with the change's gain.  Every timed run
of an op is checked as ``bench/run.py``'s ledger checks it: an op or check
that raises, an error its check reports, or a fingerprint that differs from
that side's first run of the op is a fault, and so are first runs whose
fingerprints differ between the sides.  It exits 1 if any op has a fault,
and names the first fault of each.  Uses only the standard library and
numpy, with BLAS held to one thread as the benchmark holds it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("bipartite-dense", "three-qubit", "cli")


def _ours(name):
    return name in ("qent", "workloads", "oracle") or name.startswith("qent.")


def _activate(modules):
    """Put one side's modules in ``sys.modules`` in place of the other's: the
    package also looks itself up by name at run time (its golden tables are
    read through ``importlib.resources``)."""
    for name in [name for name in sys.modules if _ours(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load_deck(tree, workload, seed, scratch):
    """The deck of ``workload`` built by ``tree``'s own bench and package,
    with the modules it was built from."""
    tree = Path(tree).resolve()
    if not (tree / "src" / "qent").is_dir() or not (tree / "bench" / "workloads.py").is_file():
        raise SystemExit(f"{tree} has no src/qent or bench/workloads.py")
    paths = [str(tree / "src"), str(tree / "bench")]
    _activate({})
    sys.path[:0] = paths
    try:
        workloads = importlib.import_module("workloads")
        deck = workloads.build(workload, seed, Path(scratch))
    finally:
        del sys.path[:len(paths)]
    return deck, {name: mod for name, mod in sys.modules.items() if _ours(name)}


def _timed(op):
    t0 = perf_counter()
    try:
        out, exc = op.run(), None
    except Exception as err:  # a failed op, as bench/run.py counts it
        out, exc = None, err
    return perf_counter() - t0, out, exc


def _checked(op, out, exc):
    """The errors and fingerprint of one run, as ``bench/run.py``'s ledger reads them."""
    if exc is not None:
        return [f"{type(exc).__name__}: {exc}"], None
    try:
        return op.check(out)
    except Exception as err:  # a malformed output is a failed op, not the end of the A/B
        return [f"check raised {type(err).__name__}: {err}"], None


def run(decks, modules, passes):
    """Per side, the times of each deck position (one per pass), and the
    first fault of each position that has one: an error, a fingerprint that
    differs from that side's first run of the op, or first runs whose
    fingerprints differ between the sides."""
    times = [[[] for _ in decks[0]] for _ in decks]
    first = [{}, {}]
    faults = {}
    for p in range(passes):
        for key, ops in enumerate(zip(*decks)):
            order = (0, 1) if (p + key) % 2 == 0 else (1, 0)
            errors = []
            for side in order:
                _activate(modules[side])
                dt, out, exc = _timed(ops[side])
                times[side][key].append(dt)
                errs, fp = _checked(ops[side], out, exc)
                if fp is not None and first[side].setdefault(key, fp) != fp:
                    errs = errs + ["output differs from the first run of this op"]
                errors += [f"{('parent', 'change')[side]}: {e}" for e in errs]
            if p == 0 and first[0].get(key) != first[1].get(key):
                errors.append("fingerprints differ between the sides")
            if errors:
                faults.setdefault(key, (ops[0].kind, errors))
    return times, faults


def ops_per_s(times):
    """``bench/run.py``'s rate: the op count over the sum of per-op medians."""
    typical = [statistics.median(t) for t in times]
    return len(typical) / sum(typical)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the baseline tree")
    parser.add_argument("change", nargs="?", default=str(ROOT), help="the changed tree")
    parser.add_argument("--workload", choices=WORKLOADS, default="bipartite-dense")
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--passes", type=int, default=40)
    parser.add_argument("--warmup", type=int, default=2, help="untimed passes first")
    args = parser.parse_args(argv)
    if args.passes < 1 or args.warmup < 0:
        parser.error("--passes must be at least 1 and --warmup at least 0")

    with tempfile.TemporaryDirectory() as scratch_a, tempfile.TemporaryDirectory() as scratch_b:
        decks, modules = zip(*(load_deck(tree, args.workload, args.seed, scratch)
                               for tree, scratch in ((args.parent, scratch_a),
                                                     (args.change, scratch_b))))
        if len(decks[0]) != len(decks[1]):
            raise SystemExit("the two trees build decks of different lengths")
        if args.warmup:
            run(decks, modules, args.warmup)
        times, faults = run(decks, modules, args.passes)

    print(f"{args.workload} seed {args.seed}: {args.passes} passes of {len(decks[0])} ops")
    kinds = {}
    for key, op in enumerate(decks[0]):
        kinds.setdefault(op.kind, []).append(key)
    rows = [("all", list(range(len(decks[0]))))] + sorted(kinds.items())
    print(f"{'kind':<24}{'parent 1/s':>12}{'change 1/s':>12}{'gain':>9}")
    for kind, keys in rows:
        a, b = (ops_per_s([side[k] for k in keys]) for side in times)
        print(f"{kind:<24}{a:>12.1f}{b:>12.1f}{100 * (b / a - 1):>+8.2f}%")
    for key, (kind, errors) in sorted(faults.items()):
        print(f"op {key} ({kind}): " + "; ".join(errors))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
