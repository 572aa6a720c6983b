#!/usr/bin/env python3
"""qent benchmark: one process, one caller, closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload bipartite-dense --seed 1 --seconds 30 --trace 0

Workloads: bipartite-dense, three-qubit, cli (see README.md).  With
``--trace 0`` the run measures the end-to-end metrics with nothing wrapped;
with ``--trace 1`` it measures an untraced half and a traced half and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, rationale, first errors) is
written to ``bench/results/``, and a traced run also writes its spans
there as JSON lines.
"""

import os

# One BLAS thread: the benchmark is a single-threaded closed loop, and the
# thread count must be fixed before numpy is loaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("bipartite-dense", "three-qubit", "cli")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB", "cli_cold_ms": "ms"}
SETUP_REPEATS = 7
COLD_REPEATS = 11
SUBPROCESS_TIMEOUT_S = 30
MAX_LOGGED_ERRORS = 20

# Runs in a fresh process.  The child reads the speed gauge itself, because
# it may run on the other CPU, whose speed can differ from the parent's.
IMPORT_PROBE = """
import time
import speed
gauge = speed.Gauge()
for _ in range(speed.WINDOW):
    gauge.refresh(force=True)
t0 = time.perf_counter()
import qent.cli
print(repr(gauge.scale(time.perf_counter() - t0)))
"""


class Ledger:
    """Counts attempted and failed ops; keeps the first output of each op
    so a repeat that differs is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._first = {}

    def record(self, label, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_LOGGED_ERRORS:
                self.errors.append(f"{label}: {errors[0]}")

    def check(self, key, op, out, exc):
        if exc is not None:
            errors = [f"{type(exc).__name__}: {exc}"]
        else:
            try:
                errors, fingerprint = op.check(out)
            except Exception as err:  # a malformed output must count, not abort the run
                errors, fingerprint = [f"check raised {type(err).__name__}: {err}"], None
            if fingerprint is not None and self._first.setdefault(key, fingerprint) != fingerprint:
                errors = errors + ["output differs from the first run of this op"]
        self.record(f"op {key} ({op.kind})", errors)


def run_ops(deck, ledger, gauge, seconds, *, tracer=None, whole_passes=False, between=None):
    """Cycle through the deck for ``seconds``, and at least one whole pass.

    Returns ``(scaled, raw)``: the times of each deck position, one per
    pass, at the gauge's reference speed and as measured.  ``whole_passes``
    stops only at the end of a pass, so per-op counts are exact.
    ``between`` is called after each op, outside its timing.
    """
    scaled = [[] for _ in deck]
    raw = [[] for _ in deck]
    done = 0
    gauge.refresh(force=True)
    deadline = perf_counter() + seconds
    while True:
        for key, op in enumerate(deck):
            exc = out = None
            t0 = perf_counter()
            try:
                out = tracer.run_op(done, op.kind, op.run) if tracer else op.run()
            except Exception as err:  # counted as a failed op
                exc = err
            dt = perf_counter() - t0
            raw[key].append(dt)
            scaled[key].append(gauge.scale(dt))
            done += 1
            ledger.check(key, op, out, exc)
            if between is not None:
                between()
            gauge.refresh()
            if done >= len(deck) and not whole_passes and perf_counter() >= deadline:
                return scaled, raw
        if perf_counter() >= deadline:
            return scaled, raw


def latency_metrics(times):
    """Rate and percentiles of the typical pass.

    Each deck position is summarised by its median over the passes, which
    discards single slow or fast passes; the rate and percentiles are taken
    over those per-op medians.
    """
    typical = [statistics.median(t) for t in times]
    deciles = statistics.quantiles(typical, n=10)
    return {"ops_per_s": len(typical) / sum(typical),
            "op_p50_ms": deciles[4] * 1e3,
            "op_p90_ms": deciles[8] * 1e3}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class ColdStarts:
    """Times fresh ``python -m qent.cli reproduce 3.1`` processes, spread
    evenly over the run, each right after a fresh ``python -c "import
    numpy"`` process.

    The in-process speed gauge does not fit start-up, which is mostly
    loading libraries, so start-up is scaled by its own reference: the
    median CLI time times ``speed.START_REF_S`` over the median numpy-only
    time.  Both processes run under the same machine conditions, so the
    ratio cancels most of the machine's drift.
    """

    def __init__(self, ledger, expected, seconds):
        start = perf_counter()
        self.due = [start + (k + 0.5) * seconds / COLD_REPEATS for k in range(COLD_REPEATS)]
        self.cli_ms = []
        self.numpy_ms = []
        self.ledger = ledger
        self.expected = expected

    def __call__(self):
        if self.due and perf_counter() >= self.due[0]:
            self.due.pop(0)
            self._sample()

    def median_ms(self):
        """Take the samples still due; return the scaled median in ms."""
        while self.due:
            self.due.pop(0)
            self._sample()
        return (statistics.median(self.cli_ms) * speed.START_REF_S * 1e3
                / statistics.median(self.numpy_ms))

    def _sample(self):
        self.numpy_ms.append(self._spawn(["-c", "import numpy"])[0])
        elapsed, proc = self._spawn(["-m", "qent.cli", "reproduce", "3.1"])
        self.cli_ms.append(elapsed)
        errors = []
        if proc.returncode != 0:
            errors.append(f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}")
        elif proc.stdout != self.expected:
            errors.append("report differs from the in-process report")
        self.ledger.record("cold reproduce 3.1", errors)

    @staticmethod
    def _spawn(args):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        return (perf_counter() - t0) * 1e3, proc


def import_probe_s():
    """Time to ``import qent.cli`` after numpy in a fresh process, at the
    reference speed."""
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={BLAS_THREADS})"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loop": "closed loop, one caller, one process",
        "machine_note": "shared machine; CPU pinning and frequency not changed",
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_qent():
    """Import qent from this checkout's ``src``, never an installed copy."""
    if not (SRC / "qent" / "__init__.py").is_file():
        sys.exit(f"error: qent sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qent
    import qent.cli  # noqa: F401
    if Path(qent.__file__).resolve().parent != SRC / "qent":
        sys.exit(f"error: imported qent from {qent.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    import_qent()
    import tracer as tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="states-", dir=RESULTS)
    ledger = Ledger()
    gauge = speed.Gauge()
    try:
        # Set-up: a fresh-process import of qent.cli and a build of the deck.
        imports, builds = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_probe_s())
            gauge.refresh(force=True)
            t0 = perf_counter()
            deck = workloads.build(args.workload, args.seed, scratch)
            builds.append(gauge.scale(perf_counter() - t0))
        setup = [i + b for i, b in zip(imports, builds)]
        if args.trace:
            metrics, extra = traced_run(deck, ledger, gauge, args, tracing)
            metrics["cli.import_ms"] = statistics.median(imports) * 1e3
        else:
            cold = ColdStarts(ledger, workloads.reproduce_bytes("3.1"), args.seconds)
            times, raw = run_ops(deck, ledger, gauge, args.seconds, between=cold)
            metrics = {"setup_s": statistics.median(setup), **latency_metrics(times),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "cli_cold_ms": cold.median_ms()}
            extra = {"deck_size": len(deck), "ops_timed": sum(map(len, times)),
                     "setup_import_s": imports, "setup_build_s": builds,
                     "unscaled": {**latency_metrics(raw),
                                  "cli_cold_ms": statistics.median(cold.cli_ms)},
                     "cold_start_ms": cold.cli_ms, "numpy_start_ms": cold.numpy_ms}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = tracing.per_layer_units() if args.trace else END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    kernel_ms = [r * 1e3 for r in gauge.readings]
    record = {"workload": args.workload, "rationale": workloads.RATIONALE[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "fail_ratio": ledger.failed / ledger.attempted,
              "errors": ledger.errors,
              "reference_kernel_ms": {"median": statistics.median(kernel_ms),
                                      "min": min(kernel_ms), "max": max(kernel_ms),
                                      "readings": len(kernel_ms)},
              **extra, **result}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for err in ledger.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def traced_run(deck, ledger, gauge, args, tracing):
    """Untraced half for the overhead baseline, then whole traced passes."""
    half = args.seconds / 2.0
    untraced, _ = run_ops(deck, ledger, gauge, half)
    tracer = tracing.Tracer()
    tracer.install()
    first_reading = len(gauge.readings)
    traced, _ = run_ops(deck, ledger, gauge, half, tracer=tracer, whole_passes=True)
    passes = len(traced[0])
    # Span times are scaled by the median gauge reading of the traced half.
    scale = speed.REF_S / statistics.median(gauge.readings[first_reading:])
    metrics, unknown_sides = tracer.metrics(passes * len(deck), scale)
    if unknown_sides:
        print(f"note: eigensolves at sides {unknown_sides} are not reported per side",
              file=sys.stderr)
    metrics["trace.overhead_ratio"] = (latency_metrics(traced)["ops_per_s"]
                                       / latency_metrics(untraced)["ops_per_s"])
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    return (metrics,
            {"deck_size": len(deck), "passes_traced": passes, "span_time_scale": scale,
             "spans_file": str(spans.relative_to(ROOT))})


if __name__ == "__main__":
    sys.exit(main())
