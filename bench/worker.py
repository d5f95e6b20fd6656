"""One benchmark process: set up a workload, run its timed passes, check ops.

Started by run.py, which passes its ``time.perf_counter()`` reading at
spawn time; that clock is system-wide on Linux, so ``setup_s`` is measured
from process start to the return of one cheap warm-up op.  That op's check,
and a full warm-up round with every op kind once, follow outside ``setup_s``
and before the timed pass.  The worker prints one JSON line: only
``setup_s`` with ``--setup-only``, else the full results.

The loop is closed with one caller: the next op starts only when the
previous call has returned and its output has been checked.  Only the op
calls are timed; checks, input generation and the speed probe run between
them, untimed.

The speed probe is a fixed piece of work in the idiom of the ops (an
interpreted loop, numpy ufuncs, a scipy ``quad`` and ``brentq`` calls) that
never touches disclab.  It runs once after every op, untimed.  The vCPUs of
a shared host run the same code up to twice as fast in some minutes as in
others, and the probe's time follows that drift (see bench/NOTES.md), so
each latency is also reported rescaled to a box of reference speed:
multiplied by REF_PROBE_MS over the median probe time of the PROBE_WINDOW
probes around that op.  ``setup_s`` is rescaled in the same way by probes
run right after it.  A faster or slower library moves the rescaled times in
full, because the probe never calls disclab.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
from scipy import integrate, optimize  # noqa: E402

import workloads  # noqa: E402
from disclab.errors import DisclabError  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_TRACEBACKS = 3
# Median time of speed_probe on a box of reference speed: about what it took
# in the fast periods of a 2-vCPU Xeon VM with numpy 2 and scipy 1.
REF_PROBE_MS = 2.0
PROBE_WINDOW = 9  # probes around an op whose median rescales its latency
SETUP_PROBES = 9


class Pass:
    """Latencies and failure counts of one timed pass.

    ``failed`` counts every op that raised or failed its check.
    ``incorrect`` counts the subset that returned a wrong result or raised
    something other than a ``DisclabError``.  A ``DisclabError`` is the
    library's documented way to refuse an input or report a failed solve: it
    fails the op, but it is not a wrong answer.
    """

    def __init__(self):
        self.probes = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.kinds = {}

    @property
    def busy(self) -> float:
        return math.fsum(self.latencies)

    def record(self, op, latency, result, error) -> bool:
        """Count one op; run its check.  Returns whether the op passed."""
        self.attempted += 1
        self.latencies.append(latency)
        self.kinds.setdefault(op.kind, []).append(latency)
        if error is None:
            ok = passes_check(op, result)
            self.incorrect += not ok
        else:
            ok = False
            print(f"op raised: {op.kind}: {type(error).__name__}: {error}", file=sys.stderr)
            if not isinstance(error, DisclabError):
                self.incorrect += 1
                if self.incorrect <= MAX_TRACEBACKS:
                    traceback.print_exception(error, file=sys.stderr)
        self.failed += not ok
        return ok


def passes_check(op, result) -> bool:
    try:
        op.check(result)
    except workloads.CheckFailed as exc:
        print(f"check failed: {op.kind}: {exc}", file=sys.stderr)
        return False
    return True


def speed_probe() -> float:
    """Run the fixed probe work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 0.5
    integrate.quad(lambda x: math.exp(-x * x), 0.0, 3.0)
    for k in range(20):
        optimize.brentq(lambda x: x ** 3 - 2.0 - k, 0.0, 10.0)
    return time.perf_counter() - t0


def call_op(op, tracer=None):
    """Time one op.  Returns (latency, result, error)."""
    if tracer is not None:
        tracer.recording = True
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, error = None, exc
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.recording = False
    return latency, result, error


def run_pass(workload, seconds, tracer=None) -> Pass:
    """Run rounds 0, 1, ... until the op calls have taken `seconds`."""
    out = Pass()
    r = 0
    while out.busy < seconds:
        if tracer is not None:
            tracer.round = r
        for op in workload.round(r):
            latency, result, error = call_op(op, tracer)
            out.record(op, latency, result, error)
            out.probes.append(speed_probe())
            if out.busy >= seconds:
                break
        r += 1
    out.rounds = r
    return out


def speed_factor(probes) -> float:
    """REF_PROBE_MS over the median of `probes` (seconds): below 1 when the
    box ran slow."""
    return REF_PROBE_MS / (1e3 * statistics.median(probes))


def rescaled(p: Pass) -> list[float]:
    """Each latency times the speed factor of the probes around it."""
    half = PROBE_WINDOW // 2
    return [lat * speed_factor(p.probes[max(i - half, 0):i + half + 1])
            for i, lat in enumerate(p.latencies)]


def latency_stats(latencies) -> dict:
    lat_ms = [1e3 * x for x in latencies]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) >= 2 else lat_ms[0]
    return {
        "ops_per_s": len(lat_ms) / math.fsum(latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
    }


def summary(p: Pass) -> dict:
    return {
        **latency_stats(p.latencies),
        "rescaled": latency_stats(rescaled(p)),
        "samples": len(p.latencies),
        "rounds": p.rounds,
        "attempted": p.attempted,
        "failed": p.failed,
        "incorrect": p.incorrect,
        "probe_ms": 1e3 * statistics.median(p.probes),
        "probes": len(p.probes),
        "kinds_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(p.kinds.items())},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm = Pass()
    op = workload.warmup_op()
    outcome = call_op(op)
    setup_s = time.perf_counter() - args.spawned_at
    warm.record(op, *outcome)
    setup_factor = speed_factor([speed_probe() for _ in range(SETUP_PROBES)])
    out = {"setup_s": setup_s, "setup_rescaled_s": setup_s * setup_factor,
           "warmup_failed": warm.failed}
    if args.setup_only:
        print(json.dumps(out), flush=True)
        return 0
    # warm every op kind before the timed pass; not part of setup_s
    for op in workload.round(workloads.WARMUP_ROUND):
        warm.record(op, *call_op(op))
    out["warmup_failed"] = warm.failed

    untraced = run_pass(workload, args.seconds)
    out["untraced"] = summary(untraced)
    out["pooled_failures"] = workload.pooled_failures()
    attempted, failed = untraced.attempted, untraced.failed
    if args.trace:
        # the traced pass replays the same rounds, so it is pooled on its own
        workload.pool.clear()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, args.seconds, tracer)
        finally:
            tracer.uninstall()
        out["traced"] = summary(traced)
        out["per_layer"] = tracer.metrics()
        out["pooled_failures"] += workload.pooled_failures()
        attempted += traced.attempted
        failed += traced.failed
    out["attempted"], out["failed"] = attempted, failed
    out["incorrect"] = out["untraced"]["incorrect"] + out.get("traced", {}).get("incorrect", 0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"numpy": np.__version__, "scipy": __import__("scipy").__version__}
    out["blas_threads"] = blas_threads()
    print(json.dumps(out), flush=True)
    return 0


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
