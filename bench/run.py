"""disclab benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload avg_p2 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workloads and metrics are declared in
BENCHMARK.json; bench/NOTES.md says why each was chosen.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is
the median over SETUP_SAMPLES fresh processes of the time from process start
to the return of one cheap warm-up op (imports, seeded inputs, that op).
The last of those processes then warms every op kind once, untimed, and runs
the timed pass: a closed loop with one caller for ``--seconds`` seconds of
op calls.

The times reported (``setup_s``, ``ops_per_s``, ``op_p50_ms``,
``op_p90_ms``) are wall times rescaled to a box of reference speed by the
worker's speed probe (see worker.py).  The box this was built on runs the
same code up to twice as fast in some minutes as in others, and the
rescaling takes that drift out of a comparison between commits.  The raw
wall times go to the result file, and the printed table shows both.

With ``--trace 1`` the same process first runs an untraced pass, then a
traced pass of equal length, and reports the per-layer metrics plus the
difference in ops/s between the two.

Every run also writes a result file with the environment and the full
numbers under ``--out`` (default bench/results); bench/compare.py compares
two sets of them.  The last line of standard output is the JSON object
{"correct", "attempted", "failed", "metrics"}.  ``failed`` counts ops that
raised or failed their check; ``correct`` is false when an op returned a
wrong result or raised anything but a DisclabError, when a warm-up op
failed, or when a pooled check failed.  The exit code is 0 when a result was
printed, and 2 when the tree has no disclab sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
# One BLAS thread: ops are small and the box is shared, so extra threads
# add contention and run-to-run spread, not speed.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn_worker(args, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.perf_counter())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_state():
    """(sha, dirty) of the tree, or (None, None) outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def _proc_field(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(args, worker) -> dict:
    sha, dirty = git_state()
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        **worker["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": int(mem_kb.split()[0]) // 1024 if mem_kb else None,
        "blas_threads": worker["blas_threads"],
        "blas_env": CHILD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(worker, setups, raw=False) -> dict:
    """The end-to-end metrics: times rescaled to the reference speed, or as
    measured with `raw`."""
    u = worker["untraced"]
    t = u if raw else u["rescaled"]
    return {
        "setup_s": (statistics.median(s[raw] for s in setups), "s"),
        "ops_per_s": (t["ops_per_s"], "1/s"),
        "op_p50_ms": (t["op_p50_ms"], "ms"),
        "op_p90_ms": (t["op_p90_ms"], "ms"),
        "ok_ratio": ((u["attempted"] - u["failed"]) / u["attempted"], "ratio"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def per_layer(worker) -> dict:
    out = {k: tuple(v) for k, v in worker["per_layer"].items()}
    # rescaled, so that the box's drift between the two passes cancels
    untraced, traced = (worker[k]["rescaled"]["ops_per_s"] for k in ("untraced", "traced"))
    out["trace.untraced_ops_per_s"] = (untraced, "1/s")
    out["trace.traced_ops_per_s"] = (traced, "1/s")
    out["trace.overhead_ops_per_s"] = (untraced - traced, "1/s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "results"),
                    help="directory for the result file")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "disclab", "__init__.py")):
        print(f"error: no disclab sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            setups = [spawn_worker(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        worker = spawn_worker(args, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # (rescaled, raw) per set-up sample, indexed by the `raw` flag
    setups = [(w["setup_rescaled_s"], w["setup_s"]) for w in setups + [worker]]

    if args.trace:
        measured, declared = per_layer(worker), spec["per_layer"]
    else:
        measured, declared = end_to_end(worker, setups), spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": measured[m["name"]][1]}
               for m in declared}
    correct = worker["incorrect"] == 0 and worker["warmup_failed"] == 0 and not worker["pooled_failures"]
    result = {"correct": correct, "attempted": worker["attempted"],
              "failed": worker["failed"], "metrics": metrics}

    record = {"result": result, "environment": environment(args, worker),
              "setup_samples_s": setups, "worker": worker,
              "raw_end_to_end": {k: v[0] for k, v in end_to_end(worker, setups, raw=True).items()}}
    os.makedirs(args.out, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(args.out, f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    u = worker["untraced"]
    raw = record["raw_end_to_end"]
    print(f"workload {args.workload}, seed {args.seed}: {u['samples']} timed ops in "
          f"{u['rounds']} rounds, {len(setups)} set-up samples, probe median {u['probe_ms']:.4g} ms")
    for name, m in metrics.items():
        wall = f"  (wall {raw[name]:.6g})" if not args.trace and raw[name] != m["value"] else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{wall}")
    print(f"  {'fail_ratio':34s} {worker['failed'] / worker['attempted']:14.6g} ratio")
    for msg in worker["pooled_failures"]:
        print(f"  pooled check failed: {msg}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
