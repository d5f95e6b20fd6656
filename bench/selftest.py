"""Self-test and smoke run of the benchmark.

    python3 bench/selftest.py

The checker self-test feeds one deliberately wrong result per workload
through the op checks (and one op that raised) and requires each to count
as failed, and a synthetic pass checks that latencies are rescaled by the
probes around them.  The smoke run starts bench/run.py for every workload with
--trace 0 and --trace 1 and requires that the last line carries every
end-to-end or per-layer metric named in BENCHMARK.json, with its unit, and
no failed op.  Exit code 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

problems = []


def expect(cond, msg):
    if not cond:
        problems.append(msg)
        print(f"FAIL: {msg}")


def wrong(result):
    """A plausible but wrong version of an op result."""
    if isinstance(result, tuple):  # density_curves: an identity cdf and ppf
        grid = workloads.GRID.copy()
        return result[:2] + (grid, grid) + result[4:]
    if hasattr(result, "method"):  # a DiscrepancyResult labelled with the wrong p
        return dataclasses.replace(result, p=result.p + 1.0)
    if hasattr(result, "mean_Lp_p"):
        return dataclasses.replace(result, mean_Lp_p=2.0 * result.mean_Lp_p)
    return dataclasses.replace(result, ratio=2.0 * result.ratio)  # c* report


def checker_selftest(spec):
    for w in spec["workloads"]:
        workload = workloads.WORKLOADS[w["name"]](seed=1)
        op = workload.round(0)[0]
        latency, result, error = worker.call_op(op)
        p = worker.Pass()
        expect(p.record(op, latency, result, error) and p.failed == 0,
               f"{w['name']}: correct {op.kind} result counted as failed")
        expect(not p.record(op, latency, wrong(result), None) and p.failed == 1,
               f"{w['name']}: wrong {op.kind} result not counted as failed")
        expect(not p.record(op, latency, None, RuntimeError("raised on purpose")) and p.failed == 2,
               f"{w['name']}: raising {op.kind} not counted as failed")
        expect(p.attempted == 3, f"{w['name']}: {p.attempted} ops attempted, expected 3")
        print(f"checker {w['name']}: wrong {op.kind} result and raising op both counted as failed")


def rescale_selftest():
    """Latencies are scaled by the probes around them, and only by those."""
    p = worker.Pass()
    p.latencies = [0.1] * 20 + [0.2] * 20
    ref = worker.REF_PROBE_MS / 1e3
    p.probes = [ref] * 20 + [2.0 * ref] * 20  # the box halves its speed midway
    got = worker.rescaled(p)
    expect(got[:16] == [0.1] * 16 and got[-16:] == [0.1] * 16,
           f"rescaled latencies {got[:2]}, {got[-2:]}, expected 0.1 away from the switch")
    print("rescale: latencies scaled by the probe window around them")


def smoke(spec):
    with tempfile.TemporaryDirectory(dir=HERE, prefix="selftest-") as out:
        for w in spec["workloads"]:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                       "--seed", "3", "--seconds", "1", "--trace", str(trace), "--out", out]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
                tag = f"{w['name']} --trace {trace}"
                expect(proc.returncode == 0, f"{tag}: exit code {proc.returncode}")
                if proc.returncode != 0:
                    continue
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys {sorted(res)}")
                expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                       f"{tag}: correct={res['correct']} failed={res['failed']}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                want = {m["name"]: m["unit"] for m in declared}
                expect(got == want, f"{tag}: metrics/units differ: {set(got.items()) ^ set(want.items())}")
                expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                       f"{tag}: a metric value is not a number")
                print(f"smoke {tag}: {len(got)} metrics, {res['attempted']} ops, failed {res['failed']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    checker_selftest(spec)
    rescale_selftest()
    smoke(spec)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
