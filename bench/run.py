"""qextract benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload extract-aligned --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The inputs are made from ``--seed``.  With ``--trace 0`` the
run measures the end-to-end metrics in three fresh processes, each
given a third of the ``--seconds`` window, and times set-up alone in
two more fresh processes before each of them; with ``--trace 1`` one
process measures the per-layer split (see ``tracing.py``).  Every
output is checked against the exact oracles.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only if
every check passed.  ``--smoke`` shrinks every input to a few blocks or
instances, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("extract-aligned", "extract-bits", "certify-scenario", "certify-chain")
MEASURE_PROCESSES = 3
# Fresh processes that only set up (imports, families, first op), run
# before each measuring process: setup_s is the median over all of them
# and the measuring processes, nine samples a run.
SETUP_PROCESSES_PER_MEASURE = 2
# One BLAS thread in the measuring processes.  On a 2-vCPU machine a
# second OpenBLAS thread made certify-scenario no faster and spread its
# median instance time over 20% from run to run, against 3% with one.
# The extractor's two worker threads are unaffected (no BLAS there).
WORKER_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

# End-to-end metrics, one set for every workload.  An operation ("op")
# is one extraction pass over the workload's jobs, or one certified
# instance.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p75": "s",
    "peak_rss_mb": "MiB",
}


def machine_record() -> dict:
    """Cores, interpreter, numpy and BLAS, thread variables, caches, memory."""
    import numpy

    rec = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k, "unset") for k in WORKER_THREAD_ENV},
        "worker_thread_env": WORKER_THREAD_ENV,
        "note": "caches are as the kernel reports them; the last level is shared "
                "with other tenants, so extract-aligned is file-to-file throughput, "
                "not memory bandwidth",
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        rec["blas"] = "unknown"
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            entry = {}
            for key in ("level", "type", "size", "shared_cpu_list"):
                with open(os.path.join(base, index, key)) as f:
                    entry[key] = f.read().strip()
            caches.append(entry)
    rec["caches"] = caches
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                rec["mem_available_kb"] = int(line.split()[1])
    return rec


def spawn(work: str, role: str, seconds: float, start: int, tag: str) -> dict:
    """Run one worker process to completion; a crash counts as one failure."""
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--plan",
           os.path.join(work, "plan.json"), "--role", role, "--seconds", str(seconds),
           "--start", str(start), "--result", result,
           "--spans", os.path.join(work, f"{tag}.spans.jsonl")]
    env = dict(os.environ, **WORKER_THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        # set-up and the last block may overrun the window; a hang may not
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=30 + 2 * seconds)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "errors": [f"{tag}: timed out"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"attempted": 1, "failed": 1,
                "errors": [f"{tag}: exit {proc.returncode}: {tail[0]}"]}
    with open(result) as f:
        return json.load(f)


def fail(tally: dict, error: str) -> None:
    """Count a failed check of the whole run as one more failed attempt."""
    tally["attempted"] += 1
    tally["failed"] += 1
    tally["errors"].append(error)


def measured_run(plan: dict, work: str, seconds: float) -> tuple[dict, dict]:
    blocks = len(plan.get("slots", ())) // plan["block"]
    parts = []
    for c in range(MEASURE_PROCESSES):
        start = c * blocks // MEASURE_PROCESSES * plan["block"]
        parts += [spawn(work, "setup", 0, 0, f"setup{c}.{k}")
                  for k in range(SETUP_PROCESSES_PER_MEASURE)]
        parts.append(spawn(work, "measure", seconds / MEASURE_PROCESSES, start, f"measure{c}"))
    tally = {"attempted": sum(p["attempted"] for p in parts),
             "failed": sum(p["failed"] for p in parts),
             "errors": [e for p in parts for e in p["errors"]]}
    digests = {}
    for p in parts:
        for job, digest in p.get("digests", {}).items():
            if digests.setdefault(job, digest) != digest:
                fail(tally, f"{job}: output differs between processes")
    recorded = workloads.SMOKE_DIGESTS.get(plan["workload"], {}) \
        if plan["smoke"] and plan["seed"] == 0 else {}
    for job, digest in recorded.items():
        if digests.get(job) != digest:
            fail(tally, f"{job}: output differs from the recorded digest")
    measured = [p for p in parts if "times" in p]
    times = [t for p in measured for t in p["times"]]
    setups = [p["setup_s"] for p in parts if "setup_s" in p]
    if len(measured) < MEASURE_PROCESSES or len(setups) < len(parts) or len(times) < 2:
        fail(tally, "too few timed operations")
        return tally, {}
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p75": statistics.quantiles(times, n=4)[2],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in measured),
    }
    tally["samples"] = len(times)
    return tally, metrics


def traced_run(plan: dict, work: str, seconds: float) -> tuple[dict, dict]:
    part = spawn(work, "trace", seconds, 0, "trace")
    tally = {k: part[k] for k in ("attempted", "failed", "errors")}
    if not part.get("ops"):
        fail(tally, "no traced operations")
        return tally, {}
    spans = tracing.read_spans(os.path.join(work, "trace.spans.jsonl"))
    metrics = tracing.layer_metrics(spans, part["ops"], part["untraced_s"],
                                    part["worker_scaling"])
    tally["samples"] = part["ops"]
    return tally, metrics


def report_lines(plan: dict, trace: bool, tally: dict, metrics: dict) -> list[str]:
    """Human-readable lines, with the workload-specific names of the
    end-to-end metrics (stream_mb_s, instances_per_s, instance_s_p50...)."""
    name = plan["workload"]
    lines = [f"# {name} seed={plan['seed']} trace={int(trace)} "
             f"samples={tally.get('samples', 0)}"]
    named = [("fail_ratio", tally["failed"] / tally["attempted"], "failed/attempted")]
    if metrics and not trace:
        named.append(("setup_s", metrics["setup_s"], "s"))
        named.append(("peak_rss_mb", metrics["peak_rss_mb"], "MiB"))
        if "jobs" in plan:
            per_op = sum(j["stream_bytes"] for j in plan["jobs"]) / 1e6
            named.append(("stream_mb_s", metrics["ops_per_s"] * per_op,
                          "MB per input stream per second"))
            named.append(("pass_s_p50", metrics["op_s_p50"], "s"))
            named.append(("pass_s_p75", metrics["op_s_p75"], "s"))
        else:
            named.append(("instances_per_s", metrics["ops_per_s"], "1/s"))
            named.append(("instance_s_p50", metrics["op_s_p50"], "s"))
            named.append(("instance_s_p75", metrics["op_s_p75"], "s"))
    elif metrics:
        named += [(k, v, tracing.LAYER_UNITS[k]) for k, v in metrics.items()]
    lines += [f"{name}  {key:34s} {value:.6g} {unit}" for key, value, unit in named]
    lines += [f"# error: {e}" for e in tally["errors"]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "qextract", "__init__.py")):
        print(f"error: no qextract sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        plan = workloads.prepare(args.workload, work, args.seed, args.smoke)
        with open(os.path.join(work, "plan.json"), "w") as f:
            json.dump(plan, f)
        run = traced_run if args.trace else measured_run
        tally, metrics = run(plan, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = tracing.LAYER_UNITS if args.trace else E2E_UNITS
    correct = tally["failed"] == 0
    for line in report_lines(plan, bool(args.trace), tally, metrics):
        print(line)
    print(json.dumps({"machine": machine_record()}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
