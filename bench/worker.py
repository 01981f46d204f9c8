"""One fresh process of a benchmark run.

Started by ``run.py``; not meant to be run by hand.  Every role times
its set-up from process start: imports, ``gen-family`` or the family
builds, and the first warm operation.  The ``setup`` role stops there.
The ``measure`` role then times operations until its time window
closes.  The ``trace`` role alternates blocks of untraced and traced
operations (and, on extraction, untraced ones at ``--workers 1``) and
writes the spans.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(run, i: int):
    """(seconds, result, errors) of one operation and its checks."""
    t0 = time.perf_counter()
    try:
        result = run.op(i)
    except Exception as exc:  # one failed operation must not end the run
        return time.perf_counter() - t0, None, [f"op {i}: {exc!r}"]
    seconds = time.perf_counter() - t0
    return seconds, result, run.check(i, result)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += errors

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20]}


def whole_blocks(seconds: float, run_block) -> None:
    """Call ``run_block`` until the count of calls best fits ``seconds``:
    stop when one more call of average length would end further from
    the window's end than stopping now.  At least one call."""
    t0 = time.perf_counter()
    done = 0
    while True:
        run_block()
        done += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / done >= seconds:
            return


def set_up(run, tally: Tally) -> float:
    """Set-up as a user pays it, up to the first checked result: the
    warm op (``-1``), which is the same in every process of a run."""
    run.load()
    run.setup()
    tally.add(run_op(run, -1)[2])
    return time.perf_counter() - T0


def setup_only(run, args, block: int) -> dict:
    tally = Tally()
    setup_s = set_up(run, tally)
    return {"setup_s": setup_s, "digests": getattr(run, "digests", {}), **tally.to_json()}


def measure(run, args, block: int) -> dict:
    tally = Tally()
    setup_s = set_up(run, tally)
    times: list[float] = []
    next_op = [args.start]

    def one_block() -> None:
        for i in range(next_op[0], next_op[0] + block):
            dt, _, errors = run_op(run, i)
            tally.add(errors)
            if not errors:
                times.append(dt)
        next_op[0] += block

    whole_blocks(args.seconds, one_block)
    return {"setup_s": setup_s, "times": times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digests": getattr(run, "digests", {}), **tally.to_json()}


def trace(run, args, block: int) -> dict:
    """Untraced and traced blocks (and, on extraction, blocks at
    ``--workers 1``) take turns over fresh operations of the same
    shapes, in the order ABBA, so that drift of the machine cancels
    from the paired differences."""
    tracer = tracing.Tracer()
    run.load()
    tracer.install()
    run.setup()
    tally = Tally()
    tally.add(run_op(run, -1)[2])
    tracer.uninstall()

    def plain(i: int) -> float:
        dt, _, errors = run_op(run, i)
        tally.add(errors)
        return dt

    def single(i: int) -> float:
        run.workers = 1
        try:
            return plain(i)
        finally:
            run.workers = 2

    def traced(i: int) -> float:
        tracer.install()
        tracer.op = tracer.ops
        tracer.ops += 1
        result, errors = None, []
        with tracer.span("bench.op") as rec:
            try:
                result = run.op(i, span=tracer.span)
            except Exception as exc:  # one failed operation must not end the run
                errors = [f"op {i}: {exc!r}"]
        tracer.op = -1  # the checks are not part of the operation
        tracer.uninstall()
        if result is not None:
            errors = run.check(i, result)
            margin = run.margin(result)
            if margin is not None:
                rec[5] = {"passed": not errors, "margin": margin}
        tally.add(errors)
        return (rec[2] - rec[1]) * 1e-9

    phases = {"plain": plain, "traced": traced}
    if hasattr(run, "workers"):
        phases["single"] = single
    totals = dict.fromkeys(phases, 0.0)
    next_op = [args.start]

    def one_pass(order) -> None:
        for name in order:
            for i in range(next_op[0], next_op[0] + block):
                totals[name] += phases[name](i)
            next_op[0] += block

    def abba() -> None:
        one_pass(list(phases))
        one_pass(reversed(phases))

    whole_blocks(args.seconds, abba)
    tracer.write(args.spans)
    scaling = totals["single"] / totals["plain"] if "single" in totals else 0.0
    return {"ops": tracer.ops, "untraced_s": totals["plain"], "worker_scaling": scaling,
            **tally.to_json()}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--plan", required=True)
    p.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    args = p.parse_args()
    with open(args.plan) as f:
        plan = json.load(f)
    run = workloads.runner(plan)
    role = {"setup": setup_only, "measure": measure, "trace": trace}[args.role]
    with open(args.result, "w") as f:
        json.dump(role(run, args, plan["block"]), f)


if __name__ == "__main__":
    main()
