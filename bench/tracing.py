"""Spans around the public entry points of each qextract layer.

The benchmark wraps functions by rebinding module and class attributes,
so the program itself is unchanged.  Every call of a wrapped function
records a span: name, start, end, parent span, the operation it belongs
to, and a few attributes read from the arguments and the result.  Spans
stay in memory and are written as JSON lines when the run ends.

Wrapped functions are only ever called from the benchmark's main
thread (the extractor's worker threads run below ``extract_blocks``),
so one span stack suffices.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


def _extract_label(job) -> str:
    spec = job.spec
    if spec.kind == "IP":
        if job.strong:
            return "ip_strong"
        return "ip_aligned" if spec.n % 8 == 0 else "ip_unaligned"
    return "circulant" if spec.family.construction == "circulant" else "field"


def _extract_attrs(args, kwargs, result) -> dict:
    job, x, y = args[:3]
    return {"label": _extract_label(job), "x_bytes": len(x),
            "bytes_in": len(x) + len(y), "bytes_out": len(result)}


def _hmin_attrs(args, kwargs, result) -> dict:
    blocks = args[0]
    gap = kwargs.get("gap", args[1] if len(args) > 1 else None)
    return {"d_b": int(blocks[0].shape[0]), "blocks": len(blocks),
            "steps": result.iterations, "gap": result.gap, "requested": gap}


class Tracer:
    """In-memory span recorder that installs and removes its wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # index of the traced operation that is running, or -1
        self.ops = 0  # traced operations so far
        self.saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, parent, self.op, attrs]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield rec
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter_ns()

    def _wrap(self, fn, name: str, attrs_of):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    rec[5] = attrs_of(args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        from qextract import dira, extractor, gf2, verify

        targets = [
            (extractor, "extract_file", "extractor.extract_file", None),
            (extractor, "extract_blocks", "extractor.extract_blocks", _extract_attrs),
            (extractor.ExtractorSpec, "apply_ints", "extractor.apply_ints", None),
            (gf2, "build_family", "gf2.build_family", None),
            (gf2.MatrixFamily, "from_json_dict", "gf2.from_json", None),
            (verify, "gen_random_instance", "verify.gen", None),
            (verify, "measured_epsilon", "verify.measured_epsilon", None),
            (verify, "h_min_blocks", "entropy.h_min", _hmin_attrs),
            (verify, "trace_norm", "quantum.trace_norm", None),
            (verify, "permute_systems", "quantum.permute_systems", None),
            (dira, "h_min_blocks", "entropy.h_min.dira", _hmin_attrs),
            (dira, "simulate_sv_exact", "dira.simulate", None),
        ]
        for owner, attr, name, attrs_of in targets:
            raw = owner.__dict__[attr]
            self.saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, attrs_of)))
            else:
                setattr(owner, attr, self._wrap(raw, name, attrs_of))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op, "attrs": attrs}) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


# Per-layer metrics: name -> unit.  "/op" values are means over the
# traced operations.
LAYER_UNITS = {
    "trace.op_s": "s/op",
    "trace.overhead_s": "s/op",
    "cli.overhead_s": "s/op",
    "gf2.build_family_s": "s",
    "gf2.from_json_s": "s/op",
    "extractor.extract_blocks_s": "s/op",
    "extractor.io_s": "s/op",
    "extractor.ip_aligned_mb_s": "MB/s",
    "extractor.ip_unaligned_mb_s": "MB/s",
    "extractor.ip_strong_mb_s": "MB/s",
    "extractor.circulant_mb_s": "MB/s",
    "extractor.field_mb_s": "MB/s",
    "extractor.bytes_in": "B/op",
    "extractor.bytes_out": "B/op",
    "extractor.worker_scaling": "ratio",
    "extractor.apply_ints_calls": "1/op",
    "extractor.apply_ints_s": "s/op",
    "quantum.permute_systems_s": "s/op",
    "quantum.trace_norm_s": "s/op",
    "quantum.calls": "1/op",
    "entropy.h_min_s": "s/op",
    "entropy.solves": "1/op",
    "entropy.newton_steps": "1/op",
    "entropy.newton_steps_per_solve": "1/solve",
    "entropy.max_gap": "bits",
    "entropy.gap_met_ratio": "ratio",
    "entropy.h_min_s.db_le4": "s/solve",
    "entropy.h_min_s.db_le8": "s/solve",
    "entropy.h_min_s.db_le16": "s/solve",
    "verify.gen_s": "s/op",
    "verify.measured_epsilon_s": "s/op",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "verify.min_margin": "margin",
    "dira.simulate_s": "s/op",
    "dira.blocks_per_solve": "1/solve",
}

DB_BUCKETS = (("db_le4", 0, 4), ("db_le8", 4, 8), ("db_le16", 8, 16))


def layer_metrics(spans: list[dict], ops: int, untraced_s: float,
                  worker_scaling: float) -> dict[str, float]:
    """Per-layer metrics of the traced operations.

    ``ops`` operations ran traced; as many untraced operations of the
    same shapes, in blocks that took turns with the traced ones, took
    ``untraced_s`` seconds.  Self time is a span's duration minus the
    time covered by its children.  A layer that the workload does not
    reach reports 0.
    """
    dur = [(s["end"] - s["start"]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]
    traced = [i for i, s in enumerate(spans) if s["op"] >= 0]

    def pick(name):
        return [i for i in traced if spans[i]["name"] == name]

    def total(name, self_time=False):
        return sum(dur[i] - (child[i] if self_time else 0.0) for i in pick(name))

    per_op = (lambda v: v / ops) if ops else (lambda v: 0.0)
    op_total = total("bench.op")
    m = {
        "trace.op_s": per_op(op_total),
        "trace.overhead_s": per_op(op_total - untraced_s),
        "cli.overhead_s": per_op(total("cli.main") - total("extractor.extract_file")),
        "extractor.extract_blocks_s": per_op(total("extractor.extract_blocks")),
        "extractor.io_s": per_op(total("extractor.extract_file", self_time=True)),
        "gf2.from_json_s": per_op(total("gf2.from_json")),
        "extractor.apply_ints_calls": per_op(len(pick("extractor.apply_ints"))),
        "extractor.apply_ints_s": per_op(total("extractor.apply_ints")),
        "quantum.permute_systems_s": per_op(total("quantum.permute_systems")),
        "quantum.trace_norm_s": per_op(total("quantum.trace_norm")),
        "quantum.calls": per_op(len(pick("quantum.permute_systems"))
                                + len(pick("quantum.trace_norm"))),
        "verify.gen_s": per_op(total("verify.gen")),
        "verify.measured_epsilon_s": per_op(total("verify.measured_epsilon")),
        "dira.simulate_s": per_op(total("dira.simulate")),
        "extractor.worker_scaling": worker_scaling,
    }
    builds = [dur[i] for i, s in enumerate(spans) if s["name"] == "gf2.build_family"]
    m["gf2.build_family_s"] = statistics.median(builds) if builds else 0.0

    blocks = pick("extractor.extract_blocks")
    m["extractor.bytes_in"] = per_op(sum(spans[i]["attrs"]["bytes_in"] for i in blocks))
    m["extractor.bytes_out"] = per_op(sum(spans[i]["attrs"]["bytes_out"] for i in blocks))
    for label in ("ip_aligned", "ip_unaligned", "ip_strong", "circulant", "field"):
        mine = [i for i in blocks if spans[i]["attrs"]["label"] == label]
        secs = sum(dur[i] for i in mine)
        nbytes = sum(spans[i]["attrs"]["x_bytes"] for i in mine)
        m[f"extractor.{label}_mb_s"] = nbytes / secs / 1e6 if secs else 0.0

    solves = pick("entropy.h_min") + pick("entropy.h_min.dira")
    attrs = [spans[i]["attrs"] for i in solves]
    m["entropy.h_min_s"] = per_op(sum(dur[i] for i in solves))
    m["entropy.solves"] = per_op(len(solves))
    m["entropy.newton_steps"] = per_op(sum(a["steps"] for a in attrs))
    m["entropy.newton_steps_per_solve"] = (sum(a["steps"] for a in attrs) / len(attrs)
                                           if attrs else 0.0)
    m["entropy.max_gap"] = max((a["gap"] for a in attrs), default=0.0)
    m["entropy.gap_met_ratio"] = (sum(a["gap"] <= a["requested"] for a in attrs) / len(attrs)
                                  if attrs else 0.0)
    for bucket, lo, hi in DB_BUCKETS:
        mine = [dur[i] for i in solves if lo < spans[i]["attrs"]["d_b"] <= hi]
        m[f"entropy.h_min_s.{bucket}"] = sum(mine) / len(mine) if mine else 0.0
    dira_solves = [spans[i]["attrs"]["blocks"] for i in pick("entropy.h_min.dira")]
    m["dira.blocks_per_solve"] = (sum(dira_solves) / len(dira_solves)
                                  if dira_solves else 0.0)

    checks = [spans[i]["attrs"] for i in pick("bench.op")
              if spans[i]["attrs"] and "margin" in spans[i]["attrs"]]
    m["verify.checks"] = len(checks)
    m["verify.checks_failed"] = sum(not c["passed"] for c in checks)
    m["verify.min_margin"] = min((c["margin"] for c in checks), default=0.0)
    if set(m) != set(LAYER_UNITS):
        raise RuntimeError(f"layer metrics out of step: {set(m) ^ set(LAYER_UNITS)}")
    return m
