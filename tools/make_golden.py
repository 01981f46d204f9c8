#!/usr/bin/env python3
"""Regenerate the golden verdict record tests/golden/verify.json.

Runs ``qextract verify`` in-process for each recorded suite, count and
seed, at the command's default gap ``verify.SUITE_GAP``, and keeps the
exit code and, of each check, only the fields that
``tests/test_golden.py`` compares: identity fields and verdicts exactly,
``measured``/``bound`` (``lhs_sq``/``rhs_sq`` in the xor suite) to a
relative 1e-12, and each certified bracket, kept as its ``lower`` and
``upper``.  Run from the repository root:

    python3 tools/make_golden.py [output-path]

A change that alters a recorded verdict regenerates the file and says
which checks changed and why.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qextract import cli  # noqa: E402
from qextract.verify import SUITE_GAP  # noqa: E402

DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "..", "tests", "golden", "verify.json")
SEEDS = (0, 5)
# every suite of verify.SUITES, once; tightness and counterexample run one
# check whatever the count
RUNS = (("ip-bound", 200), ("deor-bound", 100), ("tightness", 1), ("counterexample", 1),
        ("chaining", 200), ("xor", 200), ("alt-model", 50))
EXACT = ("seed", "kind", "n", "m", "r", "strong", "passed")
CLOSE = ("measured", "bound", "lhs_sq", "rhs_sq")
BRACKET = ("lower", "upper")


def kept(check: dict) -> dict:
    """The fields of one check that the golden comparison reads."""
    out = {k: check[k] for k in EXACT + CLOSE + BRACKET if k in check}
    for name, value in check.items():
        if isinstance(value, dict) and set(BRACKET) <= set(value):
            out[name] = {k: value[k] for k in BRACKET}
    return out


def record_run(suite: str, count: int, seed: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--suite", suite, "--count", str(count),
                         "--seed", str(seed), "--gap", repr(SUITE_GAP)])
    return {"suite": suite, "count": count, "seed": seed, "gap": SUITE_GAP, "exit": code,
            "checks": [kept(c) for c in json.loads(buf.getvalue())]}


def render(runs: list[dict]) -> str:
    """The record as JSON text with one check per line, so that a diff
    names the changed checks."""
    parts = []
    for run in runs:
        head = json.dumps({k: v for k, v in run.items() if k != "checks"})[:-1]
        checks = ",\n".join("  " + json.dumps(c) for c in run["checks"])
        parts.append(f' {head}, "checks": [\n{checks}\n ]}}')
    return '{"runs": [\n' + ",\n".join(parts) + "\n]}\n"


def main(path: str = DEFAULT_PATH) -> None:
    runs = [record_run(suite, count, seed) for suite, count in RUNS for seed in SEEDS]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(render(runs))
    print(f"wrote {path}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
