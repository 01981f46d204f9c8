"""The verify suites against their golden verdict record.

``tests/golden/verify.json`` is written by ``tools/make_golden.py``.
The test re-runs the tool and compares, run by run and check by check:
the exit code and every integer, boolean and string field exactly;
``measured`` and ``bound`` (``lhs_sq`` and ``rhs_sq`` in the xor suite)
to a relative 1e-12; and each certified bracket, which must overlap the
recorded one (to a relative 1e-12) and be no wider than the requested gap.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verify.json")
TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "make_golden.py")
REL_TOL = 1e-12


def _is_bracket(value) -> bool:
    return isinstance(value, dict) and set(value) == {"lower", "upper"}


def check_mismatches(fresh: dict, recorded: dict, gap: float) -> list[str]:
    """Each way one fresh check departs from its recorded one."""
    out = []
    if fresh.keys() != recorded.keys():
        return [f"fields {sorted(fresh)} != {sorted(recorded)}"]
    brackets = {k: v for k, v in fresh.items() if _is_bracket(v)}
    if "lower" in fresh:
        brackets[""] = {"lower": fresh["lower"], "upper": fresh["upper"]}
    for name, got in brackets.items():
        want = recorded[name] if name else recorded
        if got["upper"] - got["lower"] > gap:
            out.append(f"bracket {name or 'h_min'} {got} is wider than the gap {gap}")
        # two closed-form brackets of zero width may differ in the last bits
        slack = REL_TOL * max(abs(want["lower"]), abs(want["upper"]))
        if got["lower"] > want["upper"] + slack or want["lower"] > got["upper"] + slack:
            out.append(f"bracket {name or 'h_min'} {got} misses the recorded {want}")
    for key, got in fresh.items():
        want = recorded[key]
        if key in ("lower", "upper") or _is_bracket(got):
            continue
        if isinstance(got, float):
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                out.append(f"{key} {got!r} != recorded {want!r}")
        elif type(got) is not type(want) or got != want:
            out.append(f"{key} {got!r} != recorded {want!r}")
    return out


def run_mismatches(fresh: dict, recorded: dict) -> list[str]:
    label = f"{recorded['suite']} --count {recorded['count']} --seed {recorded['seed']}"
    head = {k: v for k, v in fresh.items() if k != "checks"}
    if head != {k: v for k, v in recorded.items() if k != "checks"}:
        return [f"{label}: {head} != recorded"]
    if len(fresh["checks"]) != len(recorded["checks"]):
        return [f"{label}: {len(fresh['checks'])} checks, recorded {len(recorded['checks'])}"]
    return [f"{label} check {i}: {msg}"
            for i, (got, want) in enumerate(zip(fresh["checks"], recorded["checks"]))
            for msg in check_mismatches(got, want, recorded["gap"])]


def test_golden_record_is_fresh(tmp_path):
    path = tmp_path / "verify.json"
    subprocess.run([sys.executable, TOOL, str(path)], check=True, capture_output=True)
    with open(path) as f, open(GOLDEN) as g:
        fresh, recorded = json.load(f)["runs"], json.load(g)["runs"]
    assert len(fresh) == len(recorded)
    problems = [msg for got, want in zip(fresh, recorded) for msg in run_mismatches(got, want)]
    assert not problems, "\n".join(problems[:20])


def _chaining_check():
    return {"seed": 3, "passed": True, "bound": 4.0,
            "lower": 3.99999999999953, "upper": 4.000000000000016}


def test_comparison_accepts_a_shifted_bracket_that_overlaps():
    got = dict(_chaining_check(), lower=3.9999999, upper=4.0000001)
    assert check_mismatches(got, _chaining_check(), 1e-6) == []
    closed = {"lower": 2.3502578256492557, "upper": 2.3502578256492557}
    assert check_mismatches({"lower": 2.3502578256492552, "upper": 2.3502578256492552},
                            closed, 1e-6) == []


def test_comparison_rejects_each_kind_of_departure():
    want = _chaining_check()
    for change, what in (({"passed": False}, "passed"),
                         ({"seed": 4}, "seed"),
                         ({"bound": 4.0 * (1 + 1e-11)}, "bound"),
                         ({"lower": 4.1, "upper": 4.1}, "misses"),
                         ({"lower": 3.9, "upper": 4.0}, "wider")):
        problems = check_mismatches(dict(want, **change), want, 1e-6)
        assert problems and what in problems[0], (change, problems)
    nested = {"k1": {"lower": 1.0, "upper": 1.0}, "passed": True}
    shifted = {"k1": {"lower": 1.1, "upper": 1.1}, "passed": True}
    assert "k1" in check_mismatches(shifted, nested, 1e-6)[0]


def test_golden_record_names_every_suite_once():
    # a new suite cannot ship without a golden record
    from qextract.verify import SUITES

    spec = importlib.util.spec_from_file_location("make_golden", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert sorted(suite for suite, _ in tool.RUNS) == sorted(SUITES)
