import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qextract import extractor, verify
from qextract.cli import build_parser, main
from qextract.extractor import IP, ExtractionJob, ExtractorSpec, extract_blocks
from qextract.verify import SUITES, run_suite, run_tightness

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenFamily:
    def test_field_family_file(self, capsys, tmp_path):
        out = tmp_path / "fam.json"
        code, stdout, _ = run(capsys, "gen-family", "--n", "8", "--m", "8",
                              "--r", "0", "--out", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["construction"] == "field-mult"
        with open(out) as f:
            fam = json.load(f)
        assert fam == {"n": 8, "m": 8, "r": 0, "construction": "field-mult"}
        assert list(fam) == ["n", "m", "r", "construction"]

    def test_circulant(self, capsys, tmp_path):
        out = tmp_path / "fam.json"
        code, stdout, _ = run(capsys, "gen-family", "--n", "5", "--m", "3",
                              "--r", "1", "--out", str(out))
        assert code == 0
        with open(out) as f:
            assert json.load(f)["construction"] == "circulant"

    def test_invalid_combination_exits_2(self, capsys, tmp_path):
        out = tmp_path / "fam.json"
        code, _, err = run(capsys, "gen-family", "--n", "4", "--m", "2",
                           "--r", "1", "--out", str(out))
        assert code == 2
        assert "not prime" in err
        assert not out.exists()

    def test_over_size_cap_exits_2(self, capsys, tmp_path):
        out = tmp_path / "fam.json"
        code, _, err = run(capsys, "gen-family", "--n", "1000000007", "--m", "1",
                           "--r", "1", "--out", str(out))
        assert code == 2
        assert "cap" in err
        assert not out.exists()


class TestExtract:
    def test_ip_pipeline(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(rng.bytes(400))
        y.write_bytes(rng.bytes(400))
        out = tmp_path / "z"
        code, stdout, _ = run(capsys, "extract", "--n", "32",
                              "--x", str(x), "--y", str(y),
                              "--blocks", "100", "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["out_bits_per_block"] == 1
        assert len(out.read_bytes()) == 13

    def test_family_pipeline_strong(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        run(capsys, "gen-family", "--n", "5", "--m", "3", "--r", "1",
            "--out", str(fam))
        rng = np.random.default_rng(1)
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(rng.bytes(100))
        y.write_bytes(rng.bytes(100))
        out = tmp_path / "z"
        code, stdout, _ = run(capsys, "extract", "--family", str(fam),
                              "--x", str(x), "--y", str(y), "--blocks", "64",
                              "--strong", "--out", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["out_bits_per_block"] == 8
        assert payload["bytes_written"] == 64

    def test_truncated_exits_3_no_partial_output(self, capsys, tmp_path):
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(b"\x00" * 3)
        y.write_bytes(b"\x00" * 16)
        out = tmp_path / "z"
        code, _, err = run(capsys, "extract", "--n", "8",
                           "--x", str(x), "--y", str(y), "--blocks", "16",
                           "--out", str(out))
        assert code == 3
        assert "block 3" in err
        assert not out.exists()
        assert not list(tmp_path.glob(".qextract-*"))

    def test_workers_below_one_exits_2(self, capsys, tmp_path):
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(b"\x00" * 16)
        y.write_bytes(b"\x00" * 16)
        out = tmp_path / "z"
        for workers in ("0", "-2"):
            code, _, err = run(capsys, "extract", "--n", "8",
                               "--x", str(x), "--y", str(y), "--blocks", "16",
                               "--workers", workers, "--out", str(out))
            assert code == 2
            assert "--workers" in err
        assert not out.exists()

    def test_family_and_n_together_exit_2(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        run(capsys, "gen-family", "--n", "5", "--m", "3", "--r", "1", "--out", str(fam))
        data = tmp_path / "data"
        data.write_bytes(b"\x00" * 64)
        io_args = ["--x", str(data), "--y", str(data), "--blocks", "8",
                   "--out", str(tmp_path / "z")]
        for source in (["--family", str(fam), "--n", "64"], []):
            with pytest.raises(SystemExit) as exc:
                main(["extract", *source, *io_args])
            assert exc.value.code == 2
            assert "--n" in capsys.readouterr().err
        assert not (tmp_path / "z").exists()

    def test_missing_input_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "extract", "--n", "8",
                           "--x", str(tmp_path / "nope"), "--y", str(tmp_path / "nope"),
                           "--blocks", "1", "--out", str(tmp_path / "z"))
        assert code == 3

    def test_unreadable_input_exits_3(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.write_bytes(b"\x00" * 16)
        for flags in (("--x", str(tmp_path), "--y", str(data), "--n", "8"),
                      ("--x", str(data), "--y", str(tmp_path), "--n", "8"),
                      ("--x", str(data), "--y", str(data), "--family", str(tmp_path))):
            code, _, err = run(capsys, "extract", *flags, "--blocks", "16",
                               "--out", str(tmp_path / "z"))
            assert code == 3, flags
            assert err.startswith("error: bad input data:") and str(tmp_path) in err
        assert not (tmp_path / "z").exists()

    def test_missing_out_directory_names_out_path(self, capsys, tmp_path):
        data = tmp_path / "data"
        data.write_bytes(b"\x00" * 16)
        out = tmp_path / "nodir" / "z"
        code, _, err = run(capsys, "extract", "--n", "8", "--x", str(data),
                           "--y", str(data), "--blocks", "16", "--out", str(out))
        assert code == 2
        assert str(out) in err and ".qextract-" not in err

    def test_unwritable_out_fails_before_kernel_work(self, capsys, tmp_path, monkeypatch):
        def no_kernel(*args):
            raise AssertionError("kernel ran before the output was checked")

        monkeypatch.setattr(extractor, "_extract_chunk", no_kernel)
        data = tmp_path / "data"
        data.write_bytes(b"\x00" * 16)
        for out in (tmp_path / "nodir" / "z", tmp_path):
            code, _, err = run(capsys, "extract", "--n", "8", "--x", str(data),
                               "--y", str(data), "--blocks", "16", "--out", str(out))
            assert code == 2, out
            assert err.startswith("error: cannot write output:") and str(out) in err
        assert not list(tmp_path.glob(".qextract-*"))

    def test_extract_loads_no_analysis_module(self, tmp_path):
        # extract runs pay for every module they import in their setup time
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(bytes(range(16)))
        y.write_bytes(bytes(range(16, 32)))
        child = ("import sys\nfrom qextract.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n"
                 "print(sorted(m for m in ('qextract.entropy', 'qextract.verify',"
                 " 'qextract.dira') if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(extractor.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child, "extract", "--n", "32",
                               "--x", str(x), "--y", str(y), "--blocks", "4",
                               "--out", str(tmp_path / "z")],
                              env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_zero_blocks_empty_output(self, capsys, tmp_path):
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(b"")
        y.write_bytes(b"")
        out = tmp_path / "z"
        code, _, _ = run(capsys, "extract", "--n", "8", "--x", str(x),
                         "--y", str(y), "--blocks", "0", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == b""


class TestOutputFileMode:
    """Extracted bits are secret randomness: every output file is 0600."""

    @pytest.fixture(autouse=True)
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    @pytest.mark.parametrize("replace", [False, True])
    def test_outputs_are_owner_only(self, capsys, tmp_path, replace):
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(bytes(range(16)))
        y.write_bytes(bytes(range(16, 32)))
        fam, z = tmp_path / "fam.json", tmp_path / "z"
        commands = (("gen-family", "--n", "5", "--m", "3", "--r", "1", "--out", str(fam)),
                    ("extract", "--n", "32", "--x", str(x), "--y", str(y), "--blocks", "4",
                     "--out", str(z)))
        for out, argv in zip((fam, z), commands):
            if replace:
                out.write_bytes(b"old")
                out.chmod(0o644)
            assert run(capsys, *argv)[0] == 0
            assert out.stat().st_mode & 0o777 == 0o600, argv[0]


class TestEntropy:
    def test_counterexample_fixture(self, capsys):
        code, stdout, _ = run(capsys, "entropy", "--kind", "hmin",
                              "--state", f"{FIXTURES}/counterexample_eta.json",
                              "--target", "X", "--condition", "B")
        assert code == 0
        payload = json.loads(stdout)
        assert abs(payload["value_bits"] - 0.45689) < 1e-3
        assert payload["gap"] <= 1e-6

    def test_maximally_entangled_fixture(self, capsys):
        code, stdout, _ = run(capsys, "entropy", "--kind", "hmin",
                              "--state", f"{FIXTURES}/maximally_entangled.json",
                              "--target", "A", "--condition", "B")
        assert code == 0
        assert abs(json.loads(stdout)["value_bits"] + 1.0) < 1e-6

    def test_product_uniform_fixture(self, capsys):
        code, stdout, _ = run(capsys, "entropy", "--kind", "hmin",
                              "--state", f"{FIXTURES}/product_uniform_n3.json",
                              "--target", "X", "--condition", "B")
        assert code == 0
        assert abs(json.loads(stdout)["value_bits"] - 3.0) < 1e-6

    @pytest.mark.parametrize("name, stage", [("product_uniform_n3", "commuting"),
                                             ("counterexample_eta", "pure"),
                                             ("maximally_entangled", "iterations")])
    def test_certificate_names_the_stage(self, capsys, name, stage):
        code, stdout, _ = run(capsys, "entropy", "--kind", "hmin",
                              "--state", f"{FIXTURES}/{name}.json")
        assert code == 0 and json.loads(stdout)["certificate"] == stage

    def test_pguess(self, capsys):
        code, stdout, _ = run(capsys, "entropy", "--kind", "pguess",
                              "--state", f"{FIXTURES}/counterexample_eta.json")
        assert code == 0
        payload = json.loads(stdout)
        assert abs(payload["value_prob"] - 2 ** -0.45689) < 1e-3

    def test_pguess_gap_in_bits(self, capsys):
        # lower and upper are probabilities; gap is the width of the h_min
        # bracket, in the bits of requested_gap
        code, stdout, _ = run(capsys, "entropy", "--kind", "pguess", "--gap", "1e-6",
                              "--state", f"{FIXTURES}/counterexample_eta.json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["gap"] == pytest.approx(math.log2(payload["upper"] / payload["lower"]),
                                               rel=1e-12)
        assert payload["gap"] <= payload["requested_gap"]

    def test_pguess_reads_target_and_condition(self, capsys):
        path = f"{FIXTURES}/product_uniform_n3.json"
        code, stdout, err = run(capsys, "entropy", "--kind", "pguess", "--state", path,
                                "--target", "B", "--condition", "X")
        assert code == 2 and stdout == ""
        assert err == "error: guessing probability needs a classical target; ['B'] are quantum\n"
        code, stdout, _ = run(capsys, "entropy", "--kind", "pguess", "--state", path,
                              "--target", "X", "--condition", "B")
        assert code == 0
        assert json.loads(stdout)["value_prob"] == pytest.approx(1 / 8, abs=1e-9)

    @pytest.mark.parametrize("flag", ["--target", "--condition"])
    def test_k2_rejects_a_partition(self, capsys, flag):
        code, stdout, err = run(capsys, "entropy", "--kind", "k2",
                                "--state", f"{FIXTURES}/maximally_entangled.json",
                                "--instrument", "unread.json", flag, "A")
        assert code == 2 and stdout == ""
        assert err == "error: the k2 functional takes no --target or --condition\n"

    @pytest.mark.parametrize("flag,missing", [("--target", "[]"), ("--condition", "['B']")])
    def test_unknown_system_is_named(self, capsys, flag, missing):
        code, stdout, err = run(capsys, "entropy", "--kind", "hmin",
                                "--state", f"{FIXTURES}/counterexample_eta.json", flag, "Q")
        assert code == 2 and stdout == ""
        assert "unknown ['Q']" in err and f"missing {missing}" in err

    @pytest.mark.parametrize("trace", [1e-20, 1e-150, 1e-300])
    def test_tiny_trace_state(self, capsys, tmp_path, trace):
        from qextract.quantum import CqState, random_cq_state, state_to_json

        rho = random_cq_state(np.random.default_rng(5), 3, 3)
        payloads = []
        for scale in (1.0, trace):
            path = tmp_path / "state.json"
            path.write_text(json.dumps(state_to_json(CqState(rho.systems, scale * rho.matrix))))
            code, stdout, _ = run(capsys, "entropy", "--kind", "hmin", "--state", str(path))
            assert code == 0
            payloads.append(json.loads(stdout))
        base, tiny = payloads
        # the solver starts at the blocks' own scale, so a tiny trace
        # costs no extra iterations and shifts the value by -log2(trace)
        assert tiny["iterations"] <= base["iterations"] + 1
        assert tiny["gap"] <= tiny["requested_gap"]
        assert abs(tiny["value_bits"] - base["value_bits"] + np.log2(trace)) <= 1e-8

    def test_h2_and_hinf(self, capsys):
        for kind, expect in (("h2", -1.0), ("hinf", -1.0)):
            code, stdout, _ = run(capsys, "entropy", "--kind", kind,
                                  "--state", f"{FIXTURES}/maximally_entangled.json",
                                  "--target", "A", "--condition", "B")
            assert code == 0
            assert abs(json.loads(stdout)["value_bits"] - expect) < 1e-8

    def test_gap_override_via_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QEXTRACT_GAP", "1e-4")
        code, stdout, _ = run(capsys, "entropy", "--kind", "hmin",
                              "--state", f"{FIXTURES}/counterexample_eta.json",
                              "--target", "X", "--condition", "B")
        assert code == 0
        assert json.loads(stdout)["requested_gap"] == 1e-4

    def test_nan_gap_from_env_exits_2(self, capsys, monkeypatch):
        for gap in ("nan", "inf"):
            monkeypatch.setenv("QEXTRACT_GAP", gap)
            for kind in ("hmin", "pguess", "hinf", "h2"):
                code, stdout, err = run(capsys, "entropy", "--kind", kind,
                                        "--state", f"{FIXTURES}/counterexample_eta.json")
                assert code == 2, (gap, kind)
                assert stdout == "" and "gap must be positive" in err

    def test_bad_gap_exits_2_before_reading_the_state(self, capsys, tmp_path):
        # a missing state file would exit 3 if it were read first
        for kind in ("hmin", "h2", "hinf", "pguess", "k2"):
            for gap in ("-1", "0", "nan"):
                code, stdout, err = run(capsys, "entropy", "--kind", kind, f"--gap={gap}",
                                        "--state", str(tmp_path / "missing.json"))
                assert code == 2, (kind, gap)
                assert stdout == "" and err.startswith("error: gap must be positive")

    def test_unparsable_gap_from_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QEXTRACT_GAP", "abc")
        code, stdout, err = run(capsys, "entropy", "--kind", "hmin",
                                "--state", f"{FIXTURES}/counterexample_eta.json")
        assert code == 2
        assert stdout == "" and "QEXTRACT_GAP" in err and "'abc'" in err

    @pytest.mark.parametrize("dim,want", [(4, 0), (3, 3)])
    def test_k2_instrument_must_fit_the_state(self, capsys, tmp_path, dim, want):
        # both dimensions come from files, so a mismatch is bad input data
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps(measurement(dim)))
        code, out, err = run(capsys, "entropy", "--kind", "k2", "--instrument", str(inst),
                             "--state", f"{FIXTURES}/maximally_entangled.json")
        assert code == want
        if want:
            assert err.startswith("error: bad input data:") and "does not match" in err
        else:
            assert json.loads(out)["quantity"] == "k2"

    def test_plain_output(self, capsys):
        code, stdout, _ = run(capsys, "--plain", "entropy", "--kind", "hinf",
                              "--state", f"{FIXTURES}/maximally_entangled.json",
                              "--target", "A", "--condition", "B")
        assert code == 0
        assert "value_bits:" in stdout


class TestParserReuse:
    """One parser serves every call in a process, and no call's flags
    reach the next."""

    @staticmethod
    def ip_job(tmp_path, out):
        rng = np.random.default_rng(3)
        x, y = tmp_path / "x", tmp_path / "y"
        x.write_bytes(rng.bytes(64))
        y.write_bytes(rng.bytes(64))
        return ["extract", "--n", "32", "--x", str(x), "--y", str(y), "--blocks", "16",
                "--out", str(tmp_path / out)]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_strong_does_not_carry_over(self, capsys, tmp_path):
        code, _, _ = run(capsys, *self.ip_job(tmp_path, "strong"), "--strong")
        assert code == 0
        code, stdout, _ = run(capsys, *self.ip_job(tmp_path, "weak"))
        assert code == 0 and json.loads(stdout)["strong"] is False
        x, y = (tmp_path / "x").read_bytes(), (tmp_path / "y").read_bytes()
        weak = extract_blocks(ExtractionJob(ExtractorSpec(IP, 32), 16), x, y)
        assert (tmp_path / "weak").read_bytes() == weak
        assert len((tmp_path / "strong").read_bytes()) == 16 * 33 // 8

    def test_plain_does_not_carry_over(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "--plain", *self.ip_job(tmp_path, "a"))
        assert code == 0 and stdout.startswith("out: ")
        code, stdout, _ = run(capsys, *self.ip_job(tmp_path, "b"))
        assert code == 0 and json.loads(stdout)["kind"] == "IP"

    def test_valid_call_after_a_rejected_one(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(self.ip_job(tmp_path, "z") + ["--workers", "two"])
        assert exc.value.code == 2
        code, stdout, _ = run(capsys, *self.ip_job(tmp_path, "z"))
        assert code == 0 and json.loads(stdout)["workers"] == 1

    def test_ip_job_after_a_family_job(self, capsys, tmp_path):
        fam = tmp_path / "fam.json"
        run(capsys, "gen-family", "--n", "5", "--m", "3", "--r", "1", "--out", str(fam))
        ip = self.ip_job(tmp_path, "ip")
        code, stdout, _ = run(capsys, "extract", "--family", str(fam), *ip[3:9],
                              "--out", str(tmp_path / "deor"))
        assert code == 0 and json.loads(stdout)["m"] == 3
        code, stdout, _ = run(capsys, *ip)
        payload = json.loads(stdout)
        assert code == 0 and (payload["kind"], payload["m"]) == ("IP", 1)


class TestVerifySuites:
    def test_tightness(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "tightness")
        assert code == 0
        checks = json.loads(stdout)
        assert isinstance(checks, list) and checks[0]["passed"]

    def test_counterexample(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "counterexample")
        assert code == 0
        checks = json.loads(stdout)
        assert checks[0]["separation_strict"] and checks[0]["passed"]

    def test_xor(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "xor",
                              "--count", "10", "--seed", "5")
        assert code == 0
        checks = json.loads(stdout)
        assert len(checks) == 10
        assert all(c["seed"] == 5 and c["suite"] == "xor" for c in checks)

    def test_ip_bound_small(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "ip-bound",
                              "--count", "3")
        assert code == 0

    def test_chaining_and_alt_model(self, capsys):
        for suite in ("chaining", "alt-model"):
            code, stdout, _ = run(capsys, "verify", "--suite", suite,
                                  "--count", "4")
            assert code == 0, suite
            checks = json.loads(stdout)
            assert len(checks) == 4
            assert all(c["passed"] for c in checks)

    def test_bad_gap_exits_2(self, capsys):
        for suite in SUITES:
            for gap in ("0", "-1e-6", "-5", "nan", "inf"):
                code, stdout, err = run(capsys, "verify", "--suite", suite,
                                        "--count", "1", f"--gap={gap}")
                assert code == 2, (suite, gap)
                assert stdout == "" and err.startswith("error: gap must be positive")

    @pytest.mark.parametrize("suite", SUITES)
    def test_library_checks_match_the_cli(self, capsys, suite):
        code, stdout, _ = run(capsys, "verify", "--suite", suite, "--count", "2",
                              "--seed", "3")
        checks = run_suite(suite, 2, 3)
        assert code == 0 and json.loads(stdout) == checks
        for check in checks:
            assert check["suite"] == suite and check["passed"] is True
            assert "seed" in check

    def test_tightness_below_the_bound_fails(self, capsys, monkeypatch):
        # the tightness instance must meet its bound exactly; an epsilon
        # below it passes the bound check but not the equality
        monkeypatch.setattr(verify, "measured_epsilon", lambda inst: 0.25)
        code, stdout, _ = run(capsys, "verify", "--suite", "tightness")
        (check,) = json.loads(stdout)
        assert check["measured"] < check["bound"] and check["margin"] > 0
        assert code == 1 and check["passed"] is False
        assert run_tightness().passed is False

    def test_unknown_suite_exits_2_and_names_the_suites(self, capsys):
        code, stdout, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2 and stdout == ""
        assert err.startswith("error: unknown suite 'nope'")
        assert all(name in err for name in SUITES)

    def test_count_below_one_exits_2(self, capsys):
        # an empty suite would be a vacuous pass
        for suite, count in (("chaining", "-3"), ("ip-bound", "0"), ("xor", "0")):
            code, stdout, err = run(capsys, "verify", "--suite", suite, "--count", count)
            assert code == 2, suite
            assert stdout == "" and err.startswith("error: --count must be at least 1")

    def test_solver_failure_exits_4(self, capsys, monkeypatch):
        import qextract.entropy as ent

        monkeypatch.setattr(ent, "MAX_OUTER", 3)
        code, stdout, err = run(capsys, "verify", "--suite", "ip-bound",
                                "--count", "1", "--gap", "1e-10")
        assert code == 4
        assert stdout == ""
        assert err.startswith("error: solver reached gap")
        assert len(err.strip().splitlines()) == 1

    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "xor", "--count", "6",
                          "--seed", "11")
        _, second, _ = run(capsys, "verify", "--suite", "xor", "--count", "6",
                           "--seed", "11")
        assert first == second


class TestDiraRate:
    def test_json_fields(self, capsys):
        code, stdout, _ = run(capsys, "dira-rate", "--n", "1000000",
                              "--h", "1.2", "--mu", "0.1", "--eps", "1e-6",
                              "--eps-s", "1e-9", "--c", "10")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["m"] == 326946
        assert not payload["flag"]
        assert payload["epsilon_check"] <= 1e-6

    def test_flagged_region(self, capsys):
        code, stdout, _ = run(capsys, "dira-rate", "--n", "1000",
                              "--h", "0.1", "--mu", "0.4", "--eps", "1e-6",
                              "--eps-s", "1e-9")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["flag"] and payload["m"] == 0

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "dira-rate", "--n", "10", "--h", "1.0",
                           "--mu", "0.6", "--eps", "1e-6", "--eps-s", "1e-9")
        assert code == 2

    @pytest.mark.parametrize("field,flag,value", [
        ("h", "--h", "inf"), ("h", "--h", "nan"), ("eps", "--eps", "inf"),
        ("eps_s", "--eps-s", "nan"), ("c", "--c", "inf")])
    def test_non_finite_params_exit_2(self, capsys, field, flag, value):
        args = {"--n": "10", "--h": "1.0", "--mu": "0.1", "--eps": "0.1",
                "--eps-s": "0.01", "--c": "0"}
        args[flag] = value
        code, stdout, err = run(capsys, "dira-rate", *(t for kv in args.items() for t in kv))
        assert code == 2
        assert stdout == "" and err.startswith(f"error: {field} must be finite")

    @pytest.mark.parametrize("n,h,c,message", [
        ("9" * 400, "1.2", "0", "round count is too large"),
        ("10", "1e308", "0", "output length inf is outside"),
        ("10", "1.2", "1e308", "output length -inf is outside"),
        ("2", "1.7e308", "0", "security exponent is outside")],
        ids=["huge-n", "huge-h", "huge-c", "huge-h-and-m"])
    def test_overflowing_params_exit_2(self, capsys, n, h, c, message):
        code, stdout, err = run(capsys, "dira-rate", "--n", n, "--h", h, "--c", c,
                                "--mu", "0.1", "--eps", "1e-6", "--eps-s", "1e-9")
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_privatized_flag_changes_no_numbers(self, capsys):
        base = ("dira-rate", "--n", "10000", "--h", "1.2", "--mu", "0.1",
                "--eps", "1e-6", "--eps-s", "1e-9")
        _, plain_out, _ = run(capsys, *base)
        _, priv_out, _ = run(capsys, *base, "--privatized")
        a, b = json.loads(plain_out), json.loads(priv_out)
        assert not a["privatized"] and b["privatized"]
        assert a["m"] == b["m"] and a["epsilon_check"] == b["epsilon_check"]


class TestSolverFailureExit:
    @pytest.mark.parametrize("kind", ["hmin", "pguess"])
    def test_entropy_exit_4_prints_bracket(self, capsys, monkeypatch, kind):
        import qextract.entropy as ent

        # the pure-block candidate settles this state with no iteration;
        # switched off, the solve reaches the iteration cap
        monkeypatch.setattr(ent, "_pure", lambda *args: (None, 0))
        monkeypatch.setattr(ent, "MAX_OUTER", 3)
        code, stdout, _ = run(capsys, "entropy", "--kind", kind,
                              "--state", f"{FIXTURES}/counterexample_eta.json",
                              "--target", "X", "--condition", "B",
                              "--gap", "1e-10")
        assert code == 4
        payload = json.loads(stdout)
        assert payload["converged"] is False and payload["certificate"] == "iterations"
        assert payload["lower"] <= payload["upper"]
        if kind == "pguess":
            # the bracket is in probability, as in a converged run
            assert payload["quantity"] == "p_guess"
            assert payload["value_bits"] is None
            assert 0.0 <= payload["lower"] <= payload["value_prob"] <= payload["upper"] <= 1.0
            assert payload["gap"] == pytest.approx(
                math.log2(payload["upper"] / payload["lower"]), rel=1e-12)


    def test_singular_slack_exit_4_prints_bracket(self, capsys, monkeypatch):
        import numpy as np

        import qextract.entropy as ent

        real = ent._SdpKernel.scaling
        calls = []

        def failing_once(self, sigma, z):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular slack matrix")
            return real(self, sigma, z)

        # with the pure-block candidate off, as above, the solve iterates
        monkeypatch.setattr(ent, "_pure", lambda *args: (None, 0))
        monkeypatch.setattr(ent._SdpKernel, "scaling", failing_once)
        code, stdout, _ = run(capsys, "entropy", "--kind", "hmin",
                              "--state", f"{FIXTURES}/counterexample_eta.json",
                              "--target", "X", "--condition", "B")
        assert code == 4
        payload = json.loads(stdout)
        assert payload["converged"] is False
        assert payload["lower"] <= payload["upper"]


class TestNonUtf8Input:
    """A file that is not UTF-8 is bad input data, not a bad argument."""

    @staticmethod
    def garbage(tmp_path):
        path = tmp_path / "garbage.json"
        # 0xff never occurs in UTF-8
        path.write_bytes(b"\xff" + np.random.default_rng(7).bytes(256))
        return str(path)

    def test_family(self, capsys, tmp_path):
        x = tmp_path / "x.bin"
        x.write_bytes(b"\x00" * 8)
        code, _, err = run(capsys, "extract", "--family", self.garbage(tmp_path),
                           "--x", str(x), "--y", str(x), "--blocks", "1",
                           "--out", str(tmp_path / "out.bin"))
        assert code == 3 and "bad input data" in err
        assert not (tmp_path / "out.bin").exists()

    def test_state(self, capsys, tmp_path):
        code, _, err = run(capsys, "entropy", "--kind", "hmin",
                           "--state", self.garbage(tmp_path))
        assert code == 3 and "bad input data" in err

    def test_instrument(self, capsys, tmp_path):
        code, _, err = run(capsys, "entropy", "--kind", "k2",
                           "--state", f"{FIXTURES}/maximally_entangled.json",
                           "--instrument", self.garbage(tmp_path))
        assert code == 3 and "bad input data" in err


class TestMalformedJsonShapes:
    """A JSON input of the wrong shape is bad input data: exit 3 with one
    error line, not an exception."""

    @staticmethod
    def write(tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def check(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error: bad input data:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_state_matrix_entries_not_pairs(self, capsys, tmp_path):
        state = self.write(tmp_path, "s.json",
                           {"systems": [{"name": "A", "dim": 1}], "matrix": [[1]]})
        self.check(capsys, "entropy", "--kind", "hmin", "--state", state)

    def test_state_matrix_row_count(self, capsys, tmp_path):
        for matrix in ([[[0.5, 0.0]]], [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], 1.0):
            state = self.write(tmp_path, "s.json",
                               {"systems": [{"name": "A", "dim": 2}], "matrix": matrix})
            self.check(capsys, "entropy", "--kind", "hinf", "--state", state)

    def test_state_system_name_not_a_string(self, capsys, tmp_path):
        state = self.write(tmp_path, "s.json", {
            "systems": [{"name": None, "dim": 1}, {"name": "B", "dim": 1}],
            "matrix": [[[1.0, 0.0]]]})
        self.check(capsys, "entropy", "--kind", "hmin", "--state", state)

    def test_state_numbers_out_of_range(self, capsys, tmp_path):
        # int(inf) and float(10**400) raise OverflowError, not ValueError
        for system, entry in (({"name": "A", "dim": float("inf")}, 1.0),
                              ({"name": "A", "dim": 1}, 10 ** 400)):
            state = self.write(tmp_path, "s.json",
                               {"systems": [system], "matrix": [[[entry, 0.0]]]})
            self.check(capsys, "entropy", "--kind", "hinf", "--state", state)

    def test_state_not_hermitian(self, capsys, tmp_path):
        # off by 1e-9, ten times the tolerance, on entries of 0.3
        for skew in (1e-9, float("nan")):
            state = self.write(tmp_path, "s.json", {
                "systems": [{"name": "A", "dim": 2}],
                "matrix": [[[0.5, 0.0], [0.3, 0.0]], [[0.3 + skew, 0.0], [0.5, 0.0]]]})
            self.check(capsys, "entropy", "--kind", "hmin", "--state", state)

    def test_state_not_positive(self, capsys, tmp_path):
        state = self.write(tmp_path, "s.json", {"systems": [{"name": "A", "dim": 1}],
                                                "matrix": [[[-1.0, 0.0]]]})
        self.check(capsys, "entropy", "--kind", "hmin", "--state", state)

    def test_instrument_kraus_shape(self, capsys, tmp_path):
        inst = self.write(tmp_path, "i.json", {
            "input_systems": [{"name": "B", "dim": 2}], "output_systems": [],
            "outcomes": [{"label": 0, "kraus": [[[[1.0, 0.0]]]]}]})
        self.check(capsys, "entropy", "--kind", "k2",
                   "--state", f"{FIXTURES}/maximally_entangled.json", "--instrument", inst)

    def test_instrument_duplicate_labels(self, capsys, tmp_path):
        # outcome y is the y-th entry, so a repeated label names nothing
        doc = measurement(4)
        doc["outcomes"][1]["label"] = 0
        inst = self.write(tmp_path, "i.json", doc)
        self.check(capsys, "entropy", "--kind", "k2",
                   "--state", f"{FIXTURES}/maximally_entangled.json", "--instrument", inst)

    def test_instrument_non_finite_kraus(self, capsys, tmp_path):
        # on two dimensions a NaN entry gets past the eigenvalue test of sum K*K,
        # so only the finiteness check rejects it
        state = self.write(tmp_path, "s.json", {"systems": [{"name": "AB", "dim": 2}],
                                                "matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                                           [[0.0, 0.0], [0.5, 0.0]]]})
        for bad in (float("nan"), float("inf")):
            doc = measurement(2)
            doc["outcomes"][0]["kraus"][0][0][0] = [bad, 0.0]
            inst = self.write(tmp_path, "i.json", doc)
            self.check(capsys, "entropy", "--kind", "k2", "--state", state, "--instrument", inst)

    def test_family_without_a_construction(self, capsys, tmp_path):
        x = tmp_path / "x.bin"
        x.write_bytes(b"\x00" * 8)
        field = {"n": 3, "m": 1, "r": 0, "construction": "field-mult"}
        for doc in (dict(field, matrices=[["000", "000", "000"]]),
                    dict(field, matrices=[["1_0", "10+", " 11"]]),
                    dict(field, matrices=[[]]),
                    dict(field, construction="nonsense"),
                    dict(field, m=0),
                    dict(field, n="3"),
                    {"n": 1000000007, "m": 1, "r": 1, "construction": "circulant"}):
            fam = self.write(tmp_path, "f.json", doc)
            self.check(capsys, "extract", "--family", fam, "--x", str(x), "--y", str(x),
                       "--blocks", "1", "--out", str(tmp_path / "out.bin"))
        assert not (tmp_path / "out.bin").exists()

    def test_integers_not_coerced(self, capsys, tmp_path):
        # int() once read "dim": 2.9 as 2, "2" as 2 and true as 1, and the
        # command exited 0
        for dim, size in ((2.9, 2), ("2", 2), (True, 1)):
            matrix = [[[float(i == j == 0), 0.0] for j in range(size)] for i in range(size)]
            state = self.write(tmp_path, "s.json",
                               {"systems": [{"name": "A", "dim": dim}], "matrix": matrix})
            self.check(capsys, "entropy", "--kind", "hinf", "--state", state)
        doc = measurement(4)
        doc["outcomes"][1]["label"] = 1.5
        inst = self.write(tmp_path, "i.json", doc)
        self.check(capsys, "entropy", "--kind", "k2",
                   "--state", f"{FIXTURES}/maximally_entangled.json", "--instrument", inst)

    def flagged_runs(self, tmp_path, flag):
        """Commands reading a cq state and two instruments, each with one
        system whose "classical" entry is flag; all exit 0 for False."""
        state = {"systems": [{"name": "X", "dim": 2, "classical": flag}, {"name": "B", "dim": 1}],
                 "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        yield ("entropy", "--kind", "hinf", "--state", self.write(tmp_path, "s.json", state),
               "--target", "X", "--condition", "B")
        inst_in, inst_out = measurement(4), measurement(4)
        inst_in["input_systems"][0]["classical"] = flag
        inst_out["output_systems"] = [{"name": "T", "dim": 1, "classical": flag}]
        for i, doc in enumerate((inst_in, inst_out)):
            yield ("entropy", "--kind", "k2", "--state", f"{FIXTURES}/maximally_entangled.json",
                   "--instrument", self.write(tmp_path, f"i{i}.json", doc))

    def test_classical_flag_not_coerced(self, capsys, tmp_path):
        # bool() once read "classical": "no" as true, and the command exited 0
        for argv in self.flagged_runs(tmp_path, False):
            assert run(capsys, *argv)[0] == 0
        for flag in ("no", 1, None):
            for argv in self.flagged_runs(tmp_path, flag):
                self.check(capsys, *argv)

    def test_instrument_over_dimension_cap(self, capsys, tmp_path):
        # rejected before the d_in x d_in accumulator (14.6 TiB) is allocated
        inst = self.write(tmp_path, "i.json", {
            "input_systems": [{"name": "B", "dim": 1000000}], "output_systems": [],
            "outcomes": [{"label": 0, "kraus": []}]})
        self.check(capsys, "entropy", "--kind", "k2",
                   "--state", f"{FIXTURES}/maximally_entangled.json", "--instrument", inst)


LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(-2, 2), st.text(max_size=3),
    # huge dimensions and sizes, which the caps reject before any work
    st.sampled_from([10 ** 6, 1000000007, 2 ** 63, 10 ** 30, 1e308,
                     float("inf"), float("nan")]))
JUNK = st.recursive(LEAF, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                    max_leaves=6)
# a basis measurement on the 4-dimensional maximally_entangled.json state
def measurement(dim):
    """A computational-basis measurement instrument on one dim-dimensional system."""
    return {"input_systems": [{"name": "AB", "dim": dim}], "output_systems": [],
            "outcomes": [{"label": x, "kraus": [[[[float(j == x), 0.0] for j in range(dim)]]]}
                         for x in range(dim)]}


MEASURE = measurement(4)


def _paths(doc, prefix=()):
    """Every place in a JSON document, the whole document first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, how, junk):
    """``doc`` with the value at ``path`` replaced or deleted, or with an
    extra entry next to it."""
    if not path:
        return junk
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete":
        del parent[path[-1]]
    elif how == "extra" and isinstance(parent, dict):
        parent["extra"] = junk
    elif how == "extra":
        parent.append(junk)
    else:
        parent[path[-1]] = junk
    return doc


class TestMalformedJsonFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["family", "state", "instrument"]))
    def test_exit_code_never_a_traceback(self, data, kind):
        with open(os.path.join(FIXTURES, "maximally_entangled.json")) as f:
            state = json.load(f)
        doc = {"family": {"n": 5, "m": 2, "r": 1, "construction": "circulant"},
               "state": state, "instrument": MEASURE}[kind]
        for _ in range(data.draw(st.integers(1, 2))):
            path = data.draw(st.sampled_from(list(_paths(doc))))
            doc = _mutate(doc, path, data.draw(st.sampled_from(["replace", "delete", "extra"])),
                          data.draw(JUNK))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            bits = os.path.join(tmp, "x.bin")
            with open(bits, "wb") as f:
                f.write(bytes(256))
            argv = {
                "family": ["extract", "--family", path, "--x", bits, "--y", bits,
                           "--blocks", "1", "--out", os.path.join(tmp, "out.bin")],
                "state": ["entropy", "--kind", "hmin", "--state", path],
                "instrument": ["entropy", "--kind", "k2", "--instrument", path, "--state",
                               os.path.join(FIXTURES, "maximally_entangled.json")],
            }[kind]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 2, 3), (code, doc)


class TestFixtureFreshness:
    def test_fixtures_match_generators(self, tmp_path):
        # the checked-in fixtures must be exactly what the script produces
        script = os.path.join(os.path.dirname(__file__), "..", "tools",
                              "make_fixtures.py")
        subprocess.run([sys.executable, script, str(tmp_path)], check=True,
                       capture_output=True)
        names = os.listdir(str(tmp_path))
        assert len(names) == 4
        for name in names:
            with open(tmp_path / name) as f, open(os.path.join(FIXTURES, name)) as g:
                fresh, checked_in = json.load(f), json.load(g)
            assert fresh == checked_in, name


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: ``Infinity``, ``-Infinity`` and
    ``NaN`` raise."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


ETA = f"{FIXTURES}/counterexample_eta.json"


class TestStrictJson:
    """Every command prints strict JSON, with null for a number that has
    no finite value."""

    @staticmethod
    def commands(tmp_path):
        """(argv, expected exit code) of every command and entropy kind,
        every verify suite, and dira-rate in and out of its flagged region."""
        x, y, inst = tmp_path / "x", tmp_path / "y", tmp_path / "inst.json"
        x.write_bytes(bytes(range(64)))
        y.write_bytes(bytes(range(64, 128)))
        inst.write_text(json.dumps(MEASURE))
        family = str(tmp_path / "family.json")
        yield ("gen-family", "--n", "5", "--m", "2", "--r", "0", "--out", family), 0
        yield ("extract", "--family", family, "--x", str(x), "--y", str(y),
               "--blocks", "40", "--strong", "--out", str(tmp_path / "z")), 0
        for kind in ("hmin", "h2", "hinf", "pguess"):
            yield ("entropy", "--kind", kind, "--state", ETA,
                   "--target", "X", "--condition", "B"), 0
        yield ("entropy", "--kind", "k2", "--state", f"{FIXTURES}/maximally_entangled.json",
               "--instrument", str(inst)), 0
        for suite in SUITES:
            yield ("verify", "--suite", suite, "--count", "2"), 0
        rate = ("dira-rate", "--h", "0.1", "--mu", "0.4", "--eps", "1e-6", "--eps-s", "1e-9")
        yield (*rate, "--n", "1000"), 0
        yield (*rate, "--n", "10000"), 0  # epsilon_check overflows: null

    def test_every_command_prints_strict_json(self, capsys, tmp_path):
        for argv, want in self.commands(tmp_path):
            code, stdout, err = run(capsys, *argv)
            assert code == want, (argv, err)
            strict_json(stdout)

    def test_overflowing_epsilon_check_is_null(self, capsys):
        code, stdout, _ = run(capsys, "dira-rate", "--n", "10000", "--h", "0.1",
                              "--mu", "0.4", "--eps", "1e-6", "--eps-s", "1e-9")
        assert code == 0
        payload = strict_json(stdout)
        assert payload["flag"] and payload["m"] == 0
        assert payload["epsilon_check"] is None

    @pytest.mark.parametrize("kind", ["hmin", "pguess"])
    def test_bracket_with_no_dual_witness_exits_4_with_null(self, capsys, monkeypatch,
                                                            kind):
        import qextract.entropy as ent

        real = ent._SdpKernel.certificates

        def no_witness(self, sigma, z):
            primal, _, _ = real(self, sigma, z)
            return primal, 0.0, None

        monkeypatch.setattr(ent._SdpKernel, "certificates", no_witness)
        code, stdout, _ = run(capsys, "entropy", "--kind", kind, "--state", ETA,
                              "--target", "X", "--condition", "B")
        assert code == 4
        payload = strict_json(stdout)
        assert payload["converged"] is False and payload["gap"] is None
        if kind == "hmin":
            assert payload["upper"] is None and payload["value_bits"] == payload["lower"]
        else:
            # the probability bracket is [0, 2^-lower]: finite, but of no width in bits
            assert payload["lower"] == 0.0 and 0.0 < payload["upper"] <= 1.0

    def test_a_missed_non_finite_field_fails_before_any_output(self, capsys, monkeypatch):
        from qextract import dira

        monkeypatch.setattr(dira, "dira_rate", lambda params: dira.RateResult(
            m=0, flag=True, raw=math.inf, privatized=False))
        code, stdout, err = run(capsys, "dira-rate", "--n", "1000", "--h", "0.1",
                                "--mu", "0.4", "--eps", "1e-6", "--eps-s", "1e-9")
        assert code == 2 and stdout == ""
        assert err.startswith("error: Out of range float values are not JSON compliant")
