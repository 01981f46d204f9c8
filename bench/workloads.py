"""The four benchmark workloads.

Each workload has two halves:

* ``prepare`` runs once per benchmark run in the parent process.  It
  makes every input from the workload seed (bit files, or the list of
  instance seeds) and returns a JSON-able plan.
* ``Runner`` runs in a fresh child process.  ``load`` imports qextract,
  ``setup`` does the rest of what a user pays before the first result
  (``gen-family``, family construction), ``op`` is one timed operation
  and ``check`` compares its outputs with the exact oracles, outside
  the timed region.

An operation is one ``qextract extract`` pass over every job of an
extraction workload, or one certified instance (generate, then check)
of a certification workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

GAP = 1e-6  # requested bracket gap, as in the ip-bound and chaining suites

# extract-aligned: ~51 MB per input stream takes the byte fast path.
ALIGNED_BLOCKS = 400_000
# extract-bits: block counts that take roughly equal kernel time per job at
# the seed commit, so that no job dominates the pass.
BITS_JOBS = (
    # name, n, blocks, strong, family (n, m, r) or None
    ("ip_unaligned", 1023, 48_000, False, None),
    ("ip_strong", 1024, 32_000, True, None),
    ("circulant", 61, 800, False, (61, 32, 1)),
    ("field", 64, 800, False, (64, 32, 0)),
)
SMOKE_BLOCKS = 40
# sha256 of each job's output at --smoke --seed 0, where the oracle
# checks every block.
SMOKE_DIGESTS = {
    "extract-aligned": {
        "ip_aligned": "67c7e1fa840d80b29b183abba91d85f89e350891c87a739c0c319ba97eab800d",
    },
    "extract-bits": {
        "ip_unaligned": "bf82e04982dee8723e707232088bfb79a3184d7eeb21860467b29acee8a176b5",
        "ip_strong": "94f94fe8db0e3b8feb3042773e70e1abc0345e4b6580d4e14a1274e4fb0cddff",
        "circulant": "ab52f69d37d6ea6581794a041e5fc573497bfd2f6c6313ac4c90ce599e67e858",
        "field": "80a1379c403bcf39d560c049b353c9281e24164979aa41bcc518581676233353",
    },
}

# The matrix families of the deor-bound suite, as (n, m, r).
DEOR_FAMILIES = ((2, 1, 0), (2, 2, 0), (3, 1, 0), (3, 2, 0), (3, 1, 1), (3, 2, 1))

# Instance schedules.  Most of the run-to-run spread of a certification
# workload would come from its mix of instance shapes: one ip-bound
# instance takes 0.03 s or 2 s depending on n and on the conditioning
# dimensions.  So a schedule repeats one fixed block of shapes; the run
# seed only picks the random states that fill each slot, and the timed
# window ends on a block boundary, so every run times whole blocks.
#
# Scenario block: a stratified sample of the instances that the two
# suites draw, with the counts that the acceptance criteria run
# (run_ip_suite(200), run_deor_suite(100)).  The strata are ip strong
# and ip weak (the ip suite alternates them by seed parity), 100
# instances each, and deor by the n of its family: 34 instances with
# n = 2 and 66 with n = 3.  Within a stratum the instances are ranked by
# a cost proxy and the block takes the ones at evenly spaced midpoints.
# Each slot stands for 20 suite instances: 5 + 5 ip slots and 2 + 3 deor
# slots (34:66 rounded).  An odd block size puts the median of a run's
# instance times inside one slot's cluster of times, not on the gap
# between two, where it moves more from run to run.
IP_SUITE_COUNT = 200
DEOR_SUITE_COUNT = 100
IP_SLOTS_PER_MODE = 5
DEOR_SLOTS_BY_N = {2: 2, 3: 3}
# Chain block: every (n, side-information dimension) once; the source
# generator draws both uniformly, so each has the same share.  The
# costliest comes first: see WARM.
CHAIN_BLOCK = tuple((n, d_e) for n in (4, 3, 2) for d_e in (4, 3, 2, 1))
# WARM: set-up ends with one warm op on a fixed instance of the block's
# first shape, the same for every run seed.  An instance that changed
# with the seed would add its own cost to the run-to-run spread of
# setup_s, and a cheap one would leave set-up mostly import time, which
# spreads more from run to run than solving does.

# Enough blocks that a traced run at the seed commit meets no instance twice.
SCHEDULE_BLOCKS = 9
MAX_DRAWS = 100_000


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Parent side: inputs from the seed


def _extract_plan(work: str, seed: int, jobs, smoke: bool) -> dict:
    rng = random.Random(f"extract:{seed}")
    plan_jobs = []
    for name, n, blocks, strong, family in jobs:
        if smoke:
            blocks = SMOKE_BLOCKS
        nbytes = (blocks * n + 7) // 8
        x_path = os.path.join(work, f"{name}.x")
        y_path = os.path.join(work, f"{name}.y")
        _write(x_path, rng.randbytes(nbytes))
        _write(y_path, rng.randbytes(nbytes))
        fam_path = os.path.join(work, f"{name}.family.json") if family else None
        plan_jobs.append({
            "name": name, "n": n, "blocks": blocks, "strong": strong,
            "family": family, "family_path": fam_path,
            "x": x_path, "y": y_path, "out": os.path.join(work, f"{name}.out"),
            "stream_bytes": nbytes,
            "out_bits_per_block": (family[1] if family else 1) + (n if strong else 0),
        })
    return {"jobs": plan_jobs, "workers": 2, "block": 1}


def _scenario_shape(inst, strong: bool) -> tuple:
    """What sets the cost of one scenario instance: n and the
    conditioning dimensions of its two min-entropy solves."""
    d_a, d_b = inst.rho_ab.dims
    d_s, d_t = inst.m_inst.output_dim, inst.n_inst.output_dim
    return (inst.ext.n, d_s * d_b, d_a if strong else d_a * d_t)


def _cost_proxy(shape: tuple) -> int:
    """Rank key for the cost of a scenario instance: the 2^n values of X
    times the squared conditioning dimension, summed over the two
    solves.  Over the 300 suite instances its rank correlation with the
    measured instance time was 0.89 at the seed commit."""
    n, k1, k2 = shape
    return 2 ** n * (k1 * k1 + k2 * k2)


def suite_instances(exts) -> list[dict]:
    """Every instance of run_ip_suite(IP_SUITE_COUNT) and
    run_deor_suite(DEOR_SUITE_COUNT), as a slot with its shape."""
    from qextract import verify

    out = []
    for s in range(IP_SUITE_COUNT):
        strong = s % 2 == 0
        inst = verify.gen_random_instance(s, strong=strong)
        out.append({"kind": "ip", "family": None, "strong": strong, "suite_seed": s,
                    "shape": _scenario_shape(inst, strong)})
    for s in range(DEOR_SUITE_COUNT):
        fam = s % len(DEOR_FAMILIES)
        inst = verify.gen_random_instance(s, ext=exts[fam], strong=True)
        out.append({"kind": "deor", "family": fam, "strong": True, "suite_seed": s,
                    "shape": _scenario_shape(inst, True)})
    return out


def _stratum_sample(stratum: list[dict], k: int) -> list[dict]:
    """The ``k`` instances at evenly spaced midpoints of the cost ranking."""
    ranked = sorted(stratum, key=lambda s: (_cost_proxy(s["shape"]), s["shape"],
                                            s["suite_seed"]))
    return [ranked[(2 * j + 1) * len(ranked) // (2 * k)] for j in range(k)]


def scenario_block(exts) -> list[dict]:
    """The stratified block of scenario shapes; ip strong, ip weak and
    deor take turns, as the suites alternate their modes, in rising
    cost.  The block starts at the middle turn, whose first instance
    (with its suite seed) is the warm op of set-up: see WARM."""
    suite = suite_instances(exts)
    turns = [_stratum_sample([s for s in suite if s["kind"] == "ip" and s["strong"] == mode],
                             IP_SLOTS_PER_MODE) for mode in (True, False)]
    deor = [slot for n, k in DEOR_SLOTS_BY_N.items() for slot in _stratum_sample(
        [s for s in suite if s["kind"] == "deor" and s["shape"][0] == n], k)]
    turns.append(sorted(deor, key=lambda s: _cost_proxy(s["shape"])))
    block = [slot for turn in zip(*turns) for slot in turn]
    middle = len(turns) * (IP_SLOTS_PER_MODE // 2)
    return block[middle:] + block[:middle]


def _fill_schedule(block: list[dict], cand_shape, group, seed: int, smoke: bool) -> list[dict]:
    """Repeat ``block`` and give each slot the next candidate seed of its
    group whose shape is the slot's.  Candidates are drawn in order from a
    stream that depends only on the run seed and the group."""
    slots = [dict(slot) for _ in range(1 if smoke else SCHEDULE_BLOCKS) for slot in block]
    groups = sorted({group(slot) for slot in slots}, key=repr)
    for gi, g in enumerate(groups):
        todo: dict = {}
        for slot in slots:
            if group(slot) == g:
                todo.setdefault(tuple(slot["shape"]), []).append(slot)
        left = sum(len(v) for v in todo.values())
        example = next(iter(todo.values()))[0]
        base = (seed * len(groups) + gi) * MAX_DRAWS
        for k in range(MAX_DRAWS):
            if not left:
                break
            waiting = todo.get(cand_shape(base + k, example))
            if waiting:
                waiting.pop(0)["seed"] = base + k
                left -= 1
        if left:
            raise RuntimeError(f"group {g}: {left} slots unfilled after {MAX_DRAWS} draws")
    return slots


def _scenario_plan(seed: int, smoke: bool) -> dict:
    from qextract import verify
    from qextract.extractor import DEOR, ExtractorSpec
    from qextract.gf2 import build_family

    exts = [ExtractorSpec(DEOR, n, m, build_family(n, m, r)) for n, m, r in DEOR_FAMILIES]

    def shape(s: int, slot: dict) -> tuple:
        ext = exts[slot["family"]] if slot["kind"] == "deor" else None
        return _scenario_shape(verify.gen_random_instance(s, ext=ext, strong=slot["strong"]),
                               slot["strong"])

    block = scenario_block(exts)
    slots = _fill_schedule(
        block, shape, seed=seed, smoke=smoke,
        group=lambda slot: (slot["kind"], slot["strong"],
                            None if slot["family"] is None
                            else DEOR_FAMILIES[slot["family"]][0]))
    return {"slots": slots, "block": len(block),
            "warm": dict(block[0], seed=block[0]["suite_seed"])}


def _chain_shape(spec) -> tuple:
    """n bits emitted and the side-information dimension of the solve."""
    return (spec.n, spec.initial_blocks()[0].shape[0])


def _chain_plan(seed: int, smoke: bool) -> dict:
    from qextract import dira

    slots = _fill_schedule(
        [{"shape": shape} for shape in CHAIN_BLOCK],
        lambda s, _: _chain_shape(dira.gen_random_sv_spec(s)),
        group=lambda _: "chain", seed=seed, smoke=smoke)
    warm = next(s for s in range(MAX_DRAWS)
                if _chain_shape(dira.gen_random_sv_spec(s)) == CHAIN_BLOCK[0])
    return {"slots": slots, "block": len(CHAIN_BLOCK),
            "warm": {"shape": CHAIN_BLOCK[0], "seed": warm}}


def prepare(workload: str, work: str, seed: int, smoke: bool) -> dict:
    """Make the inputs of one run; the plan names every input file."""
    if workload == "extract-aligned":
        plan = _extract_plan(work, seed, [("ip_aligned", 1024, ALIGNED_BLOCKS, False, None)],
                             smoke)
    elif workload == "extract-bits":
        plan = _extract_plan(work, seed, BITS_JOBS, smoke)
    elif workload == "certify-scenario":
        plan = _scenario_plan(seed, smoke)
    elif workload == "certify-chain":
        plan = _chain_plan(seed, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan.update(workload=workload, seed=seed, smoke=smoke, work=work)
    return plan


# ---------------------------------------------------------------------------
# Child side: set-up, one operation, its checks


class ExtractRunner:
    """One op runs ``qextract extract`` on every job of the plan."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.jobs = plan["jobs"]
        self.workers = plan["workers"]
        self.digests: dict[str, str] = {}

    def load(self) -> None:
        import qextract.cli

        self.cli = qextract.cli

    def cli_main(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def setup(self) -> None:
        for job in self.jobs:
            if job["family"]:
                n, m, r = job["family"]
                rc, _ = self.cli_main(["gen-family", "--n", str(n), "--m", str(m),
                                       "--r", str(r), "--out", job["family_path"]])
                if rc != 0:
                    raise RuntimeError(f"gen-family exited {rc}")

    def argv(self, job: dict) -> list[str]:
        argv = ["extract", "--x", job["x"], "--y", job["y"], "--blocks", str(job["blocks"]),
                "--out", job["out"], "--workers", str(self.workers)]
        if job["family"]:
            argv += ["--family", job["family_path"]]
        else:
            argv += ["--n", str(job["n"])]
        if job["strong"]:
            argv.append("--strong")
        return argv

    def op(self, i: int, span=contextlib.nullcontext):
        codes = []
        for job in self.jobs:
            with span("cli.main"):
                codes.append(self.cli_main(self.argv(job)))
        return codes

    def margin(self, result) -> None:
        return None

    def check(self, i: int, result) -> list[str]:
        """Exit code, emitted size, and a digest equal to the first output
        of the job in this process (which the oracle sample checks)."""
        errors = []
        for job, (rc, emitted) in zip(self.jobs, result):
            if rc != 0:
                errors.append(f"{job['name']}: exit {rc}")
                continue
            want = (job["blocks"] * job["out_bits_per_block"] + 7) // 8
            written = json.loads(emitted)["bytes_written"]
            if written != want or os.path.getsize(job["out"]) != want:
                errors.append(f"{job['name']}: wrote {written} bytes, want {want}")
                continue
            digest = sha256_file(job["out"])
            if job["name"] not in self.digests:
                self.digests[job["name"]] = digest
                errors += self.oracle_sample(job)
            elif digest != self.digests[job["name"]]:
                errors.append(f"{job['name']}: output digest changed between calls")
        return errors

    def sample_blocks(self, job: dict) -> list[int]:
        """Seeded random blocks plus the first, the last, and both sides
        of the first chunk boundary at the workload's worker count."""
        blocks = job["blocks"]
        if self.plan["smoke"]:
            return list(range(blocks))
        rng = random.Random(f"sample:{self.plan['seed']}:{job['name']}")
        chunk = max(8, 8 * ((blocks // max(1, 8 * self.workers)) or 1))
        picks = {0, blocks - 1, min(chunk, blocks) - 1, min(chunk, blocks - 1)}
        picks.update(rng.randrange(blocks) for _ in range(32))
        return sorted(picks)

    def oracle_sample(self, job: dict) -> list[str]:
        """Compare sampled output blocks with ip_extract / deor_extract."""
        from qextract.extractor import DEOR, ExtractorSpec, deor_extract, ip_extract
        from qextract.gf2 import BitVector, MatrixFamily

        n, ob = job["n"], job["out_bits_per_block"]
        spec = None
        if job["family"]:
            with open(job["family_path"]) as f:
                fam = MatrixFamily.from_json_dict(json.load(f))
            spec = ExtractorSpec(DEOR, fam.n, fam.m, fam)
        errors = []
        with open(job["x"], "rb") as fx, open(job["y"], "rb") as fy, \
                open(job["out"], "rb") as fo:
            for b in self.sample_blocks(job):
                x = _read_bits(fx, b * n, n)
                y = _read_bits(fy, b * n, n)
                if spec is None:
                    z = ip_extract(BitVector(n, x), BitVector(n, y))
                    m = 1
                else:
                    z = deor_extract(spec, BitVector(n, x), BitVector(n, y)).bits
                    m = spec.m
                want = z | (y << m) if job["strong"] else z
                got = _read_bits(fo, b * ob, ob)
                if got != want:
                    errors.append(f"{job['name']}: block {b} differs from the oracle")
        return errors


def _read_bits(f, bit_lo: int, count: int) -> int:
    """Bits [bit_lo, bit_lo + count) of a file, LSB-first, as an int."""
    byte_lo = bit_lo // 8
    f.seek(byte_lo)
    raw = f.read((bit_lo + count + 7) // 8 - byte_lo)
    return (int.from_bytes(raw, "little") >> (bit_lo - 8 * byte_lo)) & ((1 << count) - 1)


def _bracket_errors(label: str, res) -> list[str]:
    errors = []
    if not res.lower <= res.upper:
        errors.append(f"{label}: lower {res.lower!r} > upper {res.upper!r}")
    if not res.gap <= GAP:
        errors.append(f"{label}: gap {res.gap:.3e} above the requested {GAP:.0e}")
    return errors


class _ScheduleRunner:
    """A certification runner: op ``i`` runs slot ``i`` of the schedule."""

    def __init__(self, plan: dict):
        self.slots = plan["slots"]
        self.warm = plan["warm"]

    def slot(self, i: int) -> dict:
        """Slot ``i`` of the schedule; the warm op is ``-1``."""
        return self.warm if i < 0 else self.slots[i % len(self.slots)]


class ScenarioRunner(_ScheduleRunner):
    """One op generates a scenario instance and checks its bound."""

    def load(self) -> None:
        from qextract import entropy, verify

        self.verify, self.entropy = verify, entropy

    def setup(self) -> None:
        from qextract import gf2
        from qextract.extractor import DEOR, ExtractorSpec

        fams = [gf2.build_family(n, m, r) for n, m, r in DEOR_FAMILIES]
        self.exts = [ExtractorSpec(DEOR, f.n, f.m, f) for f in fams]

    def op(self, i: int, span=None):
        slot = self.slot(i)
        try:
            if slot["kind"] == "ip":
                inst = self.verify.gen_random_instance(slot["seed"], strong=slot["strong"])
                return self.verify.check_ip_bound(inst, gap=GAP)
            inst = self.verify.gen_random_instance(
                slot["seed"], ext=self.exts[slot["family"]], strong=True)
            return self.verify.check_deor_bound(inst, gap=GAP)
        except self.entropy.SolverConvergenceError as exc:
            return exc

    def margin(self, rep) -> float | None:
        """Bound minus measured epsilon."""
        return None if isinstance(rep, Exception) else rep.margin

    def check(self, i: int, rep) -> list[str]:
        seed = self.slot(i)["seed"]
        if isinstance(rep, Exception):
            return [f"seed {seed}: {rep}"]
        errors = _bracket_errors(f"seed {seed} k1", rep.k1) \
            + _bracket_errors(f"seed {seed} k2", rep.k2)
        if not rep.passed:
            errors.append(f"seed {seed}: measured {rep.measured} above bound {rep.bound}")
        return errors


class ChainRunner(_ScheduleRunner):
    """One op generates a weak source and checks entropy chaining."""

    def load(self) -> None:
        from qextract import dira, entropy

        self.dira, self.entropy = dira, entropy

    def setup(self) -> None:
        pass

    def op(self, i: int, span=None):
        seed = self.slot(i)["seed"]
        try:
            return self.dira.check_chaining(self.dira.gen_random_sv_spec(seed), gap=GAP)
        except self.entropy.SolverConvergenceError as exc:
            return exc

    def margin(self, rep) -> float | None:
        """Certified upper bound minus the guaranteed chaining rate."""
        return None if isinstance(rep, Exception) else rep.entropy.upper - rep.bound

    def check(self, i: int, rep) -> list[str]:
        seed = self.slot(i)["seed"]
        if isinstance(rep, Exception):
            return [f"seed {seed}: {rep}"]
        errors = _bracket_errors(f"seed {seed}", rep.entropy)
        if not rep.holds:
            errors.append(f"seed {seed}: h_min upper {rep.entropy.upper} "
                          f"below the chaining bound {rep.bound}")
        return errors


def runner(plan: dict):
    if plan["workload"].startswith("extract-"):
        return ExtractRunner(plan)
    if plan["workload"] == "certify-scenario":
        return ScenarioRunner(plan)
    return ChainRunner(plan)
