"""Brute-force oracles for the extraction bounds on small instances.

A scenario consists of a pure input state shared between two parties, a
pair of instruments producing n-bit outcomes X and Y plus quantum side
information S and T, and an extractor.  Everything here is exact:
output states are assembled blockwise over the classical outcome values
and trace distances come from full eigendecompositions, so a reported
epsilon carries no sampling noise.  The near instrument's blocks are
summed by output value z at each y before the linear far instrument
acts, on 2^(n+m) sums rather than 4^n blocks (x, y).  The outputs z come
from the stream kernel itself (``extractor.output_table`` runs
``extract_blocks`` over every block pair), so the bound checks measure
epsilon of the bits ``qextract extract`` writes, and double as a
differential test of the kernels against the per-pair oracle.

The bound checks compare the measured epsilon against the security
formulas evaluated at the *certified lower bounds* of the entropy
inputs, which keeps the comparison sound regardless of solver gap:

* one-bit inner product: epsilon <= 1/2 sqrt(2^(n - k1 - k2))
* m-bit matrix family:   epsilon <= 1/2 sqrt(2^(2m + n + r - k1 - k2))

with k1 the min-entropy of X given S and the far input, and k2 the
min-entropy of Y given the near input (strong mode) or given T and the
near input (weak mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dira import run_chaining_suite
from .entropy import DEFAULT_GAP, EntropyResult, check_gap, h_min_blocks
from .extractor import DEOR, IP, ExtractorSpec, output_table
from .gf2 import build_circulant_family, build_field_family
from .quantum import (
    CqState,
    DensityOperator,
    Instrument,
    System,
    apply_instrument,
    frac_power,
    herm,
    instrument_blocks,
    permute_systems,
    purify,
    random_cq_state,
    trace_norm,
)

PASS_SLACK = 1e-9
# largest deviation of an alt-model round trip that passes
ROUNDTRIP_TOL = 1e-9
# the random scenarios' local dimensions d_a, d_b, d_s and d_t run up to
# INSTANCE_MAX_DIM, and each instrument is trace non-increasing with
# probability TNI_FRACTION
INSTANCE_MAX_DIM = 4
TNI_FRACTION = 0.2


@dataclass(frozen=True)
class ScenarioInstance:
    """Pure shared state, two local instruments, and an extractor."""

    rho_ab: DensityOperator
    m_inst: Instrument
    n_inst: Instrument
    ext: ExtractorSpec
    strong: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.rho_ab.is_pure():
            raise ValueError("scenario input state must be pure; purify mixed "
                             "inputs and route the reference system to one side")
        for inst, nbits in ((self.m_inst, self.ext.n), (self.n_inst, self.ext.n)):
            if inst.num_outcomes != 2 ** nbits:
                raise ValueError(
                    f"instrument emits {inst.num_outcomes} outcomes, extractor "
                    f"wants {2 ** nbits}")
        named = set(self.rho_ab.names())
        m_names = {s.name for s in self.m_inst.input_systems}
        n_names = {s.name for s in self.n_inst.input_systems}
        if m_names | n_names != named or m_names & n_names:
            raise ValueError("instrument inputs must partition the state's systems")

    @cached_property
    def near_blocks(self) -> np.ndarray:
        """The near instrument's branches tau_x on (S, B), one per x."""
        return _branch_blocks(self.m_inst, self.rho_ab)


@dataclass(frozen=True)
class BoundReport:
    """Measured epsilon against a security formula, with entropy certificates."""

    kind: str
    n: int
    m: int
    r: int
    strong: bool
    measured: float
    bound: float
    k1: EntropyResult
    k2: EntropyResult
    seed: int | None = None

    @property
    def margin(self) -> float:
        return self.bound - self.measured

    @property
    def passed(self) -> bool:
        return self.measured <= self.bound + PASS_SLACK

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind, "n": self.n, "m": self.m, "r": self.r,
            "strong": self.strong, "measured": self.measured, "bound": self.bound,
            "margin": self.margin, "passed": self.passed, "seed": self.seed,
            "k1": {"value": self.k1.value, "lower": self.k1.lower,
                   "upper": self.k1.upper, "gap": self.k1.gap},
            "k2": {"value": self.k2.value, "lower": self.k2.lower,
                   "upper": self.k2.upper, "gap": self.k2.gap},
        }


def _branch_blocks(inst: Instrument, rho: DensityOperator) -> np.ndarray:
    """Stack of per-outcome sub-normalized operators on (outputs (x) rest)."""
    acted = [s.name for s in inst.input_systems]
    rest = [nm for nm in rho.names() if nm not in acted]
    return instrument_blocks(inst, permute_systems(rho, acted + rest))


def measured_epsilon(inst: ScenarioInstance) -> float:
    """Exact half trace distance of the extracted output from uniform.

    Strong mode keeps the Y register next to the side information; weak
    mode marginalizes it.  One product sums the near blocks tau_x by output
    z at each y into G[y, z], outcome y's Kraus operators act on B of
    G[y, .] only, and one stacked eigvalsh gives every trace norm.
    """
    far, m_vals = inst.n_inst, 2 ** inst.ext.m
    onehot = (output_table(inst.ext)[..., None] == np.arange(m_vals)).astype(float)
    grouped = np.tensordot(onehot, inst.near_blocks, axes=(0, 0))  # [y, z]
    d_s, d_b, d_t = inst.m_inst.output_dim, far.input_dim, far.output_dim
    # Kraus operator k acts on B of its outcome's sums, on (S, B, S, B)
    g = grouped[far.kraus_outcome].reshape(-1, m_vals, d_s, d_b, d_s, d_b)
    half = np.einsum("kai,kzsirj->kzsarj", far.kraus_stack, g)
    out = np.einsum("kzsarj,kbj->kzsarb", half, far.kraus_stack.conj())
    az = far.outcome_sums(out) if inst.strong else out.sum(axis=0, keepdims=True)
    az = az.reshape(len(az), m_vals, d_s * d_t, d_s * d_t)  # per y: z -> on (S, T)
    diff = az - az.sum(axis=1, keepdims=True) / m_vals
    vals = np.linalg.eigvalsh(herm(diff))
    return 0.5 * float(np.abs(vals).sum())


def scenario_entropies(inst: ScenarioInstance, gap: float = DEFAULT_GAP):
    """Certified (k1, k2) of the scenario.

    k1 conditions X on S and the untouched far input; k2 conditions Y
    on the near input alone in strong mode, adding T in weak mode.
    """
    k1 = h_min_blocks(inst.near_blocks, gap=gap)
    omega = _branch_blocks(inst.n_inst, inst.rho_ab)  # on (T, A)
    if inst.strong:
        d_t, d_a = inst.n_inst.output_dim, inst.m_inst.input_dim
        omega = np.einsum("yiaib->yab", omega.reshape(-1, d_t, d_a, d_t, d_a))
    k2 = h_min_blocks(omega, gap=gap)
    return k1, k2


def _check_bound(kind: str, inst: ScenarioInstance, gap: float) -> BoundReport:
    """Measured epsilon against the formula of extractor ``kind`` at (k1, k2)."""
    ext = inst.ext
    if ext.kind != kind:
        name = "inner product" if kind == IP else "matrix family"
        raise ValueError(f"instance does not use the {name} extractor")
    k1, k2 = scenario_entropies(inst, gap)
    r = 0 if kind == IP else ext.family.r
    exponent = (ext.n if kind == IP else 2 * ext.m + ext.n + r) - k1.lower - k2.lower
    return BoundReport(kind, ext.n, ext.m, r, inst.strong, measured_epsilon(inst),
                       0.5 * math.sqrt(2.0 ** exponent), k1, k2, inst.seed)


def check_ip_bound(inst: ScenarioInstance, gap: float = DEFAULT_GAP) -> BoundReport:
    return _check_bound(IP, inst, gap)


def check_deor_bound(inst: ScenarioInstance, gap: float = DEFAULT_GAP) -> BoundReport:
    return _check_bound(DEOR, inst, gap)


class TightnessReport(BoundReport):
    """The tightness instance passes only at equality, epsilon = bound = 1/2."""

    @property
    def passed(self) -> bool:
        return self.measured == self.bound == 0.5


# ---------------------------------------------------------------------------
# XOR lemma


@dataclass(frozen=True)
class XorReport:
    lhs_sq: float
    rhs_sq: float

    @property
    def holds(self) -> bool:
        return self.lhs_sq <= self.rhs_sq + PASS_SLACK

    def to_json_dict(self) -> dict:
        return {"lhs_sq": self.lhs_sq, "rhs_sq": self.rhs_sq, "passed": self.holds}


def check_xor_lemma(rho_ze: CqState, m: int) -> XorReport:
    """Exact check that the full distance from uniform is controlled by
    the distances of all nonzero parity bits of the output register."""
    if rho_ze.num_classical != 2 ** m:
        raise ValueError(f"first register must hold {2 ** m} values")
    blocks = rho_ze.blocks()
    uniform = blocks.sum(axis=0) / 2 ** m
    lhs = sum(trace_norm(b - uniform) for b in blocks) ** 2
    # signs[s, z] = (-1)^(s . z), the parity character s at output value z
    z = np.arange(2 ** m)
    signs = 1 - 2 * (np.bitwise_count(z[:, None] & z[None, :]) & 1)
    rhs = sum(trace_norm(t) ** 2 for t in np.einsum("sz,zab->sab", signs[1:], blocks))
    return XorReport(float(lhs), float(2 ** m * rhs))


# ---------------------------------------------------------------------------
# Instance generators


def measurement_instrument(system: System, outcome_name: str = "X") -> Instrument:
    """Computational basis measurement with no quantum output."""
    kraus = tuple((row[None],) for row in np.eye(system.dim, dtype=complex))
    return Instrument((system,), outcome_name, (), kraus)


def preparation_instrument(system: System, probs, outcome_name: str) -> Instrument:
    """Instrument on a trivial input that emits a classical value with
    the given distribution (and no quantum side output).

    Dyadic probabilities are realized exactly: p = 2^-k with odd k uses
    two identical Kraus entries so the branch weight is p to the last
    bit, which is what lets the tightness check hit its bound exactly.
    """
    kraus = []
    for p in probs:
        p = float(p)
        if p == 0.0:
            kraus.append((np.zeros((1, 1), dtype=complex),))
            continue
        mant, exp = math.frexp(p)
        if mant == 0.5:  # p = 2^(exp-1)
            k = exp - 1
            if k % 2 == 0:
                kraus.append((np.array([[2.0 ** (k // 2)]], dtype=complex),))
            else:
                half = np.array([[2.0 ** ((k - 1) // 2)]], dtype=complex)
                kraus.append((half, half.copy()))
        else:
            kraus.append((np.array([[math.sqrt(p)]], dtype=complex),))
    return Instrument((system,), outcome_name, (), tuple(kraus))


def distribution_instance(p: np.ndarray, ext: ExtractorSpec,
                          strong: bool = True) -> ScenarioInstance:
    """Scenario realizing a joint distribution via the canonical pure state
    sqrt(p) and computational measurements on both halves."""
    p = np.asarray(p, dtype=float)
    n_vals = 2 ** ext.n
    if p.shape != (n_vals, n_vals) or abs(p.sum() - 1.0) > 1e-12 or p.min() < 0:
        raise ValueError(f"need a {n_vals}x{n_vals} probability table")
    a = System("A", n_vals)
    b = System("B", n_vals)
    vec = np.sqrt(p).reshape(-1)
    rho = DensityOperator((a, b), np.outer(vec, vec))
    return ScenarioInstance(rho, measurement_instrument(a, "X"),
                            measurement_instrument(b, "Y"), ext, strong)


def gen_tightness(n: int) -> ScenarioInstance:
    """The half/half instance: X uniform on its first n/2 bits and zero
    after, Y zero on its first n/2 bits and uniform after, so the inner
    product vanishes identically while both entropies equal n/2."""
    if n % 2 or n < 2:
        raise ValueError("need even n >= 2")
    half = 2 ** (n // 2)
    px = np.zeros(2 ** n)
    px[:half] = 1.0 / half          # low bits free, high bits zero
    py = np.zeros(2 ** n)
    py[::half] = 1.0 / half         # low bits zero, high bits free
    a = System("A", 1)
    b = System("B", 1)
    rho = DensityOperator((a, b), np.array([[1.0]]))
    return ScenarioInstance(rho, preparation_instrument(a, px, "X"),
                            preparation_instrument(b, py, "Y"),
                            ExtractorSpec(IP, n), strong=True)


MARKOV_COUNTEREXAMPLE_HMIN = 0.45689
MARKOV_EXTENSION_HMIN = -math.log2(3.0 / 4.0)  # about 0.41504


def gen_markov_counterexample():
    """The two-bit distribution whose induced side-information states have
    min-entropy about 0.45689 while every classical Markov extension is
    capped at -log2(3/4) about 0.41504.

    Returns (p, eta, nu, instance): the joint table, both conditional
    pure-state constructions, and the measurement scenario.
    """
    p = np.zeros((4, 4))
    for x, y in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 0), (3, 3)]:
        p[x, y] = 1.0 / 8.0
    eta, nu = build_eta_nu(p)
    inst = distribution_instance(p, ExtractorSpec(IP, 2), strong=True)
    return p, eta, nu, inst


def build_eta_nu(p: np.ndarray) -> tuple[CqState, CqState]:
    """Conditional pure-state encodings of a joint distribution.

    For each value of one register the other register's conditional
    distribution is embedded as an amplitude vector, which is the
    side-information structure induced by measuring the canonical pure
    state on one side only.
    """
    p = np.asarray(p, dtype=float)
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("not a probability table")
    nx, ny = p.shape

    def cq(table: np.ndarray, cl_name: str, q_name: str) -> CqState:
        rows, cols = table.shape
        mass = table.sum(axis=1)
        # a row of zero mass has zero amplitudes and a zero block
        amp = np.sqrt(table / np.where(mass > 0, mass, 1.0)[:, None])
        blocks = mass[:, None, None] * (amp[:, :, None] * amp[:, None, :])
        return CqState.from_blocks(System(cl_name, rows, classical=True),
                                   (System(q_name, cols),), blocks)

    return cq(p, "X", "B"), cq(p.T, "Y", "A")


def alt_model_channel(rho_xb: CqState) -> Instrument:
    """Measurement that recreates a cq state from the purification of its
    quantum marginal.

    The POVM elements are the transposed, marginal-whitened conditional
    operators; applied to the reference half of the canonical
    purification of the marginal they reproduce the cq state exactly.
    """
    blocks = rho_xb.blocks()
    rho_b = blocks.sum(axis=0)
    white = frac_power(rho_b, -0.5)
    f = (white @ blocks @ white).swapaxes(1, 2)
    # the rows of the square root of each POVM element are its Kraus operators
    kraus = tuple(tuple(frac_power(e, 0.5)[:, None]) for e in f)
    return Instrument((System("ref", len(rho_b)),), "X", (), kraus)


def alt_model_roundtrip_error(rho_xb: CqState) -> float:
    """Max deviation of the reconstructed cq state from the original."""
    rho_b = rho_xb.blocks().sum(axis=0)
    b_sys = rho_xb.systems[1:]
    marginal = DensityOperator(b_sys, rho_b)
    pure = purify(marginal)  # systems (B..., ref)
    rebuilt = apply_instrument(alt_model_channel(rho_xb), pure)
    # rebuilt is (X, B...); compare blockwise against the original
    return float(np.abs(rebuilt.blocks() - rho_xb.blocks()).max())


# ---------------------------------------------------------------------------
# Random scenario generation


def haar_state(rng: np.random.Generator, systems: tuple[System, ...]) -> DensityOperator:
    dim = int(np.prod([s.dim for s in systems]))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityOperator(systems, np.outer(v, v.conj()))


def random_instrument(rng: np.random.Generator, system: System, n_bits: int,
                      d_side: int, outcome_name: str, side_name: str,
                      scale: float = 1.0) -> Instrument:
    """Haar random instrument with 2^n_bits outcomes and a d_side output.

    Built from the QR factorization of a Gaussian complex matrix, so the
    total map is an isometry (trace preserving) when scale is 1.
    """
    n_out = 2 ** n_bits
    if n_out * d_side < system.dim:
        raise ValueError("output space too small for an isometry")
    g = rng.normal(size=(n_out * d_side, system.dim)) \
        + 1j * rng.normal(size=(n_out * d_side, system.dim))
    q, _ = np.linalg.qr(g)
    q = scale * q
    kraus = tuple((q[x * d_side:(x + 1) * d_side, :],) for x in range(n_out))
    outputs = (System(side_name, d_side),) if d_side > 1 else ()
    return Instrument((system,), outcome_name, outputs, kraus)


def gen_random_instance(seed: int, n_bits: int | None = None,
                        ext: ExtractorSpec | None = None,
                        strong: bool = True) -> ScenarioInstance:
    """Seeded scenario: Haar pure input, Haar instruments on both sides."""
    rng = np.random.default_rng(seed)
    if ext is None:
        if n_bits is None:
            n_bits = int(rng.integers(1, 5))
        ext = ExtractorSpec(IP, n_bits)
    n_bits = ext.n
    d_a = int(rng.integers(2, INSTANCE_MAX_DIM + 1))
    d_b = int(rng.integers(2, INSTANCE_MAX_DIM + 1))
    lo_s = max(1, math.ceil(d_a / 2 ** n_bits))
    lo_t = max(1, math.ceil(d_b / 2 ** n_bits))
    d_s = int(rng.integers(lo_s, INSTANCE_MAX_DIM + 1))
    d_t = int(rng.integers(lo_t, INSTANCE_MAX_DIM + 1))
    a, b = System("A", d_a), System("B", d_b)
    rho = haar_state(rng, (a, b))
    scale_m = float(rng.uniform(0.6, 1.0)) if rng.uniform() < TNI_FRACTION else 1.0
    scale_n = float(rng.uniform(0.6, 1.0)) if rng.uniform() < TNI_FRACTION else 1.0
    m_inst = random_instrument(rng, a, n_bits, d_s, "X", "S", scale_m)
    n_inst = random_instrument(rng, b, n_bits, d_t, "Y", "T", scale_n)
    return ScenarioInstance(rho, m_inst, n_inst, ext, strong, seed=seed)


# ---------------------------------------------------------------------------
# Suites


def run_ip_suite(count: int = 200, seed: int = 0, gap: float = 1e-6) -> list[BoundReport]:
    return [check_ip_bound(gen_random_instance(s, strong=s % 2 == 0), gap=gap)
            for s in range(seed, seed + count)]


def run_deor_suite(count: int = 100, seed: int = 0, gap: float = 1e-6) -> list[BoundReport]:
    exts = [ExtractorSpec(DEOR, f.n, f.m, f) for f in (
        build_field_family(2, 1), build_field_family(2, 2),
        build_field_family(3, 1), build_field_family(3, 2),
        build_circulant_family(3, 1), build_circulant_family(3, 2))]
    insts = (gen_random_instance(seed + i, ext=exts[i % len(exts)], strong=True)
             for i in range(count))
    return [check_deor_bound(inst, gap=gap) for inst in insts]


def run_xor_suite(count: int = 200, seed: int = 0) -> list[XorReport]:
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(count):
        m = int(rng.integers(1, 4))
        d_e = int(rng.integers(1, 9))
        trace = float(rng.uniform(0.5, 1.0)) if rng.uniform() < 0.3 else 1.0
        rho = random_cq_state(rng, 2 ** m, d_e, trace=trace)
        reports.append(check_xor_lemma(rho, m))
    return reports


def run_tightness(n: int = 2) -> TightnessReport:
    return TightnessReport(**vars(check_ip_bound(gen_tightness(n))))


def run_counterexample(gap: float = 1e-8) -> dict:
    """Reproduce both numeric endpoints of the Markov separation."""
    _, eta, nu, _ = gen_markov_counterexample()
    hx = h_min_blocks(eta.blocks(), gap=gap)
    hy = h_min_blocks(nu.blocks(), gap=gap)
    sep = min(hx.lower, hy.lower) > MARKOV_EXTENSION_HMIN
    return {
        "h_min_x_given_b": hx.value, "h_min_y_given_a": hy.value,
        "expected": MARKOV_COUNTEREXAMPLE_HMIN,
        "markov_cap": MARKOV_EXTENSION_HMIN,
        "separation_strict": bool(sep),
        "passed": bool(sep
                       and abs(hx.value - MARKOV_COUNTEREXAMPLE_HMIN) < 1e-3
                       and abs(hy.value - MARKOV_COUNTEREXAMPLE_HMIN) < 1e-3),
    }


def run_alt_model_suite(count: int = 50, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nx = int(rng.integers(2, 5))
        dq = int(rng.integers(2, 5))
        rho = random_cq_state(rng, nx, dq, cl_name="X", q_name="B")
        err = alt_model_roundtrip_error(rho)
        out.append({"error": err, "passed": bool(err <= ROUNDTRIP_TOL)})
    return out


# name -> (count c, seed s, gap g) -> checks; tightness and counterexample run one each
SUITES = {
    "ip-bound": lambda c, s, g: [r.to_json_dict() for r in run_ip_suite(c, s, g)],
    "deor-bound": lambda c, s, g: [r.to_json_dict() for r in run_deor_suite(c, s, g)],
    "xor": lambda c, s, g: [r.to_json_dict() for r in run_xor_suite(c, s)],
    "tightness": lambda c, s, g: [run_tightness().to_json_dict()],
    "counterexample": lambda c, s, g: [run_counterexample(min(g, 1e-8))],
    "chaining": run_chaining_suite,
    "alt-model": lambda c, s, g: run_alt_model_suite(c, s),
}


def run_suite(name: str, count: int, seed: int, gap: float = 1e-6) -> list[dict]:
    """The checks of suite ``name``, JSON-ready, each with its ``suite``,
    ``seed`` (a check that sets its own keeps it) and verdict ``passed``."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; the suites are {', '.join(SUITES)}")
    check_gap(gap)
    checks = SUITES[name](count, seed, gap)
    for check in checks:
        check.setdefault("suite", name)
        check.setdefault("seed", seed)
    return checks
