"""Weakly random bit sources and the amplification output-length calculator.

A source is a chain of per-step kernels, each consuming a small memory
register and emitting one bit plus the updated register.  The bias
condition is enforced at the operator level: for every step, outcome
and memory value, the probability of the outcome is at most 1/2 + mu.
This is the form of the condition that holds for *all* input states,
including inputs entangled with an adversary through the initial memory,
so the entropy chaining bound

    H_min(bits | E)  >=  -n log2(1/2 + mu)

is guaranteed for every spec that validates.  ``check_chaining``
verifies it numerically on the exact output state.

The output-length calculator inverts the security bound of the strong
multi-bit extractor for a source of certified per-round rate h: it
returns the number of extractable bits m and, given m, the achieved
security parameter.  The square-root second-order coefficient is an
input; no value is fabricated for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import DEFAULT_GAP, EntropyResult, h_min_blocks
from .quantum import CqState, System, random_cq_state, simplex

BIAS_TOL = 1e-9
MAX_EXACT_BITS = 8


@dataclass(frozen=True)
class SvSourceSpec:
    """Bias-mu source: chained step kernels plus the initial (memory,
    adversary) state.

    ``steps[i]`` is step i's kernel, a read-only float64 array of shape
    (2, d_out, d_in) with kernel[x, r_out, r_in] = P(bit x, new memory |
    memory); each step's d_in is the previous step's d_out.  ``rho_init``
    is a cq state over (classical memory, quantum side information); when
    omitted the memory starts uniform with trivial side information.
    """

    mu: float
    steps: tuple[np.ndarray, ...]
    rho_init: CqState | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu < 0.5:
            raise ValueError("bias must lie in [0, 1/2)")
        # copies, so that freezing them leaves the caller's arrays writeable
        steps = tuple(np.array(k, dtype=float) for k in self.steps)
        if not steps:
            raise ValueError("need at least one step")
        for i, k in enumerate(steps):
            if k.ndim != 3 or k.shape[0] != 2 or 0 in k.shape:
                raise ValueError(f"step {i}: kernel must have shape (2, d_out, d_in) "
                                 f"with d_out, d_in >= 1, got {k.shape}")
            if not (np.isfinite(k).all() and k.min() >= 0):
                raise ValueError(f"step {i}: kernel has negative or non-finite entries")
            probs = k.sum(axis=1)  # P(x | r_in)
            if np.abs(probs.sum(axis=0) - 1.0).max() > 1e-12:
                raise ValueError(f"step {i}: kernel columns must sum to one (trace preserving)")
            if i and k.shape[2] != d:
                raise ValueError(f"step {i} expects memory {k.shape[2]}, previous emits {d}")
            d = k.shape[1]
            worst = float(probs.max())
            if worst > 0.5 + self.mu + BIAS_TOL:
                raise ValueError(
                    f"step {i} leaks outcome probability {worst:.6f} "
                    f"> 1/2 + mu = {0.5 + self.mu:.6f}")
            k.setflags(write=False)
        object.__setattr__(self, "steps", steps)
        if self.rho_init is not None and self.rho_init.num_classical != steps[0].shape[2]:
            raise ValueError("initial memory dimension does not match first step")

    @property
    def n(self) -> int:
        return len(self.steps)

    def initial_blocks(self) -> np.ndarray:
        """Stack of the adversary's operators for each initial memory value."""
        if self.rho_init is not None:
            return self.rho_init.blocks()
        d = self.steps[0].shape[2]
        return np.full((d, 1, 1), 1.0 / d, dtype=complex)


def _exact_blocks(spec: SvSourceSpec) -> np.ndarray:
    """The adversary's operators for each emitted string, as one
    (2^n, d_e, d_e) stack; bit i of the string is bit i of its index."""
    if spec.n > MAX_EXACT_BITS:
        raise ValueError(f"exact mode supports at most {MAX_EXACT_BITS} steps")
    # state[v] has shape (d_r, d_e, d_e) for the emitted prefix v, bit i
    # of the string at bit i of v: each step's bit x becomes the high bit
    state = spec.initial_blocks()[None]
    d_e = state.shape[-1]
    for kernel in spec.steps:
        # kernel[x, r', r] state[v, r] -> state[x 2^i + v, r']
        state = np.einsum("xsr,vrab->xvsab", kernel, state).reshape(
            -1, kernel.shape[1], d_e, d_e)
    return state.sum(axis=1)


def simulate_sv_exact(spec: SvSourceSpec) -> CqState:
    """Exact joint state of all emitted bits and the adversary system.

    The memory register is traced out at the end.  Block bookkeeping
    keeps this linear in 2^n, so n is capped.
    """
    blocks = _exact_blocks(spec)
    return CqState.from_blocks(System("Xn", 2 ** spec.n, classical=True),
                               (System("E", blocks.shape[-1]),), blocks)


@dataclass(frozen=True)
class ChainingReport:
    entropy: EntropyResult
    bound: float

    @property
    def slack(self) -> float:
        return self.entropy.lower - self.bound

    @property
    def holds(self) -> bool:
        # the certified upper bound must not undercut the guaranteed rate
        return self.entropy.upper >= self.bound - 1e-9

    def to_json_dict(self) -> dict:
        return {"h_min": self.entropy.value, "lower": self.entropy.lower,
                "upper": self.entropy.upper, "bound": self.bound,
                "slack": self.slack, "passed": self.holds}


def check_chaining(spec: SvSourceSpec, gap: float = DEFAULT_GAP) -> ChainingReport:
    """Verify the exact output satisfies the per-step entropy accumulation."""
    h = h_min_blocks(_exact_blocks(spec), gap=gap)
    bound = -spec.n * math.log2(0.5 + spec.mu)
    return ChainingReport(h, bound)


def run_chaining_suite(count: int = 20, seed: int = 0, gap: float = 1e-6) -> list[dict]:
    """Chaining checks of ``gen_random_sv_spec(seed + i)``, JSON-ready with their seeds."""
    return [dict(check_chaining(gen_random_sv_spec(s), gap=gap).to_json_dict(), seed=s)
            for s in range(seed, seed + count)]


def gen_random_sv_spec(seed: int, n: int | None = None,
                       mu: float | None = None) -> SvSourceSpec:
    """Seeded adversarial source: memory-correlated steps with outcome
    probabilities pushed to the bias boundary, and an initial memory
    entangled (classically) with a quantum adversary system.

    The draws, and their order, are part of the contract: a seed names a
    source, and the chaining suite and the benchmark's chain schedule name
    their instances by seed.  ``tests/test_dira.py::TestGenRandomSvSpec``
    checks it, exactly, against a loop oracle that makes one generator
    call per draw.
    """
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 5))
    if mu is None:
        mu = (0.0, 0.1, 0.25, 0.4)[int(rng.integers(0, 4))]
    lo, hi = 0.5 - mu, 0.5 + mu
    d_r = int(rng.integers(1, 5))
    steps = []
    d_in = d_r
    for _ in range(n):
        d_out = int(rng.integers(1, 5))
        coins = np.empty((2, d_in))
        e = np.empty((2, d_in, d_out))
        for r in range(d_in):
            coins[:, r] = rng.random(2)
            e[:, r] = rng.standard_exponential((2, d_out))
        pick, u = coins
        # at the bias boundary half the time, else uniform between the bounds
        p_one = np.where(pick < 0.5, np.where(u < 0.5, hi, lo), lo + (hi - lo) * u)
        kernel = np.stack([1.0 - p_one, p_one])[:, :, None] * simplex(e)
        steps.append(np.ascontiguousarray(kernel.swapaxes(1, 2)))
        d_in = d_out
    d_e = int(rng.integers(1, 5))
    rho_init = random_cq_state(rng, d_r, d_e, cl_name="R0", q_name="E")
    return SvSourceSpec(mu, tuple(steps), rho_init)


# ---------------------------------------------------------------------------
# Output length and security calculators


@dataclass(frozen=True)
class DiraParams:
    """Inputs of the output-length calculation.

    n rounds with certified per-round rate h bits, source bias mu,
    target security eps, smoothing share eps_s, and the coefficient c of
    the sqrt(n) second-order term (exogenous; no default is fabricated).

    ``privatized`` documents that the extraction is strong in the second
    source, so its bits may be published afterwards.  It changes no
    numbers; the bound already conditions on them.
    """

    n: int
    h: float
    mu: float
    eps: float
    eps_s: float
    c: float = 0.0
    privatized: bool = False

    def __post_init__(self) -> None:
        for name in ("h", "eps", "eps_s", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n < 1:
            raise ValueError("need at least one round")
        try:
            float(self.n)
        except OverflowError:
            raise ValueError("round count is too large for floating point") from None
        if self.h < 0:
            raise ValueError("per-round rate must be non-negative")
        if not 0.0 <= self.mu < 0.5:
            raise ValueError("bias must lie in [0, 1/2)")
        if not 0.0 < self.eps_s < self.eps:
            raise ValueError("need 0 < eps_s < eps")
        if self.c < 0:
            raise ValueError("second-order coefficient must be non-negative")

    @property
    def k2(self) -> float:
        return -math.log2(0.5 + self.mu)


@dataclass(frozen=True)
class RateResult:
    m: int
    flag: bool
    raw: float
    privatized: bool = False


def dira_rate(p: DiraParams) -> RateResult:
    """Extractable bits: floor of n/2 (2 k2 + h - 2) - log2(1/(2(eps-eps_s))) - c sqrt(n).

    Returns zero with the violation flag when 2 k2 + h <= 2 or the
    expression is non-positive.  Flooring only shrinks the output, which
    is always safe for security.  Inputs whose expression overflows
    floating point raise ValueError.
    """
    raw = (0.5 * p.n * (2.0 * p.k2 + p.h - 2.0)
           - math.log2(1.0 / (2.0 * (p.eps - p.eps_s)))
           - p.c * math.sqrt(p.n))
    if not math.isfinite(raw):
        raise ValueError(f"output length {raw} is outside floating-point range; "
                         "check n, h and c")
    if 2.0 * p.k2 + p.h <= 2.0 or raw <= 0.0:
        return RateResult(0, True, raw, p.privatized)
    return RateResult(int(math.floor(raw)), False, raw, p.privatized)


def dira_epsilon(p: DiraParams, m: int) -> float:
    """Security parameter achieved when extracting m bits.

    Evaluates eps_s + 1/2 sqrt(2^(2m + 2n - n h + c sqrt(n) - 2 n k2)) with
    the exponent handled in the log domain.
    """
    if m < 0:
        raise ValueError("output length must be non-negative")
    exponent = 2.0 * m + 2.0 * p.n - p.n * p.h + p.c * math.sqrt(p.n) - 2.0 * p.n * p.k2
    if math.isnan(exponent):
        raise ValueError("security exponent is outside floating-point range; check n, h and m")
    half_exp = 0.5 * exponent
    if half_exp > 1000.0:
        return math.inf
    if half_exp < -1060.0:
        return p.eps_s
    return p.eps_s + 0.5 * 2.0 ** half_exp
