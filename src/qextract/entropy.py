"""Conditional entropy computations with certificates.

Three quantities are computed for a bipartite sub-normalized state:

* ``h_inf_down`` -- the non-optimized order-infinity entropy, in closed
  form as minus the log of the largest eigenvalue of the conditioned
  operator.
* ``h2_down`` -- the collision-type order-2 entropy, in closed form via
  fractional powers on the support.
* ``h_min`` -- the operational min-entropy, as a small dense SDP

      minimize   tr[sigma]
      subject to identity (x) sigma >= rho_AB

  solved by a damped-Newton log-barrier method.  Each barrier
  parameter mu is a tenth of the last, and each Newton system is solved
  over the d^2 real coordinates of a Hermitian direction.  At the
  centre for mu the duality gap is mu times the total slack dimension,
  so the bracket is about mu * size / (tr(sigma) ln 2) bits wide; only
  once that estimate meets the requested gap is the extended-precision
  certificate computed, normally once per solve.  It is two-sided: the
  feasible primal iterate bounds 2^-Hmin from above, and a corrected dual
  witness (for classical A: an explicit POVM) bounds it from below via
  its guessing probability.  A solve that stops early (iteration cap,
  mu floor, numerically singular slack) certifies its last feasible
  iterate and reports that bracket.  The reported value is the primal
  bound, so the value itself is always a certified lower bound on the
  entropy.

All entropies are in bits.  When the target registers are classical the
constraint splits into one block per classical value and the solver
works blockwise, which is what keeps n-bit targets cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    DensityOperator,
    Instrument,
    adjoint_apply,
    frac_power,
    herm_eig,
    partial_trace,
    permute_systems,
    support_projector,
)

DEFAULT_GAP = 1e-8
NEWTON_TOL = 1e-6
MAX_OUTER = 200
MAX_INNER = 60

CLOSED_FORM = "closed-form"
SDP = "sdp-primal-dual"


class SupportError(ValueError):
    """The state has weight outside the support of the conditioner."""


class SolverConvergenceError(RuntimeError):
    """Barrier solve stopped before reaching the requested gap."""

    def __init__(self, best: "EntropyResult"):
        self.best = best
        super().__init__(
            f"solver reached gap {best.gap:.3e} bits, requested less; "
            f"best bracket [{best.lower:.9f}, {best.upper:.9f}]")


@dataclass(frozen=True)
class EntropyResult:
    """Entropy value in bits with a certified bracket lower <= value <= upper."""

    value: float
    lower: float
    upper: float
    kind: str
    iterations: int = 0
    sigma: np.ndarray | None = field(default=None, repr=False, compare=False)
    witness: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _partition(rho: DensityOperator, target, condition):
    target = list(target)
    condition = list(condition)
    names = set(rho.names())
    if set(target) & set(condition):
        raise ValueError("target and condition overlap")
    if set(target) | set(condition) != names:
        missing = names - set(target) - set(condition)
        raise ValueError(f"partition must cover every system; missing {sorted(missing)}")
    return permute_systems(rho, target + condition), len(target)


def _blocks(rho: DensityOperator, n_target: int):
    """Split into (multiplicity, block) pairs over classical target values.

    Returns (blocks, d_b).  When every target system is classical the
    state is block-diagonal over the joint target index and each block
    carries multiplicity 1; otherwise a single block of multiplicity
    dim(target) is returned.
    """
    d_b = int(np.prod([s.dim for s in rho.systems[n_target:]], dtype=np.int64))
    d_a = rho.dim // d_b
    if all(s.classical for s in rho.systems[:n_target]):
        mat = rho.matrix
        out = []
        for x in range(d_a):
            out.append((1, np.array(mat[x * d_b:(x + 1) * d_b, x * d_b:(x + 1) * d_b])))
        return out, d_b
    return [(d_a, np.array(rho.matrix))], d_b


def _conditioner_power(rho: DensityOperator, n_target: int, power: float):
    rho_b = partial_trace(rho, [s.name for s in rho.systems[:n_target]])
    return frac_power(rho_b.matrix, power), rho_b.matrix


def _check_support(blocks, proj: np.ndarray, tol: float = 1e-9) -> None:
    for mult, blk in blocks:
        p = np.kron(np.eye(mult), proj)
        residual = blk - p @ blk @ p
        if np.abs(residual).max(initial=0.0) > tol:
            raise SupportError(
                f"state has weight {np.abs(residual).max():.3e} outside the "
                "support of the conditioning marginal")


def h_inf_down(rho: DensityOperator, target, condition=()) -> EntropyResult:
    """Non-optimized conditional entropy of order infinity, closed form."""
    rho, n_t = _partition(rho, target, condition)
    blocks, d_b = _blocks(rho, n_t)
    if d_b == 1:
        lam = max(float(herm_eig(blk)[0].max()) for _, blk in blocks)
    else:
        inv_root, rho_b = _conditioner_power(rho, n_t, -0.5)
        _check_support(blocks, support_projector(rho_b))
        lam = 0.0
        for mult, blk in blocks:
            s = np.kron(np.eye(mult), inv_root)
            lam = max(lam, float(herm_eig(s @ blk @ s)[0].max()))
    value = -math.log2(lam)
    return EntropyResult(value, value, value, CLOSED_FORM)


def h2_down(rho: DensityOperator, target, condition=()) -> EntropyResult:
    """Collision-type conditional entropy of order 2, closed form."""
    rho, n_t = _partition(rho, target, condition)
    blocks, d_b = _blocks(rho, n_t)
    if d_b == 1:
        total = sum(float(np.vdot(blk, blk).real) for _, blk in blocks)
    else:
        inv_quarter, rho_b = _conditioner_power(rho, n_t, -0.25)
        _check_support(blocks, support_projector(rho_b))
        total = 0.0
        for mult, blk in blocks:
            s = np.kron(np.eye(mult), inv_quarter)
            g = s @ blk @ s
            total += float(np.vdot(g, g).real)
    value = -math.log2(total)
    return EntropyResult(value, value, value, CLOSED_FORM)


# ---------------------------------------------------------------------------
# Min-entropy SDP


def _inv_ld(mat: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse with partial pivoting in extended precision.

    LAPACK has no long double kernels, so this is hand-rolled; the
    matrices are at most 64x64 and it only runs on the certificate path.
    """
    d = mat.shape[0]
    a = mat.astype(np.clongdouble).copy()
    inv = np.eye(d, dtype=np.clongdouble)
    for col in range(d):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0:
            raise np.linalg.LinAlgError("singular slack matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        scale = a[col, col]
        a[col] /= scale
        inv[col] /= scale
        factors = a[:, col].copy()
        factors[col] = 0
        a -= factors[:, None] * a[col][None, :]
        inv -= factors[:, None] * inv[col][None, :]
    return inv


def _inv_sqrt_ld(mat: np.ndarray) -> np.ndarray:
    """Inverse square root of a well-conditioned PD matrix, refined from a
    double precision seed by Newton-Schulz iterations in extended precision."""
    md = mat.astype(complex)
    seed = frac_power(0.5 * (md + md.conj().T), -0.5).astype(np.clongdouble)
    a = mat.astype(np.clongdouble)
    y = seed
    eye = np.eye(mat.shape[0], dtype=np.clongdouble)
    for _ in range(4):
        y = 0.5 * y @ (3.0 * eye - a @ (y @ y))
        y = 0.5 * (y + y.conj().T)
    return y


def _hessian_gather(d: int):
    """Index and weight tables that gather the Hessian in the real basis
    of ``_SdpKernel`` from the block product C of ``_SdpKernel.hessian``.

    Basis element k is c_k at (a_k, b_k) plus conj(c_k) at (b_k, a_k),
    with c_k = 1/2 for E_ii (both halves land on the diagonal), 1/sqrt2
    for the real and i/sqrt2 for the imaginary off-diagonal elements.
    The Hessian acts on a direction as D -> sum_x U_x D U_x, whose entry
    ((p, q), (r, s)) as a matrix on row-major vec(D) is C[p, r, s, q].
    With the inverses exactly Hermitian it maps Hermitian matrices to
    Hermitian matrices, so entry (k, l) in the real basis comes to
    2 Re[conj(c_k) c_l C[a_k, a_l, b_l, b_k]
         + conj(c_k) conj(c_l) C[a_k, b_l, a_l, b_k]].
    Every coefficient product is real or imaginary, so each term is a
    fixed weight times the real or imaginary part of one entry of C,
    indexed in C viewed as interleaved float64 (real, imag) pairs.
    """
    iu, ju = np.triu_indices(d, 1)
    diag = np.arange(d)
    a = np.concatenate([diag, iu, iu])
    b = np.concatenate([diag, ju, ju])
    c = np.concatenate([np.full(d, 0.5), np.full(len(iu), math.sqrt(0.5)),
                        np.full(len(iu), 1j * math.sqrt(0.5))])
    ak, bk, ck = a[:, None], b[:, None], c.conj()[:, None]
    al, bl = a[None, :], b[None, :]
    tables = []
    for flat, coef in ((((ak * d + al) * d + bl) * d + bk, 2.0 * ck * c[None, :]),
                       (((ak * d + bl) * d + al) * d + bk, 2.0 * ck * c.conj()[None, :])):
        imag = coef.real == 0.0
        tables.append((2 * flat + imag, np.where(imag, -coef.imag, coef.real)))
    return tables


class _SdpKernel:
    """Batched barrier computations for the min-entropy SDP.

    Multiplicity-1 blocks (the classical-target case) are stacked into a
    single (count, d_b, d_b) array so feasibility checks, inverses and
    Hessian assembly run as batched LAPACK calls.  Blocks with a quantum
    target dimension keep a per-block loop.

    Newton systems are solved for the d_b^2 real coordinates of a
    Hermitian direction in the orthonormal basis E_ii, then
    (E_ij + E_ji)/sqrt2, then i(E_ij - E_ji)/sqrt2 for i < j, where the
    Hessian is a real symmetric matrix.
    """

    def __init__(self, blocks, d_b: int):
        self.d_b = d_b
        self.flat = np.stack([b for m, b in blocks if m == 1]) \
            if any(m == 1 for m, _ in blocks) else None
        self.big = [(m, b) for m, b in blocks if m > 1]
        self.lam_max = max(float(herm_eig(b)[0].max(initial=0.0)) for _, b in blocks)
        # total slack dimension: at the centre for mu the duality gap is mu * size
        self.size = sum(m for m, _ in blocks) * d_b
        self._iu, self._ju = np.triu_indices(d_b, 1)
        self._gather = _hessian_gather(d_b)

    def barrier(self, sigma: np.ndarray, mu: float):
        """(feasible, barrier value) at sigma."""
        total = float(sigma.trace().real)
        try:
            if self.flat is not None:
                chol = np.linalg.cholesky(sigma[None] - self.flat)
                diags = np.diagonal(chol, axis1=-2, axis2=-1).real
                total -= mu * 2.0 * float(np.log(diags).sum())
            for m, b in self.big:
                chol = np.linalg.cholesky(np.kron(np.eye(m), sigma) - b)
                total -= mu * 2.0 * float(np.log(np.diag(chol).real).sum())
        except np.linalg.LinAlgError:
            return False, np.inf
        return True, total

    def inverses(self, sigma: np.ndarray):
        """Inverse slacks, made exactly Hermitian: LAPACK's inverse of a
        Hermitian matrix is not, and the Hessian gather relies on it."""
        flat_inv = None
        if self.flat is not None:
            slack = sigma[None] - self.flat
            flat_inv = np.linalg.inv(0.5 * (slack + slack.conj().transpose(0, 2, 1)))
            flat_inv = 0.5 * (flat_inv + flat_inv.conj().transpose(0, 2, 1))
        big_inv = []
        for m, b in self.big:
            slack = np.kron(np.eye(m), sigma) - b
            inv = np.linalg.inv(0.5 * (slack + slack.conj().T))
            big_inv.append(0.5 * (inv + inv.conj().T))
        return flat_inv, big_inv

    def gradient(self, mu: float, flat_inv, big_inv) -> np.ndarray:
        g = np.eye(self.d_b, dtype=complex)
        if flat_inv is not None:
            g = g - mu * flat_inv.sum(axis=0)
        for (m, _), inv in zip(self.big, big_inv):
            g = g - mu * np.einsum("aiaj->ij", inv.reshape(m, self.d_b, m, self.d_b))
        return g

    def hessian(self, mu: float, flat_inv, big_inv) -> np.ndarray:
        """Barrier Hessian in the real basis.

        Entry (k, l) is mu * sum_x tr[B_k U_x B_l U_x] over the inverse
        slacks U_x.  The block sum is one product
        C[i, j, l, k] = sum_x U_x[i, j] U_x[l, k], and each entry is then
        a weighted real or imaginary part of two entries of C.
        """
        d = self.d_b
        c = np.zeros((d * d, d * d), dtype=complex)
        if flat_inv is not None:
            nb = flat_inv.shape[0]
            c += flat_inv.transpose(1, 2, 0).reshape(d * d, nb) @ flat_inv.reshape(nb, d * d)
        for (m, _), inv in zip(self.big, big_inv):
            u4 = inv.reshape(m, d, m, d)
            c += np.einsum("aibj,blak->ijlk", u4, u4).reshape(d * d, d * d)
        parts = c.reshape(-1).view(np.float64)
        (idx1, w1), (idx2, w2) = self._gather
        return mu * (w1 * parts[idx1] + w2 * parts[idx2])

    def newton_step(self, sigma: np.ndarray, mu: float):
        """Newton direction of the barrier at sigma, and the barrier's
        derivative along it (minus the squared Newton decrement)."""
        d, iu, ju = self.d_b, self._iu, self._ju
        flat_inv, big_inv = self.inverses(sigma)
        g = self.gradient(mu, flat_inv, big_inv)
        g_real = np.concatenate([g.diagonal().real, math.sqrt(2.0) * g[iu, ju].real,
                                 math.sqrt(2.0) * g[iu, ju].imag])
        x = np.linalg.solve(self.hessian(mu, flat_inv, big_inv), -g_real)
        off = (x[d:d + len(iu)] + 1j * x[d + len(iu):]) * math.sqrt(0.5)
        delta = np.diag(x[:d]).astype(complex)
        delta[iu, ju] = off
        delta[ju, iu] = off.conj()
        return delta, float(g_real @ x)

    def certificates(self, sigma: np.ndarray, mu: float):
        """Primal/dual bounds from the current interior point.

        The dual candidate mu * inverse(slack) is whitened so that its
        partial trace over the target is the identity, then scaled down
        so that residual rounding cannot push it above the identity:
        tr_A[W] <= 1 is all weak duality needs, so the bound is sound at
        any iterate.  The whole pipeline runs in extended precision;
        near the optimum the slack is nearly singular and a double
        precision inverse would put a 1e-7-bit floor under the gap.
        """
        d = self.d_b
        mults = ([1] * len(self.flat) if self.flat is not None else []) \
            + [m for m, _ in self.big]
        blocks = (list(self.flat) if self.flat is not None else []) \
            + [b for _, b in self.big]
        sig_ld = sigma.astype(np.clongdouble)
        inverses = []
        for m, b in zip(mults, blocks):
            slack = np.kron(np.eye(m), sig_ld) - b.astype(np.clongdouble)
            inverses.append(_inv_ld(0.5 * (slack + slack.conj().T)))
        t = np.zeros((d, d), dtype=np.clongdouble)
        for m, inv in zip(mults, inverses):
            t += mu * np.einsum("aiaj->ij", inv.reshape(m, d, m, d))
        t_m12 = _inv_sqrt_ld(t)
        witness = []
        for m, inv in zip(mults, inverses):
            c = np.kron(np.eye(m), t_m12)
            w = mu * (c @ inv @ c)
            witness.append(0.5 * (w + w.conj().T))
        t_check = sum(np.einsum("aiaj->ij", w.reshape(m, d, m, d))
                      for m, w in zip(mults, witness))
        top = float(np.linalg.eigvalsh(
            (0.5 * (t_check + t_check.conj().T)).astype(complex)).max())
        scale = max(1.0, top + 1e-14 * max(1.0, abs(top)))
        witness = [w / scale for w in witness]
        dual = float(sum((w @ b.astype(np.clongdouble)).trace().real
                         for w, b in zip(witness, blocks)))
        witness = [w.astype(complex) for w in witness]
        return float(sigma.trace().real), dual, witness


MU_FLOOR = 1e-19
# mu shrinks by this factor after each centring
MU_FACTOR = 0.1


def _certify(kernel: _SdpKernel, sigma: np.ndarray, mu: float, steps: int) -> EntropyResult:
    primal, dual, witness = kernel.certificates(sigma, mu)
    lower = -math.log2(primal)
    upper = -math.log2(dual) if dual > 0 else math.inf
    return EntropyResult(lower, lower, max(upper, lower), SDP, steps,
                         sigma=sigma.copy(), witness=tuple(witness))


def _solve_hmin(blocks, d_b: int, gap: float) -> EntropyResult:
    kernel = _SdpKernel(blocks, d_b)
    sigma = (1.0 + kernel.lam_max) * np.eye(d_b, dtype=complex)
    mu = 1.0
    steps = 0
    best: EntropyResult | None = None
    # the dual certificate degrades in proportion to the residual Newton
    # decrement, so certifying small gaps needs a tighter inner loop
    newton_tol = min(NEWTON_TOL, 0.01 * gap)
    try:
        for _ in range(MAX_OUTER):
            last = math.inf
            _, f0 = kernel.barrier(sigma, mu)
            for _ in range(MAX_INNER):
                delta, desc = kernel.newton_step(sigma, mu)
                decrement = math.sqrt(max(-desc, 0.0))
                # The barrier over mu is self-concordant: once decrement /
                # sqrt(mu) is at most 1/4, each full Newton step more than
                # halves the decrement.  When it stops halving, rounding has
                # put a floor under it and more steps are wasted.
                if desc >= 0 or decrement < newton_tol or decrement > 0.5 * last:
                    break
                last = decrement if decrement <= 0.25 * math.sqrt(mu) else math.inf
                t = 1.0
                while t > 1e-13:
                    ok, f1 = kernel.barrier(sigma + t * delta, mu)
                    if ok and f1 <= f0 + 0.25 * t * desc:
                        break
                    t *= 0.5
                if t <= 1e-13:
                    break  # rounding stalls the line search; sigma is as central as it gets
                sigma, f0 = sigma + t * delta, f1
                steps += 1
            # At the centre for mu the certified bracket is mu * size /
            # (tr(sigma) ln 2) bits wide; the extended-precision
            # certificate runs only once that estimate meets the request.
            estimate = mu * kernel.size / (float(sigma.trace().real) * math.log(2.0))
            if estimate <= gap:
                result = _certify(kernel, sigma, mu, steps)
                if best is None or result.gap < best.gap:
                    best = result
                if best.gap <= gap:
                    return best
            if mu * MU_FACTOR < MU_FLOOR:
                break
            mu *= MU_FACTOR
    except np.linalg.LinAlgError:
        pass  # slack numerically singular; certify the last feasible iterate
    if best is None or best.iterations < steps:
        result = _certify(kernel, sigma, mu, steps)
        if best is None or result.gap < best.gap:
            best = result
    if best.gap <= gap:
        return best
    raise SolverConvergenceError(best)


def h_min(rho: DensityOperator, target, condition=(), gap: float = DEFAULT_GAP) -> EntropyResult:
    """Conditional min-entropy via SDP with a certified bracket.

    The returned ``value`` equals the primal certificate (a lower bound
    on the true entropy); ``upper`` comes from the dual witness and
    ``upper - lower <= gap`` on successful solves.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    rho, n_t = _partition(rho, target, condition)
    blocks, d_b = _blocks(rho, n_t)
    if d_b == 1:
        lam = max(float(herm_eig(blk)[0].max()) for _, blk in blocks)
        value = -math.log2(lam)
        return EntropyResult(value, value, value, CLOSED_FORM,
                             sigma=np.array([[lam]], dtype=complex))
    return _solve_hmin(blocks, d_b, gap)


def h_min_blocks(blocks, gap: float = DEFAULT_GAP) -> EntropyResult:
    """Min-entropy of a classical target from raw conditional operators.

    ``blocks[x]`` is the sub-normalized operator on the conditioning
    space for target value x.  This is the entry point used by the
    verification oracles, which assemble states blockwise.
    """
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    d_b = blocks[0].shape[0]
    if d_b == 1:
        lam = max(float(b[0, 0].real) for b in blocks)
        value = -math.log2(lam)
        return EntropyResult(value, value, value, CLOSED_FORM,
                             sigma=np.array([[lam]], dtype=complex))
    return _solve_hmin([(1, b) for b in blocks], d_b, gap)


def p_guess(rho: DensityOperator, gap: float = DEFAULT_GAP) -> EntropyResult:
    """Optimal guessing probability of the first (classical) register.

    Returns 2^-Hmin with the certificates mapped to probability space:
    ``lower`` is achieved by the explicit dual POVM, ``upper`` by the
    primal operator bound.
    """
    if not rho.systems[0].classical:
        raise ValueError("first system must be classical")
    h = h_min(rho, [rho.systems[0].name],
              [s.name for s in rho.systems[1:]], gap=gap)
    return EntropyResult(2.0 ** -h.value, 2.0 ** -h.upper, 2.0 ** -h.lower,
                         h.kind, h.iterations, sigma=h.sigma, witness=h.witness)


# ---------------------------------------------------------------------------
# Channel entropy functional and smoothing penalty


def k2_functional(inst: Instrument, sigma_b: DensityOperator | np.ndarray) -> float:
    """Collision-entropy functional of an instrument against a reference state.

    Evaluates -log2 of the summed squared overlap of the adjoint images
    of the identity, sandwiched by the fourth root of the reference:
    the per-outcome terms are tr[(s^1/4 N_y*[1] s^1/4)^2].
    """
    mat = sigma_b.matrix if isinstance(sigma_b, DensityOperator) else np.asarray(sigma_b)
    if mat.shape != (inst.input_dim, inst.input_dim):
        raise ValueError(
            f"reference state dimension {mat.shape[0]} does not match "
            f"instrument input {inst.input_dim}")
    quarter = frac_power(mat, 0.25)
    eye_t = np.eye(inst.output_dim)
    total = 0.0
    for y in range(inst.num_outcomes):
        g = quarter @ adjoint_apply(inst, y, eye_t) @ quarter
        total += float(np.vdot(g, g).real)
    return -math.log2(total)


def smoothing_penalty(eps: float, trace: float = 1.0) -> float:
    """Entropy loss log2(2/eps^2 + 1/(trace - eps)) for moving smoothing
    from states onto channels."""
    if not 0.0 < trace <= 1.0:
        raise ValueError(f"trace must lie in (0, 1], got {trace}")
    if eps <= 0.0:
        raise ValueError(f"smoothing parameter must be positive, got {eps}")
    if trace - eps <= 1e-12:
        raise ValueError(f"penalty diverges as eps approaches the trace "
                         f"({eps} vs {trace})")
    return math.log2(2.0 / eps ** 2 + 1.0 / (trace - eps))
