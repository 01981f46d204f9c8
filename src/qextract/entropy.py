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

  with its dual, the guessing POVM,

      maximize   sum_x tr[Z_x rho_x]
      subject to sum_x tr_A Z_x = identity,  Z_x >= 0,

  solved by a feasible primal-dual interior-point method on
  (sigma; Z_x) with Nesterov-Todd scaling and Mehrotra's
  predictor-corrector.  Each iteration scales every block from Cholesky
  factors of its slack and of Z_x and one batched SVD, builds one Schur
  matrix over the d^2 real coordinates of a Hermitian direction, and
  solves it twice: predictor, then corrector.  The duality gap is known
  at every iteration, so the extended-precision certificate is computed
  once, when the iterate's own gap is at most half the requested one;
  a solve takes about 10 iterations.  The certificate is two-sided: tr(sigma)
  at a sigma whose every slack passes Cholesky bounds 2^-Hmin from
  above, and the dual iterate Z, whitened so that its partial traces
  sum to the identity (for classical A: an explicit POVM), bounds it
  from below via its guessing probability.  A solve that stops early
  (iteration cap, a slack or Z_x that fails Cholesky) certifies its last
  iterate that passed and reports that bracket.  The reported value is
  the primal bound, so the value itself is always a certified lower
  bound on the entropy.

  The iterations run on the support of the conditioning marginal
  M = sum_x tr_A rho_x, the only space the blocks of a PSD state
  occupy: with V the eigenvectors of M above the support rule of
  ``quantum.support_projector``, on V^H rho_x V (on
  (1 (x) V)^H rho_x (1 (x) V) for a quantum target), so every
  factorization is r-sized for r = rank M.  Certificates still run on
  the original blocks, at the reduced iterate lifted to the full space:
  sigma gets a small multiple of the identity on the dropped
  directions, paid for from a quarter of the gap, and each Z_x an equal
  share of them, so the partial traces still sum to the identity.  A
  lifted slack that failed Cholesky would send the solve back to the
  full space.

All entropies are in bits.  When the target registers are classical the
constraint splits into one block per classical value and the solver
works blockwise, which is what keeps n-bit targets cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    SUPPORT_RTOL,
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
# cap on predictor-corrector iterations per solve
MAX_OUTER = 60
# largest fraction of the step to the boundary of the cone
STEP_FRACTION = 0.95

CLOSED_FORM = "closed-form"
SDP = "sdp-primal-dual"


class SupportError(ValueError):
    """The state has weight outside the support of the conditioner."""


class SolverConvergenceError(RuntimeError):
    """Solve stopped before reaching the requested gap."""

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


@functools.lru_cache(maxsize=None)
def _hessian_gather(d: int):
    """Index and weight tables that gather the Schur complement in the
    real basis of ``_SdpKernel`` from the block product C of
    ``_SdpKernel.schur``.  Cached per d and read-only.

    Basis element k is c_k at (a_k, b_k) plus conj(c_k) at (b_k, a_k),
    with c_k = 1/2 for E_ii (both halves land on the diagonal), 1/sqrt2
    for the real and i/sqrt2 for the imaginary off-diagonal elements.
    The Schur complement acts on a direction as D -> sum_x U_x D U_x,
    whose entry ((p, q), (r, s)) as a matrix on row-major vec(D) is
    C[p, r, s, q].  With the U_x exactly Hermitian it maps Hermitian
    matrices to Hermitian matrices, so entry (k, l) in the real basis
    comes to
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
        idx, weight = 2 * flat + imag, np.where(imag, -coef.imag, coef.real)
        idx.setflags(write=False)
        weight.setflags(write=False)
        tables.append((idx, weight))
    return tuple(tables)


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of each matrix in a stack, exactly Hermitian."""
    return 0.5 * (a + _ct(a))


def _lift(m: int, x: np.ndarray) -> np.ndarray:
    """identity_m (x) x."""
    return x if m == 1 else np.kron(np.eye(m), x)


def _ptrace(m: int, d: int, stack: np.ndarray) -> np.ndarray:
    """Sum over a stack of (m d) x (m d) matrices of their partial traces
    over the m-dimensional target factor."""
    return np.einsum("kaiaj->ij", stack.reshape(-1, m, d, m, d))


def _diag(lam: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices from a stack of diagonals."""
    return lam[..., None] * np.eye(lam.shape[-1])


class _SdpKernel:
    """Batched primal-dual computations for the min-entropy SDP.

    The primal variable is sigma with slacks S_x = 1_m (x) sigma - rho_x;
    the dual variables are the Z_x >= 0 with sum_x tr_A Z_x = 1.  Blocks
    are kept in groups of one multiplicity m: every multiplicity-1 block
    (the classical-target case) in one stacked (count, d_b, d_b) array,
    so Cholesky factors, SVDs, eigenvalues and the Schur complement run
    as batched LAPACK calls, and each block with a quantum target
    (m > 1) as a group of its own.

    Schur systems are solved for the d_b^2 real coordinates of a
    Hermitian direction in the orthonormal basis E_ii, then
    (E_ij + E_ji)/sqrt2, then i(E_ij - E_ji)/sqrt2 for i < j, where the
    Schur complement is a real symmetric matrix.
    """

    def __init__(self, blocks, d_b: int):
        self.d_b = d_b
        flat = [b for m, b in blocks if m == 1]
        self.groups = ([(1, np.stack(flat))] if flat else []) \
            + [(m, b[None]) for m, b in blocks if m > 1]
        self.count = sum(m for m, _ in blocks)
        # total slack dimension: the duality gap is mu * size
        self.size = self.count * d_b
        self._iu, self._ju = np.triu_indices(d_b, 1)
        self._gather = _hessian_gather(d_b)

    def start(self):
        """Strictly feasible primal and dual points: sigma = (1 + lambda_max) 1
        and Z_x = 1 / sum_x m_x, whose partial traces sum to 1."""
        lam_max = max(float(np.linalg.eigvalsh(_herm(rho))[:, -1].max())
                      for _, rho in self.groups)
        sigma = (1.0 + max(lam_max, 0.0)) * np.eye(self.d_b, dtype=complex)
        z = [np.broadcast_to(np.eye(rho.shape[-1], dtype=complex) / self.count,
                             rho.shape).copy() for _, rho in self.groups]
        return sigma, z

    def slacks(self, sigma: np.ndarray):
        return [_lift(m, sigma)[None] - rho for m, rho in self.groups]

    def dual_value(self, z) -> float:
        return float(sum(np.vdot(zg, rho).real for zg, (_, rho) in zip(z, self.groups)))

    def scaling(self, sigma: np.ndarray, z):
        """Nesterov-Todd scaling of every block at (sigma; Z).

        With S = L L^H and Z = R R^H (Cholesky) and R^H L = U Lam V^H
        (SVD), G^-1 = Lam^-1/2 U^H R^H takes both S and Z to the same
        diagonal Lam: G^-1 S G^-H = G^H Z G = Lam.  The scaling point
        W^-1 = G^-H G^-1 satisfies W^-1 S W^-1 = Z, and is made exactly
        Hermitian for the Schur gather.  Raises LinAlgError unless every
        slack and every Z_x passes Cholesky.  Returns (G^-1, lam, W^-1)
        per group.
        """
        out = []
        for s, zg in zip(self.slacks(sigma), z):
            low = np.linalg.cholesky(s)
            r = np.linalg.cholesky(zg)
            u, lam, _ = np.linalg.svd(_ct(r) @ low)
            gi = _ct(r @ u) / np.sqrt(lam)[..., None]
            out.append((gi, lam, _herm(_ct(gi) @ gi)))
        return out

    def schur(self, scal) -> np.ndarray:
        """Schur complement D -> sum_x tr_A[W_x^-1 (1 (x) D) W_x^-1] in the
        real basis.

        Entry (k, l) is sum_x tr[(1 (x) B_k) W_x^-1 (1 (x) B_l) W_x^-1].
        The block sum is one product
        C[i, j, l, k] = sum_x sum_ab U_x[a i, b j] U_x[b l, a k] over the
        U_x = W_x^-1, and each entry is then a weighted real or imaginary
        part of two entries of C.
        """
        d = self.d_b
        c = np.zeros((d * d, d * d), dtype=complex)
        for (m, _), (_, _, winv) in zip(self.groups, scal):
            u5 = winv.reshape(-1, m, d, m, d)
            left = u5.transpose(0, 1, 3, 2, 4).reshape(-1, d * d)
            right = u5.transpose(0, 3, 1, 2, 4).reshape(-1, d * d)
            c += left.T @ right
        parts = c.reshape(-1).view(np.float64)
        (idx1, w1), (idx2, w2) = self._gather
        return w1 * parts[idx1] + w2 * parts[idx2]

    def solve(self, schur: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Hermitian D with schur(D) = rhs, solved in the real basis."""
        d, iu, ju = self.d_b, self._iu, self._ju
        b = np.concatenate([rhs.diagonal().real, math.sqrt(2.0) * rhs[iu, ju].real,
                            math.sqrt(2.0) * rhs[iu, ju].imag])
        x = np.linalg.solve(schur, b)
        off = (x[d:d + len(iu)] + 1j * x[d + len(iu):]) * math.sqrt(0.5)
        delta = np.diag(x[:d]).astype(complex)
        delta[iu, ju] = off
        delta[ju, iu] = off.conj()
        return delta

    def direction(self, scal, schur: np.ndarray, shift=None):
        """Search direction for the scaled complementarity equation
        Lam o (dS~ + dZ~) = Lam o (shift - Lam), with X o Y = (XY + YX)/2.

        dS~ = G^-1 (1 (x) dsigma) G^-H and dZ~ = shift - Lam - dS~, and the
        dual step dZ = G^H dZ~ G restores sum_x tr_A (Z_x + dZ_x) = 1.
        Since G^H Lam G = Z, dsigma solves the Schur system with right
        side -1 + sum_x tr_A[G^H shift_x G]: just -1 for the predictor,
        whose shift is zero.  Returns dsigma and (dS~, dZ~) per group.
        """
        d = self.d_b
        rhs = -np.eye(d, dtype=complex)
        if shift is not None:
            for (m, _), (gi, _, _), sh in zip(self.groups, scal, shift):
                rhs += _ptrace(m, d, _ct(gi) @ sh @ gi)
        dsigma = self.solve(schur, _herm(rhs))
        dirs = []
        for k, ((m, _), (gi, lam, _)) in enumerate(zip(self.groups, scal)):
            ds = _herm(gi @ _lift(m, dsigma) @ _ct(gi))
            dz = -ds - _diag(lam)
            if shift is not None:
                dz += shift[k]
            dirs.append((ds, dz))
        return dsigma, dirs

    @staticmethod
    def max_steps(scal, dirs):
        """Largest primal and dual steps t with Lam + t dS~ >= 0 and
        Lam + t dZ~ >= 0, from one eigvalsh of every block scaled by
        Lam^-1/2 on both sides."""
        steps = [math.inf, math.inf]
        for (_, lam, _), (ds, dz) in zip(scal, dirs):
            r = 1.0 / np.sqrt(lam)
            w = r[..., :, None] * r[..., None, :]
            low = np.linalg.eigvalsh(np.concatenate([ds * w, dz * w]))[:, 0]
            for i, part in enumerate((low[:len(lam)], low[len(lam):])):
                worst = float(part.min())
                if worst < 0.0:
                    steps[i] = min(steps[i], -1.0 / worst)
        return steps

    def iterate(self, sigma: np.ndarray, z, scal):
        """One Mehrotra predictor-corrector step from (sigma; Z) with its
        scaling.  Both Schur solves share one Schur matrix."""
        schur = self.schur(scal)
        _, dirs = self.direction(scal, schur)
        tp, td = (min(1.0, STEP_FRACTION * t) for t in self.max_steps(scal, dirs))
        mu = sum(float((lam ** 2).sum()) for _, lam, _ in scal) / self.size
        mu_aff = sum(float(np.vdot(_diag(lam) + tp * ds, _diag(lam) + td * dz).real)
                     for (_, lam, _), (ds, dz) in zip(scal, dirs)) / self.size
        target = min(1.0, max(mu_aff, 0.0) / mu) ** 3 * mu
        shift = []
        for (_, lam, _), (ds, dz) in zip(scal, dirs):
            cross = ds @ dz
            shift.append(_diag(target / lam)
                         - (cross + _ct(cross)) / (lam[..., :, None] + lam[..., None, :]))
        dsigma, dirs = self.direction(scal, schur, shift)
        tp, td = (min(1.0, STEP_FRACTION * t) for t in self.max_steps(scal, dirs))
        z = [_herm(zg + td * (_ct(gi) @ dz @ gi))
             for zg, (gi, _, _), (_, dz) in zip(z, scal, dirs)]
        return sigma + tp * dsigma, z

    def certificates(self, sigma: np.ndarray, z):
        """Primal and dual bounds at (sigma; Z).

        The primal bound tr(sigma) stands once every slack passes
        Cholesky (else LinAlgError).  The dual witness is Z itself,
        whitened in extended precision so that its partial traces sum to
        the identity, then scaled down so that residual rounding cannot
        push that sum above the identity: tr_A[W] <= 1 is all weak
        duality needs.  Each witness block must pass Cholesky; if one
        does not there is no dual bound, reported as zero.
        """
        d = self.d_b
        for s in self.slacks(sigma):
            np.linalg.cholesky(s)
        mults = [m for m, _ in self.groups]
        zs = [zg.astype(np.clongdouble) for zg in z]
        t_m12 = _inv_sqrt_ld(sum(_ptrace(m, d, zl) for m, zl in zip(mults, zs)))
        witness = [_herm(_lift(m, t_m12) @ zl @ _lift(m, t_m12)) for m, zl in zip(mults, zs)]
        t_check = sum(_ptrace(m, d, w) for m, w in zip(mults, witness))
        top = float(np.linalg.eigvalsh(_herm(t_check).astype(complex)).max())
        scale = max(1.0, top + 1e-14 * max(1.0, abs(top)))
        witness = [w / scale for w in witness]
        dual = float(sum((w.conj() * rho.astype(np.clongdouble)).sum().real
                         for w, (_, rho) in zip(witness, self.groups)))
        witness = [w.astype(complex) for w in witness]
        try:
            for w in witness:
                np.linalg.cholesky(w)
        except np.linalg.LinAlgError:
            return float(sigma.trace().real), 0.0, None
        return float(sigma.trace().real), dual, [blk for w in witness for blk in w]


def _certify(kernel: _SdpKernel, sigma: np.ndarray, z, steps: int) -> EntropyResult:
    primal, dual, witness = kernel.certificates(sigma, z)
    lower = -math.log2(primal)
    upper = -math.log2(dual) if dual > 0 else math.inf
    return EntropyResult(lower, lower, max(upper, lower), SDP, steps, sigma=sigma.copy(),
                         witness=tuple(witness) if witness is not None else None)


def _support(kernel: _SdpKernel, gap: float):
    """The problem restricted to the support of the conditioning marginal,
    and the map that lifts its iterates back to the full space.

    The marginal is M = sum_x tr_A rho_x.  A PSD rho_x has no weight on
    a kernel vector of M, so the SDP only sees V^H rho_x V (with 1_m (x) V
    for m > 1), where V holds the eigenvectors of M above the support
    rule of ``quantum.support_projector``.  Dropping k eigenvectors U
    leaves each block a weight w off V of at most their eigenvalues plus
    the backward error of the eigensolver, d eps lambda_max(M) each.  A
    reduced iterate lifts to sigma = V sigma_r V^H + delta U U^H and
    Z_x = V Z'_x V^H + U U^H / sum_x m_x, whose partial traces still sum
    to the identity.  delta spends a trace budget worth a quarter of the
    gap in bits, measured against tr(sigma) >= max_x tr(rho_x) / m_x,
    and an eigenvector is dropped only while delta stays at least 2 w.
    Returns (kernel, None) when nothing is dropped.
    """
    d = kernel.d_b
    marginal = sum(_ptrace(m, d, rho) for m, rho in kernel.groups)
    vals, vecs = herm_eig(marginal)
    top = max(float(vals[-1]), 0.0)
    weight = np.cumsum(np.maximum(vals, 0.0) + d * np.finfo(float).eps * top)
    floor = max(float(np.einsum("kii->k", rho).real.max()) / m for m, rho in kernel.groups)
    budget = floor * math.expm1(0.25 * gap * math.log(2.0))
    k = np.arange(1, d + 1)
    drop = int(np.count_nonzero((vals <= SUPPORT_RTOL * top) & (2.0 * k * weight <= budget)))
    if drop in (0, d):
        return kernel, None
    u, v = vecs[:, :drop], vecs[:, drop:]
    comp = _herm(u @ _ct(u))
    delta, share = budget / drop, 1.0 / kernel.count
    isos = [_lift(m, v) for m, _ in kernel.groups]
    reduced = _SdpKernel([(m, b) for (m, rho), iso in zip(kernel.groups, isos)
                          for b in _herm(_ct(iso) @ rho @ iso)], d - drop)

    def lift(sigma, z):
        return (_herm(v @ sigma @ _ct(v)) + delta * comp,
                [_herm(iso @ zg @ _ct(iso)) + share * _lift(m, comp)
                 for (m, _), iso, zg in zip(kernel.groups, isos, z)])
    return reduced, lift


def _primal_dual(kernel: _SdpKernel, gap: float, certify) -> EntropyResult:
    """Predictor-corrector iterations on ``kernel`` until ``certify``
    (iterate, steps) -> EntropyResult brackets the entropy within gap."""
    sigma, z = kernel.start()
    # the last iterate whose slacks and Z_x all passed Cholesky; the
    # start is strictly feasible by construction
    last = (sigma, z, 0)
    best: EntropyResult | None = None
    for it in range(MAX_OUTER + 1):
        try:
            if it:
                sigma, z = kernel.iterate(sigma, z, scal)
            scal = kernel.scaling(sigma, z)
        except np.linalg.LinAlgError:
            break  # a slack or Z_x failed Cholesky; certify the last iterate that passed
        last = (sigma, z, it)
        # the duality gap is real at every iterate, so the
        # extended-precision certificate runs once it meets the request
        dual = kernel.dual_value(z)
        if dual > 0 and math.log2(float(sigma.trace().real) / dual) <= 0.5 * gap:
            result = certify(sigma, z, it)
            if best is None or result.gap < best.gap:
                best = result
            if best.gap <= gap:
                return best
    if best is None or best.iterations < last[2]:
        result = certify(*last)
        if best is None or result.gap < best.gap:
            best = result
    if best.gap <= gap:
        return best
    raise SolverConvergenceError(best)


def _solve_hmin(blocks, d_b: int, gap: float) -> EntropyResult:
    """Solve on the support of the conditioning marginal and certify the
    lifted iterate on the original blocks; solve in the full space only
    if nothing is dropped or a lifted slack fails Cholesky."""
    full = _SdpKernel(blocks, d_b)
    reduced, lift = _support(full, gap)
    if lift is not None:
        try:
            return _primal_dual(reduced, gap,
                                lambda sigma, z, it: _certify(full, *lift(sigma, z), it))
        except np.linalg.LinAlgError:
            pass  # a lifted slack failed Cholesky
    return _primal_dual(full, gap, functools.partial(_certify, full))


def _check_gap(gap: float) -> None:
    if not gap > 0:  # NaN too
        raise ValueError(f"gap must be positive, got {gap!r}")


def h_min(rho: DensityOperator, target, condition=(), gap: float = DEFAULT_GAP) -> EntropyResult:
    """Conditional min-entropy via SDP with a certified bracket.

    The returned ``value`` equals the primal certificate (a lower bound
    on the true entropy); ``upper`` comes from the dual witness and
    ``upper - lower <= gap`` on successful solves.
    """
    _check_gap(gap)
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
    _check_gap(gap)
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
