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
  factors of its slack and of Z_x and one batched Hermitian
  eigendecomposition, builds one Schur matrix over the d^2 real
  coordinates of a Hermitian direction, and solves it twice: predictor,
  then corrector.  The iterations run on the blocks scaled by a power of
  two, 2^-e rho with its largest entry in [1/2, 1), and start from
  sigma = (5/4) lambda_max 1 at that scale, so a sub-normalized state
  takes as many iterations as its normalized form.  The duality gap is
  known at every iteration, so the certificate is computed once, when
  the iterate's own gap is at most half the requested one; a solve that
  iterates takes about 8 iterations at gap 1e-6, and a set of pure
  blocks none (below).  The certificate runs at the same scale, and the
  bracket is shifted back by e bits.  It is two-sided: tr(sigma) at a
  sigma whose every slack passes Cholesky bounds 2^-Hmin from above,
  and the dual iterate Z, whitened in float64 so that its partial
  traces sum to the identity (for classical A: an explicit POVM),
  bounds it from below via its guessing probability.  A solve that stops early (iteration cap, a slack or Z_x
  that fails Cholesky, a scaling eigenvalue that is not positive)
  certifies its last iterate that passed and reports that bracket.  The
  reported value is the primal bound, so the value itself is always a
  certified lower bound on the entropy.

  The iterations run on the support of the conditioning marginal
  M = sum_x tr_A rho_x, the only space the blocks of a PSD state
  occupy: with V the eigenvectors of M above the support rule of
  ``quantum.support_projector``, on (1_m (x) V)^H rho_x (1_m (x) V),
  so every factorization is r-sized for r = rank M.  Certificates
  still run on the original blocks, at the reduced iterate lifted to
  the full space: sigma gets a small multiple of the identity on the
  dropped directions, paid for from a quarter of the gap, and each Z_x
  an equal share of them, so the partial traces still sum to the
  identity.

  A classical target is first offered one candidate from the
  eigenbasis V of the same marginal: sigma = V diag(p) V^H + t 1 with
  p_k = max_x <v_k|rho_x|v_k> and t bounding the off-diagonal part of
  every V^H rho_x V, and the argmax measurement, mixed with a little
  of the identity, as Z.  For commuting blocks (the min-entropy is
  then classical) t is only rounding, and the unchanged certificate
  meets the gap with no iteration.  A candidate whose t costs more than
  half the gap, or whose certificate misses it, leaves the solve to the
  iterations.  Two blocks get the exact Helstrom candidate instead,
  from one eigendecomposition of their difference, with the same
  rounding term and mix.

  Before iterating, a classical target drops its dominated blocks:
  rho_x <= rho_x' makes the constraint of x redundant, since guessing
  x' instead of x never lowers the guessing probability.  Pairs whose
  diagonals compare go to one batched eigvalsh of their differences,
  and a block under an earlier block in order of falling trace is
  dropped.  The kept blocks get their own candidate and support
  reduction from one eigendecomposition of their marginal, and the
  iterations run on them.  Certificates still run on every block:
  sigma is unchanged, and each dropped Z_x is (s / count) 1 with
  s = min(gap / 8, 1), which whitening turns into a dual bound lower
  by at most log2(1 + s) bits.

  The blocks the iterations would run on, reduced or not, are first
  offered a candidate for pure blocks rho_x = v_x v_x^H, where
  sigma >= rho_x is v_x^H sigma^-1 v_x <= 1: a weighted square-root
  measurement, sigma = Q^1/2 with Q = sum_x q_x v_x v_x^H, whose weights
  maximize the concave f(q) = 2 tr Q^1/2 - sum_x q_x.  Primal-dual
  Newton steps on the count weights, each from one eigendecomposition
  of Q, stop when the bracket that every q gives, sigma = kappa Q^1/2
  with kappa = max_x v_x^H Q^-1/2 v_x above and
  Z_x = q_x Q^-1/2 v_x v_x^H Q^-1/2 below, is within a quarter of the
  gap.  sigma gets t 1, t the largest second eigenvalue of any block
  plus rounding, and a set whose t costs more than half the gap is
  rejected before any step.  The candidate is certified, and lifted,
  like an iterate: one that misses the gap leaves the solve to the
  iterations.

  A solve is one pass over four stages, and the first certificate
  that meets the gap ends it: (1) a classical target's candidate of
  every block; (2) its domination, then the kept blocks' candidate;
  (3) support reduction, then a classical target's pure-block
  candidate; (4) the iterations.  Each reduction composes its lift
  into the certificate of every later stage.  One rule covers every
  failure: a certificate that fails Cholesky, a candidate's or a lifted
  iterate's, sends the solve to the iterations on every block in the
  full space, so a wrong candidate or reduction costs time but never
  soundness.

  Every bracket records how it was found (``EntropyResult``): the
  stage whose certificate made it, the predictor-corrector iterations
  and the pure-block candidate's weight steps it took, the block count
  and the dimension the certifying stage kept after domination and
  support reduction, and whether a failed certificate sent the solve
  to the full space.

All entropies are in bits.  Every quantity works on one stack of
blocks of one multiplicity m: when the target registers are classical
the constraint splits into one d_b x d_b block per classical value
(m = 1), which is what keeps n-bit targets cheap; otherwise the whole
operator is one block of multiplicity m = dim(target).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    SUPPORT_RTOL,
    DensityOperator,
    Instrument,
    ct,
    diagonal_blocks,
    frac_power,
    herm,
    herm_eig,
    permute_systems,
    support_projector,
)

DEFAULT_GAP = 1e-8
# cap on predictor-corrector iterations per solve
MAX_OUTER = 60
# largest fraction of the step to the boundary of the cone
STEP_FRACTION = 0.95
# the start sigma = (1 + START_MARGIN) lambda_max 1 clears every block by
# START_MARGIN lambda_max; 1/4 took fewer iterations per solve than 1
START_MARGIN = 0.25
# largest entry of a state's weight off the support of its conditioning
# marginal that the closed forms accept
SUPPORT_TOL = 1e-9

class SupportError(ValueError):
    """The state has weight outside the support of the conditioner."""


class SolverConvergenceError(RuntimeError):
    """Solve stopped before reaching the requested gap."""

    def __init__(self, best: "EntropyResult"):
        self.best = best
        super().__init__(
            f"solver reached gap {best.gap:.3e}, requested less; "
            f"best bracket [{best.lower:.9f}, {best.upper:.9f}] at stage {best.stage}, "
            f"after {best.iterations} iterations and {best.weight_steps} weight steps")


@dataclass(frozen=True)
class EntropyResult:
    """A certified bracket lower <= value <= upper.

    Every entropy is in bits, and its ``value`` is ``lower``: for the
    min-entropy the primal bound, which is proven.  ``p_guess`` returns a
    probability, 2^-H of the min-entropy bracket, so its ``value`` is
    its ``upper``.

    ``stage`` names the step whose certificate made the bracket:
    ``closed-form``, the ``commuting`` or ``helstrom`` candidate of a
    classical target, before or after domination, its ``pure``-block
    candidate, or the predictor-corrector ``iterations``.  The rest of
    the record is 0 (False) for a closed form: ``iterations`` counts
    predictor-corrector iterations only, ``weight_steps`` the Newton
    steps of the pure-block candidate, ``kept_blocks`` and ``kept_dim``
    are the block count and the conditioning dimension that the
    certifying stage ran on, after ``_dominance`` and ``_support``, and
    ``fallback`` says that a certificate failed Cholesky and sent the
    solve to the iterations on every block in the full space.
    """

    value: float
    lower: float
    upper: float
    stage: str
    iterations: int = 0
    weight_steps: int = 0
    kept_blocks: int = 0
    kept_dim: int = 0
    fallback: bool = False
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
    unknown = sorted((set(target) | set(condition)) - names)
    missing = sorted(names - set(target) - set(condition))
    if unknown or missing:
        raise ValueError(f"partition must name every system of the state and no other; "
                         f"unknown {unknown}, missing {missing}")
    return permute_systems(rho, target + condition), len(target)


def _blocks(rho: DensityOperator, n_target: int):
    """Split into one multiplicity and one stack of blocks.

    Returns (m, stack, d_b).  When every target system is classical the
    state is block-diagonal over the joint target index, and the stack
    holds one d_b x d_b block per value with m = 1; otherwise it holds
    the whole operator, of multiplicity m = dim(target).
    """
    d_b = int(np.prod([s.dim for s in rho.systems[n_target:]], dtype=np.int64))
    d_a = rho.dim // d_b
    if all(s.classical for s in rho.systems[:n_target]):
        return 1, diagonal_blocks(rho.matrix, d_a), d_b
    return d_a, np.array(rho.matrix)[None], d_b


def _check_support(stack: np.ndarray, proj: np.ndarray) -> None:
    residual = float(np.abs(stack - proj @ stack @ proj).max(initial=0.0))
    if residual > SUPPORT_TOL:
        raise SupportError(
            f"state has weight {residual:.3e} outside the "
            "support of the conditioning marginal")


def _conditioned(rho: DensityOperator, target, condition, power: float) -> np.ndarray:
    """The blocks of rho sandwiched by 1_m (x) rho_B^power, once they are
    checked to lie on the support of rho_B.  A trivial B is the 1x1
    rho_B = tr(rho)."""
    rho, n_t = _partition(rho, target, condition)
    m, stack, d_b = _blocks(rho, n_t)
    rho_b = _ptrace(m, d_b, stack)
    _check_support(stack, _lift(m, support_projector(rho_b)))
    s = _lift(m, frac_power(rho_b, power))
    return s @ stack @ s


def h_inf_down(rho: DensityOperator, target, condition=()) -> EntropyResult:
    """Non-optimized conditional entropy of order infinity, closed form."""
    g = _conditioned(rho, target, condition, -0.5)
    value = -math.log2(float(np.linalg.eigvalsh(herm(g))[:, -1].max()))
    return EntropyResult(value, value, value, "closed-form")


def h2_down(rho: DensityOperator, target, condition=()) -> EntropyResult:
    """Collision-type conditional entropy of order 2, closed form."""
    g = _conditioned(rho, target, condition, -0.25)
    value = -math.log2(float(np.vdot(g, g).real))
    return EntropyResult(value, value, value, "closed-form")


# ---------------------------------------------------------------------------
# Min-entropy SDP


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


@functools.lru_cache(maxsize=None)
def _real_coords(d: int):
    """Gather tables between a Hermitian d x d matrix and its d^2
    coordinates in the real basis of ``_SdpKernel``, cached per d and
    read-only.  The matrix is viewed as float64: row-major, with
    interleaved (real, imag) pairs.  Coordinate k is one float of the
    matrix times a weight: 1 for E_ii, sqrt2 for the real and the
    imaginary part above the diagonal.  Back, each float of
    sum_k x_k B_k is one coordinate times a weight: 1 on the diagonal,
    1/sqrt2 for the real parts off it and the imaginary parts above it,
    -1/sqrt2 below it, and 0 for the imaginary parts on it.  Returns
    ((idx, weight) to the coordinates, (idx, weight) back).
    """
    iu, ju = np.triu_indices(d, 1)
    diag, re = np.arange(d), d + np.arange(len(iu))
    upper = 2 * (iu * d + ju)
    to_idx = np.concatenate([2 * diag * (d + 1), upper, upper + 1])
    to_weight = np.concatenate([np.ones(d), np.full(2 * len(iu), math.sqrt(2.0))])
    idx = np.zeros((d, d, 2), dtype=np.intp)
    weight = np.zeros((d, d, 2))
    idx[diag, diag, 0], weight[diag, diag, 0] = diag, 1.0
    idx[iu, ju, 0] = idx[ju, iu, 0] = re
    idx[iu, ju, 1] = idx[ju, iu, 1] = re + len(iu)
    weight[iu, ju] = weight[ju, iu, 0] = math.sqrt(0.5)
    weight[ju, iu, 1] = -math.sqrt(0.5)
    for arr in (to_idx, to_weight, idx, weight):
        arr.setflags(write=False)
    return (to_idx, to_weight), (idx.reshape(-1), weight.reshape(-1))


def _ldexp(x: np.ndarray, e: int) -> np.ndarray:
    """2^e x for a complex array, exact while every entry stays in the
    normal range."""
    return np.ldexp(np.ascontiguousarray(x, dtype=complex).view(np.float64), e).view(complex)


def _lift(m: int, x: np.ndarray) -> np.ndarray:
    """identity_m (x) x."""
    return x if m == 1 else np.kron(np.eye(m), x)


def _ptrace(m: int, d: int, stack: np.ndarray) -> np.ndarray:
    """Sum over a stack of (m d) x (m d) matrices of their partial traces
    over the m-dimensional target factor."""
    return np.einsum("kaiaj->ij", stack.reshape(-1, m, d, m, d))


class _SdpKernel:
    """Batched primal-dual computations for the min-entropy SDP.

    The primal variable is sigma with slacks S_x = 1_m (x) sigma - rho_x;
    the dual variables are the Z_x >= 0 with sum_x tr_A Z_x = 1.  The
    blocks rho_x share one multiplicity m and are held in one stacked
    (count, m d_b, m d_b) array, as are the slacks, the Z_x and every
    scaling and direction, so Cholesky factors, eigendecompositions and
    the Schur complement run as batched LAPACK calls.

    Schur systems are solved for the d_b^2 real coordinates of a
    Hermitian direction in the orthonormal basis E_ii, then
    (E_ij + E_ji)/sqrt2, then i(E_ij - E_ji)/sqrt2 for i < j, where the
    Schur complement is a real symmetric matrix.
    """

    def __init__(self, m: int, rho: np.ndarray, d_b: int):
        self.m, self.rho, self.d_b = m, rho, d_b
        self.count = m * len(rho)
        # total slack dimension: the duality gap is mu * size
        self.size = self.count * d_b
        self._coords = _real_coords(d_b)
        self._gather = _hessian_gather(d_b)
        self.eye_b = np.eye(d_b, dtype=complex)
        self.eye = np.eye(m * d_b)

    def diag(self, lam: np.ndarray) -> np.ndarray:
        """Stack of diagonal (m d_b) x (m d_b) matrices from a stack of
        diagonals."""
        return lam[..., None] * self.eye

    def start(self):
        """Strictly feasible primal and dual points at the blocks' own
        scale: sigma = (1 + START_MARGIN) lambda_max 1, with lambda_max the
        largest eigenvalue of any block (sigma = 1 when none is positive),
        and Z_x = 1 / (m times the block count), whose partial traces sum
        to 1."""
        lam_max = float(np.linalg.eigvalsh(herm(self.rho))[:, -1].max())
        sigma = ((1.0 + START_MARGIN) * lam_max if lam_max > 0.0 else 1.0) * self.eye_b
        z = np.broadcast_to((self.eye / self.count).astype(complex), self.rho.shape).copy()
        return sigma, z

    def slacks(self, sigma: np.ndarray) -> np.ndarray:
        return _lift(self.m, sigma)[None] - self.rho

    def dual_value(self, z: np.ndarray) -> float:
        return float(np.vdot(z, self.rho).real)

    def scaling(self, sigma: np.ndarray, z: np.ndarray):
        """Nesterov-Todd scaling of every block at (sigma; Z).

        With S = L L^H and Z = R R^H (Cholesky) and P = R^H L, one
        Hermitian eigendecomposition P P^H = U Lam^2 U^H gives the left
        singular vectors U and the singular values Lam of P, and
        G^-1 = Lam^-1/2 U^H R^H takes both S and Z to the same diagonal
        Lam: G^-1 S G^-H = G^H Z G = Lam.  The scaling point
        W^-1 = G^-H G^-1 satisfies W^-1 S W^-1 = Z, and is made exactly
        Hermitian for the Schur gather.  Raises LinAlgError unless every
        slack and every Z_x passes Cholesky and every Lam^2 is positive.
        Returns (G^-1, lam, W^-1).
        """
        low = np.linalg.cholesky(self.slacks(sigma))
        r = np.linalg.cholesky(z)
        p = ct(r) @ low
        lam2, u = np.linalg.eigh(p @ ct(p))
        if not lam2.min() > 0.0:
            raise np.linalg.LinAlgError("scaled complementarity is not positive definite")
        lam = np.sqrt(lam2)
        gi = ct(r @ u) / np.sqrt(lam)[..., None]
        return gi, lam, herm(ct(gi) @ gi)

    def schur(self, scal) -> np.ndarray:
        """Schur complement D -> sum_x tr_A[W_x^-1 (1 (x) D) W_x^-1] in the
        real basis.

        Entry (k, l) is sum_x tr[(1 (x) B_k) W_x^-1 (1 (x) B_l) W_x^-1].
        The block sum is one product
        C[i, j, l, k] = sum_x sum_ab U_x[a i, b j] U_x[b l, a k] over the
        U_x = W_x^-1, and each entry is then a weighted real or imaginary
        part of two entries of C.
        """
        d, m = self.d_b, self.m
        u5 = scal[2].reshape(-1, m, d, m, d)
        left = u5.transpose(0, 1, 3, 2, 4).reshape(-1, d * d)
        right = u5.transpose(0, 3, 1, 2, 4).reshape(-1, d * d)
        parts = (left.T @ right).reshape(-1).view(np.float64)
        (idx1, w1), (idx2, w2) = self._gather
        return w1 * parts[idx1] + w2 * parts[idx2]

    def solve(self, schur: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Hermitian D with schur(D) = rhs, solved in the real basis."""
        (to_idx, to_weight), (back_idx, back_weight) = self._coords
        x = np.linalg.solve(schur, to_weight * rhs.reshape(-1).view(np.float64)[to_idx])
        return (back_weight * x[back_idx]).view(complex).reshape(self.d_b, self.d_b)

    def direction(self, scal, schur: np.ndarray, shift=None):
        """Search direction for the scaled complementarity equation
        Lam o (dS~ + dZ~) = Lam o (shift - Lam), with X o Y = (XY + YX)/2.

        dS~ = G^-1 (1 (x) dsigma) G^-H and dZ~ = shift - Lam - dS~, and the
        dual step dZ = G^H dZ~ G restores sum_x tr_A (Z_x + dZ_x) = 1.
        Since G^H Lam G = Z, dsigma solves the Schur system with right
        side -1 + sum_x tr_A[G^H shift_x G]: just -1 for the predictor,
        whose shift is zero.  Returns dsigma and (dS~, dZ~).
        """
        d, m = self.d_b, self.m
        gi, lam, _ = scal
        rhs = -self.eye_b
        if shift is not None:
            rhs += _ptrace(m, d, ct(gi) @ shift @ gi)
        dsigma = self.solve(schur, herm(rhs))
        ds = herm(gi @ _lift(m, dsigma) @ ct(gi))
        dz = -ds - self.diag(lam)
        if shift is not None:
            dz += shift
        return dsigma, (ds, dz)

    @staticmethod
    def max_steps(lam: np.ndarray, ds: np.ndarray, dz: np.ndarray | None = None):
        """Largest primal and dual steps t with Lam + t dS~ >= 0 and
        Lam + t dZ~ >= 0, from the eigenvalues of every block scaled by
        Lam^-1/2 on both sides.  The predictor passes no dZ~: its
        dZ~ = -Lam - dS~ scales to -1 minus the scaled dS~, so one
        eigvalsh of the primal blocks gives both steps, the dual one from
        their largest eigenvalue."""
        r = 1.0 / np.sqrt(lam)
        w = r[..., :, None] * r[..., None, :]
        if dz is None:
            vals = np.linalg.eigvalsh(ds * w)
            worst = (float(vals[:, 0].min()), -1.0 - float(vals[:, -1].max()))
        else:
            low = np.linalg.eigvalsh(np.concatenate([ds * w, dz * w]))[:, 0]
            worst = (float(low[:len(lam)].min()), float(low[len(lam):].min()))
        return [-1.0 / t if t < 0.0 else math.inf for t in worst]

    def iterate(self, sigma: np.ndarray, z: np.ndarray, scal):
        """One Mehrotra predictor-corrector step from (sigma; Z) with its
        scaling.  Both Schur solves share one Schur matrix."""
        gi, lam, _ = scal
        schur = self.schur(scal)
        _, (ds, dz) = self.direction(scal, schur)
        tp, td = (min(1.0, STEP_FRACTION * t) for t in self.max_steps(lam, ds))
        mu = float((lam ** 2).sum()) / self.size
        lam_d = self.diag(lam)
        mu_aff = float(np.vdot(lam_d + tp * ds, lam_d + td * dz).real) / self.size
        target = min(1.0, max(mu_aff, 0.0) / mu) ** 3 * mu
        cross = ds @ dz
        shift = (self.diag(target / lam)
                 - (cross + ct(cross)) / (lam[..., :, None] + lam[..., None, :]))
        dsigma, dirs = self.direction(scal, schur, shift)
        tp, td = (min(1.0, STEP_FRACTION * t) for t in self.max_steps(lam, *dirs))
        z = herm(z + td * (ct(gi) @ dirs[1] @ gi))
        return sigma + tp * dsigma, z

    def certificates(self, sigma: np.ndarray, z: np.ndarray):
        """Primal and dual bounds at (sigma; Z).

        The primal bound tr(sigma) stands once every slack passes
        Cholesky (else LinAlgError).  The dual witness is Z itself,
        whitened in float64 by T^-1/2 with T = sum_x tr_A Z_x, so that its
        partial traces sum to the identity, then scaled down so that
        residual rounding cannot push that sum above the identity:
        tr_A[W] <= 1 is all weak duality needs.  Each witness block must
        pass Cholesky; if one does not there is no dual bound, reported
        as zero.
        """
        d, m = self.d_b, self.m
        primal = float(sigma.trace().real)
        np.linalg.cholesky(self.slacks(sigma))
        t_m12 = _lift(m, frac_power(_ptrace(m, d, z), -0.5))
        witness = herm(t_m12 @ z @ t_m12)
        top = float(np.linalg.eigvalsh(herm(_ptrace(m, d, witness))).max())
        witness = witness / max(1.0, top + 1e-14 * max(1.0, abs(top)))
        try:
            np.linalg.cholesky(witness)
        except np.linalg.LinAlgError:
            return primal, 0.0, None
        return primal, self.dual_value(witness), witness


def _certify(kernel: _SdpKernel, sigma: np.ndarray, z, record: dict) -> EntropyResult:
    """The bracket that (sigma; Z) certifies on ``kernel``'s blocks, with
    the ``EntropyResult`` fields of ``record`` saying how it was found."""
    primal, dual, witness = kernel.certificates(sigma, z)
    lower = -math.log2(primal)
    upper = -math.log2(dual) if dual > 0 else math.inf
    return EntropyResult(lower, lower, max(upper, lower), sigma=sigma.copy(),
                         witness=tuple(witness) if witness is not None else None, **record)


def _rounding(d: int, eig) -> float:
    """The rounding term 8 d eps lambda_max(M) that the candidates and the
    domination test allow for, for blocks on C^d whose marginal M has the
    eigendecomposition ``eig``."""
    return 8.0 * d * np.finfo(float).eps * max(float(eig[0][-1]), 0.0)


def _shift_too_costly(d: int, t: float, trace: float, gap: float) -> bool:
    """Whether adding t 1 on C^d to a sigma of the given trace costs more
    than half the gap in bits."""
    return d * t > trace * math.expm1(0.5 * gap * math.log(2.0))


def _mixed(kernel: _SdpKernel, z: np.ndarray, gap: float) -> np.ndarray:
    """A candidate measurement Z mixed with s = gap / 8 of the identity,
    Z_x = (1 - s) Z_x + (s / count) 1: every Z_x is then positive
    definite for the certificate, at a cost of at most s / ln 2 bits."""
    s = gap / 8.0
    return herm((1.0 - s) * z) + (s / kernel.count) * kernel.eye


def _commuting(kernel: _SdpKernel, eig, gap: float):
    """A candidate (sigma; Z) for a classical target (m = 1) read off the
    eigenbasis V of the marginal M = sum_x rho_x, optimal when the
    blocks commute and M's nonzero eigenvalues are simple.

    With D_x = V^H rho_x V and p_k = max_x Re(D_x)_kk,
    sigma = V diag(p) V^H + t 1 covers every block once t bounds the
    off-diagonal part of every D_x in norm: t is the largest Frobenius
    norm of D_x minus its real diagonal, plus ``_rounding``.  The dual
    is the argmax measurement V P_x V^H, where P_x projects onto the k
    whose argmax is x, ``_mixed`` with the identity.  Returns None when
    the shift t costs more than half the gap in bits.
    """
    vecs = eig[1]
    d, count = kernel.d_b, kernel.count
    dx = ct(vecs) @ kernel.rho @ vecs
    dk = np.einsum("xkk->xk", dx).real
    best = dk.argmax(axis=0)
    p = dk.max(axis=0)
    t = (float(np.linalg.norm(dx - kernel.diag(dk), axis=(1, 2)).max())
         + _rounding(d, eig))
    if _shift_too_costly(d, t, float(p.sum()), gap):
        return None
    sigma = herm((vecs * p) @ ct(vecs)) + t * kernel.eye_b
    proj = (vecs * (best == np.arange(count)[:, None])[:, None, :]) @ ct(vecs)
    return sigma, _mixed(kernel, proj, gap)


def _two_blocks(kernel: _SdpKernel, eig, gap: float):
    """The optimal (sigma; Z) of a classical target with two blocks, from
    one eigendecomposition of their difference (Helstrom).

    With rho_0 - rho_1 = W diag(l) W^H and P the projection onto l > 0,
    sigma = rho_1 + W diag(max(l, 0)) W^H covers both blocks, and
    Z = (P, 1 - P) attains tr sigma = tr rho_1 + tr (rho_0 - rho_1)_+.
    As in ``_commuting``, sigma gets t 1 with t = ``_rounding``, and Z
    is ``_mixed`` with the identity.  Returns None when t costs more
    than half the gap in bits."""
    d = kernel.d_b
    lam, w = np.linalg.eigh(herm(kernel.rho[0] - kernel.rho[1]))
    sigma = herm(kernel.rho[1] + (w * np.maximum(lam, 0.0)) @ ct(w))
    t = _rounding(d, eig)
    if _shift_too_costly(d, t, float(sigma.trace().real), gap):
        return None
    proj = herm((w * (lam > 0.0)) @ ct(w))
    z = np.stack([proj, kernel.eye - proj])
    return sigma + t * kernel.eye_b, _mixed(kernel, z, gap)


def _weight_step(x: np.ndarray, a: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """One primal-dual step of ``_pure`` from x = (q; y), the weights and
    the slacks of a_x <= 1, with ``hess`` minus the Hessian of f.  The
    Newton system of a - 1 + y = 0 and q y = target is
    (hess + diag(y / q)) dq = a - 1 + target / q; the predictor's target
    is 0, and the corrector's follows Mehrotra's rule, as in
    ``_SdpKernel.iterate``."""
    n = len(a)
    q, y = x[:n], x[n:]
    mat = hess + np.diag(y / q)

    def toward(target):
        dq = np.linalg.solve(mat, a - 1.0 + target / q)
        dx = np.concatenate([dq, target / q - y - y / q * dq])
        neg = dx < 0.0
        return dx, min(1.0, STEP_FRACTION * float((x[neg] / -dx[neg]).min(initial=math.inf)))
    mu = float(q @ y) / n
    dx, step = toward(0.0)
    ahead = x + step * dx
    mu_aff = float(ahead[:n] @ ahead[n:]) / n
    dx, step = toward(min(1.0, max(mu_aff, 0.0) / mu) ** 3 * mu)
    return x + step * dx


def _pure(kernel: _SdpKernel, eig, gap: float):
    """The optimal (sigma; Z) of a classical target whose blocks are pure
    up to rounding: a weighted square-root measurement, from Newton steps
    on one weight per block.

    With rho_x = v_x v_x^H, sigma >= rho_x is v_x^H sigma^-1 v_x <= 1,
    and the Lagrange dual f(q) = 2 tr Q^1/2 - sum_x q_x, with
    Q = sum_x q_x v_x v_x^H, is concave in q >= 0 with its maximum at
    sigma = Q^1/2 (Mochon, PRA 73, 032328, 2006; Eldar, Megretski and
    Verghese, IEEE Trans. Inf. Theory 49, 2003).  Its gradient is
    a_x - 1, a_x = v_x^H Q^-1/2 v_x, and its Hessian comes from one
    eigendecomposition Q = U diag(s^2) U^H with the divided differences
    -1 / (s_i s_j (s_i + s_j)) of l^-1/2 (Daleckii-Krein).  Every q > 0
    gives a bracket: sigma = kappa Q^1/2 with kappa = max_x a_x is
    feasible, and Z_x = q_x Q^-1/2 v_x v_x^H Q^-1/2, whose sum is the
    identity, guesses with probability sum_x q_x a_x^2.  The weights and
    the slacks y of a_x <= 1 take primal-dual Newton steps with
    Mehrotra's centering, from q_x = lambda_max(rho_x) and
    y = START_MARGIN, until the bracket is within a quarter of the gap.

    v_x is sqrt(lambda_max) times the top eigenvector of rho_x, and
    sigma gets t 1 with t the largest other eigenvalue of any block plus
    ``_rounding``, which covers every block's remainder, and every block
    with lambda_max <= t, which gets no weight; Z is ``_mixed`` with the
    identity.  Returns the candidate, or None before any step when t
    costs more than half the gap against sum_x tr rho_x >= tr sigma*,
    when Q is not positive definite, and after MAX_OUTER steps, with the
    number of steps taken."""
    d = kernel.d_b
    vals, vecs = np.linalg.eigh(kernel.rho)
    t = max(float(vals[:, :-1].max(initial=0.0)), 0.0) + _rounding(d, eig)
    if _shift_too_costly(d, t, float(vals.sum()), gap):
        return None, 0
    # a block whose top eigenvalue is at most t lies under t 1 already
    live = vals[:, -1] > t
    v = vecs[live, :, -1] * np.sqrt(vals[live, -1])[:, None]
    n = len(v)
    qy = np.concatenate([vals[live, -1], np.full(n, START_MARGIN)])
    for it in range(MAX_OUTER + 1):
        q = qy[:n]
        lam, u = np.linalg.eigh(herm((v.T * q) @ v.conj()))
        if not lam[0] > 0.0:
            return None, it
        s = np.sqrt(lam)
        w = v @ u.conj()  # w[x, i] = u_i^H v_x
        a = (np.abs(w) ** 2 / s).sum(axis=1)
        kappa = float(a.max())
        if math.log2(kappa * float(s.sum()) / float(q @ (a * a))) <= 0.25 * gap:
            break
        if it == MAX_OUTER:
            return None, it
        kw = (w.conj()[:, :, None] * w[:, None, :]).reshape(n, -1)
        diff = 1.0 / (s[:, None] * s[None, :] * (s[:, None] + s[None, :]))
        qy = _weight_step(qy, a, ((kw * diff.reshape(-1)) @ kw.conj().T).real)
    p = (w / s) @ u.T  # p[x] = Q^-1/2 v_x
    z = np.zeros_like(kernel.rho)
    z[live] = q[:, None, None] * (p[:, :, None] * p.conj()[:, None, :])
    sigma = herm((u * (kappa * s)) @ ct(u)) + t * kernel.eye_b
    return (sigma, _mixed(kernel, z, gap)), it


def _candidate(kernel: _SdpKernel, eig, gap: float):
    """The stage and the no-iteration candidate of a classical target:
    exact for two blocks, else read off the marginal's eigenbasis."""
    if kernel.count == 2:
        return "helstrom", _two_blocks(kernel, eig, gap)
    return "commuting", _commuting(kernel, eig, gap)


def _lifted(certify, lift):
    """``certify`` of the iterates that ``lift`` maps back, or ``certify``
    itself when there is no lift."""
    if lift is None:
        return certify
    return lambda sigma, z, record: certify(*lift(sigma, z), record)


def _support(kernel: _SdpKernel, gap: float, eig):
    """The problem restricted to the support of the conditioning marginal,
    and the map that lifts its iterates back to the full space.

    The marginal is M = sum_x tr_A rho_x.  A PSD rho_x has no weight on
    a kernel vector of M, so the SDP only sees I^H rho_x I with
    I = 1_m (x) V, where V holds the eigenvectors of M above the support
    rule of ``quantum.support_projector``.  Dropping k eigenvectors U
    leaves each block a weight w off V of at most their eigenvalues plus
    the backward error of the eigensolver, d eps lambda_max(M) each.  A
    reduced iterate lifts to sigma = V sigma_r V^H + delta U U^H and
    Z_x = I Z'_x I^H + 1_m (x) U U^H / (m times the block count), whose
    partial traces still sum to the identity.  delta spends a trace
    budget worth a quarter of the gap in bits, measured against
    tr(sigma) >= max_x tr(rho_x) / m, and an eigenvector is dropped only
    while delta stays at least 2 w.
    ``eig`` is the eigendecomposition of M.  Returns (kernel, None) when
    nothing is dropped.
    """
    d, m = kernel.d_b, kernel.m
    vals, vecs = eig
    top = max(float(vals[-1]), 0.0)
    weight = np.cumsum(np.maximum(vals, 0.0) + d * np.finfo(float).eps * top)
    floor = float(np.einsum("kii->k", kernel.rho).real.max()) / m
    budget = floor * math.expm1(0.25 * gap * math.log(2.0))
    k = np.arange(1, d + 1)
    drop = int(np.count_nonzero((vals <= SUPPORT_RTOL * top) & (2.0 * k * weight <= budget)))
    if drop in (0, d):
        return kernel, None
    u, v = vecs[:, :drop], vecs[:, drop:]
    comp = herm(u @ ct(u))
    delta, share = budget / drop, 1.0 / kernel.count
    iso = _lift(m, v)
    reduced = _SdpKernel(m, herm(ct(iso) @ kernel.rho @ iso), d - drop)

    def lift(sigma, z):
        return (herm(v @ sigma @ ct(v)) + delta * comp,
                herm(iso @ z @ ct(iso)) + share * _lift(m, comp))
    return reduced, lift


def _dominance(kernel: _SdpKernel, gap: float, eig):
    """The problem without its dominated blocks, and the map that lifts
    its iterates back to every block.

    For a classical target (m = 1), rho_x <= rho_x' makes the constraint
    sigma >= rho_x redundant: guessing x' instead of x never lowers the
    guessing probability.  Blocks are visited in order of falling trace,
    ties to the lower index, and x is dropped when an earlier block x'
    has rho_x' - rho_x >= -t 1, with t = ``_rounding``.  Only the pairs with
    diag(rho_x) <= diag(rho_x') + t, which domination needs, reach the
    one batched eigvalsh.  Every dropped block lies under an earlier
    one, and so under a kept one; of exact duplicates the first is kept.
    A reduced iterate lifts to the same sigma, the kept Z_x, and
    Z_x = (s / count) 1 with s = min(gap / 8, 1) for each dropped x.  The
    certificate whitens sum_x Z_x <= (1 + s) 1 back to the identity,
    which leaves every witness block positive definite and costs at most
    log2(1 + s) bits of the dual bound.  ``eig`` is the
    eigendecomposition of M.  Returns (kernel, None) when nothing is
    dropped.
    """
    count, d, rho = kernel.count, kernel.d_b, kernel.rho
    diag = np.einsum("xii->xi", rho).real
    t = _rounding(d, eig)
    rank = np.argsort(np.argsort(-diag.sum(axis=1), kind="stable"))
    under, over = np.nonzero((rank[:, None] > rank[None, :])
                             & (diag[:, None, :] <= diag[None, :, :] + t).all(axis=2))
    drop = np.zeros(count, dtype=bool)
    if len(under):
        drop[under[np.linalg.eigvalsh(rho[over] - rho[under])[:, 0] >= -t]] = True
    if not drop.any():
        return kernel, None
    fill = (min(gap / 8.0, 1.0) / count) * kernel.eye

    def lift(sigma, z):
        full = np.empty_like(rho)
        full[~drop], full[drop] = z, fill
        return sigma, full
    return _SdpKernel(1, rho[~drop], d), lift


def _primal_dual(kernel: _SdpKernel, gap: float, certify, record: dict) -> EntropyResult:
    """Predictor-corrector iterations on ``kernel`` until ``certify``
    (iterate, record) -> EntropyResult brackets the entropy within gap.
    Each certificate's record is ``record`` at stage ``iterations``, with
    the iterations taken."""

    def certified(sigma, z, it):
        return certify(sigma, z, dict(record, stage="iterations", iterations=it))
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
        # the duality gap is real at every iterate, so the certificate
        # runs once it meets the request
        dual = kernel.dual_value(z)
        if dual > 0 and math.log2(float(sigma.trace().real) / dual) <= 0.5 * gap:
            result = certified(sigma, z, it)
            if best is None or result.gap < best.gap:
                best = result
            if best.gap <= gap:
                return best
    if best is None or best.iterations < last[2]:
        result = certified(*last)
        if best is None or result.gap < best.gap:
            best = result
    if best.gap <= gap:
        return best
    raise SolverConvergenceError(best)


def _solve_hmin(m: int, rho: np.ndarray, d_b: int, gap: float) -> EntropyResult:
    """Min-entropy of the blocks rho of multiplicity m on C^d_b.

    For d_b = 1, -log2 of the largest eigenvalue of any block.  Otherwise
    solve and certify at the blocks' own scale: on 2^-e rho, whose
    largest entry lies in [1/2, 1), and shift the bracket back by e bits
    and sigma by 2^e.  The scaling is exact while every entry stays in
    the normal range, always so for e <= 0 (rho's largest entry below
    1), so the certificate of the scaled blocks is one of rho."""
    if d_b == 1:
        lam = float(np.linalg.eigvalsh(herm(rho))[:, -1].max())
        value = -math.log2(lam)
        return EntropyResult(value, value, value, "closed-form",
                             sigma=np.array([[lam]], dtype=complex))
    e = math.frexp(float(np.abs(rho).max()))[1]

    def shifted(res: EntropyResult) -> EntropyResult:
        return dataclasses.replace(res, value=res.value - e, lower=res.lower - e,
                                   upper=res.upper - e, sigma=_ldexp(res.sigma, e))
    try:
        return shifted(_solve_sdp(m, _ldexp(rho, -e), d_b, gap))
    except SolverConvergenceError as exc:
        raise SolverConvergenceError(shifted(exc.best)) from exc


def _solve_sdp(m: int, rho: np.ndarray, d_b: int, gap: float) -> EntropyResult:
    """Min-entropy of the blocks rho of multiplicity m on C^d_b, d_b >= 2.

    One pass over four stages, each ending the solve when its candidate's
    certificate meets the gap:
    1. a classical target's candidate of every block (Helstrom's for two
       blocks, else the one read off the conditioning marginal);
    2. a classical target's domination, then the kept blocks' candidate
       if any block was dropped;
    3. support reduction of the kept blocks, then a classical target's
       pure-block candidate;
    4. the predictor-corrector iterations.
    Each reduction composes its lift into the one ``certify``, so every
    candidate and iterate is certified on the original blocks.  Any
    certificate that fails Cholesky, a candidate's or a lifted
    iterate's, sends the solve to the iterations on every block in the
    full space.  Each bracket records its stage, the weight steps so
    far, and the blocks and dimension of the kernel it ran on."""
    full = _SdpKernel(m, rho, d_b)
    kernel, eig = full, herm_eig(_ptrace(m, d_b, rho))
    certify = on_full = functools.partial(_certify, full)
    weight_steps = 0

    def record(kernel: _SdpKernel, fallback: bool) -> dict:
        return dict(weight_steps=weight_steps, kept_blocks=len(kernel.rho),
                    kept_dim=kernel.d_b, fallback=fallback)

    def settled(stage: str, candidate) -> EntropyResult | None:
        """The certificate of ``candidate`` if it meets the gap."""
        if candidate is not None:
            result = certify(*candidate, dict(record(kernel, False), stage=stage))
            if result.gap <= gap:
                return result
        return None
    try:
        if m == 1:
            if (result := settled(*_candidate(kernel, eig, gap))) is not None:
                return result
            kernel, undrop = _dominance(kernel, gap, eig)
            if undrop is not None:
                certify = _lifted(certify, undrop)
                eig = herm_eig(_ptrace(1, d_b, kernel.rho))
                if (result := settled(*_candidate(kernel, eig, gap))) is not None:
                    return result
        kernel, unsupport = _support(kernel, gap, eig)
        certify = _lifted(certify, unsupport)
        if m == 1:
            candidate, weight_steps = _pure(kernel, eig, gap)
            if (result := settled("pure", candidate)) is not None:
                return result
        return _primal_dual(kernel, gap, certify, record(kernel, False))
    except np.linalg.LinAlgError:
        return _primal_dual(full, gap, on_full, record(full, True))


def check_gap(gap: float) -> None:
    """The rule for every requested certificate gap."""
    if not 0 < gap < math.inf:  # NaN too
        raise ValueError(f"gap must be positive and finite, got {gap!r}")


def h_min(rho: DensityOperator, target, condition=(), gap: float = DEFAULT_GAP) -> EntropyResult:
    """Conditional min-entropy via SDP with a certified bracket.

    The returned ``value`` equals the primal certificate (a lower bound
    on the true entropy); ``upper`` comes from the dual witness and
    ``upper - lower <= gap`` on successful solves.
    """
    check_gap(gap)
    rho, n_t = _partition(rho, target, condition)
    return _solve_hmin(*_blocks(rho, n_t), gap)


def h_min_blocks(blocks, gap: float = DEFAULT_GAP) -> EntropyResult:
    """Min-entropy of a classical target from raw conditional operators.

    ``blocks[x]`` is the sub-normalized operator on the conditioning
    space for target value x.  This is the entry point used by the
    verification oracles, which assemble states blockwise.
    """
    check_gap(gap)
    rho = np.array(blocks, dtype=complex)
    if rho.ndim != 3 or rho.shape[1] != rho.shape[2] or not rho.size:
        raise ValueError(f"blocks must be a non-empty (count, d, d) stack, "
                         f"got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("blocks must be finite")
    trace = float(np.einsum("xii->", rho).real)
    if not trace > 0.0:
        raise ValueError(f"the stack's trace must be positive, got {trace!r}")
    return _solve_hmin(1, rho, rho.shape[-1], gap)


def p_guess(rho: DensityOperator, target, condition=(),
            gap: float = DEFAULT_GAP) -> EntropyResult:
    """Optimal probability of guessing the classical target from the
    conditioning systems, partitioned as in ``h_min``.

    Returns 2^-Hmin with the certificates mapped to probability space:
    ``lower`` is achieved by the explicit dual POVM, ``upper`` (and so
    ``value``) by the primal operator bound.  A ``SolverConvergenceError``
    carries its bracket mapped the same way.
    """
    quantum = [n for n in target if n in rho.names() and not rho.system(n).classical]
    if quantum:
        raise ValueError(f"guessing probability needs a classical target; {quantum} "
                         "are quantum")

    def to_prob(h: EntropyResult) -> EntropyResult:
        return dataclasses.replace(h, value=2.0 ** -h.value, lower=2.0 ** -h.upper,
                                   upper=2.0 ** -h.lower)
    try:
        h = h_min(rho, target, condition, gap=gap)
    except SolverConvergenceError as exc:
        raise SolverConvergenceError(to_prob(exc.best)) from exc
    return to_prob(h)


# ---------------------------------------------------------------------------
# Channel entropy functional


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
    ops = inst.kraus_stack
    # N_y*[1] = sum of K* K over the Kraus operators K of outcome y
    g = quarter @ inst.outcome_sums(np.einsum("kai,kaj->kij", ops.conj(), ops)) @ quarter
    return -math.log2(float(np.vdot(g, g).real))
