"""Desk-scale linear algebra for sub-normalized states and instruments.

States are dense complex matrices over an ordered list of labelled
tensor factors.  Traces in (0, 1] are allowed throughout; a "state" here
is any PSD operator with positive trace at most one (up to tolerance).
Classical systems are flagged as such and must be diagonal in the
computational basis; the basis index of a classical n-bit register is
the little-endian integer value of the bitstring.  A cq state's
conditional operators, and an instrument's outputs, are one (count, d, d)
stack of blocks; an instrument's Kraus operators are one (K, d_out, d_in)
stack with the outcome of each, and every map and sum runs on the stacks.

Deliberate scale limits: the product of quantum (non-classical)
dimensions is capped at 64 and the total dimension at 1024.  Everything
uses explicit Hermitian eigendecompositions with symmetrization first,
and fractional or negative matrix powers act on the numerical support
only (eigenvalues below 1e-12 of the largest are treated as zero).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-10
PSD_TOL = 1e-10
CLASSICAL_TOL = 1e-12
SUPPORT_RTOL = 1e-12
PURE_TOL = 1e-10
QUANTUM_DIM_CAP = 64
TOTAL_DIM_CAP = 1024


class DimensionCapError(ValueError):
    """Requested operator exceeds the desk-scale dimension caps."""


@dataclass(frozen=True)
class System:
    """A labelled tensor factor."""

    name: str
    dim: int
    classical: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"system name must be a string, got {self.name!r}")
        if self.dim < 1:
            raise ValueError(f"system {self.name!r} needs dimension >= 1")


def ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part of each matrix in a stack, exactly Hermitian."""
    return 0.5 * (a + ct(a))


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition after explicit symmetrization."""
    return np.linalg.eigh(herm(mat))


def frac_power(mat: np.ndarray, power: float) -> np.ndarray:
    """Fractional (possibly negative) power on the support of a PSD matrix."""
    vals, vecs = herm_eig(mat)
    cut = SUPPORT_RTOL * max(vals.max(initial=0.0), 0.0)
    keep = vals > cut
    powered = np.zeros_like(vals)
    powered[keep] = vals[keep] ** power
    return (vecs * powered) @ vecs.conj().T


def support_projector(mat: np.ndarray) -> np.ndarray:
    """Projector onto the support of a PSD matrix: its power 0."""
    return frac_power(mat, 0.0)


def trace_norm(mat: np.ndarray) -> float:
    """Schatten 1-norm of a Hermitian matrix."""
    vals, _ = herm_eig(mat)
    return float(np.abs(vals).sum())


def _check_blocks(blocks: np.ndarray, systems: tuple[System, ...]) -> None:
    """Raise ValueError unless a (count, d, d) stack of blocks over
    ``systems`` are the diagonal blocks of a state: finite, each Hermitian
    within HERM_TOL and PSD within PSD_TOL, their total trace in
    (0, 1 + PSD_TOL], and each classical system diagonal within
    CLASSICAL_TOL in every block."""
    if not np.isfinite(blocks).all():
        raise ValueError("state has non-finite entries")
    if not np.abs(blocks - ct(blocks)).max() <= HERM_TOL:
        raise ValueError("state is not Hermitian within 1e-10")
    vals = np.linalg.eigvalsh(herm(blocks))
    if vals.min(initial=0.0) < -PSD_TOL:
        raise ValueError(f"state has eigenvalue {vals.min():.3e} below -1e-10")
    tr = float(np.trace(blocks, axis1=1, axis2=2).real.sum())
    if not 0.0 < tr <= 1.0 + PSD_TOL:
        raise ValueError(f"state trace {tr:.6g} outside (0, 1]")
    dims = tuple(s.dim for s in systems)
    t = blocks.reshape((len(blocks),) + dims + dims)
    k = len(dims)
    for p, s in enumerate(systems):
        if not s.classical or s.dim == 1:
            continue
        off = np.moveaxis(t, (1 + p, 1 + k + p), (0, 1)).copy()
        idx = np.arange(s.dim)
        off[idx, idx] = 0
        if np.abs(off).max(initial=0.0) > CLASSICAL_TOL:
            raise ValueError(
                f"classical system {s.name!r} has off-diagonal weight "
                f"{np.abs(off).max():.3e}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """PSD operator with trace in (0, 1] over labelled tensor factors."""

    systems: tuple[System, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self._admit(np.array(self.matrix, dtype=complex), None)

    def _admit(self, mat: np.ndarray, blocks: np.ndarray | None) -> None:
        """Check the systems and ``mat`` and store both.  ``blocks``, when
        given, is the stack of the diagonal blocks of ``mat`` over the
        systems after the first, and ``mat`` is zero off them: the state
        checks then run on the blocks alone."""
        systems = tuple(self.systems)
        object.__setattr__(self, "systems", systems)
        if not systems:
            raise ValueError("state needs at least one system")
        names = [s.name for s in systems]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate system names in {names}")
        dim = _dim(systems)
        qdim = _dim(s for s in systems if not s.classical)
        if qdim > QUANTUM_DIM_CAP:
            raise DimensionCapError(
                f"quantum dimension {qdim} exceeds the cap of {QUANTUM_DIM_CAP}")
        if dim > TOTAL_DIM_CAP:
            raise DimensionCapError(
                f"total dimension {dim} exceeds the cap of {TOTAL_DIM_CAP}")
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {dim}")
        if blocks is None:
            _check_blocks(mat[None], systems)
        else:
            _check_blocks(blocks, systems[1:])
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _derived(cls, systems, matrix: np.ndarray) -> "DensityOperator":
        """Operator made from a checked one by a map that keeps every
        invariant the public constructor checks (a reordering of the
        factors, a partial trace), so those checks, a full eigvalsh
        among them, are skipped."""
        rho = object.__new__(cls)
        mat = np.ascontiguousarray(matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(rho, "systems", tuple(systems))
        object.__setattr__(rho, "matrix", mat)
        return rho

    # -- structure helpers ---------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.systems)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.systems)

    def system(self, name: str) -> System:
        for s in self.systems:
            if s.name == name:
                return s
        raise KeyError(f"no system named {name!r} in {self.names()}")

    def positions(self, names) -> list[int]:
        have = self.names()
        return [have.index(n) for n in names]

    def is_pure(self) -> bool:
        vals = np.linalg.eigvalsh(herm(self.matrix))
        return bool(vals[:-1].max(initial=0.0) <= PURE_TOL)


def permute_systems(rho: DensityOperator, order) -> DensityOperator:
    """Reorder tensor factors to the named order."""
    order = list(order)
    if sorted(order) != sorted(rho.names()):
        raise ValueError(f"order {order} is not a permutation of {rho.names()}")
    perm = rho.positions(order)
    k = len(rho.systems)
    t = rho.matrix.reshape(rho.dims + rho.dims)
    t = np.transpose(t, perm + [k + p for p in perm])
    dim = rho.dim
    systems = tuple(rho.systems[p] for p in perm)
    return DensityOperator._derived(systems, t.reshape(dim, dim))


def partial_trace(rho: DensityOperator, drop) -> DensityOperator:
    """Trace out the named systems."""
    drop = list(drop)
    keep = [n for n in rho.names() if n not in drop]
    if set(drop) - set(rho.names()):
        raise KeyError(f"cannot trace out {sorted(set(drop) - set(rho.names()))}")
    if not keep:
        raise ValueError("cannot trace out every system")
    rho = permute_systems(rho, keep + drop)
    dk = int(np.prod([rho.system(n).dim for n in keep], dtype=np.int64))
    dd = rho.dim // dk
    t = rho.matrix.reshape(dk, dd, dk, dd)
    out = np.einsum("iaja->ij", t)
    return DensityOperator._derived(rho.systems[:len(keep)], out)


def purify(rho: DensityOperator, ref_name: str | None = None) -> DensityOperator:
    """Canonical purification via the square root of the state.

    Appends one reference system of the full dimension; tracing it out
    reproduces the input.  A sub-normalized input yields a sub-normalized
    rank-one output of the same trace.  Classical flags are dropped from
    the output labels: a purification is genuinely quantum even when the
    input register was diagonal.
    """
    if ref_name is None:
        ref_name = "ref"
        while ref_name in rho.names():
            ref_name += "'"
    root = frac_power(rho.matrix, 0.5)
    vec = root.reshape(-1)  # row-major vec: |psi> = sum_ij root[i,j] |i>|j>
    mat = np.outer(vec, vec.conj())
    systems = tuple(System(s.name, s.dim) for s in rho.systems) + (System(ref_name, rho.dim),)
    return DensityOperator(systems, mat)


# ---------------------------------------------------------------------------
# Instruments


@dataclass(frozen=True, eq=False)
class Instrument:
    """Finite collection of Kraus-op lists, one list per classical outcome.

    The whole map must be trace non-increasing:
    sum over outcomes and Kraus terms of K* K <= identity (tolerance
    1e-10).

    ``kraus`` keeps the per-outcome lists of the constructor and the JSON
    files; computations read ``kraus_stack``, all K Kraus operators as one
    read-only (K, d_out, d_in) array, and ``kraus_outcome``, their outcomes.
    """

    input_systems: tuple[System, ...]
    outcome_name: str
    output_systems: tuple[System, ...]
    kraus: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_systems", tuple(self.input_systems))
        object.__setattr__(self, "output_systems", tuple(self.output_systems))
        d_in = self.input_dim
        d_out = self.output_dim
        if max(d_in, d_out) > TOTAL_DIM_CAP:
            raise DimensionCapError(f"instrument dimension {max(d_in, d_out)} exceeds "
                                    f"the cap of {TOTAL_DIM_CAP}")
        if not self.kraus:
            raise ValueError("instrument needs at least one outcome")
        flat = [k for ops in self.kraus for k in ops]
        wrong = {np.shape(k) for k in flat} - {(d_out, d_in)}
        if wrong:
            raise ValueError(f"Kraus operator shape {wrong.pop()} != ({d_out}, {d_in})")
        stack = np.array(flat or np.zeros((0, d_out, d_in)), dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operators have non-finite entries")
        acc = np.einsum("kai,kaj->ij", stack.conj(), stack)
        top = np.linalg.eigvalsh(herm(acc)).max()
        if not top <= 1.0 + PSD_TOL:
            raise ValueError(f"instrument is not trace non-increasing: sum K*K has "
                             f"eigenvalue {top:.6f}")
        counts = [len(ops) for ops in self.kraus]
        owner = np.repeat(np.arange(len(counts)), counts)
        for frozen in (stack, owner):
            frozen.setflags(write=False)
        object.__setattr__(self, "kraus_stack", stack)
        object.__setattr__(self, "kraus_outcome", owner)
        object.__setattr__(self, "kraus", tuple(
            tuple(stack[end - count:end])
            for count, end in zip(counts, itertools.accumulate(counts))))

    @property
    def input_dim(self) -> int:
        return _dim(self.input_systems)

    @property
    def output_dim(self) -> int:
        return _dim(self.output_systems)

    @property
    def num_outcomes(self) -> int:
        return len(self.kraus)

    @property
    def outcome_system(self) -> System:
        return System(self.outcome_name, self.num_outcomes, classical=True)

    def outcome_sums(self, per_kraus: np.ndarray) -> np.ndarray:
        """Sum a stack whose first axis runs over ``kraus_stack`` over the
        Kraus operators of each outcome: a (num_outcomes, ...) stack."""
        onehot = self.kraus_outcome == np.arange(self.num_outcomes)[:, None]
        return np.tensordot(onehot.astype(float), per_kraus, axes=1)

    def branches(self, t: np.ndarray) -> np.ndarray:
        """Each outcome's sum over its Kraus operators K of (K (x) 1) t (K (x) 1)*,
        acting on the first factor of each operator in ``t``, of shape
        (..., d_in, r, d_in, r): a (num_outcomes, ..., d_out, r, d_out, r) stack."""
        ops = self.kraus_stack
        half = np.einsum("kai,...irjs->k...arjs", ops, t)
        return self.outcome_sums(np.einsum("k...arjs,kbj->k...arbs", half, ops.conj()))


def diagonal_blocks(mat: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` diagonal blocks of a square matrix, as a new (count, d, d) stack."""
    d = mat.shape[0] // count
    x = np.arange(count)
    return mat.reshape(count, d, count, d)[x, :, x, :]


class CqState(DensityOperator):
    """State whose first system is classical; its blocks form one stack."""

    def _admit(self, mat: np.ndarray, blocks: np.ndarray | None) -> None:
        super()._admit(mat, blocks)
        if not self.systems[0].classical:
            raise ValueError("first system of a cq state must be classical")

    @property
    def num_classical(self) -> int:
        return self.systems[0].dim

    def blocks(self) -> np.ndarray:
        """Sub-normalized conditional operators on the remaining systems,
        one per classical value, as a (num_classical, d, d) stack."""
        return diagonal_blocks(self.matrix, self.num_classical)

    @classmethod
    def from_blocks(cls, outcome: System, rest: tuple[System, ...],
                    blocks) -> "CqState":
        blocks = np.asarray(blocks, dtype=complex)
        c, d = outcome.dim, blocks.shape[-1]
        if blocks.shape != (c, d, d):
            raise ValueError(f"blocks of shape {blocks.shape} are not {c} square blocks")
        mat = np.zeros((c, d, c, d), dtype=complex)
        mat[np.arange(c), :, np.arange(c), :] = blocks
        rho = object.__new__(cls)
        object.__setattr__(rho, "systems", (outcome,) + tuple(rest))
        rho._admit(mat.reshape(c * d, c * d), blocks)
        return rho


def apply_instrument(inst: Instrument, rho: DensityOperator) -> CqState:
    """Apply an instrument to the named subsystems of a state.

    Acts as the identity on every untouched system.  The result is a cq
    state ordered as (outcome register, instrument outputs, untouched
    systems in their original order).
    """
    names = rho.names()
    for s in inst.input_systems:
        if s.name not in names:
            raise KeyError(f"state has no system {s.name!r}")
        if rho.system(s.name).dim != s.dim:
            raise ValueError(f"system {s.name!r} dimension mismatch")
    acted = [s.name for s in inst.input_systems]
    rest = [n for n in names if n not in acted]
    out_names = {inst.outcome_name} | {s.name for s in inst.output_systems}
    if out_names & set(rest):
        raise ValueError(f"output labels {sorted(out_names & set(rest))} collide "
                         "with untouched systems")
    rho = permute_systems(rho, acted + rest)
    return CqState.from_blocks(inst.outcome_system,
                               inst.output_systems + tuple(rho.systems[len(acted):]),
                               instrument_blocks(inst, rho))


def instrument_blocks(inst: Instrument, rho: DensityOperator) -> np.ndarray:
    """Per-outcome sub-normalized operators on (instrument outputs (x) rest),
    as one (num_outcomes, d, d) stack.

    The leading systems of ``rho`` must be the instrument's inputs, in
    order; the rest stay as they are.
    """
    d_in = inst.input_dim
    d_rest = rho.dim // d_in
    d = inst.output_dim * d_rest
    t = rho.matrix.reshape(d_in, d_rest, d_in, d_rest)
    return inst.branches(t).reshape(-1, d, d)


def simplex(e: np.ndarray) -> np.ndarray:
    """Standard exponential draws normalized along the last axis as numpy's
    Dirichlet sampler normalizes them: a sequential sum, then one multiply
    by its inverse.  So ``simplex(rng.standard_exponential(k))`` is the
    Dirichlet(1, ..., 1) draw ``rng.dirichlet(np.ones(k))``: the same
    numbers from the same draws."""
    return e * (1.0 / e.cumsum(axis=-1)[..., -1:])


def random_cq_state(rng: np.random.Generator, n_classical: int, d_q: int,
                    cl_name: str = "Z", q_name: str = "E",
                    trace: float = 1.0) -> CqState:
    """Seeded cq state: Dirichlet weights times ``trace`` on normalized Wishart blocks.

    The draws from ``rng``, and their order, are part of the contract: a
    seed names a state, and the verify suites name their instances by
    seed.  ``tests/test_quantum.py::TestRandomCqState`` checks it, exactly,
    against a loop oracle that draws each block with its own calls.
    """
    weights = simplex(rng.standard_exponential(n_classical)) * trace
    g = rng.normal(size=(n_classical, 2, d_q, d_q))  # block x: real part, then imaginary
    g = g[:, 0] + 1j * g[:, 1]
    m = g @ ct(g)
    # np.trace sums each diagonal in the order ndarray.trace does; einsum does not
    blocks = weights[:, None, None] * m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return CqState.from_blocks(System(cl_name, n_classical, classical=True),
                               (System(q_name, d_q),), blocks)


# ---------------------------------------------------------------------------
# Serialization: states and instruments as JSON


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def _matrix_from_json(rows, shape: tuple[int, int]) -> np.ndarray:
    """Complex matrix of the given shape from rows of [re, im] pairs."""
    pairs = np.array(rows, dtype=float)
    if pairs.shape != (*shape, 2):
        raise ValueError(f"matrix must be {shape[0]} rows of {shape[1]} [re, im] pairs")
    return pairs[..., 0] + 1j * pairs[..., 1]


def _json_int(value, what: str) -> int:
    """An integer read from a JSON document; a float, string or boolean is
    not coerced."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_bool(value, what: str) -> bool:
    """A boolean read from a JSON document; a number, string or null is
    not coerced."""
    if type(value) is not bool:
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return value


def _systems_from_json(items) -> tuple[System, ...]:
    return tuple(System(s["name"], _json_int(s["dim"], "system dimension"),
                        _json_bool(s.get("classical", False), "classical flag"))
                 for s in items)


def _dim(systems) -> int:
    """Exact product of the dimensions (a fixed-width product could wrap)."""
    return math.prod(s.dim for s in systems)


def state_to_json(rho: DensityOperator) -> dict:
    return {
        "systems": [{"name": s.name, "dim": s.dim, "classical": s.classical}
                    for s in rho.systems],
        "matrix": _matrix_to_json(rho.matrix),
    }


def state_from_json(d: dict) -> DensityOperator:
    systems = _systems_from_json(d["systems"])
    dim = _dim(systems)
    cls = CqState if systems and systems[0].classical else DensityOperator
    return cls(systems, _matrix_from_json(d["matrix"], (dim, dim)))


def instrument_from_json(d: dict, outcome_name: str = "X") -> Instrument:
    """Instrument whose outcome y is the y-th entry of ``outcomes``; the
    entries' labels must be distinct integers."""
    ins = _systems_from_json(d["input_systems"])
    outs = _systems_from_json(d["output_systems"])
    shape = (_dim(outs), _dim(ins))
    labels = [_json_int(o["label"], "outcome label") for o in d["outcomes"]]
    if len(set(labels)) != len(labels):
        raise ValueError(f"outcome labels {labels} are not distinct")
    kraus = tuple(tuple(_matrix_from_json(k, shape) for k in o["kraus"]) for o in d["outcomes"])
    return Instrument(ins, outcome_name, outs, kraus)
