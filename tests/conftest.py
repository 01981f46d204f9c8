import numpy as np
import pytest

from qextract.gf2 import WORD, BitMatrix, MatrixFamily
from qextract.quantum import CqState, System


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_psd(rng, dim, trace=1.0):
    """Random full-rank PSD matrix with the given trace."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T + 1e-3 * np.eye(dim)
    return m * (trace / m.trace().real)


def loop_cq_state(rng, n_classical, d_q, cl_name="Z", q_name="E", trace=1.0):
    """Loop oracle for ``random_cq_state``: one Dirichlet call for the
    weights, then two normal calls and one product per block."""
    blocks = []
    weights = rng.dirichlet(np.ones(n_classical)) * trace
    for w in weights:
        g = rng.normal(size=(d_q, d_q)) + 1j * rng.normal(size=(d_q, d_q))
        m = g @ g.conj().T
        blocks.append(w * m / m.trace().real)
    return CqState.from_blocks(System(cl_name, n_classical, classical=True),
                               (System(q_name, d_q),), blocks)


def rand_herm(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def zero_set_distribution(n):
    """Uniform distribution on the zero set of the n-bit inner product,
    as a (2^n, 2^n) table p[x, y]."""
    size = 2 ** n
    p = np.array([[1.0 if (x & y).bit_count() % 2 == 0 else 0.0
                   for y in range(size)] for x in range(size)])
    return p / p.sum()


def identity_matrix(n):
    return BitMatrix(n, n, tuple(1 << j for j in range(n)))


def bit_matrix(rows):
    """BitMatrix of 0/1 row lists, entry (i, j) at bit j of row i."""
    return BitMatrix(len(rows), len(rows[0]),
                     tuple(sum(b << j for j, b in enumerate(row)) for row in rows))


def bit_lists(mat):
    """The rows of a BitMatrix as 0/1 lists."""
    return [[(r >> j) & 1 for j in range(mat.cols)] for r in mat.row_bits]


def transpose(mat):
    """The transpose of a BitMatrix."""
    return BitMatrix(mat.cols, mat.rows, tuple(
        sum(((r >> j) & 1) << i for i, r in enumerate(mat.row_bits))
        for j in range(mat.cols)))


def trace(rho):
    """The trace of a DensityOperator."""
    return float(np.trace(rho.matrix).real)


def outcome_probs(state):
    """The probability of each classical value of a CqState: the trace of
    its block."""
    return np.einsum("xii->x", state.blocks()).real


def family_of(n, r, construction, matrices):
    """MatrixFamily of the given n x n BitMatrix values, packed into words."""
    nw = -(-n // 64)
    raw = b"".join(row.to_bytes(8 * nw, "little") for k in matrices for row in k.row_bits)
    words = np.frombuffer(raw, dtype=WORD).reshape(len(matrices), n, nw)
    return MatrixFamily(n, len(matrices), r, construction, words)
