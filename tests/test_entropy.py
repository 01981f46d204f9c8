import functools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rand_herm, rand_psd, zero_set_distribution
from qextract.entropy import (
    CLOSED_FORM,
    SDP,
    SolverConvergenceError,
    SupportError,
    h2_down,
    h_inf_down,
    h_min,
    h_min_blocks,
    k2_functional,
    p_guess,
)
from qextract.quantum import (
    CqState,
    DensityOperator,
    Instrument,
    System,
    partial_trace,
    purify,
    state_from_json,
    trace_norm,
)
from qextract.verify import measurement_instrument, random_cq_state


def maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = math.sqrt(0.5)
    return DensityOperator((System("A", 2), System("B", 2)), np.outer(phi, phi))


def helstrom_p_guess(b0, b1):
    """Two-hypothesis discrimination oracle on sub-normalized operators."""
    total = (b0 + b1).trace().real
    return 0.5 * (total + trace_norm(b0 - b1))


class TestHInfDown:
    def test_uniform_bit_times_anything(self, rng):
        x = System("X", 2, classical=True)
        b = System("B", 3)
        rho = CqState.from_blocks(x, (b,), [0.5 * rand_psd(rng, 3)] * 2)
        assert h_inf_down(rho, ["X"], ["B"]).value == pytest.approx(1.0, abs=1e-10)

    def test_maximally_entangled(self):
        res = h_inf_down(maximally_entangled(), ["A"], ["B"])
        assert res.value == pytest.approx(-1.0, abs=1e-10)
        assert res.kind == CLOSED_FORM

    def test_dense_oracle(self, rng):
        # independent evaluation without any block or support shortcuts
        for _ in range(25):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            rho = DensityOperator((System("A", da), System("B", db)),
                                  rand_psd(rng, da * db, float(rng.uniform(0.4, 1))))
            rb = partial_trace(rho, ["A"]).matrix
            vals, vecs = np.linalg.eigh(rb)
            inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
            big = np.kron(np.eye(da), inv_sqrt)
            lam = np.linalg.eigvalsh(big @ rho.matrix @ big).max()
            assert h_inf_down(rho, ["A"], ["B"]).value == pytest.approx(
                -math.log2(lam), abs=1e-8)


class TestH2Down:
    def test_uniform_string_trivial_condition(self):
        n = 3
        x = System("X", 2 ** n, classical=True)
        rho = DensityOperator((x,), np.eye(2 ** n) / 2 ** n)
        assert h2_down(rho, ["X"], []).value == pytest.approx(n, abs=1e-10)

    def test_maximally_entangled(self):
        assert h2_down(maximally_entangled(), ["A"], ["B"]).value == \
            pytest.approx(-1.0, abs=1e-9)

    def test_upper_bounds_h_min(self, rng):
        for seed in range(40):
            r = np.random.default_rng(seed)
            rho = random_cq_state(r, int(r.integers(2, 5)), int(r.integers(2, 5)),
                                  trace=float(r.uniform(0.4, 1.0)))
            hm = h_min(rho, ["Z"], ["E"])
            h2 = h2_down(rho, ["Z"], ["E"])
            assert hm.value <= h2.value + 1e-8


class TestTrivialConditioner:
    """A trivial conditioner is the 1x1 rho_B = tr(rho), so appending an
    independent pure system leaves the down entropies unchanged."""

    @pytest.mark.parametrize("entropy", [h_inf_down, h2_down])
    @pytest.mark.parametrize("trace", [0.5, 1.0])
    def test_appended_pure_system(self, rng, entropy, trace):
        mat = rand_psd(rng, 3, trace)
        pure = np.diag([1.0, 0.0])
        alone = entropy(DensityOperator((System("A", 3),), mat), ["A"])
        joint = entropy(DensityOperator((System("A", 3), System("B", 2)), np.kron(mat, pure)),
                        ["A"], ["B"])
        assert joint.value == pytest.approx(alone.value, abs=1e-12)


class TestSupportCheck:
    """Weight off the support of rho_B leaves the down entropies undefined."""

    @pytest.mark.parametrize("entropy", [h_inf_down, h2_down])
    @pytest.mark.parametrize("classical", [True, False])
    def test_weight_off_the_marginal_support(self, entropy, classical):
        # block 0 passes the PSD tolerance, but rho_B = [[1, 1e-6], [1e-6, 0]]
        # has support rank 1 and block 0 keeps weight 1e-6 off it
        blocks = [np.array([[0.5, 1e-6], [1e-6, 0.0]]), np.diag([0.5, 0.0])]
        x = System("X", 2, classical=classical)
        rho = DensityOperator((x, System("B", 2)), np.kron(np.diag([1.0, 0.0]), blocks[0])
                              + np.kron(np.diag([0.0, 1.0]), blocks[1]))
        with pytest.raises(SupportError, match="outside the support"):
            entropy(rho, ["X"], ["B"])


class TestHMin:
    def test_uniform_bit(self):
        x = System("X", 2, classical=True)
        rho = DensityOperator((x,), np.eye(2) / 2)
        res = h_min(rho, ["X"], [])
        assert res.value == 1.0 and res.kind == CLOSED_FORM

    def test_trivial_condition_closed_form(self, rng):
        # a quantum target on a one-dimensional conditioner: -log2 lambda_max
        mat = rand_psd(rng, 3, 0.8)
        rho = DensityOperator((System("A", 3), System("B", 1)), mat)
        lam = np.linalg.eigvalsh(mat).max()
        for condition in (["B"], []):
            target = ["A"] if condition else ["A", "B"]
            res = h_min(rho, target, condition)
            assert res.kind == CLOSED_FORM and res.iterations == 0
            assert res.value == pytest.approx(-math.log2(lam), abs=1e-12)
            assert res.sigma.shape == (1, 1)
        # 1x1 blocks of a classical target: -log2 max_x rho_x
        probs = rng.dirichlet([1.0] * 5)
        res = h_min_blocks([np.array([[p]]) for p in probs])
        assert res.kind == CLOSED_FORM
        assert res.value == -math.log2(probs.max())
        assert res.sigma[0, 0] == probs.max()

    def test_maximally_entangled(self):
        res = h_min(maximally_entangled(), ["A"], ["B"])
        assert res.value == pytest.approx(-1.0, abs=1e-7)
        assert res.kind == SDP

    def test_helstrom_oracle(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            p0, p1 = rng.dirichlet([1, 1])
            v0 = rng.normal(size=d) + 1j * rng.normal(size=d)
            v1 = rng.normal(size=d) + 1j * rng.normal(size=d)
            b0 = p0 * np.outer(v0, v0.conj()) / np.vdot(v0, v0).real
            b1 = p1 * np.outer(v1, v1.conj()) / np.vdot(v1, v1).real
            res = h_min_blocks([b0, b1], gap=1e-9)
            expect = -math.log2(helstrom_p_guess(b0, b1))
            assert res.value == pytest.approx(expect, abs=1e-7)

    def test_certificate_sandwich(self, rng):
        for seed in range(20):
            r = np.random.default_rng(seed)
            rho = random_cq_state(r, int(r.integers(2, 6)), int(r.integers(2, 5)))
            res = h_min(rho, ["Z"], ["E"], gap=1e-8)
            assert res.lower <= res.value <= res.upper
            assert res.gap <= 1e-8
            # primal feasibility of the certificate
            for blk in rho.blocks():
                assert np.linalg.eigvalsh(res.sigma - blk).min() >= -1e-9
            # dual witness is a (sub-normalized) POVM achieving the upper bound
            total = sum(res.witness)
            assert np.linalg.eigvalsh(total).max() <= 1.0 + 1e-10
            assert np.allclose(total, np.eye(total.shape[0]), atol=1e-6)
            gp = sum(float((w @ b).trace().real)
                     for w, b in zip(res.witness, rho.blocks()))
            assert gp == pytest.approx(2.0 ** -res.upper, rel=1e-9)

    def test_data_processing(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            sys = (System("A", 2), System("B", 2), System("C", 3))
            rho = DensityOperator(sys, rand_psd(r, 12, float(r.uniform(0.5, 1))))
            full = h_min(rho, ["A"], ["B", "C"])
            reduced = h_min(partial_trace(rho, ["C"]), ["A"], ["B"])
            assert full.value <= reduced.value + 1e-7

    def test_partition_validation(self):
        rho = maximally_entangled()
        with pytest.raises(ValueError, match="partition"):
            h_min(rho, ["A"], [])
        with pytest.raises(ValueError, match="overlap"):
            h_min(rho, ["A"], ["A", "B"])
        with pytest.raises(ValueError, match="gap"):
            h_min(rho, ["A"], ["B"], gap=0.0)

    def test_gap_must_be_positive(self):
        blocks = [np.eye(2) / 4, np.eye(2) / 4]
        for gap in (0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gap must be positive"):
                h_min(maximally_entangled(), ["A"], ["B"], gap=gap)
            with pytest.raises(ValueError, match="gap must be positive"):
                h_min_blocks(blocks, gap=gap)
            with pytest.raises(ValueError, match="gap must be positive"):
                h_min_blocks([np.eye(1) / 2] * 2, gap=gap)  # closed form too

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("d_b", [1, 2])
    def test_non_finite_blocks_rejected(self, value, d_b):
        # d_b = 1 takes the closed form, d_b = 2 the solver
        blocks = np.full((2, d_b, d_b), value)
        with pytest.raises(ValueError, match="finite"):
            h_min_blocks(blocks)
        blocks = np.array([np.eye(d_b) / 4, np.eye(d_b) / 4])
        blocks[1, 0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            h_min_blocks(blocks)

    @pytest.mark.parametrize("blocks", [[[1.0]], np.eye(2) / 2, np.zeros((2, 2, 3)),
                                        np.zeros((0, 2, 2))],
                             ids=["2d-list", "2d-array", "non-square", "empty"])
    def test_blocks_must_be_a_stack_of_square_matrices(self, blocks):
        with pytest.raises(ValueError, match=r"non-empty \(count, d, d\) stack"):
            h_min_blocks(blocks)

    @pytest.mark.parametrize("blocks", [np.zeros((2, 1, 1)), -np.eye(2)[None],
                                        np.zeros((3, 2, 2))],
                             ids=["zero-closed-form", "negative", "zero-solver"])
    def test_stack_without_positive_trace_rejected(self, blocks):
        with pytest.raises(ValueError, match="stack's trace must be positive"):
            h_min_blocks(blocks)

    def test_iteration_cap_reports_bracket(self, monkeypatch):
        import qextract.entropy as ent

        monkeypatch.setattr(ent, "MAX_OUTER", 4)
        rho = random_cq_state(np.random.default_rng(5), 3, 3)
        with pytest.raises(SolverConvergenceError) as exc:
            h_min(rho, ["Z"], ["E"], gap=1e-10)
        best = exc.value.best
        assert best.lower <= best.upper
        assert np.isfinite(best.lower)
        assert best.gap > 1e-10

    def test_singular_slack_in_first_iteration_reports_bracket(self, monkeypatch):
        import qextract.entropy as ent

        real = ent._SdpKernel.scaling
        calls = []

        def failing_once(self, sigma, z):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("singular slack matrix")
            return real(self, sigma, z)

        monkeypatch.setattr(ent._SdpKernel, "scaling", failing_once)
        rho = random_cq_state(np.random.default_rng(5), 3, 3)
        with pytest.raises(SolverConvergenceError) as exc:
            h_min(rho, ["Z"], ["E"], gap=1e-8)
        best = exc.value.best
        assert np.isfinite(best.lower) and np.isfinite(best.upper)
        assert best.lower <= best.upper
        assert best.iterations == 0


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _solver_cases():
    """(state, target, condition) for every fixture state and for seeded
    random cq states."""
    cases = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name)) as f:
            rho = state_from_json(json.load(f))
        names = list(rho.names())
        cases.append((rho, names[:1], names[1:]))
    for seed in range(12):
        r = np.random.default_rng(seed)
        rho = random_cq_state(r, int(r.integers(2, 6)), int(r.integers(2, 9)),
                              trace=float(r.uniform(0.4, 1.0)))
        cases.append((rho, ["Z"], ["E"]))
    return cases


def _random_isometry(rng, rows, cols):
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return np.linalg.qr(g)[0]


def _pure_rank_blocks(rng, d, rank, count):
    """count sub-normalized blocks of the given rank on C^d, summing to
    trace 1."""
    blocks = []
    for p in rng.dirichlet([1.0] * count):
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        b = g @ g.conj().T
        blocks.append(p * b / b.trace().real)
    return blocks


def _reduced_cases():
    """(state, target, condition) whose conditioning marginal is
    rank-deficient: product pure states with a quantum target, and cq
    states whose blocks share a two-dimensional support."""
    cases = []
    for seed in range(3):
        r = np.random.default_rng(100 + seed)
        a, b = _random_isometry(r, 3, 1)[:, 0], _random_isometry(r, 5, 1)[:, 0]
        psi = np.kron(a, b)
        cases.append((DensityOperator((System("A", 3), System("B", 5)), np.outer(psi, psi.conj())),
                      ["A"], ["B"]))
        iso = _random_isometry(r, 6, 2)
        blocks = [iso @ blk @ iso.conj().T for blk in _pure_rank_blocks(r, 2, 1, 4)]
        cases.append((CqState.from_blocks(System("Z", 4, classical=True), (System("E", 6),),
                                          blocks), ["Z"], ["E"]))
    return cases


def _without_pure(monkeypatch):
    """Switch the pure-block candidate off, so that pure blocks reach the
    predictor-corrector."""
    import qextract.entropy as ent

    monkeypatch.setattr(ent, "_pure", lambda *args: None)


class TestSolverSchedule:
    """The certificate runs once the duality gap of the iterate meets the
    request, so a converged solve certifies once, or twice after a miss."""

    @pytest.mark.parametrize("gap", [1e-6, 1e-8])
    def test_certificate_calls_and_brackets(self, monkeypatch, gap):
        import qextract.entropy as ent

        real = ent._SdpKernel.certificates
        calls = []

        def counting(self, sigma, z):
            calls.append(1)
            return real(self, sigma, z)

        monkeypatch.setattr(ent._SdpKernel, "certificates", counting)
        for rho, target, condition in _solver_cases() + _reduced_cases():
            calls.clear()
            res = h_min(rho, target, condition, gap=gap)
            assert len(calls) <= 2
            # up to 11 predictor-corrector iterations at gap 1e-8, 14 at 1e-10
            assert res.iterations <= 30
            assert res.lower <= res.value <= res.upper
            assert res.gap <= gap
            tight = h_min(rho, target, condition, gap=gap / 100)
            assert abs(res.value - tight.value) <= gap

    def test_every_case_converges_at_gap_1e_10(self):
        for rho, target, condition in _solver_cases() + _reduced_cases():
            res = h_min(rho, target, condition, gap=1e-10)
            assert res.lower <= res.value <= res.upper
            assert res.gap <= 1e-10

    @pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10])
    def test_reduced_solve_certifies_in_the_full_space(self, monkeypatch, gap):
        import qextract.entropy as ent

        real = ent._SdpKernel.scaling
        sizes = []

        def recording(self, sigma, z):
            sizes.append(sigma.shape[0])
            return real(self, sigma, z)

        monkeypatch.setattr(ent._SdpKernel, "scaling", recording)
        # the pure cq cases would settle with no iteration
        _without_pure(monkeypatch)
        cases = []
        for rho, target, condition in _solver_cases() + _reduced_cases():
            d_t = int(np.prod([s.dim for s in rho.systems if s.name in target]))
            rank = np.linalg.matrix_rank(partial_trace(rho, target).matrix, tol=1e-9)
            if rank < rho.dim // d_t:
                cases.append((rho, target, condition, d_t, rank))
        # the two counterexample fixtures and every case of _reduced_cases
        assert len(cases) == 8
        for rho, target, condition, d_t, rank in cases:
            d_b = rho.dim // d_t
            sizes.clear()
            res = h_min(rho, target, condition, gap=gap)
            # every iteration runs on the support, and only there
            assert set(sizes) == {rank}
            assert res.gap <= gap
            assert res.sigma.shape == (d_b, d_b)
            m = 1 if rho.systems[0].classical else d_t
            assert len(res.witness) == d_t // m
            for w in res.witness:
                assert w.shape == (m * d_b, m * d_b)
                np.linalg.cholesky(w)
            blocks = rho.blocks() if m == 1 else [rho.matrix]
            for blk in blocks:
                np.linalg.cholesky(np.kron(np.eye(m), res.sigma) - blk)


class TestSupportReduction:
    """Solves on the support of the conditioning marginal, certified on
    the original blocks."""

    @pytest.mark.parametrize("rank", [1, 2])
    def test_helstrom_closed_form_in_bracket(self, rank):
        # 2^-Hmin = (tr b0 + tr b1 + ||b0 - b1||_1) / 2 for two blocks
        for d in (2, 3, 4, 8, 12, 16):
            r = np.random.default_rng(1000 * rank + d)
            for _ in range(3):
                b0, b1 = _pure_rank_blocks(r, d, rank, 2)
                res = h_min_blocks([b0, b1], gap=1e-9)
                expect = -math.log2(helstrom_p_guess(b0, b1))
                assert res.lower <= expect <= res.upper
                assert res.gap <= 1e-9
                assert res.sigma.shape == (d, d)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), r=st.integers(1, 4), extra=st.integers(1, 4),
           count=st.integers(2, 5), zero=st.booleans())
    def test_embedding_invariance(self, seed, r, extra, count, zero):
        rng = np.random.default_rng(seed)
        blocks = [rand_psd(rng, r, p) for p in rng.dirichlet([1.0] * count)]
        if zero:
            blocks[0] = np.zeros((r, r), dtype=complex)
        iso = _random_isometry(rng, r + extra, r)
        small = h_min_blocks(blocks, gap=1e-8)
        big = h_min_blocks([iso @ b @ iso.conj().T for b in blocks], gap=1e-8)
        assert small.gap <= 1e-8 and big.gap <= 1e-8
        assert max(small.lower, big.lower) <= min(small.upper, big.upper)
        assert big.sigma.shape == (r + extra, r + extra)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d_a=st.integers(2, 3), d_c=st.integers(1, 3),
           extra=st.integers(1, 4))
    def test_quantum_target_embedding_invariance(self, seed, d_a, d_c, extra):
        rng = np.random.default_rng(seed)
        rho = rand_psd(rng, d_a * d_c, float(rng.uniform(0.5, 1.0)))
        iso = np.kron(np.eye(d_a), _random_isometry(rng, d_c + extra, d_c))
        a, c, b = System("A", d_a), System("C", d_c), System("B", d_c + extra)
        small = h_min(DensityOperator((a, c), rho), ["A"], ["C"], gap=1e-8)
        big = h_min(DensityOperator((a, b), iso @ rho @ iso.conj().T), ["A"], ["B"], gap=1e-8)
        assert small.gap <= 1e-8 and big.gap <= 1e-8
        assert max(small.lower, big.lower) <= min(small.upper, big.upper)
        assert big.sigma.shape == (d_c + extra, d_c + extra)

    def test_failed_lift_solves_in_the_full_space(self, monkeypatch):
        import qextract.entropy as ent

        real_scaling, real_certificates = ent._SdpKernel.scaling, ent._SdpKernel.certificates
        sizes, certified = [], []

        def recording(self, sigma, z):
            sizes.append(sigma.shape[0])
            return real_scaling(self, sigma, z)

        def failing_once(self, sigma, z):
            certified.append(1)
            if len(certified) == 1:
                raise np.linalg.LinAlgError("lifted slack is not positive definite")
            return real_certificates(self, sigma, z)

        monkeypatch.setattr(ent._SdpKernel, "scaling", recording)
        monkeypatch.setattr(ent._SdpKernel, "certificates", failing_once)
        # pure blocks: the candidate would take the failing certificate
        _without_pure(monkeypatch)
        r = np.random.default_rng(3)
        iso = _random_isometry(r, 6, 2)
        blocks = [iso @ b @ iso.conj().T for b in _pure_rank_blocks(r, 2, 1, 3)]
        res = h_min_blocks(blocks, gap=1e-8)
        assert res.gap <= 1e-8
        assert sizes[0] == 2 and sizes[-1] == 6
        expect = h_min_blocks([iso.conj().T @ b @ iso for b in blocks], gap=1e-8)
        assert max(res.lower, expect.lower) <= min(res.upper, expect.upper)

    def test_coherent_tilt_off_the_support(self):
        # pure blocks tilted out of a plane by 1e-7 leave eigenvalues of the
        # marginal near 1e-14 that are dropped, with cross terms to the plane
        # that the lifted slack may not cover; either way the bracket holds
        for seed in range(6):
            r = np.random.default_rng(seed)
            plane = _random_isometry(r, 6, 2)
            blocks = []
            for p in r.dirichlet([1.0] * 3):
                v = plane @ (r.normal(size=2) + 1j * r.normal(size=2)) \
                    + 1e-7 * (r.normal(size=6) + 1j * r.normal(size=6))
                blocks.append(p * np.outer(v, v.conj()) / np.vdot(v, v).real)
            for gap in (1e-6, 1e-8):
                res = h_min_blocks(blocks, gap=gap)
                assert res.lower <= res.value <= res.upper and res.gap <= gap
                for b in blocks:
                    np.linalg.cholesky(res.sigma - b)


def _commuting_blocks(seed, d, count, ties, zero, drop, proportional):
    """Blocks V diag(d_x) V^H for a random unitary V, with the diagonals
    d_x as a (count, d) array.  Each column k is scaled to sum to its own
    weight, so the marginal's nonzero eigenvalues are simple.  ``ties``
    draws small integers before scaling, so argmax ties are common;
    ``zero`` zeroes the first block, ``drop`` zeroes that many columns
    (a rank-deficient marginal), and ``proportional`` makes every block
    c_x M."""
    r = np.random.default_rng(seed)
    v = _random_isometry(r, d, d)
    if proportional:
        raw = r.uniform(size=(count, 1)) * np.ones((1, d))
    elif ties:
        raw = r.integers(0, 3, size=(count, d)).astype(float)
    else:
        raw = r.uniform(size=(count, d))
    if zero:
        raw[0] = 0.0
    raw[:, r.permutation(d)[:drop]] = 0.0
    col = raw.sum(axis=0)
    weight = r.permutation(np.arange(1.0, d + 1.0))
    diags = np.where(col > 0, raw / np.where(col > 0, col, 1.0) * weight, 0.0)
    diags /= max(diags.sum(), 1e-300) / float(r.uniform(0.5, 1.0))
    return [(v * x) @ v.conj().T for x in diags], diags


class TestCommutingBlocks:
    """Blocks diagonal in the eigenbasis of their marginal are certified
    from the argmax measurement, with no predictor-corrector iteration."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 6), count=st.integers(2, 16),
           ties=st.booleans(), zero=st.booleans(), drop=st.integers(0, 5),
           proportional=st.booleans())
    def test_certified_without_iterations(self, seed, d, count, ties, zero, drop, proportional):
        import qextract.entropy as ent

        blocks, diags = _commuting_blocks(seed, d, count, ties, zero, min(drop, d - 1),
                                          proportional)
        assume(diags.sum() > 0)
        expect = -math.log2(diags.max(axis=0).sum())
        kernel = ent._SdpKernel(1, np.array(blocks), d)
        for gap in (1e-6, 1e-8, 1e-10):
            res = h_min_blocks(blocks, gap=gap)
            assert res.kind == SDP and res.iterations == 0
            assert res.gap <= gap
            assert res.lower - 1e-12 <= expect <= res.upper + 1e-12
            sdp = ent._primal_dual(kernel, gap, functools.partial(ent._certify, kernel))
            assert sdp.iterations > 0
            assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)

    @pytest.mark.parametrize("seed", range(4))
    def test_off_diagonals_fall_back_to_the_sdp(self, seed):
        import qextract.entropy as ent

        r = np.random.default_rng(seed)
        d, count = 4, 3
        v = _random_isometry(r, d, d)
        blocks = []
        for x in r.uniform(0.05, 0.3, size=(count, d)):
            # diagonally dominant, so still positive semidefinite
            off = 1e-3 * rand_herm(r, d)
            np.fill_diagonal(off, 0.0)
            blocks.append(v @ (np.diag(x) + off) @ v.conj().T)
        kernel = ent._SdpKernel(1, np.array(blocks), d)
        eig = ent.herm_eig(kernel.rho.sum(axis=0))
        for gap in (1e-6, 1e-8, 1e-10):
            # the argmax candidate misses the gap; seeds 0 and 1 drop a
            # dominated block, and the two kept blocks' exact candidate
            # answers, the others iterate
            candidate = ent._commuting(kernel, eig, gap)
            assert candidate is None or ent._certify(kernel, *candidate, 0).gap > gap
            res = h_min_blocks(blocks, gap=gap)
            assert res.lower <= res.value <= res.upper and res.gap <= gap
            sdp = ent._primal_dual(kernel, gap, functools.partial(ent._certify, kernel))
            assert sdp.iterations > 0
            assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)

    def test_wide_gap_without_a_dual_witness(self):
        # at gap 16 and 32 the mix s = gap / 8 exceeds 1 and leaves the
        # argmax Z_x indefinite, so the candidate has no dual bound and the
        # SDP answers
        blocks, _ = _commuting_blocks(7, 4, 5, False, False, 0, False)
        for gap in (16.0, 32.0):
            res = h_min_blocks(blocks, gap=gap)
            assert res.lower <= res.value <= res.upper and res.gap <= gap


def _planted_blocks(seed, d, base, kinds, scales):
    """``base`` random full-rank blocks rho_y = A_y + B_y, then one block
    under a random rho_y per entry of ``kinds``: 0 the scaled copy
    c rho_y with c from ``scales``, 1 an exact duplicate, 2 rho_y - B_y.
    Returns the shuffled blocks and the base blocks."""
    r = np.random.default_rng(seed)
    parts = [(rand_psd(r, d, float(r.uniform(0.1, 1.0))),
              rand_psd(r, d, float(r.uniform(0.1, 1.0)))) for _ in range(base)]
    tops = [a + b for a, b in parts]
    planted = []
    for kind, c in zip(kinds, scales):
        y = int(r.integers(base))
        planted.append((c * tops[y], tops[y].copy(), tops[y] - parts[y][1])[kind])
    blocks = tops + planted
    return [blocks[i] for i in r.permutation(len(blocks))], tops


class TestDominatedBlocks:
    """Blocks that lie under another block are dropped before the
    predictor-corrector runs, and the solve still certifies on every
    block."""

    @staticmethod
    def _record(monkeypatch, name):
        import qextract.entropy as ent

        real, kernels = getattr(ent, name), []

        def recording(kernel, *args):
            kernels.append(kernel)
            return real(kernel, *args)

        monkeypatch.setattr(ent, name, recording)
        return kernels

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 5), base=st.integers(2, 4),
           kinds=st.lists(st.integers(0, 2), min_size=1, max_size=6),
           scales=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=6, max_size=6))
    def test_solves_on_the_kept_blocks(self, seed, d, base, kinds, scales):
        import qextract.entropy as ent

        blocks, tops = _planted_blocks(seed, d, base, kinds, scales)
        # no base block lies under another
        assume(all(np.linalg.eigvalsh(y - x)[0] < -1e-9
                   for x in tops for y in tops if x is not y))
        full = ent._SdpKernel(1, np.array(blocks), d)
        e = math.frexp(float(np.abs(full.rho).max()))[1]
        for gap in (1e-6, 1e-10):
            with pytest.MonkeyPatch.context() as patch:
                kernels = self._record(patch, "_primal_dual")
                res = h_min_blocks(blocks, gap=gap)
            assert res.lower <= res.value <= res.upper and res.gap <= gap
            try:
                sdp = ent._primal_dual(full, gap, functools.partial(ent._certify, full))
            except SolverConvergenceError as exc:
                # exact duplicates can leave the full-space solve without a
                # dual witness; its lower bound still stands
                sdp = exc.best
            assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)
            if base == 2:
                # two kept blocks take their exact candidate
                assert not kernels and res.iterations == 0
                continue
            # the first predictor-corrector kernel holds the base blocks only,
            # at the solver's power-of-two scale
            kept = kernels[0].rho * 2.0 ** e
            assert len(kept) == base
            assert all(any(np.array_equal(k, y) for y in tops) for k in kept)

    @pytest.mark.parametrize("seed", [0, 10, 12, 14])
    def test_chaining_source_keeps_one_block(self, monkeypatch, seed):
        # every conditional operator of these sources lies under one of
        # them, so its candidate certifies with no iteration (8, 7, 7 and 6
        # iterations in the full space)
        import qextract.entropy as ent
        from qextract import dira

        blocks = dira._exact_blocks(dira.gen_random_sv_spec(seed))
        real = ent._dominance
        kept = []

        def recording(kernel, gap, eig):
            reduced, lift = real(kernel, gap, eig)
            kept.append(reduced.count)
            return reduced, lift

        monkeypatch.setattr(ent, "_dominance", recording)
        res = h_min_blocks(blocks, gap=1e-6)
        assert kept == [1]
        assert res.iterations == 0 and res.gap <= 1e-6
        full = ent._SdpKernel(1, np.array(blocks), blocks.shape[-1])
        sdp = ent._primal_dual(full, 1e-6, functools.partial(ent._certify, full))
        assert sdp.iterations > 0
        assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)

    @pytest.mark.parametrize("seed", range(4))
    def test_wrong_drop_solves_in_the_full_space(self, monkeypatch, seed):
        import qextract.entropy as ent

        r = np.random.default_rng(seed)
        blocks = _pure_rank_blocks(r, 3, 1, 3)
        # the detector sees the largest block as zero, so drops it although
        # no other block covers it
        j = int(np.argmax([b.trace().real for b in blocks]))
        real_dominance, real_certificates = ent._dominance, ent._SdpKernel.certificates
        failed = []

        def wrong(kernel, gap, eig):
            rho = kernel.rho.copy()
            rho[j] = 0.0
            return real_dominance(ent._SdpKernel(1, rho, kernel.d_b), gap, eig)

        def recording(self, sigma, z):
            try:
                return real_certificates(self, sigma, z)
            except np.linalg.LinAlgError:
                failed.append(self.count)
                raise

        monkeypatch.setattr(ent, "_dominance", wrong)
        monkeypatch.setattr(ent._SdpKernel, "certificates", recording)
        # pure blocks: the candidate would settle them in the full space
        _without_pure(monkeypatch)
        kernels = self._record(monkeypatch, "_primal_dual")
        for gap in (1e-6, 1e-10):
            failed.clear()
            kernels.clear()
            res = h_min_blocks(blocks, gap=gap)
            assert failed and set(failed) == {3}
            assert kernels[-1].count == 3
            assert res.lower <= res.value <= res.upper and res.gap <= gap
            full = ent._SdpKernel(1, np.array(blocks), 3)
            sdp = ent._primal_dual(full, gap, functools.partial(ent._certify, full))
            assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)


class TestTwoBlocks:
    """Two blocks, given or kept, are certified from the Helstrom
    measurement with no predictor-corrector iteration."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 6), rank=st.integers(1, 6),
           ratio=st.floats(1e-6, 1.0), zero=st.booleans())
    def test_certified_without_iterations(self, seed, d, rank, ratio, zero):
        import qextract.entropy as ent

        r = np.random.default_rng(seed)
        b0, b1 = (np.zeros((d, d), complex) if zero else ratio * rand_psd(r, d),
                  _pure_rank_blocks(r, d, min(rank, d), 1)[0])
        expect = -math.log2(helstrom_p_guess(b0, b1))
        full = ent._SdpKernel(1, np.array([b0, b1]), d)
        for gap in (1e-6, 1e-10):
            res = h_min_blocks([b0, b1], gap=gap)
            assert res.kind == SDP and res.iterations == 0
            assert res.lower <= res.value <= res.upper and res.gap <= gap
            assert res.lower - 1e-12 <= expect <= res.upper + 1e-12
            sdp = ent._primal_dual(full, gap, functools.partial(ent._certify, full))
            assert sdp.iterations > 0
            assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)

    @pytest.mark.parametrize("gap", [16.0, 32.0])
    def test_wide_gap_without_a_dual_witness(self, gap):
        # s = gap / 8 exceeds 1 and leaves Z indefinite, so the SDP answers
        r = np.random.default_rng(3)
        blocks = [rand_psd(r, 3, 0.3), rand_psd(r, 3, 0.6)]
        res = h_min_blocks(blocks, gap=gap)
        assert res.lower <= res.value <= res.upper and res.gap <= gap

    @pytest.mark.parametrize("seed", [4, 9, 13, 23])
    def test_chaining_source_keeps_two_blocks(self, monkeypatch, seed):
        # two blocks of these sources cover every other one (7, 8, 8 and 7
        # iterations in the full space)
        import qextract.entropy as ent
        from qextract import dira

        blocks = dira._exact_blocks(dira.gen_random_sv_spec(seed))
        kernels = TestDominatedBlocks._record(monkeypatch, "_two_blocks")
        res = h_min_blocks(blocks, gap=1e-6)
        assert [k.count for k in kernels] == [2]
        assert res.iterations == 0 and res.gap <= 1e-6
        full = ent._SdpKernel(1, np.array(blocks), blocks.shape[-1])
        sdp = ent._primal_dual(full, 1e-6, functools.partial(ent._certify, full))
        assert sdp.iterations > 0
        assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)


def _pure_blocks(seed, d, count, zero, duplicates):
    """count pure blocks on C^d of total trace in [0.1, 1): the first is
    zero if ``zero``, and the last ``duplicates`` are exact copies of
    earlier ones."""
    r = np.random.default_rng(seed)
    vecs = r.normal(size=(count, d)) + 1j * r.normal(size=(count, d))
    weights = r.dirichlet([1.0] * count) * r.uniform(0.1, 1.0)
    blocks = [p * np.outer(v, v.conj()) / np.vdot(v, v).real for p, v in zip(weights, vecs)]
    if zero:
        blocks[0] = np.zeros((d, d), dtype=complex)
    for k in range(count - duplicates, count):
        blocks[k] = blocks[int(r.integers(k))].copy()
    return blocks


class TestPureBlocks:
    """Pure blocks are certified from an optimized weighted square-root
    measurement, with no predictor-corrector iteration."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 16), count=st.integers(2, 16),
           zero=st.booleans(), duplicates=st.integers(0, 3))
    def test_certified_without_iterations(self, seed, d, count, zero, duplicates):
        import qextract.entropy as ent

        # at least one block is neither zero nor a copy
        blocks = _pure_blocks(seed, d, count, zero, min(duplicates, count - 1 - zero))
        full = ent._SdpKernel(1, np.array(blocks), d)
        for gap in (1e-6, 1e-10):
            res = h_min_blocks(blocks, gap=gap)
            assert res.kind == SDP and res.iterations == 0
            assert res.lower <= res.value <= res.upper and res.gap <= gap
            assert res.sigma.shape == (d, d) and len(res.witness) == count
            for b in blocks:
                np.linalg.cholesky(res.sigma - b)
            for w in res.witness:
                np.linalg.cholesky(w)
            try:
                sdp = ent._primal_dual(full, gap, functools.partial(ent._certify, full))
            except SolverConvergenceError as exc:
                # exact duplicates can leave the full-space solve without a
                # dual witness; its lower bound still stands
                sdp = exc.best
            assert max(res.lower, sdp.lower) <= min(res.upper, sdp.upper)

    def test_mixed_set_rejected_before_any_step(self, monkeypatch):
        import qextract.entropy as ent

        real, steps = ent._weight_step, []

        def counting(*args):
            steps.append(1)
            return real(*args)

        monkeypatch.setattr(ent, "_weight_step", counting)
        pure = np.array(_pure_blocks(5, 4, 6, False, 0))
        r = np.random.default_rng(5)
        w = r.normal(size=4) + 1j * r.normal(size=4)
        mixed = pure.copy()
        # a second eigenvalue of about 1e-4 in one block costs far more
        # than the gap
        mixed[2] += 1e-4 * np.outer(w, w.conj()) / np.vdot(w, w).real
        gap = 1e-6
        for blocks, offered in ((pure, True), (mixed, False)):
            steps.clear()
            kernel = ent._SdpKernel(1, blocks, 4)
            eig = np.linalg.eigh(blocks.sum(axis=0))
            assert (ent._pure(kernel, eig, gap) is not None) == offered
            assert bool(steps) == offered
        steps.clear()
        res = h_min_blocks(mixed, gap=gap)
        assert not steps
        assert res.iterations > 0 and res.gap <= gap

    @pytest.mark.parametrize("d, count", [(4, 6), (6, 3)])
    def test_shrunk_candidate_is_refused(self, monkeypatch, d, count):
        # (4, 6) offers the candidate in the full space, (6, 3) on the
        # support of the marginal; either way the iterations settle it,
        # in the full space only
        import qextract.entropy as ent

        blocks = _pure_blocks(3, d, count, False, 0)
        expect = h_min_blocks(blocks, gap=1e-8)
        real_pure, real_certificates = ent._pure, ent._SdpKernel.certificates
        offered, refused = [], []

        def shrunk(kernel, eig, gap):
            candidate = real_pure(kernel, eig, gap)
            if candidate is None:
                return None
            offered.append(kernel.d_b)
            return (1.0 - 1e-6) * candidate[0], candidate[1]

        def recording(self, sigma, z):
            try:
                return real_certificates(self, sigma, z)
            except np.linalg.LinAlgError:
                refused.append(self.d_b)
                raise

        monkeypatch.setattr(ent, "_pure", shrunk)
        monkeypatch.setattr(ent._SdpKernel, "certificates", recording)
        kernels = TestDominatedBlocks._record(monkeypatch, "_primal_dual")
        res = h_min_blocks(blocks, gap=1e-8)
        assert offered == [min(d, count)] and refused == [d]
        assert [k.d_b for k in kernels] == [d] and res.iterations > 0
        assert res.lower <= res.value <= res.upper and res.gap <= 1e-8
        assert max(res.lower, expect.lower) <= min(res.upper, expect.upper)
        for b in blocks:
            np.linalg.cholesky(res.sigma - b)


def _bracket_cases():
    """name -> (m, stack of blocks, the path that must answer) for each way
    the solver makes a bracket.  The path is the last of ``_commuting``,
    ``_two_blocks``, ``_pure`` and ``_primal_dual`` to be called, with
    the (m, count, d_b) of its kernel."""
    r = np.random.default_rng(7)
    iso = _random_isometry(r, 6, 3)
    planted = np.array(_planted_blocks(7, 3, 3, [0, 1, 2], [0.5] * 3)[0])
    quantum = rand_psd(r, 6, 0.8)
    # a quantum target whose conditioning marginal has rank 2 of 4
    lift = np.kron(np.eye(2), _random_isometry(r, 4, 2))
    quantum_support = lift @ rand_psd(r, 4, 0.8) @ lift.conj().T
    return {
        "commuting": (1, np.array(_commuting_blocks(7, 4, 5, False, False, 0, False)[0]),
                      ("_commuting", (1, 5, 4))),
        "helstrom": (1, np.array([rand_psd(r, 3, 0.3), rand_psd(r, 3, 0.6)]),
                     ("_two_blocks", (1, 2, 3))),
        "pure": (1, np.array(_pure_blocks(7, 4, 6, False, 0)), ("_pure", (1, 6, 4))),
        "dominance": (1, planted, ("_primal_dual", (1, 3, 3))),
        # equal traces, so no block lies under another
        "support": (1, np.array([iso @ rand_psd(r, 3, 0.25) @ iso.conj().T
                                 for _ in range(4)]),
                    ("_primal_dual", (1, 4, 3))),
        "full": (1, np.array([rand_psd(r, 3, 0.25) for _ in range(4)]),
                 ("_primal_dual", (1, 4, 3))),
        "quantum": (2, quantum[None], ("_primal_dual", (2, 2, 3))),
        "quantum-support": (2, quantum_support[None], ("_primal_dual", (2, 2, 2))),
    }


class TestWitnessContract:
    """Every bracket is checked from its sigma and witness alone, with no
    solver code: each slack 1 (x) sigma - rho_x and each W_x pass
    Cholesky, lambda_max(sum_x tr_A W_x) <= 1, tr sigma = 2^-lower and
    sum_x tr(W_x rho_x) = 2^-upper."""

    @pytest.mark.parametrize("gap", [1e-6, 1e-10])
    @pytest.mark.parametrize("name", list(_bracket_cases()))
    def test_bracket_from_sigma_and_witness(self, monkeypatch, name, gap):
        import qextract.entropy as ent

        m, blocks, (path, shape) = _bracket_cases()[name]
        calls = []
        for fn in ("_commuting", "_two_blocks", "_pure", "_primal_dual"):
            def recording(kernel, *args, _real=getattr(ent, fn), _fn=fn):
                calls.append((_fn, (kernel.m, kernel.count, kernel.d_b)))
                return _real(kernel, *args)
            monkeypatch.setattr(ent, fn, recording)
        d = blocks.shape[-1] // m
        if m == 1:
            res = h_min_blocks(blocks, gap=gap)
        else:
            rho = DensityOperator((System("A", m), System("B", d)), blocks[0])
            res = h_min(rho, ["A"], ["B"], gap=gap)
        assert calls[-1] == (path, shape)
        assert res.gap <= gap
        assert (res.iterations > 0) == (path == "_primal_dual")
        for b in blocks:
            np.linalg.cholesky(np.kron(np.eye(m), res.sigma) - b)
        assert res.sigma.trace().real == pytest.approx(2.0 ** -res.lower, rel=1e-12)
        assert len(res.witness) == len(blocks)
        for w in res.witness:
            np.linalg.cholesky(w)
        total = sum(np.einsum("aiaj->ij", w.reshape(m, d, m, d)) for w in res.witness)
        assert np.linalg.eigvalsh(0.5 * (total + total.conj().T)).max() <= 1.0
        guess = sum(np.vdot(w, b).real for w, b in zip(res.witness, blocks))
        assert guess == pytest.approx(2.0 ** -res.upper, rel=1e-12)


class TestFailedCertificate:
    """Any certificate that fails Cholesky, a candidate's or a lifted
    iterate's, sends the solve to the iterations on every block in the
    full space."""

    def test_failed_candidate_iterates_in_the_full_space(self, monkeypatch):
        import qextract.entropy as ent

        # commuting blocks: the unchanged candidate settles them
        blocks, _ = _commuting_blocks(7, 4, 5, False, False, 0, False)
        real_candidate, real_certificates = ent._candidate, ent._SdpKernel.certificates
        refused = []

        def shrunk(kernel, eig, gap):
            sigma, z = real_candidate(kernel, eig, gap)
            return (1.0 - 1e-6) * sigma, z

        def recording(self, sigma, z):
            try:
                return real_certificates(self, sigma, z)
            except np.linalg.LinAlgError:
                refused.append(self.count)
                raise

        monkeypatch.setattr(ent, "_candidate", shrunk)
        monkeypatch.setattr(ent._SdpKernel, "certificates", recording)
        dominance = TestDominatedBlocks._record(monkeypatch, "_dominance")
        kernels = TestDominatedBlocks._record(monkeypatch, "_primal_dual")
        for gap in (1e-6, 1e-10):
            refused.clear()
            kernels.clear()
            res = h_min_blocks(blocks, gap=gap)
            assert refused == [5] and not dominance
            assert [(k.count, k.d_b) for k in kernels] == [(5, 4)]
            assert res.iterations > 0
            assert res.lower <= res.value <= res.upper and res.gap <= gap
            for b in blocks:
                np.linalg.cholesky(res.sigma - b)

    def test_no_suite_certificate_fails(self, monkeypatch):
        import qextract.entropy as ent
        from qextract import dira, verify

        real = ent._SdpKernel.certificates
        calls, refused = [], []

        def recording(self, sigma, z):
            calls.append(1)
            try:
                return real(self, sigma, z)
            except np.linalg.LinAlgError:
                refused.append(self.count)
                raise

        monkeypatch.setattr(ent._SdpKernel, "certificates", recording)
        verify.run_ip_suite(40)
        verify.run_deor_suite(24)
        dira.run_chaining_suite(40)
        assert calls and not refused


def _nt_oracle(blocks, sigma, zs, rhs):
    """Schur direction from the complex d^2 x d^2 system, assembled by
    applying D -> sum_x tr_A[W_x^-1 (1 (x) D) W_x^-1] to each matrix
    unit, with the Nesterov-Todd point
    W^-1 = S^-1/2 (S^1/2 Z S^1/2)^1/2 S^-1/2 from eigendecompositions."""
    d = sigma.shape[0]

    def power(mat, p):
        vals, vecs = np.linalg.eigh(mat)
        return (vecs * vals ** p) @ vecs.conj().T

    winvs = []
    for (m, b), z in zip(blocks, zs):
        s = np.kron(np.eye(m), sigma) - b
        s_half, s_mhalf = power(s, 0.5), power(s, -0.5)
        winvs.append((m, s_mhalf @ power(s_half @ z @ s_half, 0.5) @ s_mhalf))

    def ptrace(m, mat):
        return np.einsum("aiaj->ij", mat.reshape(m, d, m, d))

    schur = np.zeros((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[col] = 1.0
        unit = unit.reshape(d, d)
        schur[:, col] = sum(ptrace(m, w @ np.kron(np.eye(m), unit) @ w)
                            for m, w in winvs).reshape(-1)
    delta = np.linalg.solve(schur, rhs.reshape(-1)).reshape(d, d)
    return 0.5 * (delta + delta.conj().T)


class TestSchurDirection:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 5), m=st.integers(1, 3),
           count=st.integers(1, 4), corrector=st.booleans())
    def test_matches_complex_solve(self, seed, d, m, count, corrector):
        from qextract.entropy import _ptrace, _SdpKernel

        r = np.random.default_rng(seed)
        sigma = rand_psd(r, d, float(d))
        # slack blocks kron(1_m, sigma) - b that are positive definite
        blocks = np.stack([np.kron(np.eye(m), sigma)
                           - (rand_psd(r, m * d, float(m * d)) + 0.1 * np.eye(m * d))
                           for _ in range(count)])
        # dual blocks that are positive definite but not dual feasible
        z = np.stack([rand_psd(r, m * d, float(m)) + 0.1 * np.eye(m * d) for _ in range(count)])
        kernel = _SdpKernel(m, blocks, d)
        scal = kernel.scaling(sigma, z)
        gi = scal[0]
        gi_h = gi.conj().swapaxes(-1, -2)
        shift = None
        rhs = -np.eye(d, dtype=complex)
        if corrector:
            shift = rand_herm(r, m * d) * np.ones((count, 1, 1))
            rhs += _ptrace(m, d, gi_h @ shift @ gi)
        lam = scal[1]
        # G^-1 S G^-H = G^H Z G = diag(Lam) for every slack S and Z_x
        g = np.linalg.inv(gi)
        for scaled in (gi @ kernel.slacks(sigma) @ gi_h, g.conj().swapaxes(-1, -2) @ z @ g):
            assert np.linalg.norm(scaled - kernel.diag(lam)) <= 1e-9 * np.linalg.norm(lam)
        schur = kernel.schur(scal)
        # the predictor's steps from one eigvalsh equal those from both stacks
        _, (ds, dz) = kernel.direction(scal, schur)
        one, both = kernel.max_steps(lam, ds), kernel.max_steps(lam, ds, dz)
        assert np.allclose(1.0 / np.array(one), 1.0 / np.array(both), rtol=1e-9, atol=1e-12)
        dsigma, (_, dz) = kernel.direction(scal, schur, shift)
        expect = _nt_oracle([(m, b) for b in blocks], sigma, z, rhs)
        assert np.abs(dsigma - dsigma.conj().T).max() == 0.0
        assert np.linalg.norm(dsigma - expect) <= 1e-9 * np.linalg.norm(expect)
        # the dual step G^H dZ~ G restores sum_x tr_A Z_x = 1
        residual = np.eye(d) - _ptrace(m, d, z)
        moved = _ptrace(m, d, gi_h @ dz @ gi)
        assert np.linalg.norm(moved - residual) <= 1e-9 * np.linalg.norm(residual)


class TestPowerOfTwoScale:
    """The solver iterates on the blocks scaled to a largest entry in
    [1/2, 1), so blocks scaled by 2^-k take the same iterations and their
    bracket is shifted by k bits, up to the rounding of the log."""

    @pytest.mark.parametrize("k", [0, 66, 498, 996])
    def test_bracket_shifts_by_k_bits(self, k):
        blocks = random_cq_state(np.random.default_rng(5), 3, 3).blocks()
        base = h_min_blocks(blocks)
        res = h_min_blocks(2.0 ** -k * blocks)
        assert base.kind == SDP and base.iterations > 0
        assert res.iterations == base.iterations
        tol = 4 * math.ulp(k + 1.0)
        assert abs(res.lower - k - base.lower) <= tol
        assert abs(res.upper - k - base.upper) <= tol
        assert res.value == res.lower and res.gap <= 1e-8
        assert np.array_equal(res.sigma, 2.0 ** -k * base.sigma)


class TestPGuess:
    def test_deterministic(self):
        x = System("X", 2, classical=True)
        rho = DensityOperator((x,), np.diag([1.0, 0.0]))
        assert p_guess(rho, ["X"]).value == pytest.approx(1.0)

    def test_perfect_correlation(self):
        x = System("X", 2, classical=True)
        b = System("B", 2)
        blocks = [np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]
        rho = CqState.from_blocks(x, (b,), blocks)
        res = p_guess(rho, ["X"], ["B"])
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_requires_classical_target(self):
        with pytest.raises(ValueError, match="classical target"):
            p_guess(maximally_entangled(), ["A"], ["B"])
        x, b = System("X", 2, classical=True), System("B", 2)
        rho = CqState.from_blocks(x, (b,), [np.eye(2) / 4] * 2)
        with pytest.raises(ValueError, match=r"\['B'\] are quantum"):
            p_guess(rho, ["B"], ["X"])

    def test_target_and_condition_are_read(self):
        # X is a uniform 2-bit register; B holds a copy of its low bit
        x, b, c = System("X", 4, classical=True), System("B", 2), System("C", 2)
        blocks = [np.kron(np.diag(np.eye(2)[v & 1]), np.eye(2) / 2) / 4 for v in range(4)]
        rho = CqState.from_blocks(x, (b, c), blocks)
        assert p_guess(rho, ["X"], ["B", "C"]).value == pytest.approx(0.5, abs=1e-7)
        assert p_guess(rho, ["X"], ["C", "B"]).value == pytest.approx(0.5, abs=1e-7)
        with pytest.raises(ValueError, match="missing"):
            p_guess(rho, ["X"], ["B"])

    def test_zero_set_distribution_guessable(self):
        # measuring across the inner product's zero set leaks the target:
        # the side information admits a guess with probability >= 1/2
        from qextract.verify import build_eta_nu

        eta, _ = build_eta_nu(zero_set_distribution(2))
        assert p_guess(eta, ["X"], ["B"]).lower >= 0.5 - 1e-9

    def test_bracket_orientation(self, rng):
        rho = random_cq_state(np.random.default_rng(0), 4, 3)
        res = p_guess(rho, ["Z"], ["E"])
        assert res.lower <= res.value + 1e-12
        assert res.value <= res.upper + 1e-12
        # a probability: value is 2^-lower of h_min, the bracket's top
        assert res.value == res.upper


class TestK2Functional:
    def test_identity_instrument(self, rng):
        b = System("B", 3)
        inst = Instrument((b,), "Y", (b,), ((np.eye(3, dtype=complex),),))
        sigma = DensityOperator((b,), rand_psd(rng, 3))
        assert k2_functional(inst, sigma) == pytest.approx(0.0, abs=1e-10)

    def test_equality_for_tp_measurement(self, rng):
        # against the collision entropy of the purified output
        b = System("B", 2)
        sigma = DensityOperator((b,), rand_psd(rng, 2))
        inst = measurement_instrument(b, "Y")
        val = k2_functional(inst, sigma)
        pured = purify(sigma, "R")
        from qextract.quantum import apply_instrument

        out = apply_instrument(inst, pured)  # (Y, R)
        h2 = h2_down(out, ["Y"], ["R"]).value
        assert val == pytest.approx(h2, abs=1e-8)

    def test_trace_decreasing_dominates(self, rng):
        from qextract.quantum import apply_instrument
        from qextract.verify import random_instrument

        for seed in range(10):
            r = np.random.default_rng(seed)
            b = System("B", 3)
            inst = random_instrument(r, b, 1, 2, "Y", "T", scale=float(r.uniform(0.5, 0.95)))
            sigma = DensityOperator((b,), rand_psd(r, 3))
            val = k2_functional(inst, sigma)
            out = apply_instrument(inst, purify(sigma, "R"))
            out = partial_trace(out, ["T"])
            h2 = h2_down(out, ["Y"], ["R"]).value
            assert val >= h2 - 1e-9

    def test_dimension_mismatch(self, rng):
        b = System("B", 3)
        inst = measurement_instrument(b, "Y")
        with pytest.raises(ValueError, match="does not match"):
            k2_functional(inst, DensityOperator((System("C", 2),), np.eye(2) / 2))


class TestOrderingChain:
    def test_small_batch(self):
        for seed in range(25):
            r = np.random.default_rng(seed)
            if seed % 2:
                rho = random_cq_state(r, int(r.integers(2, 5)), int(r.integers(2, 5)),
                                      trace=float(r.uniform(0.3, 1.0)))
                t, c = ["Z"], ["E"]
            else:
                da, db = int(r.integers(2, 5)), int(r.integers(2, 5))
                rho = DensityOperator((System("A", da), System("B", db)),
                                      rand_psd(r, da * db, float(r.uniform(0.3, 1.0))))
                t, c = ["A"], ["B"]
            hi = h_inf_down(rho, t, c).value
            hm = h_min(rho, t, c)
            h2 = h2_down(rho, t, c).value
            assert hi <= hm.value + 1e-8
            assert hm.value <= h2 + 1e-8
