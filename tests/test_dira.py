import math

import numpy as np
import pytest

from conftest import loop_cq_state, outcome_probs
from qextract.dira import (
    DiraParams,
    SvSourceSpec,
    check_chaining,
    dira_epsilon,
    dira_rate,
    gen_random_sv_spec,
    simulate_sv_exact,
)
from qextract.entropy import h_inf_down, h_min_blocks


def memoryless(p_one):
    """The kernel of a step with no memory that emits 1 with probability p_one."""
    return np.array([[[1.0 - p_one]], [[p_one]]])


def classical_sv_chain(cond_probs):
    """Spec whose memory carries a perfect copy of the emitted bits.

    cond_probs[i] maps each history value (little-endian packed) to
    P(x_i = 1 | history).
    """
    steps = []
    d = 1
    for i, table in enumerate(cond_probs):
        d_out = 2 ** (i + 1)
        kernel = np.zeros((2, d_out, d))
        for r in range(d):
            p1 = table[r]
            kernel[0, r, r] = 1.0 - p1          # new bit appended at the top
            kernel[1, r + d, r] = p1
        steps.append(kernel)
        d = d_out
    return steps


def joint_distribution(cond_probs):
    """Independent dynamic-programming oracle for P(x^n)."""
    n = len(cond_probs)
    probs = np.zeros(2 ** n)
    for v in range(2 ** n):
        p = 1.0
        hist = 0
        for i in range(n):
            bit = (v >> i) & 1
            p1 = cond_probs[i][hist]
            p *= p1 if bit else 1.0 - p1
            hist |= bit << i
        probs[v] = p
    return probs


def loop_sv_spec(seed, n=None, mu=None):
    """Loop oracle for ``gen_random_sv_spec``: one generator call per draw,
    a Dirichlet call per (row, bit) of each kernel."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 5))
    if mu is None:
        mu = float(rng.choice([0.0, 0.1, 0.25, 0.4]))
    d_r = int(rng.integers(1, 5))
    steps = []
    d_in = d_r
    for i in range(n):
        d_out = int(rng.integers(1, 5))
        kernel = np.zeros((2, d_out, d_in))
        for r in range(d_in):
            if rng.uniform() < 0.5:
                p_one = 0.5 + mu if rng.uniform() < 0.5 else 0.5 - mu
            else:
                p_one = float(rng.uniform(0.5 - mu, 0.5 + mu))
            for x, px in enumerate((1.0 - p_one, p_one)):
                split = rng.dirichlet(np.ones(d_out))
                kernel[x, :, r] = px * split
        steps.append(kernel)
        d_in = d_out
    d_e = int(rng.integers(1, 5))
    rho_init = loop_cq_state(rng, d_r, d_e, cl_name="R0", q_name="E")
    return SvSourceSpec(mu, tuple(steps), rho_init)


class TestGenRandomSvSpec:
    """A seed names a source: the chaining suite and the benchmark's chain
    schedule pick their instances by seed."""

    @staticmethod
    def assert_same(got, want):
        assert got.mu == want.mu
        assert len(got.steps) == len(want.steps)
        for a, b in zip(got.steps, want.steps):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(got.rho_init.matrix, want.rho_init.matrix)
        assert got.rho_init.systems == want.rho_init.systems

    def test_matches_loop_oracle(self):
        for seed in range(2000):
            self.assert_same(gen_random_sv_spec(seed), loop_sv_spec(seed))

    def test_matches_loop_oracle_with_overrides(self):
        # n from 1 to 6 and biases off the drawn grid, up to the boundary
        for seed in range(2000):
            n = 1 + seed % 6 if seed % 3 != 1 else None
            mu = (0.0, 0.05, 0.3, 0.49)[seed % 4] if seed % 3 != 0 else None
            self.assert_same(gen_random_sv_spec(seed, n=n, mu=mu),
                             loop_sv_spec(seed, n=n, mu=mu))


class TestSpecValidation:
    @staticmethod
    def rejects(kernel, match):
        """The message for a bad kernel as the first step, and as the
        second step after a good one, where it names step 1."""
        with pytest.raises(ValueError, match=f"^step 0.*{match}"):
            SvSourceSpec(0.0, (kernel,))
        with pytest.raises(ValueError, match=f"^step 1.*{match}"):
            SvSourceSpec(0.0, (memoryless(0.5), kernel))

    def test_shape(self):
        self.rejects(np.ones((3, 1, 1)), "shape")
        self.rejects(np.ones((2, 1)), "shape")

    def test_empty_kernels(self):
        # rejected with the shape message, not numpy's empty reduction error
        self.rejects(np.ones((2, 0, 1)), "shape")
        self.rejects(np.ones((2, 1, 0)), "shape")

    def test_negative_entry(self):
        self.rejects(np.array([[[-0.1]], [[1.1]]]), "negative")

    def test_non_finite(self):
        for bad in (np.nan, np.inf):
            self.rejects(np.full((2, 1, 1), bad), "non-finite")
        self.rejects(np.array([[[0.5]], [[np.nan]]]), "non-finite")

    def test_columns_sum_to_one(self):
        self.rejects(np.array([[[0.3]], [[0.3]]]), "sum to one")

    def test_memory_dims_chained(self):
        # the first step emits memory 2; the second expects 1
        with pytest.raises(ValueError, match="^step 1 expects memory 1, previous emits 2"):
            SvSourceSpec(0.0, (np.full((2, 2, 1), 0.25), memoryless(0.5)))

    def test_bias_enforced(self):
        with pytest.raises(ValueError, match="^step 0 leaks outcome probability"):
            SvSourceSpec(0.1, (memoryless(0.7),))
        with pytest.raises(ValueError, match="^step 1 leaks outcome probability"):
            SvSourceSpec(0.1, (memoryless(0.5), memoryless(0.7)))
        SvSourceSpec(0.2, (memoryless(0.7),))  # fine at mu = 0.2

    def test_steps_are_read_only(self):
        for spec in (gen_random_sv_spec(3), SvSourceSpec(0.0, (memoryless(0.5),) * 2)):
            for kernel in spec.steps:
                with pytest.raises(ValueError, match="read-only"):
                    kernel[0, 0, 0] = 0.5

    def test_caller_arrays_stay_writeable(self):
        # the spec freezes copies, whether it is built or fails at step 1
        good, bad = memoryless(0.5), np.array([[[0.3]], [[0.3]]])
        spec = SvSourceSpec(0.0, (good, good))
        with pytest.raises(ValueError, match="^step 1.*sum to one"):
            SvSourceSpec(0.0, (good, bad))
        assert good.flags.writeable and bad.flags.writeable
        good[0, 0, 0] = 0.25
        assert spec.steps[0][0, 0, 0] == spec.steps[1][0, 0, 0] == 0.5

    def test_nested_list_stored_as_float64(self):
        spec = SvSourceSpec(0.0, ([[[0.5]], [[0.5]]],))
        (kernel,) = spec.steps
        assert isinstance(kernel, np.ndarray) and kernel.dtype == np.float64
        assert np.array_equal(kernel, memoryless(0.5))
        assert not kernel.flags.writeable


class TestExactSimulation:
    def test_unbiased_uniform(self):
        spec = SvSourceSpec(0.0, tuple(memoryless(0.5) for _ in range(3)))
        rho = simulate_sv_exact(spec)
        assert np.allclose(outcome_probs(rho), 1 / 8)

    def test_deterministic_leaning_per_step_entropy(self):
        delta = 0.2
        step = memoryless(1.0 - delta)  # mu = 1/2 - delta
        spec = SvSourceSpec(0.5 - delta, (step,))
        rho = simulate_sv_exact(spec)
        h = h_inf_down(rho, ["Xn"], ["E"]).value
        assert h >= -math.log2(1.0 - delta) - 1e-12

    def test_classical_chain_matches_dp_oracle(self, rng):
        cond = [rng.uniform(0.3, 0.7, size=2 ** i) for i in range(3)]
        steps = classical_sv_chain(cond)
        spec = SvSourceSpec(0.2, tuple(steps))
        got = outcome_probs(simulate_sv_exact(spec))
        assert np.allclose(got, joint_distribution(cond), atol=1e-12)

    def test_bit_order_is_little_endian(self):
        # first step emits a deterministic 1, second a deterministic 0:
        # the string is x0=1, x1=0, so the packed index must be 1
        spec = SvSourceSpec(0.49, (memoryless(0.99), memoryless(0.01)))
        probs = outcome_probs(simulate_sv_exact(spec))
        assert probs.argmax() == 1

    def test_step_cap(self):
        spec = SvSourceSpec(0.0, tuple(memoryless(0.5) for _ in range(9)))
        with pytest.raises(ValueError, match="at most"):
            simulate_sv_exact(spec)


class TestChaining:
    def test_unbiased_three_bits(self):
        spec = SvSourceSpec(0.0, tuple(memoryless(0.5) for _ in range(3)))
        rep = check_chaining(spec)
        assert rep.bound == 3.0
        assert rep.entropy.value == pytest.approx(3.0, abs=1e-7)
        assert rep.holds

    def test_iid_biased_equality(self):
        mu = 0.25
        spec = SvSourceSpec(mu, tuple(memoryless(0.5 + mu) for _ in range(3)))
        rep = check_chaining(spec)
        assert rep.entropy.value == pytest.approx(-3 * math.log2(0.5 + mu), abs=1e-7)
        assert rep.holds

    def test_correlated_steps_with_slack(self):
        # two steps whose bias direction flips with the memory
        kernel1 = np.zeros((2, 2, 1))
        kernel1[0, 0, 0] = 0.75
        kernel1[1, 1, 0] = 0.25
        kernel2 = np.zeros((2, 1, 2))
        kernel2[0, 0, 0] = 0.25
        kernel2[1, 0, 0] = 0.75
        kernel2[0, 0, 1] = 0.75
        kernel2[1, 0, 1] = 0.25
        spec = SvSourceSpec(0.25, (kernel1, kernel2))
        rep = check_chaining(spec)
        assert rep.holds
        assert rep.slack >= -1e-8

    def test_adversarial_batch(self):
        for seed in range(8):
            rep = check_chaining(gen_random_sv_spec(seed), gap=1e-7)
            assert rep.holds, (seed, rep.to_json_dict())

    def test_same_bracket_as_the_simulated_state(self):
        # check_chaining solves on the simulated blocks without building
        # the dense cq state; the bracket must not change
        for seed in range(200):
            spec = gen_random_sv_spec(seed)
            rep = check_chaining(spec, gap=1e-6)
            ref = h_min_blocks(simulate_sv_exact(spec).blocks(), gap=1e-6)
            assert (rep.entropy.lower, rep.entropy.upper) == (ref.lower, ref.upper), seed


class TestRateCalculator:
    def test_zero_bias_reduction(self):
        p = DiraParams(n=10_000, h=1.0, mu=0.0, eps=1e-6, eps_s=1e-9, c=2.0)
        expect = math.floor(0.5 * p.n * p.h - math.log2(1 / (2 * (p.eps - p.eps_s)))
                            - p.c * math.sqrt(p.n))
        assert dira_rate(p).m == expect

    def test_rate_condition_flag_boundary(self):
        # 2 k2 + h = 2 exactly: mu such that k2 = (2 - h) / 2
        h = 0.8
        mu = 2.0 ** -(1.0 - h / 2.0) - 0.5
        at = DiraParams(n=1000, h=h, mu=mu, eps=1e-6, eps_s=1e-9)
        assert dira_rate(at).flag
        below = DiraParams(n=1000, h=h, mu=mu + 1e-6, eps=1e-6, eps_s=1e-9)
        assert dira_rate(below).flag
        above = DiraParams(n=10 ** 7, h=h, mu=mu - 1e-3, eps=1e-6, eps_s=1e-9)
        assert not dira_rate(above).flag

    def test_non_positive_expression_flagged(self):
        p = DiraParams(n=10, h=1.0, mu=0.0, eps=1e-6, eps_s=1e-9, c=100.0)
        res = dira_rate(p)
        assert res.flag and res.m == 0

    def test_concrete_spreadsheet_value(self):
        p = DiraParams(n=10 ** 6, h=1.2, mu=0.1, eps=1e-6, eps_s=1e-9, c=10.0)
        k2 = -math.log2(0.6)
        raw = 500_000 * (2 * k2 + 1.2 - 2) - math.log2(1 / (2 * (1e-6 - 1e-9))) - 10_000
        assert dira_rate(p).m == math.floor(raw)
        assert dira_rate(p).m == 326946

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiraParams(n=0, h=1, mu=0, eps=1e-6, eps_s=1e-9)
        with pytest.raises(ValueError):
            DiraParams(n=10, h=1, mu=0.5, eps=1e-6, eps_s=1e-9)
        with pytest.raises(ValueError):
            DiraParams(n=10, h=1, mu=0, eps=1e-9, eps_s=1e-6)


class TestEpsilonCalculator:
    def test_rate_inversion_consistency(self):
        p = DiraParams(n=10 ** 6, h=1.2, mu=0.1, eps=1e-6, eps_s=1e-9, c=10.0)
        res = dira_rate(p)
        assert not res.flag
        assert dira_epsilon(p, res.m) <= p.eps + 1e-12

    def test_limit_is_smoothing_share(self):
        p = DiraParams(n=10 ** 8, h=1.9, mu=0.0, eps=1e-6, eps_s=1e-9, c=0.0)
        assert dira_epsilon(p, 0) == pytest.approx(p.eps_s, abs=0.0)

    def test_doubling_structure(self):
        p = DiraParams(n=10, h=1.5, mu=0.05, eps=1e-1, eps_s=1e-9, c=0.0)
        e0 = dira_epsilon(p, 0) - p.eps_s
        e1 = dira_epsilon(p, 1) - p.eps_s
        assert e0 > 0
        assert e1 / e0 == pytest.approx(2.0, rel=1e-9)

    def test_negative_m_rejected(self):
        p = DiraParams(n=10, h=1.0, mu=0.0, eps=1e-3, eps_s=1e-6)
        with pytest.raises(ValueError):
            dira_epsilon(p, -1)

    def test_grid_consistency(self):
        count = 0
        for n in (10 ** 3, 10 ** 5):
            for h in (0.5, 1.1, 1.9):
                for mu in (0.0, 0.1, 0.3):
                    for c in (0.0, 5.0):
                        p = DiraParams(n=n, h=h, mu=mu, eps=1e-6, eps_s=1e-9, c=c)
                        res = dira_rate(p)
                        if not res.flag:
                            assert dira_epsilon(p, res.m) <= p.eps + 1e-12
                            count += 1
        assert count > 5
