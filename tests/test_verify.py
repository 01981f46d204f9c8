import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_of, identity_matrix, zero_set_distribution
from qextract.entropy import h_min_blocks
from qextract.extractor import DEOR, IP, ExtractorSpec
from qextract.gf2 import build_circulant_family, build_field_family
from qextract.quantum import CqState, DensityOperator, Instrument, System, trace_norm
from qextract.verify import (
    MARKOV_COUNTEREXAMPLE_HMIN,
    MARKOV_EXTENSION_HMIN,
    ScenarioInstance,
    _branch_blocks,
    alt_model_roundtrip_error,
    build_eta_nu,
    check_deor_bound,
    check_ip_bound,
    check_xor_lemma,
    distribution_instance,
    gen_markov_counterexample,
    gen_random_instance,
    gen_tightness,
    measured_epsilon,
    measurement_instrument,
    random_cq_state,
    run_deor_suite,
    run_tightness,
)


def brute_force_epsilon(p, strong):
    """Distribution-level oracle for the one-bit extractor: everything
    classical, no side information."""
    n_vals = p.shape[0]
    eps = 0.0
    if strong:
        for y in range(n_vals):
            pz = [0.0, 0.0]
            for x in range(n_vals):
                pz[(x & y).bit_count() & 1] += p[x, y]
            py = sum(pz)
            eps += abs(pz[0] - py / 2) + abs(pz[1] - py / 2)
    else:
        pz = [0.0, 0.0]
        for x, y in itertools.product(range(n_vals), repeat=2):
            pz[(x & y).bit_count() & 1] += p[x, y]
        eps += abs(pz[0] - 0.5) + abs(pz[1] - 0.5)
    return 0.5 * eps


class TestMeasuredEpsilon:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("strong", [True, False])
    def test_independent_uniform(self, n, strong):
        # with y = 0 the output bit is deterministic, so the distance is
        # exactly 2^-(n+1) rather than zero
        p = np.full((2 ** n, 2 ** n), 4.0 ** -n)
        inst = distribution_instance(p, ExtractorSpec(IP, n), strong=strong)
        got = measured_epsilon(inst)
        assert got == pytest.approx(brute_force_epsilon(p, strong), abs=1e-12)
        assert got == pytest.approx(2.0 ** -(n + 1), abs=1e-12)

    def test_sn_support_distribution(self):
        p = zero_set_distribution(2)
        inst = distribution_instance(p, ExtractorSpec(IP, 2), strong=True)
        assert measured_epsilon(inst) == pytest.approx(0.5, abs=1e-12)

    def test_matches_distribution_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 3))
            p = rng.dirichlet(np.ones(4 ** n)).reshape(2 ** n, 2 ** n)
            strong = bool(rng.integers(0, 2))
            inst = distribution_instance(p, ExtractorSpec(IP, n), strong=strong)
            assert measured_epsilon(inst) == pytest.approx(
                brute_force_epsilon(p, strong), abs=1e-10)

    def test_monotone_under_discarding_side_information(self):
        for seed in range(6):
            inst = gen_random_instance(seed, n_bits=2, strong=False)
            dropped = ScenarioInstance(
                inst.rho_ab, _trace_out_side(inst.m_inst), inst.n_inst,
                inst.ext, strong=False)
            assert measured_epsilon(dropped) <= measured_epsilon(inst) + 1e-9


def loop_epsilon(inst: ScenarioInstance) -> float:
    """Loop oracle for ``measured_epsilon``: one einsum per (x, y, Kraus
    operator), one ``apply_ints`` call per (x, y), one trace norm per
    output value."""
    tau = _branch_blocks(inst.m_inst, inst.rho_ab)  # on (S, B)
    d_s = inst.m_inst.output_dim
    d_b = inst.n_inst.input_dim
    d_t = inst.n_inst.output_dim
    blocks = {}
    for x, tx in enumerate(tau):
        t4 = tx.reshape(d_s, d_b, d_s, d_b)
        for y, ops in enumerate(inst.n_inst.kraus):
            b = np.zeros((d_s * d_t, d_s * d_t), dtype=complex)
            for k in ops:
                kt = np.einsum("ai,risj,bj->rasb", k, t4, k.conj())
                b += kt.reshape(d_s * d_t, d_s * d_t)
            blocks[x, y] = b
    n_vals = 2 ** inst.ext.n
    m_vals = 2 ** inst.ext.m
    d = d_s * d_t
    total = 0.0
    if inst.strong:
        for y in range(n_vals):
            az = np.zeros((m_vals, d, d), dtype=complex)
            for x in range(n_vals):
                az[inst.ext.apply_ints(x, y)] += blocks[x, y]
            marg = az.sum(axis=0)
            for z in range(m_vals):
                total += trace_norm(az[z] - marg / m_vals)
    else:
        az = np.zeros((m_vals, d, d), dtype=complex)
        for (x, y), b in blocks.items():
            az[inst.ext.apply_ints(x, y)] += b
        marg = az.sum(axis=0)
        for z in range(m_vals):
            total += trace_norm(az[z] - marg / m_vals)
    return 0.5 * total


FAMILIES = [build_field_family(2, 1), build_field_family(2, 2), build_field_family(3, 1),
            build_field_family(3, 2), build_circulant_family(3, 1),
            build_circulant_family(3, 2)]


class TestBatchedEpsilon:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), family=st.sampled_from([None] + FAMILIES),
           n_bits=st.integers(1, 3), strong=st.booleans(), split_kraus=st.booleans())
    def test_matches_loop_oracle(self, seed, family, n_bits, strong, split_kraus):
        ext = None if family is None else ExtractorSpec(DEOR, family.n, family.m, family)
        inst = gen_random_instance(seed, n_bits=n_bits, ext=ext, strong=strong)
        if split_kraus:
            # several Kraus operators per outcome y
            inst = ScenarioInstance(inst.rho_ab, inst.m_inst, _trace_out_side(inst.n_inst),
                                    inst.ext, strong=strong)
        assert measured_epsilon(inst) == pytest.approx(loop_epsilon(inst), abs=1e-12)

    @pytest.mark.parametrize("strong, split_kraus", [(True, False), (False, False),
                                                     (True, True)])
    def test_n4_matches_loop_oracle(self, strong, split_kraus):
        # n = 4 groups 256 blocks (x, y) into 32 sums (y, z); seed 13 has
        # d_s = d_b = d_t = 4, so a split far instrument has 4 operators per y
        inst = gen_random_instance(13, n_bits=4, strong=strong)
        if split_kraus:
            inst = ScenarioInstance(inst.rho_ab, inst.m_inst, _trace_out_side(inst.n_inst),
                                    inst.ext, strong=strong)
            assert {len(ops) for ops in inst.n_inst.kraus} == {4}
        assert measured_epsilon(inst) == pytest.approx(loop_epsilon(inst), abs=1e-12)

    @pytest.mark.parametrize("check, ext", [
        (check_ip_bound, None),
        (check_deor_bound, ExtractorSpec(DEOR, FAMILIES[3].n, FAMILIES[3].m, FAMILIES[3]))])
    def test_each_instrument_evaluated_once(self, monkeypatch, check, ext):
        # the near instrument's branches serve k1 and epsilon, the far
        # instrument's serve k2; epsilon applies the far Kraus operators itself
        acted = []
        branches = Instrument.branches

        def spy(self, t):
            acted.append(self)
            return branches(self, t)

        monkeypatch.setattr(Instrument, "branches", spy)
        inst = gen_random_instance(13, n_bits=3, ext=ext, strong=True)
        check(inst)
        assert acted == [inst.m_inst, inst.n_inst]

    def test_each_output_table_built_once(self, monkeypatch):
        # twelve instances over the deor suite's six families
        from qextract import extractor

        real, jobs = extractor.extract_blocks, []

        def spy(job, *args):
            jobs.append(job.spec)
            return real(job, *args)

        monkeypatch.setattr(extractor, "extract_blocks", spy)
        extractor.output_table.cache_clear()
        run_deor_suite(12)
        assert 1 <= len(jobs) <= 6
        with pytest.raises(ValueError, match="read-only"):
            extractor.output_table(jobs[0])[0, 0] = 1


def _trace_out_side(inst: Instrument) -> Instrument:
    """Compose an instrument with discarding its quantum output."""
    if not inst.output_systems:
        return inst
    d_out = inst.output_dim
    kraus = []
    for ops in inst.kraus:
        rows = []
        for k in ops:
            for s in range(d_out):
                rows.append(k[s:s + 1, :])
        kraus.append(tuple(rows))
    return Instrument(inst.input_systems, inst.outcome_name, (), tuple(kraus))


class TestTightness:
    def test_equality_and_exact_half(self):
        rep = run_tightness(2)
        assert rep.measured == 0.5
        assert rep.bound == 0.5
        assert rep.k1.value == 1.0 and rep.k2.value == 1.0

    def test_n4(self):
        rep = check_ip_bound(gen_tightness(4))
        assert rep.measured == rep.bound == 0.5
        assert rep.k1.value == 2.0

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            gen_tightness(3)


class TestIpBound:
    def test_random_instances_never_violate(self):
        for seed in range(12):
            rep = check_ip_bound(gen_random_instance(seed), gap=1e-6)
            assert rep.passed, rep.to_json_dict()

    def test_exhaustive_two_value_grid(self):
        # every distribution with probabilities in {0, 1/4, 1/2, 3/4, 1}
        # over a pair of single bits
        grid = [i / 4 for i in range(5)]
        count = 0
        for cells in itertools.product(grid, repeat=4):
            if abs(sum(cells) - 1.0) > 1e-12:
                continue
            p = np.array(cells).reshape(2, 2)
            inst = distribution_instance(p, ExtractorSpec(IP, 1), strong=True)
            rep = check_ip_bound(inst, gap=1e-6)
            assert rep.passed, (cells, rep.measured, rep.bound)
            count += 1
        assert count > 10

    def test_report_fields(self):
        rep = check_ip_bound(gen_random_instance(3), gap=1e-6)
        d = rep.to_json_dict()
        assert {"kind", "measured", "bound", "margin", "passed", "k1", "k2"} <= set(d)


class TestDeorBound:
    def test_identity_family_matches_ip_with_bookkeeping(self):
        fam = family_of(2, 0, "explicit", (identity_matrix(2),))
        base = gen_random_instance(11, n_bits=2)
        deor_inst = ScenarioInstance(base.rho_ab, base.m_inst, base.n_inst,
                                     ExtractorSpec(DEOR, 2, 1, fam), strong=True)
        rep_ip = check_ip_bound(base, gap=1e-6)
        rep_deor = check_deor_bound(deor_inst, gap=1e-6)
        assert rep_deor.measured == pytest.approx(rep_ip.measured, abs=1e-12)
        # bound inflated by the 2^m factor of the multi-bit reduction
        assert rep_deor.bound == pytest.approx(2.0 * rep_ip.bound, rel=1e-9)

    def test_circulant_instances(self):
        from qextract.gf2 import build_circulant_family

        fam = build_circulant_family(3, 2)
        for seed in range(4):
            inst = gen_random_instance(seed, ext=ExtractorSpec(DEOR, 3, 2, fam))
            rep = check_deor_bound(inst, gap=1e-6)
            assert rep.passed
            assert rep.r == 1


class TestXorLemma:
    def test_uniform_trivial(self):
        z = System("Z", 2, classical=True)
        rho = CqState.from_blocks(z, (System("E", 1),),
                                  [np.array([[0.5]])] * 2)
        rep = check_xor_lemma(rho, 1)
        assert rep.lhs_sq == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_deterministic_single_bit(self):
        z = System("Z", 2, classical=True)
        rho = CqState.from_blocks(z, (System("E", 1),),
                                  [np.array([[1.0]]), np.array([[0.0]])])
        rep = check_xor_lemma(rho, 1)
        assert rep.lhs_sq == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs_sq == pytest.approx(2.0, abs=1e-12)

    def test_random_states(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 4))
            rho = random_cq_state(rng, 2 ** m, int(rng.integers(1, 9)))
            assert check_xor_lemma(rho, m).holds

    def test_wrong_width_rejected(self, rng):
        rho = random_cq_state(rng, 3, 2)
        with pytest.raises(ValueError):
            check_xor_lemma(rho, 1)


class TestCounterexample:
    def test_table_structure(self):
        p, eta, nu, inst = gen_markov_counterexample()
        assert p.sum() == pytest.approx(1.0)
        assert np.allclose(p.sum(axis=1), 0.25)  # uniform marginals
        assert np.allclose(p.sum(axis=0), 0.25)
        assert (p > 0).sum() == 8

    def test_entropy_endpoints(self):
        _, eta, nu, _ = gen_markov_counterexample()
        hx = h_min_blocks(eta.blocks(), gap=1e-8)
        hy = h_min_blocks(nu.blocks(), gap=1e-8)
        assert hx.value == pytest.approx(MARKOV_COUNTEREXAMPLE_HMIN, abs=1e-3)
        assert hy.value == pytest.approx(MARKOV_COUNTEREXAMPLE_HMIN, abs=1e-3)
        assert MARKOV_EXTENSION_HMIN == pytest.approx(0.41504, abs=1e-5)
        assert min(hx.lower, hy.lower) > MARKOV_EXTENSION_HMIN

    def test_matches_scenario_entropies(self):
        # the instrument route and the direct construction agree
        from qextract.verify import scenario_entropies

        _, eta, _, inst = gen_markov_counterexample()
        k1, k2 = scenario_entropies(inst, gap=1e-8)
        hx = h_min_blocks(eta.blocks(), gap=1e-8)
        assert k1.value == pytest.approx(hx.value, abs=1e-6)
        assert k2.value == pytest.approx(hx.value, abs=1e-6)


class TestEtaNu:
    def test_product_distribution_decouples(self, rng):
        px = rng.dirichlet(np.ones(4))
        py = rng.dirichlet(np.ones(4))
        p = np.outer(px, py)
        eta, nu = build_eta_nu(p)
        h = h_min_blocks(eta.blocks(), gap=1e-9)
        assert h.value == pytest.approx(-math.log2(px.max()), abs=1e-6)

    def test_sn_entropy_capped_at_one(self):
        eta, nu = build_eta_nu(zero_set_distribution(2))
        assert h_min_blocks(eta.blocks(), gap=1e-8).upper <= 1.0 + 1e-8
        assert h_min_blocks(nu.blocks(), gap=1e-8).upper <= 1.0 + 1e-8

    def test_invalid_table(self):
        with pytest.raises(ValueError):
            build_eta_nu(np.full((2, 2), 0.5))


class TestAltModel:
    def test_uniform_independent(self, rng):
        x = System("X", 4, classical=True)
        b = System("B", 3)
        base = rand_psd_local(rng, 3)
        rho = CqState.from_blocks(x, (b,), [0.25 * base] * 4)
        assert alt_model_roundtrip_error(rho) <= 1e-9

    def test_measured_copy(self):
        x = System("X", 2, classical=True)
        b = System("B", 2)
        rho = CqState.from_blocks(x, (b,),
                                  [np.diag([0.5, 0.0]), np.diag([0.0, 0.5])])
        assert alt_model_roundtrip_error(rho) <= 1e-9

    def test_sn_eta(self):
        eta, _ = build_eta_nu(zero_set_distribution(2))
        assert alt_model_roundtrip_error(eta) <= 1e-9

    def test_random_states(self, rng):
        for _ in range(10):
            rho = random_cq_state(rng, int(rng.integers(2, 5)),
                                  int(rng.integers(2, 5)), cl_name="X", q_name="B")
            assert alt_model_roundtrip_error(rho) <= 1e-9


def rand_psd_local(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / m.trace().real


class TestScenarioValidation:
    def test_mixed_state_rejected(self):
        a, b = System("A", 2), System("B", 2)
        rho = DensityOperator((a, b), np.eye(4) / 4)
        with pytest.raises(ValueError, match="pure"):
            ScenarioInstance(rho, measurement_instrument(a, "X"),
                             measurement_instrument(b, "Y"),
                             ExtractorSpec(IP, 1), True)

    def test_outcome_count_mismatch(self):
        a, b = System("A", 2), System("B", 2)
        vec = np.zeros(4)
        vec[0] = 1.0
        rho = DensityOperator((a, b), np.outer(vec, vec))
        with pytest.raises(ValueError, match="outcomes"):
            ScenarioInstance(rho, measurement_instrument(a, "X"),
                             measurement_instrument(b, "Y"),
                             ExtractorSpec(IP, 2), True)
