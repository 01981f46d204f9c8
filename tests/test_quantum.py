import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loop_cq_state, outcome_probs, rand_herm, rand_psd, trace
from qextract.quantum import (
    CLASSICAL_TOL,
    HERM_TOL,
    PSD_TOL,
    CqState,
    DensityOperator,
    DimensionCapError,
    Instrument,
    System,
    apply_instrument,
    instrument_blocks,
    instrument_from_json,
    partial_trace,
    permute_systems,
    purify,
    random_cq_state,
    simplex,
    state_from_json,
    state_to_json,
    trace_norm,
)


def haar_pure(rng, systems):
    dim = int(np.prod([s.dim for s in systems]))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityOperator(tuple(systems), np.outer(v, v.conj()))


def measurement(system, name="X"):
    kraus = []
    for x in range(system.dim):
        k = np.zeros((1, system.dim), dtype=complex)
        k[0, x] = 1.0
        kraus.append((k,))
    return Instrument((system,), name, (), tuple(kraus))


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator((System("A", 2),), np.array([[0.5, 1.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("skew, ok", [(5e-11, True), (1e-9, False), (np.nan, False)])
    def test_hermitian_to_absolute_tolerance(self, skew, ok):
        # allclose's default rtol once let 0.3 against 0.3 + 5e-7 through;
        # NaN is refused as non-finite before the Hermiticity test
        mat = np.array([[0.5, 0.3], [0.3 + skew, 0.5]])
        if ok:
            DensityOperator((System("A", 2),), mat)
        else:
            with pytest.raises(ValueError, match="non-finite" if np.isnan(skew) else "Hermitian"):
                DensityOperator((System("A", 2),), mat)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator((System("A", 2),), np.diag([1.1, -0.1]))

    def test_trace_bounds(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator((System("A", 2),), np.diag([0.9, 0.9]))
        with pytest.raises(ValueError, match="trace"):
            DensityOperator((System("A", 2),), np.zeros((2, 2)))

    def test_sub_normalized_allowed(self):
        rho = DensityOperator((System("A", 2),), np.diag([0.3, 0.2]))
        assert trace(rho) == pytest.approx(0.5)

    def test_classical_offdiagonal_rejected(self):
        x = System("X", 2, classical=True)
        mat = np.array([[0.5, 0.1], [0.1, 0.5]])
        with pytest.raises(ValueError, match="off-diagonal"):
            DensityOperator((x,), mat)

    def test_dimension_caps(self):
        with pytest.raises(DimensionCapError, match="quantum"):
            DensityOperator((System("A", 128),), np.eye(128) / 128)
        big = System("X", 2048, classical=True)
        with pytest.raises(DimensionCapError, match="total"):
            DensityOperator((big,), np.eye(2048) / 2048)
        # checked before the d_in x d_in accumulator (14.6 TiB here) exists
        with pytest.raises(DimensionCapError, match="instrument"):
            Instrument((System("B", 1000000),), "Y", (), ((),))
        with pytest.raises(DimensionCapError, match="instrument"):
            Instrument((System("B", 2),), "Y", (System("T", 1000000),), ((),))

    def test_no_systems_rejected(self):
        with pytest.raises(ValueError, match="at least one system"):
            DensityOperator((), np.eye(1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(0.3, np.inf)])
    def test_non_finite_rejected_before_any_arithmetic(self, entry):
        mat = np.array([[0.5, 0.3], [entry, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator((System("A", 2),), mat)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DensityOperator((System("A", 2), System("A", 2)), np.eye(4) / 4)

    def test_cq_state_first_system_classical(self):
        with pytest.raises(ValueError, match="classical"):
            CqState((System("A", 2),), np.eye(2) / 2)

    def test_from_blocks_needs_one_square_block_per_value(self):
        x, b = System("X", 2, classical=True), System("B", 2)
        # a (2, 1, 2) stack would broadcast into PSD 2x2 blocks
        for blocks in (np.full((2, 1, 2), 0.25), np.full((3, 2, 2), 1 / 6)):
            with pytest.raises(ValueError, match="square blocks"):
                CqState.from_blocks(x, (b,), blocks)


def _error_kind(call):
    """None if ``call()`` returns, else the exception class and which
    state check raised it."""
    try:
        call()
    except ValueError as exc:
        kinds = ("Hermitian", "eigenvalue", "trace", "off-diagonal")
        return type(exc), [k for k in kinds if k in str(exc)]
    return None


class TestBlockStackValidation:
    """CqState.from_blocks checks its block stack, not the block-diagonal
    matrix; it must accept and reject exactly what the constructor does."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), count=st.integers(1, 4),
           d_q=st.integers(1, 3), d_c=st.integers(0, 3), total=st.floats(0.05, 1.0),
           mutation=st.sampled_from(["none", "anti-hermitian", "negative", "trace",
                                     "classical"]),
           size=st.floats(1e-9, 1e-3))
    def test_from_blocks_agrees_with_the_full_matrix(self, seed, count, d_q, d_c, total,
                                                     mutation, size):
        rng = np.random.default_rng(seed)
        # rest: a quantum system and, when d_c > 0, a classical one that an
        # earlier instrument could have produced
        rest = (System("B", d_q),) + ((System("C", d_c, classical=True),) if d_c else ())
        d_c = max(d_c, 1)
        d = d_q * d_c
        weights = rng.dirichlet(np.ones(count * d_c)).reshape(count, d_c) * total
        blocks = np.zeros((count, d_q, d_c, d_q, d_c), dtype=complex)
        for x in range(count):
            for c in range(d_c):
                blocks[x, :, c, :, c] = rand_psd(rng, d_q, weights[x, c])
        blocks = blocks.reshape(count, d, d)
        x, i, j = rng.integers(count), rng.integers(d), rng.integers(d)
        if mutation == "anti-hermitian":
            blocks[x, i, j] += 1j * size
            if i != j:
                blocks[x, j, i] += 1j * size
            assert np.abs(blocks - blocks.conj().swapaxes(1, 2)).max() > HERM_TOL
        elif mutation == "negative":
            lam = np.linalg.eigvalsh(blocks[x]).min()
            blocks[x] -= (lam + PSD_TOL + size) * np.eye(d)
        elif mutation == "trace":
            blocks *= (1.0 + PSD_TOL + size) / total
        elif mutation == "classical" and d_c > 1:
            # Hermitian weight between two values of C, at index q d_c + c
            j = j // d_c * d_c + (i % d_c + 1) % d_c
            blocks[x, i, j] += size
            blocks[x, j, i] += size
            assert size > CLASSICAL_TOL
        else:
            mutation = "none"
        full = np.zeros((count * d, count * d), dtype=complex)
        for y in range(count):
            full[y * d:(y + 1) * d, y * d:(y + 1) * d] = blocks[y]
        outcome = System("X", count, classical=True)
        want = _error_kind(lambda: CqState((outcome,) + rest, full))
        assert _error_kind(lambda: CqState.from_blocks(outcome, rest, blocks)) == want
        if mutation != "none":
            assert want is not None
        else:
            rho = CqState.from_blocks(outcome, rest, blocks)
            assert np.array_equal(rho.matrix, full)
            assert rho.systems == (outcome,) + rest


class TestRandomCqState:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_simplex_is_numpys_flat_dirichlet(self, k):
        for seed in range(100):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(simplex(b.standard_exponential(k)), a.dirichlet(np.ones(k)))
            assert np.array_equal(simplex(b.standard_exponential((3, k))),
                                  a.dirichlet(np.ones(k), size=3))
            assert a.bit_generator.state == b.bit_generator.state

    def test_matches_loop_oracle(self):
        # the draws are part of the contract: the xor and alt-model suites
        # name their states by seed, and keep drawing from the same generator
        for seed in range(2000):
            shape = np.random.default_rng(seed + 10 ** 6)
            c, d_q = int(shape.integers(1, 9)), int(shape.integers(1, 9))
            trace = float(shape.uniform(0.01, 1.0)) if seed % 2 else 1.0
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = loop_cq_state(a, c, d_q, cl_name="X", q_name="B", trace=trace)
            got = random_cq_state(b, c, d_q, cl_name="X", q_name="B", trace=trace)
            assert np.array_equal(got.matrix, want.matrix), seed
            assert got.systems == want.systems
            assert a.bit_generator.state == b.bit_generator.state


class TestDerivedOperators:
    """permute_systems and partial_trace skip the constructor's checks;
    the public constructor and the JSON boundary keep them."""

    def test_derived_results_pass_the_public_checks(self, rng):
        x, a, b = System("X", 3, classical=True), System("A", 2), System("B", 2)
        for _ in range(10):
            rho = CqState.from_blocks(x, (a, b), [rand_psd(rng, 4, 1.0 / 3) for _ in range(3)])
            for out in (permute_systems(rho, ["B", "X", "A"]), partial_trace(rho, ["A"]),
                        partial_trace(rho, ["X", "B"])):
                checked = DensityOperator(out.systems, out.matrix)
                assert np.array_equal(checked.matrix, out.matrix)
                assert not out.matrix.flags.writeable

    def test_malformed_state_fails_at_both_boundaries(self):
        bad = {"not PSD": np.diag([1.2, -0.2]),
               "not Hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
               "trace above one": np.eye(2),
               "classical off-diagonal": np.array([[0.5, 0.1], [0.1, 0.5]])}
        for what, mat in bad.items():
            systems = (System("A", 2, classical=what == "classical off-diagonal"),)
            with pytest.raises(ValueError):
                DensityOperator(systems, mat)
            doc = {"systems": [{"name": "A", "dim": 2, "classical": systems[0].classical}],
                   "matrix": [[[float(v.real), float(v.imag)] for v in row]
                              for row in np.asarray(mat, dtype=complex)]}
            with pytest.raises(ValueError):
                state_from_json(doc)
        with pytest.raises(ValueError, match="rows"):
            state_from_json({"systems": [{"name": "A", "dim": 2}], "matrix": [[1]]})


class TestTensorPartialTrace:
    def test_round_trip(self, rng):
        rho, sig = rand_psd(rng, 3), rand_psd(rng, 4)
        joint = DensityOperator((System("A", 3), System("B", 4)), np.kron(rho, sig))
        back = partial_trace(joint, ["B"])
        assert np.allclose(back.matrix, rho, atol=1e-12)

    def test_random_states_up_to_64(self, rng):
        for da, db in [(2, 2), (4, 8), (8, 8), (2, 32)]:
            rho, sig = rand_psd(rng, da, 0.7), rand_psd(rng, db)
            joint = DensityOperator((System("A", da), System("B", db)), np.kron(rho, sig))
            assert np.allclose(partial_trace(joint, ["A"]).matrix, 0.7 * sig, atol=1e-12)

    def test_permute_and_back(self, rng):
        systems = (System("A", 2), System("B", 3), System("C", 2))
        rho = haar_pure(rng, systems)
        perm = permute_systems(rho, ["C", "A", "B"])
        assert perm.names() == ("C", "A", "B")
        back = permute_systems(perm, ["A", "B", "C"])
        assert np.allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_trace_out_everything_rejected(self, rng):
        rho = DensityOperator((System("A", 2),), np.eye(2) / 2)
        with pytest.raises(ValueError):
            partial_trace(rho, ["A"])


def random_kraus_lists(rng, counts, d_out, d_in):
    """Per-outcome Kraus lists with the given counts, scaled so that the
    whole map is trace non-increasing."""
    ops = rng.normal(size=(sum(counts), d_out, d_in)) \
        + 1j * rng.normal(size=(sum(counts), d_out, d_in))
    acc = sum(k.conj().T @ k for k in ops)
    ops = ops * 0.9 / np.sqrt(np.linalg.eigvalsh(acc).max())
    bounds = np.cumsum([0] + list(counts))
    return tuple(tuple(ops[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))


class TestInstrument:
    def test_cptni_enforced(self):
        k = np.sqrt(1.2) * np.eye(2)
        with pytest.raises(ValueError, match="trace non-increasing"):
            Instrument((System("B", 2),), "Y", (System("T", 2),), ((k,),))

    def test_kraus_shapes_checked(self):
        b = System("B", 2)
        for ops in (((0.5 * np.eye(2),),), ((0.5 * np.eye(2)[:1],), (0.5 * np.eye(2),))):
            with pytest.raises(ValueError, match=r"Kraus operator shape \(2, 2\) != \(1, 2\)"):
                Instrument((b,), "Y", (), ops)

    def test_non_finite_kraus_rejected(self):
        for bad in (np.nan, np.inf):
            k = np.array([[0.5, bad]])
            with pytest.raises(ValueError, match="non-finite"):
                Instrument((System("B", 2),), "Y", (), ((k,), (0.5 * np.eye(2)[:1],)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), d_in=st.integers(1, 3), d_out=st.integers(1, 3),
           d_rest=st.integers(1, 3), counts=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           empty_at=st.integers(0, 3))
    def test_stack_kernels_match_per_kraus_loop(self, seed, d_in, d_out, d_rest, counts,
                                                 empty_at):
        rng = np.random.default_rng(seed)
        counts.insert(min(empty_at, len(counts)), 0)  # one outcome with no Kraus operator
        kraus = random_kraus_lists(rng, counts, d_out, d_in)
        outs = (System("T", d_out),) if d_out > 1 else ()
        inst = Instrument((System("A", d_in),), "Y", outs, kraus)
        rho = DensityOperator((System("A", d_in), System("R", d_rest)),
                              rand_psd(rng, d_in * d_rest))
        # kraus keeps the constructor's lists, as views of the stack
        assert [len(ops) for ops in inst.kraus] == counts
        for ops, want in zip(inst.kraus, kraus):
            assert all(np.array_equal(k, w) and k.base is inst.kraus_stack
                       for k, w in zip(ops, want))
        blocks = instrument_blocks(inst, rho)
        assert blocks.shape == (len(counts), d_out * d_rest, d_out * d_rest)
        eye = np.eye(d_rest)
        for y, ops in enumerate(kraus):
            want = sum((np.kron(k, eye) @ rho.matrix @ np.kron(k, eye).conj().T for k in ops),
                       np.zeros_like(blocks[y]))
            assert np.allclose(blocks[y], want, rtol=0, atol=1e-12)

    def test_measure_plus_state_gives_uniform_bit(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        rho = DensityOperator((System("B", 2),), plus)
        out = apply_instrument(measurement(System("B", 2)), rho)
        assert isinstance(out, CqState)
        assert np.allclose(outcome_probs(out), [0.5, 0.5])

    def test_apply_preserves_trace_when_tp(self, rng):
        a, b = System("A", 3), System("B", 2)
        rho = haar_pure(rng, (a, b))
        out = apply_instrument(measurement(a), rho)
        assert trace(out) == pytest.approx(trace(rho), abs=1e-10)
        assert out.names() == ("X", "B")

    def test_apply_acts_as_identity_elsewhere(self, rng):
        a, b = System("A", 2), System("B", 3)
        rho = haar_pure(rng, (a, b))
        out = apply_instrument(measurement(a), rho)
        assert np.allclose(sum(out.blocks()), partial_trace(rho, ["A"]).matrix,
                           atol=1e-10)


class TestNorms:
    """trace_norm, which the xor-lemma check sums."""

    def test_zero_difference(self, rng):
        rho = rand_psd(rng, 4)
        assert trace_norm(rho - rho) == 0.0

    def test_equal_trace_relation(self, rng):
        # the Schatten 1-norm is the sum of the singular values
        for _ in range(20):
            rho, sig = rand_psd(rng, 5), rand_psd(rng, 5)
            assert trace_norm(rho - sig) == pytest.approx(
                np.linalg.svd(rho - sig, compute_uv=False).sum(), abs=1e-12)

    def test_unequal_trace_relation(self, rng):
        rho, sig = rand_psd(rng, 4, 0.9), rand_psd(rng, 4, 0.4)
        assert trace_norm(rho) == pytest.approx(0.9, abs=1e-12)
        assert trace_norm(-sig) == pytest.approx(0.4, abs=1e-12)
        assert trace_norm(rho - sig) >= 0.9 - 0.4
        # orthogonal supports: the norm adds the traces
        assert trace_norm(np.kron(np.diag([1.0, 0.0]), rho)
                          - np.kron(np.diag([0.0, 1.0]), sig)) == pytest.approx(1.3, abs=1e-12)

    def test_dominates_random_feasible_tests(self, rng):
        # max over 0 <= L <= 1 of |tr[L s]| is max(tr s+, tr s-)
        s = rand_herm(rng, 4)
        bound = 0.5 * (trace_norm(s) + abs(np.trace(s).real))
        for _ in range(1000):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(g)
            lam = (q * rng.uniform(0, 1, size=4)) @ q.conj().T
            assert abs(np.trace(lam @ s).real) <= bound + 1e-9


class TestPurify:
    def test_pure_input(self, rng):
        a = System("A", 3)
        rho = haar_pure(rng, (a,))
        out = purify(rho)
        assert out.is_pure()
        red = partial_trace(out, ["ref"])
        assert np.allclose(red.matrix, rho.matrix, atol=1e-10)
        # the reference factor of a pure input is rank one
        ref = partial_trace(out, ["A"])
        vals = np.linalg.eigvalsh(ref.matrix)
        assert vals[:-1].max() < 1e-10

    def test_maximally_mixed_qubit(self):
        rho = DensityOperator((System("A", 2),), np.eye(2) / 2)
        out = purify(rho)
        expect = np.zeros((4, 4), dtype=complex)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expect[i, j] = 0.5
        assert np.allclose(out.matrix, expect, atol=1e-12)

    def test_random_round_trip(self, rng):
        rho = DensityOperator((System("A", 3),), rand_psd(rng, 3, 0.85))
        out = purify(rho)
        assert np.allclose(partial_trace(out, ["ref"]).matrix, rho.matrix,
                           atol=1e-10)
        assert trace(out) == pytest.approx(trace(rho), abs=1e-10)


class TestTransposeIdentity:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_k_omega(self, rng, d):
        omega = np.zeros(d * d, dtype=complex)
        for i in range(d):
            omega[i * d + i] = 1.0
        k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = np.kron(k, np.eye(d)) @ omega
        rhs = np.kron(np.eye(d), k.T) @ omega
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestSerialization:
    def test_state_round_trip(self, rng):
        x = System("X", 2, classical=True)
        b = System("B", 3)
        rho = CqState.from_blocks(x, (b,), [0.6 * rand_psd(rng, 3),
                                            0.4 * rand_psd(rng, 3)])
        d = state_to_json(rho)
        assert set(d) == {"systems", "matrix"}
        back = state_from_json(json.loads(json.dumps(d)))
        assert isinstance(back, CqState)
        assert back.names() == ("X", "B")
        assert np.allclose(back.matrix, rho.matrix, atol=0)

    def test_instrument_round_trip(self):
        doc = {"input_systems": [{"name": "B", "dim": 2}],
               "output_systems": [],
               "outcomes": [{"label": 0, "kraus": [[[[1.0, 0.0], [0.0, 0.0]]]]},
                            {"label": 1, "kraus": [[[[0.0, 0.0], [0.0, -0.5]]]]}]}
        inst = instrument_from_json(json.loads(json.dumps(doc)), outcome_name="Y")
        assert inst.num_outcomes == 2
        assert inst.outcome_system == System("Y", 2, classical=True)
        assert np.array_equal(inst.kraus[0][0], [[1.0, 0.0]])
        assert np.array_equal(inst.kraus[1][0], [[0.0, -0.5j]])
        doc["outcomes"][1]["label"] = 0
        with pytest.raises(ValueError, match="not distinct"):
            instrument_from_json(doc)
