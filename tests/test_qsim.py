"""State-vector core: gates, sampling, SWAP test, state files."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qhashlab import qsim
from qhashlab import (
    HashParams,
    KeySet,
    StateVector,
    dump_state,
    hash_state,
    inner_product,
    load_state,
    make_rng,
    measure_all,
    sample_outcomes,
    swap_test,
    swap_test_accept_probability,
)
from qhashlab.qsim import (
    apply_controlled_single_qubit,
    apply_gate_inplace,
    apply_single_qubit,
    hadamard_matrix,
    reflect_to_uniform,
    zero_outcome_counts,
)

from conftest import per_line_dump_text, ry, same_generator_state


def basis_state(num_qubits, index):
    amp = np.zeros(1 << num_qubits, dtype=np.complex128)
    amp[index] = 1.0
    return StateVector(num_qubits, amp)


def random_state(num_qubits, rng):
    amp = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amp / np.linalg.norm(amp))


def swap_test_circuit_probability(psi, phi):
    """Materialized oracle: ancilla + both registers, H / cswap / H.

    Returns the probability of reading 0 on the ancilla, straight from
    the (2s+1)-qubit state.  Verifies the probability-level shortcut.
    """
    joint = np.kron(psi.amplitudes, phi.amplitudes)
    v = np.stack([joint, np.zeros_like(joint)])  # ancilla axis first
    v = np.stack([v[0] + v[1], v[0] - v[1]]) / math.sqrt(2.0)
    dim = psi.dim
    swapped = v[1].reshape(dim, dim).T.reshape(-1)
    v = np.stack([v[0], swapped])
    v = np.stack([v[0] + v[1], v[0] - v[1]]) / math.sqrt(2.0)
    return float(np.sum(np.abs(v[0]) ** 2))


class TestStateVector:
    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="num_qubits"):
            StateVector(0, np.array([1.0]))

    def test_amplitudes_frozen(self):
        psi = basis_state(2, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner_product(basis_state(2, 1), basis_state(2, 1)) == 1.0
        assert inner_product(basis_state(2, 1), basis_state(2, 2)) == 0.0

    def test_conjugate_linear_in_first_slot(self):
        rng = make_rng(3)
        psi = random_state(3, rng)
        phi = random_state(3, rng)
        assert inner_product(psi, phi) == pytest.approx(
            np.conj(inner_product(phi, psi)), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(basis_state(2, 0), basis_state(3, 0))


class TestSampling:
    def test_deterministic_under_seed(self):
        psi = random_state(4, make_rng(1))
        a = sample_outcomes(psi, 100, make_rng(7))
        b = sample_outcomes(psi, 100, make_rng(7))
        assert np.array_equal(a, b)

    def test_born_statistics(self):
        # (|0> + |3>)/sqrt(2) on 2 qubits: outcome 3 is a fair coin
        amp = np.zeros(4)
        amp[0] = amp[3] = 1 / math.sqrt(2)
        psi = StateVector(2, amp)
        outcomes = sample_outcomes(psi, 40000, make_rng(5))
        assert set(np.unique(outcomes)) <= {0, 3}
        rate = np.mean(outcomes == 3)
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / 40000)

    def test_zero_probability_outcomes_never_appear(self):
        psi = basis_state(3, 6)
        assert np.all(sample_outcomes(psi, 1000, make_rng(0)) == 6)

    def test_measure_all_record(self):
        assert measure_all(basis_state(2, 2), make_rng(0)) == 2

    def test_shots_validation(self):
        with pytest.raises(ValueError, match="shots"):
            sample_outcomes(basis_state(1, 0), 0, make_rng(0))


class TestSwapTest:
    def test_identical_states_accept_exactly(self):
        psi = random_state(3, make_rng(2))
        assert swap_test_accept_probability(psi, psi) == 1.0
        counts = swap_test(psi, psi, 500, make_rng(0))
        assert counts.accepted == 500

    def test_orthogonal_states_accept_half(self):
        p = swap_test_accept_probability(basis_state(2, 0), basis_state(2, 3))
        assert p == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_materialized_circuit(self, seed):
        rng = make_rng(seed)
        psi = random_state(3, rng)
        phi = random_state(3, rng)
        assert swap_test_accept_probability(psi, phi) == pytest.approx(
            swap_test_circuit_probability(psi, phi), abs=1e-12
        )

    def test_counts_and_rates(self):
        psi = basis_state(1, 0)
        phi = basis_state(1, 1)
        counts = swap_test(psi, phi, 10000, make_rng(11))
        assert counts.shots == 10000
        assert counts.accepted + counts.rejected == 10000
        sigma = math.sqrt(0.25 / 10000)
        assert abs(counts.accept_rate - 0.5) < 3 * sigma


class TestGates:
    def test_hadamard_squares_to_identity(self):
        h = hadamard_matrix()
        assert np.allclose(h @ h, np.eye(2), atol=1e-12)

    def test_ry_inverse(self):
        r = ry(0.7)
        assert np.allclose(r @ ry(-0.7), np.eye(2), atol=1e-12)

    def test_ry_on_zero(self):
        # R(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
        out = ry(1.1) @ np.array([1.0, 0.0])
        assert out[0] == pytest.approx(math.cos(0.55))
        assert out[1] == pytest.approx(math.sin(0.55))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_single_qubit_preserves_norm(self, seed, qubit):
        psi = random_state(3, make_rng(seed))
        out = apply_single_qubit(psi, qubit, ry(0.3))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_matches_kron(self):
        rng = make_rng(9)
        psi = random_state(3, rng)
        m = ry(0.9)
        # qubit 1 of three: I (x) M (x) I with qubit 0 least significant
        full = np.kron(np.eye(2), np.kron(m, np.eye(2)))
        expected = full @ psi.amplitudes
        out = apply_single_qubit(psi, 1, m)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_controlled_application_touches_only_selected_rows(self):
        rng = make_rng(10)
        psi = random_state(3, rng)
        m = ry(1.3)
        # act on qubit 0 only where qubits 2,1 read 0b10
        out = apply_controlled_single_qubit(
            psi, 0, m, control_mask=0b110, control_value=0b100
        )
        for i in range(8):
            if (i >> 1) == 0b10:
                continue
            assert out.amplitudes[i] == psi.amplitudes[i]
        block = m @ psi.amplitudes[[4, 5]]
        assert np.allclose(out.amplitudes[[4, 5]], block, atol=1e-12)

    def test_control_mask_cannot_cover_target(self):
        psi = basis_state(2, 0)
        with pytest.raises(ValueError, match="control mask"):
            apply_controlled_single_qubit(psi, 0, ry(1.0), 0b01, 0b01)

    def test_control_value_outside_mask(self):
        psi = basis_state(2, 0)
        with pytest.raises(ValueError, match="outside"):
            apply_controlled_single_qubit(psi, 0, ry(1.0), 0b10, 0b01)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="qubit"):
            apply_single_qubit(basis_state(2, 0), 2, ry(1.0))

    def test_control_mask_outside_register(self):
        with pytest.raises(ValueError, match="outside the 2-qubit register"):
            apply_controlled_single_qubit(basis_state(2, 0), 0, ry(1.0), 0b110, 0b100)


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def controlled_gates(draw):
    """(seed, qubits, target, mask, value): any legal control on any target."""
    num_qubits = draw(st.integers(min_value=1, max_value=7))
    qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
    others = ((1 << num_qubits) - 1) & ~(1 << qubit)
    mask = draw(st.integers(min_value=0, max_value=others)) & others
    value = draw(st.integers(min_value=0, max_value=mask)) & mask
    return draw(st.integers(min_value=0, max_value=2**32 - 1)), num_qubits, qubit, mask, value


class TestPairViewKernel:
    """Every gate path is bit-identical to the fancy-index formula it replaced."""

    @given(controlled_gates())
    @settings(max_examples=200, deadline=None)
    def test_wrappers_match_the_fancy_index_formula(self, fancy_index_gate, gate):
        seed, num_qubits, qubit, mask, value = gate
        rng = make_rng(seed)
        psi = random_state(num_qubits, rng)
        for matrix in (hadamard_matrix(), ry(float(rng.uniform(0, 13))),
                       random_unitary(rng)):
            single = apply_single_qubit(psi, qubit, matrix).amplitudes
            assert np.array_equal(single, fancy_index_gate(psi.amplitudes, qubit, matrix))
            controlled = apply_controlled_single_qubit(psi, qubit, matrix, mask, value)
            assert np.array_equal(
                controlled.amplitudes,
                fancy_index_gate(psi.amplitudes, qubit, matrix, mask, value),
            )

    def test_ry_matrices_match_the_formula(self):
        for theta in make_rng(6).uniform(-20, 20, size=50):
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            assert np.array_equal(ry(theta), np.array([[c, -s], [s, c]], dtype=np.complex128))

    def test_validation(self):
        m = ry(0.4)
        with pytest.raises(ValueError, match="power of two"):
            apply_gate_inplace(np.zeros(6, dtype=np.complex128), 0, m)
        with pytest.raises(ValueError, match="contiguous 1-D"):
            apply_gate_inplace(np.zeros(16, dtype=np.complex128)[::2], 0, m)
        with pytest.raises(ValueError, match="2x2 matrix"):
            apply_gate_inplace(np.zeros(8, dtype=np.complex128), 0, np.stack([m] * 3))
        with pytest.raises(ValueError, match="outside"):
            apply_gate_inplace(np.zeros(8, dtype=np.complex128), 0, m, 0b110, 0b001)


class TestZeroOutcomeCounts:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sampled_outcomes(self, seed):
        rng = make_rng(100 + seed)
        psi = random_state(1 + seed % 5, rng)
        shots = 5000 + 977 * seed
        tally_rng, sample_rng = make_rng(seed), make_rng(seed)
        counts = zero_outcome_counts(psi, shots, tally_rng)
        sampled = sample_outcomes(psi, shots, sample_rng)
        assert counts.accepted == int(np.count_nonzero(sampled == 0))
        assert counts.shots == shots
        assert tally_rng.random() == sample_rng.random()

    def test_certain_outcomes(self):
        assert zero_outcome_counts(basis_state(3, 0), 100, make_rng(0)).accepted == 100
        assert zero_outcome_counts(basis_state(3, 5), 100, make_rng(0)).accepted == 0

    def test_shots_validation(self):
        with pytest.raises(ValueError, match="shots"):
            zero_outcome_counts(basis_state(1, 0), 0, make_rng(0))

    @pytest.mark.parametrize("amp0", [
        complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
        complex(5e-324, 0.0), complex(0.0, -2.5e-310), complex(1e-160, 3e-161),
        complex(0.6, -0.3), complex(-0.1, 0.7), complex(math.sqrt(0.5), 1e-17),
    ])
    def test_reads_the_full_vector_entry(self, monkeypatch, amp0):
        # the probability the tally compares with has the bits of entry 0
        # of the whole |amp|^2 vector, however amp_0 is made
        amp = random_state(4, make_rng(3)).amplitudes.copy()
        amp[0] = amp0
        amp[1:] *= math.sqrt(1.0 - abs(amp0) ** 2) / np.linalg.norm(amp[1:])
        psi = StateVector(4, amp)
        seen = []
        monkeypatch.setattr(qsim, "_bernoulli_counts", lambda p, shots, rng: seen.append(p))
        zero_outcome_counts(psi, 3, make_rng(0))
        want = (np.abs(psi.amplitudes) ** 2)[0]
        assert type(seen[0]) is type(want) and seen[0].tobytes() == want.tobytes()

    def test_twenty_qubit_tally_reads_one_amplitude(self):
        psi = basis_state(20, 0)
        rng = make_rng(1)
        tracemalloc.start()
        try:
            counts = zero_outcome_counts(psi, 10, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.accepted == 10
        # |amp| and |amp|^2 of the whole state would be 8 MiB each
        assert peak < 64 << 10

    @pytest.mark.parametrize("shots", [1, 6, 7, 8, 14, 30])
    def test_chunked_draws_match_one_draw(self, monkeypatch, shots):
        psi = random_state(3, make_rng(8))
        whole = make_rng(shots)
        accepted = int(np.count_nonzero(whole.random(shots) < abs(psi.amplitudes[0]) ** 2))
        monkeypatch.setattr(qsim, "SHOT_CHUNK", 7)
        chunked = make_rng(shots)
        assert zero_outcome_counts(psi, shots, chunked) == (accepted, shots - accepted)
        assert chunked.random() == whole.random()


class TestTallyChunks:
    """Tallies draw into one reused buffer: the values, and the end state, of one rng.random(shots)."""

    CHUNK = qsim.SHOT_CHUNK

    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
    @pytest.mark.parametrize("shots", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_counts_and_state_match_one_draw(self, bit_generator, shots):
        psi, phi = random_state(3, make_rng(8)), random_state(3, make_rng(9))
        tallies = [(zero_outcome_counts, (psi,), abs(psi.amplitudes[0]) ** 2),
                   (swap_test, (psi, phi), swap_test_accept_probability(psi, phi))]
        for tally, states, p in tallies:
            whole = np.random.Generator(bit_generator(shots))
            accepted = int(np.count_nonzero(whole.random(shots) < p))
            chunked = np.random.Generator(bit_generator(shots))
            assert tally(*states, shots, chunked) == (accepted, shots - accepted)
            assert same_generator_state(chunked.bit_generator.state, whole.bit_generator.state)

    def test_four_million_shots_peak_below_one_mib(self):
        psi, phi = random_state(3, make_rng(8)), random_state(3, make_rng(9))
        tracemalloc.start()
        try:
            zero_outcome_counts(psi, 4_000_000, make_rng(1))
            swap_test(psi, phi, 4_000_000, make_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak


def lemire_draws(halves, bound, count):
    """count draws below bound from a stream of halves, each half _lemire rejects skipped, as numpy redraws."""
    drawn = []
    while len(drawn) < count:
        assert halves.size, "the stream ran out"
        values, rejected = qsim._lemire(halves, bound)
        drawn += values[:rejected].tolist()
        halves = halves[rejected + 1 :]
    return drawn[:count]


def buffered_at(seed, uinteger):
    """make_rng(seed) holding uinteger as its buffered 32-bit half."""
    rng = make_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, uinteger
    rng.bit_generator.state = state
    return rng


class TestRawDrawDecoding:
    """qsim's decoding of raw 64-bit words against the numpy calls it stands for."""

    @pytest.mark.parametrize("bound", [2, 3, 37, 64, 1000, 2**31 + 12345, 3 << 30, 2**32 - 1])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_lemire_is_integers(self, bound, seed):
        halves = qsim._halves(make_rng(seed).bit_generator.random_raw(300), 0, 0)
        want = make_rng(seed).integers(0, bound, size=300).tolist()
        values, rejected = qsim._lemire(halves, bound)
        run = min(rejected, 300)  # the draws before the first rejection
        assert values[:run].tolist() == want[:run]
        assert lemire_draws(halves, bound, 300) == want

    def test_lemire_flags_the_first_rejected_half(self):
        # 2^32 mod 37 = 7: a zero half scales to 0 and numpy draws again
        rng = buffered_at(4, 0)
        halves = qsim._halves(make_rng(4).bit_generator.random_raw(20), 1, 0)
        values, rejected = qsim._lemire(halves, 37)
        assert rejected == 0
        assert rng.integers(0, 37, size=30).tolist() == values[1:31].tolist()
        # 2^32 mod 64 = 0: a power of two never rejects
        assert qsim._lemire(halves, 64)[1] == halves.size
        assert qsim._lemire(np.array([5, 0, 0], dtype=np.uint64), 37)[1] == 1

    @pytest.mark.parametrize("seed", [0, 3])
    def test_uniform_is_random(self, seed):
        words = make_rng(seed).bit_generator.random_raw(500)
        want = make_rng(seed).random(500).tolist()
        assert qsim._uniform(words).tolist() == want
        assert [qsim._uniform(w) for w in words.tolist()] == want

    @pytest.mark.parametrize("uinteger", [None, 0, 123456789, 2**32 - 1])
    def test_halves_are_the_32_bit_draws(self, uinteger):
        # integers below 2^32 as uint32 are the raw 32-bit draws, buffered half first
        rng = make_rng(6) if uinteger is None else buffered_at(6, uinteger)
        state = rng.bit_generator.state
        halves = qsim._halves(make_rng(6).bit_generator.random_raw(50), state["has_uint32"], state["uinteger"])
        assert halves.tolist()[:99] == rng.integers(0, 2**32, size=99, dtype=np.uint32).tolist()

    def test_halves_behind_a_drawn_half(self):
        rng = make_rng(2)
        rng.integers(0, 7)  # reads word 0 and keeps its high half
        state = rng.bit_generator.state
        words = make_rng(2).bit_generator.random_raw(40)
        assert state["has_uint32"] == 1
        halves = qsim._halves(words[1:], state["has_uint32"], state["uinteger"])
        assert halves[0] == words[0] >> np.uint64(32)
        assert halves.tolist()[:77] == rng.integers(0, 2**32, size=77, dtype=np.uint32).tolist()

    CASES = [(0, (5,)), (1, (64,))]

    @staticmethod
    def draws(rng, count):
        return rng.integers(0, 1000, size=count).tolist()

    def test_harness_passes_a_match(self):
        assert qsim._decoder_matches(self.draws, self.draws, np.random.Philox, self.CASES)
        assert qsim._decoder_matches(self.draws, self.draws, np.random.PCG64, self.CASES)

    def test_harness_refuses_other_values(self):
        def shifted(rng, count):
            return [value + 1 for value in self.draws(rng, count)]

        assert not qsim._decoder_matches(shifted, self.draws, np.random.Philox, self.CASES)

    def test_harness_refuses_another_state(self):
        def one_word_too_many(rng, count):
            values = self.draws(rng, count)
            rng.bit_generator.random_raw(1)
            return values

        assert not qsim._decoder_matches(one_word_too_many, self.draws, np.random.Philox, self.CASES)

    def test_harness_refuses_a_lost_buffered_half(self):
        def unbuffered(rng, count):
            values = self.draws(rng, count)
            state = rng.bit_generator.state
            state["has_uint32"] = 0
            rng.bit_generator.state = state
            return values

        assert not qsim._decoder_matches(unbuffered, self.draws, np.random.Philox, [(1, (4,))])


class TestUniformReflection:
    """The Householder map shared by hash preparation and fingerprint uncompute."""

    @staticmethod
    def rows(branch_count, pairs):
        # room beyond the populated branches, as in a padded register
        shape = (1 << branch_count.bit_length(),) + ((2,) if pairs else ())
        rng = make_rng(branch_count)
        return shape, rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("pairs", [False, True], ids=["vector", "pairs"])
    @pytest.mark.parametrize("branch_count", [1, 2, 3, 15, 16, 65])
    def test_self_inverse(self, branch_count, pairs):
        _, x = self.rows(branch_count, pairs)
        twice = reflect_to_uniform(reflect_to_uniform(x, branch_count), branch_count)
        assert np.max(np.abs(twice - x)) <= 1e-12

    @pytest.mark.parametrize("pairs", [False, True], ids=["vector", "pairs"])
    @pytest.mark.parametrize("branch_count", [1, 2, 3, 15, 16, 65])
    def test_maps_zero_to_uniform_branches(self, branch_count, pairs):
        shape, _ = self.rows(branch_count, pairs)
        zero = np.zeros(shape, dtype=np.complex128)
        zero.flat[0] = 1.0
        expected = np.zeros(shape, dtype=np.complex128)
        expected[:branch_count] = zero[0] / math.sqrt(branch_count)
        out = reflect_to_uniform(zero, branch_count)
        assert out.shape == shape
        assert np.max(np.abs(out - expected)) <= 1e-12

    @pytest.mark.parametrize("pairs", [False, True], ids=["vector", "pairs"])
    @pytest.mark.parametrize("branch_count", [1, 2, 3, 15, 16, 65])
    def test_preserves_norm(self, branch_count, pairs):
        _, x = self.rows(branch_count, pairs)
        out = reflect_to_uniform(x, branch_count)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-12)


# Real and imaginary parts of 1- to 4-qubit states; parts include -0.0.
amplitude_parts = st.integers(min_value=1, max_value=4).flatmap(
    lambda q: arrays(
        np.float64, (2, 1 << q), elements=st.one_of(st.just(-0.0), st.floats(-1.0, 1.0))
    )
)


class TestStateFiles:
    @given(amplitude_parts)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_exact(self, tmp_path, parts):
        amp = parts[0] + 1j * parts[1]
        norm = float(np.linalg.norm(amp))
        assume(norm > 1e-6)
        # division keeps the sign of each zero part
        psi = StateVector(amp.size.bit_length() - 1, amp / norm)
        first, second = tmp_path / "a.state", tmp_path / "b.state"
        dump_state(psi, first)
        loaded = load_state(first)
        assert loaded.num_qubits == psi.num_qubits
        assert np.array_equal(loaded.amplitudes, psi.amplitudes)
        dump_state(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("case", ["random", "hash"])
    def test_dump_matches_the_scalar_formatter(self, tmp_path, case):
        # the line format of float() on each numpy complex scalar
        if case == "random":
            states = [random_state(q, np.random.default_rng(q)) for q in (1, 5, 9)]
        else:
            keyset = KeySet(modulus=1024, keys=tuple(range(3, 1024, 16)))
            states = [hash_state(HashParams(keyset), m) for m in (0, 1, 513, 1023)]
        for psi in states:
            path = tmp_path / "s.state"
            dump_state(psi, path)
            want = "".join(f"{i} {float(amp.real)!r} {float(amp.imag)!r}\n"
                           for i, amp in enumerate(psi.amplitudes))
            assert path.read_text() == want

    def test_dump_matches_the_line_by_line_formula_on_every_bundled_row(self, tmp_path, table_rows):
        path = tmp_path / "s.state"
        for _, loaded in table_rows:
            params, modulus = HashParams(loaded.keyset), loaded.keyset.modulus
            for m in (0, 1, modulus // 3, modulus - 1):
                psi = hash_state(params, m)
                dump_state(psi, path)
                assert path.read_text() == per_line_dump_text(psi), (loaded.keyset.modulus, m)

    def test_dump_format(self, tmp_path):
        path = tmp_path / "b.state"
        dump_state(basis_state(1, 1), path)
        assert path.read_text() == "0 0.0 0.0\n1 1.0 0.0\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0 1.0 0.0\n1 0.0\n", "expected '<index> <re> <im>'"),
            ("0 1.0 0.0\n0 0.0 0.0\n", "duplicate"),
            ("0 1.0 0.0\n1 0.0 0.0\n2 0.0 0.0\n", "power of two"),
            ("0 one 0.0\n1 0.0 0.0\n", "malformed"),
            ("1 1.0 0.0\n2 0.0 0.0\n", "out of range"),
        ],
    )
    def test_load_diagnostics(self, tmp_path, text, message):
        path = tmp_path / "bad.state"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_state(path)

    @pytest.mark.parametrize("part", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_non_finite_amplitudes_are_refused(self, tmp_path, part):
        path = tmp_path / "bad.state"
        path.write_text(f"0 {part} 0.0\n1 0.0 0.0\n")
        with pytest.raises(ValueError, match=r"state norm\^2 = .* is not 1"):
            load_state(path)
        with pytest.raises(ValueError, match=r"state norm\^2 = .* is not 1"):
            StateVector(1, [float(part), 0.0])

    def test_line_past_the_register_limit_refused_at_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qsim, "MAX_QUBITS", 2)
        path = tmp_path / "long.state"
        path.write_text("# header comment\n" + "".join(f"{i} 0.5 0.0\n" for i in range(5)))
        with pytest.raises(ValueError, match=r"long\.state:6: more than 2\^MAX_QUBITS = 4"):
            load_state(path)
