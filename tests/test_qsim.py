"""State-vector core: gates, sampling, SWAP test, state files."""

import math

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
    ry_matrices,
    zero_outcome_counts,
)


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
        r = ry_matrices([0.7])[0]
        assert np.allclose(r @ ry_matrices([-0.7])[0], np.eye(2), atol=1e-12)

    def test_ry_on_zero(self):
        # R(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
        out = ry_matrices([1.1])[0] @ np.array([1.0, 0.0])
        assert out[0] == pytest.approx(math.cos(0.55))
        assert out[1] == pytest.approx(math.sin(0.55))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=30, deadline=None)
    def test_single_qubit_preserves_norm(self, seed, qubit):
        psi = random_state(3, make_rng(seed))
        out = apply_single_qubit(psi, qubit, ry_matrices([0.3])[0])
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_matches_kron(self):
        rng = make_rng(9)
        psi = random_state(3, rng)
        m = ry_matrices([0.9])[0]
        # qubit 1 of three: I (x) M (x) I with qubit 0 least significant
        full = np.kron(np.eye(2), np.kron(m, np.eye(2)))
        expected = full @ psi.amplitudes
        out = apply_single_qubit(psi, 1, m)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_controlled_application_touches_only_selected_rows(self):
        rng = make_rng(10)
        psi = random_state(3, rng)
        m = ry_matrices([1.3])[0]
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
            apply_controlled_single_qubit(psi, 0, ry_matrices([1.0])[0], 0b01, 0b01)

    def test_control_value_outside_mask(self):
        psi = basis_state(2, 0)
        with pytest.raises(ValueError, match="outside"):
            apply_controlled_single_qubit(psi, 0, ry_matrices([1.0])[0], 0b10, 0b01)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="qubit"):
            apply_single_qubit(basis_state(2, 0), 2, ry_matrices([1.0])[0])

    def test_control_mask_outside_register(self):
        with pytest.raises(ValueError, match="outside the 2-qubit register"):
            apply_controlled_single_qubit(basis_state(2, 0), 0, ry_matrices([1.0])[0], 0b110, 0b100)


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
        for matrix in (hadamard_matrix(), ry_matrices([float(rng.uniform(0, 13))])[0],
                       random_unitary(rng)):
            single = apply_single_qubit(psi, qubit, matrix).amplitudes
            assert np.array_equal(single, fancy_index_gate(psi.amplitudes, qubit, matrix))
            controlled = apply_controlled_single_qubit(psi, qubit, matrix, mask, value)
            assert np.array_equal(
                controlled.amplitudes,
                fancy_index_gate(psi.amplitudes, qubit, matrix, mask, value),
            )

    @given(controlled_gates(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_a_stack_matches_its_gates_one_by_one(self, fancy_index_gate, gate, count):
        seed, num_qubits, qubit, mask, _ = gate
        rng = make_rng(seed)
        values = rng.permutation(np.arange(mask + 1)[(np.arange(mask + 1) & ~mask) == 0])
        values = values[:count]
        matrices = ry_matrices(rng.uniform(0, 13, size=values.size))
        amp = random_state(num_qubits, rng).amplitudes.copy()
        want = amp
        for value, matrix in zip(values, matrices):
            want = fancy_index_gate(want, qubit, matrix, mask, int(value))
        apply_gate_inplace(amp, qubit, matrices, mask, values)
        assert np.array_equal(amp, want)

    def test_ry_matrices_match_the_formula(self):
        thetas = make_rng(6).uniform(-20, 20, size=50)
        for theta, matrix in zip(thetas, ry_matrices(thetas)):
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            assert np.array_equal(matrix, np.array([[c, -s], [s, c]], dtype=np.complex128))

    def test_validation(self):
        m = ry_matrices([0.4])[0]
        with pytest.raises(ValueError, match="power of two"):
            apply_gate_inplace(np.zeros(6, dtype=np.complex128), 0, m)
        with pytest.raises(ValueError, match="contiguous 1-D"):
            apply_gate_inplace(np.zeros(16, dtype=np.complex128)[::2], 0, m)
        with pytest.raises(ValueError, match="matrix per control value"):
            apply_gate_inplace(np.zeros(8, dtype=np.complex128), 0, ry_matrices([1.0] * 3),
                               0b110, np.array([0, 2]))
        with pytest.raises(ValueError, match="distinct"):
            apply_gate_inplace(np.zeros(8, dtype=np.complex128), 0, ry_matrices([1.0, 2.0]),
                               0b110, np.array([2, 2]))
        with pytest.raises(ValueError, match="outside"):
            apply_gate_inplace(np.zeros(8, dtype=np.complex128), 0, ry_matrices([1.0, 2.0]),
                               0b110, np.array([2, 1]))


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

    @pytest.mark.parametrize("shots", [1, 6, 7, 8, 14, 30])
    def test_chunked_draws_match_one_draw(self, monkeypatch, shots):
        psi = random_state(3, make_rng(8))
        whole = make_rng(shots)
        accepted = int(np.count_nonzero(whole.random(shots) < abs(psi.amplitudes[0]) ** 2))
        monkeypatch.setattr(qsim, "SHOT_CHUNK", 7)
        chunked = make_rng(shots)
        assert zero_outcome_counts(psi, shots, chunked) == (accepted, shots - accepted)
        assert chunked.random() == whole.random()


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
