"""Hash states, the rotation circuit and its inverse, the REVERSE test."""

import math

import numpy as np
import pytest

from qhashlab import (
    CircuitDescription,
    ControlledRotation,
    Hadamard,
    HashParams,
    KeySet,
    PrepareUniform,
    build_hash_circuit,
    dump_circuit,
    hash_inner_product,
    hash_state,
    make_rng,
    measure_all,
    message_bits,
    reverse_test,
    reverse_test_accept_probability,
    reverse_test_shots,
    sample_outcomes,
    simulate_circuit,
    uncompute_hash,
)
from qhashlab.qsim import hadamard_matrix, reflect_to_uniform, ry_matrix


def circuit_state(params, m):
    return simulate_circuit(build_hash_circuit(params, message_bits(m, params.n)))


class TestHashParams:
    @pytest.mark.parametrize(
        "modulus,d,n,s",
        [(8, 2, 3, 2), (32, 15, 5, 5), (1024, 65, 10, 8), (8, 4, 3, 3)],
    )
    def test_register_sizes(self, modulus, d, n, s):
        params = HashParams(KeySet(modulus=modulus, keys=tuple(range(1, d + 1))))
        assert params.n == n
        assert params.s == s
        assert params.index_qubits == s - 1

    def test_non_power_of_two_modulus_has_no_bit_length(self):
        params = HashParams(KeySet(modulus=12, keys=(1, 2)))
        assert params.n is None
        assert params.s == 2

    def test_branch_capacity(self):
        params = HashParams(KeySet(modulus=32, keys=tuple(range(15))))
        assert params.branch_capacity == 16


class TestMessageBits:
    def test_lsb_first(self):
        assert message_bits(5, 4) == (1, 0, 1, 0)
        assert message_bits(0, 3) == (0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="message"):
            message_bits(8, 3)


class TestHashState:
    def test_worked_example(self, tiny_keyset):
        # K={1,2} mod 8, M=1: branch angles pi/4 and pi/2
        psi = hash_state(HashParams(tiny_keyset), 1)
        r = 1 / math.sqrt(2)
        expected = [r * math.cos(math.pi / 4), r * math.sin(math.pi / 4),
                    r * math.cos(math.pi / 2), r * math.sin(math.pi / 2)]
        assert np.allclose(psi.amplitudes, expected, atol=1e-12)

    def test_message_zero_is_uniform_cosine(self, n32_keyset):
        psi = hash_state(HashParams(n32_keyset), 0)
        assert np.allclose(
            psi.amplitudes[0:30:2], 1 / math.sqrt(15), atol=1e-12
        )
        assert np.allclose(psi.amplitudes[1:30:2], 0.0, atol=1e-12)

    def test_overlap_matches_bias_module(self, n32_keyset):
        params = HashParams(n32_keyset)
        psi = hash_state(params, 3)
        phi = hash_state(params, 19)
        overlap = float(np.vdot(psi.amplitudes, phi.amplitudes).real)
        assert overlap == pytest.approx(
            hash_inner_product(n32_keyset, 3, 19), abs=1e-12
        )

    def test_message_out_of_range(self, tiny_keyset):
        with pytest.raises(ValueError, match="message"):
            hash_state(HashParams(tiny_keyset), 8)


class TestCircuit:
    def test_worked_example_matches_exactly(self, tiny_keyset):
        params = HashParams(tiny_keyset)
        psi = circuit_state(params, 1)
        assert np.allclose(
            psi.amplitudes, hash_state(params, 1).amplitudes, atol=1e-14
        )

    def test_full_register_uses_hadamard_layer(self, tiny_keyset):
        circuit = build_hash_circuit(HashParams(tiny_keyset), (1, 0, 1))
        assert [g for g in circuit.gates if isinstance(g, Hadamard)] == [Hadamard(1)]
        assert not any(isinstance(g, PrepareUniform) for g in circuit.gates)

    def test_partial_register_uses_preparation(self, n32_keyset):
        circuit = build_hash_circuit(HashParams(n32_keyset), message_bits(7, 5))
        assert circuit.gates[0] == PrepareUniform(branch_count=15)
        assert not any(isinstance(g, Hadamard) for g in circuit.gates)

    def test_rotations_only_for_set_bits(self, n32_keyset):
        circuit = build_hash_circuit(HashParams(n32_keyset), message_bits(5, 5))
        rotations = [g for g in circuit.gates if isinstance(g, ControlledRotation)]
        assert len(rotations) == 2 * 15  # bits 1 and 3 of M=5
        assert {g.message_bit for g in rotations} == {1, 3}
        assert all(g.target == 0 for g in rotations)

    def test_rotation_angles(self, tiny_keyset):
        circuit = build_hash_circuit(HashParams(tiny_keyset), (0, 1, 0))
        rotations = [g for g in circuit.gates if isinstance(g, ControlledRotation)]
        # bit 2 carries weight 2: theta = 4*pi*(2k mod 8)/8
        assert rotations[0].theta == pytest.approx(math.pi, abs=1e-12)
        assert rotations[1].theta == pytest.approx(2 * math.pi, abs=1e-12)

    def test_rotation_angles_match_the_scalar_formula(self):
        for params, m in criterion_3_draws(make_rng(6), 2):
            circuit = build_hash_circuit(params, message_bits(m, params.n))
            rotations = [g for g in circuit.gates if isinstance(g, ControlledRotation)]
            modulus = params.keyset.modulus
            expected = [
                4.0 * np.pi * ((params.keyset.keys[g.condition] << (g.message_bit - 1)) % modulus)
                / modulus
                for g in rotations
            ]
            assert [g.theta for g in rotations] == expected
            assert all(type(g.theta) is float for g in rotations)

    @pytest.mark.parametrize("modulus", [8, 32, 1024])
    @pytest.mark.parametrize("d", [2, 15, 65])
    def test_equivalence_sweep(self, modulus, d):
        rng = make_rng(modulus * 1000 + d)
        for _ in range(4):
            keys = tuple(int(k) for k in rng.integers(0, modulus, size=d))
            params = HashParams(KeySet(modulus=modulus, keys=keys))
            m = int(rng.integers(0, modulus))
            dev = np.max(
                np.abs(
                    circuit_state(params, m).amplitudes
                    - hash_state(params, m).amplitudes
                )
            )
            assert dev < 1e-10

    def test_needs_power_of_two_modulus(self):
        params = HashParams(KeySet(modulus=12, keys=(1, 2)))
        with pytest.raises(ValueError, match="power of two"):
            build_hash_circuit(params, (1, 1))

    def test_bit_count_checked(self, tiny_keyset):
        with pytest.raises(ValueError, match="expected 3 message bits"):
            build_hash_circuit(HashParams(tiny_keyset), (1, 0))
        with pytest.raises(ValueError, match="0 or 1"):
            build_hash_circuit(HashParams(tiny_keyset), (1, 0, 2))


class TestDumpCircuit:
    def test_text_form(self, tiny_keyset):
        text = dump_circuit(build_hash_circuit(HashParams(tiny_keyset), (1, 0, 0)))
        lines = text.splitlines()
        assert lines[0] == "qubits 2"
        assert lines[1] == "H 1"
        assert lines[2].startswith("CRY 0 0 ")
        assert lines[3].startswith("CRY 1 0 ")
        theta = float(lines[2].split()[3])
        assert theta == pytest.approx(math.pi / 2)

    def test_preparation_line(self, n32_keyset):
        text = dump_circuit(build_hash_circuit(HashParams(n32_keyset), (0,) * 5))
        assert text == "qubits 5\nPREP 15\n"


class TestUncompute:
    @pytest.mark.parametrize("modulus,d", [(8, 2), (32, 15), (64, 33)])
    def test_honest_claim_lands_on_zero(self, modulus, d):
        rng = make_rng(d)
        keys = tuple(int(k) for k in rng.integers(0, modulus, size=d))
        params = HashParams(KeySet(modulus=modulus, keys=keys))
        for m in (0, 1, modulus - 1):
            out = uncompute_hash(params, m, hash_state(params, m))
            assert abs(out.amplitudes[0]) ** 2 > 1 - 1e-9

    def test_wrong_claim_probability_is_squared_overlap(self, n32_keyset):
        params = HashParams(n32_keyset)
        out = uncompute_hash(params, 4, hash_state(params, 9))
        assert abs(out.amplitudes[0]) ** 2 == pytest.approx(
            hash_inner_product(n32_keyset, 4, 9) ** 2, abs=1e-12
        )

    def test_inverts_the_circuit(self, n32_keyset):
        # composing uncompute after the simulated circuit returns |0...0>
        params = HashParams(n32_keyset)
        m = 11
        state = simulate_circuit(
            build_hash_circuit(params, message_bits(m, params.n))
        )
        out = uncompute_hash(params, m, state)
        assert abs(out.amplitudes[0]) == pytest.approx(1.0, abs=1e-10)

    def test_register_size_checked(self, tiny_keyset, n32_keyset):
        with pytest.raises(ValueError, match="qubits"):
            uncompute_hash(
                HashParams(n32_keyset), 0, hash_state(HashParams(tiny_keyset), 0)
            )


class TestReverseTest:
    def test_honest_always_accepts(self, n32_keyset):
        params = HashParams(n32_keyset)
        rng = make_rng(0)
        psi = hash_state(params, 21)
        assert all(reverse_test(params, 21, psi, rng) for _ in range(50))

    def test_accept_probability(self, n32_keyset):
        params = HashParams(n32_keyset)
        # the flat set: every wrong pair accepts with (1/15)^2
        assert reverse_test_accept_probability(params, 4, 9) == pytest.approx(
            (1 / 15) ** 2, abs=1e-12
        )
        assert reverse_test_accept_probability(params, 4, 4) == pytest.approx(1.0)

    def test_dishonest_statistics(self, tiny_keyset):
        params = HashParams(tiny_keyset)
        p = reverse_test_accept_probability(params, 1, 3)
        assert p == pytest.approx(0.25, abs=1e-12)
        shots = 20000
        counts = reverse_test_shots(
            params, 1, hash_state(params, 3), shots, make_rng(17)
        )
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(counts.accept_rate - p) < 3 * sigma

    def test_deterministic_under_seed(self, n32_keyset):
        params = HashParams(n32_keyset)
        psi = hash_state(params, 2)
        a = reverse_test_shots(params, 9, psi, 300, make_rng(4))
        b = reverse_test_shots(params, 9, psi, 300, make_rng(4))
        assert a == b


def gate_by_gate(circuit, gate):
    """Reference simulation: every gate on its own, through `gate`."""
    s = circuit.qubit_count
    amp = np.zeros(1 << s, dtype=np.complex128)
    amp[0] = 1.0
    for g in circuit.gates:
        if isinstance(g, Hadamard):
            amp = gate(amp, g.target, hadamard_matrix())
        elif isinstance(g, ControlledRotation):
            amp = gate(amp, g.target, ry_matrix(g.theta), (1 << s) - 2, g.condition << 1)
        else:
            amp = reflect_to_uniform(amp.reshape(-1, 2), g.branch_count).reshape(-1)
    return amp


def reference_uncompute(params, v, amp, gate):
    """uncompute_hash written with one gate call per Hadamard."""
    keyset = params.keyset
    d = keyset.d
    angles = 2.0 * np.pi * ((keyset.key_array() * v) % keyset.modulus) / keyset.modulus
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    pairs = amp.reshape(-1, 2).copy()
    x0 = pairs[:d, 0].copy()
    x1 = pairs[:d, 1]
    pairs[:d, 0] = cos_a * x0 + sin_a * x1
    pairs[:d, 1] = -sin_a * x0 + cos_a * x1
    if d != params.branch_capacity:
        return reflect_to_uniform(pairs, d).reshape(-1)
    out = pairs.reshape(-1)
    for q in range(1, params.s):
        out = gate(out, q, hadamard_matrix())
    return out


def criterion_3_draws(rng, count):
    """Random key sets and messages as criterion 3 draws them, plus d = 64."""
    for modulus, d in [(8, 2), (32, 15), (1024, 65), (8, 15), (1024, 2),
                       (32, 65), (1024, 64), (256, 16)]:
        for _ in range(count):
            keys = tuple(int(k) for k in rng.integers(0, modulus, size=d))
            yield HashParams(KeySet(modulus=modulus, keys=keys)), int(rng.integers(modulus))


class TestFastPathsMatchGateByGate:
    """Batched and in-place paths against the one-gate-at-a-time formula."""

    def test_simulate_circuit(self, fancy_index_gate):
        for params, m in criterion_3_draws(make_rng(303), 4):
            circuit = build_hash_circuit(params, message_bits(m, params.n))
            assert np.array_equal(
                simulate_circuit(circuit).amplitudes, gate_by_gate(circuit, fancy_index_gate)
            )

    def test_hand_built_circuit_with_repeats(self, fancy_index_gate):
        # a repeated branch, a second target and a Hadamard split the
        # rotation runs; order must be kept across the splits
        gates = (
            Hadamard(target=1), Hadamard(target=2),
            ControlledRotation(message_bit=1, condition=1, target=0, theta=0.3),
            ControlledRotation(message_bit=1, condition=2, target=0, theta=1.1),
            ControlledRotation(message_bit=2, condition=1, target=0, theta=2.9),
            Hadamard(target=1),
            ControlledRotation(message_bit=2, condition=3, target=0, theta=-0.7),
            ControlledRotation(message_bit=2, condition=0, target=0, theta=5.0),
            PrepareUniform(branch_count=3),
            ControlledRotation(message_bit=3, condition=0, target=0, theta=0.2),
        )
        circuit = CircuitDescription(qubit_count=3, gates=gates)
        assert np.array_equal(
            simulate_circuit(circuit).amplitudes, gate_by_gate(circuit, fancy_index_gate)
        )

    def test_invalid_gate_still_raises(self):
        bad = ControlledRotation(message_bit=1, condition=4, target=0, theta=0.3)
        with pytest.raises(ValueError, match="outside the control mask"):
            simulate_circuit(CircuitDescription(qubit_count=3, gates=(bad,)))

    def test_uncompute_hash(self, fancy_index_gate):
        rng = make_rng(404)
        for params, m in criterion_3_draws(make_rng(404), 3):
            v = int(rng.integers(params.keyset.modulus))
            circuit = build_hash_circuit(params, message_bits(m, params.n))
            for psi in (hash_state(params, m), simulate_circuit(circuit)):
                for claim in (v, m):
                    assert np.array_equal(
                        uncompute_hash(params, claim, psi).amplitudes,
                        reference_uncompute(params, claim, psi.amplitudes, fancy_index_gate),
                    )

    @pytest.mark.parametrize("seed", range(4))
    def test_reverse_test_shots_counts_sampled_zeros(self, seed, n32_keyset):
        rng = make_rng(seed)
        keys = tuple(int(k) for k in rng.integers(0, 256, size=16))
        for params in (HashParams(n32_keyset), HashParams(KeySet(256, keys))):
            n = params.keyset.modulus
            v, w = (int(x) for x in rng.integers(0, n, size=2))
            psi = hash_state(params, w)
            shots = 20000 + seed
            tally_rng, sample_rng = make_rng(seed), make_rng(seed)
            counts = reverse_test_shots(params, v, psi, shots, tally_rng)
            outcomes = sample_outcomes(uncompute_hash(params, v, psi), shots, sample_rng)
            assert counts.accepted == int(np.count_nonzero(outcomes == 0))
            assert tally_rng.random() == sample_rng.random()

    @pytest.mark.parametrize("seed", range(3))
    def test_reverse_test_is_the_measured_zero_outcome(self, seed, n32_keyset):
        rng = make_rng(seed)
        keys = tuple(int(k) for k in rng.integers(0, 256, size=16))
        # d = 15 prepares by reflection, d = 16 by the Hadamard layer
        for params in (HashParams(n32_keyset), HashParams(KeySet(256, keys))):
            n = params.keyset.modulus
            w = int(rng.integers(0, n))
            psi = hash_state(params, w)
            for v in (w, (w + 1) % n, int(rng.integers(0, n))):
                test_rng, oracle_rng = make_rng(seed), make_rng(seed)
                for _ in range(40):
                    oracle = measure_all(uncompute_hash(params, v, psi), oracle_rng)
                    assert reverse_test(params, v, psi, test_rng) is (oracle.outcome == 0)
                assert test_rng.random() == oracle_rng.random()
