"""Hash states, the rotation circuit and its inverse, the REVERSE test."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhashlab import qhash as qhash_mod
from qhashlab import qsim
from qhashlab import (
    CircuitDescription,
    Hadamard,
    HashParams,
    KeySet,
    PrepareUniform,
    RotationLayer,
    build_hash_circuit,
    bundled_table_dir,
    dump_circuit,
    hash_inner_product,
    hash_state,
    load_keyset,
    make_rng,
    measure_all,
    reverse_test,
    reverse_test_shots,
    sample_outcomes,
    simulate_circuit,
    simulate_circuits,
    uncompute_hash,
)
from qhashlab.qsim import hadamard_matrix, reflect_to_uniform

from conftest import ry


# Moduli with no power-of-two form, past int64 and float64's 2^53 among them
NON_POWER_OF_TWO_MODULI = [3, 5, 12, 100, 1000, 3 * 2**20 + 7, 10**12 + 39, 2**64 + 1, 3**50]


def circuit_state(params, m):
    return simulate_circuit(build_hash_circuit(params, m))


def non_power_of_two_params(modulus, d):
    rng = random.Random(modulus * 100 + d)
    return HashParams(KeySet(modulus, tuple(rng.randrange(modulus) for _ in range(d))))


def edge_messages(modulus):
    """0, N - 1 (the largest message, with bit n set), N/2 and N/3."""
    return [0, modulus - 1, modulus // 2, modulus // 3]


class TestHashParams:
    @pytest.mark.parametrize(
        "modulus,d,n,s",
        [(8, 2, 3, 2), (32, 15, 5, 5), (1024, 65, 10, 8), (8, 4, 3, 3),
         # n bits hold every message below any N: one rotation layer per bit
         (2, 1, 1, 1), (3, 2, 2, 2), (12, 2, 4, 2), (1000, 65, 10, 8), (2**64 + 1, 2, 65, 2), (3**50, 5, 80, 4)],
    )
    def test_register_sizes(self, modulus, d, n, s):
        params = HashParams(KeySet(modulus=modulus, keys=tuple(range(1, d + 1))))
        assert params.n == n
        assert params.s == s

    def test_branch_capacity(self):
        params = HashParams(KeySet(modulus=32, keys=tuple(range(15))))
        assert params.branch_capacity == 16

    @pytest.mark.parametrize("d", [0, -1, -(1 << 40)])
    def test_register_needs_a_key(self, d):
        with pytest.raises(ValueError, match=rf"^d must be >= 1, got {d}$"):
            qhash_mod.hash_qubits(d)

    def test_register_beyond_max_qubits_raises(self, monkeypatch):
        assert qhash_mod.hash_qubits(1 << 23) == 24
        with pytest.raises(ValueError, match="^8388609 keys need 25 qubits; states hold at most MAX_QUBITS = 24$"):
            qhash_mod.hash_qubits((1 << 23) + 1)
        monkeypatch.setattr(qsim, "MAX_QUBITS", 3)
        HashParams(KeySet(modulus=8, keys=(1, 2, 3, 4)))
        with pytest.raises(ValueError, match="5 keys need 4 qubits"):
            HashParams(KeySet(modulus=8, keys=(1, 2, 3, 4, 5)))


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
        circuit = build_hash_circuit(HashParams(tiny_keyset), 5)
        assert [g for g in circuit.gates if isinstance(g, Hadamard)] == [Hadamard(1)]
        assert not any(isinstance(g, PrepareUniform) for g in circuit.gates)

    def test_partial_register_uses_preparation(self, n32_keyset):
        circuit = build_hash_circuit(HashParams(n32_keyset), 7)
        assert circuit.gates[0] == PrepareUniform(branch_count=15)
        assert not any(isinstance(g, Hadamard) for g in circuit.gates)

    def test_rotations_only_for_set_bits(self, n32_keyset):
        circuit = build_hash_circuit(HashParams(n32_keyset), 5)
        layers = [g for g in circuit.gates if isinstance(g, RotationLayer)]
        assert [g.message_bit for g in layers] == [1, 3]  # bits 1 and 3 of M=5
        assert all(len(g.thetas) == 15 for g in layers)

    def test_rotation_angles(self, tiny_keyset):
        circuit = build_hash_circuit(HashParams(tiny_keyset), 2)
        (layer,) = [g for g in circuit.gates if isinstance(g, RotationLayer)]
        # bit 2 carries weight 2: theta = 4*pi*(2k mod 8)/8
        assert layer.thetas[0] == pytest.approx(math.pi, abs=1e-12)
        assert layer.thetas[1] == pytest.approx(2 * math.pi, abs=1e-12)

    def test_rotation_angles_match_the_scalar_formula(self):
        for params, m in criterion_3_draws(make_rng(6), 2):
            circuit = build_hash_circuit(params, m)
            layers = [g for g in circuit.gates if isinstance(g, RotationLayer)]
            modulus = params.keyset.modulus
            for layer in layers:
                expected = tuple(
                    4.0 * np.pi * ((k << (layer.message_bit - 1)) % modulus) / modulus
                    for k in params.keyset.keys
                )
                assert layer.thetas == expected
                assert all(type(theta) is float for theta in layer.thetas)

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

    @pytest.mark.parametrize("modulus", NON_POWER_OF_TWO_MODULI)
    @pytest.mark.parametrize("d", [1, 5, 33])
    def test_non_power_of_two_moduli_match_analytic(self, modulus, d):
        params = non_power_of_two_params(modulus, d)
        for m in edge_messages(modulus):
            circuit = build_hash_circuit(params, m)
            assert [g.message_bit for g in circuit.gates if isinstance(g, RotationLayer)] == [
                j for j in range(1, params.n + 1) if m >> (j - 1) & 1
            ]
            dev = np.max(np.abs(simulate_circuit(circuit).amplitudes - hash_state(params, m).amplitudes))
            assert dev < 1e-10, m

    def test_message_range_checked(self, tiny_keyset):
        params = HashParams(tiny_keyset)
        build_hash_circuit(params, 0)
        build_hash_circuit(params, 7)
        for m in (-1, 8, 1 << 70):
            with pytest.raises(ValueError, match=rf"^message {m} out of range \[0, 7\]$"):
                build_hash_circuit(params, m)


class TestDumpCircuit:
    def test_text_form(self, tiny_keyset):
        text = "\n".join(dump_circuit(build_hash_circuit(HashParams(tiny_keyset), 1))) + "\n"
        assert text == "qubits 2\nH 1\nCRY 0 0 1.5707963267948966\nCRY 1 0 3.141592653589793\n"

    @pytest.mark.parametrize("fixture,m,head", [
        ("tiny_keyset", 5, ["qubits 2", "H 1"]),  # bits 1 and 3
        ("n32_keyset", 13, ["qubits 5", "PREP 15"]),  # bits 1, 3 and 4
    ])
    def test_every_line_matches_the_scalar_formula(self, request, fixture, m, head):
        keyset = request.getfixturevalue(fixture)
        params = HashParams(keyset)
        n = keyset.modulus
        # one block of d CRY lines, in branch order, per set message bit
        expected = head + [
            f"CRY {i} 0 {4.0 * math.pi * ((k << (j - 1)) % n) / n!r}"
            for j, bit in enumerate(reversed(format(m, f"0{params.n}b")), start=1) if bit == "1"
            for i, k in enumerate(keyset.keys)
        ]
        assert "\n".join(dump_circuit(build_hash_circuit(params, m))) + "\n" == (
            "\n".join(expected) + "\n"
        )

    def test_preparation_line(self, n32_keyset):
        text = "\n".join(dump_circuit(build_hash_circuit(HashParams(n32_keyset), 0))) + "\n"
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
        state = simulate_circuit(build_hash_circuit(params, m))
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
        # the flat set: every wrong pair accepts with (1/15)^2
        assert hash_inner_product(n32_keyset, 4, 9) ** 2 == pytest.approx((1 / 15) ** 2, abs=1e-12)
        assert hash_inner_product(n32_keyset, 4, 4) ** 2 == pytest.approx(1.0)

    def test_dishonest_statistics(self, tiny_keyset):
        params = HashParams(tiny_keyset)
        p = hash_inner_product(tiny_keyset, 1, 3) ** 2
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
    """Reference simulation: every gate on its own, through `gate`.

    A rotation layer runs as one controlled rotation per branch.
    """
    s = circuit.qubit_count
    amp = np.zeros(1 << s, dtype=np.complex128)
    amp[0] = 1.0
    for g in circuit.gates:
        if isinstance(g, Hadamard):
            amp = gate(amp, g.target, hadamard_matrix())
        elif isinstance(g, RotationLayer):
            for i, theta in enumerate(g.thetas):
                amp = gate(amp, 0, ry(theta), (1 << s) - 2, i << 1)
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


def copied_turn(pairs, cos, sin):
    """The branch-pair turn from fresh copies of both halves: the expression whose bits _turn_pairs keeps."""
    rows = pairs[..., : cos.size, :]
    a0 = rows[..., 0].copy()
    a1 = rows[..., 1].copy()
    rows[..., 0] = cos * a0 + (-sin) * a1
    rows[..., 1] = sin * a0 + cos * a1


# Amplitude parts and turn entries: signed zeros (key 0 turns by sin = 0
# exactly), subnormals, and any other float of at most unit size.
turn_values = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
                        st.floats(min_value=-1.0, max_value=1.0))


@st.composite
def turn_cases(draw):
    """A (rows, M, 2) block as simulate_circuits turns it, or the (M, 2) view of one state,
    and d <= M turns, forward (circuit) or back (uncompute's -sin)."""
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    m = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=m))
    size = 2 * m * (rows or 1)
    amp = np.empty(size, dtype=np.complex128)
    amp.real = draw(st.lists(turn_values, min_size=size, max_size=size))
    amp.imag = draw(st.lists(turn_values, min_size=size, max_size=size))
    cos = np.array(draw(st.lists(turn_values, min_size=d, max_size=d)))
    sin = np.array(draw(st.lists(turn_values, min_size=d, max_size=d)))
    return (m, 2) if rows is None else (rows, m, 2), amp, cos, -sin if draw(st.booleans()) else sin


def criterion_3_draws(rng, count):
    """Random key sets and messages as criterion 3 draws them, plus d = 64 and two N not powers of two."""
    for modulus, d in [(8, 2), (32, 15), (1024, 65), (8, 15), (1024, 2),
                       (32, 65), (1024, 64), (256, 16), (12, 3), (1000, 33)]:
        for _ in range(count):
            keys = tuple(int(k) for k in rng.integers(0, modulus, size=d))
            yield HashParams(KeySet(modulus=modulus, keys=keys)), int(rng.integers(modulus))


class TestFastPathsMatchGateByGate:
    """Batched and in-place paths against the one-gate-at-a-time formula."""

    @given(turn_cases())
    # one key on an (M, 2) view: an underflowing product written over its
    # own operand came out +0.0 where the copied turn gives -0.0
    @example(((2, 2), np.array([complex(-5e-324, -0.0), complex(-0.0, 0.0)] + [0j] * 2),
              np.array([5e-324]), np.array([-0.0])))
    # and on a (1, 2) view: sin * a0 multiplied in place over a copy of a0
    # gave a1 = -0+0j where the copied turn gives -0-0j
    @example(((1, 2), np.array([complex(5e-324, 5e-324)] * 2), np.array([-5e-324]), np.array([-5e-324])))
    @settings(max_examples=100, deadline=None)
    def test_turn_in_place_keeps_every_bit(self, case):
        shape, amp, cos, sin = case
        turned, expected = amp.copy(), amp.copy()
        qhash_mod._turn_pairs(turned.reshape(shape), cos, sin)
        copied_turn(expected.reshape(shape), cos, sin)
        assert turned.tobytes() == expected.tobytes()

    def test_simulate_circuit(self, fancy_index_gate):
        for params, m in criterion_3_draws(make_rng(303), 4):
            circuit = build_hash_circuit(params, m)
            assert np.array_equal(
                simulate_circuit(circuit).amplitudes, gate_by_gate(circuit, fancy_index_gate)
            )

    def test_hand_built_circuit_with_repeats(self, fancy_index_gate):
        # layers that turn the same branches again, Hadamards between
        # them, a layer shorter than the four branches and a preparation
        gates = (
            Hadamard(target=1), Hadamard(target=2),
            RotationLayer(message_bit=1, thetas=(0.3, 1.1, 2.9, -0.7)),
            Hadamard(target=1),
            RotationLayer(message_bit=2, thetas=(5.0, 0.2)),
            RotationLayer(message_bit=3, thetas=(-1.3, 0.4, 2.2, 0.9)),
            PrepareUniform(branch_count=3),
            RotationLayer(message_bit=4, thetas=(0.6, -2.4, 1.7)),
            Hadamard(target=2),
            RotationLayer(message_bit=5, thetas=(3.3,)),
        )
        circuit = CircuitDescription(qubit_count=3, gates=gates)
        assert np.array_equal(
            simulate_circuit(circuit).amplitudes, gate_by_gate(circuit, fancy_index_gate)
        )

    @pytest.mark.parametrize("row", ["n1024_d65.txt", "n32_d15.txt", "64 keys mod 1024"])
    def test_shared_params_turn_as_fresh_params_per_message(self, row):
        rng = make_rng(17)
        if row.endswith(".txt"):
            keyset = load_keyset(bundled_table_dir() / row).keyset
        else:
            keyset = KeySet(1024, tuple(int(k) for k in rng.integers(0, 1024, size=64)))
        shared = HashParams(keyset)
        messages = [0, keyset.modulus - 1, *(int(m) for m in rng.integers(0, keyset.modulus, size=60))]
        for m in messages + messages[::-1]:
            reused = simulate_circuit(build_hash_circuit(shared, m))
            fresh = simulate_circuit(build_hash_circuit(HashParams(keyset), m))
            assert reused.amplitudes.tobytes() == fresh.amplitudes.tobytes(), m
        first, again = (build_hash_circuit(shared, keyset.modulus - 1).gates for _ in range(2))
        layers = [(a, b) for a, b in zip(first, again) if isinstance(a, RotationLayer)]
        assert len(layers) == keyset.modulus.bit_length() - 1

    def test_invalid_gate_still_raises(self):
        # five thetas for the four index branches of a 3-qubit register
        bad = RotationLayer(message_bit=1, thetas=(0.3, 1.1, 2.9, -0.7, 0.5))
        with pytest.raises(ValueError, match="rotation layer turns 5 branches; the register holds 4"):
            simulate_circuit(CircuitDescription(qubit_count=3, gates=(bad,)))

    def test_uncompute_hash(self, fancy_index_gate):
        rng = make_rng(404)
        for params, m in criterion_3_draws(make_rng(404), 3):
            v = int(rng.integers(params.keyset.modulus))
            circuit = build_hash_circuit(params, m)
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
                    assert reverse_test(params, v, psi, test_rng) is (oracle == 0)
                assert test_rng.random() == oracle_rng.random()


def bundled_rows():
    return sorted(path.name for path in bundled_table_dir().glob("n*.txt"))


class TestSimulateCircuits:
    """A block of messages as the rows of one array, bit for bit simulate_circuit."""

    @staticmethod
    def assert_rows_match(params, messages, block):
        for start in range(0, len(messages), block):
            chunk = messages[start : start + block]
            rows = simulate_circuits(params, chunk)
            assert rows.shape == (len(chunk), 1 << params.s)
            for m, row in zip(chunk, rows):
                one = simulate_circuit(build_hash_circuit(params, m)).amplitudes
                assert np.array_equal(row.view(np.uint64), one.view(np.uint64)), m

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    @pytest.mark.parametrize("row", bundled_rows())
    def test_bundled_rows(self, row, block):
        keyset = load_keyset(bundled_table_dir() / row).keyset
        rng = make_rng(keyset.modulus + block)
        messages = [0, keyset.modulus - 1, *(int(m) for m in rng.integers(0, keyset.modulus, size=20))]
        self.assert_rows_match(HashParams(keyset), messages, block)

    @pytest.mark.parametrize("block", [1, 3, 7, 64])
    def test_full_registers_take_the_hadamard_path(self, block):
        rng = make_rng(64 + block)
        for _ in range(3):
            params = HashParams(KeySet(1024, tuple(int(k) for k in rng.integers(0, 1024, size=64))))
            assert isinstance(build_hash_circuit(params, 1).gates[0], Hadamard)
            self.assert_rows_match(params, [int(m) for m in rng.integers(0, 1024, size=70)], block)

    def test_messages_past_int64(self):
        params = HashParams(KeySet(2**70, (5, 2**70 - 1, 2**69 + 3)))
        self.assert_rows_match(params, [0, 2**70 - 1, 2**64 + 7, 3 * 2**62 + 1], 3)

    def test_refusals_match_build_hash_circuit(self, tiny_keyset):
        with pytest.raises(ValueError, match=r"message 8 out of range \[0, 7\]"):
            simulate_circuits(HashParams(tiny_keyset), [1, 8])
        with pytest.raises(ValueError, match=r"message 12 out of range \[0, 11\]"):
            simulate_circuits(HashParams(KeySet(modulus=12, keys=(1, 5))), [1, 12])

    @pytest.mark.parametrize("modulus", NON_POWER_OF_TWO_MODULI)
    @pytest.mark.parametrize("d", [1, 5, 33])
    def test_non_power_of_two_moduli(self, modulus, d):
        params = non_power_of_two_params(modulus, d)
        messages = edge_messages(modulus)
        self.assert_rows_match(params, messages, 3)
        for m, row in zip(messages, simulate_circuits(params, messages)):
            assert np.max(np.abs(row - hash_state(params, m).amplitudes)) < 1e-10, m

    def test_simulation_keeps_nothing_per_message_bit(self):
        # 4096 keys at N = 2^62: message N - 1 sets all 62 bits.  Layers
        # kept per message bit, thetas and turns, would hold about 12 MiB
        # here; one layer's turns are 32 KiB arrays and the state 128 KiB.
        keys = tuple(int(k) for k in make_rng(62).integers(0, 1 << 62, size=4096))
        keyset = KeySet(1 << 62, keys)
        simulate_circuits(HashParams(keyset), [(1 << 62) - 1])  # warm-up: first-use allocations are not counted
        tracemalloc.start()
        try:
            simulate_circuits(HashParams(keyset), [(1 << 62) - 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_simulation_holds_one_register(self):
        # 2^16 keys at N = 2^62, message N - 1: a 2 MiB state turned by
        # all 62 layers.  The rows and the turn's copy and product peaked
        # at 6.6 MiB; the prepared state kept beside the rows, a copy of
        # the rows for a layer that turns them all, or two copies and
        # their sums in the turn each added 2 MiB.
        def keyset(seed):
            return KeySet(1 << 62, tuple(int(k) for k in make_rng(seed).integers(0, 1 << 62, size=1 << 16)))

        simulate_circuits(HashParams(keyset(1)), [(1 << 62) - 1])  # warm-up: first-use allocations are not counted
        params = HashParams(keyset(62))
        tracemalloc.start()
        try:
            simulate_circuits(params, [(1 << 62) - 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * (1 << 20)
