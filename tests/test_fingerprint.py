"""Linear codes and their fingerprint states, against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qhashlab import (
    CodeFormatError,
    LinearCode,
    encode,
    fingerprint_inner_product,
    fingerprint_resistance,
    fingerprint_reverse_test,
    fingerprint_state,
    inner_product,
    load_code,
    make_rng,
    measure_all,
    random_linear_code,
    sample_outcomes,
    save_code,
)
from qhashlab.fingerprint import (
    MAX_BRUTE_FORCE_BITS,
    _uncompute_fingerprint,
    fingerprint_reverse_test_shots,
)


def all_messages(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def oracle_resistance(code):
    """Literal max over all distinct message pairs."""
    best = 0.0
    for u, v in itertools.combinations(all_messages(code.n), 2):
        best = max(best, abs(fingerprint_inner_product(code, u, v)))
    return best


small_codes = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=n, max_value=12).flatmap(
        lambda m: st.builds(
            LinearCode,
            n=st.just(n),
            m=st.just(m),
            generator=st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ).map(np.array),
        )
    )
)


class TestLinearCode:
    def test_validation(self):
        with pytest.raises(ValueError, match="m >= n"):
            LinearCode(n=3, m=2, generator=np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="shape"):
            LinearCode(n=2, m=3, generator=np.zeros((2, 3), dtype=np.uint8))

    def test_generator_reduced_mod_two_and_frozen(self):
        code = LinearCode(n=1, m=2, generator=np.array([[3], [2]]))
        assert code.generator.tolist() == [[1], [0]]
        with pytest.raises(ValueError):
            code.generator[0, 0] = 0

    def test_random_code_deterministic(self):
        a = random_linear_code(3, 6, make_rng(4))
        b = random_linear_code(3, 6, make_rng(4))
        assert np.array_equal(a.generator, b.generator)


class TestEncode:
    def test_manual_example(self):
        gen = np.array([[1, 0], [0, 1], [1, 1]])
        code = LinearCode(n=2, m=3, generator=gen)
        assert encode(code, "10").tolist() == [1, 0, 1]
        assert encode(code, "11").tolist() == [1, 1, 0]

    def test_accepts_sequences(self):
        gen = np.array([[1, 0], [0, 1], [1, 1]])
        code = LinearCode(n=2, m=3, generator=gen)
        assert encode(code, [1, 1]).tolist() == encode(code, "11").tolist()

    @given(small_codes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, code, data):
        u = data.draw(st.integers(0, (1 << code.n) - 1))
        v = data.draw(st.integers(0, (1 << code.n) - 1))
        bits_u = np.array([(u >> j) & 1 for j in range(code.n)], dtype=np.uint8)
        bits_v = np.array([(v >> j) & 1 for j in range(code.n)], dtype=np.uint8)
        lhs = encode(code, (bits_u ^ bits_v))
        rhs = (encode(code, bits_u) ^ encode(code, bits_v))
        assert np.array_equal(lhs, rhs)

    def test_rejects_bad_bits(self):
        code = LinearCode(n=2, m=3, generator=np.zeros((3, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="expected 2 bits"):
            encode(code, "1")
        with pytest.raises(ValueError, match="expected 2 bits"):
            encode(code, "12")


class TestMinDistance:
    def test_repetition_code(self):
        code = LinearCode(n=1, m=3, generator=np.ones((3, 1), dtype=np.uint8))
        assert code.min_distance() == 3

    def test_matches_exhaustive(self):
        code = random_linear_code(5, 9, make_rng(8))
        weights = [
            int(encode(code, u).sum()) for u in all_messages(5) if u != "00000"
        ]
        assert code.min_distance() == min(weights)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (3, 8), (5, 17), (9, 64), (12, 100)])
    def test_weights_match_the_matrix_product_enumeration(self, n, m):
        # the enumeration the XOR doubling replaced: every message's bits
        # times the generator, mod 2
        for seed in range(3):
            code = random_linear_code(n, m, make_rng(seed))
            messages = np.arange(1, 1 << n, dtype=np.uint32)
            bits = (messages[:, None] >> np.arange(n)) & 1
            weights = (bits.astype(np.uint8) @ code.generator.T % 2).sum(axis=1)
            assert code.min_distance() == int(weights.min())
            assert fingerprint_resistance(code) == float(
                np.max(np.abs(1.0 - 2.0 * weights / m))
            )

    def test_codewords_enumerated_once(self):
        code = random_linear_code(6, 20, make_rng(1))
        code.min_distance()
        weights = vars(code)["_weights"]
        fingerprint_resistance(code)
        code.min_distance()
        assert vars(code)["_weights"] is weights

    def test_brute_force_limit(self):
        n = MAX_BRUTE_FORCE_BITS + 1
        code = LinearCode(n=n, m=n, generator=np.eye(n, dtype=np.uint8))
        with pytest.raises(ValueError, match="refused"):
            code.min_distance()


class TestFingerprintState:
    def test_repetition_code_states(self):
        code = LinearCode(n=1, m=3, generator=np.ones((3, 1), dtype=np.uint8))
        psi = fingerprint_state(code, "1")
        r = 1 / math.sqrt(3)
        assert psi.num_qubits == 2
        assert np.allclose(psi.amplitudes, [-r, -r, -r, 0.0], atol=1e-12)

    @given(small_codes, st.data())
    @settings(max_examples=40, deadline=None)
    def test_analytic_inner_product_matches_states(self, code, data):
        u = data.draw(st.integers(0, (1 << code.n) - 1))
        v = data.draw(st.integers(0, (1 << code.n) - 1))
        fmt = f"0{code.n}b"
        bits_u = format(u, fmt)[::-1]
        bits_v = format(v, fmt)[::-1]
        analytic = fingerprint_inner_product(code, bits_u, bits_v)
        materialized = inner_product(
            fingerprint_state(code, bits_u), fingerprint_state(code, bits_v)
        )
        assert materialized.imag == 0.0
        assert materialized.real == pytest.approx(analytic, abs=1e-12)

    def test_resistance_matches_pairwise_oracle(self):
        for seed in range(6):
            code = random_linear_code(4, 10, make_rng(seed))
            assert fingerprint_resistance(code) == pytest.approx(
                oracle_resistance(code), abs=1e-12
            )

    def test_balanced_code_has_zero_resistance(self):
        # the lone nonzero codeword has weight exactly m/2
        code = LinearCode(n=1, m=2, generator=np.array([[1], [0]]))
        assert fingerprint_resistance(code) == 0.0

    def test_identity_code_resistance(self):
        # the all-ones message flips every sign: antipodal fingerprints
        code = LinearCode(n=3, m=3, generator=np.eye(3, dtype=np.uint8))
        assert fingerprint_resistance(code) == pytest.approx(1.0, abs=1e-12)


class TestFingerprintReverseTest:
    def test_honest_always_accepts(self):
        code = random_linear_code(4, 11, make_rng(2))
        rng = make_rng(0)
        psi = fingerprint_state(code, "1010")
        assert all(fingerprint_reverse_test(code, "1010", psi, rng) for _ in range(30))

    def test_wrong_claim_statistics(self):
        code = random_linear_code(3, 8, make_rng(6))
        psi = fingerprint_state(code, "011")
        p = fingerprint_inner_product(code, "110", "011") ** 2
        shots = 20000
        counts = fingerprint_reverse_test_shots(code, "110", psi, shots, make_rng(3))
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(counts.accept_rate - p) <= 3 * sigma + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_shots_count_sampled_zeros(self, seed):
        code = random_linear_code(5, 13 + seed, make_rng(seed))
        u, v = "10110", "0111" + str(seed % 2)
        psi = fingerprint_state(code, u)
        for claim in (u, v):
            shots = 30000 + seed
            tally_rng, sample_rng = make_rng(seed), make_rng(seed)
            counts = fingerprint_reverse_test_shots(code, claim, psi, shots, tally_rng)
            outcomes = sample_outcomes(
                _uncompute_fingerprint(code, claim, psi), shots, sample_rng
            )
            assert counts.accepted == int(np.count_nonzero(outcomes == 0))
            assert tally_rng.random() == sample_rng.random()

    @pytest.mark.parametrize("m", [8, 13])
    def test_verdict_is_the_measured_zero_outcome(self, m):
        code = random_linear_code(4, m, make_rng(m))
        psi = fingerprint_state(code, "1010")
        for claim in ("1010", "0110", "1011"):
            test_rng, oracle_rng = make_rng(m), make_rng(m)
            for _ in range(40):
                oracle = measure_all(_uncompute_fingerprint(code, claim, psi), oracle_rng)
                assert fingerprint_reverse_test(code, claim, psi, test_rng) is (oracle.outcome == 0)
            assert test_rng.random() == oracle_rng.random()

    def test_register_size_checked(self):
        code = random_linear_code(2, 4, make_rng(0))
        other = random_linear_code(2, 16, make_rng(0))
        with pytest.raises(ValueError, match="qubits"):
            fingerprint_reverse_test(
                code, "10", fingerprint_state(other, "10"), make_rng(0)
            )


# Generator matrices of codes with 1 <= n <= m <= 40.
generators = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.integers(min_value=n, max_value=40).flatmap(
        lambda m: arrays(np.uint8, (m, n), elements=st.integers(0, 1))
    )
)


class TestCodeFiles:
    @given(generators)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip(self, tmp_path, generator):
        code = LinearCode(n=generator.shape[1], m=generator.shape[0], generator=generator)
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_code(code, first)
        loaded = load_code(first)
        assert (loaded.n, loaded.m) == (code.n, code.m)
        assert np.array_equal(loaded.generator, code.generator)
        save_code(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    def test_text_layout(self, tmp_path):
        code = LinearCode(n=2, m=3, generator=np.array([[1, 0], [0, 1], [1, 1]]))
        path = tmp_path / "code.txt"
        save_code(code, path)
        assert path.read_text() == "n 2\nm 3\n10\n01\n11\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n 2\n", "truncated"),
            ("n 2\nm 3\n10\n01\n", "lists 2 rows"),
            ("n 2\nm 1\n102\n", "row of bits"),
            ("n 2\nm 1\n101\n", "row has 3 bits"),
            ("m 3\nn 2\n10\n01\n11\n", "expected 'n"),
            ("n x\nm 3\n10\n01\n11\n", "must be an integer"),
            ("n 3\nm 2\n111\n000\n", "m >= n"),
        ],
    )
    def test_diagnostics(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(CodeFormatError, match=message):
            load_code(path)
