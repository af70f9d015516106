"""Linear codes and their fingerprint states, against brute-force oracles."""

import itertools
import math
import tracemalloc

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
    fingerprint_state,
    inner_product,
    load_code,
    make_rng,
    random_linear_code,
    save_code,
)
from qhashlab import fingerprint as fp_mod
from qhashlab.fingerprint import MAX_BRUTE_FORCE_BITS

from conftest import full_table_weights


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

    @pytest.mark.parametrize("n,m,message", [
        (1, (1 << 24) + 1, "needs 25 qubits"),
        (17, 1 << 24, "exceeds MAX_GENERATOR_BYTES = 268435456"),
        (1, 1 << 40, "needs 40 qubits"),
        (3, 2, "m >= n"),
    ])
    def test_oversized_random_code_refused_before_drawing(self, n, m, message):
        rng = make_rng(4)
        with pytest.raises(ValueError, match=message):
            random_linear_code(n, m, rng)
        assert rng.random() == make_rng(4).random()


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

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (3, 8), (5, 17), (9, 64), (12, 100),
                                     (12, 256), (13, 1000)])
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

    @staticmethod
    def assert_matches_the_full_table(code):
        weights = full_table_weights(code)
        assert code.min_distance() == int(weights.min())
        assert fingerprint_resistance(code) == float(np.max(np.abs(1.0 - 2.0 * weights / code.m)))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (3, 8), (5, 17), (9, 64), (12, 100),
                                     (12, 256), (13, 1000), (6, 20), (4, 10)])
    @pytest.mark.parametrize("low_table_bytes", [1, 7, 64, fp_mod.LOW_TABLE_BYTES])
    def test_sweep_matches_the_full_table(self, monkeypatch, n, m, low_table_bytes):
        # a one-byte low table leaves all but the lowest bit to the high sweep
        monkeypatch.setattr(fp_mod, "LOW_TABLE_BYTES", low_table_bytes)
        for seed in range(3):
            self.assert_matches_the_full_table(random_linear_code(n, m, make_rng(seed)))

    @pytest.mark.parametrize("n,m", [
        (14, 16), (15, 16), (16, 16),     # two bytes a codeword: 15 low bits
        (10, 256), (11, 256), (12, 256),  # 32 bytes: 11 low bits
        (16, 1 << 15),                    # the largest table the limit admits: 4 low bits
    ])
    def test_sweep_matches_the_full_table_around_the_low_width(self, n, m):
        self.assert_matches_the_full_table(random_linear_code(n, m, make_rng(n + m)))

    def test_weights_peak_near_one_block(self):
        # a full table of these 2^16 codewords of 4096 bytes would be 256 MiB
        code = random_linear_code(16, 1 << 15, make_rng(4))
        tracemalloc.start()
        try:
            code.min_distance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * fp_mod.LOW_TABLE_BYTES, peak

    def test_weight_range_swept_once(self):
        code = random_linear_code(6, 20, make_rng(1))
        code.min_distance()
        swept = vars(code)["_weight_range"]
        weights = full_table_weights(code)
        assert swept == (int(weights.min()), int(weights.max()))
        fingerprint_resistance(code)
        code.min_distance()
        assert vars(code)["_weight_range"] is swept

    def test_brute_force_limit(self):
        n = MAX_BRUTE_FORCE_BITS + 1
        code = LinearCode(n=n, m=n, generator=np.eye(n, dtype=np.uint8))
        with pytest.raises(ValueError, match="refused"):
            code.min_distance()

    @pytest.mark.parametrize("n,m,enumerable", [
        (MAX_BRUTE_FORCE_BITS, MAX_BRUTE_FORCE_BITS, True),
        (MAX_BRUTE_FORCE_BITS + 1, MAX_BRUTE_FORCE_BITS + 1, False),
        (16, 1 << 15, True),  # a 2^16 x 4096-byte table: MAX_GENERATOR_BYTES exactly
        (16, (1 << 15) + 1, False),
        (16, 1 << 20, False),  # 8 GiB of codewords from a 16 MiB generator
    ])
    def test_codeword_table_limit(self, n, m, enumerable):
        code = LinearCode(n=n, m=m, generator=np.zeros((m, n), dtype=np.uint8))
        assert code.enumerable is enumerable
        if not enumerable:
            with pytest.raises(ValueError, match="refused"):
                fingerprint_resistance(code)


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
            ("n 2\nm 2\n10\n102\n", "row of bits"),
            ("n 2\nm 2\n10\n101\n", "row has 3 bits"),
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

    def test_declared_shape_refused_from_the_header(self, tmp_path):
        # rows follow, but the m x n shape is refused before any row is read
        path = tmp_path / "big.txt"
        path.write_text("n 1\nm 1099511627776\n1\n0\n")
        with pytest.raises(CodeFormatError, match=r"big\.txt:2: m = 1099511627776 needs 40 qubits"):
            load_code(path)

    def test_row_past_m_refused_at_its_line(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("n 2\nm 2\n10\n\n01\n11\n")
        with pytest.raises(CodeFormatError, match=r"long\.txt:6: more rows than the header's m=2"):
            load_code(path)
