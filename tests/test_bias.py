"""Character sums, bias measures, and the key-set file format."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qhashlab import (
    KeySet,
    KeySetFormatError,
    bias_profile,
    fourier_component,
    fourier_components,
    hash_inner_product,
    load_keyset,
    padded_branch_count,
    padded_delta_squared,
    save_keyset,
)


def oracle_component(keyset, shift):
    """Literal term-by-term sum, no vectorization and no angle reduction."""
    return sum(
        cmath.exp(2j * cmath.pi * k * shift / keyset.modulus) for k in keyset.keys
    )


keysets = st.integers(min_value=2, max_value=64).flatmap(
    lambda n: st.builds(
        KeySet,
        modulus=st.just(n),
        keys=st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=20
        ).map(tuple),
    )
)

# K = -K: a real spectrum, so Re f(l) = Re f(N - l) and f(l) = f(N - l).
symmetric_keysets = keysets.map(
    lambda ks: KeySet(ks.modulus, ks.keys + tuple(-k % ks.modulus for k in ks.keys))
)

# Sets whose spectra are flat or full of exact ties: one key, the key
# N/2, every residue once, one key repeated, and the moduli 2 and 3.
degenerate_keysets = st.one_of(
    st.integers(min_value=2, max_value=64).flatmap(
        lambda n: st.sampled_from(
            [KeySet(n, (n // 2,)), KeySet(n, tuple(range(n))), KeySet(n, (0,))]
        )
    ),
    st.integers(min_value=2, max_value=64).flatmap(
        lambda n: st.builds(
            lambda k, repeats: KeySet(n, (k,) * repeats),
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=1, max_value=20),
        )
    ),
    st.sampled_from([2, 3]).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=20
        ).map(lambda keys: KeySet(n, tuple(keys)))
    ),
)


class TestFourierComponent:
    def test_worked_example(self, tiny_keyset):
        # K={1,2} mod 8 at l=2: i + (-1)
        assert fourier_component(tiny_keyset, 2) == pytest.approx(-1 + 1j, abs=1e-12)

    def test_zero_shift_counts_keys(self, tiny_keyset):
        assert fourier_component(tiny_keyset, 0) == pytest.approx(2.0)

    @given(keysets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, keyset, data):
        shift = data.draw(st.integers(min_value=0, max_value=keyset.modulus - 1))
        assert fourier_component(keyset, shift) == pytest.approx(
            oracle_component(keyset, shift), abs=1e-9
        )

    @given(keysets)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, keyset):
        f = fourier_components(keyset)
        assert np.allclose(f[1:], np.conj(f[:0:-1]), atol=1e-9)

    @given(keysets)
    @settings(max_examples=60, deadline=None)
    def test_magnitude_bounded_by_d(self, keyset):
        assert np.all(np.abs(fourier_components(keyset)) <= keyset.d + 1e-9)

    def test_shift_out_of_range(self, tiny_keyset):
        with pytest.raises(ValueError, match="shift"):
            fourier_component(tiny_keyset, 8)

    def test_unknown_method(self, tiny_keyset):
        with pytest.raises(ValueError, match="method"):
            bias_profile(tiny_keyset, method="dft")


class TestBiasProfile:
    def test_worked_example(self, tiny_keyset):
        profile = bias_profile(tiny_keyset)
        # |Re f| peaks at 1 for l in {2, 6}; the tie goes to the smaller
        assert profile.delta == pytest.approx(0.5, abs=1e-12)
        assert profile.worst_shift_delta == 2
        assert profile.lambda_ == pytest.approx(
            abs(oracle_component(tiny_keyset, 1)) / 2, abs=1e-12
        )
        assert profile.worst_shift_lambda == 1

    @given(st.one_of(keysets, degenerate_keysets))
    @settings(max_examples=200, deadline=None)
    def test_fft_locate_matches_the_direct_scan(self, keyset):
        assert bias_profile(keyset, method="fft") == bias_profile(keyset, method="direct")

    @given(keysets)
    @settings(max_examples=60, deadline=None)
    def test_delta_below_lambda_below_one(self, keyset):
        profile = bias_profile(keyset)
        assert 0.0 <= profile.delta <= profile.lambda_ + 1e-12
        assert profile.lambda_ <= 1.0 + 1e-12

    @given(keysets)
    @settings(max_examples=60, deadline=None)
    def test_worst_shifts_attain_the_maxima(self, keyset):
        profile = bias_profile(keyset)
        f_delta = fourier_component(keyset, profile.worst_shift_delta)
        f_lambda = fourier_component(keyset, profile.worst_shift_lambda)
        assert abs(f_delta.real) / keyset.d == pytest.approx(profile.delta, abs=1e-12)
        assert abs(f_lambda) / keyset.d == pytest.approx(profile.lambda_, abs=1e-12)

    @given(keysets)
    @settings(max_examples=60, deadline=None)
    def test_odd_cardinality_floor_at_even_modulus(self, keyset):
        # Re f_K(N/2) = sum of d signs: an integer with d's parity.
        if keyset.modulus % 2 == 0 and keyset.d % 2 == 1:
            assert bias_profile(keyset).delta >= 1.0 / keyset.d - 1e-12

    @pytest.mark.parametrize("method", ["fft", "direct"])
    def test_flat_set_reports_the_smallest_shift(self, n32_keyset, method):
        # every nonzero shift ties at |Re f| = 1 (the gather gives
        # 1.000000000000003 at l = 31 and 0.9999999999999998 at l = 1)
        profile = bias_profile(n32_keyset, method=method)
        assert profile.worst_shift_delta == 1
        assert profile.worst_shift_lambda == 1

    @given(st.one_of(keysets, symmetric_keysets, degenerate_keysets))
    @settings(max_examples=200, deadline=None)
    def test_ties_resolve_to_the_smallest_shift(self, keyset):
        n, d = keyset.modulus, keyset.d
        f = fourier_components(keyset)[1:]
        profile = bias_profile(keyset)
        for values, top, shift in (
            (np.abs(f.real), profile.delta, profile.worst_shift_delta),
            (np.hypot(f.real, f.imag), profile.lambda_, profile.worst_shift_lambda),
        ):
            assert top == values.max() / d
            assert shift == 1 + np.flatnonzero(values >= values.max() - 1e-12 * d)[0]
            # l and N - l tie in exact arithmetic
            assert shift <= n // 2

    def test_flat_set_attains_the_floor(self, n32_keyset):
        # {1..16} \ {8} mod 32: |Re f| = 1 at every nonzero shift.
        f = fourier_components(n32_keyset)
        assert np.allclose(np.abs(f.real[1:]), 1.0, atol=1e-9)
        assert bias_profile(n32_keyset).delta == pytest.approx(1 / 15, abs=1e-12)


class TestPaddedStatistic:
    @pytest.mark.parametrize(
        "d,capacity", [(1, 1), (2, 2), (3, 4), (15, 16), (16, 16), (17, 32), (65, 128)]
    )
    def test_branch_count(self, d, capacity):
        assert padded_branch_count(d) == capacity

    def test_branch_count_rejects_zero(self):
        with pytest.raises(ValueError):
            padded_branch_count(0)

    @given(keysets)
    @settings(max_examples=60, deadline=None)
    def test_rescales_delta(self, keyset):
        profile = bias_profile(keyset)
        expected = (profile.delta * keyset.d / padded_branch_count(keyset.d)) ** 2
        assert padded_delta_squared(keyset) == pytest.approx(expected, abs=1e-15)

    def test_table_value(self, n32_keyset):
        # the flat N=32 set: (1/16)^2, the declared 0.0039
        assert padded_delta_squared(n32_keyset) == pytest.approx(
            0.00390625, abs=1e-12
        )


class TestHashInnerProduct:
    def test_worked_example(self, tiny_keyset):
        # difference 2: Re(-1+i)/2
        assert hash_inner_product(tiny_keyset, 3, 1) == pytest.approx(-0.5, abs=1e-12)

    def test_equal_messages(self, tiny_keyset):
        assert hash_inner_product(tiny_keyset, 5, 5) == pytest.approx(1.0, abs=1e-12)

    @given(keysets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_depends_only_on_difference(self, keyset, data):
        n = keyset.modulus
        m1 = data.draw(st.integers(min_value=0, max_value=n - 1))
        m2 = data.draw(st.integers(min_value=0, max_value=n - 1))
        shift = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert hash_inner_product(keyset, m1, m2) == pytest.approx(
            hash_inner_product(keyset, (m1 + shift) % n, (m2 + shift) % n), abs=1e-9
        )

    @given(keysets, st.data())
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_delta(self, keyset, data):
        n = keyset.modulus
        m1 = data.draw(st.integers(min_value=0, max_value=n - 1))
        m2 = data.draw(st.integers(min_value=0, max_value=n - 1))
        if m1 != m2:
            delta = bias_profile(keyset).delta
            assert abs(hash_inner_product(keyset, m1, m2)) <= delta + 1e-10

    def test_message_out_of_range(self, tiny_keyset):
        with pytest.raises(ValueError, match="message"):
            hash_inner_product(tiny_keyset, 0, 8)


class TestKeySetValidation:
    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError, match="modulus"):
            KeySet(modulus=1, keys=(0,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            KeySet(modulus=8, keys=())

    def test_rejects_out_of_range_key(self):
        with pytest.raises(ValueError, match="out of range"):
            KeySet(modulus=8, keys=(8,))

    def test_keeps_repeats_and_order(self):
        ks = KeySet(modulus=8, keys=(5, 1, 5))
        assert ks.keys == (5, 1, 5)
        assert ks.d == 3


class TestKeySetFiles:
    @given(
        keysets.filter(lambda ks: len(set(ks.keys)) < ks.d) | keysets,
        st.none() | st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(KeySet(modulus=32, keys=(7, 3, 3, 0)), 0.25)
    @example(KeySet(modulus=8, keys=(5, 5)), -0.0)
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip(self, tmp_path, keyset, epsilon):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_keyset(keyset, first, declared_epsilon=epsilon)
        loaded = load_keyset(first)
        assert loaded.keyset == keyset
        assert loaded.declared_epsilon == epsilon
        save_keyset(loaded.keyset, second, declared_epsilon=loaded.declared_epsilon)
        assert second.read_bytes() == first.read_bytes()

    def test_round_trip_without_epsilon(self, tmp_path):
        path = tmp_path / "k.txt"
        save_keyset(KeySet(modulus=8, keys=(1, 2)), path)
        assert path.read_text() == "N 8\nd 2\nepsilon -\n1\n2\n"
        assert load_keyset(path).declared_epsilon is None

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("# table row\nN 8\n\nd 2\nepsilon 0.5\n1\n# middle\n2\n")
        assert load_keyset(path).keyset.keys == (1, 2)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("N 8\nd 2\n", "truncated header"),
            ("N 8\nq 2\nepsilon -\n1\n2\n", "expected 'd'"),
            ("N x\nd 2\nepsilon -\n1\n2\n", "must be an integer"),
            ("N 8\nd 2\nepsilon oops\n1\n2\n", "must be a number"),
            ("N 8\nd 2\nepsilon -\n1\n", "file lists 1 keys"),
            ("N 8\nd 2\nepsilon -\n1\n9\n", "out of range"),
            ("N 8\nd 2\nepsilon -\n1 2\n", "one key per line"),
            ("N 8 16\nd 2\nepsilon -\n1\n2\n", "header"),
        ],
    )
    def test_diagnostics(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(KeySetFormatError, match=message):
            load_keyset(path)

    def test_diagnostics_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("N 8\nd 2\nepsilon -\n1\n9\n")
        with pytest.raises(KeySetFormatError, match=r"bad\.txt:5"):
            load_keyset(path)
