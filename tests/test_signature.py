"""The one-bit signature protocol: keygen, verify, forgery statistics."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from qhashlab import (
    HashParams,
    KeySet,
    ProtocolParams,
    bundled_table_dir,
    forgery_experiment,
    fourier_components,
    forgery_prediction,
    hash_inner_product,
    hash_state,
    inner_product,
    keygen,
    load_keyset,
    make_rng,
    sign,
    verify,
)
from qhashlab import signature as signature_mod

from conftest import keygen_verify_records, load_table_fixtures, trial_log


def oracle_prediction(params):
    """Average verify-accept chance over all (target, guess) pairs, literally."""
    level = params.security_level
    keyset = params.hash_params.keyset
    total = 0.0
    for target in range(1, level + 1):
        for guess in range(1, level + 1):
            if guess == target:
                total += 1.0
            else:
                ip = hash_inner_product(
                    keyset, guess % keyset.modulus, target % keyset.modulus
                )
                total += ip * ip
    return total / (level * level)


@pytest.fixture()
def tiny_protocol(tiny_keyset):
    return ProtocolParams(HashParams(tiny_keyset), security_level=4)


class TestProtocolParams:
    def test_level_bounded_by_modulus(self, tiny_keyset):
        ProtocolParams(HashParams(tiny_keyset), security_level=8)
        with pytest.raises(ValueError, match="security_level"):
            ProtocolParams(HashParams(tiny_keyset), security_level=9)
        with pytest.raises(ValueError, match="security_level"):
            ProtocolParams(HashParams(tiny_keyset), security_level=0)


class TestKeygenAndSign:
    def test_private_numbers_in_range(self, tiny_protocol):
        for seed in range(20):
            keypair = keygen(tiny_protocol, make_rng(seed))
            assert all(1 <= x <= 4 for x in keypair.private)

    def test_public_states_hash_the_private_numbers(self, tiny_protocol):
        keypair = keygen(tiny_protocol, make_rng(3))
        for x, state in zip(keypair.private, keypair.public):
            expected = hash_state(tiny_protocol.hash_params, x % 8)
            assert inner_product(state, expected) == pytest.approx(1.0, abs=1e-12)

    def test_level_equal_to_modulus_hashes_the_wraparound(self, tiny_keyset):
        # x = N enters the hash as 0
        params = ProtocolParams(HashParams(tiny_keyset), security_level=8)
        found = False
        for seed in range(200):
            keypair = keygen(params, make_rng(seed))
            if 8 in keypair.private:
                found = True
                b = keypair.private.index(8)
                expected = hash_state(params.hash_params, 0)
                assert inner_product(keypair.public[b], expected) == pytest.approx(
                    1.0, abs=1e-12
                )
                break
        assert found

    @pytest.mark.parametrize("level", [1, 2, 1000, 2**32, 2**32 + 1, 2**63 - 1])
    def test_draws_are_those_of_integers_up_to_int64(self, level):
        params = ProtocolParams(HashParams(KeySet(2**64, (5, 2**63 + 3, 2**64 - 1))), level)
        for seed in range(5):
            rng, oracle = make_rng(seed), make_rng(seed)
            assert keygen(params, rng).private == tuple(int(x) for x in oracle.integers(1, level + 1, size=2))
            assert repr(rng.bit_generator.state) == repr(oracle.bit_generator.state)

    def test_level_past_int64_signs_and_verifies(self):
        params = ProtocolParams(HashParams(KeySet(2**100, (5, 2**99 + 3, 2**100 - 1))), 2**100)
        keypair = keygen(params, make_rng(2))
        assert all(1 <= x <= 2**100 for x in keypair.private)
        assert max(keypair.private) > 2**64
        for b in (0, 1):
            assert verify(params, keypair.public[b], b, sign(keypair, b), make_rng(b))

    def test_deterministic(self, tiny_protocol):
        assert keygen(tiny_protocol, make_rng(9)).private == keygen(
            tiny_protocol, make_rng(9)
        ).private

    def test_sign_reveals_the_requested_number(self, tiny_protocol):
        keypair = keygen(tiny_protocol, make_rng(1))
        assert sign(keypair, 0) == keypair.private[0]
        assert sign(keypair, 1) == keypair.private[1]
        with pytest.raises(ValueError, match="bit"):
            sign(keypair, 2)


class TestVerify:
    def test_honest_signature_always_accepts(self, tiny_protocol):
        rng = make_rng(5)
        for _ in range(40):
            keypair = keygen(tiny_protocol, rng)
            b = int(rng.integers(0, 2))
            assert verify(tiny_protocol, keypair.public[b], b, sign(keypair, b), rng)

    def test_wrong_number_accepts_with_squared_overlap(self, n32_keyset):
        # flat set: every wrong claim passes with (1/15)^2; check the rate
        params = ProtocolParams(HashParams(n32_keyset), security_level=16)
        rng = make_rng(7)
        trials, accepted = 4000, 0
        state = hash_state(params.hash_params, 3)
        for _ in range(trials):
            accepted += verify(params, state, 0, 9, rng)
        p = (1 / 15) ** 2
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(accepted / trials - p) <= 3 * sigma

    def test_signature_range_checked(self, tiny_protocol):
        keypair = keygen(tiny_protocol, make_rng(0))
        with pytest.raises(ValueError, match="signature"):
            verify(tiny_protocol, keypair.public[0], 0, 5, make_rng(0))
        with pytest.raises(ValueError, match="signature"):
            verify(tiny_protocol, keypair.public[0], 0, 0, make_rng(0))


class TestForgeryPrediction:
    def test_trivial_level_is_certain(self, tiny_keyset):
        params = ProtocolParams(HashParams(tiny_keyset), security_level=1)
        assert forgery_prediction(params) == 1.0

    @pytest.mark.parametrize("level", [2, 3, 7, 8])
    def test_matches_pair_enumeration(self, tiny_keyset, level):
        params = ProtocolParams(HashParams(tiny_keyset), security_level=level)
        assert forgery_prediction(params) == pytest.approx(
            oracle_prediction(params), abs=1e-12
        )

    def test_matches_pair_enumeration_on_table_set(self, n32_keyset):
        params = ProtocolParams(HashParams(n32_keyset), security_level=20)
        assert forgery_prediction(params) == pytest.approx(
            oracle_prediction(params), abs=1e-12
        )

    def test_hand_computed_case(self, tiny_keyset):
        # L=2 over K={1,2} mod 8: 1/2 + 1/2 * ip(1)^2 with ip(1) = cos(pi/4)/2
        params = ProtocolParams(HashParams(tiny_keyset), security_level=2)
        ip = math.cos(math.pi / 4) / 2
        assert forgery_prediction(params) == pytest.approx(
            0.5 + 0.5 * ip * ip, abs=1e-12
        )


def full_overlap_table(keyset):
    """(Re f_K(t)/d)^2 at every t in Z_N, from the gather over all N shifts."""
    return (fourier_components(keyset, np.arange(keyset.modulus)).real / keyset.d) ** 2


def assert_reachable_entries_match(keyset, level):
    """The table equals the full one, bit for bit, at t mod N for |t| < L, and is 0 elsewhere."""
    n = keyset.modulus
    table = signature_mod._overlap_table(keyset, level)
    reachable = np.zeros(n, dtype=bool)
    reachable[np.arange(1 - level, level) % n] = True
    assert table.shape == (n,)
    assert np.array_equal(table[reachable], full_overlap_table(keyset)[reachable])
    assert not table[~reachable].any()


class TestOverlapTable:
    """The forgery table gathers only the offsets a trial or the prediction reads."""

    @pytest.mark.parametrize("keyset", [pytest.param(loaded.keyset, id=path.name)
                                        for path, loaded in load_table_fixtures(max_modulus=16384)])
    def test_bundled_rows(self, keyset):
        n = keyset.modulus
        for level in sorted({1, 2, 5, n // 3, n // 2, n // 2 + 1, n - 1, n}):
            assert_reachable_entries_match(keyset, level)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sets(self, seed):
        rng = make_rng(seed)
        n = int(rng.choice([2, 7, 64, 100, 1000, 4096]))
        keyset = KeySet(n, rng.integers(0, n, size=int(rng.integers(1, 70))))
        for level in (1, n, *(int(x) for x in rng.integers(1, n + 1, size=4))):
            assert_reachable_entries_match(keyset, level)


class TestForgeryExperiment:
    def test_log_format_and_counts(self, tiny_protocol):
        report = forgery_experiment(tiny_protocol, 50, make_rng(2))
        lines = list(report.log_lines())
        assert report.trials == 50
        assert len(lines) == 50
        pattern = re.compile(r"trial \d+ bit [01] guess [1-4] accepted [01]")
        assert all(pattern.fullmatch(line) for line in lines)
        assert report.successes == sum(int(line.split()[-1]) for line in lines)
        assert report.rate == report.successes / 50

    def test_deterministic_under_seed(self, tiny_protocol):
        a, b = (forgery_experiment(tiny_protocol, 200, make_rng(8)) for _ in range(2))
        assert list(a.log_lines()) == list(b.log_lines())
        assert (a.successes, a.predicted) == (b.successes, b.predicted)

    def test_rate_within_three_sigma(self, tiny_keyset):
        params = ProtocolParams(HashParams(tiny_keyset), security_level=2)
        trials = 3000
        report = forgery_experiment(params, trials, make_rng(13))
        p = report.predicted
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(report.rate - p) <= 3 * sigma

    def test_trials_validation(self, tiny_protocol):
        with pytest.raises(ValueError, match="trials"):
            forgery_experiment(tiny_protocol, 0, make_rng(0))

    def test_unkept_records_have_no_limit(self, n32_keyset):
        # Nothing is kept per trial: the log is replayed from a copy
        # of the generator, and the caller's generator is left as a
        # trial-by-trial keygen -> verify loop leaves it.
        params = ProtocolParams(HashParams(n32_keyset), security_level=20)
        trials = 2 * signature_mod.DRAW_CHUNK + 5
        for make in (make_rng, lambda seed: np.random.Generator(np.random.PCG64(seed))):
            for buffered in (False, True):
                rng, loop_rng = make(5), make(5)
                if buffered:  # one 32-bit draw leaves a half buffered
                    rng.integers(0, 2), loop_rng.integers(0, 2)
                report = forgery_experiment(params, trials, rng)
                records = keygen_verify_records(params, trials, loop_rng)
                assert list(report.log_lines()) == trial_log(records)
                assert report.successes == sum(accepted for _, _, accepted in records)
                assert_same_state(rng.bit_generator.state, loop_rng.bit_generator.state)
                assert list(report.log_lines()) == trial_log(records)  # a second replay reads the same
                assert rng.random() == loop_rng.random()

    def test_log_memory_does_not_grow_with_trials(self, n1024_keyset):
        params = ProtocolParams(HashParams(n1024_keyset), security_level=1000)
        peaks = []
        for trials in (10**4, 10**6):
            forgery_experiment(params, 10, make_rng(0))  # warm the caches
            tracemalloc.start()
            try:
                report = forgery_experiment(params, trials, make_rng(3))
                count = sum(1 for _ in report.log_lines())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert count == trials
        assert peaks[1] - peaks[0] <= 1 << 20, peaks


def forgery_cases():
    table = bundled_table_dir()
    n32 = load_keyset(table / "n32_d15.txt").keyset
    n1024 = load_keyset(table / "n1024_d65.txt").keyset
    keys = make_rng(64).choice(256, size=64, replace=False)
    return [
        pytest.param(KeySet(modulus=8, keys=(1, 2)), 4, id="tiny"),
        pytest.param(KeySet(modulus=8, keys=(1, 2)), 8, id="tiny-wraparound"),
        pytest.param(n32, 32, id="n32-wraparound"),
        pytest.param(n1024, 1024, id="n1024-prepare-uniform"),
        pytest.param(KeySet(modulus=256, keys=tuple(int(k) for k in keys)), 256,
                     id="d64-hadamard"),
        pytest.param(n1024, 100, id="n1024-level-below-modulus"),
    ]


class TestForgeryExperimentOracle:
    """The overlap-table verdicts replay the per-trial protocol exactly."""

    @pytest.mark.parametrize("keyset,level", forgery_cases())
    @pytest.mark.parametrize("seed", range(4))
    def test_records_match_keygen_and_verify(self, keyset, level, seed):
        params = ProtocolParams(HashParams(keyset), security_level=level)
        fast_rng, slow_rng = make_rng(seed), make_rng(seed)
        report = forgery_experiment(params, 250, fast_rng)
        records = keygen_verify_records(params, 250, slow_rng)
        assert list(report.log_lines()) == trial_log(records)
        assert report.successes == sum(accepted for _, _, accepted in records)
        assert report.predicted == forgery_prediction(params)
        # the same number of draws: both generators continue alike
        assert fast_rng.random() == slow_rng.random()


def scalar_trials(rng, level, trials):
    """(bit, guess, target, uniform) per trial, from the scalar calls."""
    rows = []
    for _ in range(trials):
        private = rng.integers(1, level + 1, size=2)
        b = int(rng.integers(0, 2))
        guess = int(rng.integers(1, level + 1))
        rows.append((b, guess, int(private[b]), rng.random()))
    return rows


def drawn_trials(rng, level, trials):
    chunks = list(signature_mod._trial_draws(rng, level, trials))
    return list(zip(*(np.concatenate(column).tolist() for column in zip(*chunks))))


def assert_same_state(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert_same_state(a[key], b[key])
        else:
            assert np.array_equal(a[key], b[key]), key


@pytest.fixture()
def bulk_calls(monkeypatch):
    """Count the chunks the bulk path yields."""
    calls = []
    bulk = signature_mod._bulk_draws

    def counted(*args):
        for chunk in bulk(*args):
            calls.append(len(chunk[0]))
            yield chunk

    monkeypatch.setattr(signature_mod, "_bulk_draws", counted)
    return calls


BULK_LEVELS = [
    pytest.param(1, False, id="L=1"),
    pytest.param(2, True, id="L=2"),
    pytest.param(3, True, id="L=3"),
    pytest.param(1000, True, id="L=1000"),
    pytest.param(1024, True, id="L=1024"),
    pytest.param(10**6, True, id="L=1e6"),
    pytest.param(2**31 + 12345, True, id="L=2^31+12345"),
    pytest.param(2**32 - 1, True, id="L=2^32-1"),
    pytest.param(2**32, False, id="L=2^32"),
    pytest.param(2**32 + 1, False, id="L=2^32+1"),
]


class TestBulkDraws:
    """The bulk decoder replays the scalar calls: values, state, next draw."""

    @pytest.mark.parametrize("level,bulk", BULK_LEVELS)
    @pytest.mark.parametrize("trials", [1, 2 * signature_mod.DRAW_CHUNK + 3])
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-half"])
    def test_matches_the_scalar_calls(self, level, bulk, trials, buffered, bulk_calls):
        for seed in (0, 5):
            fast, slow = make_rng(seed), make_rng(seed)
            if buffered:  # one 32-bit draw leaves has_uint32 == 1
                fast.integers(0, 2), slow.integers(0, 2)
                assert fast.bit_generator.state["has_uint32"] == 1
            assert drawn_trials(fast, level, trials) == scalar_trials(slow, level, trials)
            assert_same_state(fast.bit_generator.state, slow.bit_generator.state)
            assert fast.random() == slow.random()
        assert bool(bulk_calls) == bulk

    @pytest.mark.parametrize("level", [3, 10**6, 3 << 30, 2**31 + 12345])
    def test_rejections_on_many_seeds(self, level, bulk_calls):
        # rejection-heavy levels run the redraw path with both alignments
        for seed in range(10, 30):
            fast, slow = make_rng(seed), make_rng(seed)
            assert drawn_trials(fast, level, 300) == scalar_trials(slow, level, 300)
            assert_same_state(fast.bit_generator.state, slow.bit_generator.state)
        assert sum(bulk_calls) > 0

    def test_other_bit_generators_fall_back(self, bulk_calls):
        fast, slow = (np.random.Generator(np.random.PCG64(3)) for _ in range(2))
        assert drawn_trials(fast, 1000, 500) == scalar_trials(slow, 1000, 500)
        assert_same_state(fast.bit_generator.state, slow.bit_generator.state)
        assert bulk_calls == []

    def test_probe_passes_on_this_numpy(self):
        # a numpy whose Philox draws decode differently turns this red
        # instead of silently running the scalar calls
        signature_mod._bulk_decoder_matches.cache_clear()
        assert signature_mod._bulk_decoder_matches()

    def test_failed_probe_gives_the_same_report(self, n1024_keyset, monkeypatch, bulk_calls):
        params = ProtocolParams(HashParams(n1024_keyset), security_level=1000)
        fast_rng, slow_rng = make_rng(7), make_rng(7)
        fast = forgery_experiment(params, 5000, fast_rng)
        assert bulk_calls
        monkeypatch.setattr(signature_mod, "_bulk_decoder_matches", lambda: False)
        calls_before = len(bulk_calls)
        slow = forgery_experiment(params, 5000, slow_rng)
        assert len(bulk_calls) == calls_before
        assert list(fast.log_lines()) == list(slow.log_lines())
        assert (fast.successes, fast.predicted) == (slow.successes, slow.predicted)
        assert_same_state(fast_rng.bit_generator.state, slow_rng.bit_generator.state)

    def test_records_are_compact_arrays(self, tiny_protocol):
        # the replay decodes chunks of compact arrays; the report keeps none
        report = forgery_experiment(tiny_protocol, 20, make_rng(1))
        overlap_sq = signature_mod._overlap_table(tiny_protocol.hash_params.keyset, 4)
        chunks = list(signature_mod._trial_verdicts(make_rng(1), 4, 20, overlap_sq))
        assert [column.dtype for column in chunks[0]] == [np.int8, np.int64, np.bool_]
        assert list(report.log_lines()) == trial_log(zip(*(np.concatenate(c).tolist() for c in zip(*chunks))))
        assert not any(isinstance(v, np.ndarray) and v.size >= 20 for v in vars(report).values())
