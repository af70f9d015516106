"""The one-bit signature protocol: keygen, verify, forgery statistics."""

import math
import re

import numpy as np
import pytest

from qhashlab import (
    HashParams,
    KeySet,
    ProtocolParams,
    bundled_table_dir,
    forgery_experiment,
    forgery_prediction,
    hash_inner_product,
    hash_state,
    inner_product,
    keygen,
    load_keyset,
    make_rng,
    sign,
    sign_message,
    verify,
    verify_message,
)


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


class TestForgeryExperiment:
    def test_log_format_and_counts(self, tiny_protocol):
        report = forgery_experiment(tiny_protocol, 50, make_rng(2))
        assert report.trials == 50
        assert len(report.lines) == 50
        pattern = re.compile(r"trial \d+ bit [01] guess [1-4] accepted [01]")
        assert all(pattern.fullmatch(line) for line in report.lines)
        assert report.successes == sum(
            int(line.split()[-1]) for line in report.lines
        )
        assert report.rate == report.successes / 50

    def test_summary_and_text(self, tiny_protocol):
        report = forgery_experiment(tiny_protocol, 10, make_rng(2))
        assert report.summary == f"rate {report.rate!r} predicted {report.predicted!r}"
        text = report.text()
        assert text.endswith(report.summary + "\n")
        assert text.splitlines()[0].startswith("trial 1 ")

    def test_deterministic_under_seed(self, tiny_protocol):
        a = forgery_experiment(tiny_protocol, 200, make_rng(8)).text()
        b = forgery_experiment(tiny_protocol, 200, make_rng(8)).text()
        assert a == b

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


def keygen_verify_records(params, trials, rng):
    """The per-trial protocol run: keygen, a bit, a guess, verify."""
    records = []
    for _ in range(trials):
        keypair = keygen(params, rng)
        b = int(rng.integers(0, 2))
        guess = int(rng.integers(1, params.security_level + 1))
        records.append((b, guess, verify(params, keypair.public[b], b, guess, rng)))
    return tuple(records)


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
        assert report.records == keygen_verify_records(params, 250, slow_rng)
        assert report.successes == sum(accepted for _, _, accepted in report.records)
        assert report.predicted == forgery_prediction(params)
        # the same number of draws: both generators continue alike
        assert fast_rng.random() == slow_rng.random()


class TestMultiBitMessages:
    def test_round_trip(self, tiny_protocol):
        rng = make_rng(4)
        bits = (1, 0, 1, 1)
        keypairs, signatures = sign_message(tiny_protocol, bits, rng)
        publics = [kp.public for kp in keypairs]
        assert verify_message(tiny_protocol, publics, bits, signatures, rng)

    def test_flipped_bit_usually_rejects(self, tiny_protocol):
        rng = make_rng(4)
        bits = (1, 0, 1, 1)
        keypairs, signatures = sign_message(tiny_protocol, bits, rng)
        publics = [kp.public for kp in keypairs]
        rejects = sum(
            not verify_message(tiny_protocol, publics, (0, 0, 1, 1), signatures,
                               make_rng(seed))
            for seed in range(30)
        )
        # claiming bit 0 against the bit-1 key only sneaks through on a
        # collision of the private numbers or a squared-overlap accept
        assert rejects > 15

    def test_length_mismatch(self, tiny_protocol):
        with pytest.raises(ValueError, match="equal length"):
            verify_message(tiny_protocol, [], (1,), [1], make_rng(0))

