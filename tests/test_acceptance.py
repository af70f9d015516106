"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run with output visible to read the per-criterion lines:

    pytest tests/test_acceptance.py -v -s

Criteria 1-9 exercise the main claims end to end at their stated
tolerances; criterion 10 replays every stochastic run with its original
seed and requires byte-identical reports.  One clause of criterion 5 is
recorded as an expected failure: the 32-element bundled key set cannot
push its wrong-claim accept rate below 1e-3, because a set with an odd
number of keys has |cos-sum| >= 1 at the half-modulus shift, which
floors the squared overlap at (1/15)^2 ~ 4.4e-3.  The line still
prints, marked FAIL.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qhashlab import (
    HashParams,
    KeySet,
    ProtocolParams,
    bias_profile,
    build_hash_circuit,
    encode,
    fingerprint_inner_product,
    fingerprint_resistance,
    fingerprint_state,
    forgery_experiment,
    ga_search,
    hash_inner_product,
    hash_state,
    inner_product,
    keygen,
    load_table_fixtures,
    make_rng,
    message_bits,
    padded_delta_squared,
    random_linear_code,
    reverse_test_shots,
    sample_random_keyset,
    sign,
    simulate_circuit,
    swap_test,
    verify,
)
from qhashlab.keyset import ROUNDING_TOL, TABLE_BOUND

_ROWS = load_table_fixtures()
_BY_SHAPE = {(f.keyset.modulus, f.keyset.d): f for _, f in _ROWS}
K32 = _BY_SHAPE[(32, 15)].keyset
K1024 = _BY_SHAPE[(1024, 65)].keyset
TINY = KeySet(modulus=8, keys=(1, 2))

# criterion 10 replays these; each value is a zero-argument closure that
# reruns one stochastic criterion from its fixed seed and returns the
# full report as a string
REPLAYS = {}
FIRST_RUNS = {}


def report(tag, ok, detail):
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def record(key, fn):
    """Register a replayable run and cache its first output."""
    REPLAYS[key] = fn
    FIRST_RUNS[key] = fn()
    return FIRST_RUNS[key]


def test_criterion_01_bundled_tables_reproduce():
    started = time.perf_counter()
    rows = [(path.name, f) for path, f in _ROWS if f.keyset.modulus <= 2**14]
    disagreements = []
    worst_value = 0.0
    worst_diff = 0.0
    for name, fixture in rows:
        value = padded_delta_squared(fixture.keyset)
        diff = abs(value - fixture.declared_epsilon)
        worst_value = max(worst_value, value)
        worst_diff = max(worst_diff, diff)
        if value > TABLE_BOUND + 1e-12 or diff > ROUNDING_TOL:
            disagreements.append(f"{name} declared {fixture.declared_epsilon}"
                                 f" recomputed {value!r}")
    elapsed = time.perf_counter() - started
    ok = not disagreements and elapsed < 60.0
    report(1, ok, f"{len(rows)} rows, worst recomputed {worst_value:.6g}"
                  f" <= {TABLE_BOUND}, worst |diff| {worst_diff:.2e},"
                  f" {elapsed:.1f}s; disagreements:"
                  f" {'; '.join(disagreements) or 'none'}")
    assert not disagreements, disagreements
    assert elapsed < 60.0


@pytest.mark.slow
def test_criterion_01_extended_full_table_range():
    started = time.perf_counter()
    disagreements = []
    for path, fixture in _ROWS:
        value = padded_delta_squared(fixture.keyset, method="fft")
        if (value > TABLE_BOUND + 1e-12
                or abs(value - fixture.declared_epsilon) > ROUNDING_TOL):
            disagreements.append(path.name)
    elapsed = time.perf_counter() - started
    ok = not disagreements and elapsed < 900.0
    report("1 extended", ok, f"{len(_ROWS)} rows up to N=2^20, {elapsed:.1f}s;"
                             f" disagreements: {'; '.join(disagreements) or 'none'}")
    assert not disagreements, disagreements
    assert elapsed < 900.0


def test_criterion_02_exhaustive_overlap_bound_at_n32():
    params = HashParams(keyset=K32)
    delta = bias_profile(K32).delta
    states = [hash_state(params, m) for m in range(32)]
    worst_overlap = 0.0
    worst_gap = 0.0
    for m1, m2 in itertools.combinations(range(32), 2):
        analytic = hash_inner_product(K32, m1, m2)
        materialized = inner_product(states[m1], states[m2])
        worst_gap = max(worst_gap, abs(materialized - analytic))
        worst_overlap = max(worst_overlap, abs(analytic), abs(materialized))
    ok = worst_overlap <= delta + 1e-10 and worst_gap <= 1e-10
    report(2, ok, f"all C(32,2)=496 pairs, max |overlap| {worst_overlap:.12g}"
                  f" <= delta {delta:.12g} + 1e-10,"
                  f" analytic/materialized gap {worst_gap:.2e}")
    assert ok


def test_criterion_03_circuit_matches_analytic_states():
    rng = make_rng(303)
    trials = 0
    worst = 0.0
    for modulus in (8, 32, 1024):
        for d in (2, 15, 65):
            for _ in range(12):
                keys = tuple(int(k) for k in rng.integers(0, modulus, size=d))
                params = HashParams(keyset=KeySet(modulus=modulus, keys=keys))
                m = int(rng.integers(modulus))
                circuit = build_hash_circuit(params, message_bits(m, params.n))
                got = simulate_circuit(circuit).amplitudes
                want = hash_state(params, m).amplitudes
                worst = max(worst, float(np.max(np.abs(got - want))))
                trials += 1
    ok = trials >= 100 and worst < 1e-10
    report(3, ok, f"{trials} random key-set/message draws over"
                  f" N in {{8,32,1024}} x d in {{2,15,65}},"
                  f" max componentwise deviation {worst:.2e} < 1e-10")
    assert ok


def test_criterion_04_swap_test_statistics():
    shots = 10_000

    def run():
        rng = make_rng(404)
        lines = []
        for keyset, m1, m2 in ((K32, 5, 9), (K32, 0, 17), (TINY, 1, 3)):
            params = HashParams(keyset=keyset)
            counts = swap_test(hash_state(params, m1), hash_state(params, m2),
                               shots, rng)
            lines.append(f"N {keyset.modulus} m1 {m1} m2 {m2}"
                         f" accepted {counts.accepted} shots {counts.shots}")
        return "\n".join(lines) + "\n"

    text = record("criterion4_swap", run)
    deviations = []
    for line in text.splitlines():
        fields = line.split()
        keyset = K32 if fields[1] == "32" else TINY
        m1, m2, accepted = int(fields[3]), int(fields[5]), int(fields[7])
        ip = hash_inner_product(keyset, m1, m2)
        p = 0.5 * (1.0 + ip * ip)
        sigma = math.sqrt(p * (1.0 - p) / shots)
        deviations.append(abs(accepted / shots - p) / sigma)

    params = HashParams(keyset=K32)
    psi = hash_state(params, 5)
    identical = swap_test(psi, psi, shots, make_rng(405))

    ok = max(deviations) <= 3.0 and identical.accepted == shots
    report(4, ok, f"3 distinct pairs within {max(deviations):.2f} sigma of"
                  f" (1+ip^2)/2 at {shots} shots;"
                  f" identical states {identical.accepted}/{shots}")
    assert ok


def test_criterion_05_reverse_test_statistics():
    shots = 10_000

    def run():
        rng = make_rng(505)
        params = HashParams(keyset=K32)
        honest = reverse_test_shots(params, 9, hash_state(params, 9), shots, rng)
        tiny = HashParams(keyset=TINY)
        dishonest = reverse_test_shots(tiny, 1, hash_state(tiny, 3), shots, rng)
        return (f"honest accepted {honest.accepted} shots {honest.shots}\n"
                f"dishonest accepted {dishonest.accepted}"
                f" shots {dishonest.shots}\n")

    text = record("criterion5_reverse", run)
    honest_accepted = int(text.splitlines()[0].split()[2])
    dishonest_accepted = int(text.splitlines()[1].split()[2])
    p = hash_inner_product(TINY, 1, 3) ** 2
    sigma = math.sqrt(p * (1.0 - p) / shots)
    pull = abs(dishonest_accepted / shots - p) / sigma
    ok = honest_accepted == shots and pull <= 3.0
    report(5, ok, f"honest {honest_accepted}/{shots}; dishonest rate"
                  f" {dishonest_accepted / shots} within {pull:.2f} sigma"
                  f" of ip^2 = {p}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="a key set with an odd number of keys has |cos-sum| >= 1 at the"
           " half-modulus shift, so the wrong-claim accept probability at"
           " the bundled 32-element set is (1/15)^2 ~ 4.4e-3, above 1e-3",
)
def test_criterion_05_flat_set_dishonest_rate_below_one_in_a_thousand():
    shots = 10_000
    params = HashParams(keyset=K32)
    counts = reverse_test_shots(params, 5, hash_state(params, 9), shots,
                                make_rng(506))
    rate = counts.accepted / shots
    ok = rate < 1e-3
    report("5 flat-set clause", ok,
           f"dishonest accept rate {rate} at the N=32 bundled set;"
           f" target < 1e-3 is unreachable, the squared overlap is"
           f" {(1 / 15) ** 2:.6g} at every wrong claim")
    assert ok


def test_criterion_06_first_draw_success_rate():
    def run():
        lines = []
        for seed in range(100):
            outcome = sample_random_keyset(1024, 0.5, max_attempts=1,
                                           rng=make_rng(seed))
            lines.append(f"seed {seed} delta {outcome.achieved_delta!r}"
                         f" met {int(outcome.target_met)}")
        return "\n".join(lines) + "\n"

    text = record("criterion6_sampling", run)
    successes = sum(int(line.split()[-1]) for line in text.splitlines())
    ok = successes >= 90
    report(6, ok, f"{successes}/100 seeded first draws of 61 keys at N=1024"
                  f" landed delta < 0.5 (need >= 90)")
    assert ok


def test_criterion_07_ga_reaches_the_table_bound():
    worst_seed_time = 0.0

    def run():
        lines = []
        for modulus, d in ((32, 15), (64, 33)):
            for seed in range(10):
                outcome = ga_search(modulus, d, TABLE_BOUND, rng=make_rng(seed))
                lines.append(f"shape {modulus} {d} seed {seed}"
                             f" objective {outcome.achieved_objective!r}"
                             f" generations {outcome.generations_used}"
                             f" met {int(outcome.target_met)}")
        return "\n".join(lines) + "\n"

    started = time.perf_counter()
    text = record("criterion7_ga", run)
    worst_seed_time = time.perf_counter() - started  # bound for any one seed
    wins = {}
    for line in text.splitlines():
        fields = line.split()
        shape = (fields[1], fields[2])
        wins[shape] = wins.get(shape, 0) + int(fields[-1])
    ok = all(count >= 8 for count in wins.values()) and worst_seed_time < 30.0
    report(7, ok, f"seeds under the bound: (32,15) {wins[('32', '15')]}/10,"
                  f" (64,33) {wins[('64', '33')]}/10 (need >= 8);"
                  f" all 20 runs took {worst_seed_time:.1f}s"
                  f" (< 30s per seed)")
    assert ok


def test_criterion_08_fingerprint_consistency():
    worst_gap = 0.0
    worst_resistance_gap = 0.0
    checked_pairs = 0
    for n, m, seed in ((2, 6, 0), (3, 9, 1), (5, 12, 2), (8, 20, 3),
                       (10, 30, 4)):
        rng = make_rng(seed)
        code = random_linear_code(n, m, rng)
        if n <= 5:
            pairs = itertools.combinations(range(1 << n), 2)
        else:
            pairs = ((int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                     for _ in range(200))
        for u, v in pairs:
            ubits = tuple((u >> j) & 1 for j in range(n))
            vbits = tuple((v >> j) & 1 for j in range(n))
            analytic = fingerprint_inner_product(code, ubits, vbits)
            materialized = inner_product(fingerprint_state(code, ubits),
                                         fingerprint_state(code, vbits))
            worst_gap = max(worst_gap, abs(materialized - analytic))
            checked_pairs += 1

        # independent pairwise brute force, no linearity shortcut
        messages = np.arange(1 << n, dtype=np.uint32)
        bits = ((messages[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        signs = 1.0 - 2.0 * (bits @ code.generator.T % 2)
        gram = np.abs(signs @ signs.T) / m
        np.fill_diagonal(gram, 0.0)
        worst_resistance_gap = max(
            worst_resistance_gap,
            abs(fingerprint_resistance(code) - float(gram.max())),
        )
    ok = worst_gap <= 1e-10 and worst_resistance_gap <= 1e-12
    report(8, ok, f"5 random codes up to n=10, {checked_pairs} pairs,"
                  f" analytic vs materialized gap {worst_gap:.2e} <= 1e-10;"
                  f" resistance vs pairwise brute force gap"
                  f" {worst_resistance_gap:.2e}")
    assert ok


def test_criterion_09_signature_protocol():
    params = ProtocolParams(hash_params=HashParams(keyset=K1024),
                            security_level=1024)
    honest = 0
    for seed in range(20):
        rng = make_rng(1000 + seed)
        keypair = keygen(params, rng)
        for b in (0, 1):
            honest += verify(params, keypair.public[b], b, sign(keypair, b), rng)

    def run():
        return forgery_experiment(params, 10_000, make_rng(909)).text()

    text = record("criterion9_forgery", run)
    summary = text.splitlines()[-1].split()
    rate, predicted = float(summary[1]), float(summary[3])
    sigma = math.sqrt(predicted * (1.0 - predicted) / 10_000)
    pull = abs(rate - predicted) / sigma
    ok = honest == 40 and pull <= 3.0
    report(9, ok, f"honest verifications {honest}/40; forgery rate {rate}"
                  f" over 10000 trials within {pull:.2f} sigma of the"
                  f" analytic prediction {predicted}")
    assert ok


def test_criterion_10_stochastic_runs_replay_byte_identically():
    assert REPLAYS, "stochastic criteria must run first"
    mismatched = []
    total = 0
    for key, fn in REPLAYS.items():
        first = FIRST_RUNS[key]
        again = fn()
        total += len(first)
        if first != again:
            mismatched.append(key)
    ok = not mismatched
    report(10, ok, f"{len(REPLAYS)} stochastic reports ({total} bytes)"
                   f" replayed from their seeds byte-identically;"
                   f" mismatches: {', '.join(mismatched) or 'none'}")
    assert ok, mismatched
