"""A one-bit digital signature protocol riding on the hash states.

The signer draws a private pair (x_0, x_1) uniformly from {1, ..., L}
and publishes the pair of hash states (|h_K(x_0)>, |h_K(x_1)>) as the
public key.  Signing a bit b reveals x_b; a recipient verifies by
running the REVERSE test of the claimed number against the held public
state, which always accepts an honest signature and accepts a wrong
number x' with probability |<h_K(x')|h_K(x_b)>|^2.

A forger who never saw the private pair can only guess: naming x_b
outright happens with probability 1/L, and any other guess sneaks
through the verifier with the squared-overlap probability, so the
forgery success rate is

    1/L + (1 - 1/L) * E[ip^2 | guess != target]

computed here exactly from the key set's character sums.  For key sets
whose bias delta(K) satisfies delta^2 << 1/L the guessing term
dominates; the bundled table sets have delta around 0.2 at the sizes
used in the experiments, so the overlap term dominates instead and the
prediction is far above 1/L.  forgery_experiment reports both the
empirical rate and this prediction.

forgery_experiment samples REVERSE's exact Born probability, as
qsim.swap_test does for the SWAP test: a claim off by t from the held
number is accepted with the squared overlap (Re f_K(t)/d)^2, read from
one table over Z_N that the prediction shares, gathered at the offsets
|t| < L only.  Each trial makes the
draws a full keygen-and-verify run makes, in the same order (the
private pair, the bit, the guess, then the verdict's one uniform draw),
and accepts when that draw is below the table entry, the verdict rule
verify applies to the simulated |amp_0|^2.  The report keeps no
per-trial data: it holds a copy of the generator from before the first
draw and replays the same draws whenever its trial log is read.

forgery_experiment makes those draws in bulk where it can show the
result is the same.  Each trial's scalar calls, integers(0, L,
size=2), integers(0, 2), integers(0, L) (the qsim draws) and random(),
read 3 Philox 64-bit words, and the helper reads them with random_raw:

    word 0: low 32-bit half x_0, high half x_1
    word 1: low half the bit b, high half the guess
    word 2: the uniform draw

The halves of words 0 and 1 form the stream the 32-bit draws read
(qsim._halves), four to a trial (x_0, x_1, b, guess), behind the half
the generator holds buffered, if any.  Each number is 1 more than
qsim._lemire's draw below L from its half (b is the draw below 2, the
half's top bit, x >> 31), and the uniform is qsim._uniform of word 2.
Chunks of at most DRAW_CHUNK trials are decoded at once, so memory
stays bounded for any trial count.  At the first trial with a half
that numpy rejects (never for a power-of-two L, otherwise with chance
below L / 2^32 a draw), the helper rewinds the generator to that
trial, runs it through the scalar calls and resumes decoding.  A
rejected draw takes one more half, so after an odd count of them the
generator keeps a half buffered (has_uint32), which the next 32-bit
draw takes first.  After each chunk qsim._resume leaves the generator
at the words the decoded trials read, with uinteger the last word 1's
high half, buffered or stale, as the scalar calls leave it, so the
whole state dict, not only the next draw, equals the loop's.

The bulk path runs only for a Philox generator and 2 <= L < 2^32 (L = 1
draws nothing for the bounded calls; L = 2^32 takes raw halves), and
only once qsim._decoder_matches, run on first use, finds it equal to
the scalar calls on fixed draws: so a numpy whose generator changes
cannot alter a report, only slow it down.  Everything else runs the
scalar calls.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .bias import KeySet, _check_cells, fourier_components
from .qhash import HashParams, hash_state, reverse_test
from .qsim import StateVector, _decoder_matches, _draw_below, _halves, _lemire, _resume, _uniform, check_count

__all__ = [
    "ProtocolParams",
    "SignatureKeyPair",
    "ForgeryReport",
    "keygen",
    "sign",
    "verify",
    "forgery_experiment",
    "forgery_prediction",
]


@dataclass(frozen=True)
class ProtocolParams:
    """Public protocol configuration: the hash and the key range."""

    hash_params: HashParams
    security_level: int

    def __post_init__(self) -> None:
        modulus = self.hash_params.keyset.modulus
        if not 1 <= self.security_level <= modulus:
            raise ValueError(
                f"security_level must be in [1, {modulus}], got {self.security_level}"
            )


@dataclass(frozen=True)
class SignatureKeyPair:
    """Private numbers (x_0, x_1) plus their published hash states."""

    private: tuple[int, int]
    public: tuple[StateVector, StateVector]


@dataclass(frozen=True, eq=False)
class ForgeryReport:
    """The empirical and analytic success rates, plus the trial log on demand.

    Nothing is kept per trial: log_lines() replays the draws, chunk by
    chunk, from a copy of the generator taken before the first one, so a
    log of any length holds one chunk.
    """

    trials: int
    successes: int
    predicted: float
    _start: np.random.Generator = field(repr=False)
    _level: int = field(repr=False)
    _overlap_sq: np.ndarray = field(repr=False)

    def log_lines(self) -> Iterator[str]:
        """One ``trial <i> bit <b> guess <g> accepted <0|1>`` line per trial."""
        done = 0
        verdicts = _trial_verdicts(copy.deepcopy(self._start), self._level, self.trials, self._overlap_sq)
        for bits, guesses, accepted in verdicts:
            yield from ("trial %d bit %d guess %d accepted %d" % record for record in zip(
                range(done + 1, done + bits.size + 1), bits.tolist(), guesses.tolist(),
                accepted.view(np.int8).tolist()))
            done += bits.size

    @property
    def rate(self) -> float:
        return self.successes / self.trials


def keygen(params: ProtocolParams, rng: np.random.Generator) -> SignatureKeyPair:
    """Draw the private pair and materialize the public states.

    Private numbers run 1..L inclusive, 1 + qsim's draws below L (for
    L < 2^63 those of rng.integers(1, L + 1, size=2)), and enter the
    hash as residues mod N, so with L = N the number N hashes as 0.
    """
    level = params.security_level
    modulus = params.hash_params.keyset.modulus
    x0, x1 = (1 + int(x) for x in _draw_below(rng, level, 2))
    return SignatureKeyPair(
        private=(x0, x1),
        public=(
            hash_state(params.hash_params, x0 % modulus),
            hash_state(params.hash_params, x1 % modulus),
        ),
    )


def sign(keypair: SignatureKeyPair, b: int) -> int:
    """Reveal x_b.  Signing both bits spends the entire private key."""
    if b not in (0, 1):
        raise ValueError(f"message bit must be 0 or 1, got {b!r}")
    return keypair.private[b]


def verify(
    params: ProtocolParams,
    public_state_copy: StateVector,
    b: int,
    signature: int,
    rng: np.random.Generator,
) -> bool:
    """REVERSE-test the claimed number against the held public state."""
    if b not in (0, 1):
        raise ValueError(f"message bit must be 0 or 1, got {b!r}")
    if not 1 <= signature <= params.security_level:
        raise ValueError(
            f"signature must be in [1, {params.security_level}], got {signature}"
        )
    claimed = signature % params.hash_params.keyset.modulus
    return reverse_test(params.hash_params, claimed, public_state_copy, rng)


def _overlap_table(keyset: KeySet, level: int) -> np.ndarray:
    """(Re f_K(t)/d)^2, REVERSE's accept chance at offset t mod N, for the |t| < L a trial or
    the prediction reads (a guess and a target in 1..L differ by less than L); 0 elsewhere.
    """
    n = keyset.modulus
    _check_cells(1, n)  # refuse an oversized table before building its offsets
    # 2L - 1 consecutive offsets reach every residue once 2L > N, distinct ones below
    shifts = np.arange(n) if 2 * level > n else np.arange(1 - level, level) % n
    table = np.zeros(n)
    table[shifts] = (fourier_components(keyset, shifts).real / keyset.d) ** 2
    return table


def _predicted_rate(level: int, overlap_sq: np.ndarray) -> float:
    if level == 1:
        return 1.0
    t = np.arange(1, level)
    weights = 2.0 * (level - t)
    mean_sq = float(np.sum(weights * overlap_sq[t % overlap_sq.size])) / float(
        level * (level - 1)
    )
    return 1.0 / level + (1.0 - 1.0 / level) * mean_sq


def forgery_prediction(params: ProtocolParams) -> float:
    """Exact success chance of the uniform-guessing forger.

    1/L for naming the target outright, plus the mean squared overlap
    over unequal (guess, target) pairs weighted by their difference
    counts: an integer difference t in [1, L-1] occurs in 2(L - t)
    ordered pairs and contributes the squared overlap at t mod N.
    """
    return _predicted_rate(params.security_level, _overlap_table(params.hash_params.keyset, params.security_level))


def forgery_experiment(params: ProtocolParams, trials: int, rng: np.random.Generator) -> ForgeryReport:
    """Guessing attack: fresh keypair per trial, uniform guess, random bit.

    Each trial draws what keygen, then verify of the guess against
    public[b], would draw, so the generator ends in the same state; a
    verdict could differ only for a draw between the table entry and the
    simulated |amp_0|^2, which agree to rounding.  The report keeps a
    copy of rng from before the first draw, from which its log lines are
    drawn again when asked for.
    """
    check_count("trials", trials)
    start, level = copy.deepcopy(rng), params.security_level
    overlap_sq = _overlap_table(params.hash_params.keyset, level)
    verdicts = _trial_verdicts(rng, level, trials, overlap_sq)
    successes = sum(int(np.count_nonzero(accepted)) for *_, accepted in verdicts)
    return ForgeryReport(trials, successes, _predicted_rate(level, overlap_sq), start, level, overlap_sq)


def _trial_verdicts(rng: np.random.Generator, level: int, trials: int, overlap_sq: np.ndarray):
    """Yield (bit, guess, accepted) arrays for consecutive trials."""
    for bits, guesses, targets, uniforms in _trial_draws(rng, level, trials):
        yield bits, guesses, uniforms < overlap_sq[(guesses - targets) % overlap_sq.size]


# Most trials a bulk chunk decodes at once (3 words each, 24 KiB):
# bounds the memory of any --trials.  On 10^4 trials a chunk of 4096
# raised peak RSS 1.2 MiB above a trial-by-trial loop's, 1024 only 0.7.
DRAW_CHUNK = 1024


def _trial_draws(rng: np.random.Generator, level: int, trials: int):
    """Yield (bit, guess, target, uniform) arrays for consecutive trials.

    target is private[bit].  Both paths leave rng in the state the
    scalar calls leave it in; the bulk path runs where it can be shown
    to decode those calls exactly (see the module docstring).
    """
    if isinstance(rng.bit_generator, np.random.Philox) and 2 <= level < 2**32 and _bulk_decoder_matches():
        return _bulk_draws(rng, level, trials)
    return _scalar_draws(rng, level, trials)


def _scalar_trial(rng: np.random.Generator, level: int) -> tuple[int, int, int, float]:
    private = _draw_below(rng, level, 2)
    b = int(rng.integers(0, 2))
    guess = 1 + int(_draw_below(rng, level))
    return b, guess, 1 + int(private[b]), rng.random()


def _columns(rows: list[tuple[int, int, int, float]]) -> tuple[np.ndarray, ...]:
    bits, guesses, targets, uniforms = zip(*rows)
    return (np.array(bits, dtype=np.int8), np.array(guesses, dtype=np.int64),
            np.array(targets, dtype=np.int64), np.array(uniforms, dtype=np.float64))


def _scalar_draws(rng: np.random.Generator, level: int, trials: int):
    for start in range(0, trials, DRAW_CHUNK):
        yield _columns([_scalar_trial(rng, level) for _ in range(min(DRAW_CHUNK, trials - start))])


def _bulk_draws(rng: np.random.Generator, level: int, trials: int):
    """The scalar calls' values, decoded from 3 raw Philox words per trial."""
    bitgen = rng.bit_generator
    done, size = 0, DRAW_CHUNK
    while done < trials:
        n = min(size, trials - done)
        snapshot = bitgen.state
        words = bitgen.random_raw(3 * n).reshape(n, 3)
        quads = _halves(words[:, :2], snapshot["has_uint32"], snapshot["uinteger"])[: 4 * n].reshape(n, 4)
        # per trial x_0, x_1, guess: the first rejected half ends the decoded run
        values, rejected = _lemire(quads[:, [0, 1, 3]], level)
        t = rejected // 3
        # The scalar calls leave the last word 1's high half in uinteger,
        # buffered or stale, and a trial's four halves keep has_uint32.
        uinteger = int(words[t - 1, 1] >> 32) if t else snapshot["uinteger"]
        _resume(bitgen, snapshot, 3 * t, snapshot["has_uint32"], uinteger)
        if t:
            values = values[:t].astype(np.int64) + 1
            bits = (quads[:t, 2] >> 31).astype(np.int8)
            yield bits, values[:, 2], np.where(bits == 1, values[:, 1], values[:, 0]), _uniform(words[:t, 2])
        if t < n:
            yield _columns([_scalar_trial(rng, level)])
        # The words past a rejecting trial are drawn again, so a chunk
        # is sized to twice the last rejection-free run.
        size = min(DRAW_CHUNK, 2 * size) if t == n else max(16, 2 * t)
        done += min(t + 1, n)


def _drawn(chunks) -> list[list]:
    return [np.concatenate(column).tolist() for column in zip(*chunks)]


@functools.cache
def _bulk_decoder_matches() -> bool:
    """Whether _bulk_draws reproduces the scalar calls on this numpy (qsim._decoder_matches).

    Checked once per process on 32 fixed trials at L = 1000 and at
    L = 3 * 2^30, which rejects a quarter of its bounded draws and so
    runs the rejection path with both word alignments.
    """
    return _decoder_matches(lambda rng, level: _drawn(_bulk_draws(rng, level, 32)),
                            lambda rng, level: _drawn(_scalar_draws(rng, level, 32)),
                            np.random.Philox, [(0, (1000,)), (0, (3 << 30,))])
