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
one table over Z_N that the prediction shares.  Each trial makes the
draws a full keygen-and-verify run makes, in the same order (the
private pair, the bit, the guess, then the verdict's one uniform draw),
and accepts when that draw is below the table entry, the verdict rule
verify applies to the simulated |amp_0|^2.  The report keeps no
per-trial data: it holds a copy of the generator from before the first
draw and replays the same draws whenever its trial log is read.

forgery_experiment makes those draws in bulk where it can show the
result is the same.  Each trial's scalar calls, integers(1, L+1,
size=2), integers(0, 2), integers(1, L+1) and random(), read exactly
3 Philox 64-bit words, and the helper reads them with random_raw:

    word 0: low 32-bit half x_0, high half x_1
    word 1: low half the bit b, high half the guess
    word 2: the uniform draw, (w >> 11) * 2^-53

Each bounded value is Lemire's (x * L) >> 32 (plus the low end of the
range; b is x >> 31), and a draw is rejected and redrawn when the low
32 bits of x * L fall below (2^32 - L) mod L, which never happens for
a power-of-two L and otherwise with chance below L / 2^32.  Chunks of
at most DRAW_CHUNK trials are decoded at once, so memory stays bounded
for any trial count.  At the first trial with a rejected draw the
helper restores the chunk's starting state, advances 3t words, runs
that one trial through the scalar calls and resumes decoding.  Each
rejected draw takes one more 32-bit half, so after an odd count of
them the generator keeps a half buffered (has_uint32) and the next
trials read the halves shifted by one: x_0 is the buffered half, word 0 gives x_1 and
b, and word 1's low half the guess.  The decoder reads both layouts,
and whichever it starts from.  After each chunk it sets the
generator's stale uinteger field to the last word 1's high half, as
the scalar calls leave it, so the whole state dict, not only the next
draw, equals the loop's.

The bulk path runs only for a Philox generator and 2 <= L < 2^32 (L = 1
draws nothing for the bounded calls; L = 2^32 takes raw halves), and
only once a probe, run on first use, finds it equal to the scalar
calls on fixed draws: so a numpy whose generator changes cannot alter
a report, only slow it down.  Everything else runs the scalar calls.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .bias import KeySet, fourier_components
from .qhash import HashParams, hash_state, reverse_test
from .qsim import StateVector

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

    Private numbers run 1..L inclusive and enter the hash as residues
    mod N, so with L = N the number N hashes as 0.
    """
    level = params.security_level
    modulus = params.hash_params.keyset.modulus
    x0, x1 = (int(x) for x in rng.integers(1, level + 1, size=2))
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


def _overlap_table(keyset: KeySet) -> np.ndarray:
    """(Re f_K(t)/d)^2 for every t in Z_N: REVERSE's accept chance at offset t."""
    return (fourier_components(keyset).real / keyset.d) ** 2


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
    return _predicted_rate(params.security_level, _overlap_table(params.hash_params.keyset))


def forgery_experiment(params: ProtocolParams, trials: int, rng: np.random.Generator) -> ForgeryReport:
    """Guessing attack: fresh keypair per trial, uniform guess, random bit.

    Each trial draws what keygen, then verify of the guess against
    public[b], would draw, so the generator ends in the same state; a
    verdict could differ only for a draw between the table entry and the
    simulated |amp_0|^2, which agree to rounding.  The report keeps a
    copy of rng from before the first draw, from which its log lines are
    drawn again when asked for.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    start, level = copy.deepcopy(rng), params.security_level
    overlap_sq = _overlap_table(params.hash_params.keyset)
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

_LOW_HALF = np.uint64(0xFFFFFFFF)


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
    private = rng.integers(1, level + 1, size=2)
    b = int(rng.integers(0, 2))
    guess = int(rng.integers(1, level + 1))
    return b, guess, int(private[b]), rng.random()


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
    scale = np.uint64(level)
    threshold = np.uint64((2**32 - level) % level)
    done, size = 0, DRAW_CHUNK
    while done < trials:
        n = min(size, trials - done)
        snapshot = bitgen.state
        words = bitgen.random_raw(3 * n).reshape(n, 3)
        low, high = words[:, :2] & _LOW_HALF, words[:, :2] >> np.uint64(32)
        if snapshot["has_uint32"]:
            # A buffered half opens the first trial, and each trial
            # leaves the high half of its word 1 buffered for the next.
            x0 = np.concatenate(([np.uint64(snapshot["uinteger"])], high[:-1, 1]))
            x1, coin, guess = low[:, 0], high[:, 0], low[:, 1]
        else:
            x0, x1, coin, guess = low[:, 0], high[:, 0], low[:, 1], high[:, 1]
        products = np.stack([x0, x1, guess]) * scale
        rejecting = np.flatnonzero(((products & _LOW_HALF) < threshold).any(axis=0))
        t = int(rejecting[0]) if rejecting.size else n
        if t < n:
            bitgen.state = snapshot
            bitgen.random_raw(3 * t)
        if t:
            # The scalar calls leave word 1's high half in uinteger,
            # buffered or stale; random_raw never touches it.
            state = bitgen.state
            state["uinteger"] = int(high[t - 1, 1])
            bitgen.state = state
            values = (products[:, :t] >> np.uint64(32)).astype(np.int64) + 1
            bits = (coin[:t] >> np.uint64(31)).astype(np.int8)
            uniforms = (words[:t, 2] >> np.uint64(11)) * (1.0 / 9007199254740992.0)
            yield bits, values[2], np.where(bits == 1, values[1], values[0]), uniforms
        if t < n:
            yield _columns([_scalar_trial(rng, level)])
        # The words past a rejecting trial are drawn again, so a chunk
        # is sized to twice the last rejection-free run.
        size = min(DRAW_CHUNK, 2 * size) if t == n else max(16, 2 * t)
        done += min(t + 1, n)


@functools.cache
def _bulk_decoder_matches() -> bool:
    """Whether _bulk_draws reproduces the scalar calls on this numpy.

    Checked once per process on 32 fixed trials at L = 1000 and at
    L = 3 * 2^30, which rejects a quarter of its bounded draws and so
    runs the rejection path with both word alignments.
    """
    for level in (1000, 3 << 30):
        fast, slow = (np.random.Generator(np.random.Philox(20130901)) for _ in range(2))
        got = [np.concatenate(c) for c in zip(*_bulk_draws(fast, level, 32))]
        want = [np.concatenate(c) for c in zip(*_scalar_draws(slow, level, 32))]
        if not all(np.array_equal(a, b) for a, b in zip(got, want)):
            return False
        if repr(fast.bit_generator.state) != repr(slow.bit_generator.state):
            return False
    return True
