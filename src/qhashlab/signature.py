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
verify applies to the simulated |amp_0|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bias import KeySet, fourier_components
from .qhash import HashParams, hash_state, reverse_test
from .qsim import StateVector

__all__ = [
    "MAX_RECORD_BYTES",
    "ProtocolParams",
    "SignatureKeyPair",
    "ForgeryReport",
    "keygen",
    "sign",
    "verify",
    "forgery_experiment",
    "forgery_prediction",
    "sign_message",
    "verify_message",
]

# Bytes one kept trial costs through to the printed log: its record
# (a 3-tuple and a guess int, about 104), its log line and, for JSON
# output, its share of the encoded report.  Peak RSS of forge-experiment
# --log over 400000 trials grew 177 B per trial as text, 324 B as JSON.
RECORD_BYTES = 336

# Largest record memory a forgery experiment may keep: 1 GiB admits
# about 3.2 million kept trials.  Larger requests raise ValueError; an
# experiment that keeps no records has no limit.
MAX_RECORD_BYTES = 1 << 30


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


@dataclass(frozen=True)
class ForgeryReport:
    """Per-trial records plus the empirical and analytic success rates.

    records holds one (bit, guess, accepted) triple per trial, or none
    when the experiment ran without keeping them; the log lines are
    formatted from it only when asked for.
    """

    trials: int
    successes: int
    predicted: float
    records: tuple[tuple[int, int, bool], ...]

    @property
    def lines(self) -> tuple[str, ...]:
        return tuple(
            f"trial {trial} bit {b} guess {guess} accepted {int(accepted)}"
            for trial, (b, guess, accepted) in enumerate(self.records, start=1)
        )

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def summary(self) -> str:
        return f"rate {self.rate!r} predicted {self.predicted!r}"

    def text(self) -> str:
        return "\n".join(self.lines + (self.summary,)) + "\n"


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


def forgery_experiment(
    params: ProtocolParams, trials: int, rng: np.random.Generator, keep_records: bool = True
) -> ForgeryReport:
    """Guessing attack: fresh keypair per trial, uniform guess, random bit.

    Each trial draws what keygen, then verify of the guess against
    public[b], would draw, so the generator ends in the same state; a
    verdict could differ only for a draw between the table entry and the
    simulated |amp_0|^2, which agree to rounding.  The per-trial
    records, which the log lines are formatted from, are kept only
    with keep_records, and only then limited by MAX_RECORD_BYTES.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if keep_records and trials * RECORD_BYTES > MAX_RECORD_BYTES:
        raise ValueError(
            f"{trials} trials keep about {trials * RECORD_BYTES / 2**30:.1f} GiB "
            f"of per-trial records and log lines ({RECORD_BYTES} B each), exceeding "
            f"MAX_RECORD_BYTES = {MAX_RECORD_BYTES}"
        )
    level = params.security_level
    overlap_sq = _overlap_table(params.hash_params.keyset)
    modulus = overlap_sq.size
    records: list[tuple[int, int, bool]] = []
    successes = 0
    for _ in range(trials):
        private = rng.integers(1, level + 1, size=2)
        b = int(rng.integers(0, 2))
        guess = int(rng.integers(1, level + 1))
        accepted = bool(rng.random() < overlap_sq[(guess - int(private[b])) % modulus])
        successes += accepted
        if keep_records:
            records.append((b, guess, accepted))
    return ForgeryReport(
        trials=trials,
        successes=successes,
        predicted=_predicted_rate(level, overlap_sq),
        records=tuple(records),
    )


def sign_message(
    params: ProtocolParams, bits: "tuple[int, ...] | list[int]", rng: np.random.Generator
) -> tuple[list[SignatureKeyPair], list[int]]:
    """Sign a multi-bit message bit by bit with independent keypairs."""
    keypairs = [keygen(params, rng) for _ in bits]
    return keypairs, [sign(kp, b) for kp, b in zip(keypairs, bits)]


def verify_message(
    params: ProtocolParams,
    publics: "list[tuple[StateVector, StateVector]]",
    bits: "tuple[int, ...] | list[int]",
    signatures: "list[int]",
    rng: np.random.Generator,
) -> bool:
    """Accept iff every bit's signature verifies against its public pair."""
    if not len(publics) == len(bits) == len(signatures):
        raise ValueError("publics, bits and signatures must have equal length")
    results = [
        verify(params, pub[b], b, sig, rng)
        for pub, b, sig in zip(publics, bits, signatures)
    ]
    return all(results)
