"""Minimal dense state-vector core: states, gates, sampling, equality tests.

Everything quantum in this package runs through here.  Amplitudes are
dense complex vectors over the 2^s basis states of an s-qubit register;
qubit q is the bit worth 2^q of the basis index.  Gates are 2x2
matrices applied to one qubit, optionally conditioned on the value of
other qubits.  Measurement is Born-rule sampling from an explicit,
replayable generator.

Random draws have one owner, this module.  Bounded draws, uniform in
[0, N) for any N, have one rule, _draw_below: circuit-check's keys and
messages and signature's numbers in 1..L.  Two decoders read a stream
ahead in raw 64-bit words and decode the words as numpy's scalar calls
would (signature's forgery trials, the GA's tournaments); each keeps
only its word layout and its scalar fallback, and shares numpy's rules
from here:

* _halves: the stream 32-bit draws read, each word's low half, then
  its high half, behind the half the generator holds buffered, if any;
* _lemire: a draw below R < 2^32 from one half x, Lemire's
  (x * R) >> 32, and the first half numpy rejects and draws again
  (D. Lemire, "Fast random integer generation in an interval", ACM
  TOMACS 29(1), 2019);
* _uniform: random() from one word, its top 53 bits times 2^-53;
* _resume: the rewind that leaves the generator where the scalar
  calls leave it;
* _decoder_matches: the self-check a decoder passes, on fixed draws,
  before its first use in a process.

apply_gate_inplace applies single-qubit gates: it views the amplitudes
as amp.reshape(-1, 2, 2^q), whose [:, 0] and [:, 1] halves are the
pairs that differ in qubit q, and updates those pairs in place (all of
them, or the rows a control selects).  apply_single_qubit and
apply_controlled_single_qubit are validated wrappers that return a new
StateVector; qhash turns rotation layers as branch pairs.

Every REVERSE verdict (the hash test and signature verification) uses
one rule, the one zero_outcome_counts applies: a shot accepts when its
uniform draw is below |amp_0|^2 of the uncomputed state.  That is the
draw, and the verdict, of a full-register measurement finding the
all-zero outcome; measure_all and sample_outcomes stay as the oracle
that tests pin the rule to.  A tally draws SHOT_CHUNK shots at a time
into one reused 512 KiB buffer and mask, whatever the shot count.

The SWAP test is simulated at the probability level: the analytic
accept probability 1/2 (1 + |<psi|phi>|^2) drives one Bernoulli draw
per shot.  This has exactly the statistics of materializing the
(2s+1)-qubit ancilla circuit at a fraction of the cost; the test suite
carries a full-circuit oracle for small registers that pins the two
paths together.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .textfile import TextFile, write_lines

__all__ = [
    "MAX_QUBITS",
    "StateVector",
    "TestCounts",
    "make_rng",
    "check_count",
    "inner_product",
    "measure_all",
    "sample_outcomes",
    "swap_test_accept_probability",
    "swap_test",
    "hadamard_matrix",
    "apply_single_qubit",
    "apply_controlled_single_qubit",
    "apply_gate_inplace",
    "zero_outcome_counts",
    "reflect_to_uniform",
    "dump_state",
    "load_state",
]

# Dense storage: 2^24 amplitudes = 256 MiB of complex128 is the ceiling
# we are willing to allocate.  Dumps, fingerprints and hash states may
# reach it; qhash.hash_qubits reads it when it checks a key set.
MAX_QUBITS = 24

NORM_TOL = 1e-10

# Uniform draws per chunk of a shot tally: 512 KiB of float64.
SHOT_CHUNK = 1 << 16


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator: replayable and cheaply splittable."""
    return np.random.Generator(np.random.Philox(seed))


def _draw_below(rng: np.random.Generator, modulus: int, size: int | None = None):
    """Uniform draws from [0, N): rng.integers up to N = 2^63, so reports keep their bytes; past
    that a draw is the low b = (N - 1).bit_length() bits of ceil(b/64) uint64 words, and the
    values >= N are drawn again, in order (never for N = 2^b)."""
    if modulus <= 1 << 63:
        return rng.integers(0, modulus, size=size)
    bits, wanted = (modulus - 1).bit_length(), 1 if size is None else size
    values: list[int] = []
    while len(values) < wanted:
        words = rng.integers(0, 1 << 64, size=(wanted - len(values), -(-bits // 64)), dtype=np.uint64)
        drawn = (sum(w << 64 * i for i, w in enumerate(row)) & ((1 << bits) - 1) for row in words.tolist())
        values += [value for value in drawn if value < modulus]
    return values if size is not None else values[0]


def _halves(words: np.ndarray, buffered: int, uinteger: int) -> np.ndarray:
    """The stream 32-bit draws read from raw words: each word's low half, then its high half (the
    words' little-endian uint32 view), behind uinteger when the generator holds it buffered (has_uint32)."""
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u4").ravel()
    return np.concatenate((np.array([uinteger], dtype="<u4"), halves)) if buffered else halves


def _lemire(halves: np.ndarray, bound: int | np.ndarray) -> tuple[np.ndarray, int]:
    """numpy's draws below a bound R, 2 <= R < 2^32, one from each 32-bit half x: (x * R) >> 32.

    bound is one R or an array of them, one per half.  Also returns the
    flat index of the first half numpy rejects and replaces with the
    next one, where the low 32 bits of x * R fall below 2^32 mod R
    (never for a power of two), or halves.size if none does; the values
    from that index on are not numpy's.
    """
    bound = np.asarray(bound, dtype=np.uint64)
    products = np.asarray(halves, dtype=np.uint64) * bound
    rejected = np.flatnonzero((products & 0xFFFFFFFF) < np.uint64(1 << 32) % bound)
    return products >> 32, int(rejected[0]) if rejected.size else products.size


def _uniform(words: int | np.ndarray):
    """numpy's random() from raw 64-bit words (an int or a uint64 array): the top 53 bits times 2^-53."""
    return (words >> 11) * (1.0 / 9007199254740992.0)


def _resume(bitgen: np.random.BitGenerator, snapshot: dict, words: int, buffered: bool, uinteger: int) -> None:
    """Leave bitgen where scalar draws that read words raw 64-bit words from snapshot leave it.

    A decoder that read ahead with random_raw rewinds here: the snapshot
    advanced by words, then the 32-bit draws' buffered half set as
    given (has_uint32 and uinteger, which random_raw never touches), so
    the whole state dict, not only the next draw, is the scalar calls'.
    """
    bitgen.state = snapshot
    bitgen.random_raw(words)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(buffered), uinteger
    bitgen.state = state


def _decoder_matches(bulk: Callable, scalar: Callable, kind: type, cases: list[tuple[int, tuple]]) -> bool:
    """Whether bulk(rng, *args) returns what scalar(rng, *args) returns, and leaves the whole generator
    state (its repr) as the scalar calls leave it, on every case.

    A case is (lead, args): two generators of kind, seeded alike, each
    make lead 32-bit draws first, so an odd lead leaves a half buffered.
    """
    for lead, args in cases:
        fast, slow = (np.random.Generator(kind(20130901)) for _ in range(2))
        for rng in (fast, slow):
            rng.integers(0, 5, size=lead)
        if bulk(fast, *args) != scalar(slow, *args) or repr(fast.bit_generator.state) != repr(slow.bit_generator.state):
            return False
    return True


@dataclass(frozen=True)
class StateVector:
    """Immutable unit vector over the 2^num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        amp = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.shape[0] != 1 << self.num_qubits:
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {amp.shape[0]}"
            )
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


class TestCounts(NamedTuple):
    """Accept/reject tally of a repeated equality test."""

    accepted: int
    rejected: int

    @property
    def shots(self) -> int:
        return self.accepted + self.rejected

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.shots


def _check_same_register(psi: StateVector, phi: StateVector) -> None:
    if psi.num_qubits != phi.num_qubits:
        raise ValueError(
            f"dimension mismatch: {psi.num_qubits} vs {phi.num_qubits} qubits"
        )


def inner_product(psi: StateVector, phi: StateVector) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    _check_same_register(psi, phi)
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def check_count(name: str, value: int) -> None:
    """Refuse a work count (shots, trials, draws) below 1 or past int64 before any work starts."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value >= 1 << 63:
        raise ValueError(f"{name} must be below 2^63, got {value}")


def _bernoulli_counts(p: float, shots: int, rng: np.random.Generator) -> TestCounts:
    # Chunked draws continue one stream: the same values as rng.random(shots).
    draws = np.empty(min(SHOT_CHUNK, shots))
    below = np.empty(draws.size, dtype=bool)
    accepted = 0
    for start in range(0, shots, draws.size):
        chunk = rng.random(out=draws[: shots - start])
        accepted += int(np.count_nonzero(np.less(chunk, p, out=below[: chunk.size])))
    return TestCounts(accepted=accepted, rejected=shots - accepted)


def sample_outcomes(psi: StateVector, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Sample basis-state outcomes for repeated full-register measurements."""
    check_count("shots", shots)
    edges = np.cumsum(np.abs(psi.amplitudes) ** 2)
    # norm is 1 within 1e-10; pin the last edge so a draw near 1 cannot
    # fall off the table.
    edges[-1] = 1.0
    draws = rng.random(shots)
    return np.searchsorted(edges, draws, side="right").astype(np.int64)


def zero_outcome_counts(psi: StateVector, shots: int, rng: np.random.Generator) -> TestCounts:
    """Measure fresh copies of psi; accept = the all-zero outcome.

    sample_outcomes reports outcome 0 exactly when a draw is below its
    first edge, |amp_0|^2, so this tally makes the same draws and
    reaches the same verdicts from the same array loops on amp_0 alone.
    """
    check_count("shots", shots)
    return _bernoulli_counts((np.abs(psi.amplitudes[:1]) ** 2)[0], shots, rng)


def measure_all(psi: StateVector, rng: np.random.Generator) -> int:
    """Measure every qubit once; returns the basis-state outcome."""
    return int(sample_outcomes(psi, 1, rng)[0])


def swap_test_accept_probability(psi: StateVector, phi: StateVector) -> float:
    """1/2 (1 + |<psi|phi>|^2): the chance the SWAP test reports "equal".

    The overlap is normalized by both state norms, so identical inputs
    give exactly 1.0 even when their stored norm is off by the admitted
    1e-10.
    """
    _check_same_register(psi, phi)
    ip_sq = abs(inner_product(psi, phi)) ** 2
    norm_sq = float(np.vdot(psi.amplitudes, psi.amplitudes).real) * float(
        np.vdot(phi.amplitudes, phi.amplitudes).real
    )
    return 0.5 * (1.0 + min(1.0, ip_sq / norm_sq))


def swap_test(
    psi: StateVector, phi: StateVector, shots: int, rng: np.random.Generator
) -> TestCounts:
    """Run the ancilla test for a number of shots; accept = ancilla read 0.

    Simulated at the probability level: each shot is a Bernoulli draw at
    the analytic accept probability.
    """
    check_count("shots", shots)
    return _bernoulli_counts(swap_test_accept_probability(psi, phi), shots, rng)


def hadamard_matrix() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def apply_gate_inplace(
    amp: np.ndarray,
    qubit: int,
    matrix: np.ndarray,
    control_mask: int = 0,
    control_value: int = 0,
) -> None:
    """Apply a 2x2 matrix to one qubit of a contiguous amplitude array, in place.

    Only basis indices with (index & control_mask) == control_value are
    touched.  In the view amp.reshape(-1, 2, 2^qubit), entry [h, b, l]
    is basis index h 2^(qubit+1) + b 2^qubit + l: the halves b = 0 and
    b = 1 hold the pairs the gate mixes, and a control selects rows of
    their (h, l) grid.  Each half is copied before the update, so every
    amplitude gets the contiguous arithmetic of a one-gate update.
    """
    if amp.ndim != 1 or not amp.flags.c_contiguous:
        raise ValueError("amplitudes must be a contiguous 1-D array to update in place")
    if amp.size < 2 or amp.size & (amp.size - 1):
        raise ValueError(f"{amp.size} amplitudes is not a power of two >= 2")
    num_qubits = amp.size.bit_length() - 1
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range [0, {num_qubits - 1}]")
    if control_mask & (1 << qubit):
        raise ValueError("target qubit cannot be part of the control mask")
    if control_mask >> num_qubits:
        raise ValueError(f"control mask sets bits outside the {num_qubits}-qubit register")
    if control_value & ~control_mask:
        raise ValueError("control value sets bits outside the control mask")
    rows: tuple = (...,)
    if control_mask:  # the matching indices with bit `qubit` clear
        index = np.arange(amp.size, dtype=np.int64)
        index = index[index & (control_mask | 1 << qubit) == control_value]
        rows = (index >> (qubit + 1), index & ((1 << qubit) - 1))
    (m00, m01), (m10, m11) = matrix
    view = amp.reshape(-1, 2, 1 << qubit)
    low, high = view[:, 0], view[:, 1]
    a0 = low[rows].copy()
    a1 = high[rows].copy()
    low[rows] = m00 * a0 + m01 * a1
    high[rows] = m10 * a0 + m11 * a1


def apply_single_qubit(psi: StateVector, qubit: int, matrix: np.ndarray) -> StateVector:
    """Apply a 2x2 matrix to one qubit; returns a new state."""
    amp = psi.amplitudes.copy()
    apply_gate_inplace(amp, qubit, matrix)
    return StateVector(psi.num_qubits, amp)


def apply_controlled_single_qubit(
    psi: StateVector,
    qubit: int,
    matrix: np.ndarray,
    control_mask: int,
    control_value: int,
) -> StateVector:
    """Apply a 2x2 matrix to one qubit where (index & mask) == value."""
    amp = psi.amplitudes.copy()
    apply_gate_inplace(amp, qubit, matrix, control_mask, control_value)
    return StateVector(psi.num_qubits, amp)


def reflect_to_uniform(amp: np.ndarray, branch_count: int) -> np.ndarray:
    """Householder reflection exchanging |0> and the uniform state on the first rows.

    Acts along axis 0: a 1-D vector reflects its entries, an (M, 2) view
    reflects its rows, so branch i may be one amplitude or one pair.  The
    uniform state puts 1/sqrt(branch_count) on each of the first
    branch_count rows.  The map is its own inverse and exactly unitary.
    """
    if branch_count == 1:
        return amp.copy()
    w = np.zeros(amp.shape[0])
    w[0] = 1.0 - 1.0 / math.sqrt(branch_count)
    w[1:branch_count] = -1.0 / math.sqrt(branch_count)
    w /= math.sqrt(float(np.dot(w, w)))
    return amp - 2.0 * np.multiply.outer(w, w @ amp)


def dump_state(psi: StateVector, path: str | Path) -> None:
    """Write one line per basis index: ``<index> <re> <im>``.

    Floats are rendered with repr (%r), so a dump/load round trip is
    exact; textfile writes the lines a block at a time.
    """
    write_lines(path, (), "%d %r %r\n", range(psi.amplitudes.size), psi.amplitudes.real, psi.amplitudes.imag)


def load_state(path: str | Path) -> StateVector:
    """Parse a state dump: one ``<index> <re> <im>`` line per basis index.

    24 bytes are kept per line.  The first line past 2^MAX_QUBITS lines
    is refused.
    """
    lines = TextFile(path)
    limit = 1 << MAX_QUBITS

    def amplitude_line(stored: int, lineno: int, fields: list[str], raw: str) -> None:
        if stored == limit:
            raise lines.fail(f"more than 2^MAX_QUBITS = {limit} amplitude lines", lineno)
        if len(fields) != 3:
            raise lines.fail("expected '<index> <re> <im>'", lineno, raw)
        try:
            index, real, imag = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            raise lines.fail("malformed amplitude line", lineno, raw) from None
        if not 0 <= index < limit:
            raise lines.fail(f"basis index {index} out of range [0, {limit - 1}]", lineno)

    indices, reals, imags = array("q"), array("d"), array("d")
    lines.fill((int, float, float), limit, limit, (indices.fromlist, reals.fromlist, imags.fromlist), amplitude_line)
    dim = len(indices)
    if dim < 2 or dim & (dim - 1):
        raise lines.fail(f"{dim} amplitude lines is not a power of two >= 2")
    basis = np.frombuffer(indices, dtype=np.int64)
    if basis.max() >= dim:
        raise lines.fail(f"basis index {basis[basis >= dim][0]} out of range [0, {dim - 1}]")
    counts = np.bincount(basis)
    if counts.max() > 1:
        raise lines.fail(f"duplicate basis index {counts.argmax()}")
    amp = np.empty(dim, dtype=np.complex128)
    amp.real[basis] = np.frombuffer(reals, dtype=np.float64)
    amp.imag[basis] = np.frombuffer(imags, dtype=np.float64)
    return StateVector(dim.bit_length() - 1, amp)
