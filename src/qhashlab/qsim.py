"""Minimal dense state-vector core: states, gates, sampling, equality tests.

Everything quantum in this package runs through here.  Amplitudes are
dense complex vectors over the 2^s basis states of an s-qubit register;
qubit q is the bit worth 2^q of the basis index.  Gates are 2x2
matrices applied to one qubit, optionally conditioned on the value of
other qubits.  Measurement is Born-rule sampling from an explicit,
replayable generator.

One kernel, apply_gate_inplace, applies every gate: it views the
amplitudes as amp.reshape(-1, 2, 2^q), whose [:, 0] and [:, 1] halves
are the pairs that differ in qubit q, and updates those pairs in place
(all of them, or the rows a control selects).  apply_single_qubit and
apply_controlled_single_qubit are validated wrappers that return a new
StateVector; circuit simulation runs the kernel on one mutable array
and validates a single StateVector at the end.

Every REVERSE verdict (the hash test and signature verification) uses
one rule, the one zero_outcome_counts applies: a shot accepts when its
uniform draw is below |amp_0|^2 of the uncomputed state.  That is the
draw, and the verdict, of a full-register measurement finding the
all-zero outcome; measure_all and sample_outcomes stay as the oracle
that tests pin the rule to.  Shots are drawn in chunks of SHOT_CHUNK,
so a huge shot count never allocates more than one chunk of draws.

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
from typing import NamedTuple

import numpy as np

from .textfile import TextFile

__all__ = [
    "MAX_QUBITS",
    "StateVector",
    "TestCounts",
    "make_rng",
    "inner_product",
    "measure_all",
    "sample_outcomes",
    "swap_test_accept_probability",
    "swap_test",
    "hadamard_matrix",
    "ry_matrices",
    "apply_single_qubit",
    "apply_controlled_single_qubit",
    "apply_gate_inplace",
    "zero_outcome_counts",
    "reflect_to_uniform",
    "dump_state",
    "load_state",
]

# Dense storage: 2^24 amplitudes = 256 MiB of complex128 is the ceiling
# we are willing to allocate.  Hash states here need s <= 10.
MAX_QUBITS = 24

NORM_TOL = 1e-10

# Uniform draws per chunk of a shot tally: 8 MiB of float64.
SHOT_CHUNK = 1 << 20


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator: replayable and cheaply splittable."""
    return np.random.Generator(np.random.Philox(seed))


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


def _outcome_probabilities(psi: StateVector) -> np.ndarray:
    return np.abs(psi.amplitudes) ** 2


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")


def _bernoulli_counts(p: float, shots: int, rng: np.random.Generator) -> TestCounts:
    # Chunked draws continue one stream: the same values as rng.random(shots).
    accepted = 0
    for start in range(0, shots, SHOT_CHUNK):
        accepted += int(np.count_nonzero(rng.random(min(SHOT_CHUNK, shots - start)) < p))
    return TestCounts(accepted=accepted, rejected=shots - accepted)


def sample_outcomes(psi: StateVector, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Sample basis-state outcomes for repeated full-register measurements."""
    _check_shots(shots)
    probs = _outcome_probabilities(psi)
    edges = np.cumsum(probs)
    # norm is 1 within 1e-10; pin the last edge so a draw near 1 cannot
    # fall off the table.
    edges[-1] = 1.0
    draws = rng.random(shots)
    return np.searchsorted(edges, draws, side="right").astype(np.int64)


def zero_outcome_counts(psi: StateVector, shots: int, rng: np.random.Generator) -> TestCounts:
    """Measure fresh copies of psi; accept = the all-zero outcome.

    sample_outcomes reports outcome 0 exactly when a draw is below its
    first edge, |amp_0|^2, so this tally makes the same draws and
    reaches the same verdicts without the cumulative table.
    """
    _check_shots(shots)
    return _bernoulli_counts(_outcome_probabilities(psi)[0], shots, rng)


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
    _check_shots(shots)
    return _bernoulli_counts(swap_test_accept_probability(psi, phi), shots, rng)


def hadamard_matrix() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


def ry_matrices(thetas) -> np.ndarray:
    """A (k, 2, 2) stack of R(theta), with R(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>."""
    c = np.array([math.cos(theta / 2.0) for theta in thetas])
    s = np.array([math.sin(theta / 2.0) for theta in thetas])
    out = np.empty((c.size, 2, 2), dtype=np.complex128)
    out[:, 0, 0] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 1, 1] = c
    return out


def apply_gate_inplace(
    amp: np.ndarray,
    qubit: int,
    matrix: np.ndarray,
    control_mask: int = 0,
    control_value: "int | np.ndarray" = 0,
) -> None:
    """Apply a 2x2 matrix to one qubit of a contiguous amplitude array, in place.

    Only basis indices with (index & control_mask) == control_value are
    touched.  matrix may also be a (k, 2, 2) stack with k distinct
    control values: matrix[r] acts where the control reads
    control_value[r], so k gates on disjoint pairs run as one update.

    In the view amp.reshape(-1, 2, 2^qubit), entry [h, b, l] is basis
    index h 2^(qubit+1) + b 2^qubit + l: the halves b = 0 and b = 1 hold
    the pairs the gate mixes, and a control selects rows of their (h, l)
    grid.  Each half is copied before the update, so every amplitude
    gets the contiguous arithmetic of a one-gate update.
    """
    if amp.ndim != 1 or not amp.flags.c_contiguous:
        raise ValueError("amplitudes must be a contiguous 1-D array to update in place")
    if amp.size < 2 or amp.size & (amp.size - 1):
        raise ValueError(f"{amp.size} amplitudes is not a power of two >= 2")
    num_qubits = amp.size.bit_length() - 1
    values = np.asarray(control_value, dtype=np.int64).reshape(-1)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape not in ((2, 2), (values.size, 2, 2)):
        raise ValueError(f"expected a 2x2 matrix per control value, got shape {matrix.shape}")
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range [0, {num_qubits - 1}]")
    if control_mask & (1 << qubit):
        raise ValueError("target qubit cannot be part of the control mask")
    if control_mask >> num_qubits:
        raise ValueError(f"control mask sets bits outside the {num_qubits}-qubit register")
    if np.any(values & ~control_mask):
        raise ValueError("control value sets bits outside the control mask")
    if values.size > 1 and np.unique(values).size < values.size:
        raise ValueError("control values must be distinct")
    m = matrix.reshape(-1, 2, 2)
    if control_mask:
        # matching indices with bit `qubit` clear, one row per control
        # value, ascending: set each free bit in turn
        index = values[:, None]
        for j in range(num_qubits):
            if not (control_mask | 1 << qubit) >> j & 1:
                index = np.concatenate([index, index | 1 << j], axis=1)
        rows: tuple = (index >> (qubit + 1), index & ((1 << qubit) - 1))
        m00, m01, m10, m11 = (m[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    else:
        rows = (...,)
        m00, m01, m10, m11 = m[0, 0, 0], m[0, 0, 1], m[0, 1, 0], m[0, 1, 1]
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

    Floats are rendered with repr, so a dump/load round trip is exact.
    """
    amp = psi.amplitudes
    lines = [
        f"{i} {real!r} {imag!r}"
        for i, (real, imag) in enumerate(zip(amp.real.tolist(), amp.imag.tolist()))
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_state(path: str | Path) -> StateVector:
    """Parse a state dump: one ``<index> <re> <im>`` line per basis index.

    Read through textfile, 24 bytes kept per line; the first line past
    2^MAX_QUBITS lines is refused.
    """
    lines = TextFile(path)
    limit = 1 << MAX_QUBITS
    indices, parts = array("q"), array("d")
    for lineno, fields, raw in lines:
        if len(indices) == limit:
            raise lines.fail(f"more than 2^MAX_QUBITS = {limit} amplitude lines", lineno)
        if len(fields) != 3:
            raise lines.fail("expected '<index> <re> <im>'", lineno, raw)
        try:
            index, real, imag = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            raise lines.fail("malformed amplitude line", lineno, raw) from None
        if not 0 <= index < limit:
            raise lines.fail(f"basis index {index} out of range [0, {limit - 1}]", lineno)
        indices.append(index)
        parts.append(real)
        parts.append(imag)
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
    amp[basis] = np.frombuffer(parts, dtype=np.complex128)
    return StateVector(dim.bit_length() - 1, amp)
