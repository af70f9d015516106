"""The classical-quantum hash: analytic states, the rotation circuit, REVERSE test.

A key set K = {k_0, ..., k_{d-1}} over Z_N maps a message M in [0, N)
to a state on s = ceil(log2 d) + 1 qubits:

    |h_K(M)> = (1/sqrt(d)) * sum_i |i>( cos(2 pi k_i M / N)|0>
                                      + sin(2 pi k_i M / N)|1> )

The target bit is qubit 0 and the index register occupies the higher
qubits, so basis index 2i+b holds branch i with target bit b.  The
overlap of two hash states is the normalized real character sum of the
key set at the message difference, which is what ties collision
resistance to the bias module: |<h(M1)|h(M2)>| <= delta(K) for any
distinct messages.

The circuit realization prepares the uniform index superposition and
then, for every set message bit b_j (LSB first, so bit j carries weight
2^{j-1}) and every branch i, rotates the target by

    theta_{i,j} = 4 pi (k_i 2^{j-1} mod N) / N

conditioned on the index register holding i.  With the convention
R(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>, the rotations on a
branch share an axis and sum to twice the amplitude angle, so the
circuit reproduces the analytic state exactly.

The REVERSE test checks a claimed message v against a held state by
running the construction backward and accepting only the all-zero
outcome, by the verdict rule stated in qsim.  For an honest claim the
uncomputation is exact and the test always accepts; for v != w it
accepts with probability equal to the squared overlap.  (Descriptions
that bound this error by the overlap itself, unsquared, are looser; the
squared quantity is what the circuit yields.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .bias import KeySet, padded_branch_count, phase_angles
from .qsim import (
    StateVector,
    TestCounts,
    apply_gate_inplace,
    hadamard_matrix,
    reflect_to_uniform,
    ry_matrices,
    zero_outcome_counts,
)

__all__ = [
    "HashParams",
    "Hadamard",
    "ControlledRotation",
    "PrepareUniform",
    "Gate",
    "CircuitDescription",
    "message_bits",
    "hash_state",
    "build_hash_circuit",
    "simulate_circuit",
    "dump_circuit",
    "uncompute_hash",
    "reverse_test",
    "reverse_test_shots",
    "reverse_test_accept_probability",
]


@dataclass(frozen=True)
class HashParams:
    """Hash configuration derived from a key set.

    n is the message bit-length when the modulus is a power of two
    (messages are then n-bit strings), otherwise None and only the
    analytic construction is available.  s = ceil(log2 d) + 1 qubits:
    one target plus an index register wide enough for d branches.
    """

    keyset: KeySet
    n: int | None = field(init=False)
    s: int = field(init=False)

    def __post_init__(self) -> None:
        modulus = self.keyset.modulus
        n = modulus.bit_length() - 1 if modulus & (modulus - 1) == 0 else None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", (self.keyset.d - 1).bit_length() + 1)

    @property
    def index_qubits(self) -> int:
        return self.s - 1

    @property
    def branch_capacity(self) -> int:
        """Index-register capacity 2^ceil(log2 d); branches >= d stay empty."""
        return padded_branch_count(self.keyset.d)


@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class ControlledRotation:
    """Rotate `target` by theta when the index register holds `condition`.

    message_bit records which classical bit j (1-based, LSB first)
    produced the gate; it does not affect simulation.
    """

    message_bit: int
    condition: int
    target: int
    theta: float


@dataclass(frozen=True)
class PrepareUniform:
    """Uniform superposition over the first `branch_count` index branches.

    The Hadamard layer only yields (1/sqrt(d)) sum_i |i> when d fills
    the register, so for other d the builder emits this explicit
    preparation instead: a Householder reflection taking |0...0> to the
    uniform d-branch state.  Self-inverse, exactly unitary, and equal
    to the Hadamard layer's action on |0...0> when d is a power of two.
    """

    branch_count: int


Gate = Union[Hadamard, ControlledRotation, PrepareUniform]


@dataclass(frozen=True)
class CircuitDescription:
    qubit_count: int
    gates: tuple[Gate, ...]


def message_bits(m: int, n: int) -> tuple[int, ...]:
    """LSB-first bits of m: bit j (1-based) carries weight 2^(j-1)."""
    if not 0 <= m < (1 << n):
        raise ValueError(f"message {m} out of range [0, {(1 << n) - 1}]")
    return tuple((m >> j) & 1 for j in range(n))


def hash_state(params: HashParams, m: int) -> StateVector:
    """Materialize |h_K(M)| analytically; amplitudes are real."""
    keyset = params.keyset
    if not 0 <= m < keyset.modulus:
        raise ValueError(f"message {m} out of range [0, {keyset.modulus - 1}]")
    angles = phase_angles(keyset.key_array(), m, keyset.modulus)
    scale = 1.0 / math.sqrt(keyset.d)
    amp = np.zeros(1 << params.s, dtype=np.complex128)
    amp[0 : 2 * keyset.d : 2] = scale * np.cos(angles)
    amp[1 : 2 * keyset.d : 2] = scale * np.sin(angles)
    return StateVector(params.s, amp)


def build_hash_circuit(params: HashParams, bits: "tuple[int, ...] | list[int]") -> CircuitDescription:
    """Emit the rotation circuit for a message given as LSB-first bits.

    Rotations appear only for set bits, ordered by message bit then
    branch index.
    """
    if params.n is None:
        raise ValueError(
            f"modulus {params.keyset.modulus} is not a power of two; "
            "the circuit form needs a bit-length"
        )
    if len(bits) != params.n:
        raise ValueError(f"expected {params.n} message bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("message bits must be 0 or 1")

    keyset = params.keyset
    d = keyset.d
    gates: list[Gate] = []
    if d == params.branch_capacity:
        gates.extend(Hadamard(target=q) for q in range(1, params.s))
    else:
        gates.append(PrepareUniform(branch_count=d))
    for j, bit in enumerate(bits, start=1):
        if not bit:
            continue
        # Python floats, so dump_circuit prints each theta by plain repr.
        thetas = 2.0 * phase_angles(keyset.key_array(), 1 << (j - 1), keyset.modulus)
        gates.extend(
            ControlledRotation(message_bit=j, condition=i, target=0, theta=theta)
            for i, theta in enumerate(thetas.tolist())
        )
    return CircuitDescription(qubit_count=params.s, gates=tuple(gates))


def _gate_batches(gates: "tuple[Gate, ...]"):
    """Split a gate list into runs to apply as one update each.

    Consecutive rotations on one target with distinct conditions act on
    disjoint pairs, so they form one run; every other gate is a run of
    its own.  Order within and across runs is kept.
    """
    run: list[Gate] = []
    conditions: set[int] = set()  # nonempty only while the run holds rotations
    for gate in gates:
        if (
            conditions
            and isinstance(gate, ControlledRotation)
            and gate.target == run[0].target
            and gate.condition not in conditions
        ):
            run.append(gate)
            conditions.add(gate.condition)
            continue
        if run:
            yield run
        run = [gate]
        conditions = {gate.condition} if isinstance(gate, ControlledRotation) else set()
    if run:
        yield run


def simulate_circuit(circuit: CircuitDescription) -> StateVector:
    """Run the gate list on |0...0>; the result is validated once."""
    s = circuit.qubit_count
    amp = np.zeros(1 << s, dtype=np.complex128)
    amp[0] = 1.0
    index_mask = (1 << s) - 2
    for run in _gate_batches(circuit.gates):
        gate = run[0]
        if isinstance(gate, Hadamard):
            apply_gate_inplace(amp, gate.target, hadamard_matrix())
        elif isinstance(gate, ControlledRotation):
            apply_gate_inplace(
                amp,
                gate.target,
                ry_matrices([g.theta for g in run]),
                control_mask=index_mask,
                control_value=np.array([g.condition << 1 for g in run]),
            )
        elif isinstance(gate, PrepareUniform):
            # one row per index branch: the reflection moves target pairs
            amp = reflect_to_uniform(amp.reshape(-1, 2), gate.branch_count).reshape(-1)
        else:
            raise ValueError(f"unknown gate {gate!r}")
    return StateVector(s, amp)


def dump_circuit(circuit: CircuitDescription) -> str:
    """Text form: ``qubits <s>`` then one gate per line."""
    lines = [f"qubits {circuit.qubit_count}"]
    for gate in circuit.gates:
        if isinstance(gate, Hadamard):
            lines.append(f"H {gate.target}")
        elif isinstance(gate, ControlledRotation):
            lines.append(f"CRY {gate.condition} {gate.target} {gate.theta!r}")
        elif isinstance(gate, PrepareUniform):
            lines.append(f"PREP {gate.branch_count}")
        else:
            raise ValueError(f"unknown gate {gate!r}")
    return "\n".join(lines) + "\n"


def uncompute_hash(params: HashParams, v: int, psi: StateVector) -> StateVector:
    """Apply the inverse of the hash construction for claimed message v.

    The constructed circuit's rotations on one branch share an axis, so
    their exact inverse is a single rotation back by the branch's total
    angle, applied here to all branches at once; the preparation is then
    undone (the uniform-branch reflection is its own inverse, and the
    Hadamard layer is applied explicitly when d fills the register).
    """
    keyset = params.keyset
    if psi.num_qubits != params.s:
        raise ValueError(
            f"state has {psi.num_qubits} qubits, hash needs {params.s}"
        )
    if not 0 <= v < keyset.modulus:
        raise ValueError(f"message {v} out of range [0, {keyset.modulus - 1}]")
    d = keyset.d
    angles = phase_angles(keyset.key_array(), v, keyset.modulus)
    cos_a = np.cos(angles)
    sin_a = np.sin(angles)
    pairs = psi.amplitudes.reshape(-1, 2).copy()
    x0 = pairs[:d, 0].copy()
    x1 = pairs[:d, 1]
    pairs[:d, 0] = cos_a * x0 + sin_a * x1
    pairs[:d, 1] = -sin_a * x0 + cos_a * x1
    if d == params.branch_capacity:
        amp = pairs.reshape(-1)
        for q in range(1, params.s):
            apply_gate_inplace(amp, q, hadamard_matrix())
        return StateVector(params.s, amp)
    return StateVector(params.s, reflect_to_uniform(pairs, d).reshape(-1))


def reverse_test(
    params: HashParams, v: int, psi: StateVector, rng: np.random.Generator
) -> bool:
    """One shot of the reverse test: uncompute for claimed message v, accept on all-zero."""
    return reverse_test_shots(params, v, psi, 1, rng).accepted == 1


def reverse_test_shots(
    params: HashParams, v: int, psi: StateVector, shots: int, rng: np.random.Generator
) -> TestCounts:
    """Repeat the reverse test on fresh copies of psi; count accepts."""
    return zero_outcome_counts(uncompute_hash(params, v, psi), shots, rng)


def reverse_test_accept_probability(params: HashParams, v: int, w: int) -> float:
    """Squared hash overlap: the reverse test's accept chance for claim v on h(w)."""
    from .bias import hash_inner_product

    return hash_inner_product(params.keyset, v, w) ** 2
