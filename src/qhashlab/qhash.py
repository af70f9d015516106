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

The circuit realization exists for N = 2^n: it prepares the uniform
index superposition, then applies one rotation layer per set bit b_j of
M (LSB first, so bit j carries weight 2^{j-1}).  The layer of bit j
turns the target of every branch i at once, by

    theta_{i,j} = 4 pi (k_i 2^{j-1} mod N) / N

on the pair the index register holding i selects: d controlled
rotations on disjoint pairs, applied as one stacked kernel update.
With the convention R(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>,
the rotations on a branch share an axis and sum to twice the amplitude
angle, so the circuit reproduces the analytic state exactly.

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
    MAX_QUBITS,
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
    "RotationLayer",
    "PrepareUniform",
    "Gate",
    "CircuitDescription",
    "hash_qubits",
    "hash_state",
    "build_hash_circuit",
    "simulate_circuit",
    "dump_circuit",
    "uncompute_hash",
    "reverse_test",
    "reverse_test_shots",
]


@dataclass(frozen=True)
class HashParams:
    """Hash configuration derived from a key set.

    n is the message bit-length when the modulus is a power of two
    (messages are then n-bit numbers), otherwise None and only the
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
        object.__setattr__(self, "s", hash_qubits(self.keyset.d))

    @property
    def branch_capacity(self) -> int:
        """Index-register capacity 2^ceil(log2 d); branches >= d stay empty."""
        return padded_branch_count(self.keyset.d)


@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class RotationLayer:
    """Rotate qubit 0 by thetas[i] on index branch i, for every i at once.

    message_bit records which classical bit j (1-based, LSB first)
    produced the layer; it does not affect simulation.  thetas holds
    Python floats, so repr prints them plainly.
    """

    message_bit: int
    thetas: tuple[float, ...]


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


Gate = Union[Hadamard, RotationLayer, PrepareUniform]


@dataclass(frozen=True)
class CircuitDescription:
    qubit_count: int
    gates: tuple[Gate, ...]


def hash_qubits(d: int) -> int:
    """Qubits of a d-branch hash state, ceil(log2 d) + 1, at most MAX_QUBITS."""
    s = (d - 1).bit_length() + 1
    if s > MAX_QUBITS:
        raise ValueError(
            f"{d} keys need {s} qubits; states hold at most MAX_QUBITS = {MAX_QUBITS}"
        )
    return s


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


def build_hash_circuit(params: HashParams, m: int) -> CircuitDescription:
    """Emit the rotation circuit of message m: one rotation layer per set bit, LSB first."""
    keyset = params.keyset
    if params.n is None:
        raise ValueError(f"modulus {keyset.modulus} is not a power of two; no circuit form")
    if not 0 <= m < keyset.modulus:
        raise ValueError(f"message {m} out of range [0, {keyset.modulus - 1}]")
    keys = keyset.key_array()
    gates: list[Gate] = []
    if keyset.d == params.branch_capacity:
        gates.extend(Hadamard(target=q) for q in range(1, params.s))
    else:
        gates.append(PrepareUniform(branch_count=keyset.d))
    for j in range(1, params.n + 1):
        if m >> (j - 1) & 1:
            thetas = 2.0 * phase_angles(keys, 1 << (j - 1), keyset.modulus)
            gates.append(RotationLayer(message_bit=j, thetas=tuple(thetas.tolist())))
    return CircuitDescription(qubit_count=params.s, gates=tuple(gates))


def simulate_circuit(circuit: CircuitDescription) -> StateVector:
    """Run the gate list on |0...0>; the result is validated once."""
    s = circuit.qubit_count
    amp = np.zeros(1 << s, dtype=np.complex128)
    amp[0] = 1.0
    index_mask = (1 << s) - 2
    for gate in circuit.gates:
        if isinstance(gate, Hadamard):
            apply_gate_inplace(amp, gate.target, hadamard_matrix())
        elif isinstance(gate, RotationLayer):
            # branch i is the pair the index register holding i selects
            branches = np.arange(len(gate.thetas))
            apply_gate_inplace(amp, 0, ry_matrices(gate.thetas), index_mask, branches << 1)
        elif isinstance(gate, PrepareUniform):
            # one row per index branch: the reflection moves target pairs
            amp = reflect_to_uniform(amp.reshape(-1, 2), gate.branch_count).reshape(-1)
        else:
            raise ValueError(f"unknown gate {gate!r}")
    return StateVector(s, amp)


def dump_circuit(circuit: CircuitDescription) -> str:
    """Text form: ``qubits <s>`` then one gate per line.

    A rotation layer prints one ``CRY <branch> 0 <theta>`` line per
    branch, in branch order.
    """
    lines = [f"qubits {circuit.qubit_count}"]
    for gate in circuit.gates:
        if isinstance(gate, Hadamard):
            lines.append(f"H {gate.target}")
        elif isinstance(gate, RotationLayer):
            lines.extend(f"CRY {i} 0 {theta!r}" for i, theta in enumerate(gate.thetas))
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
