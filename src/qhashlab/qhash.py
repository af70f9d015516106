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

The circuit realization exists for every N: it prepares the uniform
index superposition, then applies one rotation layer per set bit b_j of
the n-bit message M, n = (N - 1).bit_length() (LSB first, so bit j
carries weight 2^{j-1}).  The layer of bit j turns the target of every
branch i at once, by

    theta_{i,j} = 4 pi (k_i 2^{j-1} mod N) / N

on the pair the index register holding i selects: d controlled
rotations on disjoint pairs, turning the rows of the pair view at once.
With the convention R(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>,
the rotations on a branch share an axis and sum to twice the amplitude
angle: their halves sum to 2 pi k_i M / N mod 2 pi, N a power of two
or not, so the circuit reproduces the analytic state.
simulate_circuits runs a block of messages as the rows of one array,
through simulate_circuit's kernels and to its bits.

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
from functools import cached_property
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
    "simulate_circuits",
    "dump_circuit",
    "uncompute_hash",
    "reverse_test",
    "reverse_test_shots",
]


@dataclass(frozen=True)
class HashParams:
    """Hash configuration derived from a key set.

    n = (N - 1).bit_length() is the bit length of the largest message,
    for any modulus: the circuit has a rotation layer for each set bit
    of an n-bit message.  s = ceil(log2 d) + 1 qubits:
    one target plus an index register wide enough for d branches.
    Each message bit's RotationLayer is made once, on first use.
    """

    keyset: KeySet
    n: int = field(init=False)
    s: int = field(init=False)
    _layers: dict[int, RotationLayer] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", (self.keyset.modulus - 1).bit_length())
        object.__setattr__(self, "s", hash_qubits(self.keyset.d))

    @property
    def branch_capacity(self) -> int:
        """Index-register capacity 2^ceil(log2 d); branches >= d stay empty."""
        return padded_branch_count(self.keyset.d)

    def rotation_layer(self, j: int) -> RotationLayer:
        """The layer of message bit j (1-based): thetas 4 pi (k_i 2^{j-1} mod N) / N."""
        if j not in self._layers:
            thetas = 2.0 * phase_angles(self.keyset.key_array(), 1 << (j - 1), self.keyset.modulus)
            self._layers[j] = RotationLayer(message_bit=j, thetas=tuple(thetas.tolist()))
        return self._layers[j]


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

    @cached_property
    def turns(self) -> tuple[np.ndarray, np.ndarray]:
        """math.cos and math.sin of each theta / 2, made once: simulation turns branch pairs by them."""
        return (np.array([math.cos(theta / 2.0) for theta in self.thetas]),
                np.array([math.sin(theta / 2.0) for theta in self.thetas]))


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
    """Qubits of a d-branch hash state, ceil(log2 d) + 1 for d >= 1, at most MAX_QUBITS."""
    s = padded_branch_count(d).bit_length()
    if s > MAX_QUBITS:
        raise ValueError(
            f"{d} keys need {s} qubits; states hold at most MAX_QUBITS = {MAX_QUBITS}"
        )
    return s


def _check_message(params: HashParams, m: int) -> None:
    modulus = params.keyset.modulus
    if not 0 <= m < modulus:
        raise ValueError(f"message {m} out of range [0, {modulus - 1}]")


def hash_state(params: HashParams, m: int) -> StateVector:
    """Materialize |h_K(M)| analytically; amplitudes are real."""
    _check_message(params, m)
    keyset = params.keyset
    angles = phase_angles(keyset.key_array(), m, keyset.modulus)
    scale = 1.0 / math.sqrt(keyset.d)
    amp = np.zeros(1 << params.s, dtype=np.complex128)
    amp[0 : 2 * keyset.d : 2] = scale * np.cos(angles)
    amp[1 : 2 * keyset.d : 2] = scale * np.sin(angles)
    return StateVector(params.s, amp)


def _preparation(params: HashParams) -> list[Gate]:
    """Self-inverse gates to the uniform d-branch state: Hadamards if d fills the register, else PrepareUniform."""
    d = params.keyset.d
    if d == params.branch_capacity:
        return [Hadamard(target=q) for q in range(1, params.s)]
    return [PrepareUniform(branch_count=d)]


def build_hash_circuit(params: HashParams, m: int) -> CircuitDescription:
    """Emit the rotation circuit of message m: one rotation layer per set bit, LSB first."""
    _check_message(params, m)
    gates = _preparation(params)
    gates += [params.rotation_layer(j) for j in range(1, params.n + 1) if m >> (j - 1) & 1]
    return CircuitDescription(qubit_count=params.s, gates=tuple(gates))


def _turn_pairs(pairs: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Turn row i < len(cos) of an (..., M, 2) branch-pair view by [[cos_i, -sin_i], [sin_i, cos_i]], in place."""
    rows = pairs[..., : cos.size, :]
    a0 = rows[..., 0].copy()
    a1 = rows[..., 1].copy()
    rows[..., 0] = cos * a0 + (-sin) * a1  # m00 a0 + m01 a1, summed as a gate's matrix product is
    rows[..., 1] = sin * a0 + cos * a1


def _apply_gate(amp: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a mutable amplitude array; returns the array now holding the state."""
    pairs = amp.reshape(-1, 2)  # row i: index register i, target bit 0 and 1
    if isinstance(gate, Hadamard):
        apply_gate_inplace(amp, gate.target, hadamard_matrix())
    elif isinstance(gate, RotationLayer):
        if len(gate.thetas) > pairs.shape[0]:
            raise ValueError(f"rotation layer turns {len(gate.thetas)} branches; the register holds {pairs.shape[0]}")
        _turn_pairs(pairs, *gate.turns)
    elif isinstance(gate, PrepareUniform):
        return reflect_to_uniform(pairs, gate.branch_count).reshape(-1)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return amp


def simulate_circuit(circuit: CircuitDescription) -> StateVector:
    """Run the gates on |0...0> one at a time (layers turn by their cos/sin of theta/2, made once); validated once."""
    s = circuit.qubit_count
    amp = np.zeros(1 << s, dtype=np.complex128)
    amp[0] = 1.0
    for gate in circuit.gates:
        amp = _apply_gate(amp, gate)
    return StateVector(s, amp)


def simulate_circuits(params: HashParams, messages: list[int]) -> np.ndarray:
    """simulate_circuit(build_hash_circuit(params, m)).amplitudes for each m, as the rows of one array:
    the preparation runs once, and layer j turns the rows whose message has bit j set."""
    for m in messages:
        _check_message(params, m)
    prepared = simulate_circuit(CircuitDescription(params.s, tuple(_preparation(params))))
    rows = np.tile(prepared.amplitudes, (len(messages), 1))
    for j in range(1, params.n + 1):
        turned = [r for r, m in enumerate(messages) if m >> (j - 1) & 1]
        if turned:
            block = rows[turned]
            _turn_pairs(block.reshape(len(turned), -1, 2), *params.rotation_layer(j).turns)
            rows[turned] = block
    return rows


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
    their exact inverse is a single turn back by the branch's phase
    angle, applied to every branch pair at once; the preparation gates,
    each its own inverse, are then applied again.
    """
    keyset = params.keyset
    if psi.num_qubits != params.s:
        raise ValueError(f"state has {psi.num_qubits} qubits, hash needs {params.s}")
    _check_message(params, v)
    angles = phase_angles(keyset.key_array(), v, keyset.modulus)
    amp = psi.amplitudes.copy()
    _turn_pairs(amp.reshape(-1, 2), np.cos(angles), -np.sin(angles))
    for gate in _preparation(params):
        amp = _apply_gate(amp, gate)
    return StateVector(params.s, amp)


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
