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
from typing import Iterator, Union

import numpy as np

from . import qsim
from .bias import KeySet, _check_message, padded_branch_count, phase_angles
from .qsim import (
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
    of an n-bit message.  s = ceil(log2 d) + 1 qubits, at most
    qsim.MAX_QUBITS: one target plus an index register wide enough for
    d branches.
    Nothing is kept per message bit: a layer's angles are computed from
    the keys where a circuit or a simulation uses them.
    """

    keyset: KeySet
    n: int = field(init=False)
    s: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", (self.keyset.modulus - 1).bit_length())
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
    """Qubits of a d-branch hash state, ceil(log2 d) + 1 for d >= 1, at most qsim.MAX_QUBITS.

    The one register rule of the state commands: HashParams applies it,
    so each refuses an oversized set before it draws or reads a state,
    and the CLI hands it to load_keyset as the admit of a key file's d
    header line, checked before the keys are read.
    """
    s = padded_branch_count(d).bit_length()
    if s > qsim.MAX_QUBITS:
        raise ValueError(f"{d} keys need {s} qubits; states hold at most MAX_QUBITS = {qsim.MAX_QUBITS}")
    return s


def hash_state(params: HashParams, m: int) -> StateVector:
    """Materialize |h_K(M)| analytically; amplitudes are real."""
    _check_message(params.keyset.modulus, m)
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
    """Emit the rotation circuit of message m: one rotation layer per set bit, LSB first.

    Bit j's layer turns branch i by theta = 4 pi (k_i 2^{j-1} mod N) / N.
    """
    modulus = params.keyset.modulus
    _check_message(modulus, m)
    keys = params.keyset.key_array()
    gates = _preparation(params)
    gates += [RotationLayer(j, tuple((2.0 * phase_angles(keys, 1 << (j - 1), modulus)).tolist()))
              for j in range(1, params.n + 1) if m >> (j - 1) & 1]
    return CircuitDescription(qubit_count=params.s, gates=tuple(gates))


def _turn_pairs(pairs: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Turn row i < len(cos) of an (..., M, 2) branch-pair view by [[cos_i, -sin_i], [sin_i, cos_i]], in place."""
    rows = pairs[..., : cos.size, :]
    a0, a1 = rows[..., 0], rows[..., 1]
    # No product is written over its own operand: numpy then takes another
    # loop, which gave an underflowing one-key product the other zero sign.
    first = a0.copy()
    product = (-sin) * a1
    np.multiply(cos, first, out=a0)
    a0 += product  # m00 a0 + m01 a1, summed as a gate's matrix product is
    np.multiply(sin, first, out=product)
    np.multiply(cos, a1, out=first)
    np.add(product, first, out=a1)  # m10 a0 + m11 a1


def _apply_gate(amp: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a mutable amplitude array; returns the array now holding the state."""
    pairs = amp.reshape(-1, 2)  # row i: index register i, target bit 0 and 1
    if isinstance(gate, Hadamard):
        apply_gate_inplace(amp, gate.target, hadamard_matrix())
    elif isinstance(gate, RotationLayer):
        if len(gate.thetas) > pairs.shape[0]:
            raise ValueError(f"rotation layer turns {len(gate.thetas)} branches; the register holds {pairs.shape[0]}")
        half = np.array(gate.thetas) / 2.0
        _turn_pairs(pairs, np.cos(half), np.sin(half))
    elif isinstance(gate, PrepareUniform):
        return reflect_to_uniform(pairs, gate.branch_count).reshape(-1)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return amp


def simulate_circuit(circuit: CircuitDescription) -> StateVector:
    """Run the gates on |0...0> one at a time (layers turn by the cos/sin of theta/2); validated once."""
    s = circuit.qubit_count
    amp = np.zeros(1 << s, dtype=np.complex128)
    amp[0] = 1.0
    for gate in circuit.gates:
        amp = _apply_gate(amp, gate)
    return StateVector(s, amp)


def simulate_circuits(params: HashParams, messages: list[int]) -> np.ndarray:
    """simulate_circuit(build_hash_circuit(params, m)).amplitudes for each m, as the rows of one array:
    the preparation runs once, and layer j turns the rows whose message has bit j set by
    the cos and sin of its theta/2, the phase angle of 2^{j-1} (all rows in place, a strict
    subset as a copy), so a block holds one register per message."""
    keys, modulus = params.keyset.key_array(), params.keyset.modulus
    for m in messages:
        _check_message(modulus, m)
    rows = np.tile(simulate_circuit(CircuitDescription(params.s, tuple(_preparation(params)))).amplitudes,
                   (len(messages), 1))
    for j in range(1, params.n + 1):
        turned = [r for r, m in enumerate(messages) if m >> (j - 1) & 1]
        if turned:
            block = rows if len(turned) == len(messages) else rows[turned]
            half = phase_angles(keys, 1 << (j - 1), modulus)
            _turn_pairs(block.reshape(len(turned), -1, 2), np.cos(half), np.sin(half))
            if block is not rows:
                rows[turned] = block
    return rows


def dump_circuit(circuit: CircuitDescription) -> Iterator[str]:
    """Text form, one line at a time without its line end: ``qubits <s>`` then one gate per line.

    A rotation layer yields one ``CRY <branch> 0 <theta>`` line per
    branch, in branch order.
    """
    yield f"qubits {circuit.qubit_count}"
    for gate in circuit.gates:
        if isinstance(gate, Hadamard):
            yield f"H {gate.target}"
        elif isinstance(gate, RotationLayer):
            yield from (f"CRY {i} 0 {theta!r}" for i, theta in enumerate(gate.thetas))
        elif isinstance(gate, PrepareUniform):
            yield f"PREP {gate.branch_count}"
        else:
            raise ValueError(f"unknown gate {gate!r}")


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
    _check_message(params.keyset.modulus, v)
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
