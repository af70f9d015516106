"""Quantum fingerprints over a binary linear code, for comparison with the hash.

A code E maps n message bits to m codeword bits; the fingerprint of u is

    |f_E(u)> = (1/sqrt(m)) * sum_i (-1)^{E_i(u)} |i>

on ceil(log2 m) qubits, padded with zero amplitude above m.  Two
fingerprints overlap by (m - 2*Delta)/m where Delta is the Hamming
distance of the codewords, so the code's distance distribution controls
distinguishability.  By linearity the worst pairwise overlap equals the
worst single-codeword imbalance max_{w != 0} |1 - 2 wt(E(w))/m|, which
is what fingerprint_resistance returns (both computations exist and are
cross-checked in tests).

Codes here are seeded random generator matrices; their minimum distance
is measured by brute force rather than designed, and reported alongside
results.  The brute force weighs the 2^n - 1 nonzero codewords once per
code, a block of about LOW_TABLE_BYTES at a time, and keeps only the least and
greatest weight: min_distance reads the first, fingerprint_resistance both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .qsim import MAX_QUBITS, StateVector
from .textfile import TextFile, write_lines

__all__ = [
    "LinearCode",
    "CodeFormatError",
    "MAX_BRUTE_FORCE_BITS",
    "MAX_GENERATOR_BYTES",
    "random_linear_code",
    "encode",
    "fingerprint_state",
    "fingerprint_inner_product",
    "fingerprint_resistance",
    "load_code",
    "save_code",
]

# Exhaustive codeword enumeration is 2^n work; past this it is refused.
MAX_BRUTE_FORCE_BITS = 20

# Largest m x n generator, one byte per entry: the 256 MiB a dense state
# of MAX_QUBITS qubits may take.  Larger codes raise ValueError.
MAX_GENERATOR_BYTES = 16 << MAX_QUBITS

# Bytes of the low codeword table that each high codeword is XORed into.
LOW_TABLE_BYTES = 1 << 16

class CodeFormatError(ValueError):
    """A code file does not follow the text format."""


@dataclass(frozen=True)
class LinearCode:
    """Binary linear code given by an m x n generator matrix; its weight range is swept once, on first use."""

    n: int
    m: int
    generator: np.ndarray

    def __post_init__(self) -> None:
        _check_size(self.n, self.m)
        gen = np.asarray(self.generator, dtype=np.uint8) & 1
        if gen.shape != (self.m, self.n):
            raise ValueError(
                f"generator shape {gen.shape} does not match ({self.m}, {self.n})"
            )
        gen.flags.writeable = False
        object.__setattr__(self, "generator", gen)

    @property
    def enumerable(self) -> bool:
        """n <= MAX_BRUTE_FORCE_BITS and 2^n * ceil(m/8) table bytes <= MAX_GENERATOR_BYTES."""
        return self.n <= MAX_BRUTE_FORCE_BITS and (1 << self.n) * -(-self.m // 8) <= MAX_GENERATOR_BYTES

    @cached_property
    def _weight_range(self) -> tuple[int, int]:
        """Least and greatest weight of the codewords of messages 1 .. 2^n - 1."""
        if not self.enumerable:
            raise ValueError(f"brute force over 2^{self.n} codewords of {self.m} bits refused")
        # The codeword of w is the XOR of the generator columns of w's set bits, eight per
        # byte: the codewords of the low bits are built by doubling, the high codeword steps
        # in Gray-code order, one column XOR a step, and each step weighs low XOR high.
        columns = np.packbits(self.generator.T, axis=1)
        low_bits = min(self.n, max(1, (LOW_TABLE_BYTES // columns.shape[1]).bit_length() - 1))
        low = np.zeros((1 << low_bits, columns.shape[1]), dtype=np.uint8)
        for j in range(low_bits):
            np.bitwise_xor(low[: 1 << j], columns[j], out=low[1 << j : 2 << j])
        high, block = np.zeros_like(columns[0]), np.empty_like(low)
        least, most = self.m, 0
        for h in range(1 << (self.n - low_bits)):
            if h:
                high ^= columns[low_bits + (h & -h).bit_length() - 1]
            np.bitwise_xor(low, high, out=block)
            weights = np.bitwise_count(block[0 if h else 1 :]).sum(axis=1)  # row 0 of h = 0 is message 0
            least, most = min(least, int(weights.min())), max(most, int(weights.max()))
        return least, most

    def min_distance(self) -> int:
        """Minimum nonzero-codeword weight, by brute force over 2^n messages."""
        return self._weight_range[0]


def _check_size(n: int, m: int) -> None:
    if not 1 <= n <= m:
        raise ValueError(f"need m >= n >= 1, got n={n}, m={m}")
    if _fingerprint_qubits(m) > MAX_QUBITS:
        raise ValueError(
            f"m = {m} needs {_fingerprint_qubits(m)} qubits; "
            f"states hold at most MAX_QUBITS = {MAX_QUBITS}"
        )
    if n * m > MAX_GENERATOR_BYTES:
        raise ValueError(
            f"generator of {m} x {n} = {n * m} bytes exceeds "
            f"MAX_GENERATOR_BYTES = {MAX_GENERATOR_BYTES}"
        )


def random_linear_code(n: int, m: int, rng: np.random.Generator) -> LinearCode:
    """Uniform random generator matrix; deterministic under the seed."""
    _check_size(n, m)
    return LinearCode(n=n, m=m, generator=rng.integers(0, 2, size=(m, n), dtype=np.uint8))


def _as_bits(u, n: int) -> np.ndarray:
    if isinstance(u, str):
        if len(u) != n or any(c not in "01" for c in u):
            raise ValueError(f"expected {n} bits, got {u!r}")
        return np.frombuffer(u.encode(), dtype=np.uint8) - ord("0")
    bits = np.asarray(u, dtype=np.uint8)
    if bits.shape != (n,) or np.any(bits > 1):
        raise ValueError(f"expected {n} bits, got {u!r}")
    return bits


def encode(code: LinearCode, u) -> np.ndarray:
    """Codeword of u: the generator acting on the message over GF(2)."""
    bits = _as_bits(u, code.n)
    return (code.generator @ bits) % 2


def _fingerprint_qubits(m: int) -> int:
    return max(1, (m - 1).bit_length())


def fingerprint_state(code: LinearCode, u) -> StateVector:
    """(1/sqrt(m)) sum_i (-1)^{E_i(u)} |i>, zero-padded above m."""
    word = encode(code, u)
    amp = np.zeros(1 << _fingerprint_qubits(code.m), dtype=np.complex128)
    amp[: code.m] = (1.0 - 2.0 * word.astype(np.float64)) / math.sqrt(code.m)
    return StateVector(_fingerprint_qubits(code.m), amp)


def fingerprint_inner_product(code: LinearCode, u, v) -> float:
    """(m - 2*Delta)/m for Delta the Hamming distance of the two codewords."""
    distance = int(np.count_nonzero(encode(code, u) != encode(code, v)))
    return (code.m - 2 * distance) / code.m


def fingerprint_resistance(code: LinearCode) -> float:
    """Worst fingerprint overlap over distinct messages.

    Linearity turns the pairwise maximum into |1 - 2 wt(E(u xor v))/m|
    over the 2^n - 1 nonzero messages, largest at the least or greatest weight.
    """
    return max(abs(1.0 - 2.0 * w / code.m) for w in code._weight_range)


def load_code(path: str | Path) -> LinearCode:
    """Parse the code text format: ``n <n>``, ``m <m>``, then m rows of n bits.

    Read through textfile.  The shape is checked from the header, rows
    fill one m x n array a block at a time, and the first row past m is
    refused.
    """
    lines = TextFile(path, CodeFormatError)
    (n_at, n_text), (m_at, m_text) = lines.header("n", "m")
    n = lines.number("n", n_text, n_at)
    m = lines.number("m", m_text, m_at)
    lines.check(m_at, _check_size, n, m)

    def bit_row(text: str) -> str:
        if len(text) != n or text.strip("01"):  # a non-bit is left
            raise ValueError(text)
        return text

    def row_line(stored: int, lineno: int, fields: list[str], raw: str) -> None:
        if stored >= m:
            raise lines.fail(f"more rows than the header's m={m}", lineno)
        if len(fields) != 1 or fields[0].strip("01"):
            raise lines.fail("expected a row of bits", lineno, raw)
        if len(fields[0]) != n:
            raise lines.fail(f"row has {len(fields[0])} bits, header declares n={n}", lineno)

    bits = bytearray()
    lines.fill((bit_row,), m, None, (lambda rows: bits.extend("".join(rows).encode()),), row_line)
    if len(bits) != m * n:
        raise lines.fail(f"header declares m={m} but file lists {len(bits) // n} rows")
    # LinearCode keeps each byte's low bit: 1 of "1" (0x31), 0 of "0" (0x30)
    return LinearCode(n=n, m=m, generator=np.frombuffer(bits, dtype=np.uint8).reshape(m, n))


def save_code(code: LinearCode, path: str | Path) -> None:
    write_lines(path, (("n", code.n), ("m", code.m)), "%d" * code.n + "\n", code.generator)
