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
results.  The brute force enumerates the 2^n - 1 nonzero codewords once
per code, by XOR doubling over bit-packed generator columns, and both
min_distance and fingerprint_resistance read that one weight vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .qsim import StateVector, TestCounts, reflect_to_uniform, zero_outcome_counts

__all__ = [
    "LinearCode",
    "CodeFormatError",
    "MAX_BRUTE_FORCE_BITS",
    "random_linear_code",
    "encode",
    "fingerprint_state",
    "fingerprint_inner_product",
    "fingerprint_resistance",
    "fingerprint_reverse_test",
    "fingerprint_reverse_test_shots",
    "load_code",
    "save_code",
]

# Exhaustive codeword enumeration is 2^n work; past this it is refused.
MAX_BRUTE_FORCE_BITS = 20

# Set bits of each byte value.
_BYTE_WEIGHTS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)


class CodeFormatError(ValueError):
    """A code file does not follow the text format."""


@dataclass(frozen=True)
class LinearCode:
    """Binary linear code given by an m x n generator matrix."""

    n: int
    m: int
    generator: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.m:
            raise ValueError(f"need m >= n >= 1, got n={self.n}, m={self.m}")
        gen = np.asarray(self.generator, dtype=np.uint8) & 1
        if gen.shape != (self.m, self.n):
            raise ValueError(
                f"generator shape {gen.shape} does not match ({self.m}, {self.n})"
            )
        gen.flags.writeable = False
        object.__setattr__(self, "generator", gen)

    @cached_property
    def _weights(self) -> np.ndarray:
        """Weights of the codewords of messages 1 .. 2^n - 1, enumerated once."""
        if self.n > MAX_BRUTE_FORCE_BITS:
            raise ValueError(
                f"brute force over 2^{self.n} messages refused "
                f"(limit n <= {MAX_BRUTE_FORCE_BITS})"
            )
        # The codeword of w is the XOR of the generator columns of w's set
        # bits: build all 2^n by doubling, eight codeword bits per byte.
        columns = np.packbits(self.generator.T, axis=1)
        words = np.zeros((1 << self.n, columns.shape[1]), dtype=np.uint8)
        for j in range(self.n):
            words[1 << j : 2 << j] = words[: 1 << j] ^ columns[j]
        return _BYTE_WEIGHTS[words[1:]].sum(axis=1)

    def min_distance(self) -> int:
        """Minimum nonzero-codeword weight, by brute force over 2^n messages."""
        return int(self._weights.min())


def random_linear_code(n: int, m: int, rng: np.random.Generator) -> LinearCode:
    """Uniform random generator matrix; deterministic under the seed."""
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

    Linearity turns the pairwise maximum into a single sweep:
    |<f(u)|f(v)>| = |1 - 2 wt(E(u xor v))/m|, so only the 2^n - 1
    nonzero messages need checking.
    """
    return float(np.max(np.abs(1.0 - 2.0 * code._weights / code.m)))


def _uncompute_fingerprint(code: LinearCode, u, psi: StateVector) -> StateVector:
    if psi.num_qubits != _fingerprint_qubits(code.m):
        raise ValueError(
            f"state has {psi.num_qubits} qubits, fingerprints need "
            f"{_fingerprint_qubits(code.m)}"
        )
    # The construction is (sign flips) o (uniform prep); both factors
    # are their own inverse.
    word = encode(code, u)
    amp = psi.amplitudes.copy()
    amp[: code.m] *= 1.0 - 2.0 * word.astype(np.float64)
    return StateVector(psi.num_qubits, reflect_to_uniform(amp, code.m))


def fingerprint_reverse_test(
    code: LinearCode, u, psi: StateVector, rng: np.random.Generator
) -> bool:
    """One shot: uncompute the fingerprint of a claimed message, accept on all-zero."""
    return fingerprint_reverse_test_shots(code, u, psi, 1, rng).accepted == 1


def fingerprint_reverse_test_shots(
    code: LinearCode, u, psi: StateVector, shots: int, rng: np.random.Generator
) -> TestCounts:
    return zero_outcome_counts(_uncompute_fingerprint(code, u, psi), shots, rng)


def load_code(path: str | Path) -> LinearCode:
    """Parse the code text format: ``n <n>``, ``m <m>``, then m rows of n bits."""
    path = Path(path)
    header: dict[str, int] = {}
    rows: list[np.ndarray] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(header) < 2:
            want = "n" if "n" not in header else "m"
            if len(fields) != 2 or fields[0] != want:
                raise CodeFormatError(
                    f"{path}:{lineno}: expected '{want} <value>' header, got {raw!r}"
                )
            try:
                header[want] = int(fields[1])
            except ValueError:
                raise CodeFormatError(
                    f"{path}:{lineno}: {want} must be an integer, got {fields[1]!r}"
                ) from None
        else:
            if len(fields) != 1 or any(c not in "01" for c in fields[0]):
                raise CodeFormatError(
                    f"{path}:{lineno}: expected a row of bits, got {raw!r}"
                )
            if len(fields[0]) != header["n"]:
                raise CodeFormatError(
                    f"{path}:{lineno}: row has {len(fields[0])} bits, "
                    f"header declares n={header['n']}"
                )
            rows.append(np.frombuffer(fields[0].encode(), dtype=np.uint8) - ord("0"))
    if len(header) < 2:
        raise CodeFormatError(f"{path}: truncated header (need n and m lines)")
    if len(rows) != header["m"]:
        raise CodeFormatError(
            f"{path}: header declares m={header['m']} but file lists {len(rows)} rows"
        )
    try:
        return LinearCode(n=header["n"], m=header["m"], generator=np.stack(rows))
    except ValueError as exc:
        raise CodeFormatError(f"{path}: {exc}") from None


def save_code(code: LinearCode, path: str | Path) -> None:
    lines = [f"n {code.n}", f"m {code.m}"]
    lines.extend("".join(str(int(b)) for b in row) for row in code.generator)
    Path(path).write_text("\n".join(lines) + "\n")
