"""Character-sum bias analysis for key sets over Z_N.

A key set K is a multiset of residues modulo N.  Its discrete Fourier
component at shift l is

    f_K(l) = sum_{k in K} exp(i * 2*pi*k*l / N)

and the two bias measures are the worst normalized component over all
nonzero shifts:

    lambda(K) = max_{l != 0} |f_K(l)| / |K|
    delta(K)  = max_{l != 0} |Re f_K(l)| / |K|

delta(K) bounds the inner product between the hash states of any two
distinct messages, which is what makes a low-bias K a usable hash
parameter.  One kernel, worst_character_sums, computes both: an rfft
locates the shifts near the maximum, and a direct trigonometric
gather evaluates exactly those; the method="direct" reference gathers
every shift, so both methods report identical numbers and shifts.

A note on floors: at shift l = N/2 the character values are (-1)^k, so
Re f_K(N/2) is an integer with the same parity as d.  A key set of odd
cardinality therefore always has delta(K) >= 1/d.  The bundled table
fixtures all have odd d and declare a different, smaller statistic on
their epsilon line: padded_delta_squared, the squared worst real
component normalized by the padded register capacity 2^ceil(log2 d)
instead of d.  See that function's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "KeySet",
    "BiasProfile",
    "KeySetFormatError",
    "phase_angles",
    "fourier_component",
    "fourier_components",
    "worst_character_sums",
    "bias_profile",
    "MAX_SPECTRUM_CELLS",
    "padded_branch_count",
    "padded_delta_squared",
    "hash_inner_product",
    "load_keyset",
    "save_keyset",
]

# Largest (rows x N) spectrum a scan may allocate: 2^26 cells admits the
# GA's 64-row population at N = 2^20.  Larger requests raise ValueError.
MAX_SPECTRUM_CELLS = 1 << 26

# Character sums within TIE_BAND * d of a row's maximum are ties for
# the worst shift; the FFT locate band (1e-9 * d) contains this one.
TIE_BAND = 1e-12


class KeySetFormatError(ValueError):
    """A key-set file does not follow the text format."""


@dataclass(frozen=True)
class KeySet:
    """Multiset of residues mod N; repeats are kept and counted.

    Keys are stored exactly as given (order preserved) so files
    round-trip byte-exactly.
    """

    modulus: int
    keys: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "keys", tuple(int(k) for k in self.keys))
        if len(self.keys) < 1:
            raise ValueError("key set must contain at least one key")
        for k in self.keys:
            if not 0 <= k < self.modulus:
                raise ValueError(
                    f"key {k} out of range [0, {self.modulus - 1}]"
                )

    @property
    def d(self) -> int:
        """Cardinality, counting repeats."""
        return len(self.keys)

    def key_array(self) -> np.ndarray:
        return np.asarray(self.keys, dtype=np.int64)


@dataclass(frozen=True)
class BiasProfile:
    """Worst-case normalized character sums of a key set."""

    modulus: int
    d: int
    delta: float
    lambda_: float
    worst_shift_delta: int
    worst_shift_lambda: int

    @property
    def padded_delta_squared(self) -> float:
        """(delta * d / 2^ceil(log2 d))^2; see the module function of this name."""
        return (self.delta * self.d / padded_branch_count(self.d)) ** 2


def _angle_index(keys: np.ndarray, shift: int | np.ndarray, modulus: int) -> np.ndarray:
    # Reduce k*l mod N before scaling by 2*pi/N: k*l can reach ~2^40,
    # where cos() of the unreduced angle loses precision.
    return (keys * shift) % modulus


def phase_angles(keys: np.ndarray, m: int, modulus: int) -> np.ndarray:
    """2*pi*(k*m mod N)/N for each key k: the branch phases of message m."""
    return 2.0 * np.pi * _angle_index(keys, m, modulus) / modulus


def fourier_component(keyset: KeySet, shift: int) -> complex:
    """f_K(l): the character sum of the key multiset at a given shift."""
    n = keyset.modulus
    if not 0 <= shift < n:
        raise ValueError(f"shift must be in [0, {n - 1}], got {shift}")
    angles = phase_angles(keyset.key_array(), int(shift), n)
    return complex(np.cos(angles).sum(), np.sin(angles).sum())


def _check_cells(rows: int, modulus: int) -> None:
    cells = rows * modulus
    if cells > MAX_SPECTRUM_CELLS:
        raise ValueError(
            f"spectrum of {rows} x {modulus} = {cells} cells (about "
            f"{cells * 16 / 2**30:.1f} GiB as complex128) exceeds "
            f"MAX_SPECTRUM_CELLS = {MAX_SPECTRUM_CELLS}"
        )


def _gather(key_rows: np.ndarray, shifts: np.ndarray, modulus: int) -> np.ndarray:
    """f_K(l) for each row of a (rows, d) key array at each shift.

    Each key adds its gather from one table of exp(2*pi*i*j/N) at the
    reduced index k*l mod N, in stored key order, starting from 0.
    """
    angles = 2.0 * np.pi * np.arange(modulus, dtype=np.int64) / modulus
    table = np.cos(angles) + 1j * np.sin(angles)
    f = np.zeros((key_rows.shape[0], shifts.size), dtype=np.complex128)
    for column in key_rows.T:
        f += table[_angle_index(column[:, None], shifts, modulus)]
    return f


def worst_character_sums(
    key_rows: np.ndarray, modulus: int, method: str = "fft"
) -> tuple[np.ndarray, ...]:
    """(max |Re f_K(l)|, its shift, max |f_K(l)|, its shift) over l != 0, per key row.

    "direct" gathers every shift; "fft" gathers only the shifts that an
    rfft of the multiplicity rows puts near a row's maximum, with
    bit-identical results.  The maxima are the largest gathered values;
    a shift ties when its value lies within 1e-12 * d of its row's
    maximum, far wider than the gather's rounding (about d * 2^-52) and
    far narrower than any genuine gap, and ties resolve to the smallest
    shift.  Re f(l) = Re f(N - l) and |f(l)| = |f(N - l)| in exact
    arithmetic, so the shifts reported are at most N/2.
    """
    rows, d = key_rows.shape
    _check_cells(rows, modulus)
    if method == "direct":
        shifts = np.arange(1, modulus, dtype=np.int64)
    elif method == "fft":
        counts = np.zeros((rows, modulus))
        np.add.at(counts, (np.arange(rows)[:, None], key_rows), 1.0)
        half = np.fft.rfft(counts)[:, 1:]  # shifts 1 .. N/2
        del counts
        # A band of 1e-9 in the normalized sums is far wider than the
        # FFT's rounding error (about d * log2(N) * 2^-52), so it keeps
        # every shift whose exact value can tie the maximum.
        near = np.zeros(half.shape[1], dtype=bool)
        for part in (half.real, half):
            values = np.abs(part)
            near |= np.any(values >= values.max(axis=1, keepdims=True) - 1e-9 * d, axis=0)
        located = np.flatnonzero(near) + 1
        # The mirrors N - l tie in exact arithmetic, not always in the last bit.
        shifts = np.concatenate([located, modulus - located])
    else:
        raise ValueError(f"unknown method {method!r}")
    f = _gather(key_rows, shifts, modulus)
    out: list[np.ndarray] = []
    for values in (np.abs(f.real), np.hypot(f.real, f.imag)):
        top = values.max(axis=1)
        tied = values >= (top - TIE_BAND * d)[:, None]
        out += [top, np.where(tied, shifts, modulus).min(axis=1)]
    return tuple(out)


def fourier_components(keyset: KeySet) -> np.ndarray:
    """f_K(l) for every shift l in [0, N), by the exact gather."""
    n = keyset.modulus
    _check_cells(1, n)
    return _gather(keyset.key_array()[None, :], np.arange(n, dtype=np.int64), n)[0]


def bias_profile(keyset: KeySet, method: str = "fft") -> BiasProfile:
    """Worst normalized character sums; both methods agree bit for bit."""
    d = keyset.d
    re_max, l_delta, mag_max, l_lambda = worst_character_sums(
        keyset.key_array()[None, :], keyset.modulus, method
    )
    return BiasProfile(
        modulus=keyset.modulus,
        d=d,
        delta=float(re_max[0] / d),
        lambda_=float(mag_max[0] / d),
        worst_shift_delta=int(l_delta[0]),
        worst_shift_lambda=int(l_lambda[0]),
    )


def padded_branch_count(d: int) -> int:
    """Smallest power of two >= d: the index-register capacity for d branches."""
    if d < 1:
        raise ValueError(f"need at least one branch, got {d}")
    return 1 << (d - 1).bit_length()


def padded_delta_squared(keyset: KeySet, method: str = "fft") -> float:
    """(max_{l != 0} |Re f_K(l)| / 2^ceil(log2 d))^2.

    The squared worst-case hash-state overlap under the padded-register
    amplitude convention: amplitudes laid out as 1/sqrt(D) over a
    register of D = 2^ceil(log2 d) index branches with only the d key
    branches populated.  Equals (delta(K) * d / D)^2.

    This is the statistic the bundled key-set tables declare as their
    epsilon bound.  Unlike delta(K), it has no 1/d parity floor for odd
    d, because the squared D-normalized sum at l = N/2 can be as small
    as (1/D)^2.
    """
    return bias_profile(keyset, method=method).padded_delta_squared


def hash_inner_product(keyset: KeySet, m1: int, m2: int) -> float:
    """(1/d) * sum_i cos(2*pi*k_i*(m1 - m2)/N), the hash-state overlap.

    Depends only on (m1 - m2) mod N and equals Re f_K(m1 - m2)/d, so it
    is bounded by delta(K) whenever m1 != m2 (mod N).
    """
    n = keyset.modulus
    for m in (m1, m2):
        if not 0 <= m < n:
            raise ValueError(f"message must be in [0, {n - 1}], got {m}")
    angles = phase_angles(keyset.key_array(), (m1 - m2) % n, n)
    return float(np.cos(angles).sum() / keyset.d)


class KeySetFile(NamedTuple):
    """A parsed key-set file: the set plus its declared bias bound, if any."""

    keyset: KeySet
    declared_epsilon: float | None


def load_keyset(path: str | Path) -> KeySetFile:
    """Parse the key-set text format.

    Layout: ``N <modulus>``, ``d <count>``, ``epsilon <bound-or-dash>``,
    then one key per line.  Whitespace-tolerant; lines starting with
    ``#`` are comments.
    """
    path = Path(path)
    header: list[tuple[int, str, str]] = []
    key_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(header) < 3:
            if len(fields) != 2:
                raise KeySetFormatError(
                    f"{path}:{lineno}: expected '<name> <value>' header, got {raw!r}"
                )
            header.append((lineno, fields[0], fields[1]))
        else:
            if len(fields) != 1:
                raise KeySetFormatError(
                    f"{path}:{lineno}: expected one key per line, got {raw!r}"
                )
            key_lines.append((lineno, fields[0]))

    if len(header) < 3:
        raise KeySetFormatError(f"{path}: truncated header (need N, d, epsilon lines)")
    expected = ("N", "d", "epsilon")
    values: dict[str, str] = {}
    for (lineno, name, value), want in zip(header, expected):
        if name != want:
            raise KeySetFormatError(
                f"{path}:{lineno}: expected {want!r} header line, got {name!r}"
            )
        values[name] = value

    def parse_int(name: str, text: str, lineno: int) -> int:
        try:
            return int(text)
        except ValueError:
            raise KeySetFormatError(
                f"{path}:{lineno}: {name} must be an integer, got {text!r}"
            ) from None

    modulus = parse_int("N", values["N"], header[0][0])
    count = parse_int("d", values["d"], header[1][0])
    if values["epsilon"] == "-":
        epsilon: float | None = None
    else:
        try:
            epsilon = float(values["epsilon"])
        except ValueError:
            raise KeySetFormatError(
                f"{path}:{header[2][0]}: epsilon must be a number or '-', "
                f"got {values['epsilon']!r}"
            ) from None

    keys = []
    for lineno, text in key_lines:
        k = parse_int("key", text, lineno)
        if not 0 <= k < modulus:
            raise KeySetFormatError(
                f"{path}:{lineno}: key {k} out of range [0, {modulus - 1}]"
            )
        keys.append(k)
    if len(keys) != count:
        raise KeySetFormatError(
            f"{path}: header declares d={count} but file lists {len(keys)} keys"
        )
    try:
        keyset = KeySet(modulus=modulus, keys=tuple(keys))
    except ValueError as exc:
        raise KeySetFormatError(f"{path}: {exc}") from None
    return KeySetFile(keyset, epsilon)


def save_keyset(
    keyset: KeySet, path: str | Path, declared_epsilon: float | None = None
) -> None:
    """Write the key-set text format; keys keep their stored order."""
    eps_text = "-" if declared_epsilon is None else repr(float(declared_epsilon))
    lines = [f"N {keyset.modulus}", f"d {keyset.d}", f"epsilon {eps_text}"]
    lines.extend(str(k) for k in keyset.keys)
    Path(path).write_text("\n".join(lines) + "\n")
