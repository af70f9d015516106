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
parameter.  One kernel, worst_character_sums, computes both for a
batch of key sets.  An FFT locates the shifts near each set's own
maximum, and one direct trigonometric gather evaluates exactly those
(row, shift) pairs, computing only the roots of unity it reads; the
full table of N roots is built only for a gather that reads at least
N of them, such as the method="direct" reference over every shift,
or, at moderate N, once the gathers of one search have read N.
Both methods report identical numbers and shifts, and a set's result
does not depend on the rest of the batch.  Callers that read only
delta (GA fitness, random draws) pass real_only and skip lambda.

The locate exploits d << N.  For a large row it splits the shifts into
residue classes l = r + P*t: each class is one short FFT of the d
phasors e^{-2 pi i k r/N} folded into N/P bins, so about N/2 spectrum
cells are formed in cache-sized blocks and the N - d zero
multiplicities are never transformed (FFT pruning, after Markel 1971).
Rows below N = 2^16, the GA's and the random draws' among them, take
an rfft of whole rows in cache-sized blocks of rows: the same code
with one class, P = 1.

A scan writes into one set of working buffers (_ScanBuffers): the
multiplicities, the folded phasors, the spectra, |part|, the band
mask and the N-root table are refilled in place, block after block,
by np.add.at and the out= forms of the FFTs and ufuncs.  A one-shot
scan makes its own set, so its faults follow its working set and not
its block count; a search passes one set to every fitness call, so
its generations and draws do not page their arrays in again.

Phases are exact at any modulus: phase_angles reduces k*m mod N as
Python ints once the int64 product could wrap.

A note on floors: at shift l = N/2 the character values are (-1)^k, so
Re f_K(N/2) is an integer with the same parity as d.  A key set of odd
cardinality therefore always has delta(K) >= 1/d.  The bundled table
fixtures all have odd d and declare a different, smaller statistic on
their epsilon line: padded_delta_squared, the squared worst real
component normalized by the padded register capacity 2^ceil(log2 d)
instead of d.  See that function's docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .textfile import TextFile

__all__ = [
    "KeySet",
    "BiasProfile",
    "KeySetFormatError",
    "KeySetFile",
    "phase_angles",
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

# Largest (rows x N) spectrum a scan may cover: 2^26 cells admits the
# GA's 64-row population at N = 2^20.  Larger requests raise ValueError.
# The FFT locate's buffers hold one block of rows (LOCATE_CELLS, or one
# row), and of a split row one block of classes (CLASS_CELLS), so there
# this bounds work; method="direct" allocates all rows x N values.
MAX_SPECTRUM_CELLS = 1 << 26

# The FFT locate transforms blocks of rows of at most this many cells (or one
# row), so its buffers of 1 MiB of float64 multiplicities plus as large a
# spectrum fit in L2.  From N = 2^16 up a row's spectrum may come in residue
# classes (_class_step).
LOCATE_CELLS = 1 << 17

# Its residue classes past class 0 go in blocks of at most this many complex
# cells (or one class): the buffers of the folded phasors, their spectrum and
# |part| take 40 bytes a cell, 1.25 MiB here.
CLASS_CELLS = 1 << 15

# Character sums within TIE_BAND * d of a row's maximum are ties for
# the worst shift; the FFT locate band (1e-9 * d) contains this one.
TIE_BAND = 1e-12

# Largest block of (key, shift) terms a sparse gather computes at once.
GATHER_TERMS = 1 << 18

_INT64_MAX = int(np.iinfo(np.int64).max)


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
        if self.modulus >= 1 << 1021:  # 2*pi*j stays a finite float64 for j < N
            raise ValueError(f"modulus must be below 2^1021, got a {self.modulus.bit_length()}-bit one")
        object.__setattr__(self, "keys", tuple(map(int, self.keys)))
        if len(self.keys) < 1:
            raise ValueError("key set must contain at least one key")
        if min(self.keys) < 0 or max(self.keys) >= self.modulus:
            k = next(k for k in self.keys if not 0 <= k < self.modulus)
            raise ValueError(f"key {k} out of range [0, {self.modulus - 1}]")

    @property
    def d(self) -> int:
        """Cardinality, counting repeats."""
        return len(self.keys)

    def key_array(self) -> np.ndarray:
        """The keys as int64, or as Python ints once N - 1 exceeds int64."""
        return np.asarray(self.keys, dtype=np.int64 if self.modulus - 1 <= _INT64_MAX else object)


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
    # where cos() of the unreduced angle loses precision.  The int64
    # product is exact while (N - 1)^2 fits, which holds for every
    # spectrum scan (N <= MAX_SPECTRUM_CELLS).  Beyond that k*l is
    # reduced as Python ints and the residues are rounded to float64
    # once, as the int64 residues are when they are scaled.  Keys and
    # shifts are non-negative, so for a power-of-two N the mask gives
    # the residues of %, at a fraction of int64 division's cost.
    if (modulus - 1) ** 2 <= _INT64_MAX:
        if modulus & (modulus - 1) == 0:
            return (keys * shift) & (modulus - 1)
        return (keys * shift) % modulus
    return np.array([int(k) * int(shift) % modulus for k in keys], dtype=np.float64)


def _unit_roots(index: np.ndarray, modulus: int) -> np.ndarray:
    """exp(2*pi*i*j/N) at each index j.

    Every root a gather sums comes from this one formula, evaluated on
    a fresh (so contiguous) float64 array, so a root computed where it
    is needed equals the same entry of a full table.
    """
    angles = 2.0 * np.pi * index / modulus
    return np.cos(angles) + 1j * np.sin(angles)


def phase_angles(keys: np.ndarray, m: int, modulus: int) -> np.ndarray:
    """2*pi*(k*m mod N)/N for each key k: the branch phases of message m.

    Exact reduction at any modulus; see _angle_index.
    """
    return 2.0 * np.pi * _angle_index(keys, m, modulus) / modulus


def _check_cells(rows: int, modulus: int) -> None:
    cells = rows * modulus
    if cells > MAX_SPECTRUM_CELLS:
        raise ValueError(
            f"spectrum of {rows} x {modulus} = {cells} cells (about "
            f"{cells * 16 / 2**30:.1f} GiB as complex128) exceeds "
            f"MAX_SPECTRUM_CELLS = {MAX_SPECTRUM_CELLS}"
        )


class _ScanBuffers:
    """Working arrays of one spectrum scan, refilled in place call after call.

    take(name, shape, dtype) hands out the first entries of the flat
    buffer of that name as an array of that shape, and replaces the
    buffer with a larger zeroed one only when a shape outgrows it; a
    name always has one dtype.  The flat "counts" and "folded" buffers
    are all zero between transforms: whoever adds into them sets the
    entries it touched back to zero.  roots(N, reads) keeps the table
    of the N roots of unity for the last modulus asked.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self._modulus = 0
        self._reads = 0
        self._roots: np.ndarray | None = None

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        array = self._arrays.get(name)
        if array is None or array.size < size:
            array = self._arrays[name] = np.zeros(size, dtype=dtype)
        return array[:size].reshape(shape)

    def roots(self, modulus: int, reads: int) -> np.ndarray | None:
        """The N-root table for a gather of reads roots, or None where it computes them (see _gather)."""
        if modulus != self._modulus:
            self._modulus, self._reads, self._roots = modulus, 0, None
        self._reads += reads
        if self._roots is None and (reads >= modulus or modulus <= LOCATE_CELLS and self._reads >= modulus):
            self._roots = _unit_roots(np.arange(modulus, dtype=np.int64), modulus)
        return self._roots


def _gather(
    key_rows: np.ndarray, owner: np.ndarray, shifts: np.ndarray, modulus: int, buffers: _ScanBuffers
) -> np.ndarray:
    """f_K(l) at each shift l, for the row of key_rows paired with it.

    owner[p] names the row paired with shifts[p]; a one-entry owner
    pairs its row with every shift.  Each key adds its root of unity at
    the reduced index k*l mod N, in stored key order, starting from 0.
    Keys are read one column, or one block of GATHER_TERMS terms, at a
    time, so no temporary grows with d * len(shifts).

    A gather that reads at least N roots (every shift of a set, as
    method="direct" and fourier_components ask, or a GA population's
    few shifts per row) takes them from the table of all N that buffers
    keeps.  Building the table costs about N computed roots; timed, it
    wins from between N/2 and N reads at N = 2^14 .. 2^20, and on the
    bundled rows' full gathers it is 1.3x (N = 2^20) to 8x (N = 2^12)
    faster than computing each root.  Up to N = LOCATE_CELLS (a table
    of at most 2 MiB) the table is also built once the gathers through
    one set of buffers have read N roots in all, as a search's
    generations and draws do, and later gathers look their roots up.
    A gather of fewer than N terms reads its roots, computed or looked
    up, in blocks down the key axis, and add.accumulate sums them one
    term after another, the order of the column loop, so every path
    gives the same bits.
    """
    d = key_rows.shape[1]
    table = buffers.roots(modulus, d * shifts.size)
    f = np.zeros(shifts.size, dtype=np.complex128)
    if d * shifts.size >= modulus:
        for column in key_rows.T:
            f += table[_angle_index(column[owner], shifts, modulus)]
        return f
    step = max(1, GATHER_TERMS // shifts.size)
    for start in range(0, d, step):
        block = np.ascontiguousarray(key_rows[owner, start : start + step].T)
        index = _angle_index(block, shifts, modulus)
        terms = _unit_roots(index, modulus) if table is None else table[index]
        terms[0] += f
        f = np.add.accumulate(terms)[-1]
    return f


def _class_step(modulus: int, d: int) -> int:
    """P, the residue-class step of the FFT locate for d keys mod N.

    The largest power of two dividing N that leaves Q = N/P >= 8d bins,
    when that P is at least 16 and N at least 2^16; otherwise 1, one
    class: the rfft of the whole row.  Timed from N = 2^12 to 2^20 at
    d = 15 .. 2357: below 2^16 a row's rfft runs from L2 and wins, and
    with fewer classes or bins the phasors (d per class) and the short
    transforms cost more than the rfft they replace.
    """
    if modulus < 1 << 16:
        return 1
    bound = modulus // (8 * d)
    step = min(modulus & -modulus, 1 << max(bound.bit_length() - 1, 0))
    return step if step >= 16 else 1


def _class_spectra(keys: np.ndarray, modulus: int, step: int, buffers: _ScanBuffers):
    """Blocks (classes r, t0, S) with S[row, c, t] = conj f_K(r[c] + P*(t + t0)).

    With l = r + P*t and Q = N/P bins, f_K(l) = sum_k e^{2 pi i k r/N}
    e^{2 pi i (k mod Q) t/Q}: one length-Q transform of the phasors
    e^{-2 pi i k r/N} folded into the bins k mod Q gives the conjugate
    of a whole class.  Class 0 folds real multiplicities and takes an
    rfft (t = 1 .. Q/2; t = 0 is shift 0); classes 1 .. P/2 follow in
    blocks of at most CLASS_CELLS cells, or one class.  Each S is a
    view of the "spectrum" buffer, valid until the next block.
    """
    rows, d = keys.shape
    span = modulus // step
    bins = keys % span
    first = np.arange(rows)[:, None] * span
    # Multiplicities as exact float64 integers, added in key order as
    # a weighted bincount adds them: a float rfft input skips the cast
    # an int64 one pays.
    counts = buffers.take("counts", (rows * span,), np.float64)
    cells = (first + bins).ravel()
    np.add.at(counts, cells, 1.0)
    half = buffers.take("spectrum", (rows, span // 2 + 1), np.complex128)
    np.fft.rfft(counts.reshape(rows, span), out=half)
    counts[cells] = 0.0
    yield np.zeros(1, dtype=np.int64), 1, half[:, None, 1:]
    per_block = max(1, CLASS_CELLS // (rows * span))
    for low in range(1, step // 2 + 1, per_block):
        classes = np.arange(low, min(low + per_block, step // 2 + 1), dtype=np.int64)
        angles = (-2.0 * np.pi / modulus) * _angle_index(keys[:, None, :], classes[:, None], modulus)
        cells = first[:, :, None] * len(classes) + span * np.arange(len(classes))[:, None] + bins[:, None, :]
        # The phasors' (cos, sin) pairs summed into interleaved floats: complex128 bins.
        slots = (2 * cells[..., None] + [0, 1]).ravel()
        folded = buffers.take("folded", (2 * rows * len(classes) * span,), np.float64)
        np.add.at(folded, slots, np.stack([np.cos(angles), np.sin(angles)], axis=-1).ravel())
        spectrum = buffers.take("spectrum", (rows, len(classes), span), np.complex128)
        np.fft.fft(folded.view(np.complex128).reshape(spectrum.shape), out=spectrum)
        folded[slots] = 0.0
        yield classes, 0, spectrum


def _locate(
    key_rows: np.ndarray, modulus: int, real_only: bool, buffers: _ScanBuffers
) -> tuple[np.ndarray, ...]:
    """(row, shift) pairs near each row's maximum of |Re f|, and of |f| unless real_only.

    The caller gathers each shift l with its mirror N - l, and they tie
    in exact arithmetic, so the classes r = 0 .. P/2 of _class_spectra
    (step P = _class_step(N, d)) cover every shift: class P - r is the
    mirror of class r.  Rows go in blocks of LOCATE_CELLS // N (at least
    one).  A running maximum per row keeps, after the last class, every
    shift within 1e-9 * d of the row's maximum: a band far wider than
    the transforms' rounding error (about d * log2(N) * 2^-52), so it
    holds every shift whose exact value can tie the maximum.  At P = 1
    there is one class, an rfft of the whole row giving shifts 1 .. N/2,
    and the running maximum is the row's own.  |part| and the band mask
    are written into buffers, and a class block with no shift in the
    band adds no pairs.
    """
    rows, d = key_rows.shape
    step = _class_step(modulus, d)
    band = 1e-9 * d
    block = max(1, LOCATE_CELLS // modulus)
    found = []
    for first in range(0, rows, block):
        keys = key_rows[first : first + block]
        # Running maxima of |Re f| and |f|; zip stops at the first if real_only.
        top = np.full((1 if real_only else 2, len(keys)), -np.inf)
        picked = []
        for classes, t0, spectrum in _class_spectra(keys, modulus, step, buffers):
            # One line per row: a class block's spectra side by side.
            width = spectrum.shape[2]
            spectrum = spectrum.reshape(len(keys), -1)
            values = buffers.take("values", spectrum.shape, np.float64)
            near = None
            for part, peak in zip((spectrum.real, spectrum), top):
                np.abs(part, out=values)
                best = values.max(axis=1)
                np.maximum(peak, best, out=peak)
                if (best >= peak - band).any():  # else no shift of the block is near
                    low = (peak - band)[:, None]
                    if near is None:
                        near = np.greater_equal(values, low, out=buffers.take("near", spectrum.shape, bool))
                    else:
                        near |= np.greater_equal(values, low, out=buffers.take("hit", spectrum.shape, bool))
            if near is None:
                continue
            # A 2-D np.nonzero walks a multi-index: on a (1, 2^17) mask it
            # took 40x the time of np.flatnonzero.
            owner, cell = np.divmod(np.flatnonzero(near), near.shape[1])
            c, t = np.divmod(cell, width)
            picked.append((owner, classes[c] + step * (t + t0), spectrum[owner, cell]))
        owner, located, value = (np.concatenate(column) for column in zip(*picked))
        if len(picked) > 1:  # earlier classes met a lower running maximum
            keep = np.abs(value.real) >= top[0][owner] - band
            if not real_only:
                keep |= np.abs(value) >= top[1][owner] - band
            order = np.argsort(owner[keep], kind="stable")
            owner, located = owner[keep][order], located[keep][order]
        found.append((owner + first, located))
    return tuple(np.concatenate(column) for column in zip(*found))


def worst_character_sums(
    key_rows: np.ndarray,
    modulus: int,
    method: str = "fft",
    real_only: bool = False,
    buffers: _ScanBuffers | None = None,
) -> tuple[np.ndarray, ...]:
    """(max |Re f_K(l)|, its shift, max |f_K(l)|, its shift) over l != 0, per key row.

    "direct" gathers every shift of every row; "fft" gathers each row
    only at the shifts that the FFT locate (_locate) puts near the row's
    own maximum, plus their mirrors, with bit-identical results.
    With real_only only the first two come back, with the same bits,
    and the |f| band and reduction are skipped.
    The maxima are the largest gathered values; a shift ties when its
    value lies within 1e-12 * d of its row's maximum, far wider than the
    gather's rounding (about d * 2^-52) and far narrower than any
    genuine gap, and ties resolve to the smallest shift.
    Re f(l) = Re f(N - l) and |f(l)| = |f(N - l)| in exact arithmetic,
    so the shifts reported are at most N/2.  A row's result does not
    depend on the other rows.
    The scan refills buffers, a fresh set unless a caller that scans
    again (a search) passes its own.
    """
    rows, d = key_rows.shape
    _check_cells(rows, modulus)
    if buffers is None:
        buffers = _ScanBuffers()
    if method == "direct":
        shifts = np.arange(1, modulus, dtype=np.int64)
        # Row r's values are line r of f; owner broadcasts its threshold.
        owner = np.arange(rows)[:, None]
        f = np.empty((rows, shifts.size), dtype=np.complex128)
        for row in range(rows):
            f[row] = _gather(key_rows, owner[row], shifts, modulus, buffers)
        starts = np.arange(rows) * shifts.size
    elif method == "fft":
        owner, located = _locate(key_rows, modulus, real_only, buffers)
        # The mirrors N - l tie in exact arithmetic, not always in the last bit.
        owner = np.repeat(owner, 2)
        shifts = np.stack([located, modulus - located], axis=1).ravel()
        f = _gather(key_rows, owner, shifts, modulus, buffers)
        # owner is sorted and names every row, so each row's pairs form one run.
        starts = np.searchsorted(owner, np.arange(rows))
    else:
        raise ValueError(f"unknown method {method!r}")
    out: list[np.ndarray] = []
    for values in (np.abs(f.real),) if real_only else (np.abs(f.real), np.hypot(f.real, f.imag)):
        top = np.maximum.reduceat(values.ravel(), starts)
        tied = values >= (top - TIE_BAND * d)[owner]
        out += [top, np.minimum.reduceat(np.where(tied, shifts, modulus).ravel(), starts)]
    return tuple(out)


def fourier_components(keyset: KeySet, shifts: np.ndarray) -> np.ndarray:
    """f_K(l) at each shift l in [0, N) of shifts, by the exact gather; an entry's bits do not depend on the rest."""
    n = keyset.modulus
    _check_cells(1, n)
    keys = keyset.key_array()[None, :]
    return _gather(keys, np.zeros(1, dtype=np.intp), shifts, n, _ScanBuffers())


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
        raise ValueError(f"d must be >= 1, got {d}")
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
    then one key per line, read through textfile's block columns; a
    refused block re-runs the per-line rules for its first bad line's
    diagnostic.  A d above MAX_SPECTRUM_CELLS, and the first key line
    past d, are refused.
    """
    lines = TextFile(path, KeySetFormatError)
    (n_at, n_text), (d_at, d_text), (eps_at, eps_text) = lines.header("N", "d", "epsilon")
    modulus = lines.number("N", n_text, n_at)
    count = lines.number("d", d_text, d_at)
    if count > MAX_SPECTRUM_CELLS:
        raise lines.fail(f"d = {count} keys exceeds MAX_SPECTRUM_CELLS = {MAX_SPECTRUM_CELLS}", d_at)
    epsilon = None if eps_text == "-" else lines.number("epsilon", eps_text, eps_at, float)

    keys: list[int] = []
    for block in lines.blocks():
        found = block.columns((int,), count - len(keys), modulus)
        if found:
            keys += found[0]
            continue
        for lineno, fields, raw in block.lines():
            if len(keys) >= count:
                raise lines.fail(f"more keys than the header's d={count}", lineno)
            if len(fields) != 1:
                raise lines.fail("expected one key per line", lineno, raw)
            k = lines.number("key", fields[0], lineno)
            if not 0 <= k < modulus:
                raise lines.fail(f"key {k} out of range [0, {modulus - 1}]", lineno)
            keys.append(k)
        raise AssertionError(f"{path}: a block the per-line rules pass failed its batch check")
    if len(keys) != count:
        raise lines.fail(f"header declares d={count} but file lists {len(keys)} keys")
    try:
        keyset = KeySet(modulus=modulus, keys=keys)
    except ValueError as exc:
        raise lines.fail(str(exc)) from None
    return KeySetFile(keyset, epsilon)


def save_keyset(
    keyset: KeySet, path: str | Path, declared_epsilon: float | None = None
) -> None:
    """Write the key-set text format; keys keep their stored order."""
    eps_text = "-" if declared_epsilon is None else repr(float(declared_epsilon))
    lines = [f"N {keyset.modulus}", f"d {keyset.d}", f"epsilon {eps_text}"]
    lines.extend(str(k) for k in keyset.keys)
    Path(path).write_text("\n".join(lines) + "\n")
