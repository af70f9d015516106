"""Shared fixtures and oracles: bundled table key sets, a tiny worked example,
the trial-by-trial forgery protocol run, the rotation matrix, the gate
formula the kernel replaced, the per-line state, key-set and code loaders
and line-by-line state dump the block readers replaced, the one-message-at-a-time
circuit check the block simulation replaced, the full codeword table the
weight sweep replaced, and the GA whose breeding built arrays per child."""

import math
from array import array
from pathlib import Path

import numpy as np
import pytest

from qhashlab import CodeFormatError, HashParams, KeySet, KeySetFile, KeySetFormatError, LinearCode, MAX_SPECTRUM_CELLS
from qhashlab import StateVector
from qhashlab import build_hash_circuit, bundled_table_dir, hash_state, keygen, load_keyset, qsim
from qhashlab import bias_profile, simulate_circuit, verify
from qhashlab.bias import worst_character_sums
from qhashlab.fingerprint import _check_size
from qhashlab.qsim import _draw_below
from qhashlab.textfile import TextFile


def load_table_fixtures(max_modulus=None):
    """Bundled table fixtures as (path, KeySetFile), sorted by (N, d); optionally capped."""
    rows = [(path, load_keyset(path)) for path in sorted(bundled_table_dir().glob("*.txt"))]
    rows = [row for row in rows if max_modulus is None or row[1].keyset.modulus <= max_modulus]
    return sorted(rows, key=lambda row: (row[1].keyset.modulus, row[1].keyset.d))


def keygen_verify_records(params, trials, rng):
    """The per-trial protocol run: keygen, a bit, a guess, verify."""
    records = []
    for _ in range(trials):
        keypair = keygen(params, rng)
        b = int(rng.integers(0, 2))
        guess = int(rng.integers(1, params.security_level + 1))
        records.append((b, guess, verify(params, keypair.public[b], b, guess, rng)))
    return tuple(records)


def same_generator_state(a, b):
    """Equal bit_generator.state dicts, numpy arrays compared by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_generator_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def trial_log(records):
    """The log lines of (bit, guess, accepted) records, as the report words them."""
    return [f"trial {i} bit {b} guess {guess} accepted {int(accepted)}"
            for i, (b, guess, accepted) in enumerate(records, start=1)]


@pytest.fixture(scope="session")
def table_rows():
    """All bundled table fixtures as (path, KeySetFile), sorted by (N, d)."""
    return load_table_fixtures()


@pytest.fixture(scope="session")
def n32_keyset(table_rows):
    """The N=32, d=15 table set; the workhorse for exhaustive checks."""
    for path, loaded in table_rows:
        if loaded.keyset.modulus == 32:
            return loaded.keyset
    raise RuntimeError("bundled N=32 table fixture missing")


@pytest.fixture(scope="session")
def n1024_keyset(table_rows):
    for path, loaded in table_rows:
        if loaded.keyset.modulus == 1024:
            return loaded.keyset
    raise RuntimeError("bundled N=1024 table fixture missing")


@pytest.fixture()
def tiny_keyset():
    """N=8, K={1,2}: small enough to check against hand-computed values."""
    return KeySet(modulus=8, keys=(1, 2))


def ry(theta):
    """R(theta) as a complex 2x2 matrix: R(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _fancy_index_gate(amp, qubit, matrix, control_mask=0, control_value=0):
    """The per-gate formula the pair-view kernel replaced.

    Index masks over every basis state pick the pairs, both halves are
    gathered, and M times them is scattered back into a copy.
    """
    idx = np.arange(amp.size, dtype=np.int64)
    i0 = idx[((idx & control_mask) == control_value) & ((idx >> qubit) & 1 == 0)]
    i1 = i0 | (1 << qubit)
    out = amp.copy()
    a0 = amp[i0]
    a1 = amp[i1]
    out[i0] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    out[i1] = matrix[1, 0] * a0 + matrix[1, 1] * a1
    return out


@pytest.fixture(scope="session")
def fancy_index_gate():
    """Oracle for gate application: (amp, qubit, matrix, mask, value) -> new amp."""
    return _fancy_index_gate


def per_line_load_state(path):
    """load_state one line at a time: each line is split, converted and checked on its own."""
    lines = TextFile(path)
    limit = 1 << qsim.MAX_QUBITS
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


def per_line_load_keyset(path):
    """load_keyset one key line at a time.

    Whatever KeySet would refuse is refused first at its header or key
    line.  The KeySet rewrap below, which load_keyset does without, is
    never reached: a refusal that got as far as KeySet there would show
    here as a different error.
    """
    lines = TextFile(path, KeySetFormatError)
    (n_at, n_text), (d_at, d_text), (eps_at, eps_text) = lines.header("N", "d", "epsilon")
    modulus = lines.number("N", n_text, n_at)
    if modulus < 2:
        raise lines.fail(f"modulus must be >= 2, got {modulus}", n_at)
    if modulus >= 1 << 1021:
        raise lines.fail(f"modulus must be below 2^1021, got a {modulus.bit_length()}-bit one", n_at)
    count = lines.number("d", d_text, d_at)
    if count < 1:
        raise lines.fail(f"d must be >= 1, got {count}", d_at)
    if count > MAX_SPECTRUM_CELLS:
        raise lines.fail(f"d = {count} keys exceeds MAX_SPECTRUM_CELLS = {MAX_SPECTRUM_CELLS}", d_at)
    epsilon = None if eps_text == "-" else lines.number("epsilon", eps_text, eps_at, float)
    keys = []
    for lineno, fields, raw in lines:
        if len(keys) >= count:
            raise lines.fail(f"more keys than the header's d={count}", lineno)
        if len(fields) != 1:
            raise lines.fail("expected one key per line", lineno, raw)
        k = lines.number("key", fields[0], lineno)
        if not 0 <= k < modulus:
            raise lines.fail(f"key {k} out of range [0, {modulus - 1}]", lineno)
        keys.append(k)
    if len(keys) != count:
        raise lines.fail(f"header declares d={count} but file lists {len(keys)} keys")
    try:
        keyset = KeySet(modulus=modulus, keys=keys)
    except ValueError as exc:
        raise lines.fail(str(exc)) from None
    return KeySetFile(keyset, epsilon)


def per_line_load_code(path):
    """load_code one row line at a time, each row written into the generator on its own."""
    lines = TextFile(path, CodeFormatError)
    (n_at, n_text), (m_at, m_text) = lines.header("n", "m")
    n = lines.number("n", n_text, n_at)
    m = lines.number("m", m_text, m_at)
    try:
        _check_size(n, m)
    except ValueError as exc:
        raise lines.fail(str(exc), m_at) from None
    generator = np.empty((m, n), dtype=np.uint8)
    row = 0
    for lineno, fields, raw in lines:
        if row == m:
            raise lines.fail(f"more rows than the header's m={m}", lineno)
        if len(fields) != 1 or fields[0].strip("01"):  # a non-bit is left
            raise lines.fail("expected a row of bits", lineno, raw)
        if len(fields[0]) != n:
            raise lines.fail(f"row has {len(fields[0])} bits, header declares n={n}", lineno)
        generator[row] = np.frombuffer(fields[0].encode(), dtype=np.uint8)
        row += 1
    if row != m:
        raise lines.fail(f"header declares m={m} but file lists {row} rows")
    generator -= ord("0")
    return LinearCode(n=n, m=m, generator=generator)


def per_line_dump_text(psi):
    """The state dump as one f-string per line, joined."""
    amp = psi.amplitudes
    lines = [
        f"{i} {real!r} {imag!r}"
        for i, (real, imag) in enumerate(zip(amp.real.tolist(), amp.imag.tolist()))
    ]
    return "\n".join(lines) + "\n"


def per_message_circuit_deviation(rng, count, fixed=None, modulus=None, d=None):
    """circuit-check's max_deviation, one message (and, with no fixed set, one drawn set) at a time."""
    worst = 0.0
    for _ in range(count):
        params = fixed or HashParams(KeySet(modulus, _draw_below(rng, modulus, d)))
        m = int(_draw_below(rng, params.keyset.modulus))
        analytic = hash_state(params, m)
        simulated = simulate_circuit(build_hash_circuit(params, m))
        worst = max(worst, float(np.max(np.abs(simulated.amplitudes - analytic.amplitudes))))
    return worst


def full_table_weights(code, piece_rows=4096):
    """Weights of the codewords of messages 1 .. 2^n - 1, from the table of all 2^n codewords.

    The table is built by XOR doubling over bit-packed generator columns,
    for piece_rows codeword bits at a time; weights add over the pieces.
    """
    weights = np.zeros((1 << code.n) - 1, dtype=np.uint64)
    byte_weights = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
    for start in range(0, code.m, piece_rows):
        columns = np.packbits(code.generator[start : start + piece_rows].T, axis=1)
        words = np.zeros((1 << code.n, columns.shape[1]), dtype=np.uint8)
        for j in range(code.n):
            np.bitwise_xor(words[: 1 << j], columns[j], out=words[1 << j : 2 << j])
        weights += byte_weights[words[1:]].sum(axis=1, dtype=np.uint64)
    return weights


def scan_maxima(population, modulus):
    """What the GA ranks the rows of a (rows, d) key array by: their max |Re f| over l != 0, from one real-only scan."""
    return worst_character_sums(population, modulus, real_only=True)[0]


def per_child_ga_search(modulus, d, target_epsilon, config, rng, objective="padded_sq", progress=None):
    """ga_search with the breeding loop it replaced: per pair of children, argmin
    tournaments, two np.sorts and two np.concatenates, stacked at the end.
    Rows rank by their max |Re f| whatever the objective; it stops on, and
    prints on each progress line, its bias_profile report of the best row.

    Returns (keys, achieved_delta, achieved_objective, generations_used, target_met).
    """
    pop_size = config.population_size
    population = rng.integers(0, modulus, size=(pop_size, d), dtype=np.int64)
    maxima = scan_maxima(population, modulus)
    for generation in range(config.generations + 1):
        order = np.argsort(maxima, kind="stable")
        population = population[order]
        maxima = maxima[order]
        profile = bias_profile(KeySet(modulus, population[0]))
        achieved = profile.delta if objective == "delta" else profile.padded_delta_squared
        if progress is not None:
            progress(f"gen {generation} best_delta {achieved!r}")
        if achieved < target_epsilon or generation == config.generations:
            break
        elite = population[: config.elitism_count]
        children = []
        needed = pop_size - config.elitism_count
        while len(children) < needed:
            contenders = rng.integers(0, pop_size, size=(2, 3))
            pa = population[contenders[0][np.argmin(maxima[contenders[0]])]]
            pb = population[contenders[1][np.argmin(maxima[contenders[1]])]]
            if d > 1 and rng.random() < config.crossover_rate:
                point = int(rng.integers(1, d))
                a_sorted = np.sort(pa)
                b_sorted = np.sort(pb)
                first = np.concatenate([a_sorted[:point], b_sorted[point:]])
                second = np.concatenate([b_sorted[:point], a_sorted[point:]])
            else:
                first, second = pa.copy(), pb.copy()
            children.append(first)
            if len(children) < needed:
                children.append(second)
        offspring = np.stack(children)
        mutate = rng.random(offspring.shape) < config.mutation_rate
        fresh = rng.integers(0, modulus, size=offspring.shape, dtype=np.int64)
        offspring[mutate] = fresh[mutate]
        population = np.concatenate([elite, offspring])
        maxima = np.concatenate([maxima[: config.elitism_count], scan_maxima(offspring, modulus)])
    return tuple(population[0].tolist()), profile.delta, achieved, generation, achieved < target_epsilon
