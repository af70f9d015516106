"""Shared fixtures and oracles: bundled table key sets, a tiny worked example,
the trial-by-trial forgery protocol run, the rotation matrix and the gate
formula the kernel replaced."""

import math

import numpy as np
import pytest

from qhashlab import KeySet, bundled_table_dir, keygen, load_keyset, verify


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
