"""Shared fixtures: bundled table key sets and a tiny worked example."""

import numpy as np
import pytest

from qhashlab import KeySet, load_keyset, load_table_fixtures


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
