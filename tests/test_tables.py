"""Bundled key-set tables: checksums, declared bounds, recomputed statistics.

The fixtures transcribe published search results verbatim, repeats
included.  Each file declares on its epsilon line the padded
squared-overlap statistic; the recomputation must reproduce it to the
4-decimal rounding the files carry.  The unit-normalized delta(K) is a
different (larger) number for these sets and is checked only for its
parity floor.
"""

import hashlib

import pytest

from qhashlab import (
    bias_profile,
    bundled_table_dir,
    padded_delta_squared,
)
from qhashlab.keyset import ROUNDING_TOL, TABLE_BOUND

from conftest import load_table_fixtures


def checksum_lines():
    text = (bundled_table_dir() / "SHA256SUMS").read_text()
    return dict(
        reversed(line.split()) for line in text.splitlines() if line.strip()
    )


class TestFixtureIntegrity:
    def test_checksums_cover_every_fixture(self, table_rows):
        sums = checksum_lines()
        assert sorted(sums) == sorted(path.name for path, _ in table_rows)

    def test_checksums_match(self, table_rows):
        sums = checksum_lines()
        for path, _ in table_rows:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == sums[path.name], f"{path.name} drifted"

    def test_every_row_declares_a_bound(self, table_rows):
        for _, loaded in table_rows:
            assert loaded.declared_epsilon is not None
            assert 0 < loaded.declared_epsilon <= TABLE_BOUND

    def test_repeats_are_preserved(self, table_rows):
        # verbatim transcription: several published rows repeat a key
        with_repeats = [
            path.name
            for path, loaded in table_rows
            if len(set(loaded.keyset.keys)) < loaded.keyset.d
        ]
        assert "n64_d33.txt" in with_repeats

    def test_cardinality_is_odd_everywhere(self, table_rows):
        assert all(loaded.keyset.d % 2 == 1 for _, loaded in table_rows)


def row_params(max_modulus=None, min_modulus=None):
    rows = load_table_fixtures()
    out = []
    for path, loaded in rows:
        n = loaded.keyset.modulus
        if max_modulus is not None and n > max_modulus:
            continue
        if min_modulus is not None and n < min_modulus:
            continue
        out.append(pytest.param(loaded, id=path.stem))
    return out


@pytest.mark.parametrize("loaded", row_params(max_modulus=1 << 14))
def test_declared_statistic_reproduced(loaded):
    recomputed = padded_delta_squared(loaded.keyset)
    assert recomputed <= TABLE_BOUND + 1e-12
    assert abs(recomputed - loaded.declared_epsilon) <= ROUNDING_TOL


@pytest.mark.parametrize("loaded", row_params(max_modulus=1 << 14))
def test_delta_respects_the_parity_floor(loaded):
    profile = bias_profile(loaded.keyset)
    assert profile.delta >= 1.0 / loaded.keyset.d - 1e-12
    # and the declared bound is NOT delta: these sets sit far above it
    assert profile.delta > loaded.declared_epsilon


@pytest.mark.slow
@pytest.mark.parametrize("loaded", row_params(min_modulus=(1 << 14) + 1))
def test_declared_statistic_reproduced_full_range(loaded):
    recomputed = padded_delta_squared(loaded.keyset, method="fft")
    assert recomputed <= TABLE_BOUND + 1e-12
    assert abs(recomputed - loaded.declared_epsilon) <= ROUNDING_TOL


@pytest.mark.slow
@pytest.mark.parametrize("loaded", row_params())
def test_methods_agree_on_full_range(loaded):
    assert bias_profile(loaded.keyset, method="fft") == bias_profile(
        loaded.keyset, method="direct"
    )
