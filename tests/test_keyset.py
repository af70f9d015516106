"""Key-set search: lemma-size sampling, the GA, bundled fixtures."""

import math
import re

import numpy as np
import pytest

from qhashlab import (
    SearchConfig,
    bias_profile,
    bundled_table_dir,
    fourier_components,
    ga_search,
    lemma_size,
    make_rng,
    padded_branch_count,
    padded_delta_squared,
    sample_random_keyset,
)
from qhashlab import bias as bias_mod
from qhashlab.keyset import (
    ROUNDING_TOL,
    TABLE_BOUND,
    _objective_values,
    check_table_rows,
    table_row_passes,
)

from conftest import load_table_fixtures


class TestLemmaSize:
    def test_reference_points(self):
        assert lemma_size(1024, 0.5) == 61
        assert lemma_size(4, 0.9) == math.ceil((2 / 0.81) * math.log(8))

    def test_grows_with_shrinking_epsilon(self):
        assert lemma_size(1024, 0.1) > lemma_size(1024, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            lemma_size(1024, 0.0)
        with pytest.raises(ValueError, match="modulus"):
            lemma_size(0, 0.5)


class TestRandomSampling:
    def test_draws_the_lemma_size(self):
        out = sample_random_keyset(1024, 0.5, max_attempts=1, rng=make_rng(0))
        assert out.keyset.d == 61
        assert out.objective == "delta"

    def test_achieved_delta_is_recomputed(self):
        out = sample_random_keyset(256, 0.5, max_attempts=3, rng=make_rng(1))
        assert out.achieved_delta == bias_profile(out.keyset).delta

    def test_deterministic_under_seed(self):
        a = sample_random_keyset(256, 0.5, max_attempts=2, rng=make_rng(9))
        b = sample_random_keyset(256, 0.5, max_attempts=2, rng=make_rng(9))
        assert a.keyset == b.keyset

    def test_missed_target_reports_best_effort(self):
        # N=2 draws 12 keys from {0,1} and needs |#0 - #1| < 6; seed 1
        # lands exactly on the boundary and misses
        out = sample_random_keyset(2, 0.5, max_attempts=1, rng=make_rng(1))
        assert not out.target_met
        assert out.generations_used == 1
        assert out.achieved_delta >= 0.5
        assert out.achieved_delta == bias_profile(out.keyset).delta

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            sample_random_keyset(64, 0.5, max_attempts=0)


class TestObjectiveValues:
    def test_matches_per_row_profiles(self):
        rng = make_rng(3)
        population = rng.integers(0, 32, size=(8, 15), dtype=np.int64)
        deltas = _objective_values(population, 32, "delta")
        padded = _objective_values(population, 32, "padded_sq")
        from qhashlab import KeySet

        for row, delta, pad in zip(population, deltas, padded):
            ks = KeySet(modulus=32, keys=tuple(int(k) for k in row))
            profile = bias_profile(ks, method="direct")
            re_abs = np.abs(fourier_components(ks).real)
            worst_re = re_abs[1:].max()
            assert delta == profile.delta
            assert pad == (worst_re / padded_branch_count(15)) ** 2
            # the reported shift ties the maximum within the band
            assert re_abs[profile.worst_shift_delta] >= worst_re - 1e-12 * 15

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            _objective_values(np.zeros((1, 2), dtype=np.int64), 8, "mean")


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.population_size == 64
        assert config.generations == 500
        assert config.mutation_rate == 0.1
        assert config.crossover_rate == 0.7
        assert config.elitism_count == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"generations": 0},
            {"mutation_rate": -0.1},
            {"crossover_rate": 1.5},
            {"elitism_count": 64},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestGaSearch:
    def test_reaches_the_table_bound(self):
        out = ga_search(32, 15, 0.01, rng=make_rng(0))
        assert out.target_met
        assert out.objective == "padded_sq"
        assert out.achieved_objective < 0.01
        assert out.keyset.d == 15

    def test_achieved_delta_is_recomputed_exactly(self):
        out = ga_search(32, 15, 0.01, rng=make_rng(5))
        assert out.achieved_delta == bias_profile(out.keyset).delta
        assert out.achieved_objective == padded_delta_squared(out.keyset)

    def test_deterministic_under_seed(self):
        config = SearchConfig(generations=30)
        assert ga_search(32, 15, 0.01, config, rng=make_rng(12)).keyset == ga_search(
            32, 15, 0.01, config, rng=make_rng(12)
        ).keyset

    def test_default_stream_is_make_rng_zero(self):
        config = SearchConfig(generations=30)
        explicit = ga_search(32, 15, 0.01, config, rng=make_rng(0))
        assert ga_search(32, 15, 0.01, config).keyset == explicit.keyset

    def test_progress_is_monotone(self):
        lines = []
        config = SearchConfig(generations=40)
        ga_search(32, 15, 1e-9, config, rng=make_rng(1), progress=lines.append)
        values = [float(line.split()[3]) for line in lines]
        assert len(lines) == 41  # exhausted budget: initial + 40 generations
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(re.fullmatch(r"gen \d+ best_delta \S+", s) for s in lines)

    def test_early_stop_counts_generations(self):
        lines = []
        out = ga_search(32, 15, 0.9, rng=make_rng(2), progress=lines.append)
        # a 0.9 target is met by the initial population
        assert out.generations_used == 0
        assert len(lines) == 1

    def test_delta_objective(self):
        out = ga_search(32, 4, 0.3, rng=make_rng(3), objective="delta")
        assert out.objective == "delta"
        assert out.achieved_objective == out.achieved_delta

    def test_single_key_population(self):
        # d=1 leaves crossover nothing to cut; must still run
        out = ga_search(16, 1, 0.999, SearchConfig(generations=2), make_rng(0))
        assert out.keyset.d == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="objective"):
            ga_search(32, 15, 0.01, objective="mean")
        with pytest.raises(ValueError, match="d must"):
            ga_search(32, 0, 0.01)
        with pytest.raises(ValueError, match="target_epsilon"):
            ga_search(32, 15, 0.0)

    def test_population_size_checked_before_drawing(self, monkeypatch):
        monkeypatch.setattr(bias_mod, "MAX_SPECTRUM_CELLS", 1000)
        rng = make_rng(4)
        with pytest.raises(ValueError, match=re.escape(
            "GA population of 64 x 16 = 1024 keys (about 0.0 GiB as int64) "
            "exceeds MAX_SPECTRUM_CELLS = 1000"
        )):
            ga_search(32, 16, 0.01, rng=rng)
        # nothing was drawn, so nothing was allocated for the population
        assert rng.random() == make_rng(4).random()
        # exactly at the limit (125 x 8 keys, 125 x 8 spectrum cells) it runs
        ga_search(8, 8, 0.9, SearchConfig(population_size=125), make_rng(4))


class TestBundledTables:
    def test_sixteen_rows(self, table_rows):
        assert len(table_rows) == 16
        moduli = [loaded.keyset.modulus for _, loaded in table_rows]
        assert moduli == sorted(moduli)
        assert moduli[0] == 32 and moduli[-1] == 1 << 20

    def test_max_modulus_cap(self):
        rows, _ = check_table_rows(max_modulus=1 << 14)
        assert len(rows) == 10
        assert all(row.loaded.keyset.modulus <= 1 << 14 for row in rows)

    def test_filenames_match_headers(self, table_rows):
        for path, loaded in table_rows:
            assert path.name == f"n{loaded.keyset.modulus}_d{loaded.keyset.d}.txt"

    def test_bundled_dir_exists(self):
        assert bundled_table_dir().is_dir()


class TestTablePassRule:
    def test_value_at_the_bound_passes(self):
        assert table_row_passes(TABLE_BOUND, TABLE_BOUND)

    def test_value_above_the_bound_fails(self):
        above = TABLE_BOUND + 1e-9
        assert not table_row_passes(above, above)

    def test_undeclared_row_fails(self):
        # a file whose header reads 'epsilon -'
        assert not table_row_passes(0.0039, None)

    def test_rounding_tolerance(self):
        assert table_row_passes(0.0039 + 0.9 * ROUNDING_TOL, 0.0039)
        assert not table_row_passes(0.0039 + 1.1 * ROUNDING_TOL, 0.0039)
        assert not table_row_passes(0.0039, 0.0039 + 1.1 * ROUNDING_TOL)

    def test_every_bundled_row_passes(self, table_rows):
        for path, loaded in table_rows:
            recomputed = padded_delta_squared(loaded.keyset, method="fft")
            assert table_row_passes(recomputed, loaded.declared_epsilon), path.name

    def test_check_table_rows_default_range(self):
        rows, skipped = check_table_rows(max_modulus=1 << 14)
        assert skipped == []
        assert [row.path for row in rows] == [
            path for path, _ in load_table_fixtures(max_modulus=1 << 14)
        ]
        assert all(row.passed for row in rows)
        for row in rows:
            assert row.profile == bias_profile(row.loaded.keyset)

    def test_check_table_rows_skips_what_the_loader_rejects(self, tmp_path):
        (tmp_path / "junk.txt").write_text("not a keyset\n")
        keys = "\n".join(str(k) for k in range(1, 16))
        (tmp_path / "dash.txt").write_text(f"N 32\nd 15\nepsilon -\n{keys}\n")
        rows, skipped = check_table_rows(tmp_path)
        assert [path.name for path, _ in skipped] == ["junk.txt"]
        assert [(row.path.name, row.passed) for row in rows] == [("dash.txt", False)]
        assert "junk.txt" in str(skipped[0][1])

    def test_check_table_rows_refuses_a_missing_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError, match="no-such-dir: not a directory$"):
            check_table_rows(tmp_path / "no-such-dir")
