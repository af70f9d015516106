"""Key-set search: lemma-size sampling, the GA, bundled fixtures."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qhashlab import (
    OBJECTIVES,
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
from qhashlab import keyset as keyset_mod
from qhashlab.keyset import (
    ROUNDING_TOL,
    TABLE_BOUND,
    check_table_rows,
    table_row_passes,
)

from conftest import load_table_fixtures, per_child_ga_search, same_generator_state, scan_maxima


class TestLemmaSize:
    def test_reference_points(self):
        assert lemma_size(1024, 0.5) == 61
        assert lemma_size(4, 0.9) == math.ceil((2 / 0.81) * math.log(8))
        # a finite size keeps its expression, to the float64 range
        assert lemma_size(8, 1e-150) == math.ceil((2.0 / (1e-150 * 1e-150)) * math.log(16))

    def test_grows_with_shrinking_epsilon(self):
        assert lemma_size(1024, 0.1) > lemma_size(1024, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            lemma_size(1024, 0.0)
        with pytest.raises(ValueError, match="modulus"):
            lemma_size(0, 0.5)

    @pytest.mark.parametrize("epsilon", [1e-160, 1e-170, 5e-324])
    def test_refuses_a_size_that_is_not_a_finite_float(self, epsilon):
        # 2/eps^2 overflows at 1e-160; eps^2 rounds to 0 at 1e-170 and 5e-324
        with pytest.raises(ValueError, match="^" + re.escape(
            f"lemma size for epsilon {epsilon!r} is too large: (2/eps^2) ln(2N) is not a finite float"
        ) + "$"):
            lemma_size(8, epsilon)


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


class TestModulusUpperBound:
    @pytest.mark.parametrize("search", [
        lambda rng: ga_search(1 << 1021, 3, 0.5, rng=rng),
        lambda rng: sample_random_keyset(1 << 1021, 0.5, rng=rng),
    ], ids=["ga", "random"])
    def test_refused_before_drawing(self, search):
        rng = make_rng(4)
        with pytest.raises(ValueError, match=r"^modulus must be below 2\^1021, got a 1022-bit one$"):
            search(rng)
        assert same_generator_state(rng.bit_generator.state, make_rng(4).bit_generator.state)


class TestSpectrumAdmission:
    """A search refuses an N it cannot scan, 2^26 < rows * N, before its first draw."""

    @pytest.mark.parametrize("modulus", [2**27, 2**70], ids=["2^27", "2^70"])
    @pytest.mark.parametrize("search,rows", [
        (lambda modulus, rng: ga_search(modulus, 3, 0.5, rng=rng), 64),
        (lambda modulus, rng: sample_random_keyset(modulus, 0.5, rng=rng), 1),
    ], ids=["ga", "random"])
    def test_refused_before_drawing(self, search, rows, modulus):
        cells = rows * modulus
        rng = make_rng(4)
        with pytest.raises(ValueError, match="^" + re.escape(
            f"spectrum of {rows} x {modulus} = {cells} cells (about {cells * 16 / 2**30:.1f} GiB "
            "as complex128) exceeds MAX_SPECTRUM_CELLS = 67108864"
        ) + "$"):
            search(modulus, rng)
        assert same_generator_state(rng.bit_generator.state, make_rng(4).bit_generator.state)


class TestObjectiveValues:
    def test_matches_per_row_profiles(self):
        rng = make_rng(3)
        population = rng.integers(0, 32, size=(8, 15), dtype=np.int64)
        from qhashlab import KeySet

        for row, worst in zip(population, scan_maxima(population, 32)):
            ks = KeySet(modulus=32, keys=tuple(int(k) for k in row))
            profile = bias_profile(ks, method="direct")
            re_abs = np.abs(fourier_components(ks, np.arange(32)).real)
            assert worst == re_abs[1:].max()
            assert worst / 15 == profile.delta
            # the report computes ((max/d) d/D)^2, which may differ from (max/D)^2 in the last bit
            assert (worst / padded_branch_count(15)) ** 2 == pytest.approx(profile.padded_delta_squared, rel=1e-15)
            # the reported shift ties the maximum within the band
            assert re_abs[profile.worst_shift_delta] >= worst - 1e-12 * 15

    def test_unknown_objective(self):
        # refused by ga_search before its first draw, so the kernel need not check
        rng = make_rng(5)
        with pytest.raises(ValueError, match="objective"):
            ga_search(8, 2, 0.5, rng=rng, objective="mean")
        assert rng.random() == make_rng(5).random()


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

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("path, modulus, d, population", [
        ("row", 32, 15, 64), ("row", 1000, 33, 64), ("row", 1024, 65, 64),
        ("cosine", 4096, 65, 64), ("cosine", 12288, 17, 64), ("cosine", 16384, 129, 64),
        ("classes", 1 << 16, 257, 16), ("classes", 1 << 17, 257, 16),
    ])
    def test_report_matches_bias_profile_on_every_locate_path(self, path, modulus, d, population, seed, objective):
        # The best row's real-only scan through the search's buffers
        # gives bias_profile's bits on each locate of its row.
        step = bias_mod._class_step(modulus, d)
        assert path == ("classes" if step > 1 else "cosine" if bias_mod._takes_cosine(modulus) else "row")
        config = SearchConfig(population_size=population, generations=3)
        out = ga_search(modulus, d, 1e-9, config, rng=make_rng(seed), objective=objective)
        assert out.achieved_delta == bias_profile(out.keyset).delta
        want = out.achieved_delta if objective == "delta" else padded_delta_squared(out.keyset)
        assert out.achieved_objective == want

    @pytest.mark.parametrize("seed", range(10))
    def test_stops_only_on_the_number_it_reports(self, seed):
        # Targets at a full run's own achieved_objective and one ulp to
        # either side: a run that stops early has met its target.
        config = SearchConfig(generations=30)
        own = ga_search(32, 15, 1e-12, config, make_rng(seed)).achieved_objective
        for target in (np.nextafter(own, 0.0), own, np.nextafter(own, 1.0)):
            out = ga_search(32, 15, float(target), config, make_rng(seed))
            assert out.target_met or out.generations_used == config.generations, (target, out)

    @pytest.mark.parametrize("seed", range(10))
    def test_progress_prints_the_number_it_reports(self, seed):
        # The last line prints the report, ((max/d) d/D)^2, not the
        # ranking key (max/D)^2, whose last digit differs at seed 1.
        lines = []
        out = ga_search(32, 15, 1e-12, SearchConfig(generations=30), make_rng(seed), progress=lines.append)
        assert lines[-1] == f"gen {out.generations_used} best_delta {out.achieved_objective!r}"

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
        with pytest.raises(ValueError, match="^" + re.escape(
            "64 x 16 = 1024 keys (about 0.0 GiB as int64) exceeds MAX_SPECTRUM_CELLS = 1000"
        ) + "$"):
            ga_search(32, 16, 0.01, rng=rng)
        # nothing was drawn, so nothing was allocated for the population
        assert rng.random() == make_rng(4).random()
        # exactly at the limit (125 x 8 keys, 125 x 8 spectrum cells) it runs
        ga_search(8, 8, 0.9, SearchConfig(population_size=125), make_rng(4))

    def test_generations_do_not_page_their_spectra_in_again(self):
        # Minor page faults of one 100-generation search in a fresh
        # interpreter, counted after the imports.  With arrays allocated
        # per fitness call it took about 33,500; refilling one set of
        # buffers, about 1,100.
        code = (
            "import resource\n"
            "from qhashlab import SearchConfig, ga_search, make_rng\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "ga_search(1024, 65, 1e-12, SearchConfig(generations=100), make_rng(1))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 8000


# (N, d, config): an odd number of children (7 - 2), no and certain
# crossover, d = 1 (nothing to cut) and d = 2, and N = 1000, not a power of two.
BREEDING_CASES = [
    (32, 15, SearchConfig(population_size=7, elitism_count=2, generations=25)),
    (64, 9, SearchConfig(crossover_rate=0.0, generations=12)),
    (64, 9, SearchConfig(crossover_rate=1.0, generations=12)),
    (1000, 1, SearchConfig(population_size=9, elitism_count=0, generations=12)),
    (1000, 2, SearchConfig(population_size=10, elitism_count=1, generations=12)),
    (1000, 33, SearchConfig(generations=10)),
    (1024, 65, SearchConfig(population_size=15, elitism_count=4, crossover_rate=1.0, generations=8)),
]


def assert_matches_the_per_child_loop(modulus, d, target, config, seed, objective="padded_sq", generator=make_rng):
    lines, reference_lines = [], []
    rng, reference_rng = generator(seed), generator(seed)
    out = ga_search(modulus, d, target, config, rng, objective=objective, progress=lines.append)
    reference = per_child_ga_search(modulus, d, target, config, reference_rng, objective,
                                    progress=reference_lines.append)
    assert (out.keyset.keys, out.achieved_delta, out.achieved_objective,
            out.generations_used, out.target_met) == reference
    assert lines == reference_lines
    assert same_generator_state(rng.bit_generator.state, reference_rng.bit_generator.state)
    return out


class TestBreedingOracle:
    """ga_search against the per-child breeding loop it replaced: every
    reported value, every progress line and the generator's end state."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("modulus, d, config", BREEDING_CASES)
    def test_matches_the_per_child_loop(self, modulus, d, config, seed, objective):
        assert_matches_the_per_child_loop(modulus, d, 1e-12, config, seed, objective)

    def test_early_stop_matches(self):
        out = assert_matches_the_per_child_loop(32, 15, 0.02, SearchConfig(), 3)
        assert 0 < out.generations_used < 500 and out.target_met


@pytest.mark.parametrize("population", [64, 37])
@pytest.mark.parametrize("modulus, d, generations", [
    (32, 15, 30), (64, 9, 30), (64, 33, 40), (32, 3, 40), (1024, 65, 20), (128, 33, 30),
])
def test_the_objective_only_stops_and_reports(modulus, d, generations, population):
    # With a target no run meets, both objectives rank by the same max
    # |Re f|, so they breed the same rows from the same draws.
    config = SearchConfig(population_size=population, generations=generations)
    for seed in range(10):
        runs = []
        for objective in OBJECTIVES:
            rng = make_rng(seed)
            out = ga_search(modulus, d, 1e-12, config, rng, objective=objective)
            runs.append((out.keyset, out.achieved_delta, out.generations_used, rng.bit_generator.state))
        (keys, delta, used, state), (other_keys, other_delta, other_used, other_state) = runs
        assert (keys, delta, used) == (other_keys, other_delta, other_used), seed
        assert same_generator_state(state, other_state), seed


def buffered_philox(seed):
    """make_rng(seed) after one 32-bit draw, so it holds a buffered half."""
    rng = make_rng(seed)
    rng.integers(0, 7)
    return rng


# Generators: Philox behind a buffered 32-bit half, PCG64 (its own
# buffered half) and MT19937, whose state has none, so it takes the
# scalar calls.
GENERATORS = {
    "buffered-philox": buffered_philox,
    "pcg64": lambda seed: np.random.Generator(np.random.PCG64(seed)),
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
}

# Populations of 5, 37 (whose draws can reject) and 100 beside BREEDING_CASES.
BULK_CASES = BREEDING_CASES + [
    (1000, 33, SearchConfig(population_size=5, elitism_count=0, generations=20)),
    (4096, 17, SearchConfig(population_size=37, elitism_count=3, generations=8)),
    (1024, 65, SearchConfig(population_size=100, elitism_count=3, generations=5)),
]


def scalar_philox(seed, buffered=None):
    """A Philox generator and its first 5 * 31 raw words, optionally behind a buffered half."""
    rng = make_rng(seed)
    if buffered is not None:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, buffered
        rng.bit_generator.state = state
    return rng, make_rng(seed).bit_generator.random_raw(keyset_mod.PAIR_WORDS * 31).tolist()


class TestBulkTournaments:
    """Each generation's tournament and crossover draws decoded from raw words:
    the same children, progress lines and generator state as the scalar calls."""

    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("modulus, d, config", BULK_CASES)
    def test_matches_the_per_child_loop(self, modulus, d, config, generator):
        assert_matches_the_per_child_loop(modulus, d, 1e-12, config, 5, generator=GENERATORS[generator])

    def test_the_bulk_path_runs(self, monkeypatch):
        assert keyset_mod._bulk_breeding_matches(np.random.Philox)  # checked before the patch
        calls = []
        monkeypatch.setattr(keyset_mod, "_scalar_tournaments", lambda *args: calls.append(args))
        ga_search(1024, 65, 1e-12, SearchConfig(generations=3), make_rng(1))
        assert calls == []

    @pytest.mark.parametrize("pop_size, d, rate", [(64, 65, 0.7), (37, 3, 0.5), (5, 2, 1.0), (9, 1, 0.7), (100, 9, 0.0)])
    @pytest.mark.parametrize("buffered", [None, 123456789])
    def test_decode_is_the_scalar_calls(self, pop_size, d, rate, buffered):
        rng, words = scalar_philox(11, buffered)
        want = keyset_mod._scalar_tournaments(rng, pop_size, d, rate, 31)
        trios, points, read, half, uinteger = keyset_mod._decode_tournaments(
            words, buffered is not None, 0 if buffered is None else buffered, pop_size, d, rate)
        assert (trios, points) == want
        state = rng.bit_generator.state
        assert (half, uinteger) == (bool(state["has_uint32"]), state["uinteger"])
        advanced = make_rng(11).bit_generator
        advanced.random_raw(read)
        assert np.array_equal(advanced.state["state"]["counter"], state["state"]["counter"])
        assert advanced.state["buffer_pos"] == state["buffer_pos"]

    def test_a_rejected_draw_asks_for_the_fallback(self):
        # 2^32 mod 37 = 7: a low half of 0 scales to 0 and is redrawn
        words = [0, 2**63 + 5, 3, 4, 5]
        assert keyset_mod._decode_tournaments(words, False, 0, 37, 65, 0.7) is None
        # 2^32 mod 64 = 0: a power-of-two population never rejects
        assert keyset_mod._decode_tournaments(words, False, 0, 64, 65, 0.7) is not None

    def test_a_rejected_generation_takes_the_scalar_calls(self, monkeypatch):
        decode, refused = keyset_mod._decode_tournaments, []

        def refuse_every_other(*args):
            refused.append(len(refused) % 2 == 0)
            return None if refused[-1] else decode(*args)

        monkeypatch.setattr(keyset_mod, "_decode_tournaments", refuse_every_other)
        assert_matches_the_per_child_loop(1000, 33, 1e-12, SearchConfig(generations=6), 3)
        assert refused.count(True) == 3

    def test_self_check(self, monkeypatch):
        for kind in (np.random.Philox, np.random.PCG64, np.random.SFC64):
            keyset_mod._bulk_breeding_matches.cache_clear()
            assert keyset_mod._bulk_breeding_matches(kind)
        monkeypatch.setattr(keyset_mod, "_bulk_breeding_matches", lambda kind: False)
        assert_matches_the_per_child_loop(64, 9, 1e-12, SearchConfig(generations=5), 2)

    @pytest.mark.parametrize("generator, seed, config, pinned", [
        (make_rng, 1, SearchConfig(generations=5), ([8245, 0, 0, 0], 1, 1, 3042414270, 34225)),
        (buffered_philox, 2, SearchConfig(population_size=37, elitism_count=3, generations=4),
         ([3690, 0, 0, 0], 4, 0, 4051671982, 34630)),
    ])
    def test_generator_state_after_a_search_is_pinned(self, generator, seed, config, pinned):
        # Recorded from the per-pair scalar loop.
        rng = generator(seed)
        out = ga_search(1024, 65, 1e-12, config, rng)
        state = rng.bit_generator.state
        assert (state["state"]["counter"].tolist(), state["buffer_pos"], state["has_uint32"],
                state["uinteger"], sum(out.keyset.keys)) == pinned


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
