"""Key-set construction: random sampling at the existence-bound size, and a GA.

Two ways to obtain a key set with small bias:

* ``sample_random_keyset`` draws multisets of the size for which a
  random draw provably succeeds with positive probability,
  ceil((2/eps^2) ln(2N)), and keeps the first whose delta(K) beats the
  requested bound.  This drives the true unit-normalized bias delta(K).

* ``ga_search`` runs a small generational GA for a *fixed* cardinality
  d, which is how the bundled tables were produced.  Its default
  objective is ``padded_delta_squared``: for odd d the statistic
  delta(K) is floored at 1/d (the character at shift N/2 is a sum of d
  values +-1, hence a nonzero integer), so sub-1/d targets are only
  meaningful for the padded statistic, and that is the bound the table
  files declare.  Pass objective="delta" to drive the unit-normalized
  bias instead.

Both return a SearchOutcome whose achieved_delta is the true delta(K)
of the returned set; SearchOutcome says how each obtains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bias as bias_mod
from .bias import (
    BiasProfile,
    KeySet,
    KeySetFile,
    KeySetFormatError,
    bias_profile,
    load_keyset,
    padded_branch_count,
    worst_character_sums,
)
from .qsim import check_count, make_rng

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "OBJECTIVES",
    "lemma_size",
    "sample_random_keyset",
    "ga_search",
    "bundled_table_dir",
    "TABLE_BOUND",
    "ROUNDING_TOL",
    "TableRow",
    "table_row_passes",
    "check_table_rows",
]

OBJECTIVES = ("padded_sq", "delta")

# The tables' pass rule: the padded statistic stays within TABLE_BOUND
# and matches the declared value to the files' 4-decimal rounding.
TABLE_BOUND = 0.01
ROUNDING_TOL = 5e-4


@dataclass(frozen=True)
class SearchConfig:
    """GA knobs; defaults are the ones every budget in this package assumes.

    The random stream is not among them: ga_search takes it as rng.
    """

    population_size: int = 64
    generations: int = 500
    mutation_rate: float = 0.1
    crossover_rate: float = 0.7
    elitism_count: int = 2

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if self.generations < 1:
            raise ValueError("generations must be positive")
        check_count("generations", self.generations)
        for name in ("mutation_rate", "crossover_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must be in [0, population_size)")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a key-set search.

    achieved_delta is the true bias delta(K) of the returned set: a GA
    recomputes it via bias_profile, and a random draw returns its
    real-only fitness value, bit for bit bias_profile(...).delta.
    achieved_objective is the value of the statistic the search drove
    (equal to achieved_delta when objective="delta");  target_met
    compares it against the requested bound.  generations_used counts
    GA generations, or draw attempts for random sampling.
    """

    keyset: KeySet
    achieved_delta: float
    generations_used: int
    target_met: bool
    objective: str
    achieved_objective: float


def lemma_size(modulus: int, epsilon: float) -> int:
    """ceil((2/eps^2) ln(2N)): the set size at which random draws succeed."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    return math.ceil((2.0 / (epsilon * epsilon)) * math.log(2 * modulus))


def _check_modulus(modulus: int) -> None:
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")


def sample_random_keyset(
    modulus: int,
    epsilon: float,
    max_attempts: int = 100,
    rng: np.random.Generator | None = None,
) -> SearchOutcome:
    """Draw lemma_size(N, eps) keys uniformly until delta(K) < eps.

    Returns the first qualifying draw, or the best of max_attempts with
    target_met=False.  Draws are with replacement: repeats are legal
    keys.
    """
    _check_modulus(modulus)
    check_count("max_attempts", max_attempts)
    size = lemma_size(modulus, epsilon)
    if size > bias_mod.MAX_SPECTRUM_CELLS:
        raise ValueError(
            f"lemma size {size} keys (about {size * 8 / 2**30:.1f} GiB per draw) "
            f"exceeds MAX_SPECTRUM_CELLS = {bias_mod.MAX_SPECTRUM_CELLS}"
        )
    if rng is None:
        rng = make_rng(0)
    best, best_delta = None, math.inf
    buffers = bias_mod._ScanBuffers()
    for attempt in range(1, max_attempts + 1):
        candidate = rng.integers(0, modulus, size=size, dtype=np.int64)
        delta = float(_objective_values(candidate[None, :], modulus, "delta", buffers)[0])
        if delta < best_delta:
            best, best_delta = candidate, delta
        if delta < epsilon:
            break
    return SearchOutcome(keyset=KeySet(modulus, best), achieved_delta=best_delta, generations_used=attempt,
                         target_met=best_delta < epsilon, objective="delta", achieved_objective=best_delta)


def _objective_values(
    population: np.ndarray, modulus: int, objective: str, buffers: bias_mod._ScanBuffers | None = None
) -> np.ndarray:
    """Objective values for a (pop, d) array of key rows in one kernel call; ga_search checks the objective.

    A search passes the same buffers to every call, so its scans refill
    one set of arrays.
    """
    d = population.shape[1]
    worst_re = worst_character_sums(population, modulus, real_only=True, buffers=buffers)[0]
    if objective == "delta":
        return worst_re / d
    return (worst_re / padded_branch_count(d)) ** 2


def ga_search(
    modulus: int,
    d: int,
    target_epsilon: float,
    config: SearchConfig | None = None,
    rng: np.random.Generator | None = None,
    objective: str = "padded_sq",
    progress: Callable[[str], None] | None = None,
) -> SearchOutcome:
    """Generational GA over multisets of d residues mod N.

    Tournament selection of size 3, one-point crossover on sort-aligned
    key lists, per-key uniform resampling mutation, elitism, early stop
    as soon as the best objective value drops below target_epsilon.
    With rng omitted, the stream is make_rng(0), as in
    sample_random_keyset.  Each generation can report a line
    ``gen <g> best_delta <value>`` through the progress callback.
    """
    _check_modulus(modulus)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 0.0 < target_epsilon < 1.0:
        raise ValueError(f"target_epsilon must be in (0, 1), got {target_epsilon!r}")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if config is None:
        config = SearchConfig()
    if rng is None:
        rng = make_rng(0)

    pop_size = config.population_size
    cells = pop_size * d
    if cells > bias_mod.MAX_SPECTRUM_CELLS:
        raise ValueError(
            f"GA population of {pop_size} x {d} = {cells} keys (about "
            f"{cells * 8 / 2**30:.1f} GiB as int64) exceeds "
            f"MAX_SPECTRUM_CELLS = {bias_mod.MAX_SPECTRUM_CELLS}"
        )
    population = rng.integers(0, modulus, size=(pop_size, d), dtype=np.int64)
    buffers = bias_mod._ScanBuffers()
    values = _objective_values(population, modulus, objective, buffers)

    for generation in range(config.generations + 1):
        # generation 0 is the initial population.
        order = np.argsort(values, kind="stable")
        population = population[order]
        values = values[order]
        if progress is not None:
            progress(f"gen {generation} best_delta {float(values[0])!r}")
        if values[0] < target_epsilon or generation == config.generations:
            break

        elite = population[: config.elitism_count]
        needed = pop_size - config.elitism_count
        offspring = np.empty((needed + 1, d), dtype=np.int64)  # a spare row for an odd needed
        aligned = np.sort(population, axis=1)
        scores = values.tolist()
        for child in range(0, needed, 2):
            # min keeps the first of equal scores, as argmin does.  size=6
            # draws the values, and leaves the generator state, of size=(2, 3).
            draw = rng.integers(0, pop_size, size=6).tolist()
            a, b = (min(trio, key=scores.__getitem__) for trio in (draw[:3], draw[3:]))
            if d > 1 and rng.random() < config.crossover_rate:
                point = int(rng.integers(1, d))
                offspring[child, :point], offspring[child, point:] = aligned[a, :point], aligned[b, point:]
                offspring[child + 1, :point], offspring[child + 1, point:] = aligned[b, :point], aligned[a, point:]
            else:
                offspring[child], offspring[child + 1] = population[a], population[b]
        offspring = offspring[:needed]
        mutate = rng.random(offspring.shape) < config.mutation_rate
        fresh = rng.integers(0, modulus, size=offspring.shape, dtype=np.int64)
        offspring[mutate] = fresh[mutate]

        population = np.concatenate([elite, offspring])
        values = np.concatenate(
            [
                values[: config.elitism_count],
                _objective_values(offspring, modulus, objective, buffers),
            ]
        )

    best = KeySet(modulus, population[0])
    profile = bias_profile(best)
    achieved_objective = profile.delta if objective == "delta" else profile.padded_delta_squared
    return SearchOutcome(
        keyset=best,
        achieved_delta=profile.delta,
        generations_used=generation,
        target_met=achieved_objective < target_epsilon,
        objective=objective,
        achieved_objective=achieved_objective,
    )


def bundled_table_dir() -> Path:
    """Directory of the packaged key-set table fixtures."""
    return Path(str(files("qhashlab").joinpath("fixtures/paper-tables")))


def table_row_passes(padded_sq: float, declared: float | None) -> bool:
    """Whether a recomputed padded statistic reproduces its declared table value.

    It must stay within TABLE_BOUND and lie within ROUNDING_TOL of the
    declared value; a row that declares none (``epsilon -``) fails.
    """
    return padded_sq <= TABLE_BOUND and (
        declared is not None and abs(padded_sq - declared) <= ROUNDING_TOL
    )


class TableRow(NamedTuple):
    """One recomputed fixture row and its verdict under table_row_passes."""

    path: Path
    loaded: KeySetFile
    profile: BiasProfile
    passed: bool


def check_table_rows(
    directory: str | Path | None = None,
    max_modulus: int | None = None,
) -> tuple[list[TableRow], list[tuple[Path, Exception]]]:
    """Recompute every *.txt fixture row (one bias_profile each) and apply the pass rule.

    Rows above max_modulus are dropped and the rest come back sorted by
    (N, d); a cap that drops every loadable row raises ValueError.
    Files that fail to load are returned as (path, error) pairs; a
    directory that does not exist raises NotADirectoryError.
    """
    base = bundled_table_dir() if directory is None else Path(directory)
    if not base.is_dir():
        raise NotADirectoryError(f"{base}: not a directory")
    rows: list[TableRow] = []
    skipped: list[tuple[Path, Exception]] = []
    dropped: list[int] = []
    for path in sorted(base.glob("*.txt")):
        try:
            loaded = load_keyset(path)
        except (KeySetFormatError, OSError) as exc:
            skipped.append((path, exc))
            continue
        if max_modulus is not None and loaded.keyset.modulus > max_modulus:
            dropped.append(loaded.keyset.modulus)
            continue
        profile = bias_profile(loaded.keyset)
        passed = table_row_passes(profile.padded_delta_squared, loaded.declared_epsilon)
        rows.append(TableRow(path, loaded, profile, passed))
    if dropped and not rows:
        raise ValueError(f"no table fixture under {base} has N <= {max_modulus}; "
                         f"the smallest has N = {min(dropped)}")
    rows.sort(key=lambda row: (row.profile.modulus, row.profile.d))
    return rows, skipped
