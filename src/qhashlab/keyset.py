"""Key-set construction: random sampling at the existence-bound size, and a GA.

Two ways to obtain a key set with small bias:

* ``sample_random_keyset`` draws multisets of the size for which a
  random draw provably succeeds with positive probability,
  ceil((2/eps^2) ln(2N)), and keeps the first whose delta(K) beats the
  requested bound.  This drives the true unit-normalized bias delta(K).

* ``ga_search`` runs a small generational GA for a *fixed* cardinality
  d, which is how the bundled tables were produced.  It always
  minimizes max_{l != 0} |Re f_K(l)|; both objectives increase with
  that one maximum, so the objective chooses only the stop rule and
  the reported statistic.  The default, ``padded_delta_squared``, is
  the bound the table files declare: for odd d the statistic delta(K)
  is floored at 1/d (the character at shift N/2 is a sum of d values
  +-1, hence a nonzero integer), so sub-1/d targets are only
  meaningful for the padded statistic.  objective="delta" stops on and
  reports the unit-normalized bias instead.

Both return a SearchOutcome by one report rule: achieved_delta is the
returned set's real-only fitness value, bit for bit its delta(K).  bias
owns the rest: what a search may scan (bias._check_search, called once
before the first draw) and the reported objective
(bias._reported_objective, also BiasProfile.padded_delta_squared), the
one number the GA stops on, prints on its progress line and reports.
"""

from __future__ import annotations

import functools
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
from .qsim import _decoder_matches, _halves, _lemire, _resume, _uniform, check_count, make_rng

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

# Most raw 64-bit words one GA pair of children reads: six 32-bit
# tournament draws (three words), the crossover uniform and its point.
PAIR_WORDS = 5


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

    achieved_delta is the true bias delta(K) of the returned set, its
    real-only fitness value (a GA keeps it from the scan of the
    generation that bred the row), bit for bit
    bias_profile(...).delta.  achieved_objective is the statistic the
    search stops on and reports, from achieved_delta by the expression
    of BiasProfile's padded_delta_squared (or achieved_delta itself),
    and a GA's last progress line prints it;  target_met compares it
    against the requested bound.  generations_used counts GA
    generations, or draw attempts for random sampling.
    """

    keyset: KeySet
    achieved_delta: float
    generations_used: int
    target_met: bool
    objective: str
    achieved_objective: float


def lemma_size(modulus: int, epsilon: float) -> int:
    """ceil((2/eps^2) ln(2N)): the set size at which random draws succeed.

    An eps so small that this size is not a finite float (below about
    1e-154) is refused with ValueError.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    # An eps^2 that rounds to 0 divides as the least positive float, to inf.
    size = (2.0 / max(epsilon * epsilon, math.ulp(0.0))) * math.log(2 * modulus)
    if not math.isfinite(size):
        raise ValueError(f"lemma size for epsilon {epsilon!r} is too large: (2/eps^2) ln(2N) is not a finite float")
    return math.ceil(size)


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
    bias_mod._check_modulus(modulus)
    check_count("max_attempts", max_attempts)
    size = lemma_size(modulus, epsilon)
    bias_mod._check_search(1, size, modulus)
    if rng is None:
        rng = make_rng(0)
    best, best_delta = None, math.inf
    buffers = bias_mod._ScanBuffers()
    for attempt in range(1, max_attempts + 1):
        candidate = rng.integers(0, modulus, size=size, dtype=np.int64)
        delta = float(worst_character_sums(candidate[None, :], modulus, real_only=True, buffers=buffers)[0][0]) / size
        if delta < best_delta:
            best, best_delta = candidate, delta
        if delta < epsilon:
            break
    return SearchOutcome(keyset=KeySet(modulus, best), achieved_delta=best_delta, generations_used=attempt,
                         target_met=best_delta < epsilon, objective="delta", achieved_objective=best_delta)


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
    key lists, per-key uniform resampling mutation, elitism.  Rows are
    ranked, and tournaments won, by the max |Re f| over l != 0 that
    their real-only scan returns, whatever the objective; the objective
    enters only through the best row's reported objective
    (bias._reported_objective of that maximum over d), and the search
    stops as soon as it drops below target_epsilon.  With rng omitted,
    the stream is make_rng(0), as in sample_random_keyset.  Each generation can
    report a line ``gen <g> best_delta <value>`` through the progress
    callback, value being that same reported objective: the last line
    prints the outcome's achieved_objective.

    Each pair of children draws, in order, rng.integers(0, pop_size,
    size=6) (two trios of rows), then if d > 1 rng.random(), and if that
    is below crossover_rate and d > 2 the point rng.integers(1, d).  A
    generation reads all of it with one random_raw of PAIR_WORDS words a
    pair: words 0-2 hold the six tournament halves, word 3 the uniform,
    and the point takes the buffered half, or else word 4's low half.
    _decode_tournaments decodes the words with qsim's rules (the halves
    stream, Lemire's draw and its rejection, the uniform), and
    qsim._resume leaves the generator where those calls leave it.  The
    calls themselves run instead on a rejected draw (possible only when
    2^32 mod R != 0 for the bound R), for a bit generator whose state
    has no buffered half (MT19937), for a population of one, and on a
    numpy where the decode fails qsim's once-per-process self-check;
    the children, progress lines and generator state never depend on
    the path.
    """
    bias_mod._check_modulus(modulus)
    padded_branch_count(d)  # refuses d < 1
    if not 0.0 < target_epsilon < 1.0:
        raise ValueError(f"target_epsilon must be in (0, 1), got {target_epsilon!r}")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if config is None:
        config = SearchConfig()
    if rng is None:
        rng = make_rng(0)

    pop_size = config.population_size
    bias_mod._check_search(pop_size, d, modulus)
    population = rng.integers(0, modulus, size=(pop_size, d), dtype=np.int64)
    buffers = bias_mod._ScanBuffers()
    maxima = worst_character_sums(population, modulus, real_only=True, buffers=buffers)[0]

    for generation in range(config.generations + 1):
        # generation 0 is the initial population; rows rank by their max |Re f|
        order = np.argsort(maxima, kind="stable")
        population, maxima = population[order], maxima[order]
        delta = float(maxima[0]) / d
        achieved_objective = bias_mod._reported_objective(delta, d, objective)
        if progress is not None:
            progress(f"gen {generation} best_delta {achieved_objective!r}")
        if achieved_objective < target_epsilon or generation == config.generations:
            break

        elite = population[: config.elitism_count]
        needed = pop_size - config.elitism_count
        offspring = _breed(rng, population, maxima, needed, config.crossover_rate)
        mutate = rng.random(offspring.shape) < config.mutation_rate
        fresh = rng.integers(0, modulus, size=offspring.shape, dtype=np.int64)
        offspring[mutate] = fresh[mutate]

        population = np.concatenate([elite, offspring])
        offspring_maxima = worst_character_sums(offspring, modulus, real_only=True, buffers=buffers)[0]
        maxima = np.concatenate([maxima[: config.elitism_count], offspring_maxima])

    return SearchOutcome(
        keyset=KeySet(modulus, population[0]),
        achieved_delta=delta,
        generations_used=generation,
        target_met=achieved_objective < target_epsilon,
        objective=objective,
        achieved_objective=achieved_objective,
    )


def _breed(
    rng: np.random.Generator, population: np.ndarray, maxima: np.ndarray, needed: int, crossover_rate: float
) -> np.ndarray:
    """The needed children of one generation, bred from the population sorted by its rows' maxima.

    Each pair's two winners are the first rows of least max |Re f| in
    its two trios.  A pair with a crossover point below d swaps the
    winners' sorted key lists from that point on; one whose point is d
    copies the two rows as stored.  Children come in pairs, the spare
    dropped for an odd needed.
    """
    pop_size, d = population.shape
    pairs = (needed + 1) // 2
    trios, points = _tournaments(rng, pop_size, d, crossover_rate, pairs)
    trios = np.array(trios, dtype=np.intp).reshape(2 * pairs, 3)
    winners = trios[np.arange(2 * pairs), maxima[trios].argmin(axis=1)].reshape(pairs, 2)
    points = np.array(points, dtype=np.intp)[:, None, None]
    rows = population[winners]
    parents = np.where(points < d, np.sort(rows, axis=2), rows)
    children = np.where(np.arange(d) < points, parents, parents[:, ::-1])
    return children.reshape(2 * pairs, d)[:needed]


def _tournaments(
    rng: np.random.Generator, pop_size: int, d: int, crossover_rate: float, pairs: int
) -> tuple[list[int], list[int]]:
    """Each pair's six tournament rows and its crossover point (d for none), as the scalar calls draw them.

    The values and the generator's whole state are those of
    _scalar_tournaments; they are decoded from one random_raw read (see
    ga_search) where that is exact.
    """
    bitgen = rng.bit_generator
    snapshot = bitgen.state
    if "has_uint32" in snapshot and pop_size > 1 and _bulk_breeding_matches(type(bitgen)):
        drawn = _decoded_tournaments(bitgen, snapshot, pop_size, d, crossover_rate, pairs)
        if drawn is not None:
            return drawn
    return _scalar_tournaments(rng, pop_size, d, crossover_rate, pairs)


def _decoded_tournaments(
    bitgen: np.random.BitGenerator, snapshot: dict, pop_size: int, d: int, crossover_rate: float, pairs: int
) -> tuple[list[int], list[int]] | None:
    """_scalar_tournaments' draws from one random_raw read, the generator left where they leave it; or
    None, the generator back at snapshot, where a draw is rejected."""
    words = bitgen.random_raw(PAIR_WORDS * pairs)
    decoded = _decode_tournaments(words, bool(snapshot["has_uint32"]), snapshot["uinteger"], pop_size, d,
                                  crossover_rate)
    if decoded is None:
        bitgen.state = snapshot
        return None
    trios, points, read, buffered, uinteger = decoded
    _resume(bitgen, snapshot, read, buffered, uinteger)
    return trios, points


def _scalar_tournaments(
    rng: np.random.Generator, pop_size: int, d: int, crossover_rate: float, pairs: int
) -> tuple[list[int], list[int]]:
    trios: list[int] = []
    points: list[int] = []
    for _ in range(pairs):
        trios += rng.integers(0, pop_size, size=6).tolist()
        crossed = d > 1 and rng.random() < crossover_rate
        points.append(int(rng.integers(1, d)) if crossed else d)
    return trios, points


def _decode_tournaments(
    words: np.ndarray | list[int], buffered: bool, uinteger: int, pop_size: int, d: int, crossover_rate: float
) -> tuple[list[int], list[int], int, bool, int] | None:
    """The draws of len(words) // PAIR_WORDS pairs, decoded from raw 64-bit words; None at a rejected draw.

    buffered and uinteger are the generator's 32-bit half before the
    draws.  Returns (trios, points, words read, buffered, uinteger), the
    last two as the draws leave them.  The scan marks the words the
    32-bit draws read: a pair's six tournament draws read three, and
    its crossover point a fourth only when no half is buffered, so the
    scan runs pair by pair.  The stream of those words' halves
    (qsim._halves) is then decoded by one qsim._lemire call, with bound
    pop_size for a tournament row and d - 1 for a point.
    """
    words = np.asarray(words, dtype=np.uint64)
    uniforms = _uniform(words).tolist()
    lead = buffered  # the scan moves buffered on
    read = bytearray(len(words))  # per word: 1 where the 32-bit draws read it
    pointed = bytearray()  # per half drawn: 1 for a crossover point's, 0 for a tournament row's
    drew: list[int] = []  # the pairs that draw their point
    points: list[int] = []
    at = 0
    for _ in range(len(words) // PAIR_WORDS):
        read[at : at + 3] = b"\1\1\1"  # six halves: the buffer's state is kept
        pointed += bytes(6)
        at += 3 + (d > 1)  # and the crossover uniform's word
        crossed = d > 1 and uniforms[at - 1] < crossover_rate
        if crossed and d > 2:
            drew.append(len(points))
            pointed.append(1)
            if not buffered:
                read[at] = 1
                at += 1
            buffered = not buffered
        points.append(1 if crossed else d)
    pointed = np.frombuffer(pointed, dtype=bool)
    halves = _halves(words[np.frombuffer(read, dtype=bool)], lead, uinteger)
    values, rejected = _lemire(halves[: pointed.size], np.where(pointed, d - 1, pop_size))
    if rejected < pointed.size:
        return None
    for pair, drawn in zip(drew, values[pointed].tolist()):
        points[pair] += drawn
    # uinteger is left holding the last read word's high half, buffered or stale
    return values[~pointed].tolist(), points, at, buffered, int(halves[-1])


@functools.cache
def _bulk_breeding_matches(kind: type) -> bool:
    """Whether the decoded tournaments reproduce the scalar calls for this bit generator type on this
    numpy (qsim._decoder_matches).

    Checked once per process and type on fixed draws: 31 pairs at
    population 64, d = 65 and rate 0.7 from an empty 32-bit buffer, and
    behind a buffered half at population 37 (whose draws can reject),
    d = 3 and rate 0.5.
    """
    return _decoder_matches(lambda rng, *args: _decoded_tournaments(rng.bit_generator, rng.bit_generator.state, *args),
                            _scalar_tournaments, kind, [(0, (64, 65, 0.7, 31)), (1, (37, 3, 0.5, 31))])


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
