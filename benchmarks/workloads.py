"""The three workload scripts and the checks on each command's report.

A script is a generator: it yields `Cmd`s in order and receives each
command's parsed JSON report back, so a later command can use an
earlier result (``verify`` takes the signature ``sign`` printed).  All
inputs are drawn from the workload seed through `make_inputs`, which is
called afresh for each pass, so every pass of a run replays the same
commands.

Checks test properties and analytic values computed here with numpy,
never golden random output: a changed random stream in the program must
not trip them, a wrong number must.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

SIGMAS = 4.0
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Scale:
    max_n: int                        # verify-tables --max-n
    table_rows: int                   # rows at or below max_n
    fft_max_n: int                    # rows swept by `bias --method fft`
    fft_sweeps: int
    ga: tuple[int, int, int]          # N, d, generation budget
    ga_large: tuple[int, int, int]
    random: tuple[int, float]         # N, epsilon
    forge_trials: int
    circuit_count: int
    shots: int
    shot_table: str
    fingerprint: tuple[int, int]      # n, m
    rounds: int                       # rounds of five small commands


SCALES = {
    "full": Scale(max_n=1 << 18, table_rows=14, fft_max_n=1 << 20, fft_sweeps=4, ga=(1024, 65, 20), ga_large=(16384, 129, 4),
                  random=(65536, 0.1), forge_trials=10_000, circuit_count=100,
                  shots=4_000_000, shot_table="n1048576_d257.txt", fingerprint=(16, 256),
                  rounds=48),
    "tiny": Scale(max_n=1024, table_rows=6, fft_max_n=1024, fft_sweeps=1, ga=(64, 15, 2), ga_large=(128, 33, 1),
                  random=(1024, 0.3), forge_trials=200, circuit_count=3, shots=20_000,
                  shot_table="n1024_d65.txt", fingerprint=(6, 32), rounds=2),
}

SMALL_TABLES = ("n256_d65.txt", "n1024_d65.txt", "n16384_d129.txt")
RANDOM_SET = (1024, 64)   # modulus, size of the seeded key set (Hadamard uncompute path)


@dataclass
class Cmd:
    """One CLI invocation: arguments, expected exit code and report check."""

    args: list[str]
    step: str
    expect: int = 0
    check: Callable[[dict], "str | None"] | None = None
    work: float = 1.0   # generations, trials, draws, shots or sweeps, for rate metrics


@dataclass
class Inputs:
    """What a script draws from: the scale, the seed's generator and the paths."""

    scale: Scale
    tables: Path
    work: Path
    random_set: Path
    rng: np.random.Generator = field(repr=False)

    def fixture(self, name: str) -> str:
        return str(self.tables / name)

    def draw_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))


# -- analytic references ----------------------------------------------------

def read_keyset(path: str | Path) -> tuple[int, np.ndarray]:
    """Modulus and keys of a key-set file (header N, d, epsilon; one key a line)."""
    lines = [ln.split() for ln in Path(path).read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    return int(lines[0][1]), np.array([int(f[0]) for f in lines[3:]], dtype=np.int64)


def real_spectrum(modulus: int, keys: np.ndarray) -> np.ndarray:
    """Re f_K(l) = sum_k cos(2 pi k l / N) for every shift l, by FFT."""
    return np.fft.fft(np.bincount(keys, minlength=modulus)).real


def overlap(modulus: int, keys: np.ndarray, diff: int) -> float:
    """Hash-state inner product (1/d) sum_k cos(2 pi k diff / N)."""
    phase = (keys * (diff % modulus)) % modulus
    return float(np.mean(np.cos(2.0 * np.pi * phase / modulus)))


def forgery_probability(modulus: int, keys: np.ndarray, level: int) -> float:
    """Chance a uniform guess in 1..L forges: 1/L plus the weighted squared overlaps."""
    if level == 1:
        return 1.0
    t = np.arange(1, level, dtype=np.int64)
    phase = (np.outer(t % modulus, keys)) % modulus
    ip = np.mean(np.cos(2.0 * np.pi * phase / modulus), axis=1)
    mean_sq = float(np.sum(2.0 * (level - t) * ip**2)) / (level * (level - 1))
    return 1.0 / level + (1.0 - 1.0 / level) * mean_sq


def padded_count(d: int) -> int:
    return 1 << (d - 1).bit_length()


@functools.cache
def reference_row(path: str) -> dict:
    """delta and padded_sq of a key-set file, from the numpy spectrum."""
    modulus, keys = read_keyset(path)
    worst = float(np.max(np.abs(real_spectrum(modulus, keys)[1:])))
    return {"delta": worst / len(keys), "padded_sq": (worst / padded_count(len(keys))) ** 2}


# -- checks: each returns None when the report is right, else the reason -----

def _close(name: str, got: float, want: float, tol: float = FLOAT_TOL) -> str | None:
    if not abs(float(got) - want) <= tol:
        return f"{name} {got!r} differs from {want!r} by more than {tol:g}"
    return None


def _binomial(name: str, rate: float, p: float, trials: int) -> str | None:
    sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return _close(name, rate, p, max(SIGMAS * sigma, FLOAT_TOL))


def first_error(*errors: str | None) -> str | None:
    return next((e for e in errors if e), None)


def check_tables(report: dict, rows: int) -> str | None:
    if not report["rows"] == report["passed"] == rows or report["failed"] != 0:
        return f"rows {report['rows']} passed {report['passed']} failed {report['failed']}; want {rows} passing"
    return None


def check_fft(report: dict, direct: dict) -> str | None:
    """`bias --method fft` agrees with the direct scan's delta and padded_sq."""
    return first_error(_close("delta", report["delta"], direct["delta"]),
                       _close("padded_delta_sq", report["padded_delta_sq"], direct["padded_sq"]))


def check_ga(report: dict, modulus: int, d: int, budget: int) -> str | None:
    if report["generations_used"] != budget or report["target_met"]:
        return f"generations_used {report['generations_used']} target_met {report['target_met']}"
    got_n, keys = read_keyset(report["out"])
    if got_n != modulus or len(keys) != d:
        return f"saved set has N {got_n} d {len(keys)}"
    worst = np.max(np.abs(real_spectrum(modulus, keys)[1:]))
    return _close("achieved_objective", report["achieved_objective"], (worst / padded_count(d)) ** 2)


def check_random(report: dict, modulus: int, epsilon: float) -> str | None:
    size = math.ceil((2.0 / (epsilon * epsilon)) * math.log(2 * modulus))
    got_n, keys = read_keyset(report["out"])
    if not report["target_met"] or got_n != modulus or len(keys) != size:
        return f"target_met {report['target_met']} N {got_n} d {len(keys)}; want d {size}"
    delta = float(np.max(np.abs(real_spectrum(modulus, keys)[1:]))) / size
    return first_error(_close("achieved_delta", report["achieved_delta"], delta),
                       None if delta < epsilon else f"delta {delta} not below {epsilon}")


def check_forge(report: dict, modulus: int, keys: np.ndarray, level: int, trials: int) -> str | None:
    p = forgery_probability(modulus, keys, level)
    return first_error(_close("predicted", report["predicted"], p),
                       _binomial("rate", report["rate"], p, trials),
                       None if report["trials"] == trials else f"trials {report['trials']}")


def check_circuit(report: dict, count: int) -> str | None:
    if report["ok"] != 1 or report["count"] != count or not report["max_deviation"] < 1e-10:
        return f"ok {report['ok']} count {report['count']} max_deviation {report['max_deviation']}"
    return None


def check_sampled(report: dict, p: float, shots: int) -> str | None:
    """Many-shot test: analytic accept probability, and accept rate within 4 sigma."""
    if report["accepted"] + report["rejected"] != shots:
        return f"accepted + rejected != {shots}"
    return first_error(_close("accept_probability", report["accept_probability"], p),
                       _binomial("accept_rate", report["accept_rate"], p, shots))


def check_fingerprint(report: dict, u: str, v: str, shots: int) -> str | None:
    lines = Path(report["out"]).read_text().split()
    m = int(lines[3])
    gen = np.array([[int(c) for c in row] for row in lines[4:]], dtype=np.int64)
    bits = lambda s: np.array([int(c) for c in s], dtype=np.int64)  # noqa: E731
    distance = int(np.count_nonzero((gen @ bits(u)) % 2 != (gen @ bits(v)) % 2))
    ip = (m - 2 * distance) / m
    return first_error(_close("inner_product", report["inner_product"], ip),
                       check_sampled(report, 0.5 * (1.0 + ip * ip), shots),
                       None if abs(ip) <= report["resistance"] + FLOAT_TOL
                       else f"resistance {report['resistance']} below |ip| {abs(ip)}")


def check_inner(report: dict, modulus: int, keys: np.ndarray, m1: int, m2: int) -> str | None:
    ip = overlap(modulus, keys, m1 - m2)
    return first_error(_close("inner_product", report["inner_product"], ip, 1e-12),
                       _close("squared", report["squared"], ip * ip, 1e-12))


# -- scripts ------------------------------------------------------------------

Script = Iterator[Cmd]


def tables(inp: Inputs) -> Script:
    s = inp.scale
    report = yield Cmd(["verify-tables", "--max-n", str(s.max_n), "--format", "json"],
                       "verify_tables", check=lambda r: check_tables(r, s.table_rows))
    direct = {row["row"]: row for row in report.get("rows_detail", [])}
    rows = sorted(path.name for path in inp.tables.glob("*.txt")
                  if int(path.name[1:].split("_")[0]) <= s.fft_max_n)
    for _ in range(s.fft_sweeps):
        for name in inp.rng.permutation(rows):
            yield Cmd(["bias", "--keyset", inp.fixture(name), "--method", "fft", "--format", "json"],
                      "bias_fft", check=lambda r, n=name: check_fft(r, direct.get(n) or reference_row(inp.fixture(n))),
                      work=1 / len(rows))


def search(inp: Inputs) -> Script:
    s = inp.scale
    for step, (modulus, d, budget) in (("ga", s.ga), ("ga_large", s.ga_large)):
        out = str(inp.work / f"{step}.txt")
        # An unreachable target, so the whole budget runs and exit 1 is expected.
        yield Cmd(["search", "--mode", "ga", "--n", str(modulus), "--d", str(d),
                   "--epsilon", "1e-12", "--generations", str(budget), "--out", out,
                   "--seed", str(inp.draw_seed()), "--format", "json"], step, expect=1,
                  check=lambda r, a=(modulus, d, budget): check_ga(r, *a), work=budget)
    modulus, epsilon = s.random
    yield Cmd(["search", "--mode", "random", "--n", str(modulus), "--epsilon", str(epsilon),
               "--out", str(inp.work / "random.txt"), "--seed", str(inp.draw_seed()),
               "--format", "json"], "random", check=lambda r: check_random(r, modulus, epsilon))


def protocol(inp: Inputs) -> Script:
    s = inp.scale
    level = RANDOM_SET[0]
    shapes = [(inp.fixture("n1024_d65.txt"), *read_keyset(inp.fixture("n1024_d65.txt"))),
              (str(inp.random_set), *read_keyset(inp.random_set))]
    for path, modulus, keys in shapes:
        yield Cmd(["forge-experiment", "--keyset", path, "--security-level", str(level),
                   "--trials", str(s.forge_trials), "--seed", str(inp.draw_seed()),
                   "--format", "json"], "forge",
                  check=lambda r, a=(modulus, keys): check_forge(r, *a, level, s.forge_trials),
                  work=s.forge_trials)
    for path, _, _ in shapes:
        yield Cmd(["circuit-check", "--keyset", path, "--count", str(s.circuit_count),
                   "--seed", str(inp.draw_seed()), "--format", "json"], "circuit",
                  check=lambda r: check_circuit(r, s.circuit_count), work=s.circuit_count)

    path = inp.fixture(s.shot_table)
    modulus, keys = read_keyset(path)
    m1, m2 = (int(x) for x in inp.rng.choice(modulus, size=2, replace=False))
    ip = overlap(modulus, keys, m1 - m2)
    common = ["--keyset", path, "--shots", str(s.shots), "--seed", str(inp.draw_seed()),
              "--format", "json"]
    yield Cmd(["reverse-test", "--claim", str(m1), "--message", str(m2), *common], "sample",
              check=lambda r: check_sampled(r, ip * ip, s.shots), work=s.shots)
    yield Cmd(["swap-test", "--m1", str(m1), "--m2", str(m2), *common], "sample",
              check=lambda r: check_sampled(r, 0.5 * (1.0 + ip * ip), s.shots), work=s.shots)

    n, m = s.fingerprint
    u, v = ("".join(map(str, bits)) for bits in inp.rng.integers(0, 2, size=(2, n)))
    shots = 10_000
    yield Cmd(["fingerprint", "--n", str(n), "--m", str(m), "--u", u, "--v", v,
               "--shots", str(shots), "--out", str(inp.work / "code.txt"),
               "--seed", str(inp.draw_seed()), "--format", "json"], "fingerprint",
              check=lambda r: check_fingerprint(r, u, v, shots))

    yield from small_commands(inp)


def small_commands(inp: Inputs) -> Script:
    """Rounds of sign, honest verify, hash --out, reverse-test --state and inner."""
    sets = [(inp.fixture(name), *read_keyset(inp.fixture(name))) for name in SMALL_TABLES]
    sets.append((str(inp.random_set), *read_keyset(inp.random_set)))
    shots = 64
    for rnd in range(inp.scale.rounds):
        path, modulus, keys = sets[rnd % len(sets)]
        bit = int(inp.rng.integers(0, 2))
        m, m1, m2 = (int(x) for x in inp.rng.integers(0, modulus, size=3))
        prefix = str(inp.work / f"sig{rnd}")
        ks = ["--keyset", path]
        level = str(modulus)
        signed = yield Cmd(["sign", *ks, "--security-level", level, "--bit", str(bit),
                            "--out", prefix, "--seed", str(inp.draw_seed()), "--format", "json"],
                           "small", check=lambda r, L=modulus: None if 1 <= r["signature"] <= L
                           else f"signature {r['signature']} outside [1, {L}]")
        yield Cmd(["verify", *ks, "--security-level", level, "--bit", str(bit),
                   "--signature", str(signed.get("signature", 1)), "--public",
                   signed.get(f"public{bit}", prefix + ".missing"), "--seed",
                   str(inp.draw_seed()), "--format", "json"], "small",
                  check=lambda r: None if r["accepted"] == 1 else "honest signature rejected")
        state = str(inp.work / f"h{rnd}.state")
        qubits = (len(keys) - 1).bit_length() + 1
        yield Cmd(["hash", *ks, "--message", str(m), "--out", state, "--format", "json"],
                  "small", check=lambda r, q=qubits: None if r["qubits"] == q
                  else f"qubits {r['qubits']}, want {q}")
        yield Cmd(["reverse-test", *ks, "--claim", str(m), "--state", state, "--shots",
                   str(shots), "--seed", str(inp.draw_seed()), "--format", "json"], "small",
                  check=lambda r: None if r["accepted"] == shots and r["accept_probability"] > 1 - FLOAT_TOL
                  else f"own hash accepted {r['accepted']}/{shots}")
        yield Cmd(["inner", *ks, "--m1", str(m1), "--m2", str(m2), "--format", "json"], "small",
                  check=lambda r, a=(modulus, keys, m1, m2): check_inner(r, *a))


WORKLOADS = {"tables": tables, "search": search, "protocol": protocol}


def make_inputs(scale: str, seed: int, tables_dir: Path, work: Path) -> Inputs:
    """Draw every generated input from the seed; write the seeded key set.

    Call once per pass: the same seed gives every pass the same commands.
    """
    set_rng, script_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    modulus, size = RANDOM_SET
    random_set = work / "random64.txt"
    keys = np.sort(set_rng.choice(modulus, size=size, replace=False))
    random_set.write_text("\n".join([f"N {modulus}", f"d {size}", "epsilon -", *map(str, keys)]) + "\n")
    return Inputs(SCALES[scale], tables_dir, work, random_set, script_rng)
