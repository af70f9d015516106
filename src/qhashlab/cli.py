"""Terminal front door: drive every operation from the shell.

Subcommands: bias, verify-tables, search, hash, inner, swap-test,
reverse-test, circuit-check, fingerprint, sign, verify,
forge-experiment.

Conventions shared by all commands: stochastic commands take --seed
(default 0) and echo it, so any run replays byte-identically from its
own report; --format json emits the same keys and numbers as the text
lines; floats are printed with repr so text and json carry identical
numeric content.  Exit codes: 0 success or target met, 1 target not
met (search budget exhausted, verification rejected, table row failed),
2 usage or parse errors, numbers too large, unreadable or unwritable
files, memory exhausted: any ValueError, OverflowError, OSError or
MemoryError a command raises is reported as ``error: <message>`` on
stderr, the one error path.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable

import click
import numpy as np

from . import bias as bias_mod
from . import fingerprint as fp_mod
from . import keyset as keyset_mod
from . import qhash, qsim, signature as sig_mod


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return str(int(value))
    return str(value)


def _emit(fmt: str, pairs: list[tuple[str, object]], records: "dict[str, Iterable] | None" = None) -> None:
    """Print named record iterables, then scalar pairs.

    Records are written signature.DRAW_CHUNK at a time as they are
    produced, so a lazy one, the forgery trial log, is never held whole.
    Text is one line per (string) record, then ``<key> <value>`` per
    pair; JSON is, piece by piece, json.dumps({**records, **pairs}).
    """
    records = records or {}
    for n, (name, items) in enumerate(records.items()):
        items = iter(items)
        batches = iter(lambda: list(islice(items, sig_mod.DRAW_CHUNK)), [])
        if fmt == "json":
            click.echo(("{" if n == 0 else ", ") + json.dumps(name) + ": [", nl=False)
            for k, batch in enumerate(batches):
                click.echo((", " if k else "") + json.dumps(batch)[1:-1], nl=False)
            click.echo("]", nl=False)
        else:
            for batch in batches:
                click.echo("\n".join(batch))
    if fmt == "json":
        tail = json.dumps(dict(pairs))
        click.echo((", " + tail[1:] if pairs else "}") if records else tail)
    else:
        for key, value in pairs:
            click.echo(f"{key} {_fmt(value)}")


def _tally(probability: float, counts: qsim.TestCounts) -> list[tuple[str, object]]:
    """The report pairs of a repeated equality test: its exact accept chance, then the shot counts."""
    return [("accept_probability", probability), ("accepted", counts.accepted),
            ("rejected", counts.rejected), ("accept_rate", counts.accept_rate)]


def _one_of(first: str, value, second: str, *parts) -> bool:
    """Whether a command took its first input (value) rather than its second (all of parts).

    With the first given, any part of the second is one too many;
    without it, every part must be given.  Both cases raise one message.
    """
    if any(part is not None for part in parts) if value is not None else None in parts:
        raise ValueError(f"need exactly one of {first} or {second}")
    return value is not None


def _hash_params(keyset_path: str) -> qhash.HashParams:
    """The HashParams of a key-set file, whose register load_keyset admits at the d header line, before any key is read.

    An N or d line load_keyset refuses is refused first, in its words;
    an oversized register then comes before the MAX_SPECTRUM_CELLS and
    epsilon checks.
    """
    return qhash.HashParams(bias_mod.load_keyset(keyset_path, qhash.hash_qubits).keyset)


class _ErrorMappingGroup(click.Group):
    """Report bad input and file errors as ``error: <message>``, exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OverflowError, OSError, MemoryError) as exc:
            # KeySetFormatError and CodeFormatError are ValueErrors too.
            click.echo(f"error: {str(exc) or 'out of memory'}", err=True)
            sys.exit(2)


seed_option = click.option("--seed", type=int, default=0, show_default=True, help="RNG seed; echoed in the report.")
format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
keyset_option = click.option("--keyset", "keyset_path", required=True, type=click.Path(dir_okay=False), help="Key-set file.")
# The search options each mode ignores, so they are refused when given on its command line.
FOREIGN_OPTIONS = {"random": ("d", "objective", "population_size", "generations", "mutation_rate", "crossover_rate",
                              "elitism_count", "progress"), "ga": ("max_attempts",)}
CIRCUIT_BLOCK = 64  # messages of one key set circuit-check simulates together, within 2^16 amplitudes


@click.group(cls=_ErrorMappingGroup)
def main() -> None:
    """Key-set bias, quantum hash states, equality tests, signatures."""


@main.command("bias")
@keyset_option
@click.option("--method", type=click.Choice(["direct", "fft"]), default="fft", show_default=True,
              help="fft locates the worst shifts by FFT and evaluates them exactly, giving the "
                   "same output as direct, the O(dN) scan of every shift.")
@format_option
def cmd_bias(keyset_path: str, method: str, fmt: str) -> None:
    """Bias profile of a key-set file."""
    loaded = bias_mod.load_keyset(keyset_path)
    profile = bias_mod.bias_profile(loaded.keyset, method=method)
    pairs: list[tuple[str, object]] = [
        ("N", profile.modulus),
        ("d", profile.d),
        ("delta", profile.delta),
        ("lambda", profile.lambda_),
        ("worst_shift_delta", profile.worst_shift_delta),
        ("worst_shift_lambda", profile.worst_shift_lambda),
        ("padded_delta_sq", profile.padded_delta_squared),
    ]
    if loaded.declared_epsilon is not None:
        pairs.append(("declared_epsilon", loaded.declared_epsilon))
    _emit(fmt, pairs)


@main.command("verify-tables")
@click.option("--fixtures", "fixtures_dir", type=click.Path(file_okay=False), default=None,
              help="Fixture directory; defaults to the bundled tables.")
@click.option("--max-n", "max_modulus", type=int, default=16384, show_default=True,
              help="Skip rows with modulus above this.")
@format_option
def cmd_verify_tables(fixtures_dir: str | None, max_modulus: int, fmt: str) -> None:
    """Recompute every bundled table row and check its declared bound.

    A row passes when the padded squared-overlap statistic both stays
    within the tables' 0.01 bound and matches the declared value to
    rounding (5e-4).  The unit-normalized delta(K) is reported beside
    it; for these odd-cardinality sets it is floored at 1/d and is not
    what the tables declare.
    """
    base = Path(fixtures_dir) if fixtures_dir is not None else keyset_mod.bundled_table_dir()
    rows, skipped = keyset_mod.check_table_rows(base, max_modulus)
    warnings = [f"warning: skipping {path.name}: {exc}" for path, exc in skipped]
    json_rows = [
        {
            "row": row.path.name,
            "N": row.profile.modulus,
            "d": row.profile.d,
            "declared": row.loaded.declared_epsilon,
            "padded_sq": row.profile.padded_delta_squared,
            "delta": row.profile.delta,
            "status": "PASS" if row.passed else "FAIL",
        }
        for row in rows
    ]
    if not rows:
        warnings.append(f"warning: no table fixtures found under {base}")
    text_lines = warnings + [
        " ".join(f"{key} {_fmt(value)}" for key, value in fields.items()) for fields in json_rows
    ]
    passed = sum(row.passed for row in rows)
    pairs = [("rows", len(rows)), ("passed", passed), ("failed", len(rows) - passed)]
    _emit(fmt, pairs, {"rows_detail": json_rows, "warnings": warnings} if fmt == "json"
          else {"rows_detail": text_lines})
    sys.exit(0 if passed == len(rows) else 1)


@main.command("search")
@click.option("--mode", type=click.Choice(["random", "ga"]), required=True)
@click.option("--n", "modulus", type=int, required=True, help="Modulus N.")
@click.option("--d", type=int, default=None, help="Key count (ga mode).")
@click.option("--epsilon", type=float, default=None,
              help="Target bound: true delta for random mode, the search objective for ga.")
@click.option("--objective", type=click.Choice(list(keyset_mod.OBJECTIVES)), default="padded_sq",
              show_default=True, help="Statistic the GA drives (ga mode).")
@click.option("--max-attempts", type=int, default=100, show_default=True, help="Draws (random mode).")
@click.option("--population-size", type=int, default=keyset_mod.SearchConfig.population_size, show_default=True)
@click.option("--generations", type=int, default=keyset_mod.SearchConfig.generations, show_default=True)
@click.option("--mutation-rate", type=float, default=keyset_mod.SearchConfig.mutation_rate, show_default=True)
@click.option("--crossover-rate", type=float, default=keyset_mod.SearchConfig.crossover_rate, show_default=True)
@click.option("--elitism-count", type=int, default=keyset_mod.SearchConfig.elitism_count, show_default=True)
@click.option("--progress", is_flag=True, help="Stream per-generation best values (ga mode).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@seed_option
@format_option
def cmd_search(mode: str, modulus: int, d: int | None, epsilon: float | None, objective: str,
               max_attempts: int, progress: bool, out_path: str, seed: int, fmt: str,
               **knobs: float) -> None:
    """Search for a key set and write it to a file."""
    ctx = click.get_current_context()
    foreign = [param.opts[0] for param in ctx.command.params if param.name in FOREIGN_OPTIONS[mode]
               and ctx.get_parameter_source(param.name) is click.core.ParameterSource.COMMANDLINE]
    if foreign:
        raise ValueError(f"{mode} mode does not take {', '.join(foreign)}")
    rng = qsim.make_rng(seed)
    progress_lines: list[str] = []
    if mode == "random":
        if epsilon is None:
            raise ValueError("random mode needs --epsilon")
        outcome = keyset_mod.sample_random_keyset(modulus, epsilon, max_attempts, rng)
    else:
        if d is None:
            raise ValueError("ga mode needs --d")
        target = keyset_mod.TABLE_BOUND if epsilon is None else epsilon
        sink = (click.echo if fmt == "text" else progress_lines.append) if progress else None
        outcome = keyset_mod.ga_search(
            modulus, d, target, keyset_mod.SearchConfig(**knobs), rng, objective=objective, progress=sink
        )
    bias_mod.save_keyset(outcome.keyset, out_path, declared_epsilon=outcome.achieved_objective)
    pairs: list[tuple[str, object]] = [
        ("mode", mode),
        ("N", modulus),
        ("d", outcome.keyset.d),
        ("seed", seed),
        ("objective", outcome.objective),
        ("achieved_delta", outcome.achieved_delta),
        ("achieved_objective", outcome.achieved_objective),
        ("generations_used", outcome.generations_used),
        ("target_met", outcome.target_met),
        ("out", out_path),
    ]
    records = {"progress": progress_lines} if (progress and fmt == "json") else None
    _emit(fmt, pairs, records)
    sys.exit(0 if outcome.target_met else 1)


@main.command("hash")
@keyset_option
@click.option("--message", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Dump the state, one '<index> <re> <im>' line per basis index.")
@click.option("--dump-circuit", "show_circuit", is_flag=True, help="Print the rotation circuit.")
@format_option
def cmd_hash(keyset_path: str, message: int, out_path: str | None, show_circuit: bool, fmt: str) -> None:
    """Build the hash state of a message."""
    params = _hash_params(keyset_path)
    state = qhash.hash_state(params, message)
    records = None
    if show_circuit:
        records = {"circuit": qhash.dump_circuit(qhash.build_hash_circuit(params, message))}
    if out_path is not None:
        qsim.dump_state(state, out_path)
    pairs: list[tuple[str, object]] = [
        ("N", params.keyset.modulus),
        ("d", params.keyset.d),
        ("qubits", params.s),
        ("message", message),
    ]
    if out_path is not None:
        pairs.append(("out", out_path))
    _emit(fmt, pairs, records)


@main.command("inner")
@keyset_option
@click.option("--m1", type=int, required=True)
@click.option("--m2", type=int, required=True)
@format_option
def cmd_inner(keyset_path: str, m1: int, m2: int, fmt: str) -> None:
    """Analytic overlap of two hash states."""
    loaded = bias_mod.load_keyset(keyset_path)
    ip = bias_mod.hash_inner_product(loaded.keyset, m1, m2)
    _emit(fmt, [
        ("N", loaded.keyset.modulus),
        ("d", loaded.keyset.d),
        ("m1", m1),
        ("m2", m2),
        ("inner_product", ip),
        ("squared", ip * ip),
    ])


@main.command("swap-test")
@keyset_option
@click.option("--m1", type=int, required=True)
@click.option("--m2", type=int, required=True)
@click.option("--shots", type=int, default=10000, show_default=True)
@seed_option
@format_option
def cmd_swap_test(keyset_path: str, m1: int, m2: int, shots: int, seed: int, fmt: str) -> None:
    """SWAP-test the hash states of two messages."""
    params = _hash_params(keyset_path)
    psi = qhash.hash_state(params, m1)
    phi = qhash.hash_state(params, m2)
    counts = qsim.swap_test(psi, phi, shots, qsim.make_rng(seed))
    _emit(fmt, [
        ("m1", m1),
        ("m2", m2),
        ("shots", shots),
        ("seed", seed),
        *_tally(qsim.swap_test_accept_probability(psi, phi), counts),
    ])


@main.command("reverse-test")
@keyset_option
@click.option("--claim", type=int, required=True, help="Claimed message v.")
@click.option("--message", type=int, default=None, help="Hash this message as the held state.")
@click.option("--state", "state_path", type=click.Path(dir_okay=False), default=None,
              help="Load the held state from a dump instead.")
@click.option("--shots", type=int, default=10000, show_default=True)
@seed_option
@format_option
def cmd_reverse_test(keyset_path: str, claim: int, message: int | None, state_path: str | None,
                     shots: int, seed: int, fmt: str) -> None:
    """Uncompute a claimed message against a held hash state."""
    hashed = _one_of("--message", message, "--state", state_path)
    params = _hash_params(keyset_path)
    if hashed:
        psi, source = qhash.hash_state(params, message), ("message", message)
    else:
        psi, source = qsim.load_state(state_path), ("state", state_path)
    uncomputed = qhash.uncompute_hash(params, claim, psi)
    counts = qsim.zero_outcome_counts(uncomputed, shots, qsim.make_rng(seed))
    _emit(fmt, [
        ("claim", claim),
        source,
        ("shots", shots),
        ("seed", seed),
        *_tally(float(abs(uncomputed.amplitudes[0]) ** 2), counts),
    ])


@main.command("circuit-check")
@click.option("--keyset", "keyset_path", type=click.Path(dir_okay=False), default=None,
              help="Check this key set over random messages; omit to draw random sets too.")
@click.option("--n", "modulus", type=int, default=None, help="Modulus for random sets.")
@click.option("--d", type=int, default=None, help="Cardinality for random sets.")
@click.option("--count", type=int, default=100, show_default=True)
@seed_option
@format_option
def cmd_circuit_check(keyset_path: str | None, modulus: int | None, d: int | None,
                      count: int, seed: int, fmt: str) -> None:
    """Compare the rotation circuit against the analytic state."""
    qsim.check_count("count", count)
    fixed = None
    if _one_of("--keyset", keyset_path, "--n/--d", modulus, d):
        fixed = _hash_params(keyset_path)
    else:  # refuse a bad N, d < 1 or an oversized register before drawing keys
        bias_mod._check_modulus(modulus)
        qhash.hash_qubits(d)
    rng = qsim.make_rng(seed)
    worst, done = 0.0, 0
    while done < count:  # the draws, in order, of one message (and drawn set) at a time
        params = fixed or qhash.HashParams(bias_mod.KeySet(modulus, qsim._draw_below(rng, modulus, d)))
        size = 1 if fixed is None else max(1, min(CIRCUIT_BLOCK, count - done, (1 << 16) >> params.s))
        messages = [int(qsim._draw_below(rng, params.keyset.modulus)) for _ in range(size)]
        worst = max(worst, *(float(np.max(np.abs(simulated - qhash.hash_state(params, m).amplitudes)))
                             for m, simulated in zip(messages, qhash.simulate_circuits(params, messages))))
        done += size
    ok = worst < 1e-10
    _emit(fmt, [
        ("count", count),
        ("seed", seed),
        ("max_deviation", worst),
        ("ok", ok),
    ])
    sys.exit(0 if ok else 1)


@main.command("fingerprint")
@click.option("--code", "code_path", type=click.Path(dir_okay=False), default=None,
              help="Code file; omit to draw a random code with --n/--m.")
@click.option("--n", "n_bits", type=int, default=None)
@click.option("--m", "m_bits", type=int, default=None)
@click.option("--u", required=True, help="First message, as bits.")
@click.option("--v", required=True, help="Second message, as bits.")
@click.option("--shots", type=int, default=10000, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Save the (possibly generated) code.")
@seed_option
@format_option
def cmd_fingerprint(code_path: str | None, n_bits: int | None, m_bits: int | None,
                    u: str, v: str, shots: int, out_path: str | None, seed: int, fmt: str) -> None:
    """SWAP-test the fingerprints of two messages under a linear code."""
    rng = qsim.make_rng(seed)
    if _one_of("--code", code_path, "--n/--m", n_bits, m_bits):
        code = fp_mod.load_code(code_path)
    else:
        code = fp_mod.random_linear_code(n_bits, m_bits, rng)
    if out_path is not None:
        fp_mod.save_code(code, out_path)
    psi = fp_mod.fingerprint_state(code, u)
    phi = fp_mod.fingerprint_state(code, v)
    ip = fp_mod.fingerprint_inner_product(code, u, v)
    counts = qsim.swap_test(psi, phi, shots, rng)
    pairs: list[tuple[str, object]] = [
        ("n", code.n),
        ("m", code.m),
        ("u", u),
        ("v", v),
        ("shots", shots),
        ("seed", seed),
        ("inner_product", ip),
        *_tally(qsim.swap_test_accept_probability(psi, phi), counts),
    ]
    if code.enumerable:
        pairs.append(("min_distance", code.min_distance()))
        pairs.append(("resistance", fp_mod.fingerprint_resistance(code)))
    if out_path is not None:
        pairs.append(("out", out_path))
    _emit(fmt, pairs)


@main.command("sign")
@keyset_option
@click.option("--security-level", type=int, required=True, help="Private numbers run 1..L.")
@click.option("--bit", type=click.IntRange(0, 1), required=True)
@click.option("--out", "out_prefix", required=True,
              help="Prefix for the public state dumps <prefix>.pub0/.pub1.")
@seed_option
@format_option
def cmd_sign(keyset_path: str, security_level: int, bit: int, out_prefix: str, seed: int, fmt: str) -> None:
    """Generate a keypair, publish its states, reveal the signature for one bit."""
    params = sig_mod.ProtocolParams(_hash_params(keyset_path), security_level)
    keypair = sig_mod.keygen(params, qsim.make_rng(seed))
    pub0 = f"{out_prefix}.pub0"
    pub1 = f"{out_prefix}.pub1"
    qsim.dump_state(keypair.public[0], pub0)
    qsim.dump_state(keypair.public[1], pub1)
    _emit(fmt, [
        ("N", params.hash_params.keyset.modulus),
        ("d", params.hash_params.keyset.d),
        ("security_level", security_level),
        ("bit", bit),
        ("seed", seed),
        ("signature", sig_mod.sign(keypair, bit)),
        ("public0", pub0),
        ("public1", pub1),
    ])


@main.command("verify")
@keyset_option
@click.option("--security-level", type=int, required=True)
@click.option("--bit", type=click.IntRange(0, 1), required=True)
@click.option("--signature", type=int, required=True)
@click.option("--public", "public_path", type=click.Path(dir_okay=False), required=True,
              help="State dump of the public key for this bit.")
@seed_option
@format_option
def cmd_verify(keyset_path: str, security_level: int, bit: int, signature: int,
               public_path: str, seed: int, fmt: str) -> None:
    """Check a revealed signature against a held public state."""
    params = sig_mod.ProtocolParams(_hash_params(keyset_path), security_level)
    state = qsim.load_state(public_path)
    accepted = sig_mod.verify(params, state, bit, signature, qsim.make_rng(seed))
    _emit(fmt, [
        ("security_level", security_level),
        ("bit", bit),
        ("signature", signature),
        ("public", public_path),
        ("seed", seed),
        ("accepted", accepted),
    ])
    sys.exit(0 if accepted else 1)


@main.command("forge-experiment")
@keyset_option
@click.option("--security-level", type=int, required=True)
@click.option("--trials", type=int, default=10000, show_default=True)
@click.option("--log", "show_log", is_flag=True, help="Print every per-trial record.")
@seed_option
@format_option
def cmd_forge_experiment(keyset_path: str, security_level: int, trials: int,
                         show_log: bool, seed: int, fmt: str) -> None:
    """Uniform-guessing forgery attack; compare against the exact prediction."""
    params = sig_mod.ProtocolParams(_hash_params(keyset_path), security_level)
    report = sig_mod.forgery_experiment(params, trials, qsim.make_rng(seed))
    records = {"trials_detail": report.log_lines()} if show_log else None
    _emit(fmt, [
        ("security_level", security_level),
        ("trials", trials),
        ("seed", seed),
        ("successes", report.successes),
        ("rate", report.rate),
        ("predicted", report.predicted),
    ], records)


if __name__ == "__main__":
    main()
