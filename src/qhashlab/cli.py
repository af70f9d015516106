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
files: any ValueError, OverflowError or OSError a command raises is
reported as ``error: <message>`` on stderr, the one error path.
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


class _ErrorMappingGroup(click.Group):
    """Report bad input and file errors as ``error: <message>``, exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OverflowError, OSError) as exc:
            # KeySetFormatError and CodeFormatError are ValueErrors too.
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


seed_option = click.option("--seed", type=int, default=0, show_default=True, help="RNG seed; echoed in the report.")
format_option = click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
keyset_option = click.option("--keyset", "keyset_path", required=True, type=click.Path(dir_okay=False), help="Key-set file.")
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
    loaded = bias_mod.load_keyset(keyset_path)
    params = qhash.HashParams(loaded.keyset)
    state = qhash.hash_state(params, message)
    records = None
    if show_circuit:
        records = {"circuit": qhash.dump_circuit(qhash.build_hash_circuit(params, message)).splitlines()}
    if out_path is not None:
        qsim.dump_state(state, out_path)
    pairs: list[tuple[str, object]] = [
        ("N", loaded.keyset.modulus),
        ("d", loaded.keyset.d),
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
    params = qhash.HashParams(bias_mod.load_keyset(keyset_path).keyset)
    psi = qhash.hash_state(params, m1)
    phi = qhash.hash_state(params, m2)
    counts = qsim.swap_test(psi, phi, shots, qsim.make_rng(seed))
    _emit(fmt, [
        ("m1", m1),
        ("m2", m2),
        ("shots", shots),
        ("seed", seed),
        ("accept_probability", qsim.swap_test_accept_probability(psi, phi)),
        ("accepted", counts.accepted),
        ("rejected", counts.rejected),
        ("accept_rate", counts.accept_rate),
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
    if (message is None) == (state_path is None):
        raise ValueError("need exactly one of --message or --state")
    params = qhash.HashParams(bias_mod.load_keyset(keyset_path).keyset)
    if message is not None:
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
        ("accept_probability", float(abs(uncomputed.amplitudes[0]) ** 2)),
        ("accepted", counts.accepted),
        ("rejected", counts.rejected),
        ("accept_rate", counts.accept_rate),
    ])


def _draw_below(rng: np.random.Generator, modulus: int, size: int | None = None):
    """Uniform draws from [0, N): rng.integers up to N = 2^63, so reports keep their bytes; past
    that a draw is the low b = (N - 1).bit_length() bits of ceil(b/64) uint64 words, and the
    values >= N are drawn again, in order (never for N = 2^b)."""
    if modulus <= 1 << 63:
        return rng.integers(0, modulus, size=size)
    bits, wanted = (modulus - 1).bit_length(), 1 if size is None else size
    values: list[int] = []
    while len(values) < wanted:
        words = rng.integers(0, 1 << 64, size=(wanted - len(values), -(-bits // 64)), dtype=np.uint64)
        drawn = (sum(w << 64 * i for i, w in enumerate(row)) & ((1 << bits) - 1) for row in words.tolist())
        values += [value for value in drawn if value < modulus]
    return values if size is not None else values[0]


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
    rng = qsim.make_rng(seed)
    fixed = None
    if keyset_path is not None:
        if modulus is not None or d is not None:
            raise ValueError("need exactly one of --keyset or --n/--d")
        fixed = qhash.HashParams(bias_mod.load_keyset(keyset_path).keyset)
    elif modulus is None or d is None:
        raise ValueError("need --keyset, or --n and --d for random sets")
    elif modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    else:
        qhash.hash_qubits(d)  # refuse d < 1 or an oversized register before drawing keys
    worst, done = 0.0, 0
    while done < count:  # the draws, in order, of one message (and drawn set) at a time
        params = fixed or qhash.HashParams(bias_mod.KeySet(modulus, _draw_below(rng, modulus, d)))
        size = 1 if fixed is None else max(1, min(CIRCUIT_BLOCK, count - done, (1 << 16) >> params.s))
        messages = [int(_draw_below(rng, params.keyset.modulus)) for _ in range(size)]
        for m, simulated in zip(messages, qhash.simulate_circuits(params, messages)):
            worst = max(worst, float(np.max(np.abs(simulated - qhash.hash_state(params, m).amplitudes))))
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
    if code_path is not None:
        if n_bits is not None or m_bits is not None:
            raise ValueError("need exactly one of --code or --n/--m")
        code = fp_mod.load_code(code_path)
    elif n_bits is None or m_bits is None:
        raise ValueError("need --code, or --n and --m for a random code")
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
        ("accept_probability", qsim.swap_test_accept_probability(psi, phi)),
        ("accepted", counts.accepted),
        ("rejected", counts.rejected),
        ("accept_rate", counts.accept_rate),
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
    loaded = bias_mod.load_keyset(keyset_path)
    params = sig_mod.ProtocolParams(qhash.HashParams(loaded.keyset), security_level)
    keypair = sig_mod.keygen(params, qsim.make_rng(seed))
    pub0 = f"{out_prefix}.pub0"
    pub1 = f"{out_prefix}.pub1"
    qsim.dump_state(keypair.public[0], pub0)
    qsim.dump_state(keypair.public[1], pub1)
    _emit(fmt, [
        ("N", loaded.keyset.modulus),
        ("d", loaded.keyset.d),
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
    loaded = bias_mod.load_keyset(keyset_path)
    state = qsim.load_state(public_path)
    params = sig_mod.ProtocolParams(qhash.HashParams(loaded.keyset), security_level)
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
    params = sig_mod.ProtocolParams(
        qhash.HashParams(bias_mod.load_keyset(keyset_path).keyset), security_level
    )
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
