"""qhashlab benchmark: drive the CLI in-process on one workload.

    python3 benchmarks/run.py --workload {tables,search,protocol} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

Run from a checkout root; the program is imported from its ``src/``.
Load model: a closed loop with one client.  One process issues the
workload's fixed script of CLI commands in order, each invocation being
one operation, on the main thread only, with BLAS/OpenMP threads pinned
to 1.  The script is replayed in passes until ``--seconds`` is used
(always at least once); timings are medians over passes.  A real CLI
call starts a fresh process, so state kept between commands here is not
something a user gets; `setup_s` measures what every real call pays.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the line
carries the per-layer metrics.  Either way every command's exit code and
report are checked, and ``failed`` counts the commands that were wrong.
Full results (machine, seed, per-step figures) go to
``.bench_run/results/``, spans of a traced run to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing
import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_REPEATS = 3   # per pass, so the samples spread over the run

# name -> (unit, better); emitted with --trace 0 on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
# Per-step figures of the workloads that run the step; 0 elsewhere.
STEPS = {
    "verify_tables_s": ("s", "lower"),
    "bias_fft_s": ("s", "lower"),
    "ga_gen_per_s": ("1/s", "higher"),
    "ga_large_gen_per_s": ("1/s", "higher"),
    "random_search_s": ("s", "lower"),
    "forge_trials_per_s": ("1/s", "higher"),
    "circuit_checks_per_s": ("1/s", "higher"),
    "sample_shots_per_s": ("1/s", "higher"),
    "fingerprint_s": ("s", "lower"),
    "cli_p50_ms": ("ms", "lower"),
    "cli_p95_ms": ("ms", "lower"),
}


@dataclass
class Record:
    cmd: object
    code: int | None
    report: dict
    seconds: float
    error: str | None = None


@dataclass
class Pass:
    wall: float
    records: list[Record] = field(default_factory=list)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


def invoke(main, cmd, tracer=None) -> Record:
    """Run one CLI command in-process; capture exit code and JSON report."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None = 0
    error = None
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            kwargs = dict(args=list(cmd.args), prog_name="qhashlab", standalone_mode=False)
            if tracer is None:
                main.main(**kwargs)
            else:
                tracer.start_command()
                tracer.span(f"cli.{cmd.args[0]}", main.main, **kwargs)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a traceback is a failed command, not a crashed run
            code = getattr(exc, "exit_code", None)
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    seconds = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = {}
    if error is None and not report and err.getvalue():
        error = err.getvalue().strip()
    return Record(cmd, code, report, seconds, error)


def run_pass(main, script, inputs, tracer=None) -> Pass:
    """Play one pass of a script; checks run later, outside the timed region."""
    result = Pass(0.0)
    start = time.perf_counter()
    gen = script(inputs)
    report = None
    while True:
        try:
            cmd = gen.send(report)
        except StopIteration:
            break
        except Exception as exc:
            result.records.append(Record(None, None, {}, 0.0, f"script aborted: {exc!r}"))
            break
        record = invoke(main, cmd, tracer)
        result.records.append(record)
        report = record.report
    result.wall = time.perf_counter() - start
    return result


def failure(record: Record) -> str | None:
    """Why a command counts as failed, or None."""
    if record.cmd is None:
        return record.error
    if record.code != record.cmd.expect:
        return f"exit {record.code}, want {record.cmd.expect}: {record.error or ''}".strip()
    if record.cmd.check is None:
        return None
    try:
        return record.cmd.check(record.report)
    except (KeyError, TypeError, ValueError, OSError, IndexError) as exc:
        return f"report unusable: {exc!r}"


def measure_setup() -> list[float]:
    """Seconds from a fresh interpreter to `qhashlab.cli` imported, repeated."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import qhashlab.cli, qhashlab; print(qhashlab.__file__)")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.strip().startswith(str(SRC)):
            raise SetupError(f"importing qhashlab.cli from {SRC} failed: {proc.stderr.strip()}")
    return times


def cache_sizes() -> dict[str, int | None]:
    """L2 and L3 data-cache bytes from sysconf, else from sysfs; None if unknown."""
    sizes: dict[str, int | None] = {}
    for level in (2, 3):
        try:
            sizes[f"l{level}_bytes"] = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE") or None
        except (ValueError, OSError):
            sizes[f"l{level}_bytes"] = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        if sizes.get(f"l{level}_bytes", 0) is None:
            sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * scale
    return sizes


def machine() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            model = next((ln.split(":", 1)[1].strip() for ln in info
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        **cache_sizes(),
        "python": platform.python_version(),
        **versions,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def step_metrics(passes: list[Pass]) -> tuple[dict[str, float], dict[str, int]]:
    """The per-step figures, medians over passes; 0 for steps not run."""
    def per_pass(step, rate=False):
        """Median over passes of the step's seconds per unit of work, or its inverse."""
        values = []
        for p in passes:
            recs = [r for r in p.records if r.cmd is not None and r.cmd.step == step]
            if recs:
                seconds = sum(r.seconds for r in recs)
                work = sum(r.cmd.work for r in recs)
                values.append(work / seconds if rate else seconds / work)
        return statistics.median(values) if values else 0.0

    small = [1e3 * r.seconds for p in passes for r in p.records
             if r.cmd is not None and r.cmd.step == "small"]
    out = {
        "verify_tables_s": per_pass("verify_tables"),
        "bias_fft_s": per_pass("bias_fft"),
        "ga_gen_per_s": per_pass("ga", rate=True),
        "ga_large_gen_per_s": per_pass("ga_large", rate=True),
        "random_search_s": per_pass("random"),
        "forge_trials_per_s": per_pass("forge", rate=True),
        "circuit_checks_per_s": per_pass("circuit", rate=True),
        "sample_shots_per_s": per_pass("sample", rate=True),
        "fingerprint_s": per_pass("fingerprint"),
        "cli_p50_ms": tracing.quantile(small, 0.5),
        "cli_p95_ms": tracing.quantile(small, 0.95),
    }
    return out, {"cli_p50_ms": len(small), "cli_p95_ms": len(small)}


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict[str, float], dict[str, int]]:
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"setup_s": len(setup), "wall_s": len(passes), "peak_rss_mib": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["tables", "search", "protocol"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: minute sizes for the harness self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def prepare():
    """Import the checkout's program, or raise SetupError."""
    if not (SRC / "qhashlab" / "cli.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhashlab
    from qhashlab.cli import main

    if not Path(qhashlab.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"qhashlab imported from {qhashlab.__file__}, not {SRC}")
    return main, SRC / "qhashlab" / "fixtures" / "paper-tables"


def run(args):
    """Play the workload; return the result line and the details around it."""
    main, tables_dir = prepare()
    setup: list[float] = []
    script = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        plain: list[Pass] = []
        traced: list[Pass] = []
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if tracer is None:
                setup += measure_setup()
            inputs = workloads.make_inputs(args.scale, args.seed, tables_dir, work)
            plain.append(run_pass(main, script, inputs))
            if tracer is not None:
                inputs = workloads.make_inputs(args.scale, args.seed, tables_dir, work)
                tracer.install()
                try:
                    traced.append(run_pass(main, script, inputs, tracer))
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
        records = [r for p in plain + traced for r in p.records]
        failures = [(r, why) for r in records if (why := failure(r))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steps, step_counts = step_metrics(plain)
    if tracer is None:
        values, counts = end_to_end(plain, setup)
        specs = END_TO_END
    else:
        values = tracer.layer_metrics(len(traced))
        # Means, like the per-pass layer totals they are compared with.
        values["trace.wall_s"] = statistics.fmean(p.wall for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(p.wall for p in plain)
        attributed = values["cli.self_s"] + sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        values["trace.attributed_ratio"] = attributed / values["trace.wall_s"]
        values.update(steps)
        counts = {"passes": len(traced), **step_counts}
        specs = {**tracing.layer_metric_specs(), **STEPS}
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in specs.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": machine(),
        "passes": len(plain), "samples": counts, "steps": steps, "step_samples": step_counts,
        "pass_seconds": [{"wall": p.wall, "commands": [r.seconds for r in p.records]}
                         for p in plain],
        "error_rate": len(failures) / max(len(records), 1),
        "failures": [f"{' '.join(r.cmd.args) if r.cmd else '<script>'}: {why}"
                     for r, why in failures[:20]],
    }
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "result": result}, indent=1))
    return result, detail, specs, counts


def print_report(result, detail, specs, counts) -> None:
    print(f"workload {detail['workload']} seed {detail['seed']} passes {detail['passes']} "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {detail['error_rate']:.4g}")
    for why in detail["failures"]:
        print(f"  FAILED {why}")
    for name, (unit, better) in specs.items():
        n = counts.get(name)
        print(f"  {name:40s} {result['metrics'][name]['value']:14.6g} {unit:6s} "
              f"({better} is better{f', n={n}' if n else ''})")
    if detail["trace"] == 0:
        for name, value in detail["steps"].items():
            if value:
                unit, better = STEPS[name]
                n = detail["step_samples"].get(name)
                print(f"  step {name:35s} {value:14.6g} {unit:6s} "
                      f"({better} is better{f', n={n}' if n else ''})")
    print(json.dumps({"seed": detail["seed"], "machine": detail["machine"]}))
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        print_report(*run(args))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
