"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest benchmarks/test_harness.py

Shows that every metric named in BENCHMARK.json is emitted, that the
checks flag deliberately wrong reports, and that a directory without the
program fails without printing a result.  Nothing under src/ is edited.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLES = ROOT / "src" / "qhashlab" / "fixtures" / "paper-tables"


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and math.isfinite(metric["value"])
        if trace == 0:
            assert metric["value"] > 0, spec["name"]
    if trace == 1:
        assert result["metrics"]["trace.attributed_ratio"]["value"] > 0.8


def test_directory_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_benchmark(tmp_path, "--workload", "tables", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_fft_check_flags_padded_sq_off_by_1e3():
    ref = workloads.reference_row(str(TABLES / "n1024_d65.txt"))
    report = {"delta": ref["delta"], "padded_delta_sq": ref["padded_sq"]}
    assert workloads.check_fft(report, ref) is None
    assert "padded_delta_sq" in workloads.check_fft({**report, "padded_delta_sq": ref["padded_sq"] + 1e-3}, ref)


def test_forge_check_flags_a_rate_10_sigma_off():
    modulus, keys = workloads.read_keyset(TABLES / "n1024_d65.txt")
    level, trials = 1024, 10_000
    p = workloads.forgery_probability(modulus, keys, level)
    sigma = math.sqrt(p * (1 - p) / trials)
    report = {"predicted": p, "rate": p + sigma, "trials": trials}
    assert workloads.check_forge(report, modulus, keys, level, trials) is None
    wrong = workloads.check_forge({**report, "rate": p + 10 * sigma}, modulus, keys, level, trials)
    assert wrong and wrong.startswith("rate")
    wrong = workloads.check_forge({**report, "predicted": p * 1.01}, modulus, keys, level, trials)
    assert wrong and wrong.startswith("predicted")


def test_tables_check_needs_every_row_to_pass():
    assert workloads.check_tables({"rows": 16, "passed": 16, "failed": 0}, 16) is None
    assert workloads.check_tables({"rows": 16, "passed": 15, "failed": 1}, 16)
    assert workloads.check_tables({"rows": 15, "passed": 15, "failed": 0}, 16)


def test_sampled_and_inner_checks_use_analytic_values():
    assert workloads.check_sampled({"accepted": 5000, "rejected": 5000, "accept_probability": 0.5,
                                    "accept_rate": 0.5}, 0.5, 10_000) is None
    assert workloads.check_sampled({"accepted": 5300, "rejected": 4700, "accept_probability": 0.5,
                                    "accept_rate": 0.53}, 0.5, 10_000)
    modulus, keys = workloads.read_keyset(TABLES / "n32_d15.txt")
    ip = workloads.overlap(modulus, keys, 7)
    assert workloads.check_inner({"inner_product": ip, "squared": ip * ip}, modulus, keys, 9, 2) is None
    assert workloads.check_inner({"inner_product": ip + 1e-6, "squared": ip * ip}, modulus, keys, 9, 2)
