"""End-to-end CLI checks: exit codes, report fields, replayability."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qhashlab import (
    HashParams,
    KeySet,
    bundled_table_dir,
    check_count,
    fourier_components,
    hash_inner_product,
    load_code,
    load_keyset,
    load_state,
    make_rng,
    save_keyset,
)
from qhashlab import bias as bias_mod
from qhashlab import signature as sig_mod
from qhashlab import cli, qhash, qsim, textfile
from qhashlab.cli import main

from conftest import keygen_verify_records, per_message_circuit_deviation, trial_log

N32 = bundled_table_dir() / "n32_d15.txt"
N1024 = bundled_table_dir() / "n1024_d65.txt"


@pytest.fixture()
def runner():
    return CliRunner()


def parse_report(text):
    """'key value' lines back into a dict; later keys win."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.rpartition(" ")
        out[key] = value
    return out


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def assert_json_matches_text(runner, args):
    """The two formats must carry the same keys and repr-identical numbers."""
    text = invoke(runner, args).output
    payload = json.loads(invoke(runner, args + ["--format", "json"]).output)
    report = parse_report(text)
    for key, value in payload.items():
        if isinstance(value, list):
            continue
        rendered = (
            repr(value)
            if isinstance(value, float)
            else str(int(value) if isinstance(value, bool) else value)
        )
        assert report[key] == rendered, key
    return payload


class TestHelpAndUsage:
    def test_help_lists_commands(self, runner):
        result = invoke(runner, ["--help"])
        assert result.exit_code == 0
        for name in ("bias", "verify-tables", "search", "hash", "inner",
                     "swap-test", "reverse-test", "circuit-check",
                     "fingerprint", "sign", "verify", "forge-experiment"):
            assert name in result.output

    def test_unknown_option_is_usage_error(self, runner):
        assert invoke(runner, ["bias", "--frobnicate"]).exit_code == 2

    def test_missing_required_option(self, runner):
        assert invoke(runner, ["inner", "--m1", "1"]).exit_code == 2


@pytest.mark.parametrize("args", [
    ["search", "--mode", "ga", "--n", "32", "--d", "15", "--generations", "2"],
    ["hash", "--keyset", str(N32), "--message", "5"],
    ["sign", "--keyset", str(N32), "--security-level", "16", "--bit", "0"],
    ["fingerprint", "--n", "3", "--m", "8", "--u", "101", "--v", "100"],
], ids=lambda args: args[0])
def test_unwritable_out_exits_two(runner, tmp_path, args):
    result = invoke(runner, args + ["--out", str(tmp_path / "missing" / "out")])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


# --d for ga mode; random mode refuses it
GA_KEY_COUNT = {"ga": ["--d", "3"], "random": []}


@pytest.mark.parametrize("mode,modulus", [
    ("ga", "1"), ("ga", "0"), ("ga", "-4"), ("random", "0"), ("random", "-4"),
])
def test_search_modulus_below_two_exits_two(runner, tmp_path, mode, modulus):
    result = invoke(runner, ["search", "--mode", mode, "--n", modulus, *GA_KEY_COUNT[mode],
                             "--epsilon", "0.5", "--out", str(tmp_path / "k.txt")])
    assert result.exit_code == 2
    assert result.stderr == f"error: modulus must be >= 2, got {modulus}\n"


@pytest.mark.parametrize("mode", ["ga", "random"])
def test_search_modulus_from_two_to_the_1021_exits_two(runner, tmp_path, mode):
    out = tmp_path / "k.txt"
    result = invoke(runner, ["search", "--mode", mode, "--n", str(1 << 1021), *GA_KEY_COUNT[mode],
                             "--epsilon", "0.5", "--out", str(out)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: modulus must be below 2^1021, got a 1022-bit one\n"
    assert not out.exists()


@pytest.mark.parametrize("mode,message", [
    ("ga", "spectrum of 64 x 1180591620717411303424 = 75557863725914323419136 cells "
           "(about 1125899906842624.0 GiB as complex128)"),
    ("random", "spectrum of 1 x 1180591620717411303424 = 1180591620717411303424 cells "
               "(about 17592186044416.0 GiB as complex128)"),
], ids=["ga", "random"])
def test_search_past_int64_is_refused_before_drawing(runner, tmp_path, mode, message):
    out = tmp_path / "k.txt"
    result = invoke(runner, ["search", "--mode", mode, "--n", str(2**70), *GA_KEY_COUNT[mode],
                             "--epsilon", "0.5", "--out", str(out)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: {message} exceeds MAX_SPECTRUM_CELLS = 67108864\n"
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["--mode", "ga", "--n", "128", "--d", "3"], "spectrum of 64 x 128 = 8192 cells"),
    (["--mode", "random", "--n", "8192", "--epsilon", "0.5"], "spectrum of 1 x 8192 = 8192 cells"),
    (["--mode", "random", "--n", "64", "--epsilon", "0.01"], "1 x 97041 = 97041 keys (about 0.0 GiB as int64)"),
], ids=["ga", "random", "lemma-size"])
def test_search_beyond_the_spectrum_limit_exits_two(runner, tmp_path, monkeypatch, args, message):
    monkeypatch.setattr(bias_mod, "MAX_SPECTRUM_CELLS", 1 << 12)
    result = invoke(runner, ["search", *args, "--out", str(tmp_path / "k.txt")])
    assert result.exit_code == 2
    assert message in result.stderr
    assert "exceeds MAX_SPECTRUM_CELLS = 4096" in result.stderr


def test_ga_population_beyond_the_limit_exits_two(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(bias_mod, "MAX_SPECTRUM_CELLS", 1 << 12)
    out = tmp_path / "k.txt"
    result = invoke(runner, ["search", "--mode", "ga", "--n", "32", "--d", "65",
                             "--epsilon", "0.01", "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == "error: 64 x 65 = 4160 keys (about 0.0 GiB as int64) exceeds MAX_SPECTRUM_CELLS = 4096\n"
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["1e-160", "1e-170", "5e-324"])
def test_random_search_refuses_a_lemma_size_past_float64(runner, tmp_path, epsilon):
    out = tmp_path / "k.txt"
    result = invoke(runner, ["search", "--mode", "random", "--n", "8", "--epsilon", epsilon, "--out", str(out)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (f"error: lemma size for epsilon {epsilon} is too large: "
                             "(2/eps^2) ln(2N) is not a finite float\n")
    assert not out.exists()


@pytest.mark.parametrize("mode,args,message", [
    ("random", ["--d", "3", "--objective", "delta", "--progress", "--generations", "5"],
     "random mode does not take --d, --objective, --generations, --progress"),
    ("random", ["--elitism-count", "2", "--crossover-rate", "0.5", "--mutation-rate", "0.1", "--population-size", "8"],
     "random mode does not take --population-size, --mutation-rate, --crossover-rate, --elitism-count"),
    # the default value, given on the command line, is still given
    ("random", ["--objective", "padded_sq"], "random mode does not take --objective"),
    ("ga", ["--d", "3", "--max-attempts", "5", "--generations", "2"], "ga mode does not take --max-attempts"),
    ("ga", ["--d", "3", "--max-attempts", "100"], "ga mode does not take --max-attempts"),
], ids=["random-four", "random-knobs", "random-default", "ga", "ga-default"])
def test_search_refuses_the_other_modes_options(runner, tmp_path, mode, args, message):
    out = tmp_path / "k.txt"
    result = invoke(runner, ["search", "--mode", mode, "--n", "64", *args, "--epsilon", "0.5", "--out", str(out)])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("mode,args", [
    ("random", ["--max-attempts", "5"]),
    ("ga", ["--d", "3", "--generations", "2", "--progress"]),
])
def test_search_takes_its_own_modes_options(runner, tmp_path, mode, args):
    out = tmp_path / "k.txt"
    result = invoke(runner, ["search", "--mode", mode, "--n", "64", *args, "--epsilon", "0.5", "--out", str(out)])
    assert (result.exit_code, result.stderr) == (0, "")
    assert load_keyset(out).keyset.d == (39 if mode == "random" else 3)  # 39: the lemma size at (64, 0.5)


def test_out_of_memory_exits_two_without_a_traceback():
    # A 2^21-key circuit check in a child whose address space ends 128 MiB
    # above its size after the imports: its 64 MiB arrays cannot all be had.
    code = (
        "import resource\n"
        "from qhashlab.cli import main\n"
        "with open('/proc/self/status') as status:\n"
        "    size = next(int(line.split()[1]) << 10 for line in status if line.startswith('VmSize:'))\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (128 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "main(['circuit-check', '--n', '2', '--d', '2097152', '--count', '1'])\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr


def test_a_memory_error_without_a_message_says_so(runner, monkeypatch):
    # Python raises MemoryError with no message where numpy's names the allocation
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(qhash, "hash_state", exhausted)
    result = invoke(runner, ["hash", "--keyset", str(N32), "--message", "1"])
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("args,name", [
    (["swap-test", "--keyset", str(N32), "--m1", "1", "--m2", "2", "--shots"], "shots"),
    (["reverse-test", "--keyset", str(N32), "--claim", "1", "--message", "2", "--shots"], "shots"),
    (["fingerprint", "--n", "3", "--m", "8", "--u", "101", "--v", "100", "--shots"], "shots"),
    (["forge-experiment", "--keyset", str(N32), "--security-level", "5", "--trials"], "trials"),
    (["search", "--mode", "ga", "--n", "32", "--d", "15", "--generations"], "generations"),
    (["search", "--mode", "random", "--n", "32", "--epsilon", "0.5", "--max-attempts"], "max_attempts"),
    (["circuit-check", "--keyset", str(N32), "--count"], "count"),
], ids=lambda value: value if isinstance(value, str) else " ".join(value[:1] + value[-1:]))
@pytest.mark.parametrize("count", [2**63, 10**400], ids=["2^63", "10^400"])
def test_work_counts_past_int64_exit_two_before_any_work(runner, tmp_path, args, name, count):
    out = tmp_path / "out.txt"
    if args[0] == "search":
        args = args[:-1] + ["--out", str(out), args[-1]]
    result = invoke(runner, args + [str(count)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {name} must be below 2^63, got {count}\n"
    assert not out.exists()


def test_the_largest_int64_work_count_is_admitted():
    check_count("shots", 2**63 - 1)
    with pytest.raises(ValueError, match=r"^shots must be below 2\^63, got 9223372036854775808$"):
        check_count("shots", 2**63)


class TestBias:
    def test_fields(self, runner):
        result = invoke(runner, ["bias", "--keyset", str(N32)])
        assert result.exit_code == 0
        report = parse_report(result.output)
        assert report["N"] == "32"
        assert report["d"] == "15"
        assert float(report["delta"]) == pytest.approx(1 / 15)
        assert float(report["padded_delta_sq"]) == pytest.approx(0.00390625)
        assert report["declared_epsilon"] == "0.0039"

    def test_json_identity(self, runner):
        assert_json_matches_text(runner, ["bias", "--keyset", str(N32)])

    def test_parse_error_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("N 8\nd 2\nepsilon -\n1\n")
        result = invoke(runner, ["bias", "--keyset", str(bad)])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = invoke(runner, ["bias", "--keyset", str(tmp_path / "nope.txt")])
        assert result.exit_code == 2

    def test_declared_d_beyond_the_limit_exits_two(self, runner, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("N 8\nd 1099511627776\nepsilon -\n1\n")
        result = invoke(runner, ["bias", "--keyset", str(big)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {big}:2: d = 1099511627776 keys exceeds")


@pytest.mark.parametrize("header,line,message", [
    ("N 1\nd 2", 1, "modulus must be >= 2, got 1"),
    ("N 8\nd 0", 2, "d must be >= 1, got 0"),
    ("N 8\nd -1", 2, "d must be >= 1, got -1"),
], ids=["N 1", "d 0", "d -1"])
@pytest.mark.parametrize("command", [["bias"], ["hash", "--message", "1"]], ids=lambda command: command[0])
def test_a_bad_n_or_d_is_refused_at_its_header_line(runner, tmp_path, command, header, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\nepsilon -\n1\n2\n")
    result = invoke(runner, [command[0], "--keyset", str(path), *command[1:]])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"error: {path}:{line}: {message}\n"


class TestUnrepresentableNumbers:
    """A nan, inf or out-of-range number exits 2; it never reaches a report."""

    def assert_refused(self, runner, args):
        result = invoke(runner, args + ["--format", "json"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "1e400"])
    def test_declared_epsilon(self, runner, tmp_path, epsilon):
        path = tmp_path / "eps.txt"
        path.write_text(f"N 8\nd 2\nepsilon {epsilon}\n1\n2\n")
        self.assert_refused(runner, ["bias", "--keyset", str(path)])

    def test_modulus_beyond_the_float_range(self, runner, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"N {10**400}\nd 2\nepsilon -\n1\n2\n")
        for command in (["bias"], ["hash", "--message", "1"], ["inner", "--m1", "1", "--m2", "2"]):
            self.assert_refused(runner, command + ["--keyset", str(path)])

    def test_population_beyond_the_float_range(self, runner, tmp_path):
        self.assert_refused(runner, ["search", "--mode", "ga", "--n", "64", "--d", "3",
                                     "--population-size", str(10**400), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("part", ["nan", "inf", "1e400"])
    def test_state_dumps(self, runner, tmp_path, part):
        prefix = str(tmp_path / "alice")
        invoke(runner, ["sign", "--keyset", str(N32), "--security-level", "5", "--bit", "0",
                        "--seed", "1", "--out", prefix])
        path = tmp_path / "bad.state"
        lines = Path(prefix + ".pub0").read_text().splitlines()
        path.write_text("\n".join([f"0 {part} 0.0", *lines[1:]]) + "\n")
        self.assert_refused(runner, ["reverse-test", "--keyset", str(N32), "--claim", "1",
                                     "--state", str(path)])
        self.assert_refused(runner, ["verify", "--keyset", str(N32), "--security-level", "5",
                                     "--bit", "0", "--signature", "1", "--public", str(path)])


class TestVerifyTables:
    def test_bundled_default_passes(self, runner):
        result = invoke(runner, ["verify-tables"])
        assert result.exit_code == 0
        report = parse_report(result.output)
        assert report["rows"] == "10"
        assert report["passed"] == "10"
        assert report["failed"] == "0"
        assert result.output.count("status PASS") == 10

    def test_max_n_widens_the_scan(self, runner):
        result = invoke(runner, ["verify-tables", "--max-n", "65536"])
        assert parse_report(result.output)["rows"] == "12"

    def test_bad_declared_value_fails_the_row(self, runner, tmp_path):
        save_keyset(
            KeySet(modulus=32, keys=tuple(range(1, 16))),
            tmp_path / "row.txt",
            declared_epsilon=0.009,
        )
        result = invoke(runner, ["verify-tables", "--fixtures", str(tmp_path)])
        assert result.exit_code == 1
        assert "status FAIL" in result.output

    def test_malformed_fixture_skipped_with_warning(self, runner, tmp_path):
        (tmp_path / "junk.txt").write_text("not a keyset\n")
        save_keyset(
            KeySet(modulus=32, keys=tuple(range(1, 16))),
            tmp_path / "row.txt",
            declared_epsilon=0.0078,
        )
        result = invoke(runner, ["verify-tables", "--fixtures", str(tmp_path)])
        assert "warning: skipping junk.txt" in result.output
        assert parse_report(result.output)["rows"] == "1"

    def test_empty_directory_warns_and_passes(self, runner, tmp_path):
        result = invoke(runner, ["verify-tables", "--fixtures", str(tmp_path)])
        assert result.exit_code == 0
        assert "warning: no table fixtures" in result.output

    def test_empty_directory_warning_in_both_formats(self, runner, tmp_path):
        args = ["verify-tables", "--fixtures", str(tmp_path)]
        warning = f"warning: no table fixtures found under {tmp_path}"
        text = invoke(runner, args)
        assert (text.exit_code, text.stdout) == (0, f"{warning}\nrows 0\npassed 0\nfailed 0\n")
        as_json = invoke(runner, args + ["--format", "json"])
        assert as_json.exit_code == 0
        assert json.loads(as_json.stdout) == {
            "rows_detail": [], "warnings": [warning], "rows": 0, "passed": 0, "failed": 0}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_missing_directory_exits_2(self, runner, tmp_path, fmt):
        missing = tmp_path / "no-such-dir"
        result = invoke(runner, ["verify-tables", "--fixtures", str(missing), "--format", fmt])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {missing}: not a directory\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cap_below_every_row_exits_2(self, runner, fmt):
        result = invoke(runner, ["verify-tables", "--max-n", "1", "--format", fmt])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: no table fixture under {bundled_table_dir()} has N <= 1; "
                                 "the smallest has N = 32\n")

    def test_json_rows(self, runner):
        result = invoke(runner, ["verify-tables", "--format", "json"])
        payload = json.loads(result.output)
        assert len(payload["rows_detail"]) == 10
        assert payload["rows_detail"][0]["row"] == "n32_d15.txt"
        assert payload["rows_detail"][0]["status"] == "PASS"


class TestSearch:
    def test_ga_writes_a_loadable_keyset(self, runner, tmp_path):
        out = tmp_path / "found.txt"
        result = invoke(runner, [
            "search", "--mode", "ga", "--n", "32", "--d", "15",
            "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 0
        report = parse_report(result.output)
        assert report["target_met"] == "1"
        loaded = load_keyset(out)
        assert loaded.keyset.d == 15
        assert repr(loaded.declared_epsilon) == report["achieved_objective"]

    def test_random_mode(self, runner, tmp_path):
        out = tmp_path / "rand.txt"
        result = invoke(runner, [
            "search", "--mode", "random", "--n", "64", "--epsilon", "0.3",
            "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0
        assert load_keyset(out).keyset.d == 108  # the lemma size at (64, 0.3)

    def test_missed_target_exits_one_but_writes(self, runner, tmp_path):
        out = tmp_path / "best.txt"
        result = invoke(runner, [
            "search", "--mode", "ga", "--n", "32", "--d", "15",
            "--epsilon", "1e-09", "--generations", "3", "--seed", "0",
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert parse_report(result.output)["target_met"] == "0"
        assert out.exists()

    def test_progress_stream(self, runner, tmp_path):
        result = invoke(runner, [
            "search", "--mode", "ga", "--n", "32", "--d", "15",
            "--epsilon", "1e-09", "--generations", "3", "--progress",
            "--out", str(tmp_path / "k.txt"),
        ])
        assert result.output.splitlines()[0].startswith("gen 0 best_delta ")

    def test_mode_flag_mismatches_exit_two(self, runner, tmp_path):
        out = str(tmp_path / "k.txt")
        assert invoke(runner, ["search", "--mode", "ga", "--n", "32",
                               "--out", out]).exit_code == 2
        assert invoke(runner, ["search", "--mode", "random", "--n", "32",
                               "--out", out]).exit_code == 2

    def test_replay_is_byte_identical(self, runner, tmp_path):
        args = ["search", "--mode", "ga", "--n", "32", "--d", "15",
                "--seed", "5", "--out", str(tmp_path / "k.txt")]
        assert invoke(runner, args).output == invoke(runner, args).output


class TestHashAndInner:
    def test_state_dump_round_trips(self, runner, tmp_path):
        out = tmp_path / "h.state"
        result = invoke(runner, [
            "hash", "--keyset", str(N32), "--message", "5", "--out", str(out),
        ])
        assert result.exit_code == 0
        psi = load_state(out)
        assert psi.num_qubits == 5
        assert float(np.abs(psi.amplitudes[0])) > 0

    def test_circuit_dump(self, runner):
        result = invoke(runner, [
            "hash", "--keyset", str(N32), "--message", "5", "--dump-circuit",
        ])
        lines = result.output.splitlines()
        assert lines[0] == "qubits 5"
        assert lines[1] == "PREP 15"
        assert sum(1 for line in lines if line.startswith("CRY ")) == 30

    def test_circuit_dump_of_a_non_power_of_two_modulus(self, runner, tmp_path):
        path = tmp_path / "k12.txt"
        save_keyset(KeySet(modulus=12, keys=(1, 2, 5)), path)
        result = invoke(runner, [
            "hash", "--keyset", str(path), "--message", "11", "--dump-circuit",
        ])
        assert (result.exit_code, result.stderr) == (0, "")
        lines = result.output.splitlines()
        assert lines[:2] == ["qubits 3", "PREP 3"]
        # bits 1, 2 and 4 of M = 11 over the n = 4 bits of N = 12: three layers of 3 branches
        assert sum(1 for line in lines if line.startswith("CRY ")) == 9
        # theta = 2 * (2 pi (k 2^{j-1} mod N) / N), in phase_angles' order of operations
        assert lines[2:11] == [f"CRY {i} 0 {2.0 * (2.0 * math.pi * ((k << (j - 1)) % 12) / 12)!r}"
                               for j in (1, 2, 4) for i, k in enumerate((1, 2, 5))]

    def test_message_out_of_range(self, runner):
        assert invoke(runner, [
            "hash", "--keyset", str(N32), "--message", "32",
        ]).exit_code == 2

    @pytest.mark.parametrize("message", ["-1", "32"])
    def test_hash_inner_and_reverse_refuse_a_message_in_one_text(self, runner, message):
        for args in (["hash", "--message", message], ["inner", "--m1", message, "--m2", "0"],
                     ["inner", "--m1", "0", "--m2", message], ["reverse-test", "--claim", message, "--message", "0"]):
            result = invoke(runner, [*args, "--keyset", str(N32)])
            assert (result.exit_code, result.stdout) == (2, ""), args
            assert result.stderr == f"error: message {message} out of range [0, 31]\n", args

    def test_inner_matches_library(self, runner):
        result = invoke(runner, [
            "inner", "--keyset", str(N32), "--m1", "5", "--m2", "9",
        ])
        report = parse_report(result.output)
        expected = hash_inner_product(load_keyset(N32).keyset, 5, 9)
        assert report["inner_product"] == repr(expected)
        assert report["squared"] == repr(expected * expected)


    @pytest.mark.parametrize("modulus,keys,m1,m2,exact", [
        # (N - 3) * m passes 2^63, where int64 products wrap
        (10**12 + 39, (10**12 + 36, 1), 500000012364, 0, -1.0),
        (2**65 + 13, (2**65 - 1, 3, 2**64), 2**64 + 12345, 7, None),
        (2**70, (2**70 - 3, 2**69 + 1), 2**69 + 5, 2**68, None),
    ], ids=["1e12+39", "2^65+13", "2^70"])
    def test_inner_is_exact_at_huge_moduli(self, runner, tmp_path, modulus, keys, m1, m2, exact):
        path = tmp_path / "k.txt"
        save_keyset(KeySet(modulus, keys), path)
        result = invoke(runner, ["inner", "--keyset", str(path),
                                 "--m1", str(m1), "--m2", str(m2)])
        assert result.exit_code == 0
        if exact is None:
            exact = sum(math.cos(math.tau * (k * (m1 - m2) % modulus / modulus)) for k in keys) / len(keys)
        assert float(parse_report(result.output)["inner_product"]) == pytest.approx(exact, abs=1e-9)

    def test_huge_modulus_hash_works_and_bias_exits_two(self, runner, tmp_path):
        path = tmp_path / "k.txt"
        save_keyset(KeySet(2**65, (2**64 + 5, 3)), path)
        hashed = invoke(runner, ["hash", "--keyset", str(path), "--message", str(2**65 - 1)])
        assert hashed.exit_code == 0
        biased = invoke(runner, ["bias", "--keyset", str(path)])
        assert biased.exit_code == 2
        assert biased.stderr.startswith("error: spectrum of 1 x 36893488147419103232 = ")
        assert biased.stderr.endswith("exceeds MAX_SPECTRUM_CELLS = 67108864\n")


class TestEqualityTests:
    def test_swap_test_equal_messages_always_accept(self, runner):
        result = invoke(runner, [
            "swap-test", "--keyset", str(N32), "--m1", "5", "--m2", "5",
            "--shots", "500", "--seed", "1",
        ])
        report = parse_report(result.output)
        assert report["accept_probability"] == "1.0"
        assert report["accepted"] == "500"

    def test_swap_test_seed_echoed_and_replayable(self, runner):
        args = ["swap-test", "--keyset", str(N32), "--m1", "5", "--m2", "9",
                "--shots", "400", "--seed", "42"]
        first = invoke(runner, args)
        assert parse_report(first.output)["seed"] == "42"
        assert first.output == invoke(runner, args).output

    def test_swap_test_json_identity(self, runner):
        assert_json_matches_text(runner, [
            "swap-test", "--keyset", str(N32), "--m1", "5", "--m2", "9",
            "--shots", "200", "--seed", "3",
        ])

    def test_reverse_test_message_form(self, runner):
        result = invoke(runner, [
            "reverse-test", "--keyset", str(N32), "--claim", "5",
            "--message", "9", "--shots", "300", "--seed", "1",
        ])
        report = parse_report(result.output)
        assert float(report["accept_probability"]) == pytest.approx((1 / 15) ** 2)

    def test_reverse_test_state_form_agrees(self, runner, tmp_path):
        state = tmp_path / "h9.state"
        invoke(runner, ["hash", "--keyset", str(N32), "--message", "9",
                        "--out", str(state)])
        from_message = invoke(runner, [
            "reverse-test", "--keyset", str(N32), "--claim", "5",
            "--message", "9", "--shots", "300", "--seed", "1",
        ])
        from_state = invoke(runner, [
            "reverse-test", "--keyset", str(N32), "--claim", "5",
            "--state", str(state), "--shots", "300", "--seed", "1",
        ])
        a = parse_report(from_message.output)
        b = parse_report(from_state.output)
        assert a["accept_probability"] == b["accept_probability"]
        assert a["accepted"] == b["accepted"]

    def test_reverse_test_needs_exactly_one_source(self, runner, tmp_path):
        base = ["reverse-test", "--keyset", str(N32), "--claim", "5"]
        state = tmp_path / "h.state"
        invoke(runner, ["hash", "--keyset", str(N32), "--message", "9",
                        "--out", str(state)])
        for extra in ([], ["--message", "9", "--state", str(state)]):
            result = invoke(runner, base + extra)
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr == "error: need exactly one of --message or --state\n"

    def test_circuit_check_fixed_keyset(self, runner):
        result = invoke(runner, [
            "circuit-check", "--keyset", str(N32), "--count", "10", "--seed", "2",
        ])
        assert result.exit_code == 0
        report = parse_report(result.output)
        assert report["ok"] == "1"
        assert float(report["max_deviation"]) < 1e-10

    def test_circuit_check_random_sets(self, runner):
        result = invoke(runner, [
            "circuit-check", "--n", "64", "--d", "6", "--count", "10", "--seed", "2",
        ])
        assert result.exit_code == 0

    @pytest.mark.parametrize("modulus,d", [(12, 3), (1000, 33), (3, 5), (2**64 + 1, 3), (3 * 2**63, 3), (3**50, 5)])
    def test_circuit_check_random_sets_of_any_modulus(self, runner, modulus, d):
        result = invoke(runner, [
            "circuit-check", "--n", str(modulus), "--d", str(d), "--count", "20", "--seed", "4",
        ])
        assert (result.exit_code, result.stderr) == (0, "")
        worst = per_message_circuit_deviation(make_rng(4), 20, None, modulus, d)
        assert result.stdout == f"count 20\nseed 4\nmax_deviation {worst!r}\nok 1\n"
        assert worst < 1e-10

    @pytest.mark.parametrize("modulus", ["1", "0", "-12"])
    def test_circuit_check_refuses_a_modulus_below_two(self, runner, monkeypatch, modulus):
        monkeypatch.setattr(qsim, "_draw_below", None)  # refused before any draw
        result = invoke(runner, ["circuit-check", "--n", modulus, "--d", "3", "--count", "1"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"error: modulus must be >= 2, got {modulus}\n"

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_circuit_check_refuses_d_below_one(self, runner, monkeypatch, d):
        monkeypatch.setattr(qsim, "_draw_below", None)  # refused before any draw
        result = invoke(runner, ["circuit-check", "--n", "1024", "--d", d, "--count", "1"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"error: d must be >= 1, got {d}\n"

    def test_circuit_check_needs_parameters(self, runner):
        assert invoke(runner, ["circuit-check"]).exit_code == 2

    @pytest.mark.parametrize("d,qubits", [(1 << 40, 41), ((1 << 23) + 1, 25)])
    def test_circuit_check_refuses_an_oversized_register(self, runner, monkeypatch, d, qubits):
        # refused before any key is drawn: 2^40 keys would be 8 TiB
        monkeypatch.setattr(qsim, "_draw_below", None)
        result = invoke(runner, ["circuit-check", "--n", "8", "--d", str(d), "--count", "1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {d} keys need {qubits} qubits; states hold at most MAX_QUBITS = 24\n"
        )

    @pytest.mark.parametrize("args", [
        ["hash", "--message", "1", "--out", "out.state"],
        ["swap-test", "--m1", "1", "--m2", "2"],
        ["reverse-test", "--claim", "1", "--message", "2"],
        ["reverse-test", "--claim", "1", "--state", "missing.state"],
        ["sign", "--security-level", "5", "--bit", "1", "--out", "out"],
        ["verify", "--security-level", "5", "--bit", "1", "--signature", "3", "--public", "missing.pub1"],
        ["circuit-check"],
    ], ids=lambda args: " ".join(args[:3:2]))
    def test_state_commands_refuse_a_register_past_the_cap_first(self, runner, tmp_path, monkeypatch, args):
        # with the cap at 3 qubits the 15 keys of n32_d15 need 5: refused
        # before any draw, state read or file written, and at the d header
        # line, before a file that declares 15 keys over 2 lines is read on
        over = tmp_path / "over.txt"
        over.write_text("N 32\nd 15\nepsilon -\n1\n2\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.setattr(qsim, "MAX_QUBITS", 3)
        monkeypatch.setattr(qsim, "make_rng", None)
        monkeypatch.chdir(work)
        for keys in (N32, over):
            result = invoke(runner, [args[0], "--keyset", str(keys), *args[1:]])
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr == "error: 15 keys need 5 qubits; states hold at most MAX_QUBITS = 3\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["hash", "--message", "1"],
        ["swap-test", "--m1", "1", "--m2", "2"],
        ["reverse-test", "--claim", "1", "--message", "2"],
        ["circuit-check", "--count", "2"],
        ["sign", "--security-level", "5", "--bit", "1", "--out", "again"],
        ["verify", "--security-level", "5", "--bit", "1", "--public", "signed.pub1"],
        ["forge-experiment", "--security-level", "5", "--trials", "10"],
    ], ids=lambda args: args[0])
    def test_state_commands_read_their_key_file_once(self, runner, tmp_path, monkeypatch, args):
        keys = tmp_path / "keys.txt"
        keys.write_bytes(N32.read_bytes())
        monkeypatch.chdir(tmp_path)
        signed = invoke(runner, ["sign", "--keyset", str(keys), "--security-level", "5", "--bit", "1", "--out", "signed"])
        if args[0] == "verify":
            args = [*args, "--signature", parse_report(signed.output)["signature"]]
        reads, opened = [], textfile.TextFile.__init__

        def counted(self, path, *rest):
            reads.append(Path(path))
            opened(self, path, *rest)

        monkeypatch.setattr(textfile.TextFile, "__init__", counted)
        result = invoke(runner, [args[0], "--keyset", str(keys), *args[1:]])
        assert (result.exit_code, result.stderr) == (0, "")
        assert reads.count(keys) == 1

    @pytest.mark.parametrize("bits", [64, 70])
    def test_circuit_check_past_int64(self, runner, tmp_path, bits):
        path = tmp_path / "k.txt"
        save_keyset(KeySet(2**bits, (5, 2**bits - 1, 2**(bits - 1) + 3)), path)
        result = invoke(runner, ["circuit-check", "--keyset", str(path), "--count", "20"])
        assert result.exit_code == 0
        assert float(parse_report(result.output)["max_deviation"]) < 1e-10

    def test_circuit_check_random_sets_past_int64(self, runner):
        result = invoke(runner, ["circuit-check", "--n", str(2**70), "--d", "3", "--count", "20"])
        assert result.exit_code == 0
        assert float(parse_report(result.output)["max_deviation"]) < 1e-10

    @pytest.mark.parametrize("modulus,keys", [
        (12, (1, 2, 5)), (1000, (3, 999, 500, 0)), (3 * 2**20 + 7, (5, 3 * 2**20 + 6)),
        (10**12 + 39, (10**12 + 36, 1)), (2**64 + 1, (5, 7)), (3 * 2**63, (2**64 + 5, 3, 3 * 2**63 - 1)),
        (3**50, (3**49, 2, 3**50 - 1)),
    ])
    def test_circuit_check_sets_of_any_modulus(self, runner, tmp_path, modulus, keys):
        path = tmp_path / "k.txt"
        save_keyset(KeySet(modulus, keys), path)
        result = invoke(runner, ["circuit-check", "--keyset", str(path), "--count", "30", "--seed", "9"])
        assert (result.exit_code, result.stderr) == (0, "")
        worst = per_message_circuit_deviation(make_rng(9), 30, HashParams(KeySet(modulus, keys)))
        assert result.stdout == f"count 30\nseed 9\nmax_deviation {worst!r}\nok 1\n"
        assert worst < 1e-10

    @staticmethod
    def power_of_two_draws(rng, modulus, size=None):
        """The low n bits of ceil(n/64) words, by % N: the draws _draw_below must keep for N = 2^n past 2^63."""
        words = rng.integers(0, 1 << 64, size=(1 if size is None else size, -(-(modulus.bit_length() - 1) // 64)),
                             dtype=np.uint64)
        values = [sum(w << 64 * i for i, w in enumerate(row)) % modulus for row in words.tolist()]
        return values if size is not None else values[0]

    @pytest.mark.parametrize("bits", [64, 70, 130, 200])
    @pytest.mark.parametrize("size", [None, 1, 7, 2000])
    def test_power_of_two_draws_keep_their_values_and_stream(self, bits, size):
        rng, oracle = make_rng(bits), make_rng(bits)
        assert qsim._draw_below(rng, 2**bits, size) == self.power_of_two_draws(oracle, 2**bits, size)
        assert repr(rng.bit_generator.state) == repr(oracle.bit_generator.state)

    @pytest.mark.parametrize("modulus", [3 * 2**63, 2**64 + 1, 2**63 + 1, 3**50])
    def test_draws_below_any_modulus_are_the_masked_words_below_n(self, modulus):
        # each draw is the next word group's low b bits that lands below N: a value >= N is drawn again
        bits = (modulus - 1).bit_length()
        stream = make_rng(11).integers(0, 1 << 64, size=(8000, -(-bits // 64)), dtype=np.uint64).tolist()
        masked = [sum(w << 64 * i for i, w in enumerate(row)) & ((1 << bits) - 1) for row in stream]
        below = [value for value in masked if value < modulus]
        rng = make_rng(11)
        assert [qsim._draw_below(rng, modulus) for _ in range(3)] + qsim._draw_below(rng, modulus, 2000) == below[:2003]

    def test_draws_reach_the_top_of_the_range(self):
        # one 64-bit word per draw, the power-of-two rule's word count here, would never reach [2^64, N)
        modulus = 3 * 2**63
        values = qsim._draw_below(make_rng(3), modulus, 3000)
        assert all(0 <= v < modulus for v in values)
        thirds = np.bincount([v >> 63 for v in values], minlength=3)
        assert len(thirds) == 3 and all(abs(t - 1000) < 4 * math.sqrt(3000 * 2 / 9) for t in thirds), thirds

    def test_draws_past_int64_cover_the_range(self):
        assert np.array_equal(qsim._draw_below(make_rng(3), 2**63, 50), make_rng(3).integers(0, 2**63, size=50))
        keys = qsim._draw_below(make_rng(3), 2**70, 2000)
        assert all(0 <= k < 2**70 for k in keys)
        assert max(keys) >= 2**69 and min(keys) < 2**64
        assert 0 <= qsim._draw_below(make_rng(3), 2**130) < 2**130

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_circuit_check_rejects_an_empty_count(self, runner, count):
        result = invoke(runner, ["circuit-check", "--keyset", str(N32), "--count", count])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: count must be >= 1, got {count}\n"


class TestCircuitCheckBlocks:
    """circuit-check simulates blocks of messages; its report is the one-message-at-a-time one."""

    @staticmethod
    def expected(count, seed, worst, fmt):
        if fmt == "json":
            return json.dumps({"count": count, "seed": seed, "max_deviation": worst, "ok": True}) + "\n"
        return f"count {count}\nseed {seed}\nmax_deviation {worst!r}\nok 1\n"

    @pytest.mark.parametrize("source,block", [
        *((source, block) for source in ("n1024_d65", "64 keys mod 1024") for block in (1, 3, 7, cli.CIRCUIT_BLOCK)),
        ("--n 64 --d 6", cli.CIRCUIT_BLOCK), ("--n 2^70 --d 3", cli.CIRCUIT_BLOCK),  # one message per drawn set
    ])
    def test_report_matches_one_message_at_a_time(self, runner, tmp_path, monkeypatch, source, block):
        fixed, modulus, d = None, None, None
        if source.startswith("--n"):
            modulus, d = (64, 6) if source == "--n 64 --d 6" else (2**70, 3)
            args = ["--n", str(modulus), "--d", str(d)]
        else:
            path = N1024
            if source == "64 keys mod 1024":
                path = tmp_path / "k64.txt"
                save_keyset(KeySet(1024, tuple(int(k) for k in make_rng(64).integers(0, 1024, size=64))), path)
            fixed = HashParams(load_keyset(path).keyset)
            args = ["--keyset", str(path)]
        monkeypatch.setattr(cli, "CIRCUIT_BLOCK", block)
        for count in sorted({1, max(1, block - 1), block, block + 1, 100}):
            for seed, fmt in [(0, "text"), (7, "json")]:
                worst = per_message_circuit_deviation(make_rng(seed), count, fixed, modulus, d)
                result = invoke(runner, ["circuit-check", *args, "--count", str(count),
                                         "--seed", str(seed), "--format", fmt])
                assert (result.exit_code, result.stderr) == (0, "")
                assert result.stdout == self.expected(count, seed, worst, fmt), (count, seed)

    def test_blocks_stay_within_64_messages_and_2_16_amplitudes(self, runner, tmp_path, monkeypatch):
        blocks = []
        simulate = cli.qhash.simulate_circuits
        monkeypatch.setattr(cli.qhash, "simulate_circuits",
                            lambda params, messages: blocks.append((params.s, len(messages))) or simulate(params, messages))
        wide = tmp_path / "d1025.txt"  # 12 qubits: 16 states of 2^12 amplitudes a block
        save_keyset(KeySet(4096, tuple(int(k) for k in make_rng(5).integers(0, 4096, size=1025))), wide)
        for args, expected in [(["--keyset", str(N1024), "--count", "200"], [(8, 64)] * 3 + [(8, 8)]),
                               (["--keyset", str(wide), "--count", "40"], [(12, 16), (12, 16), (12, 8)]),
                               (["--n", "64", "--d", "6", "--count", "3"], [(4, 1)] * 3)]:
            blocks.clear()
            assert invoke(runner, ["circuit-check", *args]).exit_code == 0
            assert blocks == expected

    def test_reports_pinned_to_their_bytes(self, runner):
        result = invoke(runner, ["circuit-check", "--keyset", str(N1024), "--count", "100"])
        assert result.stdout == "count 100\nseed 0\nmax_deviation 3.3393426912553537e-16\nok 1\n"
        result = invoke(runner, ["circuit-check", "--n", "64", "--d", "6", "--count", "65",
                                 "--seed", "7", "--format", "json"])
        assert result.stdout == '{"count": 65, "seed": 7, "max_deviation": 5.967448757360216e-16, "ok": true}\n'

    @pytest.mark.parametrize("extra", [["--n", "12", "--d", "3"], ["--n", "1024"], ["--d", "65"]])
    def test_keyset_with_random_set_options_exits_two(self, runner, extra):
        result = invoke(runner, ["circuit-check", "--keyset", str(N1024), *extra, "--count", "1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: need exactly one of --keyset or --n/--d\n"

    @pytest.mark.parametrize("args", [["--n", "8"], ["--d", "3"], []], ids=["n", "d", "neither"])
    def test_random_set_without_both_options_exits_two(self, runner, args):
        result = invoke(runner, ["circuit-check", *args])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: need exactly one of --keyset or --n/--d\n"


class TestFingerprintCommand:
    @pytest.mark.parametrize("extra", [["--n", "5", "--m", "7"], ["--n", "3"], ["--m", "8"]])
    def test_code_with_random_code_options_exits_two(self, runner, tmp_path, extra):
        out = tmp_path / "code.txt"
        invoke(runner, ["fingerprint", "--n", "3", "--m", "8", "--u", "101", "--v", "100", "--out", str(out)])
        result = invoke(runner, ["fingerprint", "--code", str(out), *extra, "--u", "101", "--v", "100"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: need exactly one of --code or --n/--m\n"

    @pytest.mark.parametrize("args", [["--n", "3"], ["--m", "8"], []], ids=["n", "m", "neither"])
    def test_random_code_without_both_options_exits_two(self, runner, args):
        result = invoke(runner, ["fingerprint", *args, "--u", "101", "--v", "100"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: need exactly one of --code or --n/--m\n"

    def test_generated_code_round_trips(self, runner, tmp_path):
        out = tmp_path / "code.txt"
        result = invoke(runner, [
            "fingerprint", "--n", "4", "--m", "12", "--u", "1011", "--v", "1001",
            "--shots", "300", "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0
        code = load_code(out)
        assert (code.n, code.m) == (4, 12)
        report = parse_report(result.output)
        assert "min_distance" in report
        assert "resistance" in report

    def test_code_file_input(self, runner, tmp_path):
        out = tmp_path / "code.txt"
        invoke(runner, ["fingerprint", "--n", "3", "--m", "8", "--u", "101",
                        "--v", "101", "--seed", "2", "--out", str(out)])
        result = invoke(runner, [
            "fingerprint", "--code", str(out), "--u", "101", "--v", "101",
            "--shots", "100", "--seed", "0",
        ])
        report = parse_report(result.output)
        assert report["inner_product"] == "1.0"
        assert report["accepted"] == "100"

    def test_needs_code_or_shape(self, runner):
        assert invoke(runner, [
            "fingerprint", "--u", "101", "--v", "100",
        ]).exit_code == 2

    @pytest.mark.parametrize("n,m,message", [
        ("1", str(1 << 40), "needs 40 qubits"),
        ("17", str(1 << 24), "exceeds MAX_GENERATOR_BYTES"),
    ])
    def test_oversized_code_exits_two(self, runner, n, m, message):
        # refused before the generator is drawn: 2^40 entries would be 1 TiB
        result = invoke(runner, ["fingerprint", "--n", n, "--m", m, "--u", "1", "--v", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert message in result.stderr

    def test_bad_bits_exit_two(self, runner):
        assert invoke(runner, [
            "fingerprint", "--n", "3", "--m", "8", "--u", "10", "--v", "100",
        ]).exit_code == 2

    def test_declared_code_shape_beyond_the_limit_exits_two(self, runner, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("n 1\nm 1099511627776\n1\n")
        result = invoke(runner, ["fingerprint", "--code", str(big), "--u", "1", "--v", "0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {big}:2: m = 1099511627776 needs 40 qubits")

    def test_codeword_table_beyond_the_limit_is_left_out(self, runner):
        # a 16 MiB generator whose 2^16 codewords would take 8 GiB
        result = invoke(runner, [
            "fingerprint", "--n", "16", "--m", str(1 << 20), "--u", "1010101010101010",
            "--v", "0101010101010101", "--shots", "10", "--format", "json",
        ])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert (report["n"], report["m"], report["shots"]) == (16, 1 << 20, 10)
        assert "min_distance" not in report and "resistance" not in report


class TestSignatureCommands:
    def test_sign_verify_round_trip(self, runner, tmp_path):
        prefix = str(tmp_path / "alice")
        signed = invoke(runner, [
            "sign", "--keyset", str(N1024), "--security-level", "1024",
            "--bit", "1", "--seed", "11", "--out", prefix,
        ])
        assert signed.exit_code == 0
        report = parse_report(signed.output)
        verified = invoke(runner, [
            "verify", "--keyset", str(N1024), "--security-level", "1024",
            "--bit", "1", "--signature", report["signature"],
            "--public", report["public1"], "--seed", "1",
        ])
        assert verified.exit_code == 0
        assert parse_report(verified.output)["accepted"] == "1"

    def test_sign_verify_round_trip_past_int64(self, runner, tmp_path):
        # L = N = 2^100: private numbers past numpy's int64 draws
        keys, prefix, level = tmp_path / "k.txt", str(tmp_path / "alice"), str(2**100)
        save_keyset(KeySet(2**100, (5, 2**100 - 1, 2**99 + 3)), keys)
        signed = invoke(runner, ["sign", "--keyset", str(keys), "--security-level", level,
                                 "--bit", "1", "--seed", "11", "--out", prefix])
        assert (signed.exit_code, signed.stderr) == (0, "")
        report = parse_report(signed.output)
        verified = invoke(runner, ["verify", "--keyset", str(keys), "--security-level", level, "--bit", "1",
                                   "--signature", report["signature"], "--public", report["public1"]])
        assert (verified.exit_code, verified.stderr) == (0, "")
        assert parse_report(verified.output)["accepted"] == "1"

    def test_wrong_signature_rejects(self, runner, tmp_path):
        prefix = str(tmp_path / "alice")
        signed = invoke(runner, [
            "sign", "--keyset", str(N1024), "--security-level", "1024",
            "--bit", "0", "--seed", "11", "--out", prefix,
        ])
        report = parse_report(signed.output)
        wrong = 1 + (int(report["signature"]) % 1024)
        verified = invoke(runner, [
            "verify", "--keyset", str(N1024), "--security-level", "1024",
            "--bit", "0", "--signature", str(wrong),
            "--public", report["public0"], "--seed", "1",
        ])
        assert verified.exit_code == 1
        assert parse_report(verified.output)["accepted"] == "0"

    def test_signature_out_of_range_exits_two(self, runner, tmp_path):
        prefix = str(tmp_path / "alice")
        invoke(runner, ["sign", "--keyset", str(N1024), "--security-level",
                        "1024", "--bit", "0", "--seed", "1", "--out", prefix])
        assert invoke(runner, [
            "verify", "--keyset", str(N1024), "--security-level", "1024",
            "--bit", "0", "--signature", "2000", "--public", prefix + ".pub0",
        ]).exit_code == 2

    def test_forge_experiment_summary(self, runner):
        result = invoke(runner, [
            "forge-experiment", "--keyset", str(N1024), "--security-level",
            "1024", "--trials", "200", "--seed", "9",
        ])
        assert result.exit_code == 0
        report = parse_report(result.output)
        assert report["trials"] == "200"
        assert float(report["predicted"]) == pytest.approx(0.0079, abs=2e-4)

    def test_forge_experiment_log(self, runner):
        result = invoke(runner, [
            "forge-experiment", "--keyset", str(N32), "--security-level", "16",
            "--trials", "10", "--seed", "1", "--log",
        ])
        trial_lines = [l for l in result.output.splitlines()
                       if l.startswith("trial ")]
        assert len(trial_lines) == 10

    def test_forge_experiment_replay(self, runner):
        args = ["forge-experiment", "--keyset", str(N32), "--security-level",
                "16", "--trials", "50", "--seed", "4", "--log"]
        assert invoke(runner, args).output == invoke(runner, args).output

    @pytest.mark.parametrize("trials", [1, 2, 4, 5, 11])
    def test_forge_experiment_log_streams_the_report(self, runner, monkeypatch, trials):
        # Chunks of 4 put the draw and print batch edges inside the log.
        args = ["forge-experiment", "--keyset", str(N1024), "--security-level", "1000",
                "--trials", str(trials), "--seed", "3", "--log"]
        whole = [invoke(runner, args + ["--format", fmt]).stdout for fmt in ("text", "json")]
        monkeypatch.setattr(sig_mod, "DRAW_CHUNK", 4)
        text, as_json = (invoke(runner, args + ["--format", fmt]).stdout for fmt in ("text", "json"))
        params = sig_mod.ProtocolParams(HashParams(load_keyset(N1024).keyset), 1000)
        records = keygen_verify_records(params, trials, make_rng(3))
        log = trial_log(records)
        successes = sum(accepted for _, _, accepted in records)
        pairs = {"security_level": 1000, "trials": trials, "seed": 3, "successes": successes,
                 "rate": successes / trials, "predicted": sig_mod.forgery_prediction(params)}
        assert text == "".join(f"{line}\n" for line in log) + "".join(f"{k} {v!r}\n" for k, v in pairs.items())
        assert as_json == json.dumps({"trials_detail": log, **pairs}) + "\n"
        assert [text, as_json] == whole

    @pytest.mark.parametrize("level", ["1", "1000", "1024"])
    def test_forge_experiment_report_is_the_full_tables(self, runner, monkeypatch, level):
        # gathering only the reachable offsets leaves every byte as a full N-entry table gives it
        args = ["forge-experiment", "--keyset", str(N1024), "--security-level", level,
                "--trials", "300", "--seed", "5"]
        variants = [args + extra for extra in ([], ["--log"], ["--format", "json"],
                                               ["--log", "--format", "json"])]
        reachable = [invoke(runner, v).stdout for v in variants]
        monkeypatch.setattr(sig_mod, "_overlap_table", lambda keyset, _level: (
            fourier_components(keyset, np.arange(keyset.modulus)).real / keyset.d) ** 2)
        assert [invoke(runner, v).stdout for v in variants] == reachable

    def test_forge_experiment_refuses_an_oversized_table_before_its_offsets(self, runner, tmp_path):
        path = tmp_path / "k.txt"
        save_keyset(KeySet(2**40, (5, 7)), path)
        result = invoke(runner, ["forge-experiment", "--keyset", str(path), "--security-level", str(2**40)])
        assert result.exit_code == 2
        assert result.stderr.endswith("exceeds MAX_SPECTRUM_CELLS = 67108864\n")

    def test_forge_experiment_json_identity(self, runner):
        assert_json_matches_text(runner, [
            "forge-experiment", "--keyset", str(N32), "--security-level", "16",
            "--trials", "50", "--seed", "4",
        ])
