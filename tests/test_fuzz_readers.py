"""Mutated key sets, codes and state dumps through every CLI command that reads them.

Whatever the mutation, a command must end in exit 0, 1 or 2 without a
traceback, and a JSON report must parse without NaN or Infinity.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qhashlab import HashParams, bundled_table_dir, dump_state, hash_state, load_keyset, make_rng
from qhashlab import random_linear_code, save_code
from qhashlab.cli import main

N32 = bundled_table_dir() / "n32_d15.txt"
HUGE = ["1" + "0" * 400, "18446744073709551616", "4294967296", "65536", "-7", "0"]
NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400"]
EXTRA = ["0", "1", "x", "-1", "0.5", "#"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The valid files the mutations start from, plus a directory for results."""
    base = tmp_path_factory.mktemp("fuzz")
    code, state = base / "code.txt", base / "state.txt"
    save_code(random_linear_code(4, 8, make_rng(1)), code)
    dump_state(hash_state(HashParams(load_keyset(N32).keyset), 1), state)
    originals = {"keyset": N32.read_bytes(), "code": code.read_bytes(), "state": state.read_bytes()}
    return base, originals


def commands(kind, path, work, state):
    """Every command reading a file of this kind, with that file in its place."""
    if kind == "code":
        return [["fingerprint", "--code", path, "--u", "1010", "--v", "0110", "--shots", "10"]]
    if kind == "state":
        return [["reverse-test", "--keyset", str(N32), "--claim", "1", "--state", path, "--shots", "10"],
                ["verify", "--keyset", str(N32), "--security-level", "5", "--bit", "0",
                 "--signature", "1", "--public", path]]
    return [["bias", "--keyset", path],
            ["verify-tables", "--fixtures", str(work)],
            ["hash", "--keyset", path, "--message", "3", "--dump-circuit"],
            ["inner", "--keyset", path, "--m1", "1", "--m2", "2"],
            ["swap-test", "--keyset", path, "--m1", "1", "--m2", "2", "--shots", "10"],
            ["reverse-test", "--keyset", path, "--claim", "1", "--message", "2", "--shots", "10"],
            ["circuit-check", "--keyset", path, "--count", "2"],
            ["sign", "--keyset", path, "--security-level", "5", "--bit", "0", "--out", str(work / "s")],
            ["verify", "--keyset", path, "--security-level", "5", "--bit", "0", "--signature", "1",
             "--public", str(state)],
            ["forge-experiment", "--keyset", path, "--security-level", "5", "--trials", "10", "--log"]]


@st.composite
def mutated(draw, original):
    """original with one to three token or line mutations, then a line-end or byte one."""
    lines = [line.split() for line in original.decode().splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["non-finite", "huge", "swap", "extra", "duplicate", "drop"]))
        # a huge value goes into the header lines, which come first
        i = draw(st.integers(0, min(2, len(lines) - 1) if op == "huge" else len(lines) - 1))
        if op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            if lines[i] and draw(st.booleans()):
                lines[i] = lines[i][::-1]
            else:
                lines[i], lines[j] = lines[j], lines[i]
        elif op == "extra":
            lines[i] = lines[i] + [draw(st.sampled_from(EXTRA))]
        elif op == "duplicate":
            lines.insert(i, list(lines[i]))
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op in ("huge", "non-finite") and lines[i]:
            k = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][k] = draw(st.sampled_from(HUGE if op == "huge" else NON_FINITE))
    data = "".join(" ".join(fields) + "\n" for fields in lines).encode()
    ending = draw(st.sampled_from(["lf", "crlf", "cut", "stray byte"]))
    if ending == "crlf":
        data = data.replace(b"\n", b"\r\n")
    elif ending == "cut":
        data = data[: draw(st.integers(0, len(data)))]
    elif ending == "stray byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x82"])) + data[at:]
    return data


def refuse_constant(name):
    raise ValueError(f"report holds {name}")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_files_end_in_a_report_or_an_error(files, data):
    base, originals = files
    kind = data.draw(st.sampled_from(sorted(originals)))
    fmt = data.draw(st.sampled_from(["text", "json"]))
    work = base / "work" / "tables"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "n32_d15.txt"
    path.write_bytes(data.draw(mutated(originals[kind])))
    runner = CliRunner()
    for args in commands(kind, str(path), work, base / "state.txt"):
        result = runner.invoke(main, args + ["--format", fmt])
        assert result.exit_code in (0, 1, 2), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args, repr(result.exception))
        assert "Traceback" not in result.output
        if result.exit_code == 2:
            assert result.stderr.startswith(("error: ", "Usage: ")), (args, result.stderr)
        elif fmt == "json":
            json.loads(result.stdout, parse_constant=refuse_constant)
