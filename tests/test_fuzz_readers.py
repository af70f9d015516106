"""Mutated key sets, codes and state dumps through every CLI command that reads them.

Whatever the mutation, a command must end in exit 0, 1 or 2 without a
traceback, and a JSON report must parse without NaN or Infinity.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qhashlab import HashParams, bundled_table_dir, dump_state, hash_state, load_keyset, load_state, make_rng
from qhashlab import load_code, qsim, random_linear_code, save_code
from qhashlab import textfile
from qhashlab.cli import main

from conftest import per_line_load_code, per_line_load_keyset, per_line_load_state

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


@st.composite
def interleaved(draw, data):
    """data with comment and blank lines put between its lines, each line ended by LF, CRLF or a lone CR."""
    out = []
    for line in data.split(b"\n"):
        out += draw(st.lists(st.sampled_from([b"", b"  \t", b"# note", b"   # 1 2 3"]), max_size=2))
        out.append(line.rstrip(b"\r"))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=len(out), max_size=len(out)))
    return b"".join(line + end for line, end in zip(out, ends))


@st.composite
def edged(draw, data):
    """data with one token set to a value at the edge of a range the loaders check, such as a code row of n +- 1 bits."""
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split()
    if fields:
        edge = [b"-1", b"0", b"31", b"32", b"15", b"16", b"9223372036854775808", b"1_0", b"0x1f",
                b"101", b"0110", b"10011"]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(edge))
        lines[i] = b" ".join(fields)
    return b"\n".join(lines)


def outcome(loader, path):
    """What a loader gives: the loaded value's bytes, or the type and message of its error."""
    try:
        loaded = loader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    if loader in (load_state, per_line_load_state):
        return loaded.num_qubits, loaded.amplitudes.tobytes()
    if loader in (load_code, per_line_load_code):
        return loaded.n, loaded.m, loaded.generator.tobytes()
    return loaded.keyset.modulus, loaded.keyset.keys, repr(loaded.declared_epsilon)


LOADERS = {"keyset": (load_keyset, per_line_load_keyset), "state": (load_state, per_line_load_state),
           "code": (load_code, per_line_load_code)}


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(data=st.data())
def test_block_loaders_match_the_per_line_loaders(files, data):
    base, originals = files
    kind = data.draw(st.sampled_from(sorted(LOADERS)))
    content = originals[kind]
    for change in (mutated, edged, interleaved):
        if data.draw(st.booleans()):
            content = data.draw(change(content))
    path = base / "differential.txt"
    path.write_bytes(content)
    block, per_line = LOADERS[kind]
    # blocks of one line up to the default; 12 and 60 characters hold 2-3 key or state lines
    chars = data.draw(st.sampled_from([1, 12, 60, textfile.BLOCK_CHARS]))
    # a register of 2^4 amplitudes holds half the 2^5 lines of a dump
    max_qubits = data.draw(st.sampled_from([4, 5, qsim.MAX_QUBITS]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textfile, "BLOCK_CHARS", chars)
        patch.setattr(qsim, "MAX_QUBITS", max_qubits)
        assert outcome(block, path) == outcome(per_line, path)

