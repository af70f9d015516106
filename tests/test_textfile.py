"""The line rules the key-set, code and state-dump loaders and writers share."""

import os
import re
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from qhashlab import (KeySet, KeySetFormatError, dump_state, load_code, load_keyset, load_state, save_code,
                      save_keyset)
from qhashlab import textfile
from qhashlab.fingerprint import LinearCode
from qhashlab.qsim import StateVector
from qhashlab.textfile import TextFile

# loader, a valid file as its lines, and what to compare of the result
FORMATS = {
    "keyset": (load_keyset, ["N 8", "d 2", "epsilon 0.5", "1", "2"],
               lambda r: (r.keyset, r.declared_epsilon)),
    "code": (load_code, ["n 2", "m 3", "10", "01", "11"],
             lambda r: (r.n, r.m, r.generator.tolist())),
    "state": (load_state, ["0 0.6 0.0", "1 0.0 -0.8"],
              lambda r: r.amplitudes.tolist()),
}

VARIANTS = {
    "indented comment": lambda lines: [lines[0], "   \t# a comment", *lines[1:]],
    "blank with spaces": lambda lines: [lines[0], "  \t ", *lines[1:], "   "],
    "crlf": lambda lines: lines,
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_shared_skipping_rules(tmp_path, fmt, variant):
    loader, lines, view = FORMATS[fmt]
    plain, varied = tmp_path / "plain.txt", tmp_path / "varied.txt"
    plain.write_text("\n".join(lines) + "\n")
    end = "\r\n" if variant == "crlf" else "\n"
    varied.write_bytes((end.join(VARIANTS[variant](lines)) + end).encode())
    assert view(loader(varied)) == view(loader(plain))


@pytest.mark.parametrize("fmt", FORMATS)
def test_crlf_is_not_quoted_in_diagnostics(tmp_path, fmt):
    loader, lines, _ = FORMATS[fmt]
    path = tmp_path / "bad.txt"
    path.write_bytes("\r\n".join([*lines[:-1], "1 2 3 4"]).encode() + b"\r\n")
    with pytest.raises(ValueError, match=r"bad\.txt:\d+: .*'1 2 3 4'$"):
        loader(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_non_utf8_text_is_the_loaders_error(tmp_path, fmt):
    loader, lines, _ = FORMATS[fmt]
    path = tmp_path / "bad.txt"
    path.write_bytes(("\n".join(lines) + "\n").encode() + b"\xff\xfe\n")
    with pytest.raises(ValueError, match=r"bad\.txt: not UTF-8 text \(invalid start byte\)$"):
        loader(path)


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-Infinity", "1e400", "-1e400"])
def test_non_finite_numbers_are_refused_at_their_line(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(f"N 8\nd 2\nepsilon {text}\n1\n2\n")
    message = rf"bad\.txt:3: epsilon must be finite, got '{re.escape(text)}'$"
    with pytest.raises(KeySetFormatError, match=message):
        load_keyset(path)


def line_by_line(path):
    """The data lines a plain line-at-a-time read yields before any decoding error."""
    got = []
    with open(path, encoding="utf-8") as file:
        try:
            for lineno, raw in enumerate(file, start=1):
                fields = raw.split()
                if fields and not fields[0].startswith("#"):
                    got.append((lineno, fields, raw))
        except UnicodeDecodeError:
            pass
    return got


@pytest.mark.parametrize("chars", [1, 40, 60, 1 << 13, 1 << 16])
@pytest.mark.parametrize("blank_first", [True, False])
def test_lines_before_an_undecodable_chunk_come_first_in_any_block(tmp_path, monkeypatch, chars, blank_first):
    # Blank and data lines alternate over about 15 KB; the stray byte sits
    # in the second 8 KiB decode chunk, so the lines of the first come first.
    lines = [b"" if (i % 2 == 0) == blank_first else b"%d 1 2" % i for i in range(3000)]
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "stray.txt"
    path.write_bytes(data[:12000] + b"\xff" + data[12000:])
    want = line_by_line(path)
    assert 500 < len(want) < 1500
    monkeypatch.setattr(textfile, "BLOCK_CHARS", chars)
    seen = []
    with pytest.raises(ValueError, match=r"stray\.txt: not UTF-8 text \(invalid start byte\)$"):
        seen.extend(TextFile(path))
    assert seen == want


# Each writer's whole-file expression from before textfile wrote a block at a time: the reference bytes.
def whole_keyset(keyset, epsilon):
    eps_text = "-" if epsilon is None else repr(float(epsilon))
    lines = [f"N {keyset.modulus}", f"d {keyset.d}", f"epsilon {eps_text}"]
    lines.extend(str(k) for k in keyset.keys)
    return "\n".join(lines) + "\n"


def whole_code(code):
    lines = [f"n {code.n}", f"m {code.m}"]
    lines.extend("".join(str(int(b)) for b in row) for row in code.generator)
    return "\n".join(lines) + "\n"


def whole_state(psi):
    amp = psi.amplitudes
    flat = chain.from_iterable(zip(range(amp.size), amp.real.tolist(), amp.imag.tolist()))
    return "%d %r %r\n" * amp.size % tuple(flat)


def keyset_of(rows):
    """rows keys mod 2^65, repeats and keys from 2^63 up among them."""
    keys = [2**64 + 5, 0, 2**63, 2**65 - 1, 3, 2**63 - 1, 2**64]
    return KeySet(2**65, tuple(keys[i % len(keys)] for i in range(rows)))


def code_of(rows):
    n = 1 if rows == 1 else 3
    return LinearCode(n, rows, np.random.default_rng(rows).integers(0, 2, size=(rows, n), dtype=np.uint8))


def state_of(rows):
    """A dump of rows lines with -0.0, subnormal and zero parts and a third of its amplitudes zero."""
    amp = np.exp(1j * np.arange(rows)) * (np.arange(rows) % 3 != 1)
    amp[0] = complex(1.0, -0.0)
    amp /= np.linalg.norm(amp)
    amp[1] = complex(-0.0, 5e-324)
    return StateVector(rows.bit_length() - 1, amp)


# (rows written, rows a block holds): one row, and a block minus one, exactly and plus one.
AROUND_A_BLOCK = [(1, 5), (4, 5), (5, 5), (6, 5)]
# A dump has a power of two of lines, at least two, so its blocks are sized around 8 lines instead.
AROUND_A_DUMP = [(2, 3), (8, 9), (8, 8), (8, 7)]


@pytest.mark.parametrize("rows,block", AROUND_A_BLOCK)
@pytest.mark.parametrize("epsilon", [None, -0.0, 1e-300, 0.0123456789])
def test_keyset_bytes_match_the_whole_file_expression(tmp_path, monkeypatch, rows, block, epsilon):
    monkeypatch.setattr(textfile, "BLOCK_CHARS", block * len("%d\n"))
    keyset, path = keyset_of(rows), tmp_path / "k.txt"
    save_keyset(keyset, path, declared_epsilon=epsilon)
    assert path.read_bytes() == whole_keyset(keyset, epsilon).encode()


@pytest.mark.parametrize("rows,block", AROUND_A_BLOCK)
def test_code_bytes_match_the_whole_file_expression(tmp_path, monkeypatch, rows, block):
    code, path = code_of(rows), tmp_path / "c.txt"
    monkeypatch.setattr(textfile, "BLOCK_CHARS", block * (2 * code.n + 1))  # "%d" per bit, then "\n"
    save_code(code, path)
    assert path.read_bytes() == whole_code(code).encode()


@pytest.mark.parametrize("rows,block", AROUND_A_DUMP)
def test_state_bytes_match_the_whole_file_expression(tmp_path, monkeypatch, rows, block):
    monkeypatch.setattr(textfile, "BLOCK_CHARS", block * len("%d %r %r\n"))
    psi, path = state_of(rows), tmp_path / "s.txt"
    dump_state(psi, path)
    assert path.read_bytes() == whole_state(psi).encode()
    assert load_state(path).amplitudes.tobytes() == psi.amplitudes.tobytes()


def test_blocks_hold_block_chars_of_format_and_one_row_at_least(tmp_path, monkeypatch):
    monkeypatch.setattr(textfile, "BLOCK_CHARS", 30)
    reads = []

    class Column(list):
        def __getitem__(self, key):
            reads.append((key.start, key.stop))
            return list.__getitem__(self, key)

    textfile.write_lines(tmp_path / "narrow.txt", (("x", 1), ("y", "-")), "%d\n", Column(range(25)))
    assert reads == [(0, 10), (10, 20), (20, 30)]
    assert (tmp_path / "narrow.txt").read_text() == "x 1\ny -\n" + "".join(f"{i}\n" for i in range(25))
    reads.clear()
    wide = "%d" + " " * 40 + "%r\n"  # longer than a block: one row at a time
    textfile.write_lines(tmp_path / "wide.txt", (), wide, Column(range(3)), np.array([0.5, -0.0, 2.0]))
    assert reads == [(0, 1), (1, 2), (2, 3)]
    assert (tmp_path / "wide.txt").read_text() == wide * 3 % (0, 0.5, 1, -0.0, 2, 2.0)


# Each writer's data, built before tracing starts, and its call.
WRITERS = {
    "dump_state": ("from qhashlab import dump_state\n"
                   "from qhashlab.qsim import StateVector\n"
                   "amp = np.exp(1j * np.arange(1 << 17)) * (np.arange(1 << 17) % 3 != 1)\n"
                   "psi = StateVector(17, amp / np.linalg.norm(amp))\n"
                   "write = lambda path: dump_state(psi, path)\n"),
    "save_keyset": ("from qhashlab import KeySet, save_keyset\n"
                    "keyset = KeySet(1 << 30, tuple(range(7, 1 << 30, 1 << 10)))\n"
                    "write = lambda path: save_keyset(keyset, path, declared_epsilon=0.5)\n"),
    "save_code": ("from qhashlab import make_rng, random_linear_code, save_code\n"
                  "code = random_linear_code(1024, 2048, make_rng(1))\n"
                  "write = lambda path: save_code(code, path)\n"),
}


@pytest.mark.slow
@pytest.mark.parametrize("writer", WRITERS)
def test_writers_hold_one_block_not_the_file(tmp_path, writer):
    # 2^17 amplitudes, 2^20 keys, a 2048-row code of 1024 bits: formatted
    # whole, they peaked at 19.5, 86.0 and 6.1 MiB traced; a block at a
    # time, at 0.16 MiB at most.
    code = (
        "import sys, tracemalloc\n"
        "import numpy as np\n"
        f"{WRITERS[writer]}"
        "write(sys.argv[1])\n"  # a warm-up call, so first-use allocations are not counted
        "tracemalloc.start()\n"
        "write(sys.argv[1])\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out.txt")], capture_output=True,
                         text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 1 << 20
