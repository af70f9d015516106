"""The line rules the key-set, code and state-dump loaders share."""

import re

import pytest

from qhashlab import KeySetFormatError, load_code, load_keyset, load_state
from qhashlab import textfile
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
