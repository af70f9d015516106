"""The line rules the key-set, code and state-dump loaders share."""

import pytest

from qhashlab import load_code, load_keyset, load_state

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
