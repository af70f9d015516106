"""The one line reader under the key-set, code and state-dump loaders.

Blank lines and lines whose first non-blank character is ``#`` are
skipped; named ``<name> <value>`` header lines come first, in order.
Lines are read one at a time, so a loader checks declared sizes first.
Files must be UTF-8 text; number() refuses a float that is not finite.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator


class TextFile:
    """Iterating yields ``(lineno, fields, raw)`` per data line; raw keeps its line end."""

    def __init__(self, path: str | Path, error: type[ValueError] = ValueError) -> None:
        self.path = Path(path)
        self.error = error
        self._lines = self._data_lines()

    def _data_lines(self) -> Iterator[tuple[int, list[str], str]]:
        with self.path.open(encoding="utf-8") as file:
            try:
                for lineno, raw in enumerate(file, start=1):
                    fields = raw.split()
                    if fields and not fields[0].startswith("#"):
                        yield lineno, fields, raw
            except UnicodeDecodeError as exc:
                raise self.fail(f"not UTF-8 text ({exc.reason})") from None

    def __iter__(self) -> Iterator[tuple[int, list[str], str]]:
        return self._lines

    def fail(self, message: str, lineno: int | None = None, raw: str | None = None) -> ValueError:
        """The loader's error, prefixed ``path:line:``, quoting raw if given."""
        where = self.path if lineno is None else f"{self.path}:{lineno}"
        got = "" if raw is None else ", got " + repr(raw.rstrip("\n"))
        return self.error(f"{where}: {message}{got}")

    def header(self, *names: str) -> list[tuple[int, str]]:
        """(lineno, value) of each named header line, in the given order."""
        values = []
        for name in names:
            line = next(self._lines, None)
            if line is None:
                raise self.fail(f"truncated header (need {', '.join(names)} lines)")
            lineno, fields, raw = line
            if len(fields) != 2 or fields[0] != name:
                raise self.fail(f"expected '{name} <value>' header", lineno, raw)
            values.append((lineno, fields[1]))
        return values

    def number(self, name: str, text: str, lineno: int, kind: type = int):
        """text as an int (or a finite float), else the error naming the field and its line."""
        try:
            value = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise self.fail(f"{name} must be {what}, got {text!r}", lineno) from None
        if kind is float and not math.isfinite(value):
            raise self.fail(f"{name} must be finite, got {text!r}", lineno)
        return value
