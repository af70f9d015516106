"""The one module that reads and writes the key-set, code and state-dump line formats.

Blank lines and lines whose first non-blank character is ``#`` are
skipped; named ``<name> <value>`` header lines come first, in order.
Lines are read in readlines blocks of about BLOCK_CHARS characters; a
loader checks the sizes its header declares before it converts or
stores any data line.  TextFile.fill() converts a block of data
lines at once, and otherwise runs the loader's per-line rule over the
block for its first bad line's diagnostic.  Files must be UTF-8 text;
number() refuses a float that is not finite.  write_lines() writes a
file's header, then formats and writes its rows a block at a time.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator

# Characters per block read, and format characters per block written:
# a block's lines and fields stay near 0.1 MiB.
BLOCK_CHARS = 1 << 13


class Block:
    """Raw lines read at once, raws[0] at line number start; rows: each data line's fields."""

    def __init__(self, start: int, raws: list[str], rows: list[list[str]]) -> None:
        self.start, self.raws, self.rows = start, raws, rows

    def lines(self) -> Iterator[tuple[int, list[str], str]]:
        """``(lineno, fields, raw)`` per data line; raw keeps its line end."""
        for lineno, raw in enumerate(self.raws, self.start):
            if (fields := raw.split()) and fields[0][0] != "#":
                yield lineno, fields, raw

    def columns(self, kinds: tuple[Callable, ...], room: int, high: int | None) -> list[list] | None:
        """The rows' columns, each converted by its kind in one map; None unless every row has one field
        per kind and each converts, there are at most room rows and column 0 lies in [0, high), if high is given."""
        try:
            fields = zip(kinds, zip(*self.rows, strict=True), strict=True)
            columns = [list(map(kind, column)) for kind, column in fields]
        except ValueError:
            return None
        in_range = high is None or min(columns[0]) >= 0 and max(columns[0]) < high
        return columns if len(self.rows) <= room and in_range else None


class TextFile:
    """Iterating yields ``(lineno, fields, raw)`` per data line; fill() stores them a block at a time.

    A loader reads its header(), then either iterates line by line or
    hands fill() its per-line rule: a block whose columns convert is
    stored whole, and a refused one is walked line by line until the
    rule raises that block's first bad line's diagnostic.
    """

    def __init__(self, path: str | Path, error: type[ValueError] = ValueError) -> None:
        self.path = Path(path)
        self.error = error
        self._blocks = self._read_blocks(BLOCK_CHARS)

    def _read_blocks(self, hint: int) -> Iterator[Block]:
        start = 1
        try:
            with self.path.open(encoding="utf-8") as file:
                while raws := file.readlines(hint):
                    rows = [fields for fields in map(str.split, raws) if fields and fields[0][0] != "#"]
                    if rows:
                        yield Block(start, raws, rows)
                    start += len(raws)
            return
        except UnicodeDecodeError as exc:
            if hint == 1:
                raise self.fail(f"not UTF-8 text ({exc.reason})") from None
        # Re-read from the failing block's first line a line at a time (readlines(1) returns one
        # line, or blank lines and then one), so the lines decoded before the bad chunk come first.
        yield from (block for block in self._read_blocks(1) if block.start + len(block.raws) > start)

    def fill(self, kinds: tuple[Callable, ...], limit: int, high: int | None, stores: tuple[Callable, ...], rule: Callable):
        """Hand each data block's columns after the header to stores, one list per kind.

        A kind converts a field or raises ValueError.  A block goes whole
        when Block.columns accepts it: every line has one field per kind
        and converts, at most limit lines in all, and column 0 in
        [0, high) unless high is None.  Otherwise rule(stored, lineno, fields, raw)
        runs over that block's lines, stored counting the lines before
        each; the rule must raise the first bad line's diagnostic.
        """
        stored = 0
        for block in self._blocks:
            columns = block.columns(kinds, limit - stored, high)
            if columns is None:
                for stored, line in enumerate(block.lines(), stored):
                    rule(stored, *line)
                raise AssertionError(f"{self.path}: a block the per-line rules pass failed its batch check")
            for store, column in zip(stores, columns):
                store(column)
            stored += len(columns[0])

    def __iter__(self) -> Iterator[tuple[int, list[str], str]]:
        return chain.from_iterable(block.lines() for block in self._blocks)

    def fail(self, message: str, lineno: int | None = None, raw: str | None = None) -> ValueError:
        """The loader's error, prefixed ``path:line:``, quoting raw if given."""
        where = self.path if lineno is None else f"{self.path}:{lineno}"
        got = "" if raw is None else ", got " + repr(raw.rstrip("\n"))
        return self.error(f"{where}: {message}{got}")

    def check(self, lineno: int, rule: Callable, *args) -> None:
        """Run rule(*args); a ValueError it raises becomes the loader's error at lineno, in its words."""
        try:
            rule(*args)
        except ValueError as exc:
            raise self.fail(str(exc), lineno) from None

    def header(self, *names: str) -> list[tuple[int, str]]:
        """(lineno, value) of each named header line, in the given order; data lines follow."""
        values: list[tuple[int, str]] = []
        for block in self._blocks:
            for taken, (lineno, fields, raw) in enumerate(block.lines()):
                if len(values) == len(names):  # hand the rest of this block to the data readers
                    rest = Block(lineno, block.raws[lineno - block.start :], block.rows[taken:])
                    self._blocks = chain([rest], self._blocks)
                    return values
                if len(fields) != 2 or fields[0] != names[len(values)]:
                    raise self.fail(f"expected '{names[len(values)]} <value>' header", lineno, raw)
                values.append((lineno, fields[1]))
            if len(values) == len(names):
                return values
        raise self.fail(f"truncated header (need {', '.join(names)} lines)")

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


def write_lines(path: str | Path, header: tuple[tuple[str, object], ...], line: str, *columns) -> None:
    """Write ``<name> <value>`` header lines, then ``line % row`` for each row of the columns.

    Row i holds entry i of each column in turn; a lone 2-D column gives
    its whole row i.  Rows are formatted and written max(1, BLOCK_CHARS
    // len(line)) at a time.  A numpy column is read through tolist() a
    block at a time, so %r prints Python floats; other columns (a tuple
    of Python ints, a range) are sliced as they are.
    """
    rows = max(1, BLOCK_CHARS // len(line))
    with Path(path).open("w", encoding="utf-8") as file:
        file.writelines(f"{name} {value}\n" for name, value in header)
        for start in range(0, len(columns[0]), rows):
            block = [column[start : start + rows] for column in columns]
            values = [part.ravel().tolist() if hasattr(part, "ravel") else part for part in block]
            flat = values[0] if len(values) == 1 else chain.from_iterable(zip(*values))
            file.write(line * len(block[0]) % tuple(flat))
