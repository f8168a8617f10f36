"""The one module that opens files, and the rules its formats share.

Text files (hash tables, corpora, difficulty datasets, reports) are UTF-8
with "\\n" line ends, written whole by `write_text`; each format keeps its
row layout next to its type. Artifacts are read back split only at "\\n"
(`split_lines`); corpora, being user text, split at any line break.
Tokens are non-empty and free of whitespace, and other tab-separated
fields hold no tab or line break. Models, token embeddings and hash tables
open with one header line, `<magic> key=value ...` (`format_header`,
`parse_header`). Models and embeddings share one binary codec,
`BinaryFormat`: that header, raw little-endian float64 blocks sized by
it, then, for embeddings, UTF-8 token lines.

Each text record, the last one included, ends with "\\n", so a file of
zero records is empty. A writer refuses anything its format cannot hold
with an InputError, before it opens the file. Integers are read only in
the form `str` writes them (`parse_ints`), so a header or table that
loads saves back as the same bytes. Tests hold two rules: no other module
opens a file, and no other module splits a header field on "=".
"""

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, ParseError

HEADER_MAX = 256  # bytes of a binary header line, its newline included


def check_tokens(tokens):
    """InputError unless every token is non-empty and free of whitespace."""
    # split() drops empty strings and breaks on every character isspace()
    # accepts, so the joined tokens split back into themselves iff all obey
    if " ".join(tokens).split() != list(tokens):
        bad = next(t for t in tokens if t.split() != [t])
        raise InputError(f"token {bad!r} is empty or contains whitespace")


def index_tokens(tokens):
    """Each token's position, for distinct tokens that obey `check_tokens`."""
    check_tokens(tokens)
    index = {t: i for i, t in enumerate(tokens)}
    if len(index) != len(tokens):
        twice = next(t for i, t in enumerate(tokens) if index[t] != i)
        raise InputError(f"token {twice!r} appears more than once")
    return index


def check_field(value, what):
    """InputError if `value` would split its tab-separated line."""
    if "\t" in value or "".join(value.splitlines()) != value:
        raise InputError(f"{what} {value!r} holds a tab or a line break")


def write_text(path, text):
    """Write `text` as UTF-8, encoded before the file is opened."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


@contextmanager
def open_text(path):
    """`path` opened as UTF-8 text with its line ends kept as they are;
    undecodable bytes are a ParseError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def parse_ints(texts, signed=False):
    """The ints that `str` writes as the strings of the list `texts`:
    ASCII digits with no leading zero, sign, padding or underscore, and a
    leading "-" only if `signed`, so that a value parses only in the one
    form the writers give it. Anything else is a ValueError whose second
    argument is the index of the first text that breaks the rule. Each
    distinct text is parsed once."""
    values, bad = {}, []
    for text in set(texts):
        try:
            values[text] = number = int(text)
        except ValueError:
            bad.append(text)
            continue
        if str(number) != text or number < 0 and not signed:
            bad.append(text)
    if bad:
        first = min(map(texts.index, bad))
        raise ValueError(f"{texts[first]!r} is not a plain decimal integer",
                         first)
    return list(map(values.__getitem__, texts))


def format_header(magic, fields, values):
    """The line `magic key=value ...` for each key in `fields`, unended."""
    return " ".join([magic] + [f"{key}={values[key]}" for key in fields])


def parse_header(line, magic, fields, kind, text=(), signed=()):
    """The values of a `format_header` line by key: ints (`parse_ints`,
    negative only for the keys in `signed`), or strings for the keys in
    `text`. Another magic, or a field that is unknown, repeated, missing
    or not such an integer, is a ParseError naming `kind`."""
    if not line.startswith(magic + " "):
        raise ParseError(f"not a {kind} file (bad magic header)")
    values = {}
    for part in line[len(magic) + 1:].split(" "):
        key, _, value = part.partition("=")
        if key not in fields:
            raise ParseError(f"{kind} header has unknown field {part!r}")
        if key in values:
            raise ParseError(f"{kind} header repeats field {key}")
        try:
            values[key] = (value if key in text
                           else parse_ints([value], signed=key in signed)[0])
        except ValueError:
            raise ParseError(f"{kind} header field {part!r} is not "
                             "key=integer") from None
    missing = [key for key in fields if key not in values]
    if missing:
        raise ParseError(f"{kind} header is missing {missing[0]}")
    return values


@dataclass(frozen=True)
class BinaryFormat:
    """Header `magic k=int ...` with one value per name in `fields` (each
    >= 1, or >= 0 if in `zero_ok`), then `floats(meta)` float64s, then
    text lines if `has_lines`. A file that opens with another line, an
    older format's included, is a ParseError from the magic check. `kind`
    and `contents` name the file and its floats in errors."""

    kind: str
    magic: str
    fields: tuple
    floats: Callable
    contents: str
    zero_ok: tuple = ()
    has_lines: bool = False

    def write(self, path, meta, blocks, lines=()):
        """The header, each of `blocks` from its own memory, then `lines`."""
        head = format_header(self.magic, self.fields, meta)
        tail = "".join(f"{line}\n" for line in lines).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(head.encode("ascii") + b"\n")
            for arr in blocks:
                np.ascontiguousarray(arr, "<f8").tofile(fh)
            fh.write(tail)

    @contextmanager
    def read(self, path):
        """Yield the header's fields and the file at its first block, once
        the file holds the declared floats (and, without lines, no more)."""
        with open(path, "rb") as fh:
            line = fh.readline(HEADER_MAX)
            meta = self._parse_header(line)
            want = 8 * self.floats(meta)
            got = os.fstat(fh.fileno()).st_size - len(line)
            if got < want:
                raise ParseError(f"{self.kind} file is truncated: its header "
                                 f"declares {want} bytes of {self.contents}, "
                                 f"the file holds {got}")
            if got > want and not self.has_lines:
                raise ParseError(f"{self.kind} file has {got - want} trailing "
                                 "bytes after the last tensor")
            yield meta, fh

    def _parse_header(self, line):
        meta = parse_header(line.decode("ascii", "replace").removesuffix("\n"),
                            self.magic, self.fields, self.kind)
        if not line.endswith(b"\n"):
            raise ParseError(f"{self.kind} header line does not end within "
                             f"{HEADER_MAX} bytes")
        for key in self.fields:
            if meta[key] < (0 if key in self.zero_ok else 1):
                raise ParseError(f"{self.kind} header field {key}={meta[key]} "
                                 "is out of range")
        return meta


def read_floats(fh, name, *shape):
    """The next block as a float64 array of `shape`, whole and finite."""
    count = math.prod(shape)
    arr = np.fromfile(fh, "<f8", count)
    if arr.size != count:
        raise ParseError(f"tensor {name} is truncated")
    if not np.isfinite(arr).all():
        raise ParseError(f"tensor {name} holds a non-finite weight")
    return arr.reshape(shape)


def split_lines(text, error):
    """The lines of `text`, split only at the "\\n" that must end each one
    (a "\\r" or other break stays in its line, for the format to refuse);
    a last line without it is ParseError(`error`)."""
    lines = text.split("\n")
    if lines.pop():
        raise ParseError(error)
    return lines


def read_lines(fh, count, what):
    """The rest of the file as exactly `count` UTF-8 lines ended by "\\n"."""
    error = (f"{what} are not the {count} lines, each ended by a line break, "
             "that the header declares")
    try:
        lines = split_lines(fh.read().decode("utf-8"), error)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} are not UTF-8 text: {exc.reason}") from None
    if len(lines) != count:
        raise ParseError(error)
    return lines
