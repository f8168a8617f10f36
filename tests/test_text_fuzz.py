"""Mangled line-based artifacts raise HashExitError and nothing else.

Each loader (hash table, corpus both plain and labeled, and embeddings,
whose binary file starts with a header line and ends with token lines)
starts from a file its own saver wrote; Hypothesis then cuts it, flips
bytes in it, inserts lines into it, or rewrites one of its
whitespace-separated fields (header and count fields included) as a
negative, huge or non-numeric value. A mangled table or embeddings file
that still loads must save back as the same bytes. Lines are split and
joined again with surrogateescape, so bytes that are not UTF-8, like the
embeddings' float blocks, pass through unchanged.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hashexit.corpus import Corpus, load_corpus, save_corpus
from hashexit.errors import HashExitError
from hashexit.hashing import (EmbeddingTable, HashTable, load_embeddings,
                              load_hash_table, save_embeddings,
                              save_hash_table)

FUZZ = settings(derandomize=True, database=None, max_examples=60,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

TOKENS = ("the", "a", "cat", "sat", "mat")


def _table(path):
    save_hash_table(HashTable(method="frequency", num_buckets=3, num_layers=4,
                              seed=0, tokens=TOKENS,
                              buckets=np.array([0, 0, 1, 2, 2])), path)


def _embeddings(path):
    vectors = np.random.default_rng(0).normal(size=(len(TOKENS), 3))
    save_embeddings(EmbeddingTable(TOKENS, vectors), path)


def _corpus(path):
    save_corpus(Corpus([["the", "cat"], ["a", "mat", "sat"]]), path)


def _labeled_corpus(path):
    save_corpus(Corpus([["the", "cat"], ["a", "mat", "sat"]],
                       labels=["0", "1"]), path)


# (writer, loader, saver of what loads); corpora have no saver here, since
# they drop blank lines and normalize whitespace by design
LOADERS = {
    "hash-table": (_table, load_hash_table, save_hash_table),
    "embeddings": (_embeddings, load_embeddings, save_embeddings),
    "corpus": (_corpus, load_corpus, None),
    "labeled-corpus": (_labeled_corpus, lambda p: load_corpus(p, labeled=True),
                       None),
}

# a replacement for one field: negative, huge, any integer, or any text
FIELD = st.one_of(st.integers(-10 ** 13, -1).map(str),
                  st.just(str(10 ** 12)),
                  st.integers(0, 10 ** 13).map(str),
                  st.text(max_size=12))


@pytest.fixture(scope="module", params=sorted(LOADERS))
def saved(request, tmp_path_factory):
    write, load, save = LOADERS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "artifact"
    write(path)
    load(path)  # the unmangled file loads
    return path, path.read_bytes(), load, save


def load_or_typed_error(saved, data):
    """Load `data`: a typed error, or, where the artifact has a saver, a
    file that saves back as `data`."""
    path, _, load, save = saved
    path.write_bytes(data)
    try:
        loaded = load(path)
    except HashExitError:
        return
    if save is not None:
        save(loaded, path)
        assert path.read_bytes() == data


@FUZZ
@given(cut=st.integers(0, 10 ** 6))
def test_truncation(saved, cut):
    data = saved[1]
    load_or_typed_error(saved, data[:cut % len(data)])


@FUZZ
@given(at=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
def test_byte_flip(saved, at, mask):
    flipped = bytearray(saved[1])
    flipped[at % len(flipped)] ^= mask
    load_or_typed_error(saved, bytes(flipped))


@FUZZ
@given(at=st.integers(0, 10 ** 6), line=st.text(max_size=40))
def test_inserted_line(saved, at, line):
    lines = saved[1].decode("utf-8", "surrogateescape").split("\n")
    lines.insert(at % (len(lines) + 1), line)
    load_or_typed_error(saved, "\n".join(lines).encode("utf-8",
                                                       "surrogateescape"))


@FUZZ
@given(row=st.integers(0, 10 ** 6), col=st.integers(0, 10 ** 6),
       value=FIELD)
def test_field(saved, row, col, value):
    """One whitespace-separated field, in the header or a later line,
    replaced by `value`; the separators around it are kept."""
    lines = saved[1].decode("utf-8", "surrogateescape").split("\n")
    row %= len(lines) - 1  # the last entry is the empty tail after "\n"
    parts = re.split(r"(\s+)", lines[row])  # fields at the even indices
    parts[2 * (col % ((len(parts) + 1) // 2))] = value
    lines[row] = "".join(parts)
    load_or_typed_error(saved, "\n".join(lines).encode("utf-8",
                                                       "surrogateescape"))
