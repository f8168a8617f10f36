"""Mangled text artifacts raise HashExitError and nothing else.

Each of the three text loaders (hash table, embeddings, corpus, the last
both plain and labeled) starts from a file its own saver wrote; Hypothesis then cuts it,
flips bytes in it, inserts lines into it, or rewrites one of its fields
(header and count fields included) as a negative, huge or non-numeric
value.
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


LOADERS = {
    "hash-table": (_table, load_hash_table),
    "embeddings": (_embeddings, load_embeddings),
    "corpus": (_corpus, load_corpus),
    "labeled-corpus": (_labeled_corpus, lambda p: load_corpus(p, labeled=True)),
}

# a replacement for one field: negative, huge, any integer, or any text
FIELD = st.one_of(st.integers(-10 ** 13, -1).map(str),
                  st.just(str(10 ** 12)),
                  st.integers(0, 10 ** 13).map(str),
                  st.text(max_size=12))


@pytest.fixture(scope="module", params=sorted(LOADERS))
def saved(request, tmp_path_factory):
    save, load = LOADERS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "artifact.txt"
    save(path)
    load(path)  # the unmangled file loads
    return path, path.read_bytes(), load


def load_or_typed_error(saved, data):
    path, _, load = saved
    path.write_bytes(data)
    try:
        load(path)
    except HashExitError:
        pass


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
    lines = saved[1].decode("utf-8").split("\n")
    lines.insert(at % (len(lines) + 1), line)
    load_or_typed_error(saved, "\n".join(lines).encode("utf-8", "replace"))


@FUZZ
@given(row=st.integers(0, 10 ** 6), col=st.integers(0, 10 ** 6),
       value=FIELD)
def test_field(saved, row, col, value):
    """One whitespace-separated field, in the header or a later line,
    replaced by `value`; the separators around it are kept."""
    lines = saved[1].decode("utf-8").split("\n")
    row %= len(lines) - 1  # the last entry is the empty tail after "\n"
    parts = re.split(r"(\s+)", lines[row])  # fields at the even indices
    parts[2 * (col % ((len(parts) + 1) // 2))] = value
    lines[row] = "".join(parts)
    load_or_typed_error(saved, "\n".join(lines).encode("utf-8", "replace"))
