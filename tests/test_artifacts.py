"""The artifact layer: one module opens every file, its writers copy no
tensor, and the text writers either refuse a value or give it back."""

import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hashexit.corpus import Corpus, load_corpus, save_corpus
from hashexit.encoder import load_model, random_model, save_model
from hashexit.errors import InputError, ParseError
from hashexit.hashing import (EmbeddingTable, HashTable, load_embeddings,
                              load_hash_table, save_embeddings,
                              save_hash_table, serialize_hash_table)

SRC = Path(__file__).resolve().parents[1] / "src" / "hashexit"

ROUND_TRIP = settings(derandomize=True, database=None, max_examples=150,
                      deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def lines_outside_artifacts(pattern):
    """`file:line` of each source line outside artifacts.py that matches."""
    found = re.compile(pattern)
    return sorted(
        f"{path.name}:{lineno}"
        for path in SRC.glob("*.py") if path.name != "artifacts.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), start=1)
        if found.search(line))


def test_only_artifacts_module_touches_files():
    assert lines_outside_artifacts(r"\bopen\(|\bnp\.fromfile\b|\.tofile\b") == []


INTEGER_DTYPES = {f"{sign}int{bits}" for sign in ("", "u")
                  for bits in (8, 16, 32, 64)} | {"intp"}


def parameters_cast_to_integers(tree):
    """`line` of each place that passes a function parameter, or an
    attribute of one, straight to np.asarray/np.array(..., dtype=np.<int>)
    or to .astype(np.<int>), for any numpy integer dtype: a cast that
    truncates floats, wraps what the dtype cannot hold and reads bools as
    integers."""

    def is_integer_dtype(node):
        return (isinstance(node, ast.Attribute) and node.attr in INTEGER_DTYPES
                and isinstance(node.value, ast.Name) and node.value.id == "np")

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        args = func.args
        params = {a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)}
        params.update(a.arg for a in (args.vararg, args.kwarg) if a)
        for call in ast.walk(func):
            if not isinstance(call, ast.Call) or not isinstance(
                    call.func, ast.Attribute):
                continue
            if (call.func.attr in ("asarray", "array")
                    and root(call.func) == "np" and call.args
                    and any(k.arg == "dtype" and is_integer_dtype(k.value)
                            for k in call.keywords)):
                value = call.args[0]
            elif (call.func.attr == "astype" and call.args
                    and is_integer_dtype(call.args[0])):
                value = call.func.value
            else:
                continue
            if root(value) in params:
                found.append(call.lineno)
    return sorted(set(found))


def test_integer_boundaries_read_through_int_vector():
    # errors.int_vector is the one place a caller's values become integers;
    # anywhere else such a cast would truncate floats, wrap large values
    # and read bools
    found = [f"{path.name}:{line}"
             for path in SRC.glob("*.py") if path.name != "errors.py"
             for line in parameters_cast_to_integers(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_int64_rule_finds_casts():
    tree = ast.parse(
        "def f(a, b, *, c):\n"
        "    x = np.asarray(a, dtype=np.int64)\n"
        "    y = b.astype(np.int64)\n"
        "    z = np.array(c.field, dtype=np.int64)\n"
        "    w = np.asarray(len(a), dtype=np.int64)\n"
        "    v = np.asarray(a, dtype=np.float64)\n"
        "    u = np.asarray(c, dtype=np.int8)\n"
        "    return lambda q: q.astype(np.int64)\n")
    assert parameters_cast_to_integers(tree) == [2, 3, 4, 7, 8]


def test_only_artifacts_module_splits_header_fields():
    # the key=value header grammar has one home: no other module takes a
    # header field apart at "="
    assert lines_outside_artifacts(r"""\.r?(partition|split)\(\s*["']=["']""") == []


@pytest.mark.parametrize("save, load, header, field", [
    (lambda path: save_model(random_model(2, 1, 4, 1, 8), path), load_model,
     (b" L=1 d=4 ", b" L=7 L=1 d=4 "), "L"),
    (lambda path: save_embeddings(EmbeddingTable(
        ("a", "b"), np.ones((2, 3))), path), load_embeddings,
     (b" V=2 d=3", b" V=9 V=2 d=3"), "V"),
    (lambda path: save_hash_table(HashTable(
        "frequency", 1, 2, 0, ("a",), np.zeros(1, dtype=np.int64)), path),
     load_hash_table, (b" B=1 L=2 ", b" B=1 B=1 L=2 "), "B"),
], ids=["model", "embeddings", "hash-table"])
def test_repeated_header_field_is_parse_error(tmp_path, save, load, header,
                                              field):
    path = tmp_path / "artifact"
    save(path)
    data = path.read_bytes()
    assert data.count(header[0]) == 1
    path.write_bytes(data.replace(*header))
    with pytest.raises(ParseError, match=f"header repeats field {field}$"):
        load(path)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_copy_no_tensor(tmp_path):
    model = random_model(4000, 1, 64, 2, 128, seed=3)
    emb = EmbeddingTable(tuple(f"t{i}" for i in range(4000)),
                         np.random.default_rng(3).normal(size=(4000, 64)))
    largest = model.embedding.nbytes  # 2 MB, the largest tensor of both
    for save, artifact in ((save_model, model), (save_embeddings, emb)):
        peak = traced_peak(lambda: save(artifact, tmp_path / "artifact.bin"))
        assert peak < largest / 2, save.__name__


# Text of one example: for about half the examples, words free of
# whitespace; for the rest, any short text with tabs, line breaks and other
# whitespace made likely, which the writers mostly refuse.
WORD = st.text(st.characters(exclude_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
               min_size=1, max_size=4)
ANY = st.text(st.one_of(st.characters(),
                        st.sampled_from("\t\n\r \x0b\x1c\x85\u2028ab")),
              max_size=5)
TEXTS = st.sampled_from([WORD, st.one_of(WORD, ANY)])


@ROUND_TRIP
@given(text=TEXTS, data=st.data())
def test_hash_table_round_trip(tmp_path, text, data):
    tokens = data.draw(st.lists(text, min_size=1, max_size=6))
    buckets = data.draw(st.integers(1, 4))
    layers = data.draw(st.integers(buckets, 8))
    path = tmp_path / "table.hash"
    try:
        table = HashTable(
            method=data.draw(st.sampled_from(["frequency", "mi", "rand-cons"])),
            num_buckets=buckets, num_layers=layers,
            seed=data.draw(st.integers(-5, 2 ** 40)), tokens=tuple(tokens),
            buckets=data.draw(st.lists(st.integers(0, buckets - 1),
                                       min_size=len(tokens),
                                       max_size=len(tokens))))
        save_hash_table(table, path)
    except InputError:
        return
    assert serialize_hash_table(load_hash_table(path)) == \
        serialize_hash_table(table)


@ROUND_TRIP
@given(text=TEXTS, labeled=st.booleans(), data=st.data())
def test_corpus_round_trip(tmp_path, text, labeled, data):
    documents = data.draw(st.lists(st.lists(text, max_size=4), max_size=5))
    labels = None
    if labeled:
        labels = data.draw(st.lists(text | st.just(""), min_size=len(documents),
                                    max_size=len(documents)))
    corpus = Corpus(documents, labels=labels)
    path = tmp_path / "corpus.txt"
    try:
        save_corpus(corpus, path)
    except InputError:
        return
    assert load_corpus(path, labeled=labeled) == corpus
