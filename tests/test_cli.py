import argparse
import hashlib
import inspect
import struct
import warnings

import numpy as np
import pytest

from hashexit import cli, encoder, experiments, hashing
from hashexit.cli import main
from hashexit.corpus import Corpus, save_corpus, zipf_corpus
from hashexit.encoder import (classify, forward, random_model, save_model,
                              schedule)
from hashexit.flops import ModelDims, report
from hashexit.hashing import (
    CorpusStats,
    EmbeddingTable,
    HashTable,
    Vocab,
    build_frequency,
    load_hash_table,
    save_embeddings,
    save_hash_table,
    serialize_hash_table,
)

from helpers import greedy_batches


FIXTURE_FREQS = {"a": 100, "b": 50, "c": 40, "d": 10, "e": 5, "f": 1}


def write_fixture_corpus(path):
    doc = []
    for token, count in FIXTURE_FREQS.items():
        doc.extend([token] * count)
    save_corpus(Corpus(documents=[doc]), path)


def run(argv):
    return main([str(a) for a in argv])


def sha256s(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


class TestBuildHash:
    def test_frequency_matches_library(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        write_fixture_corpus(corpus)
        code = run(["build-hash", "--method", "frequency", "--buckets", 3,
                    "--layers", 6, "--corpus", corpus, "--out-dir", tmp_path])
        assert code == 0
        vocab = Vocab(tuple("abcdef"))
        stats = CorpusStats(np.array([100, 50, 40, 10, 5, 1]), doc_count=1)
        expect = serialize_hash_table(build_frequency(vocab, stats, 3, 6))
        assert (tmp_path / "table.hash").read_text() == expect
        out = capsys.readouterr().out
        assert "bucket 0 -> layer 1: 2 tokens" in out

    def test_random_inconsistent_writes_pair(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        save_corpus(Corpus(documents=[[f"t{i}" for i in range(16)]]), corpus)
        code = run(["build-hash", "--method", "random", "--consistent",
                    "false", "--buckets", 4, "--layers", 8,
                    "--corpus", corpus, "--out-dir", tmp_path, "--seed", 5])
        assert code == 0
        train = load_hash_table(tmp_path / "table.hash.train")
        infer = load_hash_table(tmp_path / "table.hash.infer")
        assert train.method == "rand-incons-A"
        assert infer.method == "rand-incons-B"
        # the train table's histogram, then both paths
        assert capsys.readouterr().out == "".join(
            f"bucket {b} -> layer {1 + 2 * b}: 4 tokens\n" for b in range(4)
        ) + (f"wrote {tmp_path / 'table.hash.train'} and "
             f"{tmp_path / 'table.hash.infer'}\n")

    def test_too_many_buckets(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        write_fixture_corpus(corpus)
        code = run(["build-hash", "--method", "random", "--buckets", 13,
                    "--layers", 12, "--corpus", corpus, "--out-dir", tmp_path])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_mi_requires_labeled(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        write_fixture_corpus(corpus)
        code = run(["build-hash", "--method", "mi", "--buckets", 2,
                    "--layers", 4, "--corpus", corpus, "--out-dir", tmp_path])
        assert code == 1
        assert "--labeled" in capsys.readouterr().err

    def test_mi_with_labels(self, tmp_path):
        corpus = tmp_path / "c.tsv"
        save_corpus(Corpus(documents=[["x", "z"], ["y", "z"]],
                           labels=["1", "0"]), corpus)
        code = run(["build-hash", "--method", "mi", "--labeled",
                    "--buckets", 3, "--layers", 3, "--corpus", corpus,
                    "--out-dir", tmp_path])
        assert code == 0
        assert load_hash_table(tmp_path / "table.hash").method == "mi"

    def test_clustered_requires_embeddings(self, tmp_path, capsys):
        code = run(["build-hash", "--method", "clustered", "--buckets", 2,
                    "--layers", 4, "--out-dir", tmp_path])
        assert code == 1
        assert "--embeddings" in capsys.readouterr().err

    def test_clustered_from_embeddings(self, tmp_path):
        emb_path = tmp_path / "emb.txt"
        rng = np.random.default_rng(0)
        emb = EmbeddingTable(tuple("abcdef"), rng.normal(size=(6, 4)))
        save_embeddings(emb, emb_path)
        code = run(["build-hash", "--method", "clustered", "--buckets", 2,
                    "--layers", 4, "--embeddings", emb_path,
                    "--out-dir", tmp_path])
        assert code == 0
        assert load_hash_table(tmp_path / "table.hash").method == "clustered"

    def test_clustered_checks_buckets_first(self, tmp_path, capsys,
                                            monkeypatch):
        emb_path = tmp_path / "emb.txt"
        save_embeddings(EmbeddingTable(tuple("abc"), np.eye(3)), emb_path)

        def no_kmeans(*args, **kwargs):
            raise AssertionError("k-means ran on a rejected bucket count")

        monkeypatch.setattr("hashexit.hashing.kmeans", no_kmeans)
        for buckets in (0, 3):
            code = run(["build-hash", "--method", "clustered", "--buckets",
                        buckets, "--layers", 2, "--embeddings", emb_path,
                        "--out-dir", tmp_path])
            assert code == 1
            assert "need 1 <= buckets <= layers" in capsys.readouterr().err

    def test_missing_corpus_flag(self, tmp_path, capsys):
        code = run(["build-hash", "--method", "frequency", "--buckets", 2,
                    "--layers", 4, "--out-dir", tmp_path])
        assert code == 1
        assert "--corpus" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        corpus = tmp_path / "c.txt"
        write_fixture_corpus(corpus)
        for sub in ("one", "two"):
            run(["build-hash", "--method", "random", "--buckets", 3,
                 "--layers", 6, "--corpus", corpus, "--seed", 9,
                 "--out-dir", tmp_path / sub])
        assert (tmp_path / "one" / "table.hash").read_bytes() == \
            (tmp_path / "two" / "table.hash").read_bytes()

    # sha256 of the tables the fixture below gives, recorded with builders
    # that worked a token at a time (a counting loop, one MI call per
    # token, k-means distances over an (n, k, dim) tensor); the array-wide
    # builders must reproduce them byte for byte
    GOLDEN = {
        "frequency.hash":
            "366cd4650b6b137d9db5f846e9fce3c13a3cfae539b80e2a25a45191c0edfa2d",
        "mi.hash":
            "5e729fab34881c079b86749379af18b0160237ec3d7d4facbc80156f90f0d741",
        "clustered.hash":
            "a640278069d36044b81a8faf9add2ccfaf69d82fb5c7e2052e48893c0fbe4d53",
    }

    # the same at a size where k-means stops at its 50-sweep cap, recorded
    # with `np.unique` presence and MI grouping and k-means distances in
    # an (n, k) array scanned by `argmin` and `np.partition`
    GOLDEN_CAPPED = {
        "frequency.hash":
            "41a5f32a046ac4d4be4311b6c3a2994eba2e11bc5ec63be5cea409b17ea80c14",
        "mi.hash":
            "96734db8aa603d12b722bfee6371967f4d4ed20653111a9a87cc2d621100d2fd",
        "clustered.hash":
            "541ba35aae41f5776d5b4f086f68e3efa1b25a150137ac4292948aa2d011319e",
    }

    @staticmethod
    def build_golden(tmp_path, corpus, vectors):
        """The frequency, MI and clustered tables of `corpus` and of
        `vectors`, each built by `build-hash` into `tmp_path`."""
        save_corpus(corpus, tmp_path / "labeled.tsv")
        save_corpus(Corpus(corpus.documents), tmp_path / "docs.txt")
        width = len(str(len(vectors) - 1))
        tokens = tuple(f"w{i:0{width}d}" for i in range(len(vectors)))
        save_embeddings(EmbeddingTable(tokens, vectors), tmp_path / "emb.txt")
        common = ["--buckets", 3, "--layers", 12, "--out-dir", tmp_path]
        for argv in (
            ["--method", "frequency", "--corpus", tmp_path / "docs.txt",
             "--out", "frequency.hash"],
            ["--method", "mi", "--labeled", "--corpus",
             tmp_path / "labeled.tsv", "--out", "mi.hash"],
            ["--method", "clustered", "--embeddings", tmp_path / "emb.txt",
             "--seed", 5, "--out", "clustered.hash"],
        ):
            assert run(["build-hash", *argv, *common]) == 0

    def test_golden_tables(self, tmp_path):
        corpus = zipf_corpus(600, 150, seed=21, min_len=8, max_len=80,
                             labeled=True)
        vectors = np.random.default_rng(2022).normal(size=(600, 16))
        self.build_golden(tmp_path, corpus, vectors)
        assert sha256s(tmp_path, self.GOLDEN) == self.GOLDEN

    def test_golden_tables_at_the_sweep_cap(self, tmp_path, monkeypatch):
        sweeps = []
        nearest = hashing._nearest
        monkeypatch.setattr(hashing, "_nearest",
                            lambda *args: sweeps.append(1) or nearest(*args))
        corpus = zipf_corpus(3000, 400, seed=30, min_len=8, max_len=120,
                             labeled=True)
        vectors = np.random.default_rng(2030).normal(size=(5000, 32))
        self.build_golden(tmp_path, corpus, vectors)
        assert len(sweeps) == 50
        assert sha256s(tmp_path, self.GOLDEN_CAPPED) == self.GOLDEN_CAPPED


def predict_one(model, ids, table):
    """The class infer predicts for one document, run as a batch of one."""
    sched = schedule(ids, table, model.num_layers, pin_first=True)
    final = forward(model, ids, sched).final
    return int(np.argmax(classify(model, final[:1])))


def make_model_and_table(tmp_path, seed=0):
    vocab = Vocab(tuple("abcdef"))
    model = random_model(6, 3, 8, 2, 16, seed=seed, num_classes=2)
    model_path = tmp_path / "model.bin"
    save_model(model, model_path)
    table = HashTable(method="rand-cons", num_buckets=3, num_layers=3,
                      seed=0, tokens=vocab.tokens,
                      buckets=np.array([0, 0, 1, 1, 2, 2]))
    table_path = tmp_path / "table.hash"
    save_hash_table(table, table_path)
    return model, model_path, table, table_path, vocab


class TestInfer:
    def test_predictions_match_library(self, tmp_path, capsys):
        model, model_path, table, table_path, vocab = make_model_and_table(tmp_path)
        docs = [["a", "b", "c"], ["f", "e"], ["d"]]
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=docs), corpus_path)
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 0
        lines = (tmp_path / "predictions.tsv").read_text().splitlines()
        for i, doc in enumerate(docs):
            want = predict_one(model, vocab.ids_for(doc), table)
            assert lines[i] == f"{i}\t{want}"

    def test_no_documents_write_no_predictions(self, tmp_path, capsys):
        _, model_path, _, table_path, _ = make_model_and_table(tmp_path)
        corpus_path = tmp_path / "docs.txt"
        corpus_path.write_text("")
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "predictions.tsv").read_bytes() == b""

    def test_labeled_reports_accuracy(self, tmp_path, capsys):
        _, model_path, _, table_path, _ = make_model_and_table(tmp_path)
        corpus_path = tmp_path / "docs.tsv"
        save_corpus(Corpus(documents=[["a", "b"], ["c"]], labels=["0", "1"]),
                    corpus_path)
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--labeled",
                    "--out-dir", tmp_path])
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out

    def test_all_empty_labeled_corpus_is_one_error(self, tmp_path, capsys):
        # label-only lines load as empty documents; they run through
        # forward, which rejects them, instead of leaving their features
        # unset and predicting from them
        _, model_path, _, table_path, _ = make_model_and_table(tmp_path)
        corpus_path = tmp_path / "docs.tsv"
        corpus_path.write_text("0\t\n1\t\n")
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--labeled",
                    "--out-dir", tmp_path])
        assert code == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: cannot run a forward pass on an empty "
                          "sequence"]
        assert "accuracy" not in captured.out
        assert not (tmp_path / "predictions.tsv").exists()

    def test_headless_model_rejected(self, tmp_path, capsys):
        _, _, _, table_path, _ = make_model_and_table(tmp_path)
        headless = random_model(6, 3, 8, 2, 16, seed=1)
        headless_path = tmp_path / "headless.bin"
        save_model(headless, headless_path)
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=[["a"]]), corpus_path)
        code = run(["infer", "--model", headless_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 1
        assert "classifier head" in capsys.readouterr().err

    @pytest.mark.parametrize("docs", [[["a", "b"]], []], ids=["docs", "no-docs"])
    def test_depth_mismatch_rejected(self, tmp_path, capsys, docs):
        # route makes the depth check on every corpus, one with no
        # documents too
        _, _, _, table_path, _ = make_model_and_table(tmp_path)
        deeper = random_model(6, 4, 8, 2, 16, seed=1, num_classes=2)
        save_model(deeper, tmp_path / "deeper.bin")
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=docs), corpus_path)
        code = run(["infer", "--model", tmp_path / "deeper.bin", "--table",
                    table_path, "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "L=3" in err and "L=4" in err
        assert not (tmp_path / "predictions.tsv").exists()

    def test_reads_text_through_packed_ids(self, tmp_path, capsys,
                                           monkeypatch):
        # the corpus is looked up in one flat pass and routed once, with no
        # per-document id list
        model, model_path, table, table_path, vocab = make_model_and_table(tmp_path)
        monkeypatch.setattr(encoder, "BATCH_ROWS", 4)
        docs = [["a", "b", "c"], ["f", "e"], ["d", "zzz"], ["a"]]
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=docs), corpus_path)
        owners = {"ids_for": Vocab, "packed_ids": Vocab, "route": cli,
                  "pack": encoder}
        calls = dict.fromkeys(owners, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, owner in owners.items():
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 0
        assert calls == {"ids_for": 0, "packed_ids": 1, "route": 1, "pack": 0}
        lines = (tmp_path / "predictions.tsv").read_text().splitlines()
        assert lines == [f"{i}\t{predict_one(model, vocab.ids_for(doc), table)}"
                         for i, doc in enumerate(docs)]

    def test_missing_file(self, tmp_path, capsys):
        _, model_path, _, table_path, _ = make_model_and_table(tmp_path)
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", tmp_path / "nope.txt", "--out-dir", tmp_path])
        assert code == 1
        assert "no such file" in capsys.readouterr().err


    @staticmethod
    def set_first_weight(data, value):
        # the first weight of the embedding follows the header line
        out = bytearray(data)
        struct.pack_into("<d", out, data.index(b"\n") + 1, value)
        return bytes(out)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.replace(b" L=3 ", b" L=x ", 1), "L=x"),
        (lambda data: data[:-8], "truncated"),
        (lambda data: TestInfer.set_first_weight(data, float("nan")), "non-finite"),
        (lambda data: TestInfer.set_first_weight(data, float("-inf")), "non-finite"),
    ], ids=["header-field", "truncated-payload", "nan-weight", "inf-weight"])
    def test_malformed_model_is_a_typed_error(self, tmp_path, capsys, edit,
                                              message):
        _, model_path, _, table_path, _ = make_model_and_table(tmp_path)
        model_path.write_bytes(edit(model_path.read_bytes()))
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=[["a"]]), corpus_path)
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_corpus_beyond_row_budget_matches_library(self, tmp_path, capsys,
                                                      monkeypatch):
        model, model_path, table, table_path, vocab = make_model_and_table(tmp_path)
        # batches of 200 rows, and layers run in groups of about 40 rows
        monkeypatch.setattr(encoder, "BATCH_ROWS", 200)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 40)
        rng = np.random.default_rng(5)
        docs = [[vocab.tokens[i] for i in rng.integers(0, 6, size=rng.integers(1, 30))]
                for _ in range(400)]
        assert sum(len(doc) for doc in docs) > 10 * encoder.BATCH_ROWS  # d=8
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=docs), corpus_path)
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 0
        lines = (tmp_path / "predictions.tsv").read_text().splitlines()
        want = [f"{i}\t{predict_one(model, vocab.ids_for(doc), table)}"
                for i, doc in enumerate(docs)]
        assert lines == want

    def test_infer_calls_cli_forward_once_per_batch(self, tmp_path, capsys,
                                                    monkeypatch):
        # bench/ times and traces infer through the hashexit.cli.forward name
        model, model_path, table, table_path, vocab = make_model_and_table(tmp_path)
        monkeypatch.setattr(encoder, "BATCH_ROWS", 40)
        rng = np.random.default_rng(6)
        docs = [[vocab.tokens[i] for i in rng.integers(0, 6, size=rng.integers(1, 20))]
                for _ in range(60)]
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return encoder.forward(*args)

        monkeypatch.setattr(cli, "forward", counted)
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=docs), corpus_path)
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 0
        batches = greedy_batches([len(d) for d in docs], 40)
        assert calls == [len(b) for b in batches]

    # sha256 of predictions.tsv for a toy-shaped corpus (2000 documents,
    # d=8) and a small mid-shaped one (d=256, 12 layers), recorded before
    # infer routed its batches as flat arrays; routing must not move a
    # prediction. The float64 results are those of numpy's bundled
    # OpenBLAS; another BLAS may round the matmuls differently.
    GOLDEN_PREDICTIONS = {
        "toy": "6256c1d2e4c686635f00ddce514bc5ac0fedbae577c9d64e00740132cc5a1260",
        "mid": "d993abfd37fac14c7c4b4837bb13d61f3c21bd9d4e7d77ebd12082d7f02e6ef6",
    }

    @pytest.mark.parametrize("shape, vocab_size, docs, lengths, dims, seed", [
        ("toy", 200, 2000, (5, 15), (4, 8, 2, 16), 11),
        ("mid", 300, 40, (64, 128), (12, 256, 4, 1024), 12),
    ])
    def test_golden_predictions(self, tmp_path, capsys, shape, vocab_size,
                                docs, lengths, dims, seed):
        corpus = zipf_corpus(vocab_size, docs, seed=seed, min_len=lengths[0],
                             max_len=lengths[1])
        save_corpus(corpus, tmp_path / "corpus.txt")
        vocab = Vocab.from_documents(corpus.documents)
        stats = CorpusStats.from_documents(vocab, corpus.documents)
        save_hash_table(build_frequency(vocab, stats, 3, dims[0]),
                        tmp_path / "table.hash")
        save_model(random_model(vocab_size, *dims, seed=seed, num_classes=2),
                   tmp_path / "model.bin")
        code = run(["infer", "--model", tmp_path / "model.bin", "--table",
                    tmp_path / "table.hash", "--corpus", tmp_path / "corpus.txt",
                    "--out-dir", tmp_path])
        assert code == 0
        assert sha256s(tmp_path, ["predictions.tsv"]) == {
            "predictions.tsv": self.GOLDEN_PREDICTIONS[shape]}


class TestFlopsReport:
    def make_all_last_table(self, tmp_path, L=4):
        table = HashTable(method="rand-cons", num_buckets=L, num_layers=L,
                          seed=0, tokens=tuple("abc"),
                          buckets=np.full(3, L - 1))
        path = tmp_path / "last.hash"
        save_hash_table(table, path)
        return table, path

    def test_all_last_layer_speedup_one(self, tmp_path, capsys):
        _, table_path = self.make_all_last_table(tmp_path)
        corpus_path = tmp_path / "c.txt"
        save_corpus(Corpus(documents=[["a", "b"], ["c", "c", "a"]]), corpus_path)
        code = run(["flops-report", "--table", table_path, "--corpus",
                    corpus_path, "--d", 8, "--heads", 2, "--d-ff", 16,
                    "--out-dir", tmp_path])
        assert code == 0
        assert "speedup: 1.0000" in (tmp_path / "flops.txt").read_text()

    def test_csv_matches_library(self, tmp_path):
        table, table_path = self.make_all_last_table(tmp_path)
        docs = [["a", "b"], ["c"]]
        corpus_path = tmp_path / "c.txt"
        save_corpus(Corpus(documents=docs), corpus_path)
        run(["flops-report", "--table", table_path, "--corpus", corpus_path,
             "--d", 8, "--heads", 2, "--d-ff", 16, "--out-dir", tmp_path])
        vocab = Vocab(table.tokens)
        schedules = [schedule(vocab.ids_for(doc), table) for doc in docs]
        rep = report(ModelDims(4, 8, 2, 16), schedules)
        assert (tmp_path / "flops.csv").read_text() == rep.to_csv()

    def test_prices_the_corpus_in_one_packed_call(self, tmp_path, capsys,
                                                  monkeypatch):
        # one flat id lookup, one exit lookup and one report call, with no
        # per-document id list, pack or schedule (bench/ hooks schedule and
        # report on hashexit.cli)
        _, table_path = self.make_all_last_table(tmp_path)
        corpus_path = tmp_path / "c.txt"
        save_corpus(Corpus(documents=[["a", "b"], ["c"], ["zzz", "a", "c"]]),
                    corpus_path)
        owners = {"schedule": cli, "report": cli, "pack": encoder,
                  "ids_for": Vocab, "packed_ids": Vocab, "exits": HashTable}
        calls = dict.fromkeys(owners, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, owner in owners.items():
            monkeypatch.setattr(owner, name,
                                counted(name, getattr(owner, name)))
        code = run(["flops-report", "--table", table_path, "--corpus",
                    corpus_path, "--d", 8, "--heads", 2, "--d-ff", 16,
                    "--out-dir", tmp_path])
        assert code == 0
        assert calls == {"schedule": 0, "report": 1, "pack": 0, "ids_for": 0,
                         "packed_ids": 1, "exits": 1}

    def test_documents_over_512_tokens_rejected(self, tmp_path, capsys):
        # as infer rejects them: 512 tokens price, 513 are an error and
        # write no artifact
        _, table_path = self.make_all_last_table(tmp_path)
        for n, code in ((512, 0), (513, 1)):
            out = tmp_path / str(n)
            corpus_path = tmp_path / f"c{n}.txt"
            save_corpus(Corpus(documents=[["a", "b"], ["c"] * n]), corpus_path)
            assert run(["flops-report", "--table", table_path, "--corpus",
                        corpus_path, "--d", 8, "--heads", 2, "--d-ff", 16,
                        "--out-dir", out]) == code
            assert (out / "flops.csv").exists() == (code == 0)
        err = capsys.readouterr().err
        assert err == "error: sequence length 513 exceeds 512\n"

    def test_layers_mismatch(self, tmp_path, capsys):
        _, table_path = self.make_all_last_table(tmp_path, L=4)
        corpus_path = tmp_path / "c.txt"
        save_corpus(Corpus(documents=[["a"]]), corpus_path)
        code = run(["flops-report", "--table", table_path, "--corpus",
                    corpus_path, "--layers", 6, "--d", 8, "--heads", 2,
                    "--d-ff", 16, "--out-dir", tmp_path])
        assert code == 1
        assert "--layers" in capsys.readouterr().err

    def test_dims_checked_before_the_corpus_is_read(self, tmp_path, capsys,
                                                    monkeypatch):
        _, table_path = self.make_all_last_table(tmp_path)

        def load_corpus(*args, **kwargs):
            raise AssertionError("corpus read before the dims were checked")

        monkeypatch.setattr(cli, "load_corpus", load_corpus)
        code = run(["flops-report", "--table", table_path, "--corpus",
                    tmp_path / "c.txt", "--d", 0, "--out-dir", tmp_path])
        assert code == 1
        assert "model dims must be positive" in capsys.readouterr().err

    def test_empty_corpus(self, tmp_path, capsys):
        _, table_path = self.make_all_last_table(tmp_path)
        corpus_path = tmp_path / "c.txt"
        corpus_path.write_text("\n\n")
        code = run(["flops-report", "--table", table_path, "--corpus",
                    corpus_path, "--d", 8, "--heads", 2, "--d-ff", 16,
                    "--out-dir", tmp_path])
        assert code == 1

    # sha256 of the artifacts for a small Zipf corpus under a B=3 frequency
    # table at L=12, by corpus seed; recorded when flops.txt also stated
    # the baseline dims, with that line dropped. Every figure is an exact
    # integer.
    GOLDEN = {
        0: {
            "flops.csv":
                "3acede1e79fb324acd61821c5572d95dc7c51545ebbf9bd59872db5007e2ca53",
            "flops.txt":
                "373bdfae54ee77131512ba27beb904937dd5cfbaed200c3aeb5b2f4c42bb96d2",
        },
        1: {
            "flops.csv":
                "33c8bbdee18729619d15dfdba04ecf031145636e4ce04432034937c1dd848278",
            "flops.txt":
                "6531ec54535ec60146f118f531dedf98f5ce4c2530ea106e62c7b66ad1981d92",
        },
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_golden_report(self, tmp_path, capsys, seed):
        corpus = zipf_corpus(300, 60, seed=seed, min_len=8, max_len=64)
        save_corpus(corpus, tmp_path / "corpus.txt")
        vocab = Vocab.from_documents(corpus.documents)
        stats = CorpusStats.from_documents(vocab, corpus.documents)
        save_hash_table(build_frequency(vocab, stats, 3, 12),
                        tmp_path / "table.hash")
        code = run(["flops-report", "--table", tmp_path / "table.hash",
                    "--corpus", tmp_path / "corpus.txt", "--d", 64,
                    "--heads", 4, "--d-ff", 256, "--out-dir", tmp_path])
        assert code == 0
        assert sha256s(tmp_path, self.GOLDEN[seed]) == self.GOLDEN[seed]


class TestAblateCli:
    def test_writes_summary(self, tmp_path, capsys):
        code = run(["ablate-consistency", "--seeds", "0,1", "--epochs", 40,
                    "--out-dir", tmp_path])
        assert code == 0
        text = (tmp_path / "ablation.txt").read_text()
        assert text.count("mean") == 2
        assert capsys.readouterr().out.startswith("consistency ablation")

    def test_diverging_head_is_one_error_and_no_warning(self, tmp_path,
                                                         capsys):
        # an infinite learning rate turns the head into nan: fit reports
        # that as divergence, and numpy warns about nothing on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["ablate-consistency", "--seeds", "1,2", "--lr", "inf",
                        "--epochs", 2, "--out-dir", tmp_path])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "diverged" in errors[0]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    # sha256 of ablation.txt for seeds (s, s + 1) at 40 epochs, by s. The
    # accuracies follow float64 training, so another BLAS than numpy's
    # bundled OpenBLAS may round them differently.
    GOLDEN = {
        0: {
            "ablation.txt":
                "6aafd132cbb8094ce3eaf2cccf35b4539fddf5f0a6946dacbd2260f3fcfb0b83",
        },
        1: {
            "ablation.txt":
                "a725d5b34c13c9c09c1c6b305b0cd5f0e62f66bb1d9e2bf1c1e0afd6bda7c580",
        },
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_golden_ablation(self, tmp_path, capsys, seed):
        code = run(["ablate-consistency", "--seeds", f"{seed},{seed + 1}",
                    "--epochs", 40, "--out-dir", tmp_path])
        assert code == 0
        assert sha256s(tmp_path, self.GOLDEN[seed]) == self.GOLDEN[seed]

    def test_single_seed_rejected(self, tmp_path, capsys):
        code = run(["ablate-consistency", "--seeds", "3",
                    "--out-dir", tmp_path])
        assert code == 1
        assert "seeds" in capsys.readouterr().err


class TestToyFlags:
    """The flags of the toy commands are the parameters of their run
    functions, whose signatures hold the only defaults."""

    RUNS = {"ablate-consistency": experiments.run_consistency_ablation,
            "difficulty": experiments.run_difficulty_pipeline}
    TOY_DEFAULTS = {"d": 8, "heads": 2, "d_ff": 16, "lr": 0.5, "num_train": 40,
                    "num_eval": 40, "vocab_size": 11, "seq_len": 5}
    DEFAULTS = {
        "ablate-consistency": {**TOY_DEFAULTS, "buckets": 2, "num_layers": 4,
                               "epochs": 150, "force_identical": False},
        "difficulty": {**TOY_DEFAULTS, "seed": 0, "num_layers": 3,
                       "floor": 0.3, "annotator_epochs": 150,
                       "predictor_epochs": 300, "per_layer": False},
    }
    # each option string and its type (bool: a switch, str: no type)
    OPTIONS = {
        "ablate-consistency": {
            "--seeds": str, "--buckets": int, "--layers": int, "--epochs": int,
            "--force-identical": bool},
        "difficulty": {
            "--seed": int, "--layers": int, "--floor": float,
            "--annotator-epochs": int, "--predictor-epochs": int,
            "--per-layer": bool},
    }
    TOY_OPTIONS = {"-h": bool, "--help": bool, "--out-dir": str, "--d": int,
                   "--heads": int, "--d-ff": int, "--lr": float,
                   "--num-train": int, "--num-eval": int, "--vocab-size": int,
                   "--seq-len": int}
    # flags both commands take, given, and the settings they stand for
    GIVEN_ARGV = ["--d", "4", "--heads", "1", "--d-ff", "6", "--lr", "0.25",
                  "--num-train", "3", "--num-eval", "2", "--vocab-size", "7",
                  "--seq-len", "9", "--layers", "5"]
    GIVEN = {"d": 4, "heads": 1, "d_ff": 6, "lr": 0.25, "num_train": 3,
             "num_eval": 2, "vocab_size": 7, "seq_len": 9, "num_layers": 5}

    class Called(Exception):
        pass

    @pytest.mark.parametrize("command, switch, positional", [
        pytest.param("ablate-consistency", "force_identical",
                     (list(range(10)),), id="ablate-consistency"),
        pytest.param("difficulty", "per_layer", (), id="difficulty"),
    ])
    def test_toy_flags_and_defaults(self, monkeypatch, command, switch,
                                    positional):
        params = inspect.signature(self.RUNS[command]).parameters.values()
        assert {p.name: p.default for p in params
                if p.kind is p.KEYWORD_ONLY} == self.DEFAULTS[command]
        # a flag not given is not passed on: the signature's default holds
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            raise self.Called

        monkeypatch.setattr(cli, self.RUNS[command].__name__, spy)
        for argv in ([], [*self.GIVEN_ARGV, "--" + switch.replace("_", "-")]):
            args = cli.build_parser().parse_args([command, *argv])
            with pytest.raises(self.Called):
                args.func(args)
        assert calls == [(positional, {}),
                         (positional, {**self.GIVEN, switch: True})]

    @pytest.mark.parametrize("command", ["ablate-consistency", "difficulty"])
    def test_option_strings_are_pinned(self, command):
        # a new run-function parameter would add a flag: pin them all
        sub, = (a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        p = sub.choices[command]
        assert {flag: bool if a.nargs == 0 else a.type or str
                for a in p._actions for flag in a.option_strings} == {
            **self.TOY_OPTIONS, **self.OPTIONS[command]}
        params = inspect.signature(self.RUNS[command]).parameters
        assert {a.dest for a in p._actions} - {"help", "out_dir"} <= set(params)


class TestMalformedFlags:
    @pytest.mark.parametrize("argv, says", [
        pytest.param(["ablate-consistency", "--seeds", "0,x"], "--seeds",
                     id="ablate-seeds-not-int"),
        pytest.param(["ablate-consistency", "--seq-len", 0], "seq_len",
                     id="ablate-seq-len-0"),
        pytest.param(["ablate-consistency", "--seeds", "0,1", "--epochs", -1],
                     "epochs", id="ablate-negative-epochs"),
        pytest.param(["difficulty", "--seq-len", 0], "seq_len",
                     id="difficulty-seq-len-0"),
        pytest.param(["build-hash", "--method", "frequency", "--buckets", 0,
                      "--layers", 4], "buckets", id="frequency-buckets-0"),
        pytest.param(["build-hash", "--method", "random", "--buckets", 0,
                      "--layers", 4], "buckets", id="random-buckets-0"),
        pytest.param(["build-hash", "--method", "random", "--buckets", 2,
                      "--layers", 4, "--seed", -1], "--seed",
                     id="random-negative-seed"),
        pytest.param(["build-hash", "--method", "clustered", "--buckets", 2,
                      "--layers", 4, "--seed", -1], "--seed",
                     id="clustered-negative-seed"),
        pytest.param(["difficulty", "--seed", -3], "--seed",
                     id="difficulty-negative-seed"),
        pytest.param(["ablate-consistency", "--seeds=-1,2"], "seeds",
                     id="ablate-negative-seed"),
        pytest.param(["flops-report", "--layers", 0], "--layers",
                     id="flops-layers-0"),
        pytest.param(["flops-report", "--d", 0], "positive", id="flops-d-0"),
        pytest.param(["flops-report", "--heads", 0], "positive",
                     id="flops-heads-0"),
        pytest.param(["flops-report", "--d-ff", 0], "positive",
                     id="flops-d-ff-0"),
        pytest.param(["ablate-consistency", "--d", -2], "positive",
                     id="ablate-negative-d"),
        pytest.param(["ablate-consistency", "--d-ff", -1], "positive",
                     id="ablate-negative-d-ff"),
        pytest.param(["difficulty", "--d", -2], "positive",
                     id="difficulty-negative-d"),
        pytest.param(["difficulty", "--d-ff", -1], "positive",
                     id="difficulty-negative-d-ff"),
    ])
    def test_typed_error(self, tmp_path, capsys, argv, says):
        corpus = tmp_path / "c.txt"
        write_fixture_corpus(corpus)
        if "clustered" in argv:
            emb = tmp_path / "emb.txt"
            save_embeddings(EmbeddingTable(tuple("abcdef"), np.eye(6)), emb)
            argv = argv + ["--embeddings", emb]
        elif argv[0] == "build-hash":
            argv = argv + ["--corpus", corpus]
        elif argv[0] == "flops-report":
            table_path = make_model_and_table(tmp_path)[3]
            # the flag under test comes last, so it overrides these dims
            argv = [argv[0], "--table", table_path, "--corpus", corpus,
                    "--d", 8, "--heads", 2, "--d-ff", 16, *argv[1:]]
        assert run(argv + ["--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and says in err

    @pytest.mark.parametrize("argv, says", [
        pytest.param(["build-hash", "--method", "random", "--buckets", "x",
                      "--layers", 4], "--buckets", id="buckets-not-int"),
        pytest.param(["build-hash", "--method", "random", "--buckets", 2,
                      "--layers", 4, "--consistent", "maybe"], "--consistent",
                     id="consistent-maybe"),
        pytest.param(["build-hash", "--method", "hashing", "--buckets", 2,
                      "--layers", 4], "--method", id="unknown-method"),
        pytest.param(["infer", "--model"], "--model", id="infer-model-no-value"),
        pytest.param(["infer", "--table", "t", "--corpus", "c"], "--model",
                     id="infer-model-missing"),
        pytest.param(["difficulty", "--floor", "high"], "--floor",
                     id="difficulty-floor-not-float"),
        pytest.param(["flops-report", "--table", "t", "--corpus", "c", "--bogus"],
                     "--bogus", id="unknown-flag"),
        # --seed is read by build-hash and difficulty alone, and is no
        # abbreviation of ablate-consistency's --seeds
        pytest.param(["infer", "--model", "m", "--table", "t", "--corpus", "c",
                      "--seed", 1], "--seed", id="infer-seed"),
        pytest.param(["flops-report", "--table", "t", "--corpus", "c",
                      "--seed", 1], "--seed", id="flops-report-seed"),
        pytest.param(["ablate-consistency", "--seed", 3], "--seed",
                     id="ablate-seed"),
        pytest.param(["ablate-consistency", "--seed", "0,1"], "--seed",
                     id="ablate-seed-list"),
        pytest.param(["train"], "train", id="unknown-command"),
        pytest.param([], "command", id="no-command"),
    ])
    def test_parse_error_exits_1(self, capsys, argv, says):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: hashexit") and says in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["infer", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "usage: hashexit" in capsys.readouterr().out


class TestUnreadableInput:
    """An input file of random bytes, or a directory, is an `error:` line
    and exit 1 for every command that reads one."""

    @staticmethod
    def argv(command, bad, tmp_path):
        _, model_path, _, table_path, _ = make_model_and_table(tmp_path)
        corpus = tmp_path / "c.txt"
        write_fixture_corpus(corpus)
        dims = ["--d", 8, "--heads", 2, "--d-ff", 16]
        return {
            "infer-model": ["infer", "--model", bad, "--table", table_path,
                            "--corpus", corpus],
            "infer-table": ["infer", "--model", model_path, "--table", bad,
                            "--corpus", corpus],
            "flops-report-table": ["flops-report", "--table", bad,
                                   "--corpus", corpus] + dims,
            "build-hash-corpus": ["build-hash", "--method", "frequency",
                                  "--buckets", 2, "--layers", 4,
                                  "--corpus", bad],
            "build-hash-embeddings": ["build-hash", "--method", "clustered",
                                      "--buckets", 2, "--layers", 4,
                                      "--embeddings", bad],
        }[command]

    @pytest.mark.parametrize("kind", ["random-bytes", "directory"])
    @pytest.mark.parametrize("command", ["infer-model", "infer-table",
                                         "flops-report-table",
                                         "build-hash-corpus",
                                         "build-hash-embeddings"])
    def test_typed_error(self, tmp_path, capsys, command, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(np.random.default_rng(0).bytes(2000))
        argv = self.argv(command, bad, tmp_path)
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("data", [
        # a value that is not a number
        b"#hashee-embeddings v1 V=2 d=2\n"
        + np.array([1.0, np.nan, 1.0, 2.0], "<f8").tobytes() + b"a\nb\n",
        b"#hashee-embeddings v1 V=-2 d=2\n",  # a negative count
        # a count far beyond the rows that follow
        b"#hashee-embeddings v1 V=1000000000000 d=64\n" + bytes(64),
        b"2 2\na 1 2\nb 1 2\n",  # the text format
        b"#hashee-embeddings v1 V=1 d=1\n" + bytes(8) + b"a b\n",  # bad token
    ], ids=["non-numeric-value", "negative-count", "huge-count", "text-format",
            "bad-token"])
    def test_malformed_embeddings(self, tmp_path, capsys, data):
        bad = tmp_path / "emb.bin"
        bad.write_bytes(data)
        argv = self.argv("build-hash-embeddings", bad, tmp_path)
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestDifficultyCli:
    # seed 4 leaves a slot without negative instances to oversample
    @pytest.mark.filterwarnings(
        "ignore:slot .* has no negative instances:UserWarning")
    def test_byte_identical_across_runs(self, tmp_path):
        args = ["difficulty", "--seed", 4, "--num-train", 20, "--num-eval",
                20, "--annotator-epochs", 60, "--predictor-epochs", 80]
        for sub in ("one", "two"):
            code = run(args + ["--out-dir", tmp_path / sub])
            assert code == 0
        for name in ("difficulty_train.tsv", "difficulty_eval.tsv",
                     "metrics.txt"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    # sha256 of the three artifacts at the small config below, by seed;
    # float64 training, numpy's bundled OpenBLAS
    GOLDEN = {
        0: {
            "metrics.txt":
                "eeee06469bb72f4873a2bc89af94ba2cd2d09a79fde5498e713aadaf3b093f31",
            "difficulty_train.tsv":
                "2d29fced8a1ece5be37daa7f1c89146db3cf5b1c9ce5f12b6809b3ff54188135",
            "difficulty_eval.tsv":
                "1c350d28a6b2f7298d2f64475ab6b8b263fa25c0256bccf751929e191c12ee0a",
        },
        1: {
            "metrics.txt":
                "65ff9329202ade1e785cd4d201c4311f71f82a77d0d44aa7e1d905be7fd93f89",
            "difficulty_train.tsv":
                "e4b21a5616c5cb6531ef6c311a76bed97a29156f890369c6e1554ec6f6d3fd15",
            "difficulty_eval.tsv":
                "15e4d5930695584da08ab63a825c39841ea249209cc1ecf7a2963b5ed3a80129",
        },
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_golden_artifacts(self, tmp_path, capsys, seed):
        code = run(["difficulty", "--seed", seed, "--num-train", 20,
                    "--num-eval", 20, "--annotator-epochs", 60,
                    "--predictor-epochs", 80, "--out-dir", tmp_path])
        assert code == 0
        assert sha256s(tmp_path, self.GOLDEN[seed]) == self.GOLDEN[seed]

    # metrics.txt with --per-layer, one probe per slot, at the config
    # above; the datasets are the shared probe's
    GOLDEN_PER_LAYER_METRICS = {
        0: "65e83258287aafbd5f9cf19c0acc8a86d57108aa2ae2da0a2953d3cb65433ffd",
        1: "ada203e16b2b96acb02fd76c2473d03e5238dbefb9ff192b1b55ac83534cfb6d",
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_golden_per_layer_artifacts(self, tmp_path, capsys, seed):
        code = run(["difficulty", "--seed", seed, "--num-train", 20,
                    "--num-eval", 20, "--annotator-epochs", 60,
                    "--predictor-epochs", 80, "--per-layer",
                    "--out-dir", tmp_path])
        assert code == 0
        want = dict(self.GOLDEN[seed],
                    **{"metrics.txt": self.GOLDEN_PER_LAYER_METRICS[seed]})
        assert sha256s(tmp_path, want) == want

    def test_metrics_file_matches_stdout(self, tmp_path, capsys):
        code = run(["difficulty", "--seed", 0, "--num-train", 20,
                    "--num-eval", 20, "--annotator-epochs", 60,
                    "--predictor-epochs", 80, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert (tmp_path / "metrics.txt").read_text() in out
