import struct

import numpy as np
import pytest

from hashexit import cli, encoder
from hashexit.cli import main
from hashexit.corpus import Corpus, save_corpus
from hashexit.encoder import predict_class, random_model, save_model, schedule
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


FIXTURE_FREQS = {"a": 100, "b": 50, "c": 40, "d": 10, "e": 5, "f": 1}


def write_fixture_corpus(path):
    doc = []
    for token, count in FIXTURE_FREQS.items():
        doc.extend([token] * count)
    save_corpus(Corpus(documents=[doc]), path)


def run(argv):
    return main([str(a) for a in argv])


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

    def test_random_inconsistent_writes_pair(self, tmp_path):
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
            want = predict_class(model, vocab.ids_for(doc), table)
            assert lines[i] == f"{i}\t{want}"

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
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 200)
        rng = np.random.default_rng(5)
        docs = [[vocab.tokens[i] for i in rng.integers(0, 6, size=rng.integers(1, 30))]
                for _ in range(400)]
        assert sum(len(doc) for doc in docs) > 10 * encoder.batch_rows(model)
        corpus_path = tmp_path / "docs.txt"
        save_corpus(Corpus(documents=docs), corpus_path)
        code = run(["infer", "--model", model_path, "--table", table_path,
                    "--corpus", corpus_path, "--out-dir", tmp_path])
        assert code == 0
        lines = (tmp_path / "predictions.tsv").read_text().splitlines()
        want = [f"{i}\t{predict_class(model, vocab.ids_for(doc), table)}"
                for i, doc in enumerate(docs)]
        assert lines == want

    def test_infer_calls_cli_forward_once_per_batch(self, tmp_path, capsys,
                                                    monkeypatch):
        # bench/ times and traces infer through the hashexit.cli.forward name
        model, model_path, table, table_path, vocab = make_model_and_table(tmp_path)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 40)
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
        batches = encoder.row_batches([len(d) for d in docs], 40)
        assert calls == [len(b) for b in batches]


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

    def test_layers_mismatch(self, tmp_path, capsys):
        _, table_path = self.make_all_last_table(tmp_path, L=4)
        corpus_path = tmp_path / "c.txt"
        save_corpus(Corpus(documents=[["a"]]), corpus_path)
        code = run(["flops-report", "--table", table_path, "--corpus",
                    corpus_path, "--layers", 6, "--d", 8, "--heads", 2,
                    "--d-ff", 16, "--out-dir", tmp_path])
        assert code == 1
        assert "--layers" in capsys.readouterr().err

    def test_empty_corpus(self, tmp_path, capsys):
        _, table_path = self.make_all_last_table(tmp_path)
        corpus_path = tmp_path / "c.txt"
        corpus_path.write_text("\n\n")
        code = run(["flops-report", "--table", table_path, "--corpus",
                    corpus_path, "--d", 8, "--heads", 2, "--d-ff", 16,
                    "--out-dir", tmp_path])
        assert code == 1

    def test_deeper_baseline(self, tmp_path):
        _, table_path = self.make_all_last_table(tmp_path)
        corpus_path = tmp_path / "c.txt"
        save_corpus(Corpus(documents=[["a", "b"]]), corpus_path)
        run(["flops-report", "--table", table_path, "--corpus", corpus_path,
             "--d", 8, "--heads", 2, "--d-ff", 16, "--baseline-layers", 8,
             "--out-dir", tmp_path])
        assert "speedup: 2.0000" in (tmp_path / "flops.txt").read_text()


class TestAblateCli:
    def test_writes_summary(self, tmp_path, capsys):
        code = run(["ablate-consistency", "--seeds", "0,1", "--epochs", 40,
                    "--out-dir", tmp_path])
        assert code == 0
        text = (tmp_path / "ablation.txt").read_text()
        assert text.count("mean") == 2
        assert capsys.readouterr().out.startswith("consistency ablation")

    def test_single_seed_rejected(self, tmp_path, capsys):
        code = run(["ablate-consistency", "--seeds", "3",
                    "--out-dir", tmp_path])
        assert code == 1
        assert "seeds" in capsys.readouterr().err


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
        pytest.param(["flops-report", "--baseline-layers", 0], "positive",
                     id="baseline-layers-0"),
        pytest.param(["flops-report", "--baseline-d", 0], "positive",
                     id="baseline-d-0"),
        pytest.param(["flops-report", "--baseline-heads", 0], "positive",
                     id="baseline-heads-0"),
        pytest.param(["flops-report", "--baseline-d-ff", 0], "positive",
                     id="baseline-d-ff-0"),
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
            argv = argv + ["--table", table_path, "--corpus", corpus,
                           "--d", 8, "--heads", 2, "--d-ff", 16]
        assert run(argv + ["--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and says in err


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

    @pytest.mark.parametrize("text", [
        "2 2\na 1 x\nb 1 2\n",  # a value that is not a number
        "-2 2\n",  # a negative count
        "1000000000000 64\n",  # a count far beyond the rows that follow
    ], ids=["non-numeric-value", "negative-count", "huge-count"])
    def test_malformed_embeddings(self, tmp_path, capsys, text):
        bad = tmp_path / "emb.txt"
        bad.write_text(text)
        argv = self.argv("build-hash-embeddings", bad, tmp_path)
        assert run(argv + ["--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestDifficultyCli:
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

    def test_metrics_file_matches_stdout(self, tmp_path, capsys):
        code = run(["difficulty", "--seed", 0, "--num-train", 20,
                    "--num-eval", 20, "--annotator-epochs", 60,
                    "--predictor-epochs", 80, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert (tmp_path / "metrics.txt").read_text() in out
