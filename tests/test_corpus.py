import numpy as np
import pytest

from hashexit.errors import ConfigError, InputError, ParseError
from hashexit.corpus import (
    Corpus,
    load_corpus,
    parse_corpus,
    save_corpus,
    serialize_corpus,
    zipf_corpus,
)
from hashexit.hashing import CorpusStats, Vocab


class TestParse:
    def test_unlabeled(self):
        c = parse_corpus("a b\nc\n")
        assert c.documents == [["a", "b"], ["c"]]
        assert not c.labeled

    def test_labeled(self):
        c = parse_corpus("pos\tgood movie\n", labeled=True)
        assert c.labels == ["pos"]
        assert c.documents == [["good", "movie"]]

    def test_blank_lines_skipped_and_counted(self):
        c = parse_corpus("a\n\n  \nb\n")
        assert len(c) == 2
        assert c.skipped_empty == 2

    def test_missing_tab_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_corpus("pos\tfine\nbroken line\n", labeled=True)

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ConfigError):
            Corpus(documents=[["a"]], labels=["x", "y"])


class TestRoundTrip:
    def test_unlabeled(self, tmp_path):
        c = Corpus(documents=[["a", "b"], ["c", "d", "e"]])
        path = tmp_path / "corpus.txt"
        save_corpus(c, path)
        back = load_corpus(path)
        assert back.documents == c.documents

    def test_labeled(self, tmp_path):
        c = Corpus(documents=[["good"], ["bad", "film"]], labels=["1", "0"])
        path = tmp_path / "corpus.tsv"
        save_corpus(c, path)
        back = load_corpus(path, labeled=True)
        assert back.documents == c.documents
        assert back.labels == c.labels

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_any_line_break_ends_a_document(self, tmp_path, end):
        # corpora are user text, so unlike the artifacts they load with
        # whatever line ends they were written with
        path = tmp_path / "corpus.tsv"
        path.write_bytes(f"1\ta b{end}0\tc{end}".encode())
        back = load_corpus(path, labeled=True)
        assert back.documents == [["a", "b"], ["c"]] and back.labels == ["1", "0"]

    @pytest.mark.parametrize("labels", [None, []])
    def test_no_documents_round_trip_as_no_bytes(self, tmp_path, labels):
        c = Corpus(documents=[], labels=labels)
        assert serialize_corpus(c) == ""
        path = tmp_path / "corpus.txt"
        save_corpus(c, path)
        back = load_corpus(path, labeled=c.labeled)
        assert back == c and back.skipped_empty == 0

    def test_empty_doc_cannot_serialize_unlabeled(self):
        with pytest.raises(InputError):
            serialize_corpus(Corpus(documents=[["a"], []]))

    @pytest.mark.parametrize("label", ["l\tm", "l\nm", "l\r", "\u2028"])
    def test_label_with_tab_or_line_break_refused(self, tmp_path, label):
        path = tmp_path / "corpus.tsv"
        with pytest.raises(InputError, match="tab or a line break"):
            save_corpus(Corpus([["x y", "z"], ["a"]], labels=[label, "0"]),
                        path)
        assert not path.exists()

    @pytest.mark.parametrize("doc", [["x y", "z"], ["", "z"], ["a\u00a0b"]])
    def test_token_breaking_the_rule_refused(self, doc):
        for labels in (None, ["0"]):
            with pytest.raises(InputError, match="whitespace"):
                serialize_corpus(Corpus([doc], labels=labels))

    @pytest.mark.parametrize("label", ["", " "])
    def test_blank_line_refused(self, label):
        with pytest.raises(InputError, match="blank"):
            serialize_corpus(Corpus([[]], labels=[label]))

    def test_empty_labeled_doc_round_trips(self, tmp_path):
        c = Corpus(documents=[[], ["a"]], labels=["x", " "])
        path = tmp_path / "corpus.tsv"
        save_corpus(c, path)
        assert load_corpus(path, labeled=True) == c


class TestZipf:
    def test_deterministic(self):
        a = zipf_corpus(30, 50, seed=4)
        b = zipf_corpus(30, 50, seed=4)
        assert a.documents == b.documents

    def test_rank_order_shows_in_counts(self):
        c = zipf_corpus(50, 2000, seed=1)
        vocab = Vocab.from_documents(c.documents)
        stats = CorpusStats.from_documents(vocab, c.documents)
        first, mid, last = stats.freq[vocab.ids_for(["w00", "w24", "w49"])]
        assert first > mid > last

    def test_lengths_in_range(self):
        c = zipf_corpus(10, 100, seed=2, min_len=3, max_len=7)
        lengths = {len(d) for d in c.documents}
        assert lengths <= set(range(3, 8))

    def test_labeled_variant(self):
        c = zipf_corpus(10, 20, seed=3, labeled=True)
        assert c.labeled
        assert set(c.labels) <= {"0", "1"}

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            zipf_corpus(0, 5)
        with pytest.raises(ConfigError):
            zipf_corpus(5, 5, min_len=4, max_len=2)
