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

    def test_empty_doc_cannot_serialize_unlabeled(self):
        with pytest.raises(InputError):
            serialize_corpus(Corpus(documents=[["a"], []]))


class TestZipf:
    def test_deterministic(self):
        a = zipf_corpus(30, 50, seed=4)
        b = zipf_corpus(30, 50, seed=4)
        assert a.documents == b.documents

    def test_rank_order_shows_in_counts(self):
        c = zipf_corpus(50, 2000, seed=1)
        vocab = Vocab.from_documents(c.documents)
        stats = CorpusStats.from_documents(vocab, c.documents)
        first = stats.freq[vocab.id_of("w00")]
        mid = stats.freq[vocab.id_of("w24")]
        last = stats.freq[vocab.id_of("w49")]
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
