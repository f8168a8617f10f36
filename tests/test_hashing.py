import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hashexit import hashing
from hashexit.encoder import pack
from hashexit.errors import ConfigError, InputError, ParseError, ShapeError
from hashexit.hashing import (
    CorpusStats,
    EmbeddingTable,
    HashTable,
    Vocab,
    bucket_to_layer,
    build_clustered,
    build_frequency,
    build_mi,
    build_random,
    kmeans,
    load_embeddings,
    load_hash_table,
    parse_hash_table,
    save_embeddings,
    save_hash_table,
    serialize_hash_table,
    token_label_mi,
)

from helpers import make_random_labeled_corpus, reference_exit


PROPS = settings(derandomize=True, database=None, max_examples=100,
                deadline=None)


def small_vocab(n=6):
    return Vocab(tuple("abcdef"[:n]))


def reference_stats(vocab, documents, labels=None):
    """CorpusStats counted one token at a time."""
    freq = np.zeros(len(vocab), dtype=np.int64)
    label_set = label_counts = cooccur = None
    if labels is not None:
        label_set = tuple(sorted(set(labels)))
        label_counts = np.zeros(len(label_set), dtype=np.int64)
        cooccur = np.zeros((len(vocab), len(label_set)), dtype=np.int64)
    for i, doc in enumerate(documents):
        present = set()
        for tid in vocab.ids_for(doc):
            if tid >= 0:
                freq[tid] += 1
                present.add(tid)
        if labels is not None:
            j = label_set.index(labels[i])
            label_counts[j] += 1
            for tid in present:
                cooccur[tid, j] += 1
    return CorpusStats(freq, len(documents), label_set, label_counts, cooccur)


def broadcast_nearest(points, sq_norms, centers):
    """Nearest center as the argmin of summed squared differences, over
    the whole (n, k, dim) difference tensor."""
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def assert_kmeans_matches_broadcast(points, k, seed):
    labels, centers = kmeans(points, k, seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hashing, "_nearest", broadcast_nearest)
        want_labels, want_centers = kmeans(points, k, seed)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(centers, want_centers)


class TestCheckToken:
    @PROPS
    @given(token=st.text(max_size=6))
    def test_same_set_as_isspace_scan(self, token):
        old_rejects = not token or any(ch.isspace() for ch in token)
        if old_rejects:
            with pytest.raises(InputError):
                Vocab((token,))
        else:
            assert Vocab((token,)).tokens == (token,)

    @pytest.mark.parametrize("token", ["", " ", "a b", "a\u00a0", "\u2028x",
                                       "x\x1c", "\u3000", "a\tb"])
    def test_whitespace_rejected(self, token):
        with pytest.raises(InputError):
            Vocab((token,))


TOKENS = st.sampled_from(["a", "b", "c", "d", "zz", "qq"])  # zz, qq unknown


class TestPackedIds:
    @PROPS
    @given(documents=st.lists(st.lists(TOKENS, max_size=12), max_size=10))
    @example(documents=[])
    @example(documents=[[], ["zz"], []])
    def test_matches_packed_id_lists(self, documents):
        # unseen tokens (zz, qq) are -1, as in ids_for
        vocab = Vocab(("a", "b", "c", "d"))
        ids, offsets = vocab.packed_ids(documents)
        want = pack([vocab.ids_for(doc) for doc in documents])
        for got, expected in zip((ids, offsets), want):
            assert got.dtype == np.int64 and got.ndim == 1
            assert np.array_equal(got, expected)


class TestCorpusStats:
    @PROPS
    @given(documents=st.lists(st.lists(TOKENS, max_size=12), max_size=10),
           label_pool=st.lists(st.sampled_from(["0", "1", "2"]), min_size=1,
                               max_size=3, unique=True),
           data=st.data())
    def test_matches_per_token_loop(self, documents, label_pool, data):
        vocab = Vocab(("a", "b", "c", "d"))
        labels = data.draw(st.lists(st.sampled_from(label_pool),
                                    min_size=len(documents),
                                    max_size=len(documents)))
        for labs in (None, labels):
            got = CorpusStats.from_documents(vocab, documents, labs)
            want = reference_stats(vocab, documents, labs)
            assert got.doc_count == want.doc_count
            assert got.label_set == want.label_set
            for name in ("freq", "label_counts", "cooccur"):
                a, b = getattr(got, name), getattr(want, name)
                if b is None:
                    assert a is None
                else:
                    assert a.dtype == np.int64 and np.array_equal(a, b)

    def test_label_count_mismatch(self):
        with pytest.raises(InputError):
            CorpusStats.from_documents(small_vocab(), [["a"]], ["0", "1"])


def numpy_calls(tree, name):
    """Line of each call of `np.<name>` or `numpy.<name>` in `tree`."""
    return sorted(call.lineno for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Attribute)
                  and call.func.attr == name
                  and isinstance(call.func.value, ast.Name)
                  and call.func.value.id in ("np", "numpy"))


def test_builders_group_by_sorting():
    """numpy 2.4 runs an integer `np.unique` through a hash table: on the
    285k (document, token) keys of a 1000-document corpus of 64-512
    tokens (one thread, 2-vCPU VM) it took 51-61 ms, against 3.1-3.3 ms
    for `np.sort` and a neighbour mask. So presence and MI grouping
    sort, and `hashing` makes no `np.unique` call."""
    tree = ast.parse(Path(hashing.__file__).read_text(encoding="utf-8"))
    assert numpy_calls(tree, "unique") == []


def test_the_unique_rule_finds_calls():
    tree = ast.parse("a = np.unique(x)\n"
                     "b = x.unique()\n"
                     "c = numpy.unique(y, axis=0)\n"
                     "d = np.sort(x)\n")
    assert numpy_calls(tree, "unique") == [1, 3]


class TestBucketToLayer:
    def test_three_buckets_twelve_layers(self):
        assert [bucket_to_layer(b, 3, 12) for b in range(3)] == [1, 5, 9]

    def test_identity_partition(self):
        for L in (1, 4, 12):
            assert [bucket_to_layer(b, L, L) for b in range(L)] == list(range(1, L + 1))

    def test_uneven_division(self):
        assert bucket_to_layer(1, 3, 6) == 3

    def test_monotone_and_bounded(self):
        for L in range(1, 13):
            for B in range(1, L + 1):
                layers = [bucket_to_layer(b, B, L) for b in range(B)]
                assert layers[0] == 1
                assert all(1 <= x <= L for x in layers)
                assert all(a < b for a, b in zip(layers, layers[1:]))

    def test_more_buckets_than_layers(self):
        with pytest.raises(ConfigError):
            bucket_to_layer(0, 13, 12)

    def test_bucket_out_of_range(self):
        with pytest.raises(ConfigError):
            bucket_to_layer(3, 3, 12)

    def test_arrays_map_like_ints(self):
        for L in range(1, 13):
            for B in range(1, L + 1):
                got = bucket_to_layer(np.arange(B), B, L)
                assert got.dtype == np.int64
                assert got.tolist() == [bucket_to_layer(b, B, L) for b in range(B)]
        assert type(bucket_to_layer(np.int64(1), 3, 6)) is int
        assert bucket_to_layer(np.empty(0, dtype=np.int64), 2, 4).shape == (0,)
        with pytest.raises(ConfigError, match="bucket -1 out of range 0..2"):
            bucket_to_layer(np.array([0, 2, -1, 3]), 3, 12)

    def test_table_layers_follow_the_map(self):
        table = build_random(small_vocab(), 3, 7, seed=2)
        assert table.layers.tolist() == [bucket_to_layer(int(b), 3, 7)
                                          for b in table.buckets]
        with pytest.raises(ConfigError, match="bucket 3 out of range"):
            HashTable("frequency", 3, 7, 0, ("a", "b"), np.array([0, 3]))

    @pytest.mark.parametrize("b", [
        1.7,                        # once bucket 1, layer 3
        np.array([True, False]),    # once layers [3, 1]
        np.array([[0.5, 1.0]]),
        np.True_,
    ], ids=["float", "bools", "float-matrix", "bool-scalar"])
    def test_buckets_must_be_integers(self, b):
        with pytest.raises(InputError, match="buckets must be integers"):
            bucket_to_layer(b, 3, 6)

    def test_keeps_the_shape_of_its_buckets(self):
        assert bucket_to_layer(np.array([[0, 1], [2, 2]]), 3, 6).tolist() == [
            [1, 3], [5, 5]]


class TestRandomHash:
    def test_single_bucket(self):
        t = build_random(small_vocab(), 1, 6, seed=0)
        assert np.all(t.buckets == 0)
        assert np.all(t.layers == 1)

    def test_deterministic(self):
        a = build_random(small_vocab(), 3, 6, seed=42)
        b = build_random(small_vocab(), 3, 6, seed=42)
        assert serialize_hash_table(a) == serialize_hash_table(b)

    def test_equal_bucket_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = int(rng.integers(2, 40))
            L = int(rng.integers(2, 12))
            B = int(rng.integers(1, L + 1))
            t = build_random(Vocab(tuple(f"w{i}" for i in range(v))), B, L,
                             seed=int(rng.integers(1 << 30)))
            sizes = t.bucket_sizes()
            assert sizes.max() - sizes.min() <= 1

    def test_inconsistent_pair_differs(self):
        vocab = Vocab(tuple(f"w{i}" for i in range(16)))
        # coincidence is possible in principle; resample before judging
        differing = 0
        for seed in range(5):
            train, infer = build_random(vocab, 4, 8, seed=seed, consistent=False)
            assert train.method == "rand-incons-A"
            assert infer.method == "rand-incons-B"
            if np.any(train.buckets != infer.buckets):
                differing += 1
        assert differing >= 1

    @pytest.mark.parametrize("consistent", [True, False])
    def test_empty_vocab_rejected(self, consistent):
        with pytest.raises(ConfigError, match="empty vocab"):
            build_random(Vocab(()), 1, 2, seed=0, consistent=consistent)

    def test_consistent_is_single_table(self):
        t = build_random(small_vocab(), 2, 4, seed=1)
        assert isinstance(t, HashTable)
        assert t.method == "rand-cons"

    def test_unknown_token_gets_last_layer(self):
        t = build_random(small_vocab(), 2, 4, seed=1)
        assert t.exits([99, -1, 6]).tolist() == [4, 4, 4]
        assert t.exits([0, 99], 4).tolist() == [reference_exit(t, 0), 4]
        assert t.exits(t.vocab.ids_for(["zzz", "a"])).tolist() == [
            4, reference_exit(t, 0)]

    @pytest.mark.parametrize("ids, error", [
        ([0.9, 1.7], InputError),       # once truncated to ids 0 and 1
        ([True, False], InputError),    # once read as ids 1 and 0
        (["1", "0"], InputError),       # once parsed as ids 1 and 0
        ([[0, 1]], ShapeError),         # once looked up as a 2-d array
    ], ids=["floats", "bools", "strings", "nested"])
    def test_exits_take_an_integer_vector(self, ids, error):
        t = build_random(small_vocab(), 2, 4, seed=1)
        with pytest.raises(error):
            t.exits(ids)
        # () is a float64 array to numpy, and an empty one still passes
        assert t.exits((), 4).tolist() == []


class TestFrequencyHash:
    def test_six_token_fixture(self):
        # sort by freq desc: a,b | c,d | e,f -> layers 1,3,5 (hand chunking)
        vocab = small_vocab()
        stats = CorpusStats(np.array([100, 50, 40, 10, 5, 1]), doc_count=6)
        t = build_frequency(vocab, stats, 3, 6)
        assert t.layers.tolist() == [1, 1, 3, 3, 5, 5]

    def test_all_equal_ties_by_token_id(self):
        vocab = small_vocab()
        stats = CorpusStats(np.full(6, 7), doc_count=6)
        t = build_frequency(vocab, stats, 3, 6)
        assert list(t.buckets) == [0, 0, 1, 1, 2, 2]

    def test_single_bucket(self):
        stats = CorpusStats(np.array([3, 2, 1, 1, 1, 1]), doc_count=6)
        t = build_frequency(small_vocab(), stats, 1, 6)
        assert np.all(t.layers == 1)

    def test_uneven_chunks_front_loaded(self):
        # V=5, B=3: chunk sizes 2,2,1
        vocab = Vocab(tuple("abcde"))
        stats = CorpusStats(np.array([9, 7, 5, 3, 1]), doc_count=5)
        t = build_frequency(vocab, stats, 3, 6)
        assert list(t.bucket_sizes()) == [2, 2, 1]


class TestMutualInformation:
    def test_always_present_is_zero(self):
        vocab = Vocab(("x",))
        docs = [["x"], ["x"], ["x"], ["x"]]
        stats = CorpusStats.from_documents(vocab, docs, ["1", "1", "0", "0"])
        assert token_label_mi(stats, 0) == 0.0

    def test_perfect_predictor_is_ln2(self):
        vocab = Vocab(("x", "y"))
        docs = [["x"], ["x"], ["y"], ["y"]]
        stats = CorpusStats.from_documents(vocab, docs, ["1", "1", "0", "0"])
        assert token_label_mi(stats, 0) == pytest.approx(math.log(2), abs=1e-12)

    def test_independent_token_is_zero(self):
        vocab = Vocab(("x", "y"))
        docs = [["x"], ["y"], ["x"], ["y"]]
        stats = CorpusStats.from_documents(vocab, docs, ["1", "1", "0", "0"])
        assert token_label_mi(stats, 0) == pytest.approx(0.0, abs=1e-12)

    def test_unlabeled_stats_rejected(self):
        stats = CorpusStats(np.array([1, 1]), doc_count=2)
        with pytest.raises(ConfigError):
            token_label_mi(stats, 0)

    @pytest.mark.parametrize("token_id", [-1, 2, 10 ** 9])
    def test_token_id_out_of_range(self, token_id):
        vocab = Vocab(("x", "y"))
        stats = CorpusStats.from_documents(vocab, [["x"], ["y"]], ["1", "0"])
        with pytest.raises(InputError):
            token_label_mi(stats, token_id)

    def test_nonnegative_on_random_corpora(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            vocab, stats, _, _ = make_random_labeled_corpus(rng)
            for t in range(len(vocab)):
                assert token_label_mi(stats, t) >= 0.0


class TestMiHash:
    def test_two_token_order(self):
        vocab = Vocab(("hi", "lo"))
        # "hi" present iff label 1; "lo" in every doc
        docs = [["hi", "lo"], ["hi", "lo"], ["lo"], ["lo"]]
        stats = CorpusStats.from_documents(vocab, docs, ["1", "1", "0", "0"])
        t = build_mi(vocab, stats, 2, 2)
        assert t.layers.tolist() == [1, 2]

    def test_all_equal_mi_ties_by_token_id(self):
        vocab = Vocab(("x", "y"))
        docs = [["x", "y"], ["x", "y"], ["x", "y"], ["x", "y"]]
        stats = CorpusStats.from_documents(vocab, docs, ["1", "1", "0", "0"])
        t = build_mi(vocab, stats, 2, 2)
        assert t.layers.tolist() == [1, 2]

    def test_single_bucket(self):
        vocab = Vocab(("x", "y"))
        docs = [["x"], ["y"]]
        stats = CorpusStats.from_documents(vocab, docs, ["1", "0"])
        t = build_mi(vocab, stats, 1, 4)
        assert np.all(t.layers == 1)

    def test_requires_labels(self):
        stats = CorpusStats(np.array([1, 1]), doc_count=2)
        with pytest.raises(ConfigError):
            build_mi(Vocab(("x", "y")), stats, 2, 2)

    @PROPS
    @given(seed=st.integers(0, 2 ** 32 - 1), vocab_size=st.integers(1, 60),
           num_docs=st.integers(1, 40))
    def test_scores_bit_equal_to_one_call_per_token(self, seed, vocab_size,
                                                    num_docs):
        rng = np.random.default_rng(seed)
        vocab, stats, _, _ = make_random_labeled_corpus(rng, vocab_size,
                                                        num_docs)
        want = np.array([token_label_mi(stats, t) for t in range(len(vocab))])
        got = hashing._mi_scores(stats)
        assert got.tobytes() == want.tobytes()
        order = np.lexsort((np.arange(len(vocab)), -want))
        chunked = np.empty(len(vocab), dtype=np.int64)
        for b, chunk in enumerate(np.array_split(order, 3)):
            chunked[chunk] = b  # front chunks take the extra tokens
        table = build_mi(vocab, stats, 3, 6)
        assert np.array_equal(table.buckets, chunked)


class TestKmeans:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(2)
        cloud_a = rng.normal(loc=0.0, scale=0.1, size=(20, 3))
        cloud_b = rng.normal(loc=10.0, scale=0.1, size=(20, 3))
        points = np.vstack([cloud_a, cloud_b])
        labels, centers = kmeans(points, 2, seed=0)
        # each cloud lands in exactly one cluster
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        within = np.linalg.norm(points - centers[labels], axis=1).max()
        between = np.linalg.norm(centers[0] - centers[1])
        assert within < between

    def test_k_equals_n(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(7, 2))
        labels, centers = kmeans(points, 7, seed=1)
        assert sorted(labels) == list(range(7))
        inertia = ((points - centers[labels]) ** 2).sum()
        assert inertia == pytest.approx(0.0, abs=1e-20)

    def test_k_one_gives_global_mean(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(15, 4))
        labels, centers = kmeans(points, 1, seed=0)
        assert np.all(labels == 0)
        assert np.allclose(centers[0], points.mean(axis=0), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(30, 3))
        out1 = kmeans(points, 4, seed=9)
        out2 = kmeans(points, 4, seed=9)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_centroids_match_assignment(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(25, 2))
        labels, centers = kmeans(points, 3, seed=2)
        for c in range(3):
            assert np.allclose(centers[c], points[labels == c].mean(axis=0))

    @pytest.mark.parametrize("n,dim,k,seed", [(25, 2, 3, 2), (7, 2, 7, 1),
                                              (3000, 48, 5, 4),
                                              (5000, 32, 3, 5)])
    def test_centroids_are_the_means_bit_for_bit(self, n, dim, k, seed):
        points = np.random.default_rng(seed).normal(size=(n, dim))
        labels, centers = kmeans(points, k, seed)
        for c in range(k):
            assert (centers[c].tobytes()
                    == points[labels == c].mean(axis=0).tobytes())


class TestMeans:
    """`_means` gives the bits of the `np.compress` means it replaced,
    whatever its row blocks and however the points cluster."""

    @staticmethod
    def compress_means(points, labels, k):
        return np.stack([np.compress(labels == c, points, axis=0).mean(axis=0)
                         for c in range(k)])

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 400),
           dim=st.integers(1, 130), k=st.integers(1, 7),
           zero_share=st.sampled_from([0.0, 0.3, 1.0]),
           heavy=st.sampled_from([0.0, 0.9, 0.99, 1.0]),
           rows=st.sampled_from([1, 3, 17, None]))
    @example(seed=0, n=400, dim=1, k=3, zero_share=0.0, heavy=0.9, rows=17)
    @example(seed=1, n=400, dim=2, k=3, zero_share=0.3, heavy=0.99, rows=3)
    def test_equal_to_the_compress_means(self, seed, n, dim, k, zero_share,
                                         heavy, rows):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        # spread magnitudes, so that each sum rounds, and signed zeros
        points = rng.normal(size=(n, dim)) * np.exp(rng.normal(size=(n, 1)) * 4)
        zeros = rng.random(size=points.shape) < zero_share
        points[zeros] = np.copysign(0.0, rng.normal(size=zeros.sum()))
        labels = rng.integers(0, k, size=n)
        labels[rng.random(n) < heavy] = rng.integers(0, k)  # one big cluster
        labels[rng.choice(n, size=k, replace=False)] = np.arange(k)
        want = self.compress_means(points, labels, k)
        with pytest.MonkeyPatch.context() as m:
            if rows is not None:  # blocks of a few rows split the clusters
                m.setattr(hashing, "_ROW_FLOATS", rows * dim)
            got = hashing._means(points, labels, k)
        assert got.tobytes() == want.tobytes()


class TestRowSqSums:
    """`_row_sq_sums` gives the bits of the whole-array formulas it
    replaced, whatever its row blocks."""

    SHAPES = [(3000, 64), (2 ** 16 + 3, 1), (1, 5), (1, 1), (3, 2 ** 16 + 1),
              (700, 33)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_the_whole_array_sums(self, shape):
        rng = np.random.default_rng(shape[0])
        points = rng.normal(size=shape) * 10.0
        centers = rng.normal(size=(4, shape[1]))
        labels = rng.integers(0, 4, size=shape[0])
        want = {
            "own": (points ** 2).sum(axis=1),
            "one": ((points - centers[1]) ** 2).sum(axis=1),
            "each": ((points - centers[labels]) ** 2).sum(axis=1),
        }
        got = {
            "own": hashing._row_sq_sums(points),
            "one": hashing._row_sq_sums(points, centers[1]),
            "each": hashing._row_sq_sums(points, centers, labels),
        }
        assert {key: value.tobytes() for key, value in got.items()} == \
            {key: value.tobytes() for key, value in want.items()}
        assert (np.sqrt(got["own"]).tobytes()
                == np.linalg.norm(points, axis=1).tobytes())

    def test_any_block_size(self, monkeypatch):
        points = np.random.default_rng(1).normal(size=(9, 6))
        want = ((points - points[4]) ** 2).sum(axis=1)
        for floats in (1, 6, 7, 20):
            monkeypatch.setattr(hashing, "_ROW_FLOATS", floats)
            got = hashing._row_sq_sums(points, points[4])
            assert got.tobytes() == want.tobytes()


class TestKmeansMatchesBroadcast:
    """kmeans equals, bit for bit, the same Lloyd loop run with the
    broadcast distance formula it replaced."""

    FIXTURES = [
        (np.vstack([np.random.default_rng(2).normal(0.0, 0.1, (20, 3)),
                    np.random.default_rng(2).normal(10.0, 0.1, (20, 3))]),
         2, 0),
        (np.random.default_rng(4).normal(size=(7, 2)), 7, 1),
        (np.random.default_rng(6).normal(size=(15, 4)), 1, 0),
        (np.random.default_rng(8).normal(size=(30, 3)), 4, 9),
        (np.random.default_rng(10).normal(size=(25, 2)), 3, 2),
        (np.ones((6, 3)), 3, 0),
        (np.array([[0.5, 0.0], [0.6, 0.1], [3.0, 3.0], [3.1, 2.9]]), 2, 0),
    ]

    @pytest.mark.parametrize("points,k,seed", FIXTURES)
    def test_fixtures(self, points, k, seed):
        assert_kmeans_matches_broadcast(points, k, seed)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80),
           dim=st.integers(1, 12), data=st.data())
    def test_random_draws(self, seed, n, dim, data):
        rng = np.random.default_rng(seed)
        scale = data.draw(st.sampled_from([1e-6, 1.0, 1e6]))
        points = rng.normal(size=(n, dim)) * scale
        if data.draw(st.booleans()):
            points = np.round(points / scale, 1)  # repeats and ties
        k = data.draw(st.integers(1, n))
        assert_kmeans_matches_broadcast(points, k, seed % 1000)

    @pytest.mark.parametrize("shift", [0.0, 1e-12, -1e-12, 1e-6])
    def test_planted_ties(self, shift):
        # centers m -/+ v differ only in coordinate 0, and every point has
        # coordinate 0 at (or next to) m's, so its squared differences to
        # the two centers agree term by term: an exact tie at shift 0
        rng = np.random.default_rng(3)
        mid = rng.normal(size=8) * 100.0
        centers = np.vstack([mid, mid, rng.normal(size=8) * 100.0])
        centers[0, 0] -= 0.5
        centers[1, 0] += 0.5
        points = mid + rng.normal(size=(2000, 8)) * 1000.0
        points[:, 0] = mid[0] + shift
        sq_norms = (points ** 2).sum(axis=1)
        want = broadcast_nearest(points, sq_norms, centers)
        assert np.array_equal(hashing._nearest(points, sq_norms, centers),
                              want)
        if shift == 0.0:
            assert not np.any(want == 1)  # exact ties go to the lower index

    def test_infinite_coordinates_take_the_exact_formula(self):
        # an infinite coordinate makes the expanded distances inf or nan,
        # so those points must be rechecked, never scanned
        rng = np.random.default_rng(5)
        points = rng.normal(size=(200, 4))
        centers = rng.normal(size=(3, 4))
        centers[2, 1] = 0.0  # inf * 0 in the product gives nan
        points[7, 0] = np.inf
        points[40, 1] = -np.inf
        points[41, 2:] = [np.inf, -np.inf]
        points[99] = np.inf
        sq_norms = (points ** 2).sum(axis=1)
        with np.errstate(invalid="ignore"):
            want = broadcast_nearest(points, sq_norms, centers)
            got = hashing._nearest(points, sq_norms, centers)
        assert np.array_equal(got, want)

    def test_planted_ties_in_small_blocks(self, monkeypatch):
        # a lattice symmetric about its mean: every sweep has exact ties
        grid = np.array([[x, y] for x in range(-3, 4) for y in range(-3, 4)],
                        dtype=np.float64)
        monkeypatch.setattr(hashing, "_RECHECK_FLOATS", 5)
        for k in (2, 4, 5):
            for seed in range(4):
                assert_kmeans_matches_broadcast(grid, k, seed)

    def test_peak_memory_stays_near_points(self):
        points = np.random.default_rng(0).normal(size=(4096, 256))
        tracemalloc.start()
        try:
            kmeans(points, 12, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * points.nbytes


class TestClusteredHash:
    def test_single_bucket(self):
        vocab = small_vocab()
        emb = EmbeddingTable(vocab.tokens, np.random.default_rng(0).normal(size=(6, 4)))
        t = build_clustered(emb, 1, 6, seed=0)
        assert np.all(t.layers == 1)

    def test_low_norm_cluster_exits_first(self):
        vectors = np.array([
            [0.5, 0.0],
            [0.6, 0.1],
            [3.0, 3.0],
            [3.1, 2.9],
        ])
        # the table holds the embedded tokens in the embedding table's order
        emb = EmbeddingTable(("d", "a", "c", "b"), vectors)
        t = build_clustered(emb, 2, 2, seed=0)
        assert t.tokens == emb.tokens
        assert t.layers.tolist() == [1, 1, 2, 2]

    def test_identical_embeddings_still_partition(self):
        vocab = small_vocab()
        emb = EmbeddingTable(vocab.tokens, np.ones((6, 3)))
        t = build_clustered(emb, 3, 6, seed=0)
        sizes = t.bucket_sizes()
        assert sizes.sum() == 6
        assert np.all(sizes >= 1)  # repair keeps every bucket non-empty

    def test_tokens_looked_up_through_packed_ids(self):
        # Vocab.ids_for stays for bench/; no package code calls it
        src = Path(hashing.__file__).parent
        assert [f"{path.name}:{lineno}" for path in sorted(src.glob("*.py"))
                for lineno, line in enumerate(path.read_text().splitlines(), 1)
                if ".ids_for(" in line] == []

    def test_peak_memory_holds_no_copy_of_the_vectors(self, monkeypatch):
        # Beside the vectors, k-means holds its (k, n) distances, a few
        # n-vectors and one block of each budget, and the table adds its
        # token index: no copy of the vectors or of a cluster's rows, so
        # the peak is the same at every seed, however the points cluster.
        # Recheck blocks of one row keep that budget's term small.
        n, dim, k = 4096, 64, 3
        monkeypatch.setattr(hashing, "_RECHECK_FLOATS", k * dim)
        vectors = np.random.default_rng(0).normal(size=(n, dim))
        emb = EmbeddingTable(tuple(f"t{i}" for i in range(n)), vectors)
        peaks = []
        for seed in range(20):
            tracemalloc.start()
            try:
                build_clustered(emb, k, 6, seed=seed)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        bound = 8 * (hashing._ROW_FLOATS + 3 * hashing._RECHECK_FLOATS
                     + (k + 10) * n)
        assert max(peaks) <= bound  # 0.455x the vectors
        assert max(peaks) <= 1.1 * min(peaks)


class TestSerialization:
    def test_round_trip_equality(self):
        t = build_random(small_vocab(), 3, 6, seed=5)
        back = parse_hash_table(serialize_hash_table(t))
        assert serialize_hash_table(back) == serialize_hash_table(t)
        assert np.array_equal(back.layers, t.layers)

    def test_round_trip_bytes(self):
        t = build_random(small_vocab(), 2, 8, seed=5)
        text = serialize_hash_table(t)
        assert serialize_hash_table(parse_hash_table(text)) == text

    def test_file_round_trip(self, tmp_path):
        t = build_random(small_vocab(), 3, 6, seed=7)
        path = tmp_path / "table.hash"
        save_hash_table(t, path)
        assert serialize_hash_table(load_hash_table(path)) == \
            serialize_hash_table(t)

    def test_header_carries_metadata(self):
        t = build_random(small_vocab(), 3, 6, seed=12)
        head = serialize_hash_table(t).splitlines()[0]
        assert head == "#hashee v1 method=rand-cons B=3 L=6 seed=12"

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            parse_hash_table("#wrong v9 method=mi B=1 L=1 seed=0\n")

    @pytest.mark.parametrize("head, says", [
        ("#hashee v2 method=mi B=1 L=1 seed=0", "not a hash table file"),
        ("#hashee v1 method=mi B=1 L=1", "header is missing seed"),
        ("#hashee v1 method=mi B=1 L=1 seed=0 x=1", "unknown field 'x=1'"),
        ("#hashee v1 method=mi  B=1 L=1 seed=0", "unknown field ''"),
        ("#hashee v1 method=mi B=one L=1 seed=0", "'B=one' is not key=integer"),
        ("#hashee v1 method=mi B L=1 seed=0", "'B' is not key=integer"),
    ], ids=["magic", "missing", "unknown", "double-space", "non-integer",
            "no-value"])
    def test_malformed_header_names_its_fault(self, head, says):
        with pytest.raises(ParseError, match=re.escape(says)):
            parse_hash_table(head + "\na\t0\t1\n")

    @pytest.mark.parametrize("field", [
        "B=\u0663", "B=3\u00a0", "B=03", "B=+3", "B=-3", "B= 3", "L=1_2",
        "L=12.0", "seed=+7", "seed=07", "seed=-0", "seed=--7", "seed=\uff17"])
    def test_header_takes_only_written_integers(self, field):
        # a field parses only in the form format_header writes, so a table
        # that loads re-saves as the same bytes
        fields = dict(part.split("=") for part in ["B=3", "L=12", "seed=-7"])
        key, value = field.split("=", 1)
        fields[key] = value
        head = "#hashee v1 method=frequency " + " ".join(
            f"{k}={v}" for k, v in fields.items())
        with pytest.raises(ParseError, match="is not key=integer"):
            parse_hash_table(head + "\na\t0\t1\n")

    @pytest.mark.parametrize("row", ["a\t+0\t1", "a\t0\t 1", "a\t0\t1 ",
                                     "a\t00\t1", "a\t0\t\u0661", "a\t0\t0_1",
                                     "a\t-0\t1"])
    def test_rows_take_only_written_integers(self, row):
        with pytest.raises(ParseError, match="line 2: non-integer bucket/layer"):
            parse_hash_table("#hashee v1 method=frequency B=3 L=12 seed=7\n"
                             + row + "\n")

    def test_negative_seed_round_trips(self):
        text = "#hashee v1 method=frequency B=3 L=12 seed=-7\na\t0\t1\nb\t2\t9\n"
        table = parse_hash_table(text)
        assert table.seed == -7
        assert serialize_hash_table(table) == text

    @pytest.mark.parametrize("end", ["\r\n", "\x1c", "\u2028", None],
                             ids=["crlf", "file-separator", "line-separator",
                                  "unterminated"])
    def test_lines_end_only_in_newline(self, tmp_path, end):
        # each of these once loaded, then saved as other bytes: the "\n" form
        text = "#hashee v1 method=frequency B=3 L=12 seed=7\na\t0\t1\nb\t2\t9\n"
        path = tmp_path / "table.hash"
        path.write_bytes((text[:-1] if end is None
                          else text.replace("\n", end)).encode())
        with pytest.raises(ParseError):
            load_hash_table(path)

    def test_inconsistent_layer_rejected(self):
        text = "#hashee v1 method=rand-cons B=2 L=4 seed=0\na\t0\t1\nb\t1\t4\n"
        with pytest.raises(ParseError):
            parse_hash_table(text)

    def test_truncated_line_rejected(self):
        text = "#hashee v1 method=rand-cons B=2 L=4 seed=0\na\t0\n"
        with pytest.raises(ParseError):
            parse_hash_table(text)

    def test_first_inconsistent_line_named(self):
        text = ("#hashee v1 method=rand-cons B=2 L=4 seed=0\n"
                "a\t0\t1\nb\t1\t2\nc\t0\t4\n")
        with pytest.raises(ParseError, match="^line 3: layer 2 inconsistent "
                           "with bucket 1$"):
            parse_hash_table(text)

    @pytest.mark.parametrize("header, rows", [
        ("B=2 L=4", "a\t5\t11\n"),  # bucket out of range
        ("B=2 L=4", "a\t-1\t0\n"),
        ("B=0 L=4", "a\t0\t1\n"),
        ("B=5 L=4", "a\t0\t1\n"),
        ("B=2 L=4", "a\t99999999999999999999\t1\n"),  # beyond int64
        ("B=2 L=4", ""),  # no tokens
        ("B=2 L=4", "\t0\t1\n"),  # empty token
        ("B=2 L=4", "a b\t0\t1\n"),  # token with whitespace
        ("B=2 L=4", "a\t0\t1\na\t1\t3\n"),  # duplicate token
    ], ids=["bucket-high", "bucket-negative", "no-buckets", "buckets-over-layers",
            "bucket-overflow", "no-tokens", "empty-token", "spaced-token",
            "duplicate-token"])
    def test_malformed_file_is_parse_error(self, header, rows):
        text = f"#hashee v1 method=rand-cons {header} seed=0\n{rows}"
        with pytest.raises(ParseError):
            parse_hash_table(text)

    @pytest.mark.parametrize("buckets, error", [
        (np.array([0.5, 1.9]), InputError),   # once stored as buckets 0, 1
        (np.array([True, False]), InputError),
        (np.array([[0], [1]]), ShapeError),
    ], ids=["floats", "bools", "nested"])
    def test_buckets_must_be_an_integer_vector(self, buckets, error):
        with pytest.raises(error):
            HashTable(method="frequency", num_buckets=2, num_layers=2, seed=0,
                      tokens=("a", "b"), buckets=buckets)

    @pytest.mark.parametrize("tokens", [("a", "a\tb"), ("", "b"), ("a", "a")])
    def test_table_refuses_tokens_its_file_cannot_hold(self, tokens):
        with pytest.raises(InputError):
            HashTable(method="frequency", num_buckets=1, num_layers=2, seed=0,
                      tokens=tokens, buckets=np.zeros(2, dtype=np.int64))


def scalars(low, high):
    """Integers in low..high, as Python ints and, within int64, as numpy
    ints, and the bools and floats the integer rule refuses."""
    int64 = st.integers(max(low, -2 ** 63), min(high, 2 ** 63 - 1))
    return st.one_of(st.integers(low, high), int64.map(np.int64),
                     st.booleans(), st.floats())


class TestScalarRule:
    @PROPS
    @given(method=st.sampled_from(hashing.HASH_METHODS),
           num_buckets=scalars(-1, 8), num_layers=scalars(-1, 2 ** 65),
           seed=scalars(-2 ** 65, 2 ** 65))
    @example(method="frequency", num_buckets=2, num_layers=2 ** 64, seed=0)
    def test_every_accepted_table_reloads_byte_identical(
            self, method, num_buckets, num_layers, seed):
        try:
            table = HashTable(method, num_buckets, num_layers, seed,
                              ("a", "b"), [0, 0])
        except (ConfigError, InputError):
            return
        assert all(type(value) is int for value in
                   (table.num_buckets, table.num_layers, table.seed))
        text = serialize_hash_table(table)
        assert serialize_hash_table(parse_hash_table(text)) == text

    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda: HashTable("frequency", 2, 4, 1.5, ("a", "b"),
                                       [0, 1]), InputError, id="table-seed-1.5"),
        pytest.param(lambda: HashTable("frequency", 2, 4, True, ("a", "b"),
                                       [0, 1]), InputError, id="table-seed-bool"),
        pytest.param(lambda: HashTable("frequency", 1, True, 0, ("a", "b"),
                                       [0, 0]), InputError,
                     id="table-layers-bool"),
        # bucket 2 of 3 once mapped to layer 0 at this L, wrapped in int64
        pytest.param(lambda: HashTable("frequency", 3, 2 ** 63 - 1, 0,
                                       ("a", "b", "c"), [0, 1, 2]),
                     ConfigError, id="table-layers-beyond-int64"),
        pytest.param(lambda: build_random(small_vocab(), 2.0, 4, 0), InputError,
                     id="random-buckets-2.0"),
        pytest.param(lambda: build_clustered(
            EmbeddingTable(("a", "b"), np.eye(2)), 2.0, 4, 0), InputError,
            id="clustered-buckets-2.0"),
        pytest.param(lambda: kmeans(np.eye(3), 2.0, 0), InputError,
                     id="kmeans-k-2.0"),
        pytest.param(lambda: kmeans(np.eye(3), True, 0), InputError,
                     id="kmeans-k-bool"),
        pytest.param(lambda: build_random(small_vocab(), 2, 4, seed=-1),
                     ConfigError, id="random-seed-negative"),
        pytest.param(lambda: kmeans(np.eye(3), 2, -1), ConfigError,
                     id="kmeans-seed-negative"),
    ])
    def test_counts_and_seeds_are_checked_integers(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("token_id", [True, 1.0])
    def test_token_id_is_an_integer(self, token_id):
        stats = CorpusStats.from_documents(Vocab(("x", "y")), [["x"], ["y"]],
                                           ["1", "0"])
        with pytest.raises(InputError):
            token_label_mi(stats, token_id)


class TestEmbeddingIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        emb = EmbeddingTable(("a", "b", "c"), rng.normal(size=(3, 5)))
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.tokens == emb.tokens
        assert np.array_equal(back.vectors, emb.vectors)

    def test_header_shape(self, tmp_path):
        emb = EmbeddingTable(("a",), np.array([[1.0, 2.0]]))
        path = tmp_path / "emb.bin"
        save_embeddings(emb, path)
        assert path.read_bytes() == (b"#hashee-embeddings v1 V=1 d=2\n"
                                     + np.array([1.0, 2.0], "<f8").tobytes()
                                     + b"a\n")

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1.0 2.0 3.0\nb 1.0\n")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_text_format_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match="^not a token embedding file "
                           r"\(bad magic header\)$"):
            load_embeddings(path)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(40, 6))
        vectors[0, 0], vectors[1, 1] = -0.0, 5e-324  # sign and subnormal bits
        emb = EmbeddingTable(tuple(f"t{i}" for i in range(40)), vectors)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_embeddings(emb, first)
        back = load_embeddings(first)
        save_embeddings(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(back.vectors.view(np.int64),
                              vectors.view(np.int64))

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingTable((), np.zeros((0, 3))), path)
        back = load_embeddings(path)
        assert back.tokens == () and back.vectors.shape == (0, 3)

    @staticmethod
    def write_with_tokens(path, block, count=2):
        vectors = np.arange(2.0 * count).reshape(count, 2)
        path.write_bytes(f"#hashee-embeddings v1 V={count} d=2\n".encode()
                         + vectors.astype("<f8").tobytes() + block)

    @pytest.mark.parametrize("block, says", [
        (b"a\n", "not the 2 lines"),
        (b"a\nb\nc\n", "not the 2 lines"),
        (b"a\nb", "not the 2 lines"),
        (b"", "not the 2 lines"),
        (b"a\n\n", "empty or contains whitespace"),
        (b"a\nb c\n", "empty or contains whitespace"),
        (b"a\nb\rc\n", "empty or contains whitespace"),
        (b"a\na\n", "appears more than once"),
        (b"a\n\xff\n", "not UTF-8"),
    ], ids=["short", "overlong", "unterminated", "missing", "empty-token",
            "space", "carriage-return", "duplicate", "not-utf8"])
    def test_bad_token_block(self, tmp_path, block, says):
        path = tmp_path / "emb.bin"
        self.write_with_tokens(path, block)
        with pytest.raises(ParseError, match=says):
            load_embeddings(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingTable(("a", "b"), np.ones((2, 2))), path)
        data = bytearray(path.read_bytes())
        start = data.index(b"\n") + 1 + 8 * 3
        data[start:start + 8] = np.array([np.inf], "<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="non-finite"):
            load_embeddings(path)

    def test_bad_tokens_refused(self, tmp_path):
        for tokens in (("a", "a"), ("a", "b c"), ("", "b")):
            with pytest.raises(InputError):
                save_embeddings(EmbeddingTable(tokens, np.ones((2, 2))),
                                tmp_path / "emb.bin")

    def test_many_blocks_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        emb = EmbeddingTable(tuple(f"t{i}" for i in range(2500)),
                             rng.normal(size=(2500, 3)) * 10.0 ** rng.integers(
                                 -300, 300, size=(2500, 1)))
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.tokens == emb.tokens
        assert np.array_equal(back.vectors, emb.vectors)


class TestTableLaws:
    """Sort-key monotonicity, balance, and round-trips on random corpora."""

    def test_frequency_and_mi_laws(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            vocab, stats, _, _ = make_random_labeled_corpus(rng)
            L = int(rng.integers(2, 13))
            B = int(rng.integers(1, L + 1))
            freq_t = build_frequency(vocab, stats, B, L)
            mi_t = build_mi(vocab, stats, B, L)
            mi_scores = np.array([token_label_mi(stats, t) for t in range(len(vocab))])
            for table, key in ((freq_t, stats.freq), (mi_t, mi_scores)):
                layers = table.layers
                sizes = table.bucket_sizes()
                assert sizes.max() - sizes.min() <= 1
                for t1 in range(len(vocab)):
                    for t2 in range(len(vocab)):
                        if key[t1] > key[t2]:
                            assert layers[t1] <= layers[t2]
                text = serialize_hash_table(table)
                assert serialize_hash_table(parse_hash_table(text)) == text
