"""Token -> bucket -> exit-layer lookup tables.

A HashTable fixes, ahead of time, the layer at which every vocabulary
token stops being updated by the encoder. Builders cover random
assignment (consistent or deliberately inconsistent between training and
inference), frequency ranking, token/label mutual information, and
k-means clustering of token embeddings ranked by mean vector norm.

Building works on whole arrays, sized for vocabularies of about 30k
tokens: corpus counts are integer `np.bincount`s, presence and MI
grouping sort rather than hash, MI runs once per distinct co-occurrence
row, and k-means works in row blocks: it holds no (n, k, dim) tensor, no
(n, dim) temporary and no copy of a cluster's rows, so its peak is a
formula of k*n and the budgets `_ROW_FLOATS` and `_RECHECK_FLOATS` (see
`kmeans`), whatever the clustering. Each table is byte-identical to one
built a token at a time.

Grouping sorts because numpy 2.4 runs an integer `np.unique` through a
hash table, about 16 times slower than a sort and a neighbour mask on the
(document, token) keys of a 1000-document corpus. So this module makes no
`np.unique` call, and a test (`test_builders_group_by_sorting`, which
gives the timings) holds it to that.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .artifacts import (BinaryFormat, format_header, index_tokens, open_text,
                        parse_header, parse_ints, read_floats, read_lines,
                        split_lines, write_text)
from .errors import (ConfigError, InputError, ParseError, int_scalar,
                     int_vector, rng_seed)

HASH_METHODS = (
    "rand-cons",
    "rand-incons-A",
    "rand-incons-B",
    "frequency",
    "mi",
    "clustered",
)

_TABLE_HEADER = ("#hashee v1", ("method", "B", "L", "seed"))  # magic, fields

_EMBEDDINGS_FORMAT = BinaryFormat(
    kind="token embedding", magic="#hashee-embeddings v1", fields=("V", "d"),
    zero_ok=("V",), floats=lambda meta: meta["V"] * meta["d"],
    contents="vectors", has_lines=True)


@dataclass(frozen=True)
class Vocab:
    """Ordered list of distinct tokens; ids are positions 0..V-1."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", index_tokens(self.tokens))

    @classmethod
    def from_documents(cls, documents) -> "Vocab":
        """Vocabulary of all tokens seen in the documents, in sorted order."""
        seen = set()
        for doc in documents:
            seen.update(doc)
        if not seen:
            raise InputError("no tokens in corpus")
        return cls(tuple(sorted(seen)))

    def __len__(self) -> int:
        return len(self.tokens)

    def ids_for(self, tokens) -> list[int]:
        """Map tokens to ids; tokens outside the vocab map to -1. The
        package uses `packed_ids`; this stays for bench/, which wraps it."""
        return [self._index.get(t, -1) for t in tokens]

    def packed_ids(self, documents):
        """The ids of every token of `documents`, a list of token lists,
        in one int64 vector, and each document's start row followed by the
        row count, as `encoder.route` takes them: the one text-to-ids
        lookup, in one flat pass with no list per document."""
        offsets = np.zeros(len(documents) + 1, dtype=np.int64)
        np.cumsum([len(doc) for doc in documents], out=offsets[1:])
        ids = np.fromiter(map(self._index.get, chain.from_iterable(documents),
                              repeat(-1)),
                          dtype=np.int64, count=int(offsets[-1]))
        return ids, offsets


@dataclass
class CorpusStats:
    """Occurrence and (optionally) label co-occurrence counts for a vocab.

    freq counts token occurrences; cooccur[t, y] counts documents of label
    y in which token t appears at least once (document-level presence).
    All counts are int64.
    """

    freq: np.ndarray
    doc_count: int
    label_set: tuple[str, ...] | None = None
    label_counts: np.ndarray | None = None
    cooccur: np.ndarray | None = None

    @classmethod
    def from_documents(cls, vocab: Vocab, documents, labels=None) -> "CorpusStats":
        """Count a sequence of token lists; tokens outside the vocab are
        skipped. Every count is one integer `np.bincount`, so it is exact.
        Presence comes from the sorted (document, token) keys: a key that
        differs from its left neighbour is a pair present in the corpus."""
        if labels is not None and len(labels) != len(documents):
            raise InputError(f"{len(labels)} labels for {len(documents)} documents")
        size = len(vocab)
        ids, offsets = vocab.packed_ids(documents)
        doc_of = np.repeat(np.arange(len(documents)), np.diff(offsets))
        known = ids >= 0
        ids, doc_of = ids[known], doc_of[known]
        freq = np.bincount(ids, minlength=size)
        if labels is None:
            return cls(freq, len(documents))
        label_set = tuple(sorted(set(labels)))
        label_index = {y: j for j, y in enumerate(label_set)}
        label_of = np.array([label_index[y] for y in labels], dtype=np.int64)
        label_counts = np.bincount(label_of, minlength=len(label_set))
        # one key per (document, token) pair present: presence, not count
        keys = np.sort(doc_of * size + ids)
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True  # no head at all when there is no key
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        present = keys[first]
        cells = (present % size) * len(label_set) + label_of[present // size]
        cooccur = np.bincount(cells, minlength=size * len(label_set))
        return cls(freq, len(documents), label_set, label_counts,
                   cooccur.reshape(size, len(label_set)))

    @property
    def labeled(self) -> bool:
        return self.cooccur is not None


def _check_buckets(num_buckets: int, num_layers: int) -> tuple[int, int]:
    """B and L as Python ints read by `errors.int_scalar`. B outside 1..L
    is a ConfigError, as is a B*L beyond int64, in which `bucket_to_layer`
    works."""
    num_buckets = int_scalar(num_buckets, "buckets")
    num_layers = int_scalar(num_layers, "layers")
    if num_buckets < 1 or num_buckets > num_layers:
        raise ConfigError(
            f"need 1 <= buckets <= layers, got B={num_buckets} L={num_layers}"
        )
    if num_buckets * num_layers > np.iinfo(np.int64).max:
        raise ConfigError(f"B*L must fit in int64, got B={num_buckets} "
                          f"L={num_layers}")
    return num_buckets, num_layers


def bucket_to_layer(b, num_buckets: int, num_layers: int):
    """Exit layer of bucket b: 1 + floor(L*b/B); bucket 0 is always layer 1.

    b is an int, which gives an int, or an array of buckets, which gives
    an int64 array of their layers in its shape; a float or bool bucket is
    an InputError (`errors.int_vector`), never truncated."""
    num_buckets, num_layers = _check_buckets(num_buckets, num_layers)
    buckets = int_vector(np.ravel(b), "buckets")
    bad = (buckets < 0) | (buckets >= num_buckets)
    if bad.any():
        raise ConfigError(f"bucket {buckets[bad][0]} out of range "
                          f"0..{num_buckets - 1}")
    layers = (1 + (num_layers * buckets) // num_buckets).reshape(np.shape(b))
    return layers if layers.ndim else int(layers)


@dataclass(frozen=True, eq=False)
class HashTable:
    """Immutable token -> (bucket, exit layer) map. Tokens are non-empty,
    free of whitespace and distinct; `buckets` holds one integer bucket
    per token (`errors.int_vector`). B, L and `seed` are held as Python
    ints (`errors.int_scalar`); the seed is a label and may be negative.

    `vocab` is the Vocab of `tokens`, the table's own index: its ids are
    table rows, whose exit layers `layers` holds. `exits` looks ids up;
    an id outside the table (an unseen token's -1) gets the last layer,
    so unknown tokens run the full model. `==` is identity.
    """

    method: str
    num_buckets: int
    num_layers: int
    seed: int
    tokens: tuple[str, ...]
    buckets: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.method not in HASH_METHODS:
            raise ConfigError(f"unknown hash method {self.method!r}")
        if not self.tokens:
            raise ConfigError("empty vocab")
        num_buckets, num_layers = _check_buckets(self.num_buckets,
                                                 self.num_layers)
        object.__setattr__(self, "num_buckets", num_buckets)
        object.__setattr__(self, "num_layers", num_layers)
        object.__setattr__(self, "seed", int_scalar(self.seed, "seed"))
        buckets = int_vector(self.buckets, "buckets")
        if buckets.size != len(self.tokens):
            raise ConfigError("one bucket per token required")
        object.__setattr__(self, "buckets", buckets)
        layers = bucket_to_layer(buckets, num_buckets, num_layers)
        layers.setflags(write=False)
        buckets.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "vocab", Vocab(self.tokens))

    def exits(self, ids, num_layers=None) -> np.ndarray:
        """The exit layer of each token id in `ids`, as a new int64 array:
        the one id -> layer lookup. Ids outside the table (< 0 or >= V)
        get layer L. `ids` is an integer vector (`errors.int_vector`). A
        num_layers other than the table's L is a ConfigError."""
        if num_layers is not None and num_layers != self.num_layers:
            raise ConfigError(f"table built for L={self.num_layers}, "
                              f"model has L={num_layers}")
        ids = int_vector(ids, "token ids")
        exits = np.full(ids.shape, self.num_layers, dtype=np.int64)
        known = (ids >= 0) & (ids < len(self.tokens))
        exits[known] = self.layers[ids[known]]
        return exits

    def bucket_sizes(self) -> np.ndarray:
        return np.bincount(self.buckets, minlength=self.num_buckets)


def _chunked_table(method, vocab, order, num_buckets, num_layers, seed=0):
    """The table whose bucket b holds the b-th of num_buckets consecutive
    chunks of `order` (best-ranked first); the first (V mod B) chunks take
    one token more."""
    _check_buckets(num_buckets, num_layers)
    base, extra = divmod(len(order), num_buckets)
    sizes = base + (np.arange(num_buckets) < extra)
    buckets = np.empty(len(order), dtype=np.int64)
    buckets[order] = np.repeat(np.arange(num_buckets), sizes)
    return HashTable(method, num_buckets, num_layers, seed, vocab.tokens,
                     buckets)


def _random_table(vocab, num_buckets, num_layers, seed, method) -> HashTable:
    order = np.random.default_rng(seed).permutation(len(vocab))
    return _chunked_table(method, vocab, order, num_buckets, num_layers, seed)


def build_random(vocab: Vocab, num_buckets: int, num_layers: int, seed: int,
                 consistent: bool = True):
    """Uniform-random equal-size bucket assignment.

    With consistent=True one table serves both training and inference
    ("rand-cons"). With consistent=False two independent tables are built
    from seeds derived from `seed` and returned as a (train, infer) pair
    ("rand-incons-A"/"rand-incons-B"). `seed` is read by
    `errors.rng_seed`, so a negative one is a ConfigError.
    """
    seed = rng_seed(seed)
    if consistent:
        return _random_table(vocab, num_buckets, num_layers, seed, "rand-cons")
    rng = np.random.default_rng(seed)
    seed_a, seed_b = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
    return (
        _random_table(vocab, num_buckets, num_layers, seed_a, "rand-incons-A"),
        _random_table(vocab, num_buckets, num_layers, seed_b, "rand-incons-B"),
    )


def build_frequency(vocab: Vocab, stats: CorpusStats, num_buckets: int,
                    num_layers: int) -> HashTable:
    """Sort tokens by descending frequency and chunk into equal buckets.

    The most frequent chunk exits at the lowest layer. Ties break by
    ascending token id so the table is deterministic.
    """
    if len(stats.freq) != len(vocab):
        raise ConfigError("stats do not cover the vocab")
    # lexsort: last key is primary; negated freq sorts descending
    order = np.lexsort((np.arange(len(vocab)), -stats.freq))
    return _chunked_table("frequency", vocab, order, num_buckets, num_layers)


def token_label_mi(stats: CorpusStats, token_id: int) -> float:
    """Mutual information between token presence and the document label.

    Presence is the binary event "the token occurs in the document"; all
    probabilities are raw document fractions (no smoothing), in nats.
    `token_id` is read by `errors.int_scalar`.
    """
    token_id = int_scalar(token_id, "token id")
    if not stats.labeled:
        raise ConfigError("mutual information requires a labeled corpus")
    n = stats.doc_count
    if n == 0:
        raise InputError("empty corpus")
    if not 0 <= token_id < len(stats.cooccur):
        raise InputError(f"token id {token_id} out of range "
                         f"0..{len(stats.cooccur) - 1}")
    return _mi_of(stats.cooccur[token_id], stats.label_counts, n)


def _mi_of(row, label_counts, n) -> float:
    """`token_label_mi` of a token whose co-occurrence row is `row`, in a
    corpus of n documents whose label counts are `label_counts`."""
    with_token = row.astype(np.float64)
    p_present = with_token.sum() / n
    counts = (with_token.tolist(), (label_counts - with_token).tolist())
    p_label = (label_counts / n).tolist()
    mi = 0.0
    for p_t, part in zip((p_present, 1.0 - p_present), counts):
        for p_y, c in zip(p_label, part):
            if c > 0 and p_t > 0:
                p_ty = c / n
                mi += p_ty * math.log(p_ty / (p_t * p_y))
    # exact independence can leave tiny negative float residue
    return max(0.0, mi)


def _mi_scores(stats: CorpusStats) -> np.ndarray:
    """`token_label_mi` of every token id, in id order.

    A score depends only on the token's row of `stats.cooccur`, so
    `_mi_of` runs once per distinct row and the scores are gathered back:
    the same floats as one `token_label_mi` call per token. One
    `np.lexsort` over the label columns brings equal rows together, and a
    row that differs from its left neighbour starts a new group.
    """
    if not stats.labeled:
        raise ConfigError("mutual information requires a labeled corpus")
    cooccur = stats.cooccur
    # the zero key keeps lexsort's key list non-empty when there is no label
    order = np.lexsort((np.zeros(len(cooccur), dtype=np.int64), *cooccur.T))
    rows = cooccur[order]
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True  # no head at all when there is no row
    (rows[1:] != rows[:-1]).any(axis=1, out=first[1:])
    n = stats.doc_count
    if n == 0:
        raise InputError("empty corpus")
    distinct = np.array([_mi_of(row, stats.label_counts, n)
                         for row in rows[first]])
    scores = np.empty(len(rows))
    scores[order] = distinct[np.cumsum(first) - 1]
    return scores


def build_mi(vocab: Vocab, stats: CorpusStats, num_buckets: int,
             num_layers: int) -> HashTable:
    """Chunk tokens by descending mutual information with the label.

    High-MI tokens exit at the lowest layers; ties break by token id.
    """
    if len(stats.freq) != len(vocab):
        raise ConfigError("stats do not cover the vocab")
    scores = _mi_scores(stats)
    order = np.lexsort((np.arange(len(vocab)), -scores))
    return _chunked_table("mi", vocab, order, num_buckets, num_layers)


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Per-token real vectors: row i is the vector of `tokens[i]`, held
    as one C-ordered float64 array. Tokens are distinct, non-empty and
    free of whitespace (`index_tokens`)."""

    tokens: tuple[str, ...]
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(self.tokens):
            raise ConfigError(
                f"need one vector per token, got {vectors.shape} "
                f"for {len(self.tokens)} tokens"
            )
        if not np.all(np.isfinite(vectors)):
            raise InputError("embedding vectors must be finite")
        index_tokens(self.tokens)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# Floats of the (rows, k, dim) temporary one block of the exact distance
# recheck in `_nearest` may hold.
_RECHECK_FLOATS = 1 << 20

# Floats of the (rows, dim) temporary one block of `_row_sq_sums`, or the
# gather buffer of `_means`, may hold.
_ROW_FLOATS = 1 << 16


def _row_sq_sums(points: np.ndarray, centers=None, labels=None) -> np.ndarray:
    """Each row's summed squares: of the row itself, of `row - centers`
    for one (dim,) center, or, given `labels`, of `row - centers[label]`,
    the row's own center.

    Rows are squared in blocks of at most `_ROW_FLOATS` floats, so no
    (n, dim) temporary is held. Each row of C-ordered points is summed on
    its own, so the result equals `((points - c) ** 2).sum(axis=1)` bit
    for bit, and its `np.sqrt` equals `np.linalg.norm(points, axis=1)`.
    """
    out = np.empty(len(points))
    block = max(1, _ROW_FLOATS // max(1, points.shape[1]))
    for start in range(0, len(points), block):
        stop = start + block
        rows = points[start:stop]
        if centers is None:
            rows = np.square(rows)
        else:
            if labels is None:
                rows = rows - centers
            else:  # each row's own center, subtracted in place
                own = centers[labels[start:stop]]
                rows = np.subtract(rows, own, out=own)
            np.square(rows, out=rows)
        rows.sum(axis=1, out=out[start:stop])
    return out


def _nearest(points: np.ndarray, sq_norms: np.ndarray,
             centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, as the argmin of the summed
    squared differences; `sq_norms` holds each point's squared norm.

    Distances come from |x|^2 - 2 x.c + |c|^2, one (k, n) array made in
    place from `centers @ points.T`; one scan over its k rows keeps each
    point's nearest and second-nearest distance, a strict `<` keeping
    ties on the lower center. That expansion and the summed squared
    differences each err by at most about dim * 2**-53 * (|x|^2 + |c|^2),
    so wherever a point's two smallest expanded distances differ by more
    than 1e-9 * (|x|^2 + max |c|^2), both give the same nearest center
    (for dim up to about 10**6). The other points, and any point whose
    distances are not finite, are recomputed as summed squared
    differences in row blocks: the labels are exactly those of that
    formula, ties going to the lower center index, without an
    (n, k, dim) temporary.
    """
    labels = np.zeros(len(points), dtype=np.int64)
    if len(centers) == 1:
        return labels
    c_sq = _row_sq_sums(centers)
    d2 = centers @ points.T
    d2 *= -2.0
    d2 += sq_norms
    d2 += c_sq[:, None]
    best, second = d2[0].copy(), np.full(len(points), np.inf)
    for c in range(1, len(centers)):
        np.copyto(labels, c, where=d2[c] < best)
        np.minimum(second, np.maximum(best, d2[c]), out=second)
        np.minimum(best, d2[c], out=best)
    bound = 1e-9 * (sq_norms + c_sq.max())
    sure = (second - best > bound) & np.isfinite(d2).all(axis=0)
    recheck = np.flatnonzero(~sure)
    block = max(1, _RECHECK_FLOATS // centers.size)
    for start in range(0, len(recheck), block):
        rows = recheck[start:start + block]
        diff = points[rows, None, :] - centers[None, :, :]
        labels[rows] = (diff ** 2).sum(axis=2).argmin(axis=1)
    return labels


def _repair_empty(points, centers, labels, k):
    """Give each empty cluster the point farthest from its own centroid."""
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0):
        dist = _row_sq_sums(points, centers, labels)
        dist[counts[labels] <= 1] = -1.0  # never empty another cluster
        p = int(dist.argmax())
        counts[labels[p]] -= 1
        labels[p] = c
        counts[c] += 1
    return labels


def _means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The (k, dim) means of the points of each cluster 0..k-1; every
    cluster must hold a point.

    Each cluster's rows are read in blocks of `_ROW_FLOATS` floats: a
    block is gathered, in index order, behind the cluster's running sum
    in one reused buffer, and `np.add.reduce` adds the buffer's rows in
    order. numpy reduces axis 0 of a C-ordered array row after row, so
    each sum adds the cluster's rows in the order `np.compress(labels ==
    c, points, axis=0).sum(axis=0)` does, and the means equal that
    copy's `.mean(axis=0)` bit for bit. A cluster's first block is
    reduced without a running sum ahead of it, as that copy starts. A
    single column is summed pairwise instead, so at dim 1 the block is
    every point. Beside `points` this holds the buffer, (block + 1) rows,
    and one cluster's indices, never a cluster's rows.
    """
    n, dim = points.shape
    block = n if dim == 1 else max(1, _ROW_FLOATS // dim)
    buf = np.empty((min(block, n) + 1, dim))
    sums = np.empty((k, dim))
    counts = np.empty(k, dtype=np.int64)
    for c in range(k):
        idx = np.flatnonzero(labels == c)
        counts[c] = len(idx)
        head = 1  # no running sum yet
        for start in range(0, len(idx), block):
            part = idx[start:start + block]
            m = len(part)
            # mode="raise" would buffer `out`; the indices are all in range
            points.take(part, axis=0, out=buf[1:m + 1], mode="clip")
            np.add.reduce(buf[head:m + 1], axis=0, out=sums[c])
            buf[0] = sums[c]
            head = 0
    return sums / counts[:, None]


def kmeans(points: np.ndarray, k: int, seed: int):
    """Lloyd's k-means with k-means++ seeding.

    Stops after 50 sweeps or once the summed centroid movement drops
    below 1e-6. Empty clusters claim the point farthest from its
    current centroid. Deterministic for a fixed seed. Beside `points`
    it holds one (k, n) distance array, about eight n-vectors, one
    block of at most `_ROW_FLOATS` floats at a time (rows squared, or
    `_means`' gather buffer) and the recheck's blocks of at most
    `_RECHECK_FLOATS` floats, three at a time: a peak of at most about
    8 * (k*n + 8*n + _ROW_FLOATS + 3*_RECHECK_FLOATS) bytes, whichever
    way the points cluster. (At dim 1 the gather buffer is one column of
    n + 1 floats; see `_means`.)

    Returns (labels, centroids); centroids are the means of the returned
    assignment. `k` is read by `errors.int_scalar` and `seed` by
    `errors.rng_seed`.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = len(points)
    k, seed = int_scalar(k, "k"), rng_seed(seed)
    if k < 1 or k > n:
        raise ConfigError(f"need 1 <= k <= {n} points, got k={k}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = _row_sq_sums(points, centers[0])
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all remaining points coincide
        centers[i] = points[idx]
        np.minimum(d2, _row_sq_sums(points, centers[i]), out=d2)

    sq_norms = _row_sq_sums(points)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(50):
        labels = _nearest(points, sq_norms, centers)
        labels = _repair_empty(points, centers, labels, k)
        new_centers = _means(points, labels, k)
        movement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).sum()
        centers = new_centers
        if movement < 1e-6:
            break
    return labels, centers


def build_clustered(emb: EmbeddingTable, num_buckets: int, num_layers: int,
                    seed: int) -> HashTable:
    """Cluster every embedded token and rank clusters by mean vector norm.

    The table holds `emb.tokens`, in their order. Each cluster is one
    bucket; the cluster with the smallest mean L2 embedding norm exits
    first. Unlike the frequency/MI builders, bucket sizes follow the
    clustering and may be unequal. k-means reads `emb.vectors` as they
    are: no token is looked up and no row is gathered into a copy.
    """
    _check_buckets(num_buckets, num_layers)
    labels, _ = kmeans(emb.vectors, num_buckets, seed)
    norms = np.sqrt(_row_sq_sums(emb.vectors))
    mean_norms = np.array([norms[labels == c].mean() for c in range(num_buckets)])
    order = np.lexsort((np.arange(num_buckets), mean_norms))
    rank = np.empty(num_buckets, dtype=np.int64)
    rank[order] = np.arange(num_buckets)
    return HashTable("clustered", num_buckets, num_layers, seed, emb.tokens,
                     rank[labels])


def serialize_hash_table(table: HashTable) -> str:
    """Render the v1 text format; byte-exact round trip with parse."""
    head = format_header(*_TABLE_HEADER, {
        "method": table.method, "B": table.num_buckets,
        "L": table.num_layers, "seed": table.seed})
    buckets = table.buckets.tolist()
    distinct = list(set(buckets))
    layers = bucket_to_layer(np.array(distinct, dtype=np.int64),
                             table.num_buckets, table.num_layers).tolist()
    suffix = {b: f"\t{b}\t{layer}\n" for b, layer in zip(distinct, layers)}
    return head + "\n" + "".join([t + suffix[b]
                                  for t, b in zip(table.tokens, buckets)])


def parse_hash_table(text: str) -> HashTable:
    lines = split_lines(text, "hash table's last line has no line break")
    if not lines:
        raise ParseError("empty hash table file")
    head = parse_header(lines[0], *_TABLE_HEADER, "hash table",
                        text=("method",), signed=("seed",))
    rows = lines[1:]
    tabs = [row.count("\t") for row in rows]
    if tabs.count(2) != len(rows):
        short = next(i for i, count in enumerate(tabs) if count != 2)
        raise ParseError(f"line {short + 2}: expected token<TAB>bucket<TAB>layer")
    fields = "\t".join(rows).split("\t") if rows else []
    tokens = fields[0::3]
    del fields[0::3]  # bucket, layer, bucket, ...: field i is on line i//2 + 2
    try:
        numbers = parse_ints(fields)
    except ValueError as exc:
        raise ParseError(f"line {exc.args[1] // 2 + 2}: non-integer "
                         "bucket/layer") from None
    buckets, layers = numbers[0::2], numbers[1::2]
    try:
        table = HashTable(head["method"], head["B"], head["L"], head["seed"],
                          tuple(tokens), np.array(buckets, dtype=np.int64))
        wrong = np.flatnonzero(np.array(layers, dtype=np.int64) != table.layers)
    except (ConfigError, InputError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    if wrong.size:
        i = int(wrong[0])
        raise ParseError(f"line {i + 2}: layer {layers[i]} inconsistent "
                         f"with bucket {buckets[i]}")
    return table


def save_hash_table(table: HashTable, path) -> None:
    write_text(path, serialize_hash_table(table))


def load_hash_table(path) -> HashTable:
    with open_text(path) as f:
        return parse_hash_table(f.read())


def save_embeddings(emb: EmbeddingTable, path) -> None:
    """Binary format: the header `#hashee-embeddings v1 V=.. d=..`, the
    V×d vectors as raw little-endian float64, then the V tokens as UTF-8
    lines."""
    _EMBEDDINGS_FORMAT.write(path, {"V": len(emb.tokens), "d": emb.dim},
                             [emb.vectors], emb.tokens)


def load_embeddings(path) -> EmbeddingTable:
    """Read a `save_embeddings` file. The header is checked against the
    file size before the vectors are read straight into their array."""
    with _EMBEDDINGS_FORMAT.read(path) as (meta, fh):
        vectors = read_floats(fh, "vectors", meta["V"], meta["d"])
        tokens = read_lines(fh, meta["V"], "embedding tokens")
    try:
        return EmbeddingTable(tuple(tokens), vectors)
    except InputError as exc:
        raise ParseError(f"embedding tokens: {exc}") from None
