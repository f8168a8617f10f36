"""Token -> bucket -> exit-layer lookup tables.

A HashTable fixes, ahead of time, the layer at which every vocabulary
token stops being updated by the encoder. Builders cover random
assignment (consistent or deliberately inconsistent between training and
inference), frequency ranking, token/label mutual information, and
k-means clustering of token embeddings ranked by mean vector norm.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, ParseError, open_text

__all__ = [
    "Vocab",
    "CorpusStats",
    "HashTable",
    "EmbeddingTable",
    "HASH_METHODS",
    "bucket_to_layer",
    "build_random",
    "build_frequency",
    "token_label_mi",
    "build_mi",
    "kmeans",
    "build_clustered",
    "serialize_hash_table",
    "parse_hash_table",
    "save_hash_table",
    "load_hash_table",
    "load_embeddings",
    "save_embeddings",
]

HASH_METHODS = (
    "rand-cons",
    "rand-incons-A",
    "rand-incons-B",
    "frequency",
    "mi",
    "clustered",
)

_TABLE_MAGIC = "#hashee v1"


def _check_token(token: str) -> str:
    if not token or any(ch.isspace() for ch in token):
        raise InputError(f"token {token!r} is empty or contains whitespace")
    return token


@dataclass(frozen=True)
class Vocab:
    """Ordered list of distinct tokens; ids are positions 0..V-1."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        for t in self.tokens:
            _check_token(t)
        index = {t: i for i, t in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise InputError("vocab tokens must be distinct")
        object.__setattr__(self, "_index", index)

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

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int:
        return self._index[token]

    def ids_for(self, tokens, unknown: int = -1) -> list[int]:
        """Map tokens to ids; tokens outside the vocab map to `unknown`."""
        return [self._index.get(t, unknown) for t in tokens]


@dataclass
class CorpusStats:
    """Occurrence and (optionally) label co-occurrence counts for a vocab.

    freq counts token occurrences; cooccur[t, y] counts documents of label
    y in which token t appears at least once (document-level presence).
    """

    freq: np.ndarray
    doc_count: int
    label_set: tuple[str, ...] | None = None
    label_counts: np.ndarray | None = None
    cooccur: np.ndarray | None = None

    @classmethod
    def from_documents(cls, vocab: Vocab, documents, labels=None) -> "CorpusStats":
        freq = np.zeros(len(vocab), dtype=np.int64)
        label_set = None
        label_counts = None
        cooccur = None
        if labels is not None:
            if len(labels) != len(documents):
                raise InputError(
                    f"{len(labels)} labels for {len(documents)} documents"
                )
            label_set = tuple(sorted(set(labels)))
            label_index = {y: j for j, y in enumerate(label_set)}
            label_counts = np.zeros(len(label_set), dtype=np.int64)
            cooccur = np.zeros((len(vocab), len(label_set)), dtype=np.int64)
        for i, doc in enumerate(documents):
            present = set()
            for tok in doc:
                if tok in vocab:
                    tid = vocab.id_of(tok)
                    freq[tid] += 1
                    present.add(tid)
            if labels is not None:
                j = label_index[labels[i]]
                label_counts[j] += 1
                for tid in present:
                    cooccur[tid, j] += 1
        return cls(freq, len(documents), label_set, label_counts, cooccur)

    @property
    def labeled(self) -> bool:
        return self.cooccur is not None


def _check_buckets(num_buckets: int, num_layers: int) -> None:
    if num_buckets < 1 or num_buckets > num_layers:
        raise ConfigError(
            f"need 1 <= buckets <= layers, got B={num_buckets} L={num_layers}"
        )


def bucket_to_layer(b: int, num_buckets: int, num_layers: int) -> int:
    """Exit layer of bucket b: 1 + floor(L*b/B); bucket 0 is always layer 1."""
    _check_buckets(num_buckets, num_layers)
    if b < 0 or b >= num_buckets:
        raise ConfigError(f"bucket {b} out of range 0..{num_buckets - 1}")
    return 1 + (num_layers * b) // num_buckets


@dataclass(frozen=True, eq=False)
class HashTable:
    """Immutable token -> (bucket, exit layer) map.

    Lookups by out-of-range token id (or unseen token string) return the
    last layer: unknown tokens run the full model.
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
        _check_buckets(self.num_buckets, self.num_layers)
        buckets = np.asarray(self.buckets, dtype=np.int64)
        if buckets.shape != (len(self.tokens),):
            raise ConfigError("one bucket per token required")
        if buckets.min() < 0 or buckets.max() >= self.num_buckets:
            raise ConfigError("bucket index out of range")
        object.__setattr__(self, "buckets", buckets)
        layers = 1 + (self.num_layers * buckets) // self.num_buckets
        layers.setflags(write=False)
        buckets.setflags(write=False)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashTable):
            return NotImplemented
        return (
            self.method == other.method
            and self.num_buckets == other.num_buckets
            and self.num_layers == other.num_layers
            and self.seed == other.seed
            and self.tokens == other.tokens
            and np.array_equal(self.buckets, other.buckets)
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def layer_of(self, token_id: int) -> int:
        """Exit layer for a token id; ids outside the table get layer L."""
        if 0 <= token_id < len(self.tokens):
            return int(self.layers[token_id])
        return self.num_layers

    def layer_for(self, token: str) -> int:
        """Exit layer for a token string; unseen tokens get layer L."""
        tid = self._index.get(token, -1)
        return self.layer_of(tid)

    def bucket_sizes(self) -> np.ndarray:
        return np.bincount(self.buckets, minlength=self.num_buckets)


def _chunk_sizes(count: int, num_chunks: int) -> list[int]:
    # first (count mod chunks) chunks take the ceiling share
    base, extra = divmod(count, num_chunks)
    return [base + 1] * extra + [base] * (num_chunks - extra)


def _buckets_from_order(order: np.ndarray, num_buckets: int,
                        num_layers: int) -> np.ndarray:
    """Assign chunk index by position in `order` (best-ranked first)."""
    _check_buckets(num_buckets, num_layers)
    buckets = np.empty(len(order), dtype=np.int64)
    start = 0
    for b, size in enumerate(_chunk_sizes(len(order), num_buckets)):
        buckets[order[start : start + size]] = b
        start += size
    return buckets


def _random_table(vocab, num_buckets, num_layers, seed, method) -> HashTable:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(vocab))
    return HashTable(
        method=method,
        num_buckets=num_buckets,
        num_layers=num_layers,
        seed=seed,
        tokens=vocab.tokens,
        buckets=_buckets_from_order(order, num_buckets, num_layers),
    )


def build_random(vocab: Vocab, num_buckets: int, num_layers: int, seed: int,
                 consistent: bool = True):
    """Uniform-random equal-size bucket assignment.

    With consistent=True one table serves both training and inference
    ("rand-cons"). With consistent=False two independent tables are built
    from seeds derived from `seed` and returned as a (train, infer) pair
    ("rand-incons-A"/"rand-incons-B").
    """
    if len(vocab) == 0:
        raise ConfigError("empty vocab")
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
    return HashTable(
        method="frequency",
        num_buckets=num_buckets,
        num_layers=num_layers,
        seed=0,
        tokens=vocab.tokens,
        buckets=_buckets_from_order(order, num_buckets, num_layers),
    )


def token_label_mi(stats: CorpusStats, token_id: int) -> float:
    """Mutual information between token presence and the document label.

    Presence is the binary event "the token occurs in the document"; all
    probabilities are raw document fractions (no smoothing), in nats.
    """
    if not stats.labeled:
        raise ConfigError("mutual information requires a labeled corpus")
    n = stats.doc_count
    if n == 0:
        raise InputError("empty corpus")
    with_token = stats.cooccur[token_id].astype(np.float64)
    without_token = stats.label_counts - with_token
    p_label = stats.label_counts / n
    p_present = with_token.sum() / n
    mi = 0.0
    for p_t, counts in ((p_present, with_token), (1.0 - p_present, without_token)):
        for p_y, c in zip(p_label, counts):
            if c > 0 and p_t > 0:
                p_ty = c / n
                mi += p_ty * math.log(p_ty / (p_t * p_y))
    # exact independence can leave tiny negative float residue
    return max(0.0, mi)


def build_mi(vocab: Vocab, stats: CorpusStats, num_buckets: int,
             num_layers: int) -> HashTable:
    """Chunk tokens by descending mutual information with the label.

    High-MI tokens exit at the lowest layers; ties break by token id.
    """
    if len(stats.freq) != len(vocab):
        raise ConfigError("stats do not cover the vocab")
    scores = np.array([token_label_mi(stats, t) for t in range(len(vocab))])
    order = np.lexsort((np.arange(len(vocab)), -scores))
    return HashTable(
        method="mi",
        num_buckets=num_buckets,
        num_layers=num_layers,
        seed=0,
        tokens=vocab.tokens,
        buckets=_buckets_from_order(order, num_buckets, num_layers),
    )


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Per-token real vectors, aligned with a token list."""

    tokens: tuple[str, ...]
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(self.tokens):
            raise ConfigError(
                f"need one vector per token, got {vectors.shape} "
                f"for {len(self.tokens)} tokens"
            )
        if not np.all(np.isfinite(vectors)):
            raise InputError("embedding vectors must be finite")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector_for(self, token: str) -> np.ndarray:
        if token not in self._index:
            raise ConfigError(f"no embedding for token {token!r}")
        return self.vectors[self._index[token]]


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _repair_empty(points, centers, labels, k):
    """Give each empty cluster the point farthest from its own centroid."""
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0):
        dist = ((points - centers[labels]) ** 2).sum(axis=1)
        dist[counts[labels] <= 1] = -1.0  # never empty another cluster
        p = int(dist.argmax())
        counts[labels[p]] -= 1
        labels[p] = c
        counts[c] += 1
    return labels


def kmeans(points: np.ndarray, k: int, seed: int, max_iter: int = 50,
           tol: float = 1e-6):
    """Lloyd's k-means with k-means++ seeding.

    Stops after max_iter sweeps or once the summed centroid movement
    drops below tol. Empty clusters claim the point farthest from its
    current centroid. Deterministic for a fixed seed.

    Returns (labels, centroids); centroids are the means of the returned
    assignment.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1 or k > n:
        raise ConfigError(f"need 1 <= k <= {n} points, got k={k}")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all remaining points coincide
        centers[i] = points[idx]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        labels = _nearest(points, centers)
        labels = _repair_empty(points, centers, labels, k)
        new_centers = np.stack([points[labels == c].mean(axis=0) for c in range(k)])
        movement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).sum()
        centers = new_centers
        if movement < tol:
            break
    return labels, centers


def build_clustered(vocab: Vocab, emb: EmbeddingTable, num_buckets: int,
                    num_layers: int, seed: int) -> HashTable:
    """Cluster token embeddings and rank clusters by mean vector norm.

    Each cluster is one bucket; the cluster with the smallest mean L2
    embedding norm exits first. Unlike the frequency/MI builders, bucket
    sizes follow the clustering and may be unequal.
    """
    _check_buckets(num_buckets, num_layers)
    vectors = np.stack([emb.vector_for(t) for t in vocab.tokens])
    labels, _ = kmeans(vectors, num_buckets, seed)
    norms = np.linalg.norm(vectors, axis=1)
    mean_norms = np.array([norms[labels == c].mean() for c in range(num_buckets)])
    order = np.lexsort((np.arange(num_buckets), mean_norms))
    rank = np.empty(num_buckets, dtype=np.int64)
    rank[order] = np.arange(num_buckets)
    return HashTable(
        method="clustered",
        num_buckets=num_buckets,
        num_layers=num_layers,
        seed=seed,
        tokens=vocab.tokens,
        buckets=rank[labels],
    )


def serialize_hash_table(table: HashTable) -> str:
    """Render the v1 text format; byte-exact round trip with parse."""
    lines = [
        f"{_TABLE_MAGIC} method={table.method} B={table.num_buckets} "
        f"L={table.num_layers} seed={table.seed}"
    ]
    for tid, token in enumerate(table.tokens):
        lines.append(f"{token}\t{table.buckets[tid]}\t{table.layers[tid]}")
    return "\n".join(lines) + "\n"


def parse_hash_table(text: str) -> HashTable:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty hash table file")
    head = lines[0].split(" ")
    if len(head) != 6 or " ".join(head[:2]) != _TABLE_MAGIC:
        raise ParseError(f"bad header: {lines[0]!r}")
    fields = {}
    for part in head[2:]:
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        method = fields["method"]
        num_buckets = int(fields["B"])
        num_layers = int(fields["L"])
        seed = int(fields["seed"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad header: {lines[0]!r}") from exc
    tokens = []
    buckets = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected token<TAB>bucket<TAB>layer")
        token, bucket_s, layer_s = parts
        try:
            bucket = int(bucket_s)
            layer = int(layer_s)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer bucket/layer") from exc
        if layer != bucket_to_layer(bucket, num_buckets, num_layers):
            raise ParseError(
                f"line {lineno}: layer {layer} inconsistent with bucket {bucket}"
            )
        tokens.append(token)
        buckets.append(bucket)
    try:
        return HashTable(
            method=method,
            num_buckets=num_buckets,
            num_layers=num_layers,
            seed=seed,
            tokens=tuple(tokens),
            buckets=np.array(buckets, dtype=np.int64),
        )
    except (ConfigError, InputError) as exc:
        raise ParseError(str(exc)) from exc


def save_hash_table(table: HashTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_hash_table(table))


def load_hash_table(path) -> HashTable:
    with open_text(path) as f:
        return parse_hash_table(f.read())


def save_embeddings(emb: EmbeddingTable, path) -> None:
    """Text format: `V d` header line, then `token x1 .. xd` per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(emb.tokens)} {emb.dim}\n")
        for token, vec in zip(emb.tokens, emb.vectors):
            f.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def load_embeddings(path) -> EmbeddingTable:
    """Read a `save_embeddings` file. The `V d` header is checked against
    the rows as they are read: the vector array grows with the rows and is
    never sized from the header alone."""
    with open_text(path) as f:
        head = f.readline().split()
        if len(head) != 2:
            raise ParseError("embedding file must start with `V d`")
        try:
            count, dim = int(head[0]), int(head[1])
        except ValueError as exc:
            raise ParseError("embedding file must start with `V d`") from exc
        if count < 0 or dim < 1:
            raise ParseError(f"embedding header `{count} {dim}` is out of range")
        tokens = []
        vectors = np.empty((0, dim))
        for i in range(count):
            parts = f.readline().split()
            if len(parts) != dim + 1:
                raise ParseError(f"embedding line {i + 2}: expected token + {dim} values")
            if i == len(vectors):
                vectors.resize((min(count, 2 * i + 1024), dim), refcheck=False)
            tokens.append(parts[0])
            try:
                vectors[i] = [float(x) for x in parts[1:]]
            except ValueError:
                raise ParseError(f"embedding line {i + 2}: a value is not "
                                 "a number") from None
    return EmbeddingTable(tuple(tokens), vectors)
