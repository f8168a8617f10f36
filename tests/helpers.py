"""Shared fixtures and independent oracles used across the test suite.

Oracles here deliberately avoid the library's own code paths: the vanilla
encoder below recomputes attention with plain numpy so it can certify the
exit-aware forward, and corpora are generated with raw RNG calls.
"""

import numpy as np

from hashexit.hashing import CorpusStats, Vocab


def make_random_labeled_corpus(rng, vocab_size=None, num_docs=None):
    """Random labeled corpus plus its Vocab/CorpusStats."""
    if vocab_size is None:
        vocab_size = int(rng.integers(5, 40))
    if num_docs is None:
        num_docs = int(rng.integers(4, 30))
    tokens = [f"t{i:03d}" for i in range(vocab_size)]
    docs = []
    labels = []
    for _ in range(num_docs):
        length = int(rng.integers(1, 12))
        docs.append([tokens[i] for i in rng.integers(0, vocab_size, size=length)])
        labels.append(str(rng.integers(0, 2)))
    vocab = Vocab(tuple(tokens))
    stats = CorpusStats.from_documents(vocab, docs, labels)
    return vocab, stats, docs, labels


def reference_exit(table, token_id):
    """Exit layer of one token id, one id at a time through the bucket
    map: ids outside the table (< 0 or >= V) run all L layers."""
    if 0 <= token_id < len(table.tokens):
        bucket = int(table.buckets[token_id])
        return 1 + table.num_layers * bucket // table.num_buckets
    return table.num_layers


def greedy_batches(lengths, max_rows):
    """Documents cut into batches of at most max_rows rows, one document
    at a time: shortest first (a stable sort), and a new batch whenever
    the next document would overflow the current one, so a document longer
    than the budget gets a batch of its own."""
    order = sorted(range(len(lengths)), key=lambda i: lengths[i])
    batches, rows = [], 0
    for i in order:
        if not batches or rows + lengths[i] > max_rows:
            batches.append([])
            rows = 0
        batches[-1].append(i)
        rows += lengths[i]
    return batches


def vanilla_forward(model, token_ids, exits=None):
    """Reference forward pass of one document; without `exits` every token
    runs through every layer.

    With `exits`, each layer computes every row as a plain encoder layer
    over all rows of the document, then keeps the new state only for the
    rows whose exit is that layer or above; the others carry their state
    up unchanged. Implemented directly on the weight arrays (no shared
    kernels, no active-set logic, one association) so it is an
    independent check of the exit-aware path.
    """
    ids = np.asarray(token_ids)
    n = len(ids)
    d = model.d
    exits = np.full(n, model.num_layers) if exits is None else np.asarray(exits)
    h = np.where(ids[:, None] >= 0, model.embedding[np.maximum(ids, 0)], 0.0)
    h = h + sinusoidal_positions(n, d)
    for t, lw in enumerate(model.layers, start=1):
        q = h @ lw.wq
        k = h @ lw.wk
        v = h @ lw.wv
        d_k = d // model.heads
        ctx = np.empty_like(h)
        for i in range(model.heads):
            sl = slice(i * d_k, (i + 1) * d_k)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(d_k)
            scores = scores - scores.max(axis=1, keepdims=True)
            e = np.exp(scores)
            attn = e / e.sum(axis=1, keepdims=True)
            ctx[:, sl] = attn @ v[:, sl]
        attn_out = ctx @ lw.wo
        h1 = _norm_rows(h + attn_out, lw.ln1_gain, lw.ln1_bias)
        ffn = np.maximum(h1 @ lw.w1, 0.0) @ lw.w2
        h = np.where((exits >= t)[:, None],
                     _norm_rows(h1 + ffn, lw.ln2_gain, lw.ln2_bias), h)
    return h


def _norm_rows(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def sinusoidal_positions(n, d):
    """Fixed sinusoidal position encoding, recomputed independently."""
    pos = np.arange(n)[:, None].astype(np.float64)
    i = np.arange(d // 2).astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe
