"""Shared fixtures and independent oracles used across the test suite.

Oracles here deliberately avoid the library's own code paths: the vanilla
encoder below recomputes attention with plain numpy so it can certify the
exit-aware forward, and corpora are generated with raw RNG calls.
"""

import numpy as np

from hashexit.hashing import CorpusStats, Vocab, bucket_to_layer


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
        return bucket_to_layer(int(table.buckets[token_id]),
                               table.num_buckets, table.num_layers)
    return table.num_layers


def vanilla_forward(model, token_ids):
    """Reference full forward pass: every token through every layer.

    Implemented directly on the weight arrays (no shared kernels, no
    active-set logic) so it is an independent check of the exit-aware path.
    """
    ids = np.asarray(token_ids)
    n = len(ids)
    d = model.d
    h = np.where(ids[:, None] >= 0, model.embedding[np.maximum(ids, 0)], 0.0)
    h = h + sinusoidal_positions(n, d)
    for lw in model.layers:
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
        h = _norm_rows(h1 + ffn, lw.ln2_gain, lw.ln2_bias)
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
