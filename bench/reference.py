"""Independent references the benchmark checks the package against.

Nothing here calls hashexit code: the encoder is plain numpy on the weight
arrays, routing reads bucket numbers and applies the bucket-to-layer law
itself, and MAC counts come from the op list of one exit-aware layer summed
in closed form. Checks compare the package's outputs with these.
"""

import numpy as np

LN_EPS = 1e-5


def exit_layers(doc, token_index, buckets, num_buckets, num_layers, *,
                pin_first):
    """Exit layer per token: 1 + floor(L*b/B); unknown tokens run all L."""
    exits = []
    for tok in doc:
        tid = token_index.get(tok)
        if tid is None:
            exits.append(num_layers)
        else:
            exits.append(1 + (num_layers * int(buckets[tid])) // num_buckets)
    if pin_first and exits:
        exits[0] = num_layers
    return np.array(exits, dtype=np.int64)


def _positions(n, d):
    out = np.empty((n, d))
    for i in range(d // 2):
        freq = 1.0 / 10000.0 ** (2.0 * i / d)
        out[:, 2 * i] = np.sin(np.arange(n) * freq)
        out[:, 2 * i + 1] = np.cos(np.arange(n) * freq)
    return out


def _norm(x, gain, bias):
    mu = x.sum(axis=1, keepdims=True) / x.shape[1]
    c = x - mu
    var = (c * c).sum(axis=1, keepdims=True) / x.shape[1]
    return c / np.sqrt(var + LN_EPS) * gain + bias


def encode(weights, ids, exits):
    """Final hidden states of a post-norm encoder under an exit schedule.

    `weights` is a dict with "embedding", "heads" and a "layers" list of
    dicts keyed wq wk wv wo w1 w2 ln1_gain ln1_bias ln2_gain ln2_bias.
    A row with exit layer k is updated by layers 1..k and copied after;
    every row stays a key and value. Ids below 0 embed as zeros.
    """
    ids = np.asarray(ids, dtype=np.int64)
    emb = weights["embedding"]
    h = np.zeros((ids.size, emb.shape[1]))
    known = ids >= 0
    h[known] = emb[ids[known]]
    h = h + _positions(ids.size, emb.shape[1])
    heads = weights["heads"]
    for depth, lw in enumerate(weights["layers"], start=1):
        rows = np.flatnonzero(exits >= depth)
        if rows.size == 0:
            continue
        x = h[rows]
        q, k, v = x @ lw["wq"], h @ lw["wk"], h @ lw["wv"]
        d_k = h.shape[1] // heads
        ctx = np.zeros_like(q)
        for j in range(heads):
            cols = slice(j * d_k, (j + 1) * d_k)
            s = q[:, cols] @ k[:, cols].T / np.sqrt(d_k)
            p = np.exp(s - s.max(axis=1, keepdims=True))
            ctx[:, cols] = (p / p.sum(axis=1, keepdims=True)) @ v[:, cols]
        a = _norm(x + ctx @ lw["wo"], lw["ln1_gain"], lw["ln1_bias"])
        f = np.maximum(a @ lw["w1"], 0.0) @ lw["w2"]
        h = h.copy()
        h[rows] = _norm(a + f, lw["ln2_gain"], lw["ln2_bias"])
    return h


def layer_macs(n, m, d, h, d_ff):
    """MACs one exit-aware layer executes with n visible rows, m active.

    Queries, output projection, both layer norms (two multiplies per
    element) and the FFN run on the m active rows; keys and values on all
    n rows; per head, scores, the 1/sqrt(d_k) scale, the softmax
    renormalisation and the value mix. A layer with no active row is
    skipped outright.
    """
    if m == 0:
        return 0
    return (2 * m * d * d + 2 * n * d * d + 2 * m * n * (d + h)
            + 4 * m * d + 2 * m * d * d_ff)


def corpus_macs(exit_lists, num_layers, d, h, d_ff):
    """Per-layer (n_sum, m_sum, counted MACs) plus total and baseline FLOPs."""
    rows = [[0, 0, 0] for _ in range(num_layers)]
    baseline = 0
    for exits in exit_lists:
        n = len(exits)
        baseline += num_layers * layer_macs(n, n, d, h, d_ff)
        for t in range(num_layers):
            m = int((exits >= t + 1).sum())
            rows[t][0] += n
            rows[t][1] += m
            rows[t][2] += layer_macs(n, m, d, h, d_ff)
    total = 2 * sum(r[2] for r in rows)
    return [tuple(r) for r in rows], total, 2 * baseline


def frequency_buckets(documents, tokens, num_buckets):
    """Buckets of a frequency table: most frequent chunk first, ties by id."""
    index = {t: i for i, t in enumerate(tokens)}
    counts = np.zeros(len(tokens), dtype=np.int64)
    for doc in documents:
        for tok in doc:
            counts[index[tok]] += 1
    order = sorted(range(len(tokens)), key=lambda i: (-counts[i], i))
    buckets = np.empty(len(tokens), dtype=np.int64)
    base, extra = divmod(len(tokens), num_buckets)
    start = 0
    for b in range(num_buckets):
        size = base + (1 if b < extra else 0)
        buckets[order[start:start + size]] = b
        start += size
    return buckets
