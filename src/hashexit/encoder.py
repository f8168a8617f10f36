"""Exit-aware transformer encoder.

Every position carries a fixed exit layer. A position exiting at layer k is
updated by layers 1..k; above that its hidden state is copied upward bit for
bit. Exited positions stop producing queries but stay visible to the rest of
the sequence as keys and values, so later layers still attend over the full
sequence. Setting every exit to the top layer reproduces a plain post-norm
encoder exactly. A schedule has no padding: every position is a token.

Because the schedule is known before layer 1 runs, `route` looks the exit
layers of a whole packed corpus up at once and returns a flat PackedBatch:
every row's token id and exit layer in two int64 vectors, and each
document's start row. `batches` cuts it into batches. The per-row work of
each layer is one matmul over the stacked active rows, and attention stays
inside each document. There is one path: a single sequence is a batch of
one and takes the same per-document attention.

A layer's work is set by two numbers per document, its rows and its active
rows. forward_layer counts the active rows once, and the grouping, the
choice of association and the way attention runs all read those counts.

Q, K and V carry no biases, so attention has two associations. The
standard one projects K and V for all n visible rows of a document. The
reassociated one projects neither: per head it scores (q_h·W_K,hᵀ)·Hᵀ and
mixes (P_h·H)·W_V,h over the raw rows H. Each document takes the
reassociated one at a layer exactly when its m active rows satisfy
m·(d + (h−1)·n) < n·d (flops.reassociates), where it costs fewer MACs.
That never holds for m = n, so dense layers and the no-exit path keep the
standard association.

A reassociated document of n rows with n·d >= FOLDED_FLOATS attends in two
matmuls of its own over views of the packed rows, heads folded into rows
(_folded_attention): nothing is padded or copied. The other documents of
each association share one stacked call per head, padded to the largest
count (_attention), which suits small documents better than many small
matmuls.

The per-document forms (`schedule`, ExitSchedule, ForwardTrace,
forward(model, ids, sched) and flops.report's list of schedules) stay
because the benchmark under bench/ still calls them. New code uses `route`
and forward(model, batch, traces=True).
"""

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional

import numpy as np

from .artifacts import BinaryFormat, read_floats
from .errors import (ConfigError, InputError, ParseError, ShapeError,
                     TrainingError, int_scalar, int_vector, packed_layout,
                     rng_seed, row_offsets)
from .flops import ModelDims, reassociates
from .linalg import layer_norm, relu, softmax_rows

# Budgets of a packed batch. `batches` cuts a corpus into batches whose
# states (h, and each state of a trace) hold at most BATCH_ROWS rows and
# STATE_FLOATS float64s (4 MiB): 2048 rows up to d=256, 682 at d=768.
# Inside a layer, forward_layer runs the batch's documents in consecutive
# groups whose widest temporary (active rows x max(d, d_ff), heads x d wide
# in a folded document, or the documents' key rows x d) stays within
# BATCH_FLOATS, 3 MiB, below the 4 MiB from which numpy asks for huge
# pages; larger temporaries are mapped and page-faulted afresh. A dense
# layer at d=256, d_ff=1024 then runs groups of 384 rows, and a layer with
# one active row per document groups about 16 documents of 96 rows, where
# a batch sized for the dense layer held 4. Both cuts follow one rule,
# `_cuts`.
BATCH_ROWS = 2048
STATE_FLOATS = 1 << 19
BATCH_FLOATS = 3 << 17

# A reassociated document whose key rows hold at least FOLDED_FLOATS
# floats (n·d) attends folded (_folded_attention); below that one stacked
# call for many documents beats a pair of small matmuls each. Whole sparse
# layers cross over at about 2k-6k floats for d = 8 to 256 (one OpenBLAS
# thread on a Xeon). So the benchmark's toy documents (d=8, 5-15 tokens:
# n·d 40-120) all attend stacked, and its infer-mid ones (d=256, 64-128
# tokens: n·d from 16k) all fold.
FOLDED_FLOATS = 1 << 12

# How a document attends at a layer: the standard association, or the
# reassociated one, stacked with other documents or in folded matmuls of
# its own.
_STANDARD, _REASSOCIATED, _FOLDED = 0, 1, 2

_LAYER_FIELDS = ("wq", "wk", "wv", "wo", "w1", "w2",
                 "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")


def _layer_shapes(d, d_ff):
    """The shape of each of a layer's `_LAYER_FIELDS`, in that order."""
    return dict(zip(_LAYER_FIELDS, [(d, d)] * 4 + [(d, d_ff), (d_ff, d)]
                    + [(d,)] * 4))


def _check_model_dims(num_layers, d, heads, d_ff):
    """ConfigError unless an encoder of these dims can run: the rules of
    ModelDims, and an even d for the sinusoidal positions."""
    ModelDims(num_layers, d, heads, d_ff)
    if d % 2 != 0:
        raise ConfigError("d must be even for the sinusoidal positions")


def _model_floats(meta):
    layer = sum(map(math.prod, _layer_shapes(meta["d"], meta["d_ff"]).values()))
    return meta["d"] * (meta["V"] + meta["C"]) + meta["L"] * layer


_MODEL_FORMAT = BinaryFormat(
    kind="model", magic="#hashee-model v2",
    fields=("L", "d", "h", "d_ff", "V", "C"), zero_ok=("C",),
    floats=_model_floats, contents="weights")


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray

    def __post_init__(self):
        for name in _LAYER_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    def check(self, d, d_ff):
        for name, shape in _layer_shapes(d, d_ff).items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeError(f"{name} has shape {got}, expected {shape}")


@dataclass
class EncoderModel:
    d: int
    heads: int
    d_ff: int
    layers: list
    embedding: np.ndarray
    head: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_model_dims(len(self.layers), self.d, self.heads, self.d_ff)
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.ndim != 2 or self.embedding.shape[1] != self.d:
            raise ShapeError(f"embedding shape {self.embedding.shape} "
                             f"does not match d={self.d}")
        for lw in self.layers:
            lw.check(self.d, self.d_ff)
        if self.head is not None:
            self.head = np.asarray(self.head, dtype=np.float64)
            if self.head.ndim != 2 or self.head.shape[0] != self.d:
                raise ShapeError(f"classifier head shape {self.head.shape} "
                                 f"does not match d={self.d}")

    @property
    def num_layers(self):
        return len(self.layers)

    @property
    def vocab_size(self):
        return self.embedding.shape[0]


@dataclass(frozen=True)
class ExitSchedule:
    """Per-position exit layers of one document.

    Its one constructor checks exit_layer, an integer vector of layers from
    1 up (`errors.int_vector`). There is no padding: attn_mask marks every
    position as a token, and a False entry is a ConfigError. It stays a
    field for the callers that build or copy schedules with it (bench/).
    """

    exit_layer: np.ndarray
    attn_mask: np.ndarray

    def __post_init__(self):
        exit_layer = int_vector(self.exit_layer, "exit layers")
        attn_mask = np.asarray(self.attn_mask, dtype=bool)
        object.__setattr__(self, "exit_layer", exit_layer)
        object.__setattr__(self, "attn_mask", attn_mask)
        if exit_layer.shape != attn_mask.shape:
            raise ShapeError("exit_layer and attn_mask must be equal-length vectors")
        if not attn_mask.all():
            raise ConfigError("schedules carry no padding: attn_mask must be "
                              "all True")
        if exit_layer.size and exit_layer.min() < 1:
            raise ConfigError("exit layers start at 1")

    @property
    def valid_count(self):
        """Positions in the schedule, every one a token."""
        return self.exit_layer.size


@dataclass
class ForwardTrace:
    """The states H^0..H^L of one forward pass; H^0 is the embedding."""

    hidden: list

    @property
    def final(self):
        return self.hidden[-1]


@dataclass(frozen=True)
class PackedBatch:
    """Documents packed row after row, the input of a batched `forward`.

    ids and exits hold each row's token id and exit layer, offsets each
    document's start row followed by the row count: document i is rows
    offsets[i]:offsets[i + 1]. len() counts the documents. `forward`
    checks that all three are integer vectors (`errors.int_vector`), and
    checks them against each other and the model.
    """

    ids: np.ndarray
    exits: np.ndarray
    offsets: np.ndarray

    def __len__(self):
        return len(self.offsets) - 1


def pack(sequences):
    """The rows of the id sequences `sequences` as one int64 vector, read
    by `errors.int_vector` (float or bool ids are an InputError, never
    truncated), and each sequence's start row followed by the row count."""
    offsets = np.zeros(len(sequences) + 1, dtype=np.int64)
    np.cumsum([len(seq) for seq in sequences], out=offsets[1:])
    ids = int_vector(list(chain.from_iterable(sequences)), "token ids")
    return ids, offsets


def route(ids, offsets, table, num_layers):
    """The PackedBatch of a packed corpus, `ids` and `offsets` as `pack` or
    `Vocab.packed_ids` give them (offsets read by `errors.row_offsets`),
    with every row's exit layer looked up. Each document's position 0 is
    pinned to the top layer (it hosts the classifier readout), and unknown
    ids run to the top layer. A table built for another depth than
    num_layers is a ConfigError."""
    ids = int_vector(ids, "token ids")
    offsets, lengths = row_offsets(offsets, ids.size, "offsets")
    exits = table.exits(ids, num_layers)
    exits[offsets[:-1][lengths > 0]] = table.num_layers
    return PackedBatch(ids, exits, offsets)


def schedule(token_ids, table, num_layers=None, *, pin_first=False):
    """One document's exit layers, as an ExitSchedule: the lookup `route`
    makes for a batch.

    pin_first forces position 0 to the top layer (it hosts the classifier
    readout). Unknown ids (< 0 or beyond the table) run to the top layer.
    """
    exits = table.exits(token_ids, num_layers)
    if pin_first and exits.size:
        exits[0] = table.num_layers
    return ExitSchedule(exits, np.ones(exits.size, dtype=bool))


def positional_encoding(n, d):
    """Fixed sinusoidal position signal, sin on even dims, cos on odd."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d // 2, dtype=np.float64)
    angles = pos / np.power(10000.0, 2.0 * idx / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def embed(model, token_ids, positions):
    """Token embeddings plus position signal; ids < 0 embed as zero vectors.

    `positions` gives each row's position in its document, so the rows of
    several documents can be embedded in one call. Both are integer
    vectors (`errors.int_vector`).
    """
    ids = int_vector(token_ids, "token ids")
    if ids.size and ids.max() >= model.vocab_size:
        raise InputError(f"token id {int(ids.max())} outside vocabulary "
                         f"of size {model.vocab_size}")
    rows = model.embedding[np.maximum(ids, 0)]
    rows[ids < 0] = 0.0
    positions = int_vector(positions, "positions")
    longest = int(positions.max()) + 1 if positions.size else 0
    rows += positional_encoding(longest, model.d)[positions]
    return rows


def _attention(q, hk, weights, heads, reassociate, q_sizes, k_sizes):
    """Multi-head attention of each query row over its own document's keys,
    all documents in one stacked call per head.

    q holds the projected queries, hk the raw rows that serve as keys and
    values. The standard association projects K = hk·W_K and V = hk·W_V.
    The reassociated one projects neither: per head it scores
    (q_h·W_K,hᵀ)·hkᵀ and mixes (P_h·hk)·W_V,h, which is cheaper when few
    query rows attend over many keys (flops.reassociates).

    The rows of q and hk run document after document; q_sizes and k_sizes
    count each document's query and key rows. Both operands are copied
    into stacks padded per document to the largest count in the call, a
    single document being a stack of one; padded key slots score -inf and
    so get zero weight, and padded query slots are dropped.
    """
    d = q.shape[1]
    q_mask = np.arange(q_sizes.max()) < q_sizes[:, None]
    k_mask = np.arange(k_sizes.max()) < k_sizes[:, None]
    qp = np.zeros(q_mask.shape + (d,))
    qp[q_mask] = q
    kp = np.zeros(k_mask.shape + (d,))
    kp[k_mask] = hk if reassociate else hk @ weights.wk
    if reassociate:
        vp = kp
    else:
        vp = np.zeros_like(kp)
        vp[k_mask] = hk @ weights.wv
    bias = np.where(k_mask, 0.0, -np.inf)[:, None, :]
    d_k = d // heads
    ctx = np.empty_like(qp)
    for i in range(heads):
        sl = slice(i * d_k, (i + 1) * d_k)
        if reassociate:
            qh, kh = _rows_matmul(qp[..., sl], weights.wk[:, sl].T), kp
        else:
            qh, kh = qp[..., sl], kp[..., sl]
        scores = qh @ kh.swapaxes(-1, -2)
        scores /= np.sqrt(d_k)
        scores += bias
        rows = scores.reshape(-1, scores.shape[-1])  # a view of scores
        softmax_rows(rows)
        probs = scores
        if reassociate:
            ctx[..., sl] = _rows_matmul(probs @ vp, weights.wv[:, sl])
        else:
            ctx[..., sl] = probs @ vp[..., sl]
    return ctx[q_mask]


def _folded_attention(q, h, starts, weights, heads, q_sizes, k_sizes):
    """Reassociated attention of each document in two matmuls of its own.

    q holds the projected queries, document after document, q_sizes
    counting each document's rows. Document j's keys and values are the
    k_sizes[j] rows of h from starts[j], read in place. The heads fold
    into rows: one (rows, heads, d) array takes q_h·W_K,hᵀ of every query
    row and head, so a document of m query rows and n keys H scores
    Q̃ (heads·m, d) @ Hᵀ and mixes P (heads·m, n) @ H into the rows Q̃
    held, reading H twice, not twice per head. Per head, the mixed rows of
    every document then take one matmul by W_V,h.
    """
    d = q.shape[1]
    d_k = d // heads
    folded = np.empty((q.shape[0], heads, d))
    for i in range(heads):
        sl = slice(i * d_k, (i + 1) * d_k)
        np.matmul(q[:, sl], weights.wk[:, sl].T, out=folded[:, i])
    ends = np.cumsum(q_sizes).tolist()
    for lo, hi, start, n in zip([0] + ends, ends, starts.tolist(),
                                k_sizes.tolist()):
        keys = h[start:start + n]
        rows = folded[lo:hi].reshape(-1, d)  # a view of folded
        scores = rows @ keys.T
        scores /= np.sqrt(d_k)
        softmax_rows(scores)
        np.matmul(scores, keys, out=rows)
    ctx = np.empty_like(q)
    for i in range(heads):
        sl = slice(i * d_k, (i + 1) * d_k)
        np.matmul(folded[:, i], weights.wv[:, sl], out=ctx[:, sl])
    return ctx


def _rows_matmul(x, w):
    """x @ w for a stack of matrices x, as one 2-D matmul over all rows."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[1:])


def _cuts(costs, budget):
    """Consecutive ranges (lo, hi) of items, cut greedily in order.

    Each of `costs` gives every item's cost in one resource. A range takes
    items while it spends at most `budget` of each resource; an item over
    budget on its own gets a range of its own, and items that cost nothing
    join a neighbouring range.
    """
    spent = [np.concatenate(([0], np.cumsum(c))) for c in costs]
    cuts = [0]
    while cuts[-1] < spent[0].size - 1:
        lo = cuts[-1]
        hi = min(int(np.searchsorted(s, s[lo] + budget, side="right"))
                 for s in spent) - 1
        cuts.append(max(hi, lo + 1))
    return list(zip(cuts, cuts[1:]))


def _groups(sizes, counts, widths, d):
    """Consecutive document ranges (lo, hi) that one layer runs together.

    sizes and counts give each document's rows and active rows, and widths
    the floats each of its active rows holds at once. Within a range, the
    active rows times their widths and the rows of the documents with an
    active row times d each stay within BATCH_FLOATS, unless the range is
    a single document. Documents without an active row cost nothing and
    join a neighbouring range.
    """
    costs = (counts * widths, np.where(counts > 0, sizes, 0) * d)
    if all(cost.sum() <= BATCH_FLOATS for cost in costs):
        return [(0, sizes.size)]
    return _cuts(costs, BATCH_FLOATS)


def _layer_rows(h, weights, active, heads, sizes, counts, how):
    """The new states of the `active` rows of the documents packed in h.

    sizes and counts give each document's rows and active rows, and how
    the way each attends (forward_layer). Documents without an active row
    need no keys. The rest split into at most three parts, one per way:
    the stacked ones are one _attention call over their own documents'
    rows, the folded one a _folded_attention call over views of h.
    """
    hq = h[active]
    q = hq @ weights.wq
    live = counts > 0
    parts = [(part, way) for way in (_STANDARD, _REASSOCIATED, _FOLDED)
             if (part := live & (how == way)).any()]

    def attend(part, way, q):
        if way == _FOLDED:
            starts = np.cumsum(sizes) - sizes
            return _folded_attention(q, h, starts[part], weights, heads,
                                     counts[part], sizes[part])
        hk = h if part.all() else h[np.repeat(part, sizes)]
        return _attention(q, hk, weights, heads, way == _REASSOCIATED,
                          counts[part], sizes[part])

    if len(parts) == 1:
        ctx = attend(*parts[0], q)
    else:
        ctx = np.empty_like(q)
        for part, way in parts:
            rows = np.repeat(part, counts)
            ctx[rows] = attend(part, way, q[rows])
    x = ctx @ weights.wo
    x += hq
    del hq, q, ctx  # a group's temporaries dominate its memory
    layer_norm(x, weights.ln1_gain, weights.ln1_bias)
    ffn = x @ weights.w1
    relu(ffn)
    y = ffn @ weights.w2
    del ffn
    y += x
    return layer_norm(y, weights.ln2_gain, weights.ln2_bias)


def forward_layer(h, weights, active, *, heads, segments):
    """One exit-aware encoder layer over one or more packed documents.

    `segments` lists the start row of each document packed into h followed
    by h's row count. `active` lists the rows the layer updates in strictly
    increasing order (np.flatnonzero of a mask); any other order is a
    ShapeError; both are integer vectors (`errors.int_vector`), and
    segments are checked by `errors.row_offsets`. Queries come
    from the active rows only; keys and values span every row of each
    document that has an active row, and each query attends to its own
    document only. Each document takes the cheaper
    attention association for its row and active counts
    (flops.reassociates); a document whose rows are all active keeps the
    standard one; a large reassociated one attends folded (FOLDED_FLOATS).
    Rows outside `active` are left as they are, so an empty active set
    makes the layer an exact identity.

    The documents run in consecutive groups whose temporaries stay within
    BATCH_FLOATS (_groups): an active row counts max(d, d_ff) floats, or
    max(d_ff, heads·d) in a folded document, whose queries hold one d-wide
    row per head. A batch that fits runs as one group. The new
    states overwrite h, which is returned: a float64 array is updated in
    place, anything else is first converted into a new one.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError("hidden states must be a 2-D matrix")
    n, d = h.shape
    if weights.wq.shape[0] != d:
        raise ShapeError(f"weights expect d={weights.wq.shape[0]}, states have d={d}")
    segments, sizes = row_offsets(segments, n, "segments")
    active = int_vector(active, "active rows")
    if active.size and (
            active[0] < 0 or active[-1] >= n or (active[1:] <= active[:-1]).any()):
        raise ShapeError(f"active rows must rise strictly within 0..{n - 1}")
    # document of each active row: the last start at or before it, so that
    # empty documents, which share their start with the next, get none
    counts = np.bincount(np.searchsorted(segments, active, side="right") - 1,
                         minlength=sizes.size)
    flip = reassociates(sizes, counts, d, heads)
    how = np.select([~flip, sizes * d < FOLDED_FLOATS],
                    [_STANDARD, _REASSOCIATED], _FOLDED)
    width = max(d, weights.w1.shape[1])
    widths = np.where(how == _FOLDED, max(width, heads * d), width)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    for lo, hi in _groups(sizes, counts, widths, d):
        a = segments[lo]
        rows = active[bounds[lo]:bounds[hi]]
        if rows.size:
            # each group reads and writes only its own documents' rows of h
            h[rows] = _layer_rows(h[a:segments[hi]], weights, rows - a, heads,
                                  sizes[lo:hi], counts[lo:hi], how[lo:hi])
    return h


def _checked(batch, num_layers):
    """A PackedBatch's ids, exits, offsets and document lengths, the layout
    read by `errors.packed_layout`; unequal ids and exits: a ShapeError."""
    ids = int_vector(batch.ids, "token ids")
    exits = int_vector(batch.exits, "exit layers")
    if exits.shape != ids.shape:
        raise ShapeError(f"{exits.size} exit layers for {ids.size} token ids")
    return (ids, *packed_layout(exits, batch.offsets, num_layers))


def _layers(model, batch):
    """Walk a PackedBatch through the layers.

    Checks the batch (`_checked`) and embeds it at once, then returns an
    iterator over the packed (rows, d) states H^0..H^L: one array, which
    each step overwrites with the next layer (forward_layer)."""
    ids, exits, offsets, lengths = _checked(batch, model.num_layers)
    if (lengths == 0).any():
        raise InputError("cannot run a forward pass on an empty sequence")
    positions = np.arange(ids.size) - np.repeat(offsets[:-1], lengths)
    h = embed(model, ids, positions)
    return chain([h], (forward_layer(h, weights, np.flatnonzero(exits >= t),
                                     heads=model.heads, segments=offsets)
                       for t, weights in enumerate(model.layers, start=1)))


def forward(model, batch, sched=None, *, traces=False):
    """One forward pass under the exit schedule.

    For a PackedBatch (see `route`) returns the packed (rows, d) final
    states; document i's rows are batch.offsets[i]:batch.offsets[i + 1].
    With traces=True it returns a lazy iterator over copies of the packed
    states H^0..H^L: each layer runs when the iterator reaches it, so a
    caller that reads each state as it comes holds about two, and list()
    gives all L+1. One document (an id sequence as `batch` and its
    ExitSchedule as `sched`) runs as a batch of one through the same path
    and returns its ForwardTrace; a document's states in a larger batch
    match its batch of one up to the summation order of the packed
    matmuls. Each layer is one forward_layer call, which updates one state
    matrix in place, its temporaries within BATCH_FLOATS per group of
    documents. So walk a corpus in the batches that `batches` cuts.
    """
    if sched is not None:
        ids = int_vector(batch, "token ids")
        one = PackedBatch(ids, sched.exit_layer, np.array([0, ids.size]))
        return ForwardTrace(hidden=list(forward(model, one, traces=True)))
    states = _layers(model, batch)
    if traces:
        return map(np.copy, states)
    *_, final = states
    return final


def batches(model, corpus):
    """Cut the PackedBatch `corpus` into packed batches for `forward`.

    Yields each batch's document indices and its PackedBatch, the rows
    gathered from the corpus, which is checked as `forward` checks it.
    Documents are taken shortest first, so a batch holds documents of
    similar length, and a batch's states stay within BATCH_ROWS rows and
    STATE_FLOATS floats; a document longer than that gets a batch of its
    own. An empty document lands in a batch like any other, and `forward`
    rejects it with an InputError."""
    ids, exits, offsets, lengths = _checked(corpus, model.num_layers)
    order = np.argsort(lengths, kind="stable")
    budget = min(BATCH_ROWS, STATE_FLOATS // model.d)
    for lo, hi in _cuts((lengths[order],), budget):
        batch, sizes = order[lo:hi], lengths[order[lo:hi]]
        starts = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.arange(starts[-1]) + np.repeat(offsets[batch] - starts[:-1], sizes)
        yield batch, PackedBatch(ids[rows], exits[rows], starts)


def _head(model):
    """The model's classifier head; a model without one is a ConfigError."""
    if model.head is None:
        raise ConfigError("model has no classifier head")
    return model.head


def classify(model, feats):
    """Class scores of each row of feats, the final states of pinned first
    positions (cls_features)."""
    return feats @ _head(model)


def fit(loss_and_grad, params, *, epochs, lr, what):
    """Full-batch gradient descent from the parameter tuple `params`.

    loss_and_grad(*params) returns the losses followed by one gradient per
    parameter, and each epoch steps every parameter p to p - lr * g. The
    losses form a vector, one per problem of a stack trained side by side
    (a lone problem is a stack of one), and the list `what` names each
    problem in stack order. A non-finite loss raises TrainingError naming
    the first problem whose loss is not finite. Returns the final
    parameters as a tuple. `epochs` is read by `errors.int_scalar`. Every
    learned part (the classifier heads, as one stack, and the difficulty
    lab's predictors) trains through this one loop.
    """
    epochs = int_scalar(epochs, "epochs")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    for _ in range(epochs):
        loss, *grads = loss_and_grad(*params)
        finite = np.isfinite(loss)
        if not finite.all():
            first = int(np.argmin(finite))
            raise TrainingError(f"{what[first]} diverged: loss {loss[first]}")
        params = tuple(p - lr * g for p, g in zip(params, grads))
    return params


def _head_loss_and_grad(heads, feats, labels):
    """Mean cross entropy of each problem p's feats[p] @ heads[p], and its
    gradient in heads[p]: P losses and a (P, d, C) gradient.

    heads is a float64 (P, d, C) stack, feats a float64 (P, n, d) array (a
    strided view will do) and labels an int64 (P, n) array of classes of
    the heads, as `_label_ids` returns them: none is checked here, so loops
    read their labels once, before the first step. Each problem takes the
    gemm and the row reductions a lone (n, d) problem would, so a stack of
    P gives each problem the bits it gets in a stack of one."""
    P, n, _ = feats.shape
    # each problem's labelled entry in the flat (P * n * C) scores
    picked = np.arange(P * n) * heads.shape[2] + labels.ravel()
    # runaway weights and saturated probabilities surface as a non-finite
    # loss, which fit reports as divergence, not as a warning or a crash
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        probs = feats @ heads
        softmax_rows(probs.reshape(P * n, -1))  # in place, row by row
        loss = -np.log(probs.ravel()[picked].reshape(P, n)).mean(axis=1)
        delta = probs.copy()
        delta.ravel()[picked] -= 1.0
        return loss, feats.transpose(0, 2, 1) @ delta / n


def _new_heads(seed, *shape):
    """Untrained weights of `shape`: N(0, 0.01^2) entries in one draw from
    `seed`, read by `errors.rng_seed`, so a stack of L heads (or probes)
    holds the numbers of L drawn in turn. Classifier heads end in (d, C),
    `difficulty.linear_b`'s probes in (d,)."""
    return np.random.default_rng(rng_seed(seed)).normal(0.0, 0.01, size=shape)


def _fit_heads(heads, feats, labels, *, epochs, lr, names):
    """Train a stack of P classifier heads in one gradient loop: heads[p]
    descends on cross entropy over feats[p] and labels[p]
    (`_head_loss_and_grad`), and a divergence names names[p]. Every
    classifier head of the package trains here: `train_toy` as a stack of
    one, `difficulty.train_annotator` as a stack of one head per layer
    and `experiments.run_consistency_ablation` as one head per arm.
    Returns the (P, d, C) trained heads."""
    heads, = fit(lambda heads: _head_loss_and_grad(heads, feats, labels),
                 (heads,), epochs=epochs, lr=lr, what=names)
    return heads


def _label_ids(sequences, labels, num_classes=None, *, per_token=False):
    """The labels of `sequences` as one int64 vector.

    labels holds one label per sequence, or with per_token one list per
    sequence with a label per token, concatenated in order. Labels that do
    not line up with the sequences, or do not form one flat vector, are a
    ShapeError, and labels other than integers an InputError. A label outside
    0..num_classes - 1 is an InputError naming it; num_classes None stands
    for a head not made yet, whose classes the labels set, so only negative
    labels are rejected. train_toy and accuracy (after its head check) read
    their labels here before any forward runs, and the difficulty lab's
    trainers, which run none, read theirs here too.
    """
    if per_token:
        try:
            sizes = [len(gold) for gold in labels]
        except TypeError:  # a scalar in place of the lists, or in one
            raise ShapeError("per-token labels must be one list per "
                             "sequence") from None
        labels = list(chain.from_iterable(labels))
    ids = int_vector(labels, "labels")
    if len(sequences) != (len(sizes) if per_token else ids.size):
        raise ShapeError("sequences and labels differ in length")
    if per_token:
        for i, (seq, size) in enumerate(zip(sequences, sizes)):
            if size != len(seq):
                raise ShapeError(f"document {i} has {len(seq)} tokens and "
                                 f"{size} labels")
    bad = ids < 0 if num_classes is None else (ids < 0) | (ids >= num_classes)
    if bad.any():
        classes = "0 or more" if num_classes is None else f"in 0..{num_classes - 1}"
        raise InputError(f"label {ids[bad][0]} is not a class: labels must be "
                         f"{classes}")
    return ids


def _joined(routed):
    """One PackedBatch of the PackedBatches `routed`, their documents in
    order."""
    offsets = np.zeros(sum(map(len, routed)) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(part.offsets) for part in routed]),
              out=offsets[1:])
    return PackedBatch(np.concatenate([part.ids for part in routed]),
                       np.concatenate([part.exits for part in routed]),
                       offsets)


def cls_features(model, parts):
    """Frozen-encoder features: the final state of position 0 of every
    sequence of the (sequences, table) pairs `parts`, one (sequences, d)
    array, the parts in order. Each part is packed and routed under its
    own table (`route`), and the routed parts join one PackedBatch, which
    runs in `batches`: one walk, however many parts share the model."""
    # the routed parts are dropped once joined, before the walk
    corpus = _joined([route(*pack(sequences), table, model.num_layers)
                      for sequences, table in parts])
    feats = np.empty((len(corpus), model.d))
    for batch, packed in batches(model, corpus):
        feats[batch] = forward(model, packed)[packed.offsets[:-1]]
    return feats


def _training_labels(model, sequences, labels):
    """The labels `train_toy` fits, read before any forward runs: the
    model's head sets the classes, or without one the labels do. An empty
    training set is an InputError."""
    if len(sequences) == 0:
        raise InputError("training set is empty")
    return _label_ids(sequences, labels,
                      None if model.head is None else model.head.shape[1])


def _evaluation_labels(model, sequences, labels):
    """The labels `accuracy` scores against, read before any forward runs
    and checked against the model's head. An empty evaluation set is an
    InputError."""
    if len(sequences) == 0:
        raise InputError("evaluation set is empty")
    return _label_ids(sequences, labels, _head(model).shape[1])


def _hits(feats, heads, labels):
    """Whether each row's argmax class is its label: feats (..., n, d)
    scored by heads (..., d, C) against labels broadcasting to (..., n).
    Leading axes stack problems, each scored by the gemm it takes alone:
    the annotator's layers, the ablation's arms, or `accuracy`'s one."""
    return np.argmax(feats @ heads, axis=-1) == labels


def train_toy(model, sequences, labels, table, *, epochs=200, lr=0.5, seed=0):
    """Head-only gradient descent on cross entropy over frozen features.

    `table` schedules the exits. The encoder weights never move; only the
    classifier head is (re)fit, as a stack of one in `_fit_heads`, from a
    copy of the model's head or, without one, a fresh head drawn from
    `seed` whose classes the labels set. `seed` is read by
    `errors.rng_seed` whether or not a head is drawn. Returns a new model.
    """
    seed = rng_seed(seed)
    labels = _training_labels(model, sequences, labels)
    feats = cls_features(model, [(sequences, table)])
    if model.head is not None:
        head = model.head.copy()
    else:
        head = _new_heads(seed, model.d, int(labels.max()) + 1)
    heads = _fit_heads(head[None], feats[None], labels[None], epochs=epochs,
                       lr=lr, names=["classifier head"])
    return replace(model, layers=list(model.layers), head=heads[0])


def accuracy(model, sequences, labels, table):
    """Fraction of sequences whose argmax class matches the label."""
    labels = _evaluation_labels(model, sequences, labels)
    hits = _hits(cls_features(model, [(sequences, table)]), model.head, labels)
    return np.count_nonzero(hits) / len(labels)


def random_model(vocab_size, num_layers, d, heads, d_ff, *, seed=0,
                 num_classes=None):
    """Small random post-norm encoder; weights scaled to keep softmax sane.
    `seed` is read by `errors.rng_seed`."""
    _check_model_dims(num_layers, d, heads, d_ff)
    rng = np.random.default_rng(rng_seed(seed))
    scale = 1.0 / np.sqrt(d)
    layers = []
    for _ in range(num_layers):
        layers.append(LayerWeights(
            wq=rng.normal(0.0, scale, (d, d)),
            wk=rng.normal(0.0, scale, (d, d)),
            wv=rng.normal(0.0, scale, (d, d)),
            wo=rng.normal(0.0, scale, (d, d)),
            w1=rng.normal(0.0, scale, (d, d_ff)),
            w2=rng.normal(0.0, 1.0 / np.sqrt(d_ff), (d_ff, d)),
            ln1_gain=1.0 + rng.normal(0.0, 0.1, d),
            ln1_bias=rng.normal(0.0, 0.1, d),
            ln2_gain=1.0 + rng.normal(0.0, 0.1, d),
            ln2_bias=rng.normal(0.0, 0.1, d),
        ))
    embedding = rng.normal(0.0, 1.0, (vocab_size, d))
    head = None
    if num_classes is not None:
        head = rng.normal(0.0, scale, (d, num_classes))
    return EncoderModel(d=d, heads=heads, d_ff=d_ff, layers=layers,
                        embedding=embedding, head=head)


def save_model(model, path):
    """Write `model` as one ASCII header line, then every tensor as raw
    little-endian float64: the embedding, each layer's `_LAYER_FIELDS` in
    order, then the head if there is one. Shapes follow from the header,
    and reruns are byte-identical."""
    classes = 0 if model.head is None else model.head.shape[1]
    meta = {"L": model.num_layers, "d": model.d, "h": model.heads,
            "d_ff": model.d_ff, "V": model.vocab_size, "C": classes}
    blocks = [model.embedding]
    blocks += [getattr(lw, name) for lw in model.layers for name in _LAYER_FIELDS]
    if classes:
        blocks.append(model.head)
    _MODEL_FORMAT.write(path, meta, blocks)


def load_model(path):
    """Read a `save_model` file. The header's dims, and the file size they
    declare, are checked before any weight is read, then each tensor is
    read straight into its own array."""
    with _MODEL_FORMAT.read(path) as (meta, fh):
        L, d, h, d_ff, V, C = (meta[k] for k in _MODEL_FORMAT.fields)
        try:
            _check_model_dims(L, d, h, d_ff)
        except ConfigError as exc:
            raise ParseError(f"model header: {exc}") from None
        embedding = read_floats(fh, "embedding", V, d)
        layers = [LayerWeights(**{
            name: read_floats(fh, f"layer{i}.{name}", *shape)
            for name, shape in _layer_shapes(d, d_ff).items()}) for i in range(L)]
        head = read_floats(fh, "head", d, C) if C else None
    return EncoderModel(d=d, heads=h, d_ff=d_ff, layers=layers,
                        embedding=embedding, head=head)
