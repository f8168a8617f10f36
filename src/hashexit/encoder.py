"""Exit-aware transformer encoder.

Every position carries a fixed exit layer. A position exiting at layer k is
updated by layers 1..k; above that its hidden state is copied upward bit for
bit. Exited positions stop producing queries but stay visible to the rest of
the sequence as keys and values, so later layers still attend over the full
(non-padding) sequence. Setting every exit to the top layer reproduces a
plain post-norm encoder exactly.

Because the schedule is known before layer 1 runs, several documents run
as one packed batch: their non-padding rows are stacked into one matrix,
the per-row work of each layer is one matmul over the stacked active rows,
and attention stays inside each document. A single sequence is a batch of
one.
"""

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError, ParseError, ShapeError, TrainingError
from .linalg import layer_norm, relu, softmax_rows

MAX_SEQUENCE_LEN = 512

# Budget of a packed batch when a corpus is walked in batches. Rows are
# capped at BATCH_ROWS, enough to share per-layer Python overhead among
# many short documents, and a layer's widest temporary (rows x max(d,
# d_ff) float64s) at BATCH_FLOATS, 3 MiB, below the 4 MiB from which numpy
# asks for huge pages. Larger temporaries are mapped and page-faulted
# afresh on every layer: at d=256, d_ff=1024, 2048-row batches took about
# 40 times the page faults of 384-row ones (this budget there) and ran
# no faster.
BATCH_ROWS = 2048
BATCH_FLOATS = 3 << 17

_MODEL_MAGIC = "#hashee-model v1"

_LAYER_FIELDS = ("wq", "wk", "wv", "wo", "w1", "w2",
                 "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")


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
        for name, shape in (("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)),
                            ("wo", (d, d)), ("w1", (d, d_ff)), ("w2", (d_ff, d)),
                            ("ln1_gain", (d,)), ("ln1_bias", (d,)),
                            ("ln2_gain", (d,)), ("ln2_bias", (d,))):
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
        if self.d <= 0 or self.heads <= 0 or self.d_ff <= 0:
            raise ConfigError("model dims must be positive")
        if self.d % 2 != 0:
            raise ConfigError("d must be even for the sinusoidal positions")
        if self.d % self.heads != 0:
            raise ConfigError(f"heads={self.heads} does not divide d={self.d}")
        if not self.layers:
            raise ConfigError("model needs at least one layer")
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
    def d_k(self):
        return self.d // self.heads

    @property
    def vocab_size(self):
        return self.embedding.shape[0]


@dataclass(frozen=True)
class ExitSchedule:
    """Per-position exit layers plus the padding mask.

    Padding positions are parked at exit layer 1 and carry attn_mask False,
    which keeps them out of both the query set and the key/value set.
    """

    exit_layer: np.ndarray
    attn_mask: np.ndarray

    def __post_init__(self):
        exit_layer = np.asarray(self.exit_layer, dtype=np.int64)
        attn_mask = np.asarray(self.attn_mask, dtype=bool)
        object.__setattr__(self, "exit_layer", exit_layer)
        object.__setattr__(self, "attn_mask", attn_mask)
        if exit_layer.shape != attn_mask.shape or exit_layer.ndim != 1:
            raise ShapeError("exit_layer and attn_mask must be equal-length vectors")
        if exit_layer.size and exit_layer.min() < 1:
            raise ConfigError("exit layers start at 1")
        if np.any(exit_layer[~attn_mask] != 1):
            raise ConfigError("padding positions must exit at layer 1")

    def __len__(self):
        return self.exit_layer.size

    def active_at(self, layer):
        """Positions still being updated by processing layer `layer` (1-based)."""
        return np.flatnonzero(self.attn_mask & (self.exit_layer >= layer))

    @property
    def valid_count(self):
        return int(self.attn_mask.sum())


@dataclass
class ForwardTrace:
    """The states H^0..H^L of one forward pass; H^0 is the embedding."""

    hidden: list

    @property
    def final(self):
        return self.hidden[-1]


def schedule(token_ids, table, num_layers=None, *, pin_first=False, valid_len=None):
    """Look up each token's exit layer and apply pinning/padding overrides.

    pin_first forces position 0 to the top layer (it hosts the classifier
    readout). Positions at index >= valid_len are padding: exit layer 1,
    masked out of attention. Unknown ids (< 0 or beyond the table) run to
    the top layer.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("token ids must be a flat sequence")
    if num_layers is not None and table.num_layers != num_layers:
        raise ConfigError(f"table built for L={table.num_layers}, "
                          f"model has L={num_layers}")
    n = ids.size
    if valid_len is None:
        valid_len = n
    if not 0 <= valid_len <= n:
        raise ConfigError(f"valid_len={valid_len} out of range for length {n}")
    exits = np.full(n, table.num_layers, dtype=np.int64)
    known = (ids >= 0) & (ids < len(table.tokens))
    exits[known] = table.layers[ids[known]]
    mask = np.zeros(n, dtype=bool)
    mask[:valid_len] = True
    if pin_first and valid_len >= 1:
        exits[0] = table.num_layers
    exits[~mask] = 1
    return ExitSchedule(exits, mask)


def positional_encoding(n, d):
    """Fixed sinusoidal position signal, sin on even dims, cos on odd."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d // 2, dtype=np.float64)
    angles = pos / np.power(10000.0, 2.0 * idx / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def embed(model, token_ids, positions=None):
    """Token embeddings plus position signal; ids < 0 embed as zero vectors.

    `positions` gives each row's position (default 0..n-1), so the rows of
    several documents can be embedded in one call.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size and ids.max() >= model.vocab_size:
        raise InputError(f"token id {int(ids.max())} outside vocabulary "
                         f"of size {model.vocab_size}")
    rows = np.where(ids[:, None] >= 0, model.embedding[np.maximum(ids, 0)], 0.0)
    if positions is None:
        return rows + positional_encoding(ids.size, model.d)
    positions = np.asarray(positions, dtype=np.int64)
    longest = int(positions.max()) + 1 if positions.size else 0
    return rows + positional_encoding(longest, model.d)[positions]


def _slots(doc, count):
    """Rank of each entry among the entries of its own document."""
    order = np.argsort(doc, kind="stable")
    sizes = np.bincount(doc, minlength=count)
    starts = np.cumsum(sizes) - sizes
    slot = np.empty_like(doc)
    slot[order] = np.arange(doc.size) - starts[doc[order]]
    return slot, sizes


def _attention(q, k, v, heads, q_doc=None, k_doc=None, docs=1):
    """Multi-head attention of each query row over its own document's keys.

    q_doc and k_doc number the document (0..docs-1) of each query and key
    row; None means all rows belong to one document. With several
    documents, queries and keys are padded per document to the largest
    count in the batch; padded key slots score -inf and so get zero
    weight, and padded query slots are dropped.
    """
    d = q.shape[1]
    qp, kp, vp, bias = q, k, v, None
    if docs > 1:
        q_slot, _ = _slots(q_doc, docs)
        k_slot, k_sizes = _slots(k_doc, docs)
        qp = np.zeros((docs, int(q_slot.max()) + 1, d))
        qp[q_doc, q_slot] = q
        kp = np.zeros((docs, int(k_sizes.max()), d))
        vp = np.zeros_like(kp)
        kp[k_doc, k_slot] = k
        vp[k_doc, k_slot] = v
        bias = np.where(np.arange(kp.shape[1]) < k_sizes[:, None], 0.0, -np.inf)
        bias = bias[:, None, :]
    d_k = d // heads
    ctx = np.empty_like(qp)
    for i in range(heads):
        sl = slice(i * d_k, (i + 1) * d_k)
        scores = qp[..., sl] @ kp[..., sl].swapaxes(-1, -2)
        scores /= np.sqrt(d_k)
        if bias is not None:
            scores += bias
        weights = softmax_rows(scores.reshape(-1, scores.shape[-1]))
        ctx[..., sl] = weights.reshape(scores.shape) @ vp[..., sl]
    return ctx if docs == 1 else ctx[q_doc, q_slot]


def forward_layer(h, weights, active, *, heads, key_mask=None, segments=None):
    """One exit-aware encoder layer over one or more packed documents.

    `segments` lists the start row of each document packed into h followed
    by h's row count (default: all of h is one document). Queries come from
    the `active` rows only; keys and values span the key_mask rows (default:
    all) of every document that has an active row, and each query attends
    to its own document only. Rows outside `active` are copied verbatim, so
    an empty active set makes the layer an exact identity.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError("hidden states must be a 2-D matrix")
    n, d = h.shape
    if weights.wq.shape[0] != d:
        raise ShapeError(f"weights expect d={weights.wq.shape[0]}, states have d={d}")
    if segments is not None:
        segments = np.asarray(segments, dtype=np.int64)
        sizes = segments[1:] - segments[:-1]
        if segments[0] != 0 or segments[-1] != n or (sizes < 0).any():
            raise ShapeError(f"segments must rise from 0 to the row count {n}")
    active = np.asarray(active, dtype=np.int64)
    if active.size == 0:
        return h.copy()
    keys = None if key_mask is None else np.asarray(key_mask, dtype=bool)
    docs, q_doc, k_doc = 1, None, None
    if segments is not None and sizes.size > 1:
        # documents without an active row need no keys; number the rest
        doc_of = np.repeat(np.arange(sizes.size), sizes)
        live = np.zeros(sizes.size, dtype=bool)
        live[doc_of[active]] = True
        if not live.all():
            keys = live[doc_of] if keys is None else keys & live[doc_of]
        rank = np.cumsum(live) - 1
        docs, q_doc = int(rank[-1]) + 1, rank[doc_of[active]]
        k_doc = rank[doc_of if keys is None else doc_of[keys]]
    hk = h if keys is None else h[keys]
    hq = h[active]
    ctx = _attention(hq @ weights.wq, hk @ weights.wk, hk @ weights.wv,
                     heads, q_doc, k_doc, docs)
    x = layer_norm(hq + ctx @ weights.wo, weights.ln1_gain, weights.ln1_bias)
    del hq, ctx  # a packed batch's temporaries dominate its memory
    ffn = relu(x @ weights.w1) @ weights.w2
    out = h.copy()
    out[active] = layer_norm(x + ffn, weights.ln2_gain, weights.ln2_bias)
    return out


def _run_packed(model, ids_list, schedules, keep_hidden):
    """Run documents as one packed batch.

    Returns the states after every layer (H^0..H^L) if keep_hidden, else
    only H^L; each entry is a list of per-document (n_i, d) matrices.
    Padding rows are left out of the packed matrix and come back carrying
    their embeddings.
    """
    if len(ids_list) != len(schedules):
        raise ShapeError(f"{len(ids_list)} sequences but {len(schedules)} schedules")
    if not ids_list:
        return [[]]
    ids_list = [np.asarray(ids, dtype=np.int64) for ids in ids_list]
    for ids, sched in zip(ids_list, schedules):
        if ids.size == 0:
            raise InputError("cannot run a forward pass on an empty sequence")
        if ids.size > MAX_SEQUENCE_LEN:
            raise InputError(f"sequence length {ids.size} exceeds {MAX_SEQUENCE_LEN}")
        if ids.size != len(sched):
            raise ShapeError(f"schedule covers {len(sched)} positions, "
                             f"sequence has {ids.size}")
    exits = np.concatenate([sched.exit_layer for sched in schedules])
    if exits.max() > model.num_layers:
        raise ConfigError("schedule assigns layers beyond the model depth")
    lengths = [ids.size for ids in ids_list]
    bounds = list(accumulate(lengths, initial=0))
    positions, segments = None, None
    if len(ids_list) > 1:
        positions = np.arange(bounds[-1]) - np.repeat(bounds[:-1], lengths)
        segments = np.cumsum([0] + [sched.valid_count for sched in schedules])
    full = embed(model, np.concatenate(ids_list), positions)
    mask = np.concatenate([sched.attn_mask for sched in schedules])
    padded = not mask.all()
    h, exits = (full[mask], exits[mask]) if padded else (full, exits)
    states = [h]
    for t, weights in enumerate(model.layers, start=1):
        h = forward_layer(h, weights, np.flatnonzero(exits >= t),
                          heads=model.heads, segments=segments)
        states = states + [h] if keep_hidden else [h]

    def unpack(packed):
        if padded:
            packed, rows = full.copy(), packed
            packed[mask] = rows
        return [packed[a:b] for a, b in zip(bounds, bounds[1:])]

    return [unpack(packed) for packed in states]


def forward_batch(model, ids_list, schedules):
    """Final states of several documents run as one packed batch.

    Entry i is document i's (n_i, d) final states and matches
    forward(model, ids_list[i], schedules[i]).final up to the summation
    order of the packed matmuls. Memory grows with the batch's rows, so
    split a corpus with row_batches.
    """
    return _run_packed(model, ids_list, schedules, keep_hidden=False)[0]


def forward(model, token_ids, sched):
    """One forward pass under the exit schedule.

    For one document (an id sequence and its ExitSchedule) returns the
    ForwardTrace of every layer's states. For a packed batch (a list of
    id sequences and a list of schedules) returns the documents' final
    states, as forward_batch does.
    """
    if not isinstance(sched, ExitSchedule):
        return forward_batch(model, token_ids, sched)
    states = _run_packed(model, [token_ids], [sched], keep_hidden=True)
    return ForwardTrace(hidden=[per_doc[0] for per_doc in states])


def batch_rows(model):
    """Row budget of one packed batch for this model's widths."""
    return max(1, min(BATCH_ROWS, BATCH_FLOATS // max(model.d, model.d_ff)))


def row_batches(lengths, max_rows):
    """Split documents into packed batches of at most max_rows rows.

    Returns index arrays. Documents are taken shortest first, so each
    batch holds documents of similar length and pads little; a document
    longer than the budget gets a batch of its own.
    """
    order = np.argsort(np.asarray(lengths, dtype=np.int64), kind="stable")
    batches, start, rows = [], 0, 0
    for i, doc in enumerate(order):
        if rows and rows + lengths[doc] > max_rows:
            batches.append(order[start:i])
            start, rows = i, 0
        rows += lengths[doc]
    if rows:
        batches.append(order[start:])
    return batches


def classify(model, final_states):
    """Class scores read from the pinned first position."""
    if model.head is None:
        raise ConfigError("model has no classifier head")
    return np.asarray(final_states)[0] @ model.head


def predict_class(model, token_ids, table):
    sched = schedule(token_ids, table, model.num_layers, pin_first=True)
    return int(np.argmax(classify(model, forward(model, token_ids, sched).final)))


def head_loss_and_grad(head, feats, label_ids):
    """Mean cross entropy of feats @ head and its gradient in head."""
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(label_ids, dtype=np.int64)
    probs = softmax_rows(feats @ head)
    n = feats.shape[0]
    # saturated probabilities are reported as an infinite loss, not a crash
    with np.errstate(divide="ignore"):
        loss = -np.log(probs[np.arange(n), labels]).mean()
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    grad = feats.T @ delta / n
    return loss, grad


def _resolve_table(tables, phase):
    if phase not in ("train", "infer"):
        raise ConfigError(f"phase must be 'train' or 'infer', got {phase!r}")
    if isinstance(tables, dict):
        if phase not in tables:
            raise ConfigError(f"no hash table supplied for phase {phase!r}")
        return tables[phase]
    return tables


def cls_features(model, sequences, table):
    """Frozen-encoder features: final state of position 0 per sequence.

    Sequences run in packed batches of at most batch_rows(model) rows.
    """
    feats = np.empty((len(sequences), model.d))
    lengths = [len(seq) for seq in sequences]
    for batch in row_batches(lengths, batch_rows(model)):
        seqs = [sequences[i] for i in batch]
        scheds = [schedule(seq, table, model.num_layers, pin_first=True)
                  for seq in seqs]
        feats[batch] = [final[0] for final in forward_batch(model, seqs, scheds)]
    return feats


def train_toy(model, sequences, labels, tables, phase="train", *,
              epochs=200, lr=0.5, seed=0):
    """Head-only gradient descent on cross entropy over frozen features.

    `tables` is a HashTable, or a {"train": ..., "infer": ...} dict from
    which `phase` picks the one used to schedule exits. The encoder weights
    never move; only the classifier head is (re)fit. Returns a new model.
    """
    if len(sequences) == 0:
        raise InputError("training set is empty")
    if len(sequences) != len(labels):
        raise ShapeError("sequences and labels differ in length")
    table = _resolve_table(tables, phase)
    labels = np.asarray(labels, dtype=np.int64)
    feats = cls_features(model, sequences, table)
    if model.head is not None:
        head = model.head.copy()
    else:
        num_classes = int(labels.max()) + 1
        rng = np.random.default_rng(seed)
        head = rng.normal(0.0, 0.01, size=(model.d, num_classes))
    for _ in range(epochs):
        loss, grad = head_loss_and_grad(head, feats, labels)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged to {loss}")
        head = head - lr * grad
    return replace(model, layers=list(model.layers), head=head)


def accuracy(model, sequences, labels, table):
    """Fraction of sequences whose argmax class matches the label."""
    if len(sequences) == 0:
        raise InputError("evaluation set is empty")
    if len(sequences) != len(labels):
        raise ShapeError("sequences and labels differ in length")
    if model.head is None:
        raise ConfigError("model has no classifier head")
    preds = np.argmax(cls_features(model, sequences, table) @ model.head, axis=1)
    hits = np.count_nonzero(preds == [int(lab) for lab in labels])
    return int(hits) / len(sequences)


def random_model(vocab_size, num_layers, d, heads, d_ff, *, seed=0,
                 num_classes=None):
    """Small random post-norm encoder; weights scaled to keep softmax sane."""
    rng = np.random.default_rng(seed)
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


def _format_tensor(name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    lines = [f"[tensor {name} {arr.shape[0]} {arr.shape[1]}]"]
    for row in arr:
        lines.append(" ".join(repr(float(x)) for x in row))
    return lines


def serialize_model(model):
    lines = [f"{_MODEL_MAGIC} L={model.num_layers} d={model.d} "
             f"h={model.heads} d_ff={model.d_ff} V={model.vocab_size}"]
    lines += _format_tensor("embedding", model.embedding)
    for i, lw in enumerate(model.layers):
        for name in _LAYER_FIELDS:
            lines += _format_tensor(f"layer{i}.{name}", getattr(lw, name))
    if model.head is not None:
        lines += _format_tensor("head", model.head)
    return "\n".join(lines) + "\n"


def parse_model(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_MODEL_MAGIC + " "):
        raise ParseError("not a model file (bad magic header)")
    meta = {}
    for part in lines[0][len(_MODEL_MAGIC) + 1:].split():
        key, _, val = part.partition("=")
        try:
            meta[key] = int(val)
        except ValueError:
            raise ParseError(f"model header field {part!r} is not "
                             "key=integer") from None
    for key in ("L", "d", "h", "d_ff", "V"):
        if key not in meta:
            raise ParseError(f"model header is missing {key}")
    tensors = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if not (line.startswith("[tensor ") and line.endswith("]")):
            raise ParseError(f"expected a tensor header on line {i + 1}")
        parts = line[1:-1].split()
        if len(parts) != 4:
            raise ParseError(f"malformed tensor header on line {i + 1}")
        try:
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError(f"non-integer shape in tensor header on line "
                             f"{i + 1}") from None
        block = lines[i + 1:i + 1 + rows]
        if len(block) != rows:
            raise ParseError(f"tensor {name} is truncated")
        try:
            arr = np.array([[float(x) for x in row.split()] for row in block])
        except ValueError as exc:
            raise ParseError(f"bad number in tensor {name}: {exc}") from exc
        if arr.shape != (rows, cols):
            raise ParseError(f"tensor {name} rows do not match header shape")
        if not np.isfinite(arr).all():
            raise ParseError(f"tensor {name} holds a non-finite weight")
        tensors[name] = arr
        i += 1 + rows
    layers = []
    for li in range(meta["L"]):
        fields = {}
        for name in _LAYER_FIELDS:
            key = f"layer{li}.{name}"
            if key not in tensors:
                raise ParseError(f"model file is missing tensor {key}")
            arr = tensors[key]
            fields[name] = arr[0] if name.startswith("ln") else arr
        layers.append(LayerWeights(**fields))
    if "embedding" not in tensors:
        raise ParseError("model file is missing the embedding tensor")
    return EncoderModel(d=meta["d"], heads=meta["h"], d_ff=meta["d_ff"],
                        layers=layers, embedding=tensors["embedding"],
                        head=tensors.get("head"))


def save_model(model, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_model(model))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
