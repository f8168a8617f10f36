"""Model-defined difficulty at toy scale.

One walk (`instance_states`) reads every instance's per-layer states: the
pinned first position of each document in sentence mode, every position
in token mode. The lab's trainers and scorers take those states and run
no forward of their own. A multi-exit annotator, one classifier head per
encoder layer trained as one (L, d, C) stack, stamps every instance with
an L-bit vector: bit l says whether head l got the gold label right.
Difficulty predictors then try to anticipate those bits: a per-slot
majority baseline and a shared linear+sigmoid model over the per-layer
states. Metrics target the negative (incorrect) class, micro-averaged
across slots.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .artifacts import check_field, check_tokens, write_text
from .errors import ConfigError, InputError, ShapeError, int_vector, rng_seed
from .encoder import (PackedBatch, _fit_heads, _hits, _label_ids, _new_heads,
                      batches, fit, forward, pack)


@dataclass
class DifficultyDataset:
    """Instances with L-bit correctness labels and optional features.

    bits: (N, L), 1 where the matching internal head was correct, else 0;
    read by `errors.int_vector`, so a float, bool or other bit is an
    InputError, never truncated or wrapped.
    features: (N, L, d) per-layer states of the annotated position, kept
    for the linear predictor; None when not recorded.
    """

    bits: np.ndarray
    features: Optional[np.ndarray] = None
    tokens: Optional[list] = None
    ids: Optional[list] = None

    def __post_init__(self):
        bits = int_vector(np.ravel(self.bits), "bit labels")
        bad = (bits != 0) & (bits != 1)
        if bad.any():
            raise InputError(f"bit label {bits[bad][0]} is not 0 or 1")
        self.bits = bits.astype(np.int8).reshape(np.shape(self.bits))
        if self.bits.ndim != 2:
            raise ConfigError("bit labels must form an (instances, layers) array")
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.shape[:2] != self.bits.shape:
                raise ConfigError("features do not align with bit labels")
        for name in ("tokens", "ids"):
            column = getattr(self, name)
            if column is not None and len(column) != len(self.bits):
                raise ConfigError(f"{len(column)} {name} for "
                                  f"{len(self.bits)} bit rows")

    def __len__(self):
        return self.bits.shape[0]

    @property
    def num_layers(self):
        return self.bits.shape[1]


@dataclass(frozen=True)
class NegClassMetrics:
    """Micro P/R/F1 for the negative (0) bits pooled over every slot.

    applicable is False when the predictor never emitted a negative bit:
    precision has no denominator then, so F1 is reported as not applicable
    rather than as a number.
    """

    precision: float
    recall: float
    f1: float
    applicable: bool
    tp: int
    fp: int
    fn: int


def _counts(sequences, mode):
    """Instances per document: its pinned first position in sentence mode,
    each of its positions in token mode. Another mode is a ConfigError."""
    if mode not in ("sentence", "token"):
        raise ConfigError(f"unknown annotation mode {mode!r}")
    if mode == "sentence":
        return [1] * len(sequences)
    return [len(seq) for seq in sequences]


def instance_states(model, sequences, mode="sentence"):
    """Per-layer states of every instance of `sequences` in `mode`
    (`_counts`), an (instances, L, d) array in `sequences` order: [k, l] is
    instance k's state after layer l + 1. The lab's one walk: one no-exit
    forward per batch of `batches`, its traces read as they arrive. H^0 is
    skipped and each layer's state is read only at the instances' rows, so
    a batch holds about two states, not L+1. No sequences give no
    instances."""
    counts = np.asarray(_counts(sequences, mode), dtype=np.int64)
    feats = np.empty((counts.sum(), model.num_layers, model.d))
    starts = np.cumsum(counts) - counts
    ids, offsets = pack(sequences)
    corpus = PackedBatch(ids, np.full(ids.size, model.num_layers), offsets)
    for batch, packed in batches(model, corpus):
        n = counts[batch]
        # the k-th instance of batch document j: row offsets[j] + k, stored
        # at starts[batch[j]] + k
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        rows = np.repeat(packed.offsets[:-1], n) + k
        at = np.repeat(starts[batch], n) + k
        states = forward(model, packed, traces=True)
        next(states)  # H^0, the embedding
        for l, state in enumerate(states):
            feats[at, l] = state[rows]
    return feats


def train_annotator(states, labels, *, epochs=200, lr=0.5, seed=0):
    """Fit one classifier head per layer on the instances' (instances, L,
    d) `states` (`instance_states` in sentence mode), one label each.

    The L heads train side by side as one stack (`encoder._fit_heads`),
    head l on the layer-l states, from one (L, d, C) draw from `seed`.
    Returns the (L, d, C) trained stack. States of another rank are a
    ShapeError.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 3:
        raise ShapeError(f"states of shape {states.shape} are not "
                         "(instances, layers, d)")
    if len(states) == 0:
        raise InputError("annotator training set is empty")
    labels = _label_ids(states, labels)
    _, L, d = states.shape
    return _fit_heads(_new_heads(seed, L, d, int(labels.max()) + 1),
                      states.transpose(1, 0, 2),
                      np.broadcast_to(labels, (L, labels.size)),
                      epochs=epochs, lr=lr,
                      names=[f"annotator head {l + 1}" for l in range(L)])


def annotate(heads, sequences, labels, states, mode="sentence", tokens=None):
    """Stamp correctness bits per instance (or per token).

    `states` are the instances' states (`instance_states` of `sequences`
    in `mode`), and bit l says whether head l of the (L, d, C) stack
    `heads` reads an instance's layer-l state as its label: the
    document's in sentence mode, the token's in token mode, where
    `labels` holds one list per document. The states stay on as the
    features of the linear predictor. Instances keep the order of
    `sequences`. States or heads of other shapes are a ShapeError.
    """
    counts = _counts(sequences, mode)
    if len(sequences) == 0:
        raise InputError("nothing to annotate")
    want = (sum(counts), *np.shape(heads)[:2])
    if np.ndim(heads) != 3 or np.shape(states) != want:
        raise ShapeError(f"states of shape {np.shape(states)} and heads of "
                         f"shape {np.shape(heads)} where the instances "
                         f"take states of shape {want}")
    sentence = mode == "sentence"
    gold = _label_ids(sequences, labels, np.shape(heads)[2],
                      per_token=not sentence)
    if tokens is not None and len(tokens) != len(sequences):
        raise ShapeError("sequences and tokens differ in length")
    instances = [(i, p) for i, n in enumerate(counts) for p in range(n)]
    ids = [str(i) if sentence else f"{i}.{p}" for i, p in instances]
    bits = _hits(np.asarray(states).transpose(1, 0, 2), heads, gold).T
    out_tokens = None
    if tokens is not None:
        out_tokens = [list(tokens[i]) for i, _ in instances]
    return DifficultyDataset(bits=bits.astype(np.int8), features=states,
                             tokens=out_tokens, ids=ids)


def oversample(dataset, seed=0, floor=0.3):
    """Duplicate negative-carrying instances until each slot has enough.

    Slots are visited in ascending order; each is topped up (duplicating
    seeded random choices among its negative instances) until its negative
    fraction reaches the floor. Nothing is ever removed and no bit changes.
    A slot with no negatives at all cannot be helped and is left alone with
    a warning. `seed` is read by `errors.rng_seed`.
    """
    if len(dataset) == 0:
        raise InputError("cannot oversample an empty dataset")
    if not 0.0 <= floor < 1.0:
        raise ConfigError(f"floor must sit in [0, 1), got {floor}")
    rng = np.random.default_rng(rng_seed(seed))
    keep = list(range(len(dataset)))
    bits = dataset.bits
    for slot in range(dataset.num_layers):
        negatives = [i for i in keep if bits[i, slot] == 0]
        if not negatives:
            warnings.warn(f"slot {slot + 1} has no negative instances; "
                          "oversampling skipped", stacklevel=2)
            continue
        while len(negatives) / len(keep) < floor:
            pick = negatives[int(rng.integers(len(negatives)))]
            keep.append(pick)
            negatives.append(pick)
    idx = np.array(keep)
    return DifficultyDataset(
        bits=bits[idx],
        features=None if dataset.features is None else dataset.features[idx],
        tokens=None if dataset.tokens is None else [dataset.tokens[i] for i in keep],
        ids=None if dataset.ids is None else [dataset.ids[i] for i in keep])


@dataclass
class MajorityPredictor:
    """Per-slot constant prediction; ties go to the positive class."""

    slot_bits: np.ndarray

    def predict_bits(self, dataset):
        return np.tile(self.slot_bits, (len(dataset), 1))


def majority_baseline(dataset):
    if len(dataset) == 0:
        raise InputError("cannot fit a majority baseline on nothing")
    positives = dataset.bits.sum(axis=0)
    negatives = len(dataset) - positives
    return MajorityPredictor(slot_bits=(positives >= negatives).astype(np.int8))


def _sigmoid(z, e=None):
    """1 / (1 + exp(-z)) without overflow: e is exp(-|z|), computed here
    unless the caller has it."""
    if e is None:
        e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _logits(w, b, feats):
    """feats @ w + b for each probe of a stack: w (..., d), b (...) and
    feats (..., n, d) give (..., n), one gemv per probe."""
    z = np.matmul(feats, w[..., None])[..., 0]
    z += np.asarray(b)[..., None]
    return z


def bce_loss_and_grad(w, b, feats, targets):
    """Mean binary cross entropy of sigmoid(feats @ w + b) and its
    gradients in w and b.

    w is (..., d), b (...), feats (..., n, d) (a strided view will do)
    and targets (..., n): leading axes stack probes side by side, and
    each probe of a stack takes the gemv and the row reductions it would
    take alone."""
    # runaway weights surface as a non-finite loss, which callers treat
    # as divergence instead of crashing mid-epoch
    with np.errstate(over="ignore", invalid="ignore"):
        z = _logits(w, b, feats)
        e = np.exp(-np.abs(z))
        # softplus(z) - y*z, computed without overflowing exp
        loss = np.mean(np.maximum(z, 0.0) + np.log1p(e) - targets * z,
                       axis=-1)
        delta = _sigmoid(z, e) - targets
        grad = np.matmul(feats.swapaxes(-1, -2), delta[..., None])[..., 0]
        return loss, grad / targets.shape[-1], delta.mean(axis=-1)


@dataclass
class LinearBPredictor:
    """Linear+sigmoid over per-layer states: row l of `weights` and entry
    l of `biases` score slot l's states. A probe shared across slots is
    one row repeated L times."""

    weights: np.ndarray
    biases: np.ndarray

    def predict_bits(self, dataset):
        if dataset.features is None:
            raise ConfigError("dataset carries no hidden-state features")
        L = dataset.features.shape[1]
        if L != len(self.weights):
            raise ConfigError(f"predictor has {len(self.weights)} slots, "
                              f"dataset has {L} layers")
        z = _logits(self.weights, self.biases,
                    dataset.features.transpose(1, 0, 2))
        return (_sigmoid(z) >= 0.5).T.astype(np.int8)


def linear_b(dataset, *, per_layer=False, epochs=300, lr=0.5, seed=0):
    """Fit the linear difficulty predictor with gradient descent on BCE:
    one probe on every slot's states and bits, or with per_layer one per
    slot. The L per-slot probes train side by side as one stack in `fit`
    (`bce_loss_and_grad`), from one (L, d) draw from `seed`
    (`encoder._new_heads`), the numbers of L probes drawn in turn; each
    ends where it would trained alone."""
    if len(dataset) == 0:
        raise InputError("cannot train on an empty dataset")
    if dataset.features is None:
        raise ConfigError("linear predictor needs hidden-state features")
    n, L, d = dataset.features.shape
    what = "linear difficulty predictor"
    feats, bits = dataset.features, dataset.bits
    if per_layer:
        feats, bits = feats.transpose(1, 0, 2), bits.T
        names = [f"{what} of slot {l + 1}" for l in range(L)]
    else:
        feats, bits = feats.reshape(1, n * L, d), bits.reshape(1, n * L)
        names = [what]
    targets = np.ascontiguousarray(bits, dtype=np.float64)
    w, b = fit(lambda w, b: bce_loss_and_grad(w, b, feats, targets),
               (_new_heads(seed, len(names), d), np.zeros(len(names))),
               epochs=epochs, lr=lr, what=names)
    return LinearBPredictor(weights=np.broadcast_to(w, (L, d)).copy(),
                            biases=np.broadcast_to(b, (L,)).copy())


def negative_class_metrics(bits_true, bits_pred):
    """Micro P/R/F1 with the 0 bit as the detection target."""
    bits_true = np.asarray(bits_true)
    bits_pred = np.asarray(bits_pred)
    if bits_true.shape != bits_pred.shape:
        raise ConfigError("prediction shape does not match labels")
    tp = int(np.sum((bits_pred == 0) & (bits_true == 0)))
    fp = int(np.sum((bits_pred == 0) & (bits_true == 1)))
    fn = int(np.sum((bits_pred == 1) & (bits_true == 0)))
    applicable = (tp + fp) > 0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    # harmonic mean of p and r, written in counts so fixtures come out exact
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return NegClassMetrics(precision=precision, recall=recall, f1=f1,
                           applicable=applicable, tp=tp, fp=fp, fn=fn)


def evaluate(predictor, dataset):
    if len(dataset) == 0:
        raise InputError("evaluation set is empty")
    return negative_class_metrics(dataset.bits, predictor.predict_bits(dataset))


def serialize_difficulty_dataset(dataset):
    """One `id<TAB>bits<TAB>tokens` line per instance; an id holding a tab
    or a line break, or a token breaking the token rule, is an InputError."""
    if dataset.tokens is None:
        raise ConfigError("dataset has no token text to write")
    ids = dataset.ids or [str(i) for i in range(len(dataset))]
    lines = []
    for i in range(len(dataset)):
        check_field(str(ids[i]), "instance id")
        check_tokens(dataset.tokens[i])
        bitstring = "".join(str(int(b)) for b in dataset.bits[i])
        lines.append(f"{ids[i]}\t{bitstring}\t{' '.join(dataset.tokens[i])}\n")
    return "".join(lines)


def save_difficulty_dataset(dataset, path):
    write_text(path, serialize_difficulty_dataset(dataset))
