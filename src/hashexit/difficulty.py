"""Model-defined difficulty at toy scale.

A multi-exit annotator (one classifier head per encoder layer, all reading
the pinned first position) stamps every instance with an L-bit vector: bit
l says whether head l got the gold label right. Difficulty predictors then
try to anticipate those bits: a per-slot majority baseline and a shared
linear+sigmoid model over the per-layer hidden states. Metrics target the
negative (incorrect) class, micro-averaged across slots.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError
from .encoder import (ExitSchedule, batch_rows, fit, forward,
                      head_loss_and_grad, row_batches)


@dataclass
class MultiExitAnnotator:
    model: object
    heads: list

    def __post_init__(self):
        if len(self.heads) != self.model.num_layers:
            raise ConfigError(f"{len(self.heads)} heads for "
                              f"{self.model.num_layers} layers")
        self.heads = [np.asarray(h, dtype=np.float64) for h in self.heads]
        for h in self.heads:
            if h.ndim != 2 or h.shape[0] != self.model.d:
                raise ConfigError(f"head shape {h.shape} does not read "
                                  f"d={self.model.d} states")


@dataclass
class DifficultyDataset:
    """Instances with L-bit correctness labels and optional features.

    bits: (N, L), 1 where the matching internal head was correct.
    features: (N, L, d) per-layer states of the annotated position, kept
    for the linear predictor; None when not recorded.
    """

    bits: np.ndarray
    features: Optional[np.ndarray] = None
    tokens: Optional[list] = None
    ids: Optional[list] = None

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int8)
        if self.bits.ndim != 2:
            raise ConfigError("bit labels must form an (instances, layers) array")
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.shape[:2] != self.bits.shape:
                raise ConfigError("features do not align with bit labels")

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

    def to_text(self):
        if not self.applicable:
            return ("negative-class metrics: no negative predictions; "
                    "precision/F1 not applicable "
                    f"(recall {self.recall:.4f})")
        return (f"negative-class metrics: precision {self.precision:.4f} "
                f"recall {self.recall:.4f} f1 {self.f1:.4f}")


def _full_run_schedule(n, num_layers):
    return ExitSchedule(np.full(n, num_layers), np.ones(n, dtype=bool))


def _traces(model, sequences):
    """(index, ForwardTrace) of a full, no-exit forward per sequence.

    Sequences run in packed batches of at most batch_rows(model) rows, one
    forward call each, so they come back shortest first, not in order.
    """
    lengths = [len(seq) for seq in sequences]
    for batch in row_batches(lengths, batch_rows(model)):
        seqs = [sequences[i] for i in batch]
        scheds = [_full_run_schedule(len(seq), model.num_layers) for seq in seqs]
        yield from zip(batch, forward(model, seqs, scheds, traces=True))


def train_annotator(model, sequences, labels, *, epochs=200, lr=0.5, seed=0):
    """Fit one classifier head per layer on the pinned position's states."""
    if len(sequences) == 0:
        raise InputError("annotator training set is empty")
    labels = np.asarray(labels, dtype=np.int64)
    L, d = model.num_layers, model.d
    feats = np.empty((L, len(sequences), d))
    for i, trace in _traces(model, sequences):
        feats[:, i] = [h[0] for h in trace.hidden[1:]]
    num_classes = int(labels.max()) + 1
    rng = np.random.default_rng(seed)
    heads = []
    for l in range(L):
        head = rng.normal(0.0, 0.01, size=(d, num_classes))
        head, = fit(lambda head: head_loss_and_grad(head, feats[l], labels),
                    (head,), epochs=epochs, lr=lr,
                    what=f"annotator head {l + 1}")
        heads.append(head)
    return MultiExitAnnotator(model=model, heads=heads)


def annotate(annotator, sequences, labels, mode="sentence", tokens=None):
    """Stamp correctness bits per instance (or per token).

    Sentence mode reads the pinned first position through every head and
    compares argmax to the instance label. Token mode does the same at
    every position against per-token labels, producing one instance per
    token. Also records per-layer states (features) for the linear
    predictor. Instances keep the order of `sequences`.
    """
    if mode not in ("sentence", "token"):
        raise ConfigError(f"unknown annotation mode {mode!r}")
    if len(sequences) == 0:
        raise InputError("nothing to annotate")
    model = annotator.model
    L = model.num_layers
    sentence = mode == "sentence"
    counts = [1 if sentence else len(seq) for seq in sequences]
    starts = np.cumsum([0] + counts)
    feats = np.empty((starts[-1], L, model.d))
    for i, trace in _traces(model, sequences):
        rows = slice(starts[i], starts[i + 1])
        feats[rows] = np.stack(trace.hidden[1:], axis=1)[:counts[i]]
    instances = [(i, p) for i, n in enumerate(counts) for p in range(n)]
    gold = np.array([labels[i] if sentence else labels[i][p]
                     for i, p in instances], dtype=np.int64)
    ids = [str(i) if sentence else f"{i}.{p}" for i, p in instances]
    bits = np.empty((starts[-1], L), dtype=np.int8)
    for l, head in enumerate(annotator.heads):
        bits[:, l] = np.argmax(feats[:, l] @ head, axis=1) == gold
    out_tokens = None
    if tokens is not None:
        out_tokens = [list(tokens[i]) for i, _ in instances]
    return DifficultyDataset(bits=bits, features=feats, tokens=out_tokens,
                             ids=ids)


def oversample(dataset, seed=0, floor=0.3):
    """Duplicate negative-carrying instances until each slot has enough.

    Slots are visited in ascending order; each is topped up (duplicating
    seeded random choices among its negative instances) until its negative
    fraction reaches the floor. Nothing is ever removed and no bit changes.
    A slot with no negatives at all cannot be helped and is left alone with
    a warning.
    """
    if len(dataset) == 0:
        raise InputError("cannot oversample an empty dataset")
    if not 0.0 <= floor < 1.0:
        raise ConfigError(f"floor must sit in [0, 1), got {floor}")
    rng = np.random.default_rng(seed)
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
        bits=bits[idx].copy(),
        features=None if dataset.features is None else dataset.features[idx].copy(),
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


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss_and_grad(w, b, feats, targets):
    """Mean binary cross entropy of sigmoid(feats @ w + b) and gradients."""
    # runaway weights surface as a non-finite loss, which callers treat
    # as divergence instead of crashing mid-epoch
    with np.errstate(over="ignore", invalid="ignore"):
        z = feats @ w + b
        # softplus(z) - y*z, computed without overflowing exp
        loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
                             - targets * z))
        delta = _sigmoid(z) - targets
        return loss, feats.T @ delta / len(targets), float(delta.mean())


@dataclass
class LinearBPredictor:
    """Linear+sigmoid over per-layer states; weights shared across slots
    unless trained per layer."""

    weights: np.ndarray
    biases: np.ndarray
    per_layer: bool

    def predict_bits(self, dataset):
        if dataset.features is None:
            raise ConfigError("dataset carries no hidden-state features")
        n, L, _ = dataset.features.shape
        out = np.empty((n, L), dtype=np.int8)
        for l in range(L):
            idx = l if self.per_layer else 0
            z = dataset.features[:, l] @ self.weights[idx] + self.biases[idx]
            out[:, l] = (_sigmoid(z) >= 0.5).astype(np.int8)
        return out


def linear_b(dataset, *, per_layer=False, epochs=300, lr=0.5, seed=0):
    """Fit the linear difficulty predictor with gradient descent on BCE."""
    if len(dataset) == 0:
        raise InputError("cannot train on an empty dataset")
    if dataset.features is None:
        raise ConfigError("linear predictor needs hidden-state features")
    n, L, d = dataset.features.shape
    rng = np.random.default_rng(seed)
    slots = range(L) if per_layer else [None]
    weights, biases = [], []
    for slot in slots:
        if slot is None:
            feats = dataset.features.reshape(n * L, d)
            targets = dataset.bits.astype(np.float64).reshape(n * L)
        else:
            feats = dataset.features[:, slot]
            targets = dataset.bits[:, slot].astype(np.float64)
        w = rng.normal(0.0, 0.01, size=d)
        w, b = fit(lambda w, b: bce_loss_and_grad(w, b, feats, targets),
                   (w, 0.0), epochs=epochs, lr=lr,
                   what="linear difficulty predictor")
        weights.append(w)
        biases.append(b)
    return LinearBPredictor(weights=np.array(weights), biases=np.array(biases),
                            per_layer=per_layer)


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
    if dataset.tokens is None:
        raise ConfigError("dataset has no token text to write")
    ids = dataset.ids or [str(i) for i in range(len(dataset))]
    lines = []
    for i in range(len(dataset)):
        bitstring = "".join(str(int(b)) for b in dataset.bits[i])
        lines.append(f"{ids[i]}\t{bitstring}\t{' '.join(dataset.tokens[i])}")
    return "\n".join(lines) + "\n"


def save_difficulty_dataset(dataset, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_difficulty_dataset(dataset))

