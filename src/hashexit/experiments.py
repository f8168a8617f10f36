"""Synthetic end-to-end experiments.

Two pipelines: the train/infer hash-consistency ablation (does training
under one token-to-layer assignment and serving under another hurt?), and
the difficulty pipeline (annotate with a multi-exit model, then try to
predict which layers get an instance right). Both run on a small separable
token task so results are deterministic and fast.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, rng_seed
from .encoder import accuracy, random_model, train_toy
from .difficulty import (
    annotate,
    evaluate,
    linear_b,
    majority_baseline,
    oversample,
    train_annotator,
)
from .hashing import Vocab, build_random


@dataclass
class SeparableTask:
    """Two-class toy task: class 0 draws tokens from the low half of the
    vocabulary, class 1 from the high half; token 0 is the classification
    slot at position 0."""

    vocab: Vocab
    train_seqs: list
    train_labels: list
    eval_seqs: list
    eval_labels: list

    def token_text(self, seqs):
        return [[self.vocab.tokens[t] for t in seq] for seq in seqs]


def make_separable_task(*, num_train=40, num_eval=40, vocab_size=11,
                        seq_len=5, seed=0):
    """The task's vocabulary and its train and eval draws; `seed` is read
    by `errors.rng_seed`."""
    seed = rng_seed(seed)
    if vocab_size < 3:
        raise ConfigError("need at least a class token and two word tokens")
    if seq_len < 1:
        raise ConfigError(f"seq_len must be at least 1, got {seq_len}")
    rng = np.random.default_rng(seed)
    vocab = Vocab(tuple(["cls"] + [f"w{i}" for i in range(vocab_size - 1)]))
    half = 1 + (vocab_size - 1) // 2
    pools = (np.arange(1, half), np.arange(half, vocab_size))

    def draw(count):
        seqs, labels = [], []
        for _ in range(count):
            lab = int(rng.integers(0, 2))
            body = rng.choice(pools[lab], size=seq_len - 1)
            seqs.append([0] + [int(t) for t in body])
            labels.append(lab)
        return seqs, labels

    train_seqs, train_labels = draw(num_train)
    eval_seqs, eval_labels = draw(num_eval)
    return SeparableTask(vocab=vocab, train_seqs=train_seqs,
                         train_labels=train_labels, eval_seqs=eval_seqs,
                         eval_labels=eval_labels)


@dataclass
class AblationResult:
    seeds: list
    cons_accuracies: list
    incons_accuracies: list

    def to_text(self):
        lines = ["consistency ablation: eval accuracy per arm",
                 "arm     seed  accuracy"]
        for arm, accs in (("cons", self.cons_accuracies),
                          ("incons", self.incons_accuracies)):
            for seed, acc in zip(self.seeds, accs):
                lines.append(f"{arm:<7} {seed:>4}  {acc:.4f}")
            mean = np.mean(accs)
            lines.append(f"{arm:<7} mean  {mean:.4f}")
        return "\n".join(lines) + "\n"


def run_consistency_ablation(seeds, *, buckets=2, num_layers=4, d=8, heads=2,
                             d_ff=16, epochs=150, lr=0.5, num_train=40,
                             num_eval=40, vocab_size=11, seq_len=5,
                             force_identical=False):
    """Train and evaluate both arms per seed.

    cons: one hash table for training and inference. incons: train under
    one random table, infer under an independently drawn one. With
    force_identical the incons arm reuses the cons table on both sides,
    which pins the two arms to identical results (a control). Each seed is
    read by `errors.rng_seed`. The keyword parameters, defaults included,
    are the `ablate-consistency` flags (`cli.build_parser`).
    """
    seeds = [rng_seed(seed, "seeds") for seed in seeds]
    if len(seeds) < 2:
        raise ConfigError("ablation needs at least 2 seeds to average over")
    cons_accs, incons_accs = [], []
    for seed in seeds:
        task = make_separable_task(num_train=num_train, num_eval=num_eval,
                                   vocab_size=vocab_size, seq_len=seq_len,
                                   seed=seed)
        model = random_model(len(task.vocab.tokens), num_layers, d, heads,
                             d_ff, seed=seed)
        cons = build_random(task.vocab, buckets, num_layers, seed=seed)
        incons = (cons, cons) if force_identical else build_random(
            task.vocab, buckets, num_layers, seed=seed, consistent=False)
        for accs, (train_table, infer_table) in ((cons_accs, (cons, cons)),
                                                 (incons_accs, incons)):
            trained = train_toy(model, task.train_seqs, task.train_labels,
                                train_table, epochs=epochs, lr=lr, seed=seed)
            accs.append(accuracy(trained, task.eval_seqs, task.eval_labels,
                                 infer_table))
    return AblationResult(seeds=seeds, cons_accuracies=cons_accs,
                          incons_accuracies=incons_accs)


@dataclass
class DifficultyOutcome:
    train_dataset: object
    eval_dataset: object
    metrics: dict

    def to_text(self):
        lines = ["difficulty prediction, negative class, micro-averaged",
                 "predictor  precision  recall      f1"]
        for name in ("majority", "linear_b"):
            m = self.metrics[name]
            if m.applicable:
                lines.append(f"{name:<9}  {m.precision:>9.4f}  "
                             f"{m.recall:>6.4f}  {m.f1:>6.4f}")
            else:
                lines.append(f"{name:<9}        n/a  {m.recall:>6.4f}     "
                             "n/a  (never predicts the negative class)")
        return "\n".join(lines) + "\n"


def run_difficulty_pipeline(*, seed=0, num_train=40, num_eval=40,
                            vocab_size=11, seq_len=5, num_layers=3, d=8,
                            heads=2, d_ff=16, floor=0.3,
                            annotator_epochs=150, predictor_epochs=300,
                            lr=0.5, per_layer=False):
    """Annotate a toy task with a multi-exit model, then fit and score the
    majority and linear difficulty predictors on held-out instances. The
    seed is read by `errors.rng_seed`. The parameters, defaults included,
    are the `difficulty` flags (`cli.build_parser`)."""
    seed = rng_seed(seed)
    task = make_separable_task(num_train=num_train, num_eval=num_eval,
                               vocab_size=vocab_size, seq_len=seq_len,
                               seed=seed)
    model = random_model(len(task.vocab.tokens), num_layers, d, heads, d_ff,
                         seed=seed)
    annotator = train_annotator(model, task.train_seqs, task.train_labels,
                                epochs=annotator_epochs, lr=lr, seed=seed)
    train_ds = annotate(annotator, task.train_seqs, task.train_labels,
                        tokens=task.token_text(task.train_seqs))
    eval_ds = annotate(annotator, task.eval_seqs, task.eval_labels,
                       tokens=task.token_text(task.eval_seqs))
    train_ds = oversample(train_ds, seed=seed, floor=floor)
    majority = majority_baseline(train_ds)
    linear = linear_b(train_ds, per_layer=per_layer, epochs=predictor_epochs,
                      lr=lr, seed=seed)
    metrics = {"majority": evaluate(majority, eval_ds),
               "linear_b": evaluate(linear, eval_ds)}
    return DifficultyOutcome(train_dataset=train_ds, eval_dataset=eval_ds,
                             metrics=metrics)
