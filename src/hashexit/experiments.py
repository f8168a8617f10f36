"""Synthetic end-to-end experiments.

Two pipelines: the train/infer hash-consistency ablation (does training
under one token-to-layer assignment and serving under another hurt?), and
the difficulty pipeline (annotate with a multi-exit model, then try to
predict which layers get an instance right). Both run on a small separable
token task so results are deterministic and fast.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, rng_seed
# train_toy is not called here; it stays importable because bench/ wraps it
from .encoder import (_fit_heads, _new_heads, _toy_problem, accuracy,
                      random_model, train_toy)
from .difficulty import (
    _instance_states,
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

    Every arm's features come first (`cls_features`, under its training
    table); then the 2 x seeds heads train as one stack
    (`encoder._fit_heads`), each from the two-class head `train_toy`
    draws from its seed; then each arm is scored under its inference
    table.
    """
    seeds = [rng_seed(seed, "seeds") for seed in seeds]
    if len(seeds) < 2:
        raise ConfigError("ablation needs at least 2 seeds to average over")
    problems, names, arms = [], [], []
    for seed in seeds:
        task = make_separable_task(num_train=num_train, num_eval=num_eval,
                                   vocab_size=vocab_size, seq_len=seq_len,
                                   seed=seed)
        # the task has two classes, whichever its training draw shows
        model = replace(random_model(len(task.vocab.tokens), num_layers, d,
                                     heads, d_ff, seed=seed),
                        head=_new_heads(seed, d, 2))
        cons = build_random(task.vocab, buckets, num_layers, seed=seed)
        incons = (cons, cons) if force_identical else build_random(
            task.vocab, buckets, num_layers, seed=seed, consistent=False)
        for arm, (train_table, infer_table) in (("cons", (cons, cons)),
                                                ("incons", incons)):
            problems.append(_toy_problem(model, task.train_seqs,
                                         task.train_labels, train_table, seed))
            names.append(f"classifier head of seed {seed}, {arm} arm")
            arms.append((model, task, infer_table))
    trained = _fit_heads(*(np.stack(part) for part in zip(*problems)),
                         epochs=epochs, lr=lr, names=names)
    accs = [accuracy(replace(model, head=head), task.eval_seqs,
                     task.eval_labels, infer_table)
            for head, (model, task, infer_table) in zip(trained, arms)]
    return AblationResult(seeds=seeds, cons_accuracies=accs[0::2],
                          incons_accuracies=accs[1::2])


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
    # one walk of the training set's states serves the annotator's
    # training and the training set's annotation
    states = _instance_states(model, task.train_seqs,
                              [1] * len(task.train_seqs))
    annotator = train_annotator(model, task.train_seqs, task.train_labels,
                                epochs=annotator_epochs, lr=lr, seed=seed,
                                states=states)
    train_ds = annotate(annotator, task.train_seqs, task.train_labels,
                        tokens=task.token_text(task.train_seqs), states=states)
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
