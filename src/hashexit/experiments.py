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
# train_toy and accuracy are not called here; they stay importable
# because bench/ wraps them
from .encoder import (_evaluation_labels, _fit_heads, _hits, _new_heads,
                      _training_labels, accuracy, cls_features, random_model,
                      train_toy)
from .difficulty import (
    annotate,
    evaluate,
    instance_states,
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
            pool = pools[lab]
            # the draw `rng.choice(pool, size=...)` makes, without its checks
            body = pool[rng.integers(0, pool.size, size=seq_len - 1)]
            seqs.append([0, *body.tolist()])
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

    Per seed, one walk (`encoder.cls_features`) gives every arm's
    features: the training docs under the cons table and under incons'
    training table, the evaluation docs under cons and under incons'
    inference table. Then the 2 x seeds heads train as one stack
    (`encoder._fit_heads`), each from the two-class head `train_toy`
    draws from its seed, and every arm is scored on its evaluation
    features in one call (`encoder._hits`), as `accuracy` scores them.
    """
    seeds = [rng_seed(seed, "seeds") for seed in seeds]
    if len(seeds) < 2:
        raise ConfigError("ablation needs at least 2 seeds to average over")
    inits, feats, labels, names, evals, golds = [], [], [], [], [], []
    for seed in seeds:
        task = make_separable_task(num_train=num_train, num_eval=num_eval,
                                   vocab_size=vocab_size, seq_len=seq_len,
                                   seed=seed)
        # the task has two classes, whichever its training draw shows
        model = replace(random_model(len(task.vocab.tokens), num_layers, d,
                                     heads, d_ff, seed=seed),
                        head=_new_heads(seed, d, 2))
        train = _training_labels(model, task.train_seqs, task.train_labels)
        gold = _evaluation_labels(model, task.eval_seqs, task.eval_labels)
        cons = build_random(task.vocab, buckets, num_layers, seed=seed)
        train_incons, infer_incons = (cons, cons) if force_identical else \
            build_random(task.vocab, buckets, num_layers, seed=seed,
                         consistent=False)
        n = len(task.train_seqs)
        parts = np.split(cls_features(model, [
            (task.train_seqs, cons), (task.train_seqs, train_incons),
            (task.eval_seqs, cons), (task.eval_seqs, infer_incons)]),
            [n, 2 * n, 2 * n + len(task.eval_seqs)])
        for arm, train_feats, eval_feats in (("cons", *parts[0::2]),
                                             ("incons", *parts[1::2])):
            inits.append(model.head)
            feats.append(train_feats)
            labels.append(train)
            names.append(f"classifier head of seed {seed}, {arm} arm")
            evals.append(eval_feats)
            golds.append(gold)
    trained = _fit_heads(np.stack(inits), np.stack(feats), np.stack(labels),
                         epochs=epochs, lr=lr, names=names)
    hits = _hits(np.stack(evals), trained, np.stack(golds))
    accs = hits.mean(axis=1).tolist()
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
    are the `difficulty` flags (`cli.build_parser`).

    The training and evaluation sets walk the model once, together
    (`difficulty.instance_states`); the training states serve the
    annotator's training and the training set's annotation, and the
    evaluation states that set's annotation."""
    seed = rng_seed(seed)
    task = make_separable_task(num_train=num_train, num_eval=num_eval,
                               vocab_size=vocab_size, seq_len=seq_len,
                               seed=seed)
    model = random_model(len(task.vocab.tokens), num_layers, d, heads, d_ff,
                         seed=seed)
    train_states, eval_states = np.split(
        instance_states(model, task.train_seqs + task.eval_seqs),
        [len(task.train_seqs)])
    heads = train_annotator(train_states, task.train_labels,
                            epochs=annotator_epochs, lr=lr, seed=seed)
    train_ds = annotate(heads, task.train_seqs, task.train_labels,
                        train_states, tokens=task.token_text(task.train_seqs))
    eval_ds = annotate(heads, task.eval_seqs, task.eval_labels, eval_states,
                       tokens=task.token_text(task.eval_seqs))
    train_ds = oversample(train_ds, seed=seed, floor=floor)
    majority = majority_baseline(train_ds)
    linear = linear_b(train_ds, per_layer=per_layer, epochs=predictor_epochs,
                      lr=lr, seed=seed)
    metrics = {"majority": evaluate(majority, eval_ds),
               "linear_b": evaluate(linear, eval_ds)}
    return DifficultyOutcome(train_dataset=train_ds, eval_dataset=eval_ds,
                             metrics=metrics)
