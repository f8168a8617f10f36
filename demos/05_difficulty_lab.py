#!/usr/bin/env python3
"""From 'which layer first gets it right' labels to difficulty predictors.

An instance is annotated with one correctness bit per layer by attaching a
classifier head to every exit of a shared encoder: bit k says whether the
head at layer k already classifies the instance correctly. Easy inputs
light up early, hard ones late or never. The lab then asks whether those
bit patterns are predictable from the input alone:

  - majority: per-layer constant vote, the floor any learner must beat
  - linear_b: shared linear probe over per-layer features with a sigmoid
    per bit

Scoring targets the *negative* class (layer got it wrong), micro-averaged
over all layer slots. When a predictor never emits a negative bit the
metrics are reported as not applicable rather than a misleading zero, and
the training set is oversampled so each layer slot holds at least 30%
negatives before fitting.

Things you can try:

  - raise floor to 0.45 and watch precision move
  - set per_layer=True to give every layer its own probe
"""

import numpy as np

from hashexit import (
    DifficultyDataset,
    DifficultyOutcome,
    evaluate,
    majority_baseline,
    negative_class_metrics,
    run_difficulty_pipeline,
)

outcome = run_difficulty_pipeline(seed=0)
train, eval_ds = outcome.train_dataset, outcome.eval_dataset

L = train.num_layers
print(f"annotated {train.bits.shape[0]} training instances "
      f"(after oversampling) across {L} exit layers")
frac_neg = 1.0 - train.bits.mean(axis=0)
print("negative fraction per layer slot:",
      [f"{f:.3f}" for f in frac_neg])

print("\nfirst five training rows (1 = layer already correct):")
for row_id, bits in zip(train.ids[:5], train.bits[:5]):
    print(f"  {row_id}: {''.join(str(int(b)) for b in bits)}")

print("\nheld-out scores:")
print(outcome.to_text())

# the hand-checkable fixture behind the metric: six layer slots, two
# correctly flagged negatives, one false alarm, one miss -> P = R = 2/3
truth = np.array([[0, 0, 0, 1, 1, 1]])
pred = np.array([[0, 0, 1, 0, 1, 1]])
m = negative_class_metrics(truth, pred)
print(f"worked fixture: precision {m.precision:.4f}, recall {m.recall:.4f}, "
      f"f1 {m.f1:.4f}")

# and the degenerate case: an all-positive training set makes the majority
# vote never predict a negative, so the metrics stop applying
all_pos = DifficultyDataset(bits=np.ones_like(train.bits))
silent = majority_baseline(all_pos)
print("\nmajority trained on all-positive bits, scored on real eval data:")
metrics = {"majority": evaluate(silent, eval_ds),
           "linear_b": outcome.metrics["linear_b"]}
print(DifficultyOutcome(all_pos, eval_ds, metrics).to_text(), end="")
