#!/usr/bin/env python3
"""Why the same hash table must serve training and inference.

Randomly routed exits are harmless as long as they are *consistent*: a
token that exited at layer k during training should exit at layer k when
the model is used. This script trains a small classifier head twice per
seed on a synthetic separable task:

  - cons: one random table shared by both phases
  - incons: two independently seeded tables, one per phase

and prints evaluation accuracy for each arm. Expect the consistent arm to
win on average; the inconsistent one evaluates tokens with hidden states
frozen at depths the head never saw during training.

Things you can try:

  - pass more seeds on the command line (comma separated) and watch the
    mean gap stabilize
  - hand --force-identical to the library call (see run_consistency_ablation)
    to make both arms share one table; the gap collapses to zero, which is
    the control showing the harness itself is fair
"""

import sys

import numpy as np

from hashexit import run_consistency_ablation

seeds = range(10)
if len(sys.argv) > 1:
    seeds = [int(s) for s in sys.argv[1].split(",")]

result = run_consistency_ablation(list(seeds))
print(result.to_text())

gap = np.mean(result.cons_accuracies) - np.mean(result.incons_accuracies)
print(f"\nconsistent beats inconsistent by {gap:+.4f} accuracy on average")
