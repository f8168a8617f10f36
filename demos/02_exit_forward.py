#!/usr/bin/env python3
"""Walk one sequence through an encoder whose tokens exit at fixed layers.

The schedule comes from a hash table: each token's bucket decides the last
layer that updates it. After that layer the token's hidden row is frozen --
later layers copy it bit for bit -- but the frozen row still participates
as a key and value, so surviving tokens keep attending to it.

Things worth noticing in the output:

  - the active set shrinks layer by layer and the per-layer (n, m) pairs
    feed the savings accounting directly
  - rows frozen at layer k compare bit-equal across all later layers
  - with a table that sends every bucket to the last layer, the traced
    forward reproduces the no-exit forward exactly
  - forward on lists of documents and schedules runs them as one packed
    batch and gives the same states as one-by-one runs; a corpus is cut
    into batches of at most batch_rows(model) rows
"""

import numpy as np

from hashexit import HashTable, forward, random_model, row_batches, schedule
from hashexit.encoder import batch_rows

L, d, heads, d_ff = 4, 8, 2, 16
model = random_model(vocab_size=10, num_layers=L, d=d, heads=heads,
                     d_ff=d_ff, seed=3)

table = HashTable(
    method="rand-cons", num_buckets=4, num_layers=L, seed=0,
    tokens=("a", "b", "c", "d", "e", "f"),
    buckets=np.array([0, 1, 2, 3, 1, 2]),
)
print("token -> exit layer:",
      {t: table.layer_for(t) for t in table.tokens})

token_ids = np.array([3, 0, 5, 1, 2])  # d a f b c
sched = schedule(token_ids, table)
print("\nsequence ids", token_ids.tolist(),
      "exit layers", sched.exit_layer.tolist())
for layer in range(1, L + 1):
    active = sched.active_at(layer)
    print(f"  layer {layer}: active positions {active.tolist()}")

trace = forward(model, token_ids, sched)
print("\nper-layer (n, m) =",
      [(sched.valid_count, sched.active_at(t).size) for t in range(1, L + 1)])

# position 0 (token d) exits at layer 4, position 1 (token a) at layer 1
states = trace.hidden  # (L+1, n, d) stack, entry 0 is the embedding
frozen_after_1 = states[1][1]
for layer in range(2, L + 1):
    assert np.array_equal(states[layer][1], frozen_after_1)
print("position 1 froze after layer 1; layers 2..4 carry exact copies")

# a table whose every bucket maps to the last layer never exits early,
# so it reproduces the plain encoder
late = HashTable(method="rand-cons", num_buckets=L, num_layers=L, seed=0,
                 tokens=table.tokens,
                 buckets=np.full(len(table.tokens), L - 1, dtype=np.int64))
late_sched = schedule(token_ids, late)
late_trace = forward(model, token_ids, late_sched)
diff = np.abs(late_trace.final - states[L]).max()
print(f"\nall-last-layer table vs early-exit run differ by {diff:.3f} "
      "(they should differ; tokens stopped updating early)")

no_exit = forward(model, token_ids, late_sched)
print("no-exit forward repeated:",
      "bit-identical" if np.array_equal(no_exit.final, late_trace.final)
      else "MISMATCH")

# forward given lists runs the documents as one packed batch: each layer
# runs one matmul per projection over the active rows of all of them,
# attention stays inside each document, and the final states match
# one-by-one forwards
docs = [token_ids, np.array([0, 1]), np.array([5, 4, 3, 2, 1, 0, 2])]
scheds = [schedule(ids, table, pin_first=True) for ids in docs]
packed = forward(model, docs, scheds)
gap = max(np.abs(p - forward(model, ids, s).final).max()
          for p, ids, s in zip(packed, docs, scheds))
print(f"\npacked batch of {len(docs)} docs vs one-by-one: max |diff| {gap:.1e}")

# a corpus is walked in batches of at most batch_rows(model) rows, shortest
# first; the budget shrinks as the model's widest layer grows
lengths = [int(n) for n in np.random.default_rng(0).integers(5, 500, size=40)]
for dims in ((256, 4, 1024), (768, 12, 3072)):
    budget = batch_rows(random_model(8, 1, *dims))
    batches = row_batches(lengths, budget)
    print(f"d={dims[0]}, d_ff={dims[2]}: {len(lengths)} docs, {sum(lengths)} "
          f"rows -> {len(batches)} batches of <= {budget} rows")
