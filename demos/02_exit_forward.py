#!/usr/bin/env python3
"""Walk one sequence through an encoder whose tokens exit at fixed layers.

The exit layers come from a hash table: each token's bucket decides the
last layer that updates it. `route` looks them up for a whole packed
corpus; one sequence is a corpus of one. After its exit layer a token's
hidden row is frozen -- later layers copy it bit for bit -- but the frozen
row still participates as a key and value, so surviving tokens keep
attending to it.

Things worth noticing in the output:

  - the active set shrinks layer by layer and the per-layer (n, m) pairs
    feed the savings accounting directly
  - rows frozen at layer k compare bit-equal across all later layers
  - with a table that sends every bucket to the last layer, the routed
    forward reproduces the no-exit forward exactly
  - route gives documents packed into one flat batch (every row's id and
    exit layer, and each document's start row) with one table lookup;
    forward runs it and gives the same states as one-by-one runs; batches
    cuts a packed corpus into such batches, shortest documents first, each
    within a row budget, and each layer runs a batch in groups of
    documents sized to that layer's own work
"""

import numpy as np

from hashexit import (HashTable, PackedBatch, batches, forward, random_model,
                      route)
from hashexit.encoder import BATCH_FLOATS, pack

L, d, heads, d_ff = 4, 8, 2, 16
model = random_model(vocab_size=10, num_layers=L, d=d, heads=heads,
                     d_ff=d_ff, seed=3)

table = HashTable(
    method="rand-cons", num_buckets=4, num_layers=L, seed=0,
    tokens=("a", "b", "c", "d", "e", "f"),
    buckets=np.array([0, 1, 2, 3, 1, 2]),
)
print("token -> exit layer:",
      dict(zip(table.tokens, table.layers.tolist())))

token_ids = np.array([3, 0, 5, 1, 2])  # d a f b c
# one document: its ids and the offsets [0, n]; position 0 pinned to the
# top layer
one = route(token_ids, [0, token_ids.size], table, L)
print("\nsequence ids", token_ids.tolist(),
      "exit layers", one.exits.tolist())
for layer in range(1, L + 1):
    active = np.flatnonzero(one.exits >= layer)
    print(f"  layer {layer}: active positions {active.tolist()}")
print("\nper-layer (n, m) =",
      [(one.ids.size, np.flatnonzero(one.exits >= t).size)
       for t in range(1, L + 1)])

# position 0 (token d) exits at layer 4, position 1 (token a) at layer 1
states = list(forward(model, one, traces=True))  # H^0..H^L, H^0 the embedding
frozen_after_1 = states[1][1]
for layer in range(2, L + 1):
    assert np.array_equal(states[layer][1], frozen_after_1)
print("position 1 froze after layer 1; layers 2..4 carry exact copies")

# a table whose every bucket maps to the last layer never exits early,
# so it reproduces the plain encoder
late = HashTable(method="rand-cons", num_buckets=L, num_layers=L, seed=0,
                 tokens=table.tokens,
                 buckets=np.full(len(table.tokens), L - 1, dtype=np.int64))
late_final = forward(model, route(token_ids, [0, token_ids.size], late, L))
diff = np.abs(late_final - states[L]).max()
print(f"\nall-last-layer table vs early-exit run differ by {diff:.3f} "
      "(they should differ; tokens stopped updating early)")

# the same document with every row running to layer L, no table needed
no_exit = PackedBatch(token_ids, np.full(token_ids.size, L),
                      [0, token_ids.size])
print("no-exit forward vs all-last-layer table:",
      "bit-identical" if np.array_equal(forward(model, no_exit), late_final)
      else "MISMATCH")

# pack gives documents as one flat id vector and each document's start
# row, and route adds every row's exit layer (each document's position 0
# pinned to the top layer). forward runs the batch with one matmul per
# projection over the active rows of all of them, attention stays inside
# each document, and the packed final states match one-by-one forwards
docs = [token_ids, np.array([0, 1]), np.array([5, 4, 3, 2, 1, 0, 2])]
batch = route(*pack(docs), table, L)
print("\npacked exits", batch.exits.tolist(), "offsets", batch.offsets.tolist())
packed = forward(model, batch)
starts = batch.offsets
gap = max(np.abs(packed[a:b]
                 - forward(model, route(ids, [0, ids.size], table, L))).max()
          for a, b, ids in zip(starts, starts[1:], docs))
print(f"packed batch of {len(batch)} docs vs one-by-one: max |diff| {gap:.1e}")

# batches cuts a packed corpus (here with no exits: every row runs to the
# top layer) into packed batches, shortest documents first, gathering each
# batch's rows. Its row budget bounds a batch's states (rows x d), so it
# shrinks as d grows. Each layer then updates the states in place, one
# group of documents at a time: a group's temporaries stay within
# BATCH_FLOATS, so a dense layer takes a few documents per group and a
# layer with one active row per document takes many
lengths = np.random.default_rng(0).integers(5, 500, size=40)
ids, offsets = pack([np.zeros(n, dtype=np.int64) for n in lengths])
corpus = PackedBatch(ids, np.ones(ids.size, dtype=np.int64), offsets)
for dims in ((256, 4, 1024), (768, 12, 3072)):
    rows = [len(packed.ids) for _, packed in
            batches(random_model(8, 1, *dims), corpus)]
    print(f"d={dims[0]}, d_ff={dims[2]}: {len(corpus)} docs, {sum(rows)} rows "
          f"-> {len(rows)} batches, the largest of {max(rows)} rows; a dense "
          f"layer runs groups of <= {BATCH_FLOATS // max(dims[0], dims[2])} rows")
