#!/usr/bin/env python3
"""Build every kind of token-to-layer hash table on one small corpus.

A table sends each vocabulary token to one of B buckets, and bucket b is
served by layer 1 + floor(L*b/B). What differs between methods is only
*which* tokens land in the early buckets:

  - random: a seeded shuffle (the train/infer-consistent baseline)
  - frequency: common tokens exit earliest
  - mi: tokens that carry the most label information exit earliest
  - clustered: k-means over the vectors of every token an embedding
    table holds, low-norm clusters exit first

Run it a second time and the output is identical; everything is seeded.
"""

import numpy as np

from hashexit import (
    CorpusStats,
    EmbeddingTable,
    Vocab,
    build_clustered,
    build_frequency,
    build_mi,
    build_random,
    bucket_to_layer,
    serialize_hash_table,
)

documents = [
    ["the", "movie", "was", "great"],
    ["the", "movie", "was", "dull"],
    ["great", "acting", "throughout"],
    ["dull", "script", "throughout"],
    ["the", "acting", "was", "great"],
    ["the", "script", "was", "dull"],
]
labels = ["pos", "neg", "pos", "neg", "pos", "neg"]

vocab = Vocab.from_documents(documents)
stats = CorpusStats.from_documents(vocab, documents, labels)
print(f"vocabulary ({len(vocab.tokens)} tokens): {' '.join(vocab.tokens)}")

print("\nthe layer map for L=12, B=3 is",
      [bucket_to_layer(b, 3, 12) for b in range(3)])

B, L = 3, 6
tables = {
    "random": build_random(vocab, B, L, seed=0),
    "frequency": build_frequency(vocab, stats, B, L),
    "mi": build_mi(vocab, stats, B, L),
}

rng = np.random.default_rng(7)
emb = EmbeddingTable(vocab.tokens, rng.normal(size=(len(vocab.tokens), 8)))
tables["clustered"] = build_clustered(emb, B, L, seed=0)

for name, table in tables.items():
    per_token = " ".join(f"{tok}:{layer}"
                         for tok, layer in zip(table.tokens, table.layers))
    print(f"\n{name:>9}: {per_token}")
    print(f"{'':>9}  bucket sizes {[int(s) for s in table.bucket_sizes()]}")

# "dull" and "great" separate the classes perfectly; high-MI tokens are
# routed to the earliest exits, while uninformative ones linger
mi_table = tables["mi"]
dull, great, throughout = mi_table.exits(
    mi_table.vocab.ids_for(["dull", "great", "throughout"]))
print("\nunder mi, label-bearing tokens exit first:",
      f"dull -> {dull},", f"great -> {great},", f"throughout -> {throughout}")

print("\nserialized form of the frequency table:")
print(serialize_hash_table(tables["frequency"]), end="")
