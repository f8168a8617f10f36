#!/usr/bin/env python3
"""Count exactly how much work token early exiting removes from a layer.

Savings are counted in multiply-accumulates (MACs) per layer, split into
named categories: the query/output projections, attention score and
aggregation rows, both layer norms, and the feed-forward rows of tokens
that no longer need updating. FLOPs are 2x MACs throughout.

Two independent routes have to agree before a number is trusted:

  - a closed-form expression of the saved MACs
  - an op-by-op walk of the reduced layer, subtracted from the full layer

The script checks both on a small worked case (n=4 tokens, m=3 still
active, d=8, 2 heads, d_ff=32 -> 752 MACs saved, 1504 FLOPs), then prices
a whole corpus under a frequency table versus the no-exit baseline.

That is the paper's figure: every layer still projects keys and values
for all n rows. With few active rows the encoder instead folds W_K and
W_V into the queries' side of attention (reassociation), which skips
those projections. The corpus is priced both ways.
"""

from hashexit import (
    CorpusStats,
    ModelDims,
    Vocab,
    build_frequency,
    oracle_count,
    reassociates,
    report,
    saved_macs,
    zipf_corpus,
)

n, m, d, h, d_ff = 4, 3, 8, 2, 32
cost = saved_macs(n, m, d, h, d_ff)
print(f"one layer, {n} tokens of which {m} stay active "
      f"(d={d}, heads={h}, d_ff={d_ff}):")
for name, macs in cost.saved.items():
    print(f"  {name:>12}: {macs:>5} MACs saved")
print(f"  {'total':>12}: {cost.saved_macs:>5} MACs = "
      f"{2 * cost.saved_macs} FLOPs")

full = cost.full_macs  # the whole layer over n tokens, whatever m is
reduced = oracle_count(n, m, d, h, d_ff)
print(f"\ncross-check: full layer {full} MACs, reduced layer {reduced},"
      f" difference {full - reduced}")
assert full - reduced == cost.saved_macs

# m = 0 means the layer is skipped outright, so everything is saved
assert saved_macs(n, 0, d, h, d_ff).saved_macs == full
print("m=0 skips the layer entirely: saved equals the full layer cost")

# one active row among n=4: reassociated attention skips the K/V projections
one = saved_macs(n, 1, d, h, d_ff)
flipped, standard = one.executed_macs, one.full_macs - one.saved_macs
assert reassociates(n, 1, d, h) and not reassociates(n, n, d, h)
print(f"one active row of {n}: paper layer {standard} MACs, "
      f"executed (reassociated) {flipped} MACs")

# now price a corpus: frequency routing vs a table that never exits
corpus = zipf_corpus(vocab_size=300, num_docs=500, seed=11)
vocab = Vocab.from_documents(corpus.documents)
stats = CorpusStats.from_documents(vocab, corpus.documents)
dims = ModelDims(num_layers=6, d=64, heads=4, d_ff=256)

table = build_frequency(vocab, stats, num_buckets=3, num_layers=dims.num_layers)
# the corpus packed as a PackedBatch holds it: every token's id (one flat
# lookup) and exit layer (one table lookup) in a vector each, and each
# document's start row in another; then one report
ids, offsets = vocab.packed_ids(corpus.documents)
rep = report(dims, table.exits(ids), offsets)
print(f"\n{len(corpus.documents)} documents, L={dims.num_layers}, "
      f"d={dims.d}:")
print(f"  baseline FLOPs {rep.baseline_flops:,}")
print(f"  with exits     {rep.total_flops:,}")
print(f"  speedup        {rep.speedup:.4f}x  (paper figure)")
print(f"  executed       {rep.executed_flops:,}")
print(f"  speedup        {rep.executed_speedup:.4f}x  (as the encoder runs)")
print("\nexit layer histogram (tokens per assigned exit):")
for layer, count in sorted(rep.exit_histogram.items()):
    print(f"  layer {layer}: {count}")

print("\nfirst lines of the CSV artifact:")
print("\n".join(rep.to_csv().splitlines()[:4]))
