"""Exact MACs/FLOPs accounting for the exit-aware encoder layer.

Two independent routes to the same number: closed-form saved-MACs rows
(linear projection, attention, output projection, two layer norms, FFN)
and an oracle, `oracle_count`, that adds up the MACs of the layer's
operations one by one. Tests hold them equal on a dense grid. All counts
are integers; FLOPs are defined as twice the MACs. Softmax exponentials
and divisions are not multiply-accumulates and are never counted; the
per-weight renormalization multiply is.

Those figures price the paper's layer, which projects keys and values
for every visible row. The encoder instead runs a layer whose few active
rows attend over many frozen ones in the reassociated order (see
`reassociates`); `saved_macs(...).executed_macs` prices the layer as it
runs.

Each formula has one copy, `_layer_macs`, linear in a few products of
the counts that hold no dim (`_products`). `saved_macs` checks one
layer's dims and returns its figures as a LayerCost. `report` prices a
whole corpus in one call: it sums those products in int64 over the
(documents x L) matrix of rows each layer still updates, and applies the
dims once per layer in Python ints, so every figure is an exact Python
integer at any dims. It reads the corpus packed, as a PackedBatch holds
it: every row's exit layer in one vector and each document's start row
in another, counted into that matrix with one `np.bincount`. It still
takes a list of ExitSchedules, which it packs with one concatenation,
until ExitSchedule goes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, packed_layout

FLOPS_PER_MAC = 2


def _check_dims(n, m, d, h, d_ff, num_layers=1):
    """The counts n and m, the dims d, h and d_ff and the layer count, as
    Python ints. Anything but an int or a numpy integer (floats, bools) is
    an InputError, as are negative counts and m > n; dims that do not fit
    an encoder are a ConfigError."""
    values = (n, m, d, h, d_ff, num_layers)
    for name, value in zip(("n", "m", "d", "heads", "d_ff", "num_layers"),
                           values):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, not "
                             f"{type(value).__name__}")
    n, m, d, h, d_ff, num_layers = map(int, values)
    if n < 0 or m < 0:
        raise InputError("counts must be non-negative")
    if m > n:
        raise InputError(f"active count m={m} exceeds sequence length n={n}")
    if num_layers <= 0:
        raise ConfigError("layer count must be positive")
    if d <= 0 or h <= 0 or d_ff <= 0:
        raise ConfigError("model dims must be positive")
    if d % h != 0:
        raise ConfigError(f"heads={h} does not divide d={d}")
    return n, m, d, h, d_ff, num_layers


def _products(n, m, flip):
    """Besides n and n², the products of a layer's counts its figures are
    linear in; flip is `reassociates`. On arrays each is at most 512², so
    their int64 sums over fewer than 2**45 documents are exact."""
    return m, m * n, (m == 0) * n, flip * m, flip * m * n, flip * n


def _layer_macs(n, nn, products, d, h, d_ff):
    """Saved MACs by category, full MACs and executed MACs of a layer with
    n visible rows (nn = n²), m of them active, from its `_products`; or,
    from their sums, of many layers at once."""
    m, mn, zero_n, flip_m, flip_mn, flip_n = products
    gap = n - m
    saved = {
        # m == 0 skips the layer, key/value projections too (saved_macs)
        "linear_proj": (gap + 2 * zero_n) * d * d,
        "attn": 2 * (nn - mn) * (h + d),
        "out_proj": gap * d * d,
        "layer_norms": 2 * (2 * gap * d),
        "ffn": 2 * gap * d * d_ff,
    }
    full = 4 * n * d * d + 2 * nn * (d + h) + 4 * n * d + 2 * n * d * d_ff
    keys = (2 * (flip_m + n - flip_n) * d * d
            + 2 * (h * flip_mn + mn - flip_mn) * d)
    # queries, output projection, scale and softmax multiplies, two layer
    # norms, FFN; every term, keys included, is 0 when m == 0
    executed = (keys + 2 * m * d * d + 2 * h * mn + 4 * m * d
                + 2 * m * d * d_ff)
    return saved, full, executed


@dataclass(frozen=True)
class LayerCost:
    """The closed form of one layer with n positions, m of them still
    active: saved MACs by category, the MACs of the full layer, and the
    MACs the encoder executes (`reassociates`)."""

    saved: dict
    full_macs: int
    executed_macs: int

    @property
    def saved_macs(self):
        return sum(self.saved.values())


def saved_macs(n, m, d, h, d_ff):
    """The closed form of one layer: saved MACs split by category, full
    MACs and executed MACs.

    With m == 0 the layer is skipped outright, so the key/value projections
    (which the row formulas keep, since someone normally still attends to
    them) are saved too and the total equals the full layer. Executed MACs
    are full - saved in the standard order, less the K/V projections the
    reassociated order skips.
    """
    n, m, d, h, d_ff, _ = _check_dims(n, m, d, h, d_ff)
    products = _products(n, m, reassociates(n, m, d, h))
    return LayerCost(*_layer_macs(n, n * n, products, d, h, d_ff))


def _fewest_standard(n, d, h):
    """The fewest active rows of n that keep the standard association,
    ⌈n·d / (d + (h−1)·n)⌉."""
    return -(-n * d // (d + (h - 1) * n))


def reassociates(n, m, d, h):
    """Whether a layer with n visible rows, m of them active, attends in
    the reassociated order.

    Q, K and V carry no biases, so per head scores_h = (q_h·W_K,hᵀ)·Hᵀ
    and ctx_h = (P_h·H)·W_V,h, where H holds the n visible rows. That
    costs 2·m·d² + 2·h·m·n·d MACs in place of the 2·n·d² + 2·m·n·d of
    projecting K and V, so it wins exactly when m·(d + (h−1)·n) < n·d,
    that is below `_fewest_standard` rows. False whenever m == n. Works
    elementwise on integer arrays too.
    """
    return m < _fewest_standard(n, d, h)


def oracle_count(n, m, d, h, d_ff):
    """MACs of the exit-aware layer in the standard order, counted op by op.

    Walks the paper's layer: queries for the m active rows,
    keys/values over all n visible rows, per-head attention, projection,
    two layer norms and the FFN on active rows only. Residual additions,
    exponentials and divisions are free.
    """
    n, m, d, h, d_ff, _ = _check_dims(n, m, d, h, d_ff)
    if m == 0:
        return 0
    d_k = d // h
    macs = m * d * d                # queries, active rows only
    macs += n * d * d               # keys over every visible row
    macs += n * d * d               # values
    for _ in range(h):
        macs += m * d_k * n         # attention scores
        macs += m * n               # scale by 1/sqrt(d_k)
        macs += m * n               # softmax renormalization multiplies
        macs += m * n * d_k         # weighted value aggregation
    macs += m * d * d               # output projection
    macs += 2 * m * d               # layer norm: times 1/std and the gain
    macs += m * d * d_ff            # FFN in
    macs += m * d_ff * d            # FFN out
    macs += 2 * m * d               # layer norm
    return macs


@dataclass(frozen=True)
class ModelDims:
    num_layers: int
    d: int
    heads: int
    d_ff: int

    def __post_init__(self):
        # held as Python ints, so report's per-layer arithmetic is exact
        checked = _check_dims(0, 0, self.d, self.heads, self.d_ff,
                              self.num_layers)
        for name, value in zip(("d", "heads", "d_ff", "num_layers"),
                               checked[2:]):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LayerTotals:
    layer: int
    n_sum: int
    m_sum: int
    saved_macs: int
    full_macs: int


@dataclass(frozen=True)
class FlopsReport:
    """A corpus priced under one set of model dims (`report`): per-layer
    totals, the exit histogram, and FLOPs routed, with no exits (the
    baseline) and as the encoder executes them."""

    dims: ModelDims
    rows: tuple
    exit_histogram: dict
    total_flops: int
    baseline_flops: int
    executed_flops: int

    @property
    def speedup(self):
        return self.baseline_flops / self.total_flops

    @property
    def executed_speedup(self):
        return self.baseline_flops / self.executed_flops

    def to_csv(self):
        lines = ["layer,n_sum,m_sum,saved_macs,full_macs"]
        for r in self.rows:
            lines.append(f"{r.layer},{r.n_sum},{r.m_sum},{r.saved_macs},{r.full_macs}")
        return "\n".join(lines) + "\n"

    def to_text(self):
        lines = [
            "FLOPs report (encoder layers only; embedding and classifier "
            "head costs are excluded)",
            f"dims: L={self.dims.num_layers} d={self.dims.d} "
            f"h={self.dims.heads} d_ff={self.dims.d_ff}",
            "layer  n_sum  m_sum  saved_macs  full_macs",
        ]
        for r in self.rows:
            lines.append(f"{r.layer:>5}  {r.n_sum:>5}  {r.m_sum:>5}  "
                         f"{r.saved_macs:>10}  {r.full_macs:>9}")
        hist = " ".join(f"{k}:{v}" for k, v in sorted(self.exit_histogram.items()))
        lines.append(f"exit-layer histogram: {hist}")
        lines.append(f"total FLOPs: {self.total_flops}")
        lines.append(f"baseline FLOPs: {self.baseline_flops}")
        lines.append(f"speedup: {self.speedup:.4f}")
        lines.append(f"executed FLOPs: {self.executed_flops}")
        lines.append(f"executed speedup: {self.executed_speedup:.4f}")
        return "\n".join(lines) + "\n"


def report(dims, exits, offsets=None):
    """Aggregate exit-aware cost over a packed corpus.

    `exits` holds every row's exit layer, 1..L, and `offsets` each
    document's start row followed by the row count, as in a PackedBatch:
    document i is rows offsets[i]:offsets[i + 1], and may be empty. Both
    are checked as `forward` checks them (`errors.packed_layout`), and no
    documents is an InputError. A list of ExitSchedules in place of
    `exits`, with no offsets, is packed here first; that form goes with
    ExitSchedule.

    The baseline is the same corpus pushed through the same model with no
    exits, so speedup isolates what the exit schedule buys. total_flops is
    the paper's figure; executed_flops prices the layers as the encoder
    runs them.

    Every figure is `_layer_macs` of the per-layer int64 sums of the
    `_products` of a (documents x L) matrix of active row counts, built
    from all exits at once, with one association bound per length.
    """
    if offsets is None:
        schedules = list(exits)
        exits = np.concatenate([np.zeros(0, dtype=np.int64)]
                               + [sched.exit_layer for sched in schedules])
        offsets = np.cumsum([0] + [sched.valid_count for sched in schedules])
    L, d, h, d_ff = dims.num_layers, dims.d, dims.heads, dims.d_ff
    exits, _, lengths = packed_layout(exits, offsets, L)
    if lengths.size == 0:
        raise InputError("no schedules to account for")
    doc = np.repeat(np.arange(lengths.size), lengths)
    counts = np.bincount(doc * L + exits - 1, minlength=lengths.size * L)
    counts = counts.reshape(-1, L)
    # rows exiting at layer t or above are the rows layer t updates
    m = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
    sizes, which = np.unique(lengths, return_inverse=True)
    fewest = np.array([_fewest_standard(n, d, h) for n in sizes.tolist()])
    flip = m < fewest[which, None]
    # summed one at a time: a stacked copy fragments the heap (peak RSS)
    sums = list(zip(*(p.sum(axis=0).tolist()
                      for p in _products(lengths[:, None], m, flip))))
    n_sum, nn_sum = int(lengths.sum()), int((lengths * lengths).sum())
    saved, full, executed = zip(*(_layer_macs(n_sum, nn_sum, layer, d, h, d_ff)
                                  for layer in sums))
    saved_sums, full_sum = [sum(layer.values()) for layer in saved], full[0]
    total_macs = L * full_sum - sum(saved_sums)
    if total_macs == 0:
        raise InputError("corpus contains no computation to account for")
    rows = tuple(LayerTotals(t + 1, n_sum, sums[t][0], saved_sums[t], full_sum)
                 for t in range(L))  # sums[t][0] sums m
    histogram = counts.sum(axis=0).tolist()
    return FlopsReport(dims=dims, rows=rows,
                       exit_histogram={t: c for t, c in
                                       enumerate(histogram, start=1) if c},
                       total_flops=FLOPS_PER_MAC * total_macs,
                       baseline_flops=FLOPS_PER_MAC * L * full_sum,
                       executed_flops=FLOPS_PER_MAC * sum(executed))
