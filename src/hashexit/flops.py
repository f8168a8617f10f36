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

Each formula has one copy, `_layer_macs`, which takes ints or integer
arrays. `saved_macs` checks one layer's dims and returns its figures as a
LayerCost. `report` prices a whole corpus with it in one call over the
(documents x L) matrix of rows each layer still updates. That matrix is
int64 when one exact bound on the longest document (`_fits_int64`) shows
that no figure, and no sum of them, can leave int64, and an object array
of Python ints otherwise, so every figure is an exact Python integer at
any dims. It reads the corpus packed, as a PackedBatch holds it: every
row's exit layer in one vector and each document's start row in another,
counted into that matrix with one `np.bincount`. It still takes a list
of ExitSchedules, which it packs with one concatenation, until
ExitSchedule goes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, packed_layout

FLOPS_PER_MAC = 2


def _check_dims(n, m, d, h, d_ff):
    if n < 0 or m < 0:
        raise InputError("counts must be non-negative")
    if m > n:
        raise InputError(f"active count m={m} exceeds sequence length n={n}")
    if d <= 0 or h <= 0 or d_ff <= 0:
        raise ConfigError("model dims must be positive")
    if d % h != 0:
        raise ConfigError(f"heads={h} does not divide d={d}")


def _layer_macs(n, m, d, h, d_ff):
    """Saved MACs by category, full MACs and executed MACs of a layer with
    n visible rows, m of them active.

    n and m are ints, or integer arrays that broadcast together, for many
    layers at once. Masks multiply rather than select, so on ints and
    object arrays every figure is an exact Python integer at any dims; on
    int64 arrays it is exact where `_fits_int64` holds.
    """
    gap = n - m
    saved = {
        # m == 0 skips the layer, key/value projections too (saved_macs)
        "linear_proj": gap * d * d + (m == 0) * (2 * n * d * d),
        "attn": 2 * n * gap * (h + d),
        "out_proj": gap * d * d,
        "layer_norms": 2 * (2 * gap * d),
        "ffn": 2 * gap * d * d_ff,
    }
    full = 4 * n * d * d + 2 * n * n * (d + h) + 4 * n * d + 2 * n * d * d_ff
    flip = reassociates(n, m, d, h)
    keys = (flip * (2 * m * d * d + 2 * h * m * n * d)
            + (1 - flip) * (2 * n * d * d + 2 * m * n * d))
    # queries, output projection, scale and softmax multiplies, two layer
    # norms, FFN; every term, keys included, is 0 when m == 0
    executed = (keys + 2 * m * d * d + 2 * h * m * n + 4 * m * d
                + 2 * m * d * d_ff)
    return saved, full, executed


def _fits_int64(rows, cells, d, h, d_ff):
    """Whether int64 holds every figure `_layer_macs` forms on `cells`
    layers of at most `rows` rows, and every sum of them.

    With n, m and n - m at most `rows`, no figure exceeds both key
    branches plus the rest of the executed MACs, each term at `rows`:
    2·rows·(3d² + (h+1)·rows·d + h·rows + 2d + d·d_ff). That bound covers
    the flip test, the saved MACs and the full layer too, and `cells`
    times it covers any sum. All in Python ints, so it is exact.
    """
    cell = 2 * rows * (3 * d * d + (h + 1) * rows * d + h * rows + 2 * d
                       + d * d_ff)
    return cells * cell < 2**63


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
    _check_dims(n, m, d, h, d_ff)
    return LayerCost(*_layer_macs(n, m, d, h, d_ff))


def reassociates(n, m, d, h):
    """Whether a layer with n visible rows, m of them active, attends in
    the reassociated order.

    Q, K and V carry no biases, so per head scores_h = (q_h·W_K,hᵀ)·Hᵀ
    and ctx_h = (P_h·H)·W_V,h, where H holds the n visible rows. That
    costs 2·m·d² + 2·h·m·n·d MACs in place of the 2·n·d² + 2·m·n·d of
    projecting K and V, so it wins exactly when m·(d + (h−1)·n) < n·d.
    False whenever m == n. Works elementwise on integer arrays too.
    """
    return m * (d + (h - 1) * n) < n * d


def oracle_count(n, m, d, h, d_ff):
    """MACs of the exit-aware layer in the standard order, counted op by op.

    Walks the paper's layer: queries for the m active rows,
    keys/values over all n visible rows, per-head attention, projection,
    two layer norms and the FFN on active rows only. Residual additions,
    exponentials and divisions are free.
    """
    _check_dims(n, m, d, h, d_ff)
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
        if self.num_layers <= 0:
            raise ConfigError("layer count must be positive")
        _check_dims(0, 0, self.d, self.heads, self.d_ff)


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

    Every figure is the closed form of one layer summed over a (documents
    x L) matrix of active row counts, built from all exits at once, in
    int64 where `_fits_int64` holds and in Python ints otherwise.
    """
    if offsets is None:
        schedules = list(exits)
        exits = np.concatenate([np.zeros(0, dtype=np.int64)]
                               + [sched.exit_layer for sched in schedules])
        offsets = np.cumsum([0] + [sched.valid_count for sched in schedules])
    L = dims.num_layers
    exits, _, lengths = packed_layout(exits, offsets, L)
    if lengths.size == 0:
        raise InputError("no schedules to account for")
    doc = np.repeat(np.arange(lengths.size), lengths)
    counts = np.bincount(doc * L + exits - 1, minlength=lengths.size * L)
    counts = counts.reshape(-1, L)
    # rows exiting at layer t or above are the rows layer t updates
    m = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1]
    n = lengths[:, None]
    if not _fits_int64(int(lengths.max()), m.size, dims.d, dims.heads,
                       dims.d_ff):
        m, n = m.astype(object), n.astype(object)
    saved, full, executed = _layer_macs(n, m, dims.d, dims.heads, dims.d_ff)
    saved_sums = sum(saved.values()).sum(axis=0).tolist()
    n_sum, full_sum = int(n.sum()), int(full.sum())
    total_macs = L * full_sum - sum(saved_sums)
    if total_macs == 0:
        raise InputError("corpus contains no computation to account for")
    m_sums = m.sum(axis=0).tolist()
    rows = tuple(LayerTotals(t + 1, n_sum, m_sums[t], saved_sums[t], full_sum)
                 for t in range(L))
    histogram = counts.sum(axis=0).tolist()
    return FlopsReport(dims=dims, rows=rows,
                       exit_histogram={t: c for t, c in
                                       enumerate(histogram, start=1) if c},
                       total_flops=FLOPS_PER_MAC * total_macs,
                       baseline_flops=FLOPS_PER_MAC * L * full_sum,
                       executed_flops=FLOPS_PER_MAC * int(executed.sum()))
