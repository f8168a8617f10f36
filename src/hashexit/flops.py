"""Exact MACs/FLOPs accounting for the exit-aware encoder layer.

Two independent routes to the same number: closed-form saved-MACs rows
(linear projection, attention, output projection, two layer norms, FFN)
and an oracle that walks the layer's computation graph operation by
operation. Tests hold them equal on a dense grid. All counts are integers;
FLOPs are defined as twice the MACs. Softmax exponentials and divisions
are not multiply-accumulates and are never counted; the per-weight
renormalization multiply is.

Those figures price the paper's layer, which projects keys and values
for every visible row. The encoder instead runs a layer whose few active
rows attend over many frozen ones in the reassociated order (see
`reassociates`); `executed_layer_macs` prices the layer as it runs.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

FLOPS_PER_MAC = 2

CATEGORIES = ("linear_proj", "attn", "out_proj", "layer_norms", "ffn")


def _check_dims(n, m, d, h, d_ff):
    if n < 0 or m < 0:
        raise InputError("counts must be non-negative")
    if m > n:
        raise InputError(f"active count m={m} exceeds sequence length n={n}")
    if d <= 0 or h <= 0 or d_ff <= 0:
        raise ConfigError("model dims must be positive")
    if d % h != 0:
        raise ConfigError(f"heads={h} does not divide d={d}")


def full_layer_macs(n, d, h, d_ff):
    """MACs of one full encoder layer over n positions (no exits)."""
    _check_dims(n, n, d, h, d_ff)
    return 4 * n * d * d + 2 * n * n * (d + h) + 4 * n * d + 2 * n * d * d_ff


@dataclass(frozen=True)
class LayerCost:
    """Saved MACs of one layer with n positions, m of them still active."""

    n: int
    m: int
    d: int
    h: int
    d_ff: int
    saved: dict
    full_macs: int

    @property
    def saved_macs(self):
        return sum(self.saved.values())


def saved_macs(n, m, d, h, d_ff):
    """Closed-form saved MACs, split by category.

    With m == 0 the layer is skipped outright, so the key/value projections
    (which the row formulas keep, since someone normally still attends to
    them) are saved too and the total equals the full layer.
    """
    _check_dims(n, m, d, h, d_ff)
    gap = n - m
    saved = {
        "linear_proj": gap * d * d,
        "attn": 2 * n * gap * (h + d),
        "out_proj": gap * d * d,
        "layer_norms": 2 * (2 * gap * d),
        "ffn": 2 * gap * d * d_ff,
    }
    if m == 0:
        saved["linear_proj"] += 2 * n * d * d
    return LayerCost(n=n, m=m, d=d, h=h, d_ff=d_ff, saved=saved,
                     full_macs=full_layer_macs(n, d, h, d_ff))


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


def _executed_macs(n, m, d, h, d_ff):
    if m == 0:
        return 0
    if reassociates(n, m, d, h):
        keys = 2 * m * d * d + 2 * h * m * n * d
    else:
        keys = 2 * n * d * d + 2 * m * n * d
    # queries, output projection, scale and softmax multiplies, two layer
    # norms, FFN
    return keys + 2 * m * d * d + 2 * h * m * n + 4 * m * d + 2 * m * d * d_ff


def executed_layer_macs(n, m, d, h, d_ff):
    """MACs the encoder executes for one layer with n visible rows, m of
    them active: full - saved in the standard order, less the K/V
    projections the reassociated order skips (`reassociates`)."""
    _check_dims(n, m, d, h, d_ff)
    return _executed_macs(n, m, d, h, d_ff)


class _MacCounter:
    """Tallies multiply-accumulates as the layer walk announces each op."""

    def __init__(self):
        self.total = 0

    def matmul(self, rows, inner, cols):
        self.total += rows * inner * cols

    def elementwise_mul(self, count):
        self.total += count

    def layer_norm(self, rows, cols):
        # per element: one multiply by 1/std, one by the gain
        self.total += 2 * rows * cols


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
    c = _MacCounter()
    d_k = d // h
    c.matmul(m, d, d)            # queries, active rows only
    c.matmul(n, d, d)            # keys over every visible row
    c.matmul(n, d, d)            # values
    for _ in range(h):
        c.matmul(m, d_k, n)      # attention scores
        c.elementwise_mul(m * n)  # scale by 1/sqrt(d_k)
        c.elementwise_mul(m * n)  # softmax renormalization multiplies
        c.matmul(m, n, d_k)      # weighted value aggregation
    c.matmul(m, d, d)            # output projection
    c.layer_norm(m, d)
    c.matmul(m, d, d_ff)         # FFN in
    c.matmul(m, d_ff, d)         # FFN out
    c.layer_norm(m, d)
    return c.total


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
    dims: ModelDims
    baseline_dims: ModelDims
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
            f"baseline dims: L={self.baseline_dims.num_layers} "
            f"d={self.baseline_dims.d} h={self.baseline_dims.heads} "
            f"d_ff={self.baseline_dims.d_ff}",
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


def report(dims, schedules, baseline_dims=None):
    """Aggregate exit-aware cost over a corpus of schedules.

    The baseline is the same corpus pushed through a no-exit model of
    baseline_dims (defaults to dims), so speedup isolates what the exit
    schedule and depth change buy. total_flops is the paper's figure;
    executed_flops prices the layers as the encoder runs them.
    """
    if baseline_dims is None:
        baseline_dims = dims
    schedules = list(schedules)
    if not schedules:
        raise InputError("no schedules to account for")
    L = dims.num_layers
    n_sums = [0] * L
    m_sums = [0] * L
    saved_sums = [0] * L
    full_sums = [0] * L
    histogram = Counter()
    baseline_macs = 0
    executed_macs = 0
    for sched in schedules:
        n = sched.valid_count
        counts = np.bincount(sched.exit_layer[sched.attn_mask], minlength=L + 1)
        histogram.update({layer: c for layer, c in enumerate(counts.tolist()) if c})
        # rows exited before layer t; the rest are active at t
        exited = np.cumsum(counts[:L]).tolist()
        baseline_macs += baseline_dims.num_layers * full_layer_macs(
            n, baseline_dims.d, baseline_dims.heads, baseline_dims.d_ff)
        for t in range(1, L + 1):
            m = n - exited[t - 1]
            cost = saved_macs(n, m, dims.d, dims.heads, dims.d_ff)
            n_sums[t - 1] += n
            m_sums[t - 1] += m
            saved_sums[t - 1] += cost.saved_macs
            full_sums[t - 1] += cost.full_macs
            executed_macs += _executed_macs(n, m, dims.d, dims.heads, dims.d_ff)
    total_macs = sum(full_sums) - sum(saved_sums)
    if total_macs == 0:
        raise InputError("corpus contains no computation to account for")
    rows = tuple(LayerTotals(t + 1, n_sums[t], m_sums[t],
                             saved_sums[t], full_sums[t]) for t in range(L))
    return FlopsReport(dims=dims, baseline_dims=baseline_dims, rows=rows,
                       exit_histogram=dict(histogram),
                       total_flops=FLOPS_PER_MAC * total_macs,
                       baseline_flops=FLOPS_PER_MAC * baseline_macs,
                       executed_flops=FLOPS_PER_MAC * executed_macs)
