from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hashexit import flops
from hashexit.errors import ConfigError, InputError, ShapeError
from hashexit.encoder import ExitSchedule
from hashexit.flops import (
    FLOPS_PER_MAC,
    ModelDims,
    oracle_count,
    reassociates,
    report,
    saved_macs,
)

# the grid of the acceptance check: n <= 16, m <= n
GRID = [(n, m, d, h, d_ff) for d in (4, 8) for h in (1, 2) for d_ff in (8, 16)
        for n in range(1, 17) for m in range(n + 1)]


def all_last(n, L):
    return ExitSchedule(np.full(n, L), np.ones(n, dtype=bool))


class TestSavedMacs:
    def test_nothing_saved_when_all_active(self):
        cost = saved_macs(7, 7, 8, 2, 16)
        assert cost.saved_macs == 0
        assert all(v == 0 for v in cost.saved.values())

    def test_worked_case(self):
        cost = saved_macs(4, 3, 8, 2, 32)
        assert cost.saved["linear_proj"] == 64
        assert cost.saved["attn"] == 80
        assert cost.saved["out_proj"] == 64
        assert cost.saved["layer_norms"] == 32
        assert cost.saved["ffn"] == 512
        assert cost.saved_macs == 752
        assert FLOPS_PER_MAC * cost.saved_macs == 1504

    def test_empty_active_set_saves_whole_layer(self):
        cost = saved_macs(5, 0, 8, 2, 16)
        assert cost.saved_macs == cost.full_macs

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            m = int(rng.integers(0, n + 1))
            cost = saved_macs(n, m, 8, 2, 16)
            assert 0 <= cost.saved_macs <= cost.full_macs

    def test_strictly_decreasing_in_m(self):
        for d, h, d_ff in ((4, 1, 8), (8, 2, 16)):
            for n in (1, 3, 9):
                totals = [saved_macs(n, m, d, h, d_ff).saved_macs
                          for m in range(n + 1)]
                assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_m_exceeds_n(self):
        with pytest.raises(InputError):
            saved_macs(3, 4, 8, 2, 16)

    def test_negative_m(self):
        with pytest.raises(InputError):
            saved_macs(3, -1, 8, 2, 16)

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            saved_macs(3, 2, 6, 4, 16)


class TestOracle:
    def test_full_when_all_active(self):
        for n in (1, 2, 5, 9):
            assert oracle_count(n, n, 8, 2, 16) == saved_macs(n, n, 8, 2, 16).full_macs

    def test_worked_case(self):
        full = saved_macs(4, 4, 8, 2, 32).full_macs
        assert full - oracle_count(4, 3, 8, 2, 32) == 752

    def test_single_token(self):
        assert saved_macs(1, 1, 8, 2, 16).full_macs == oracle_count(1, 1, 8, 2, 16)
        assert saved_macs(1, 1, 8, 2, 16).saved_macs == 0

    def test_skipped_layer_costs_nothing(self):
        assert oracle_count(6, 0, 8, 2, 16) == 0

    def test_matches_analytic_on_grid(self):
        for d, h in ((4, 1), (4, 2), (8, 1), (8, 2)):
            for d_ff in (8, 16):
                for n in range(1, 9):
                    for m in range(0, n + 1):
                        expect = saved_macs(n, m, d, h, d_ff).saved_macs
                        got = (saved_macs(n, n, d, h, d_ff).full_macs
                               - oracle_count(n, m, d, h, d_ff))
                        assert expect == got


class TestExecuted:
    def test_never_reassociates_when_all_active(self):
        for d, h in ((4, 1), (8, 2), (256, 4), (768, 12)):
            for n in range(1, 65):
                assert not reassociates(n, n, d, h)

    def test_predicate_is_the_cost_crossover(self):
        # reassociating swaps 2nd^2 + 2mnd for 2md^2 + 2hmnd
        for n, m, d, h, _ in GRID:
            flipped = 2 * m * d * d + 2 * h * m * n * d
            standard = 2 * n * d * d + 2 * m * n * d
            assert reassociates(n, m, d, h) == (flipped < standard)

    def test_predicate_on_arrays(self):
        got = reassociates(np.array([96, 96, 96]), np.array([1, 20, 96]), 256, 4)
        assert got.tolist() == [True, True, False]

    def test_worked_reassociated_case(self):
        # n=4, m=1, d=8, h=2, d_ff=32: queries 64, absorbing W_K per head
        # 2*32, scores 2*32, scale 2*4, softmax 2*4, P.H 2*32, W_V per head
        # 2*32, output projection 64, layer norms 2*16, FFN 256+256
        assert reassociates(4, 1, 8, 2)
        cost = saved_macs(4, 1, 8, 2, 32)
        assert cost.executed_macs == 944
        assert cost.full_macs - cost.saved_macs == 1264
        # the K/V projections skipped: 2d(nd - m(d + (h-1)n)) = 16 * 20
        assert 1264 - 944 == 320

    def test_equals_full_minus_saved_in_standard_order(self):
        flipped = 0
        for n, m, d, h, d_ff in GRID:
            cost = saved_macs(n, m, d, h, d_ff)
            standard = (saved_macs(n, n, d, h, d_ff).full_macs
                        - cost.saved_macs)
            if m and reassociates(n, m, d, h):
                flipped += 1
                assert cost.executed_macs < standard
            else:
                assert cost.executed_macs == standard
        assert flipped

    def test_checks_dims(self):
        with pytest.raises(InputError):
            saved_macs(3, 4, 8, 2, 16).executed_macs
        with pytest.raises(ConfigError):
            saved_macs(3, 2, 6, 4, 16).executed_macs


class TestReport:
    dims = ModelDims(num_layers=3, d=8, heads=2, d_ff=16)

    def test_no_exit_same_dims_speedup_one(self):
        rep = report(self.dims, [all_last(5, 3), all_last(2, 3)])
        assert rep.speedup == 1.0
        assert all(r.saved_macs == 0 for r in rep.rows)

    def test_additive_over_sequences(self):
        s1 = ExitSchedule(np.array([3, 1, 2]), np.ones(3, dtype=bool))
        s2 = ExitSchedule(np.array([2, 2]), np.ones(2, dtype=bool))
        both = report(self.dims, [s1, s2])
        alone = [report(self.dims, [s]) for s in (s1, s2)]
        assert both.total_flops == sum(r.total_flops for r in alone)
        assert both.baseline_flops == sum(r.baseline_flops for r in alone)
        for i in range(3):
            assert both.rows[i].saved_macs == sum(r.rows[i].saved_macs for r in alone)

    def test_rows_track_schedule(self):
        s = ExitSchedule(np.array([3, 1, 2, 1]), np.ones(4, dtype=bool))
        rep = report(self.dims, [s])
        assert [r.m_sum for r in rep.rows] == [4, 2, 1]
        assert [r.n_sum for r in rep.rows] == [4, 4, 4]
        assert rep.exit_histogram == {1: 2, 2: 1, 3: 1}

    def test_exit_beyond_depth_rejected(self):
        deep = ExitSchedule(np.array([4, 1]), np.ones(2, dtype=bool))
        with pytest.raises(ConfigError):
            report(self.dims, [all_last(2, 3), deep])

    def test_early_exit_reduces_flops(self):
        eager = ExitSchedule(np.array([1, 1, 1, 3]), np.ones(4, dtype=bool))
        rep = report(self.dims, [eager])
        assert rep.total_flops < rep.baseline_flops
        assert rep.speedup > 1.0

    def test_empty_corpus(self):
        for args in (([],), ([], [0])):
            with pytest.raises(InputError, match="no schedules to account for"):
                report(self.dims, *args)

    @pytest.mark.parametrize("exits, offsets, error", [
        ([1.0, 2.0], [0, 2], InputError),
        ([1, 2], [0.0, 2.0], InputError),
        ([True, True], [0, 2], InputError),
        ([1, 2], [False, True], InputError),
        ([[1, 2]], [0, 2], ShapeError),
        ([1, 2], [], ShapeError),
        ([1, 2], [1, 2], ShapeError),       # does not start at row 0
        ([1, 2], [0, 1], ShapeError),       # does not end at the row count
        ([1, 2, 3], [0, 2, 1, 3], ShapeError),  # falls
        ([1, 0], [0, 1, 2], ConfigError),   # would count in layer L of doc 0
        ([1, 4], [0, 1, 2], ConfigError),
    ], ids=["float-exits", "float-offsets", "bool-exits", "bool-offsets",
            "nested-exits", "no-offsets", "late-start", "short-end", "falling",
            "exit-0", "exit-beyond-L"])
    def test_packed_input_checked(self, exits, offsets, error):
        with pytest.raises(error):
            report(self.dims, exits, offsets)

    def test_csv_layout(self):
        rep = report(self.dims, [all_last(3, 3)])
        lines = rep.to_csv().splitlines()
        assert lines[0] == "layer,n_sum,m_sum,saved_macs,full_macs"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert int(first[3]) == 0

    def test_executed_total(self):
        s1 = ExitSchedule(np.array([3, 1, 1, 1, 1, 1]), np.ones(6, dtype=bool))
        s2 = all_last(4, 3)
        rep = report(self.dims, [s1, s2])
        want = sum(saved_macs(s.valid_count,
                              np.flatnonzero(s.exit_layer >= t).size,
                              8, 2, 16).executed_macs
                   for s in (s1, s2) for t in (1, 2, 3))
        assert rep.executed_flops == FLOPS_PER_MAC * want
        assert rep.executed_flops < rep.total_flops
        dense = report(self.dims, [s2])
        assert dense.executed_flops == dense.total_flops

    def test_executed_lines_follow_paper_figures(self):
        sched = ExitSchedule(np.array([3, 1, 1, 1]), np.ones(4, dtype=bool))
        rep = report(self.dims, [sched])
        tail = rep.to_text().splitlines()[-5:]
        assert [line.partition(":")[0] for line in tail] == [
            "total FLOPs", "baseline FLOPs", "speedup", "executed FLOPs",
            "executed speedup"]
        assert tail[3] == f"executed FLOPs: {rep.executed_flops}"
        assert tail[4] == f"executed speedup: {rep.executed_speedup:.4f}"
        assert rep.executed_speedup > rep.speedup

    def test_text_deterministic(self):
        rep1 = report(self.dims, [all_last(3, 3)])
        rep2 = report(self.dims, [all_last(3, 3)])
        assert rep1.to_text() == rep2.to_text()
        assert "speedup: 1.0000" in rep1.to_text()


@st.composite
def model_dims(draw):
    # widths up to 2**42, where products of counts and dims leave int64
    wide = st.integers(1, 64) | st.integers(2**40, 2**42)
    heads = draw(st.integers(1, 12))
    return ModelDims(num_layers=draw(st.integers(1, 6)),
                     d=heads * draw(wide), heads=heads, d_ff=draw(wide))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_is_per_document_sum_of_closed_forms(data):
    dims = data.draw(model_dims())
    L, d, h, d_ff = dims.num_layers, dims.d, dims.heads, dims.d_ff
    exits = data.draw(st.lists(st.lists(st.integers(1, L), max_size=24),
                               min_size=1, max_size=6))
    schedules = [ExitSchedule(np.array(e, dtype=np.int64),
                              np.ones(len(e), dtype=bool)) for e in exits]
    if not any(exits):
        with pytest.raises(InputError):
            report(dims, schedules)
        return
    rows, total, executed, base_macs = [], 0, 0, 0
    for t in range(1, L + 1):
        n_sum = m_sum = saved = full = 0
        for e in exits:
            n, m = len(e), sum(x >= t for x in e)
            cost = saved_macs(n, m, d, h, d_ff)
            n_sum, m_sum = n_sum + n, m_sum + m
            saved, full = saved + cost.saved_macs, full + cost.full_macs
            executed += cost.executed_macs
            base_macs += saved_macs(n, n, d, h, d_ff).full_macs
        rows.append((t, n_sum, m_sum, saved, full))
        total += full - saved
    rep = report(dims, schedules)
    assert [(r.layer, r.n_sum, r.m_sum, r.saved_macs, r.full_macs)
            for r in rep.rows] == rows
    assert rep.total_flops == FLOPS_PER_MAC * total
    assert rep.baseline_flops == FLOPS_PER_MAC * base_macs
    assert rep.executed_flops == FLOPS_PER_MAC * executed
    assert rep.exit_histogram == Counter(x for e in exits for x in e)
    figures = [rep.total_flops, rep.baseline_flops, rep.executed_flops,
               *(v for r in rep.rows for v in (r.n_sum, r.m_sum,
                                                r.saved_macs, r.full_macs))]
    assert all(type(v) is int for v in figures)


def packed(docs):
    """The exits of `docs`, lists of exit layers, in one vector, and each
    document's start row followed by the row count."""
    offsets = np.cumsum([0] + [len(doc) for doc in docs])
    return np.array([x for doc in docs for x in doc], dtype=np.int64), offsets


@settings(max_examples=150, deadline=None)
@given(case=st.integers(1, 5).flatmap(lambda L: st.tuples(
    st.just(L), st.lists(st.lists(st.integers(1, L), max_size=12),
                         min_size=1, max_size=6))))
@example(case=(1, [[1, 1, 1]]))                  # L=1, one document
@example(case=(3, [[3, 1, 2]]))                  # one document
@example(case=(3, [[], [3, 1, 2], [], [2], []]))  # ragged, empty documents
def test_packed_and_list_forms_agree(case):
    L, docs = case
    dims = ModelDims(num_layers=L, d=8, heads=2, d_ff=16)
    schedules = [ExitSchedule(np.array(e, dtype=np.int64),
                              np.ones(len(e), dtype=bool)) for e in docs]
    if not any(docs):
        for args in ((schedules,), packed(docs)):
            with pytest.raises(InputError):
                report(dims, *args)
        return
    # every field: rows, histogram, total, baseline and executed FLOPs
    assert report(dims, *packed(docs)) == report(dims, schedules)


def closed_form_figures(dims, docs):
    """The per-layer rows and the total, baseline and executed FLOPs of
    the documents `docs`, exit-layer vectors, summed one saved_macs call
    per (document, layer) in Python ints."""
    L, d, h, d_ff = dims.num_layers, dims.d, dims.heads, dims.d_ff
    rows, total, executed, base = [], 0, 0, 0
    for t in range(1, L + 1):
        n_sum = m_sum = saved = full = 0
        for e in docs:
            n, m = len(e), int(np.count_nonzero(e >= t))
            cost = saved_macs(n, m, d, h, d_ff)
            n_sum, m_sum = n_sum + n, m_sum + m
            saved, full = saved + cost.saved_macs, full + cost.full_macs
            executed += cost.executed_macs
            base += cost.full_macs
        rows.append((t, n_sum, m_sum, saved, full))
        total += full - saved
    return (rows, FLOPS_PER_MAC * total, FLOPS_PER_MAC * base,
            FLOPS_PER_MAC * executed)


def spy_dtypes(monkeypatch):
    """The dtype of the active counts of each `flops._layer_macs` call."""
    seen = []
    layer_macs = flops._layer_macs

    def spy(n, m, *dims):
        seen.append(m.dtype)
        return layer_macs(n, m, *dims)

    monkeypatch.setattr(flops, "_layer_macs", spy)
    return seen


def largest_int64_d_ff(rows, cells, d, h):
    """The largest d_ff at which `_fits_int64` still holds."""
    lo, hi = 1, 2**63
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if flops._fits_int64(rows, cells, d, h, mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("past, dtype", [(0, np.int64), (1, object)],
                         ids=["just-under-2**63", "just-over-2**63"])
@pytest.mark.parametrize("exits", [
    np.full(512, 12), np.arange(512) % 12 + 1, np.full(512, 1)],
    ids=["all-last", "every-layer", "all-first"])
def test_int64_switch_at_its_edge(monkeypatch, exits, past, dtype):
    # one 512-row document at L=12, d=768, h=12, with d_ff the widest the
    # int64 path takes, or one wider: the sums reach close to 2**63
    d_ff = largest_int64_d_ff(512, 12, 768, 12) + past
    dims = ModelDims(num_layers=12, d=768, heads=12, d_ff=d_ff)
    rows, total, baseline, executed = closed_form_figures(dims, [exits])
    seen = spy_dtypes(monkeypatch)
    rep = report(dims, exits, [0, 512])
    assert seen == [dtype]
    assert rep.baseline_flops // FLOPS_PER_MAC > 2**62
    assert [(r.layer, r.n_sum, r.m_sum, r.saved_macs, r.full_macs)
            for r in rep.rows] == rows
    assert (rep.total_flops, rep.baseline_flops, rep.executed_flops) == (
        total, baseline, executed)
    figures = [rep.total_flops, rep.baseline_flops, rep.executed_flops,
               *rep.exit_histogram.values(),
               *(v for r in rep.rows for v in (r.n_sum, r.m_sum,
                                                r.saved_macs, r.full_macs))]
    assert all(type(v) is int for v in figures)


def test_bert_base_corpus_takes_the_int64_path(monkeypatch):
    # price-bert's shape: 1000 documents of up to 512 rows at BERT-base
    # dims; the object path, forced, gives the same report
    rng = np.random.default_rng(24)
    lengths = np.append(rng.integers(64, 512, size=999), 512)
    exits = rng.integers(1, 13, size=int(lengths.sum()))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    dims = ModelDims(num_layers=12, d=768, heads=12, d_ff=3072)
    seen = spy_dtypes(monkeypatch)
    rep = report(dims, exits, offsets)
    assert seen == [np.int64]
    monkeypatch.setattr(flops, "_fits_int64", lambda *args: False)
    assert report(dims, exits, offsets) == rep
    assert seen == [np.int64, object]
