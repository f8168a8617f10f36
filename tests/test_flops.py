import numpy as np
import pytest

from hashexit.errors import ConfigError, InputError
from hashexit.encoder import ExitSchedule
from hashexit.flops import (
    FLOPS_PER_MAC,
    ModelDims,
    executed_layer_macs,
    full_layer_macs,
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
            assert oracle_count(n, n, 8, 2, 16) == full_layer_macs(n, 8, 2, 16)

    def test_worked_case(self):
        full = full_layer_macs(4, 8, 2, 32)
        assert full - oracle_count(4, 3, 8, 2, 32) == 752

    def test_single_token(self):
        assert full_layer_macs(1, 8, 2, 16) == oracle_count(1, 1, 8, 2, 16)
        assert saved_macs(1, 1, 8, 2, 16).saved_macs == 0

    def test_skipped_layer_costs_nothing(self):
        assert oracle_count(6, 0, 8, 2, 16) == 0

    def test_matches_analytic_on_grid(self):
        for d, h in ((4, 1), (4, 2), (8, 1), (8, 2)):
            for d_ff in (8, 16):
                for n in range(1, 9):
                    for m in range(0, n + 1):
                        expect = saved_macs(n, m, d, h, d_ff).saved_macs
                        got = full_layer_macs(n, d, h, d_ff) - oracle_count(n, m, d, h, d_ff)
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
        assert executed_layer_macs(4, 1, 8, 2, 32) == 944
        full = full_layer_macs(4, 8, 2, 32)
        assert full - saved_macs(4, 1, 8, 2, 32).saved_macs == 1264
        # the K/V projections skipped: 2d(nd - m(d + (h-1)n)) = 16 * 20
        assert 1264 - 944 == 320

    def test_equals_full_minus_saved_in_standard_order(self):
        flipped = 0
        for n, m, d, h, d_ff in GRID:
            standard = (full_layer_macs(n, d, h, d_ff)
                        - saved_macs(n, m, d, h, d_ff).saved_macs)
            if m and reassociates(n, m, d, h):
                flipped += 1
                assert executed_layer_macs(n, m, d, h, d_ff) < standard
            else:
                assert executed_layer_macs(n, m, d, h, d_ff) == standard
        assert flipped

    def test_checks_dims(self):
        with pytest.raises(InputError):
            executed_layer_macs(3, 4, 8, 2, 16)
        with pytest.raises(ConfigError):
            executed_layer_macs(3, 2, 6, 4, 16)


class TestReport:
    dims = ModelDims(num_layers=3, d=8, heads=2, d_ff=16)

    def test_no_exit_same_dims_speedup_one(self):
        rep = report(self.dims, [all_last(5, 3), all_last(2, 3)])
        assert rep.speedup == 1.0
        assert all(r.saved_macs == 0 for r in rep.rows)

    def test_half_depth_speedup_two(self):
        shallow = ModelDims(num_layers=6, d=8, heads=2, d_ff=16)
        deep = ModelDims(num_layers=12, d=8, heads=2, d_ff=16)
        rep = report(shallow, [all_last(4, 6)], baseline_dims=deep)
        assert rep.speedup == 2.0

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

    def test_padding_not_counted(self):
        padded = ExitSchedule(np.array([3, 3, 1]), np.array([True, True, False]))
        plain = all_last(2, 3)
        assert report(self.dims, [padded]).total_flops == \
            report(self.dims, [plain]).total_flops

    def test_early_exit_reduces_flops(self):
        eager = ExitSchedule(np.array([1, 1, 1, 3]), np.ones(4, dtype=bool))
        rep = report(self.dims, [eager])
        assert rep.total_flops < rep.baseline_flops
        assert rep.speedup > 1.0

    def test_empty_corpus(self):
        with pytest.raises(InputError):
            report(self.dims, [])

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
        want = sum(executed_layer_macs(s.valid_count, s.active_at(t).size, 8, 2, 16)
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
