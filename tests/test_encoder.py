import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hashexit.errors import (ConfigError, HashExitError, InputError, ParseError,
                             ShapeError, TrainingError)
from hashexit.encoder import (
    EncoderModel,
    ExitSchedule,
    accuracy,
    classify,
    embed,
    fit,
    forward,
    forward_layer,
    head_loss_and_grad,
    positional_encoding,
    predict_class,
    random_model,
    row_batches,
    save_model,
    load_model,
    schedule,
    train_toy,
)
from hashexit import encoder
from hashexit.difficulty import annotate, linear_b, train_annotator
from hashexit.experiments import make_separable_task
from hashexit.flops import reassociates
from hashexit.hashing import CorpusStats, Vocab, build_frequency, build_random

from helpers import vanilla_forward, sinusoidal_positions


def all_last_schedule(n, L):
    return ExitSchedule(np.full(n, L), np.ones(n, dtype=bool))


def freq_fixture_table():
    vocab = Vocab(tuple("abcdef"))
    stats = CorpusStats(np.array([100, 50, 40, 10, 5, 1]), doc_count=6)
    return build_frequency(vocab, stats, 3, 6)


class TestSchedule:
    def test_frequency_lookup(self):
        table = freq_fixture_table()
        sched = schedule([0, 5], table)
        assert list(sched.exit_layer) == [1, 5]
        assert sched.attn_mask.all()

    def test_pin_first(self):
        table = freq_fixture_table()
        sched = schedule([0, 5], table, pin_first=True)
        assert list(sched.exit_layer) == [6, 5]

    def test_padding(self):
        # padding positions leave every active set and the valid count
        sched = ExitSchedule(np.array([3, 1, 1]), np.array([True, False, False]))
        assert sched.valid_count == 1
        assert [list(sched.active_at(t)) for t in (1, 2, 3)] == [[0], [0], [0]]

    def test_unknown_token_exits_last(self):
        table = freq_fixture_table()
        sched = schedule([-1, 99], table)
        assert list(sched.exit_layer) == [6, 6]

    def test_layer_count_mismatch(self):
        with pytest.raises(ConfigError):
            schedule([0], freq_fixture_table(), 12)

    def test_matching_layer_count_accepted(self):
        sched = schedule([0], freq_fixture_table(), 6)
        assert len(sched) == 1

    def test_padding_must_exit_at_one(self):
        with pytest.raises(ConfigError):
            ExitSchedule(np.array([2, 2]), np.array([True, False]))

    def test_gather_matches_layer_of(self):
        rng = np.random.default_rng(3)
        table = build_random(Vocab(tuple(f"t{i}" for i in range(40))), 3, 6, seed=1)
        for _ in range(20):
            ids = rng.integers(-5, 50, size=int(rng.integers(0, 30)))
            pin = bool(rng.integers(0, 2))
            sched = schedule(ids, table, pin_first=pin)
            want = [table.layer_of(int(t)) for t in ids]
            if pin and ids.size:
                want[0] = 6
            assert list(sched.exit_layer) == want
            assert sched.attn_mask.all() and sched.attn_mask.size == ids.size

    def test_matches_validated_schedule(self):
        # schedule() skips ExitSchedule's checks; what it builds must pass them
        table = freq_fixture_table()
        cases = [([0, 5, 3], dict(pin_first=True)),
                 ([-1, 99, 0], dict(pin_first=True)),
                 ([-1, 99, 0], {}),
                 ([], {})]
        for ids, kwargs in cases:
            got = schedule(ids, table, **kwargs)
            checked = ExitSchedule(got.exit_layer, got.attn_mask)
            assert got.exit_layer.dtype == checked.exit_layer.dtype == np.int64
            assert got.attn_mask.dtype == checked.attn_mask.dtype == bool
            assert np.array_equal(got.exit_layer, checked.exit_layer)
            assert np.array_equal(got.attn_mask, checked.attn_mask)

    def test_active_sets_shrink(self):
        sched = ExitSchedule(np.array([1, 3, 2, 3]), np.ones(4, dtype=bool))
        actives = [set(sched.active_at(t)) for t in (1, 2, 3)]
        assert actives[0] == {0, 1, 2, 3}
        assert actives[1] == {1, 2, 3}
        assert actives[2] == {1, 3}


class TestForwardLayer:
    def test_empty_active_is_identity(self):
        rng = np.random.default_rng(0)
        model = random_model(5, 1, 8, 2, 16, seed=1)
        h = rng.normal(size=(4, 8))
        out = forward_layer(h, model.layers[0], [], heads=2)
        assert out is not h
        assert np.array_equal(out, h)

    def test_frozen_row_bits_preserved(self):
        rng = np.random.default_rng(1)
        model = random_model(5, 1, 8, 2, 16, seed=2)
        h = rng.normal(size=(3, 8))
        out = forward_layer(h, model.layers[0], [0, 2], heads=2)
        assert np.array_equal(out[1], h[1])
        assert not np.array_equal(out[0], h[0])
        assert not np.array_equal(out[2], h[2])

    def test_frozen_rows_stay_visible_as_keys(self):
        # perturbing a frozen row must change what active rows attend to
        rng = np.random.default_rng(2)
        model = random_model(5, 1, 8, 2, 16, seed=3)
        h = rng.normal(size=(3, 8))
        out_a = forward_layer(h, model.layers[0], [0, 2], heads=2)
        h2 = h.copy()
        h2[1] += 1.0
        out_b = forward_layer(h2, model.layers[0], [0, 2], heads=2)
        assert not np.allclose(out_a[0], out_b[0])

    def test_segments_keep_documents_apart(self):
        rng = np.random.default_rng(3)
        model = random_model(5, 1, 8, 2, 16, seed=5)
        h = rng.normal(size=(5, 8))
        packed = forward_layer(h, model.layers[0], [0, 2, 3], heads=2,
                               segments=[0, 3, 5])
        first = forward_layer(h[:3], model.layers[0], [0, 2], heads=2)
        second = forward_layer(h[3:], model.layers[0], [0], heads=2)
        assert np.max(np.abs(packed - np.vstack([first, second]))) <= 1e-12
        assert np.array_equal(packed[[1, 4]], h[[1, 4]])

    def test_bad_segments(self):
        model = random_model(5, 1, 8, 2, 16, seed=4)
        with pytest.raises(ShapeError):
            forward_layer(np.zeros((3, 8)), model.layers[0], [0], heads=2,
                          segments=[0, 2])

    def test_shape_mismatch(self):
        model = random_model(5, 1, 8, 2, 16, seed=4)
        with pytest.raises(ShapeError):
            forward_layer(np.zeros((3, 6)), model.layers[0], [0], heads=2)


def standard_only(monkeypatch):
    """Make forward_layer take the standard association for every document."""
    monkeypatch.setattr(encoder, "reassociates", lambda n, m, d, h: m < 0)


class TestReassociation:
    @pytest.mark.parametrize("m", [1, 20])
    def test_agrees_with_standard_at_mid_shape(self, m, monkeypatch):
        rng = np.random.default_rng(60 + m)
        model = random_model(5, 1, 256, 4, 1024, seed=61)
        weights = model.layers[0]
        h = rng.normal(size=(96, 256))
        active = np.sort(rng.choice(96, size=m, replace=False))
        assert reassociates(96, m, 256, 4)
        q = h[active] @ weights.wq
        q_doc, k_doc = np.zeros(m, dtype=np.int64), np.zeros(96, dtype=np.int64)
        flipped = encoder._attention(q, h, weights, 4, True, q_doc, k_doc, 1)
        standard = encoder._attention(q, h, weights, 4, False, q_doc, k_doc, 1)
        assert np.max(np.abs(flipped - standard)) <= 1e-12
        got = forward_layer(h, weights, active, heads=4)
        standard_only(monkeypatch)
        want = forward_layer(h, weights, active, heads=4)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(np.delete(got, active, axis=0),
                              np.delete(h, active, axis=0))

    def test_packed_batch_with_both_associations(self, monkeypatch):
        model = random_model(12, 3, 8, 2, 16, seed=62)
        rng = np.random.default_rng(63)
        exits = [np.full(10, 3),                        # dense: standard
                 np.array([3] + [1] * 9),               # one query row: flipped
                 np.ones(4, dtype=np.int64),            # no query row after layer 1
                 np.array([3, 2, 2, 1, 1, 1, 1, 3]),
                 np.array([3, 1, 1, 1, 1, 1, 3, 3, 1, 1, 1])]
        ids_list = [rng.integers(0, 12, size=e.size) for e in exits]
        schedules = [ExitSchedule(e, np.ones(e.size, dtype=bool)) for e in exits]
        picks = [bool(reassociates(e.size, np.count_nonzero(e >= 2), 8, 2))
                 for e in exits if (e >= 2).any()]
        assert True in picks and False in picks
        calls = []
        real = encoder._attention

        def spy(q, hk, weights, heads, reassociate, *rest):
            calls.append(reassociate)
            return real(q, hk, weights, heads, reassociate, *rest)

        monkeypatch.setattr(encoder, "_attention", spy)
        finals = forward(model, ids_list, schedules)
        assert calls[1:3] == [False, True]  # layer 2 splits into two calls
        monkeypatch.setattr(encoder, "_attention", real)
        for ids, sched, got in zip(ids_list, schedules, finals):
            assert np.max(np.abs(got - forward(model, ids, sched).final)) <= 1e-12
        standard_only(monkeypatch)
        for got, want in zip(finals, forward(model, ids_list, schedules)):
            assert np.max(np.abs(got - want)) <= 1e-12
        monkeypatch.undo()
        for k in (1, 2):
            head = EncoderModel(d=8, heads=2, d_ff=16, layers=model.layers[:k],
                                embedding=model.embedding)
            capped = [ExitSchedule(np.minimum(s.exit_layer, k), s.attn_mask)
                      for s in schedules]
            short = forward(head, ids_list, capped)
            for ids, sched, cap, got, ref in zip(ids_list, schedules, capped,
                                                 finals, short):
                rows = sched.exit_layer == k
                assert np.array_equal(got[rows], ref[rows])
                alone = forward(head, ids, cap).final
                assert np.array_equal(forward(model, ids, sched).final[rows],
                                      alone[rows])


class TestForward:
    def test_matches_vanilla_when_nothing_exits(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            L = int(rng.integers(1, 4))
            heads = int(rng.integers(1, 3))
            d = 4 * heads
            model = random_model(9, L, d, heads, 12, seed=int(rng.integers(1 << 30)))
            n = int(rng.integers(1, 9))
            ids = rng.integers(0, 9, size=n)
            trace = forward(model, ids, all_last_schedule(n, L))
            ref = vanilla_forward(model, ids)
            assert np.max(np.abs(trace.final - ref)) < 1e-9

    def test_all_exit_at_one(self):
        model = random_model(6, 4, 8, 2, 16, seed=5)
        ids = np.array([0, 1, 2])
        sched = ExitSchedule(np.ones(3, dtype=int), np.ones(3, dtype=bool))
        trace = forward(model, ids, sched)
        for t in range(1, 5):
            assert np.array_equal(trace.hidden[t], trace.hidden[1])

    def test_freeze_invariant_random_schedules(self):
        rng = np.random.default_rng(11)
        model = random_model(8, 4, 8, 2, 16, seed=6)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            ids = rng.integers(0, 8, size=n)
            exits = rng.integers(1, 5, size=n)
            sched = ExitSchedule(exits, np.ones(n, dtype=bool))
            trace = forward(model, ids, sched)
            for p in range(n):
                k = exits[p]
                for t in range(k, 5):
                    assert np.array_equal(trace.hidden[t][p], trace.hidden[k][p])

    def test_active_counts_and_nested_sets(self):
        model = random_model(8, 3, 8, 2, 16, seed=7)
        ids = np.array([0, 1, 2, 3])
        sched = ExitSchedule(np.array([1, 2, 3, 1]), np.ones(4, dtype=bool))
        actives = [sched.active_at(t) for t in (1, 2, 3)]
        assert [(sched.valid_count, a.size) for a in actives] == [(4, 4), (4, 2), (4, 1)]
        assert [list(a) for a in actives] == [[0, 1, 2, 3], [1, 2], [2]]
        prev = set(range(4))
        for a in actives:
            assert set(a) <= prev
            prev = set(a)
        # layer t rewrites exactly the rows of active_at(t)
        trace = forward(model, ids, sched)
        for t, a in enumerate(actives, start=1):
            changed = np.flatnonzero(np.any(trace.hidden[t] != trace.hidden[t - 1], axis=1))
            assert list(changed) == list(a)

    def test_padding_is_invisible(self):
        model = random_model(8, 3, 8, 2, 16, seed=8)
        ids_short = np.array([3, 5])
        ids_padded = np.array([3, 5, 0, 0])
        sched_short = all_last_schedule(2, 3)
        sched_padded = ExitSchedule(np.array([3, 3, 1, 1]),
                                    np.array([True, True, False, False]))
        out_short = forward(model, ids_short, sched_short).final
        out_padded = forward(model, ids_padded, sched_padded).final
        assert np.array_equal(out_short, out_padded[:2])

    def test_repeat_runs_identical(self):
        model = random_model(8, 2, 8, 2, 16, seed=9)
        ids = np.array([1, 2, 3])
        sched = ExitSchedule(np.array([1, 2, 2]), np.ones(3, dtype=bool))
        a = forward(model, ids, sched).final
        b = forward(model, ids, sched).final
        assert np.array_equal(a, b)

    def test_empty_sequence_rejected(self):
        model = random_model(8, 2, 8, 2, 16, seed=10)
        with pytest.raises(InputError):
            forward(model, [], ExitSchedule(np.array([], dtype=int),
                                            np.array([], dtype=bool)))

    def test_schedule_length_mismatch(self):
        model = random_model(8, 2, 8, 2, 16, seed=11)
        with pytest.raises(ShapeError):
            forward(model, [0, 1], all_last_schedule(3, 2))

    def test_schedule_too_deep(self):
        model = random_model(8, 2, 8, 2, 16, seed=12)
        with pytest.raises(ConfigError):
            forward(model, [0], all_last_schedule(1, 5))

    def test_unknown_id_embeds_as_zero(self):
        model = random_model(8, 2, 8, 2, 16, seed=13)
        h = embed(model, [-1, 0])
        assert np.array_equal(h[0], positional_encoding(2, 8)[0])

    def test_out_of_vocab_id_rejected(self):
        model = random_model(8, 2, 8, 2, 16, seed=14)
        with pytest.raises(InputError):
            embed(model, [8])


def random_batch(rng, model, docs, padded=True):
    """Ragged documents with random exits and, if padded, random padding."""
    L, V = model.num_layers, model.vocab_size
    ids_list, schedules = [], []
    for _ in range(docs):
        n = int(rng.integers(1, 12))
        valid = int(rng.integers(1, n + 1)) if padded else n
        exits = rng.integers(1, L + 1, size=n)
        exits[valid:] = 1
        ids_list.append(rng.integers(-1, V, size=n))
        schedules.append(ExitSchedule(exits, np.arange(n) < valid))
    return ids_list, schedules


class TestForwardBatch:
    def test_matches_per_document_forward(self):
        rng = np.random.default_rng(40)
        model = random_model(12, 4, 8, 2, 16, seed=41)
        for _ in range(10):
            ids_list, schedules = random_batch(rng, model, int(rng.integers(1, 9)))
            finals = forward(model, ids_list, schedules)
            assert len(finals) == len(ids_list)
            for ids, sched, got in zip(ids_list, schedules, finals):
                want = forward(model, ids, sched).final
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_frozen_rows_bit_exact(self):
        # a row exiting at k equals, bit for bit, a packed run of k layers
        rng = np.random.default_rng(42)
        model = random_model(12, 4, 8, 2, 16, seed=43)
        ids_list, schedules = random_batch(rng, model, 8)
        finals = forward(model, ids_list, schedules)
        for k in range(1, 4):
            head = EncoderModel(d=8, heads=2, d_ff=16, layers=model.layers[:k],
                                embedding=model.embedding)
            capped = [ExitSchedule(np.minimum(s.exit_layer, k), s.attn_mask)
                      for s in schedules]
            short = forward(head, ids_list, capped)
            for sched, got, ref in zip(schedules, finals, short):
                rows = sched.attn_mask & (sched.exit_layer == k)
                assert np.array_equal(got[rows], ref[rows])

    def test_no_exit_matches_vanilla(self):
        rng = np.random.default_rng(44)
        model = random_model(12, 3, 8, 2, 16, seed=45)
        ids_list = [rng.integers(0, 12, size=int(rng.integers(1, 15))) for _ in range(9)]
        schedules = [all_last_schedule(ids.size, 3) for ids in ids_list]
        for ids, got in zip(ids_list, forward(model, ids_list, schedules)):
            assert np.max(np.abs(got - vanilla_forward(model, ids))) < 1e-9

    def test_documents_do_not_see_each_other(self):
        model = random_model(12, 2, 8, 2, 16, seed=46)
        a, b = np.array([1, 2, 3]), np.array([4, 5])
        sched_a, sched_b = all_last_schedule(3, 2), all_last_schedule(2, 2)
        alone = forward(model, [a], [sched_a])[0]
        for other in (b, np.array([9, 9]), np.array([0, 7])):
            packed = forward(model, [other, a], [sched_b, sched_a])[1]
            assert np.max(np.abs(packed - alone)) <= 1e-12

    def test_forward_takes_a_batch(self):
        # a single sequence is a batch of one: both forms run one path
        rng = np.random.default_rng(51)
        model = random_model(12, 3, 8, 2, 16, seed=52)
        ids_list, schedules = random_batch(rng, model, 5)
        for ids, sched in zip(ids_list, schedules):
            got, = forward(model, [ids], [sched])
            assert np.array_equal(got, forward(model, ids, sched).final)

    def test_batch_rows_follow_widest_layer(self):
        assert encoder.batch_rows(random_model(12, 2, 256, 4, 1024)) == 384
        assert encoder.batch_rows(random_model(12, 2, 8, 2, 16)) == encoder.BATCH_ROWS
        wide = random_model(12, 1, 4, 2, 2 * encoder.BATCH_FLOATS)
        assert encoder.batch_rows(wide) == 1

    def test_empty_batch(self):
        model = random_model(12, 2, 8, 2, 16, seed=47)
        assert forward(model, [], []) == []

    def test_length_mismatch(self):
        model = random_model(12, 2, 8, 2, 16, seed=48)
        with pytest.raises(ShapeError):
            forward(model, [[0, 1]], [])
        with pytest.raises(ShapeError):
            forward(model, [[0, 1], [2]], [all_last_schedule(2, 2),
                                           all_last_schedule(2, 2)])

    def test_row_batches_respect_budget(self):
        lengths = [4, 12, 3, 3, 5, 1, 9]
        batches = row_batches(lengths, 10)
        assert sorted(i for b in batches for i in b) == list(range(len(lengths)))
        for batch in batches:
            rows = sum(lengths[i] for i in batch)
            assert rows <= 10 or len(batch) == 1

    def test_cls_features_cross_batches(self, monkeypatch):
        rng = np.random.default_rng(49)
        model = random_model(11, 2, 8, 2, 16, seed=50)
        table = build_random(Vocab(tuple(f"w{i}" for i in range(11))), 2, 2, seed=3)
        seqs = [list(rng.integers(0, 11, size=int(rng.integers(1, 9)))) for _ in range(30)]
        whole = encoder.cls_features(model, seqs, table)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 16)
        assert encoder.batch_rows(model) == 16
        assert len(row_batches([len(s) for s in seqs], 16)) > 3
        split = encoder.cls_features(model, seqs, table)
        for seq, got in zip(seqs, split):
            sched = schedule(seq, table, 2, pin_first=True)
            assert np.max(np.abs(got - forward(model, seq, sched).final[0])) <= 1e-12
        assert np.max(np.abs(split - whole)) <= 1e-12


class TestPositionalEncoding:
    def test_matches_independent_construction(self):
        assert np.array_equal(positional_encoding(7, 10), sinusoidal_positions(7, 10))

    def test_position_zero(self):
        pe = positional_encoding(3, 4)
        assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0])


class TestClassify:
    def test_zero_head(self):
        model = random_model(5, 1, 4, 1, 8, seed=0, num_classes=3)
        model.head = np.zeros((4, 3))
        scores = classify(model, np.ones((2, 4)))
        assert np.array_equal(scores, np.zeros(3))

    def test_identity_head_passthrough(self):
        model = random_model(5, 1, 4, 1, 8, seed=0, num_classes=4)
        model.head = np.eye(4)
        final = np.arange(8.0).reshape(2, 4)
        assert np.array_equal(classify(model, final), final[0])

    def test_hand_two_class(self):
        model = random_model(5, 1, 4, 1, 8, seed=0, num_classes=2)
        model.head = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        final = np.array([[0.2, 0.9, 5.0, -5.0]])
        scores = classify(model, final)
        assert scores == pytest.approx([0.2, 0.9])
        assert int(np.argmax(scores)) == 1

    def test_missing_head(self):
        model = random_model(5, 1, 4, 1, 8, seed=0)
        with pytest.raises(ConfigError):
            classify(model, np.zeros((1, 4)))


class TestTrainToy:
    def make_task(self, seed=0):
        # class 0 sequences draw from the low half of the vocab, class 1
        # from the high half; token 0 is the classification slot
        rng = np.random.default_rng(seed)
        vocab = Vocab(tuple(["cls"] + [f"w{i}" for i in range(10)]))
        seqs, labels = [], []
        for _ in range(30):
            lab = int(rng.integers(0, 2))
            pool = np.arange(1, 6) if lab == 0 else np.arange(6, 11)
            seqs.append([0] + list(rng.choice(pool, size=4)))
            labels.append(lab)
        table = build_random(vocab, 2, 2, seed=3)
        return seqs, labels, table

    def test_zero_lr_keeps_head(self):
        seqs, labels, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=1, num_classes=2)
        before = model.head.copy()
        trained = train_toy(model, seqs, labels, table, lr=0.0, epochs=5)
        assert np.array_equal(trained.head, before)
        assert np.array_equal(model.head, before)

    def test_separable_task_learns(self):
        seqs, labels, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=2)
        trained = train_toy(model, seqs, labels, table, epochs=300, lr=0.5, seed=0)
        assert accuracy(trained, seqs, labels, table) >= 0.95

    def test_deterministic(self):
        seqs, labels, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=2)
        a = train_toy(model, seqs, labels, table, epochs=20, seed=5)
        b = train_toy(model, seqs, labels, table, epochs=20, seed=5)
        assert np.array_equal(a.head, b.head)

    def test_divergence_raises(self):
        seqs, labels, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=2)
        with pytest.raises(TrainingError):
            train_toy(model, seqs, labels, table, epochs=50, lr=1e30)

    def test_empty_dataset(self):
        _, _, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=2)
        with pytest.raises(InputError):
            train_toy(model, [], [], table)

    def test_gradcheck_head_loss(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            feats = rng.normal(size=(6, 5))
            labels = rng.integers(0, 3, size=6)
            head = rng.normal(size=(5, 3))
            _, grad = head_loss_and_grad(head, feats, labels)
            num = np.zeros_like(head)
            eps = 1e-6
            for i in range(5):
                for j in range(3):
                    hp = head.copy()
                    hp[i, j] += eps
                    hm = head.copy()
                    hm[i, j] -= eps
                    lp, _ = head_loss_and_grad(hp, feats, labels)
                    lm, _ = head_loss_and_grad(hm, feats, labels)
                    num[i, j] = (lp - lm) / (2 * eps)
            denom = np.maximum(np.abs(num), np.abs(grad))
            denom[denom == 0] = 1.0
            assert np.max(np.abs(num - grad) / denom) < 1e-4


def _diverging_trainers():
    """Each trainer of the package run at a learning rate that blows up."""
    task = make_separable_task(num_train=30, seed=0)
    model = random_model(11, 2, 8, 2, 16, seed=2)
    table = build_random(task.vocab, 2, 2, seed=3)
    data = (task.train_seqs, task.train_labels)
    annotator = train_annotator(model, *data, epochs=20)
    dataset = annotate(annotator, *data)
    return {
        "train_toy": lambda: train_toy(model, *data, table, epochs=50, lr=1e30),
        "train_annotator": lambda: train_annotator(model, *data, epochs=50,
                                                   lr=1e30),
        "linear_b": lambda: linear_b(dataset, epochs=80, lr=1e308),
    }


class TestFit:
    def test_steps_every_parameter(self):
        # loss a^2 + b^2 has gradients (2a, 2b); half a step lands on 0
        got = fit(lambda a, b: (a * a + b * b, 2 * a, 2 * b), (1.0, -2.0),
                  epochs=1, lr=0.5, what="bowl")
        assert got == (0.0, 0.0)

    def test_zero_epochs_keep_params(self):
        head = np.ones((2, 2))
        got, = fit(lambda h: (0.0, h), (head,), epochs=0, lr=1.0, what="head")
        assert got is head

    def test_negative_epochs_rejected(self):
        with pytest.raises(ConfigError):
            fit(lambda h: (0.0, h), (np.ones(2),), epochs=-1, lr=1.0,
                what="head")

    @pytest.mark.parametrize("trainer", ["train_toy", "train_annotator",
                                         "linear_b"])
    def test_divergence_raises_in_fit(self, trainer):
        with pytest.raises(TrainingError) as excinfo:
            _diverging_trainers()[trainer]()
        assert excinfo.traceback[-1].name == "fit"


def saved_model_bytes(tmp_path, model):
    path = tmp_path / "model.bin"
    save_model(model, path)
    return path, path.read_bytes()


class TestModelIO:
    def test_round_trip_exact(self, tmp_path):
        model = random_model(7, 2, 6, 2, 10, seed=31, num_classes=3)
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.d == model.d and back.heads == model.heads
        assert back.d_ff == model.d_ff and back.num_layers == model.num_layers
        assert np.array_equal(back.embedding, model.embedding)
        assert np.array_equal(back.head, model.head)
        for lw_a, lw_b in zip(model.layers, back.layers):
            for name in ("wq", "wk", "wv", "wo", "w1", "w2",
                         "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"):
                assert np.array_equal(getattr(lw_a, name), getattr(lw_b, name))

    def test_headless_round_trip(self, tmp_path):
        path, _ = saved_model_bytes(tmp_path, random_model(4, 1, 4, 1, 8, seed=32))
        assert load_model(path).head is None

    def test_header(self, tmp_path):
        _, data = saved_model_bytes(tmp_path, random_model(4, 2, 6, 2, 10, seed=33))
        first = data.split(b"\n", 1)[0]
        assert first == b"#hashee-model v2 L=2 d=6 h=2 d_ff=10 V=4 C=0"

    def test_byte_stable(self, tmp_path):
        model = random_model(4, 1, 4, 1, 8, seed=34, num_classes=2)
        path, data = saved_model_bytes(tmp_path, model)
        again = tmp_path / "again.bin"
        save_model(model, again)
        assert again.read_bytes() == data
        save_model(load_model(path), again)
        assert again.read_bytes() == data

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"#nope v2 L=1 d=4 h=1 d_ff=8 V=2 C=0\n")
        with pytest.raises(ParseError, match="bad magic"):
            load_model(path)

    def test_missing_tensor(self, tmp_path):
        path, data = saved_model_bytes(tmp_path, random_model(4, 1, 4, 1, 8, seed=35))
        # cut inside layer0.wq, right after the 4x4 embedding
        path.write_bytes(data[:data.index(b"\n") + 1 + 8 * (16 + 3)])
        with pytest.raises(ParseError, match="truncated"):
            load_model(path)

    def test_text_format_v1_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("#hashee-model v1 L=1 d=4 h=1 d_ff=8 V=2\n"
                        "[tensor embedding 2 4]\n0.0 0.0 0.0 0.0\n")
        with pytest.raises(ParseError, match="re-save it with save_model"):
            load_model(path)

    def test_huge_header_is_rejected_before_reading(self, tmp_path):
        path, data = saved_model_bytes(tmp_path, random_model(4, 1, 4, 1, 8, seed=35))
        path.write_bytes(data.replace(b" V=4 ", b" V=1000000000000 ", 1))
        with pytest.raises(ParseError, match="truncated"):
            load_model(path)

    def test_load_memory_stays_near_parameter_bytes(self, tmp_path):
        model = random_model(2000, 4, 64, 2, 256, seed=36)
        path = tmp_path / "model.bin"
        save_model(model, path)
        params = model.embedding.nbytes + sum(
            getattr(lw, name).nbytes for lw in model.layers
            for name in encoder._LAYER_FIELDS)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * params


FUZZ = settings(derandomize=True, database=None, max_examples=100,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestModelFuzz:
    """Mangled model files raise HashExitError and nothing else."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "model.bin"
        save_model(random_model(5, 2, 4, 2, 6, seed=37, num_classes=2), path)
        data = path.read_bytes()
        return path, data, data.index(b"\n") + 1

    @staticmethod
    def load_or_typed_error(path, data):
        path.write_bytes(data)
        try:
            load_model(path)
        except HashExitError:
            pass

    @FUZZ
    @given(cut=st.integers(0, 10 ** 6))
    def test_truncation(self, saved, cut):
        path, data, _ = saved
        self.load_or_typed_error(path, data[:cut % len(data)])

    @FUZZ
    @given(at=st.integers(0, 10 ** 6), mask=st.integers(1, 255),
           in_header=st.booleans())
    def test_byte_flip(self, saved, at, mask, in_header):
        path, data, header_len = saved
        at = at % header_len if in_header else header_len + at % (len(data) - header_len)
        flipped = bytearray(data)
        flipped[at] ^= mask
        self.load_or_typed_error(path, bytes(flipped))

    @FUZZ
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_appended_bytes(self, saved, extra):
        path, data, _ = saved
        path.write_bytes(data + extra)
        with pytest.raises(ParseError, match="trailing"):
            load_model(path)

    @FUZZ
    @given(key=st.sampled_from(["L", "d", "h", "d_ff", "V", "C"]),
           value=st.one_of(st.integers(-10 ** 13, -1).map(str),
                           st.just(str(10 ** 12)),
                           st.integers(0, 10 ** 13).map(str),
                           st.text(max_size=12)))
    def test_header_field(self, saved, key, value):
        path, data, header_len = saved
        fields = data[:header_len].decode("ascii").split()
        fields = [f"{key}={value}" if f.startswith(key + "=") else f
                  for f in fields]
        header = " ".join(fields).encode("utf-8", "replace") + b"\n"
        self.load_or_typed_error(path, header + data[header_len:])


class TestModelValidation:
    def test_heads_must_divide_d(self):
        with pytest.raises(ConfigError):
            random_model(4, 1, 6, 4, 8, seed=0)

    def test_odd_d_rejected(self):
        with pytest.raises(ConfigError):
            random_model(4, 1, 5, 1, 8, seed=0)

    def test_predict_class_runs(self):
        model = random_model(6, 2, 8, 2, 16, seed=36, num_classes=2)
        table = build_random(Vocab(tuple("abcdef")), 2, 2, seed=0)
        assert predict_class(model, [0, 1, 2], table) in (0, 1)
