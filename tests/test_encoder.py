import ast
import hashlib
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hashexit.errors import (ConfigError, HashExitError, InputError, ParseError,
                             ShapeError, TrainingError)
from hashexit.encoder import (
    EncoderModel,
    ExitSchedule,
    PackedBatch,
    accuracy,
    classify,
    embed,
    fit,
    forward,
    forward_layer,
    positional_encoding,
    random_model,
    save_model,
    load_model,
    pack,
    route,
    schedule,
    train_toy,
)
from hashexit import difficulty, encoder
from hashexit.difficulty import annotate, linear_b, train_annotator
from hashexit.experiments import make_separable_task
from hashexit.flops import ModelDims, _fewest_standard, reassociates, report
from hashexit.hashing import (CorpusStats, EmbeddingTable, HashTable, Vocab,
                              build_frequency, build_random, load_embeddings,
                              save_embeddings)

from helpers import (greedy_batches, reference_exit, sinusoidal_positions,
                     vanilla_forward)


def all_last_schedule(n, L):
    return ExitSchedule(np.full(n, L), np.ones(n, dtype=bool))


def packed_batch(ids_list, schedules):
    """The flat batch of the documents `ids_list` under their schedules."""
    ids, offsets = pack(ids_list)
    exits = np.concatenate([np.empty(0, dtype=np.int64)]
                           + [sched.exit_layer for sched in schedules])
    return PackedBatch(ids, exits, offsets)


def forward_docs(model, ids_list, schedules, *, traces=False):
    """forward over the documents as one flat batch, split back by its
    offsets: each document's final states, or with traces its H^0..H^L."""
    batch = packed_batch(ids_list, schedules)
    out = forward(model, batch, traces=traces)
    spans = list(zip(batch.offsets, batch.offsets[1:]))
    if traces:
        states = list(out)
        return [[h[a:b] for h in states] for a, b in spans]
    return [out[a:b] for a, b in spans]


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
        # a schedule has no padding: any False mask entry is rejected
        for exits, mask in (([3, 1, 1], [True, False, False]),
                            ([1], [False])):
            with pytest.raises(ConfigError):
                ExitSchedule(np.array(exits), np.array(mask))
        sched = ExitSchedule(np.array([3, 1, 1]), np.ones(3, dtype=bool))
        assert sched.valid_count == 3

    def test_padding_must_exit_at_one(self):
        # the exit layer does not matter: a False mask entry is rejected
        with pytest.raises(ConfigError):
            ExitSchedule(np.array([2, 2]), np.array([True, False]))

    def test_unknown_token_exits_last(self):
        table = freq_fixture_table()
        sched = schedule([-1, 99], table)
        assert list(sched.exit_layer) == [6, 6]

    def test_layer_count_mismatch(self):
        with pytest.raises(ConfigError):
            schedule([0], freq_fixture_table(), 12)

    def test_matching_layer_count_accepted(self):
        sched = schedule([0], freq_fixture_table(), 6)
        assert sched.valid_count == 1

    def test_gather_matches_layer_of(self):
        rng = np.random.default_rng(3)
        table = build_random(Vocab(tuple(f"t{i}" for i in range(40))), 3, 6, seed=1)
        for _ in range(20):
            ids = rng.integers(-5, 50, size=int(rng.integers(0, 30)))
            pin = bool(rng.integers(0, 2))
            sched = schedule(ids, table, pin_first=pin)
            want = [reference_exit(table, int(t)) for t in ids]
            if pin and ids.size:
                want[0] = 6
            assert list(sched.exit_layer) == want
            assert sched.attn_mask.all() and sched.attn_mask.size == ids.size

    def test_matches_validated_schedule(self):
        # schedule() builds through ExitSchedule's one checked constructor
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

    @pytest.mark.parametrize("ids, error", [
        (np.array([0.9, 1.7]), InputError),     # once looked up as [0, 1]
        (np.array([True, False]), InputError),
        ([[0, 1]], ShapeError),
    ], ids=["floats", "bools", "nested"])
    def test_ids_must_be_an_integer_vector(self, ids, error):
        with pytest.raises(error):
            schedule(ids, freq_fixture_table())

    @pytest.mark.parametrize("exits, error", [
        (np.array([1.9, 2.2]), InputError),     # once stored as [1, 2]
        (np.array([True, True]), InputError),
        ([[1], [2]], ShapeError),
    ], ids=["floats", "bools", "nested"])
    def test_exits_must_be_an_integer_vector(self, exits, error):
        with pytest.raises(error):
            ExitSchedule(exits, np.ones(2, dtype=bool))

    def test_active_sets_shrink(self):
        sched = ExitSchedule(np.array([1, 3, 2, 3]), np.ones(4, dtype=bool))
        actives = [set(np.flatnonzero(sched.exit_layer >= t)) for t in (1, 2, 3)]
        assert actives[0] == {0, 1, 2, 3}
        assert actives[1] == {1, 2, 3}
        assert actives[2] == {1, 3}


class TestOneLookup:
    """HashTable.exits is the one id -> exit layer lookup: route and
    schedule return its exits, but for the positions they pin."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exits_route_and_schedule_match_scalar_reference(self, data):
        L = data.draw(st.integers(1, 8))
        B = data.draw(st.integers(1, L))
        V = data.draw(st.integers(1, 20))
        buckets = data.draw(st.lists(st.integers(0, B - 1), min_size=V,
                                     max_size=V))
        table = HashTable("rand-cons", B, L, 0,
                          tuple(f"t{i}" for i in range(V)), np.array(buckets))
        docs = data.draw(st.lists(st.lists(st.integers(-5, V + 5),
                                           max_size=10), max_size=6))
        want = [[reference_exit(table, t) for t in doc] for doc in docs]
        flat = [t for doc in docs for t in doc]
        for num_layers in (None, L):
            got = table.exits(np.array(flat, dtype=np.int64), num_layers)
            assert got.dtype == np.int64
            assert got.tolist() == [e for w in want for e in w]
        with pytest.raises(ConfigError):
            table.exits(flat, L + 1)
        pinned = [[L] + w[1:] if w else w for w in want]
        assert route(*pack(docs), table, L).exits.tolist() == [
            e for w in pinned for e in w]
        for doc, plain, pin in zip(docs, want, pinned):
            assert schedule(doc, table, L).exit_layer.tolist() == plain
            assert schedule(doc, table, L,
                            pin_first=True).exit_layer.tolist() == pin


class TestRoute:
    TABLE = build_random(Vocab(tuple(f"t{i}" for i in range(12))), 3, 6, seed=4)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 20), max_size=12), max_size=10))
    @example([[5], [-1], [12], [0, 11, 12, -1]])  # one-token documents
    def test_matches_per_document_schedules(self, docs):
        # one lookup over the batch equals a pinned schedule per document,
        # ids of -1 and beyond the table's 12 tokens included
        table = self.TABLE
        batch = route(*pack(docs), table, 6)
        want = [schedule(doc, table, 6, pin_first=True).exit_layer
                for doc in docs]
        assert len(batch) == len(docs)
        for part in (batch.ids, batch.exits, batch.offsets):
            assert part.dtype == np.int64 and part.ndim == 1
        assert batch.ids.tolist() == [t for doc in docs for t in doc]
        assert batch.exits.tolist() == [int(e) for w in want for e in w]
        assert batch.offsets.tolist() == [0] + np.cumsum(
            [len(doc) for doc in docs], dtype=np.int64).tolist()
        # ids and offsets given as lists read as the int64 vectors
        listed = route(batch.ids.tolist(), batch.offsets.tolist(), table, 6)
        for part in ("ids", "exits", "offsets"):
            assert np.array_equal(getattr(listed, part), getattr(batch, part))
            assert getattr(listed, part).dtype == np.int64

    @pytest.mark.parametrize("docs", [[[0.9, 1.7], [2.5]], [[True, False]]],
                             ids=["float-ids", "bool-ids"])
    def test_ids_must_be_integers(self, docs):
        # read through errors.int_vector, never truncated to [0, 1, 2] or
        # taken as ids [1, 0]
        flat = [t for doc in docs for t in doc]
        offsets = np.cumsum([0] + [len(doc) for doc in docs])
        for call in (lambda: pack(docs),
                     lambda: route(flat, offsets, self.TABLE, 6)):
            with pytest.raises(InputError, match="token ids"):
                call()

    def test_layer_count_mismatch(self):
        with pytest.raises(ConfigError):
            route(*pack([[0, 1]]), self.TABLE, 5)
        with pytest.raises(ConfigError):
            route(*pack([]), self.TABLE, 12)

    def test_forward_matches_schedules(self):
        rng = np.random.default_rng(54)
        model = random_model(24, 6, 8, 2, 16, seed=55)
        docs = [list(rng.integers(-1, 24, size=int(rng.integers(1, 9))))
                for _ in range(7)]
        batch = route(*pack(docs), self.TABLE, 6)
        finals = forward(model, batch)
        for doc, a, b in zip(docs, batch.offsets, batch.offsets[1:]):
            sched = schedule(doc, self.TABLE, 6, pin_first=True)
            assert np.max(np.abs(finals[a:b] - forward(model, doc, sched).final)) \
                <= 1e-12


class TestForwardLayer:
    def test_empty_active_is_identity(self):
        rng = np.random.default_rng(0)
        model = random_model(5, 1, 8, 2, 16, seed=1)
        h = rng.normal(size=(4, 8))
        before = h.copy()
        assert forward_layer(h, model.layers[0], [], heads=2,
                             segments=[0, 4]) is h
        assert np.array_equal(h, before)

    def test_frozen_row_bits_preserved(self):
        rng = np.random.default_rng(1)
        model = random_model(5, 1, 8, 2, 16, seed=2)
        h = rng.normal(size=(3, 8))
        out = forward_layer(h.copy(), model.layers[0], [0, 2], heads=2,
                            segments=[0, 3])
        assert np.array_equal(out[1], h[1])
        assert not np.array_equal(out[0], h[0])
        assert not np.array_equal(out[2], h[2])

    def test_frozen_rows_stay_visible_as_keys(self):
        # perturbing a frozen row must change what active rows attend to
        rng = np.random.default_rng(2)
        model = random_model(5, 1, 8, 2, 16, seed=3)
        h = rng.normal(size=(3, 8))
        h2 = h.copy()
        h2[1] += 1.0
        out_a = forward_layer(h, model.layers[0], [0, 2], heads=2,
                              segments=[0, 3])
        out_b = forward_layer(h2, model.layers[0], [0, 2], heads=2,
                              segments=[0, 3])
        assert not np.allclose(out_a[0], out_b[0])

    def test_segments_keep_documents_apart(self):
        rng = np.random.default_rng(3)
        model = random_model(5, 1, 8, 2, 16, seed=5)
        h = rng.normal(size=(5, 8))
        packed = forward_layer(h.copy(), model.layers[0], [0, 2, 3], heads=2,
                               segments=[0, 3, 5])
        first = forward_layer(h[:3].copy(), model.layers[0], [0, 2], heads=2,
                              segments=[0, 3])
        second = forward_layer(h[3:].copy(), model.layers[0], [0], heads=2,
                               segments=[0, 2])
        assert np.max(np.abs(packed - np.vstack([first, second]))) <= 1e-12
        assert np.array_equal(packed[[1, 4]], h[[1, 4]])

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("at", [0, 1, 2, 3])
    def test_empty_document_changes_nothing(self, monkeypatch, budget, at):
        # an empty document shares its start row with the next one, so the
        # active rows there must count towards the next document
        rng = np.random.default_rng(6)
        model = random_model(5, 1, 8, 2, 16, seed=7)
        h = rng.normal(size=(9, 8))
        segments = [0, 3, 4, 9]
        active = [0, 2, 3, 4, 8]
        if budget is not None:
            monkeypatch.setattr(encoder, "BATCH_FLOATS", budget)
        want = forward_layer(h.copy(), model.layers[0], active, heads=2,
                             segments=segments)
        for padded in (segments[:at] + [segments[at]] + segments[at:],
                       segments[:at] + [segments[at]] * 3 + segments[at:]):
            got = forward_layer(h.copy(), model.layers[0], active, heads=2,
                                segments=padded)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("active", [[2, 0], [0, 1, 1], [1, 0, 2], [-1, 0],
                                        [0, 3], [[0, 1]]])
    def test_active_must_rise_strictly(self, active):
        model = random_model(5, 1, 8, 2, 16, seed=4)
        with pytest.raises(ShapeError, match="active"):
            forward_layer(np.zeros((3, 8)), model.layers[0], active, heads=2,
                          segments=[0, 3])

    @pytest.mark.parametrize("active, segments", [
        ([0.5, 1.5], [0, 3]),       # once ran as rows [0, 1]
        ([0, 1], [0.0, 3.0]),
        ([True, True], [0, 3]),
        ([0, 1], [False, True]),
    ], ids=["float-active", "float-segments", "bool-active", "bool-segments"])
    def test_takes_integer_vectors(self, active, segments):
        model = random_model(5, 1, 8, 2, 16, seed=4)
        with pytest.raises(InputError, match="must be integers"):
            forward_layer(np.zeros((3, 8)), model.layers[0], active, heads=2,
                          segments=segments)

    def test_bad_segments(self):
        model = random_model(5, 1, 8, 2, 16, seed=4)
        # no segments at all once raised a bare IndexError
        for segments in ([0, 2], [1, 3], [0, 2, 1, 3], []):
            with pytest.raises(ShapeError, match="segments"):
                forward_layer(np.zeros((3, 8)), model.layers[0], [0], heads=2,
                              segments=segments)

    def test_shape_mismatch(self):
        model = random_model(5, 1, 8, 2, 16, seed=4)
        with pytest.raises(ShapeError):
            forward_layer(np.zeros((3, 6)), model.layers[0], [0], heads=2,
                          segments=[0, 3])


def standard_only(monkeypatch):
    """Make forward_layer take the standard association for every document."""
    monkeypatch.setattr(encoder, "reassociates", lambda n, m, d, h: m < 0)


def fold(monkeypatch, folded):
    """Make forward_layer fold the attention of every reassociated document
    (FOLDED_FLOATS 0), or of none (a floor no document reaches)."""
    monkeypatch.setattr(encoder, "FOLDED_FLOATS", 0 if folded else 1 << 62)


def spy_ways(monkeypatch):
    """Record, for each _layer_rows call, the set of ways its documents
    with an active row attend (encoder._STANDARD and so on)."""
    ways = []
    real = encoder._layer_rows

    def spy(h, weights, active, heads, sizes, counts, how):
        ways.append(set(how[counts > 0].tolist()))
        return real(h, weights, active, heads, sizes, counts, how)

    monkeypatch.setattr(encoder, "_layer_rows", spy)
    return ways


def assert_frozen_rows_exact(states, exits):
    """Each row of the states H^0..H^L keeps its state bit for bit in
    every layer above its exit."""
    for t in range(1, len(states)):
        rows = exits < t
        assert np.array_equal(states[t][rows], states[t - 1][rows])


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
        q_sizes, k_sizes = np.array([m]), np.array([96])
        flipped = encoder._attention(q, h, weights, 4, True, q_sizes, k_sizes)
        standard = encoder._attention(q, h, weights, 4, False, q_sizes, k_sizes)
        assert np.max(np.abs(flipped - standard)) <= 1e-12
        got = forward_layer(h.copy(), weights, active, heads=4, segments=[0, 96])
        standard_only(monkeypatch)
        want = forward_layer(h.copy(), weights, active, heads=4, segments=[0, 96])
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
        finals = forward_docs(model, ids_list, schedules)
        assert calls[1:3] == [False, True]  # layer 2 splits into two calls
        monkeypatch.setattr(encoder, "_attention", real)
        for ids, sched, got in zip(ids_list, schedules, finals):
            assert np.max(np.abs(got - forward(model, ids, sched).final)) <= 1e-12
        standard_only(monkeypatch)
        for got, want in zip(finals, forward_docs(model, ids_list, schedules)):
            assert np.max(np.abs(got - want)) <= 1e-12
        monkeypatch.undo()
        for k in (1, 2):
            head = EncoderModel(d=8, heads=2, d_ff=16, layers=model.layers[:k],
                                embedding=model.embedding)
            capped = [ExitSchedule(np.minimum(s.exit_layer, k), s.attn_mask)
                      for s in schedules]
            short = forward_docs(head, ids_list, capped)
            for ids, sched, cap, got, ref in zip(ids_list, schedules, capped,
                                                 finals, short):
                rows = sched.exit_layer == k
                assert np.array_equal(got[rows], ref[rows])
                alone = forward(head, ids, cap).final
                assert np.array_equal(forward(model, ids, sched).final[rows],
                                      alone[rows])


class TestFoldedAttention:
    """A reassociated document whose key rows hold FOLDED_FLOATS floats
    attends in folded matmuls of its own; smaller ones stay stacked."""

    @settings(derandomize=True, database=None, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_documents_straddling_the_floor(self, monkeypatch, data):
        d = 64
        edge = encoder.FOLDED_FLOATS // d  # the fewest rows that fold
        L = data.draw(st.integers(2, 3), label="L")
        heads = data.draw(st.sampled_from([1, 2, 4]), label="heads")
        model = random_model(20, L, d, heads, 32,
                             seed=data.draw(st.integers(0, 99), label="seed"))
        small = data.draw(st.integers(2, edge - 1), label="small")
        large = data.draw(st.integers(edge, 2 * edge), label="large")
        # a dense document and one query row among few and among many keys,
        # then documents of random exits on either side of the floor
        exits = [np.full(data.draw(st.integers(1, 2 * edge), label="dense"), L),
                 np.array([L] + [1] * (small - 1)),
                 np.array([L] + [1] * (large - 1))]
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="rng"))
        for n in data.draw(st.lists(st.integers(1, 2 * edge), max_size=4),
                           label="sizes"):
            e = rng.integers(1, L + 1, size=n)
            e[0] = L
            exits.append(e)
        order = data.draw(st.permutations(range(len(exits))), label="order")
        exits = [exits[i] for i in order]
        ids_list = [rng.integers(-1, 20, size=e.size) for e in exits]
        schedules = [ExitSchedule(e, np.ones(e.size, dtype=bool)) for e in exits]
        ways = spy_ways(monkeypatch)
        try:
            finals = forward_docs(model, ids_list, schedules)
            # one group runs every document of layer 2, in all three ways
            assert ways[1] == {encoder._STANDARD, encoder._REASSOCIATED,
                               encoder._FOLDED}
            for ids, e, got in zip(ids_list, exits, finals):
                want = vanilla_forward(model, ids, e)
                assert np.max(np.abs(got - want)) <= 1e-9
            fold(monkeypatch, False)
            for got, want in zip(finals, forward_docs(model, ids_list, schedules)):
                assert np.max(np.abs(got - want)) <= 1e-12
        finally:
            monkeypatch.undo()  # the next example patches afresh

    @pytest.mark.parametrize("shape", ["toy", "mid"])
    def test_benchmark_shapes_sit_on_either_side(self, monkeypatch, shape):
        # toy documents (d=8, 5-15 tokens) attend stacked and mid ones
        # (d=256, 64-128 tokens) folded, so that the benchmark runs a
        # workload on each side of FOLDED_FLOATS
        rng = np.random.default_rng(66)
        if shape == "toy":
            model = random_model(200, 4, 8, 2, 16, seed=67)
            ids_list, schedules = [], []
            for n in rng.integers(5, 16, size=200):
                e = rng.choice([1, 2, 4], p=[0.6, 0.3, 0.1], size=n)
                e[0] = 4
                ids_list.append(rng.integers(-1, 200, size=n))
                schedules.append(ExitSchedule(e, np.ones(n, dtype=bool)))
            reassociated = encoder._REASSOCIATED
        else:
            model = random_model(300, 2, 256, 4, 1024, seed=68)
            ids_list, schedules = mid_batch(rng, model, row_budget(model),
                                            exits=(1, 2), p=(0.8, 0.2))
            reassociated = encoder._FOLDED
        ways = spy_ways(monkeypatch)
        forward_docs(model, ids_list, schedules)
        assert set().union(*ways) == {encoder._STANDARD, reassociated}


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
        actives = [np.flatnonzero(sched.exit_layer >= t) for t in (1, 2, 3)]
        assert [(sched.valid_count, a.size) for a in actives] == [(4, 4), (4, 2), (4, 1)]
        assert [list(a) for a in actives] == [[0, 1, 2, 3], [1, 2], [2]]
        prev = set(range(4))
        for a in actives:
            assert set(a) <= prev
            prev = set(a)
        # layer t rewrites exactly the rows whose exit is t or above
        trace = forward(model, ids, sched)
        for t, a in enumerate(actives, start=1):
            changed = np.flatnonzero(np.any(trace.hidden[t] != trace.hidden[t - 1], axis=1))
            assert list(changed) == list(a)

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
        h = embed(model, [-1, 0], [0, 1])
        assert np.array_equal(h[0], positional_encoding(2, 8)[0])

    def test_out_of_vocab_id_rejected(self):
        model = random_model(8, 2, 8, 2, 16, seed=14)
        with pytest.raises(InputError):
            embed(model, [8], [0])

    @pytest.mark.parametrize("ids, positions, error", [
        ([1.9], [0], InputError),       # once embedded as token 1
        ([1], [0.5], InputError),       # once embedded at position 0
        ([True], [0], InputError),
        ([[1]], [0], ShapeError),
    ], ids=["float-ids", "float-positions", "bool-ids", "nested-ids"])
    def test_embed_takes_integer_vectors(self, ids, positions, error):
        model = random_model(4, 1, 8, 2, 16, seed=14)
        with pytest.raises(error):
            embed(model, ids, positions)

    @pytest.mark.parametrize("field", ["ids", "exits", "offsets"])
    def test_float_vectors_rejected(self, field):
        # each float vector would run truncated: ids as other tokens, exits
        # as lower layers, offsets as other document starts
        model = random_model(8, 2, 8, 2, 16, seed=15)
        batch = {"ids": np.array([1, 2, 3]), "exits": np.array([1, 2, 2]),
                 "offsets": np.array([0, 2, 3])}
        batch[field] = batch[field] + 0.9
        with pytest.raises(InputError, match="must be integers"):
            forward(model, PackedBatch(**batch))
        if field == "ids":
            with pytest.raises(InputError, match="must be integers"):
                forward(model, batch["ids"], all_last_schedule(3, 2))

    def test_nested_ids_rejected(self):
        model = random_model(8, 2, 8, 2, 16, seed=16)
        with pytest.raises(ShapeError, match="flat sequence"):
            forward(model, PackedBatch([[1], [2, 3]], [2, 2, 2], [0, 3]))


def no_exit_corpus(model, sequences):
    """The id sequences packed as one PackedBatch, every row to layer L."""
    ids, offsets = pack(sequences)
    return PackedBatch(ids, np.full(ids.size, model.num_layers), offsets)


def row_budget(model):
    """Rows of the first batch that `batches` cuts from one-row documents,
    one more of them than BATCH_ROWS: its row budget for this model."""
    cut = encoder.batches(
        model, no_exit_corpus(model, [[0]] * (encoder.BATCH_ROWS + 1)))
    return next(cut)[1].offsets[-1]


def random_batch(rng, model, docs):
    """Ragged documents with random exits."""
    L, V = model.num_layers, model.vocab_size
    ids_list, schedules = [], []
    for _ in range(docs):
        n = int(rng.integers(1, 12))
        ids_list.append(rng.integers(-1, V, size=n))
        schedules.append(ExitSchedule(rng.integers(1, L + 1, size=n),
                                      np.ones(n, dtype=bool)))
    return ids_list, schedules


class TestForwardBatch:
    def test_matches_per_document_forward(self):
        rng = np.random.default_rng(40)
        model = random_model(12, 4, 8, 2, 16, seed=41)
        for _ in range(10):
            ids_list, schedules = random_batch(rng, model, int(rng.integers(1, 9)))
            finals = forward_docs(model, ids_list, schedules)
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
        finals = forward_docs(model, ids_list, schedules)
        for k in range(1, 4):
            head = EncoderModel(d=8, heads=2, d_ff=16, layers=model.layers[:k],
                                embedding=model.embedding)
            capped = [ExitSchedule(np.minimum(s.exit_layer, k), s.attn_mask)
                      for s in schedules]
            short = forward_docs(head, ids_list, capped)
            for sched, got, ref in zip(schedules, finals, short):
                rows = sched.exit_layer == k
                assert np.array_equal(got[rows], ref[rows])

    def test_no_exit_matches_vanilla(self):
        rng = np.random.default_rng(44)
        model = random_model(12, 3, 8, 2, 16, seed=45)
        ids_list = [rng.integers(0, 12, size=int(rng.integers(1, 15))) for _ in range(9)]
        schedules = [all_last_schedule(ids.size, 3) for ids in ids_list]
        for ids, got in zip(ids_list, forward_docs(model, ids_list, schedules)):
            assert np.max(np.abs(got - vanilla_forward(model, ids))) < 1e-9

    def test_documents_do_not_see_each_other(self):
        model = random_model(12, 2, 8, 2, 16, seed=46)
        a, b = np.array([1, 2, 3]), np.array([4, 5])
        sched_a, sched_b = all_last_schedule(3, 2), all_last_schedule(2, 2)
        alone = forward_docs(model, [a], [sched_a])[0]
        for other in (b, np.array([9, 9]), np.array([0, 7])):
            packed = forward_docs(model, [other, a], [sched_b, sched_a])[1]
            assert np.max(np.abs(packed - alone)) <= 1e-12

    def test_forward_takes_a_batch(self):
        # a single sequence is a batch of one: both forms run one path
        rng = np.random.default_rng(51)
        model = random_model(12, 3, 8, 2, 16, seed=52)
        ids_list, schedules = random_batch(rng, model, 5)
        for ids, sched in zip(ids_list, schedules):
            got, = forward_docs(model, [ids], [sched])
            assert np.array_equal(got, forward(model, ids, sched).final)

    def test_batches_bound_the_states(self, monkeypatch):
        # rows of h: BATCH_ROWS, and STATE_FLOATS over d; d_ff does not count
        assert row_budget(random_model(12, 2, 256, 4, 1024)) == 2048
        assert row_budget(random_model(12, 2, 8, 2, 16)) == encoder.BATCH_ROWS
        wide_ffn = random_model(12, 1, 4, 2, 2 * encoder.BATCH_FLOATS)
        assert row_budget(wide_ffn) == encoder.BATCH_ROWS
        assert row_budget(random_model(12, 1, 768, 12, 8)) == \
            encoder.STATE_FLOATS // 768
        monkeypatch.setattr(encoder, "STATE_FLOATS", 4)
        assert row_budget(random_model(12, 1, 8, 2, 16)) == 1

    def test_empty_batch(self):
        model = random_model(12, 2, 8, 2, 16, seed=47)
        assert forward_docs(model, [], []) == []
        assert forward(model, packed_batch([], [])).shape == (0, 8)

    def test_length_mismatch(self):
        model = random_model(12, 2, 8, 2, 16, seed=48)
        with pytest.raises(ShapeError):
            forward_docs(model, [[0, 1]], [])
        with pytest.raises(ShapeError):
            forward_docs(model, [[0, 1], [2]], [all_last_schedule(2, 2),
                                           all_last_schedule(2, 2)])

    def test_flat_batch_validation(self):
        # the flat batch raises the typed errors the list form raised
        model = random_model(12, 2, 8, 2, 16, seed=53)

        def batch(ids, exits, offsets):
            return PackedBatch(*(np.array(a, dtype=np.int64)
                                 for a in (ids, exits, offsets)))

        assert forward(model, batch([0, 1, 2], [2, 1, 2], [0, 2, 3])).shape == (3, 8)
        cases = [
            (InputError, batch([0, 1], [2, 2], [0, 0, 2])),        # empty document
            (InputError, batch([0] * 513, [2] * 513, [0, 513])),   # over 512
            (ShapeError, batch([0, 1, 2], [2, 2], [0, 3])),        # ids vs exits
            (ShapeError, batch([[0, 1]], [[2, 2]], [0, 2])),       # not flat
            (ShapeError, batch([0, 1], [2, 2], [0, 1])),           # short offsets
            (ShapeError, batch([0, 1], [2, 2], [1, 2])),
            (ShapeError, batch([0, 1], [2, 2], [])),
            (ShapeError, batch([0, 1, 2], [2, 2, 2], [0, 2, 1, 3])),  # falling
            (ConfigError, batch([0, 1], [2, 0], [0, 2])),          # exit below 1
            (ConfigError, batch([0, 1], [2, 3], [0, 2])),          # above L
        ]
        for error, bad in cases:
            with pytest.raises(error):
                forward(model, bad)
            with pytest.raises(error):
                forward(model, bad, traces=True)
            # batches checks the corpus as forward does, before it cuts or
            # gathers a row; only forward rejects an empty document
            if bad.offsets.tolist() != [0, 0, 2]:
                with pytest.raises(error):
                    next(encoder.batches(model, bad))

    @pytest.mark.parametrize("exits, offsets", [
        ([1, 2, 2], [0, 2, 1, 3]),  # falling
        ([1, 2, 2], [0, 2]),        # short of the row count
        ([1, 2, 2], [1, 3]),        # not starting at row 0
        ([1, 0, 2], [0, 1, 3]),     # an exit of 0
        ([1, 3, 2], [0, 1, 3]),     # an exit above L
        ([1.0, 2.0, 2.0], [0, 1, 3]),
        ([2] * 3 + [1] * 600, [0, 3, 603]),  # a document of 600 rows
    ], ids=["falling", "short", "late-start", "exit-0", "exit-beyond-L",
            "float-exits", "longer-than-512"])
    def test_forward_and_report_reject_a_layout_alike(self, exits, offsets):
        # one layout check: the schedule forward runs, the corpus batches
        # cuts and the one report prices fail it the same way, and route
        # reads the offsets by the same rule
        model = random_model(12, 2, 8, 2, 16, seed=56)
        ids = np.arange(len(exits)) % 12
        table = build_random(Vocab(tuple(f"w{i}" for i in range(12))), 2, 2,
                             seed=4)
        calls = [lambda: forward(model, PackedBatch(ids, exits, offsets)),
                 lambda: next(encoder.batches(model,
                                              PackedBatch(ids, exits, offsets))),
                 lambda: report(ModelDims(2, 8, 2, 16), exits, offsets)]
        if offsets not in ([0, 1, 3], [0, 3, 603]):  # the offsets cases
            calls.append(lambda: route(ids, offsets, table, 2))
        raised = []
        for call in calls:
            with pytest.raises(HashExitError) as caught:
                call()
            raised.append((type(caught.value), str(caught.value)))
        assert raised == raised[:1] * len(calls)

    def test_batches_respect_budget(self, monkeypatch):
        monkeypatch.setattr(encoder, "BATCH_ROWS", 10)
        model = random_model(12, 3, 8, 2, 16, seed=54)
        lengths = [4, 12, 3, 3, 5, 1, 9]
        corpus = no_exit_corpus(model, [list(range(n)) for n in lengths])
        batches = [batch.tolist() for batch, _ in encoder.batches(model, corpus)]
        assert sorted(i for b in batches for i in b) == list(range(len(lengths)))
        for batch in batches:
            rows = sum(lengths[i] for i in batch)
            assert rows <= 10 or len(batch) == 1
        # shortest first, cut where the next document would overflow
        assert batches == greedy_batches(lengths, 10)
        assert list(encoder.batches(model, no_exit_corpus(model, []))) == []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_batches_gather_the_corpus_rows(self, monkeypatch, data):
        # batches only cuts: its index lists are greedy_batches' and each
        # batch holds its documents' corpus rows (ids and exits) in order,
        # empty documents included
        budget = data.draw(st.integers(1, 24), label="rows")
        monkeypatch.setattr(encoder, "BATCH_ROWS", budget)
        model = random_model(12, 4, 8, 2, 16, seed=57)
        docs = data.draw(st.lists(st.lists(st.tuples(st.integers(-1, 11),
                                                     st.integers(1, 4)),
                                           max_size=30), max_size=15),
                         label="docs")
        ids, offsets = pack([[t for t, _ in doc] for doc in docs])
        exits = np.array([e for doc in docs for _, e in doc], dtype=np.int64)
        cut = list(encoder.batches(model, PackedBatch(ids, exits, offsets)))
        assert [batch.tolist() for batch, _ in cut] == greedy_batches(
            [len(doc) for doc in docs], budget)
        for batch, packed in cut:
            want = [docs[i] for i in batch]
            assert packed.offsets.tolist() == np.cumsum(
                [0] + [len(doc) for doc in want]).tolist()
            assert packed.ids.tolist() == [t for doc in want for t, _ in doc]
            assert packed.exits.tolist() == [e for doc in want for _, e in doc]
            for part in (packed.ids, packed.exits, packed.offsets):
                assert part.dtype == np.int64

    def test_batches_of_empty_documents_raise(self):
        # a document with no rows lands in a batch like any other, and
        # forward rejects it: a batch of empty documents is never skipped,
        # which would leave their features unset
        model = random_model(12, 2, 8, 2, 16, seed=55, num_classes=2)
        table = build_random(Vocab(tuple(f"w{i}" for i in range(12))), 2, 2, seed=5)
        cut = list(encoder.batches(model, route(*pack([[], [3], []]), table, 2)))
        assert [batch.tolist() for batch, _ in cut] == [[0, 2, 1]]
        assert cut[0][1].offsets.tolist() == [0, 0, 0, 1]
        for seqs in ([[], []], [[]], [[], [1, 2]]):
            with pytest.raises(InputError, match="empty sequence"):
                encoder.cls_features(model, [(seqs, table)])
            with pytest.raises(InputError, match="empty sequence"):
                accuracy(model, seqs, [0] * len(seqs), table)
            with pytest.raises(InputError, match="empty sequence"):
                train_toy(model, seqs, [0] * len(seqs), table, epochs=1)

    def test_cls_features_cross_batches(self, monkeypatch):
        rng = np.random.default_rng(49)
        model = random_model(11, 2, 8, 2, 16, seed=50)
        table = build_random(Vocab(tuple(f"w{i}" for i in range(11))), 2, 2, seed=3)
        seqs = [list(rng.integers(0, 11, size=int(rng.integers(1, 9)))) for _ in range(30)]
        whole = encoder.cls_features(model, [(seqs, table)])
        # batches of 16 rows, and layers run in groups of about 4 rows
        monkeypatch.setattr(encoder, "BATCH_ROWS", 16)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 4)
        assert row_budget(model) == 16
        assert len(list(encoder.batches(model, route(*pack(seqs), table, 2)))) > 3
        split = encoder.cls_features(model, [(seqs, table)])
        for seq, got in zip(seqs, split):
            sched = schedule(seq, table, 2, pin_first=True)
            assert np.max(np.abs(got - forward(model, seq, sched).final[0])) <= 1e-12
        assert np.max(np.abs(split - whole)) <= 1e-12



def mid_batch(rng, model, max_rows, exits=(1, 2, 3), p=(0.8, 0.1, 0.1)):
    """Documents of 64-128 tokens up to max_rows rows, most tokens exiting
    at layer 1 and position 0 pinned to the top, as routed corpora do."""
    ids_list, schedules, rows = [], [], 0
    while True:
        n = int(rng.integers(64, 129))
        if rows + n > max_rows:
            return ids_list, schedules
        rows += n
        ids_list.append(rng.integers(-1, model.vocab_size, size=n))
        e = rng.choice(exits, p=p, size=n)
        e[0] = model.num_layers
        schedules.append(ExitSchedule(e, np.ones(n, dtype=bool)))


class TestCorpusAgainstReference:
    """Random corpora walked through `batches` and `forward` give each
    document the states of the plain reference encoder with per-row exits
    (helpers.vanilla_forward), across many batches and layer groups."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_routed_corpus_matches_reference(self, monkeypatch, data):
        V, d, d_ff = 10, 8, 12
        L = data.draw(st.integers(2, 4), label="L")
        heads = data.draw(st.sampled_from([1, 2, 4]), label="heads")
        model = random_model(V, L, d, heads, d_ff,
                             seed=data.draw(st.integers(0, 99), label="seed"))
        B = data.draw(st.integers(1, L), label="B")
        # token 0 sits in bucket 0, so it exits at layer 1
        buckets = [0] + data.draw(st.lists(st.integers(0, B - 1), min_size=V - 1,
                                           max_size=V - 1), label="buckets")
        table = HashTable("rand-cons", B, L, 0, tuple(f"t{i}" for i in range(V)),
                          np.array(buckets))
        docs = data.draw(st.lists(st.lists(st.integers(-1, V - 1), min_size=1,
                                           max_size=40),
                                  min_size=1, max_size=12), label="docs")
        # one query row above layer 1 among many keys: that document's
        # layer 2 takes the reassociated attention
        docs.append([0] * data.draw(st.integers(3, 40), label="sparse"))
        budget = data.draw(st.sampled_from([1, 16, 48]), label="rows")
        if data.draw(st.booleans(), label="state floats"):
            monkeypatch.setattr(encoder, "STATE_FLOATS", budget * d)
        else:
            monkeypatch.setattr(encoder, "BATCH_ROWS", budget)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", data.draw(
            st.sampled_from([1, 4 * d_ff, 16 * d_ff]), label="batch floats"))
        associations = []
        real = encoder._attention

        def spy(*args):
            associations.append(args[4])  # reassociate
            return real(*args)

        monkeypatch.setattr(encoder, "_attention", spy)
        try:
            seen = []
            for batch, packed in encoder.batches(model,
                                                 route(*pack(docs), table, L)):
                assert packed.offsets[-1] <= budget or len(batch) == 1
                final = forward(model, packed)
                for i, lo, hi in zip(batch, packed.offsets, packed.offsets[1:]):
                    exits = [L] + [reference_exit(table, t) for t in docs[i][1:]]
                    assert packed.exits[lo:hi].tolist() == exits
                    want = vanilla_forward(model, docs[i], exits)
                    assert np.max(np.abs(final[lo:hi] - want)) <= 1e-12
                seen += batch.tolist()
            assert sorted(seen) == list(range(len(docs)))
            assert True in associations and False in associations
        finally:
            monkeypatch.undo()  # the next example patches afresh


class TestLayerGroups:
    """forward_layer runs a batch's documents in groups sized to the layer's
    work, inside one call per layer."""

    @staticmethod
    def count_groups(monkeypatch):
        groups = []
        real = encoder._layer_rows

        def counted(h, weights, active, heads, sizes, *rest):
            groups.append((sizes.size, len(h), active.size))
            return real(h, weights, active, heads, sizes, *rest)

        monkeypatch.setattr(encoder, "_layer_rows", counted)
        return groups

    def test_one_forward_layer_call_per_layer(self, monkeypatch):
        # bench/ numbers a forward's forward_layer calls as its layers
        rng = np.random.default_rng(80)
        model = random_model(12, 4, 8, 2, 16, seed=81)
        ids_list, schedules = random_batch(rng, model, 12)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 2)
        groups = self.count_groups(monkeypatch)
        calls = []
        real = encoder.forward_layer

        def counted(h, weights, active, **kwargs):
            calls.append(weights)
            return real(h, weights, active, **kwargs)

        monkeypatch.setattr(encoder, "forward_layer", counted)
        for traces in (False, True):
            calls.clear()
            groups.clear()
            forward_docs(model, ids_list, schedules, traces=traces)
            assert [id(w) for w in calls] == [id(w) for w in model.layers]
            assert len(groups) > 2 * model.num_layers
        # a float64 array is overwritten in place and returned; a list is
        # converted into a new array, with the same bits, and left alone
        bounds = np.cumsum([0] + [ids.size for ids in ids_list])
        weights = model.layers[0]
        h = rng.normal(size=(bounds[-1], 8))
        active = np.flatnonzero(rng.random(bounds[-1]) < 0.4)
        listed = h.tolist()
        converted = real(listed, weights, active, heads=2, segments=bounds)
        assert listed == h.tolist()
        assert real(h, weights, active, heads=2, segments=bounds) is h
        assert h.tobytes() == converted.tobytes()

    def test_traces_stream_copies(self, monkeypatch):
        # a traced forward runs each layer only when its iterator reaches
        # it, every layer updating one state matrix in place, and yields a
        # copy of each state, so a caller can keep some and drop the rest
        rng = np.random.default_rng(91)
        model = random_model(12, 4, 8, 2, 16, seed=92)
        batch = packed_batch(*random_batch(rng, model, 5))
        in_place = []
        real = encoder.forward_layer

        def counted(h, weights, active, **kwargs):
            new = real(h, weights, active, **kwargs)
            in_place.append(new is h)
            return new

        monkeypatch.setattr(encoder, "forward_layer", counted)
        states = forward(model, batch, traces=True)
        first = next(states)
        assert in_place == []
        every = [first] + list(states)
        assert in_place == [True] * model.num_layers
        assert len(every) == model.num_layers + 1
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(every) for b in every[i + 1:])
        assert np.array_equal(every[-1], forward(model, batch))
        assert in_place == [True] * 2 * model.num_layers

    def test_forward_never_writes_its_inputs(self, monkeypatch):
        # the kernels overwrite whatever they are handed, so a forward must
        # hand them only its own state matrix and temporaries
        model = random_model(12, 3, 8, 2, 16, seed=64, num_classes=2)
        rng = np.random.default_rng(65)
        exits = [np.full(10, 3), np.array([3] + [1] * 9),
                 np.ones(4, dtype=np.int64), np.array([3, 2, 2, 1, 1, 1, 1, 3]),
                 np.array([3, 1, 1, 1, 1, 1, 3, 3, 1, 1, 1])]
        batch = packed_batch([rng.integers(0, 12, size=e.size) for e in exits],
                             [ExitSchedule(e, np.ones(e.size, dtype=bool))
                              for e in exits])
        inputs = ([batch.ids, batch.exits, batch.offsets, model.embedding,
                   model.head]
                  + [getattr(lw, name) for lw in model.layers
                     for name in encoder._LAYER_FIELDS])
        before = [a.tobytes() for a in inputs]
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 2)
        groups = self.count_groups(monkeypatch)
        associations = []
        real = encoder._attention

        def spy(q, hk, weights, heads, reassociate, *rest):
            associations.append(reassociate)
            return real(q, hk, weights, heads, reassociate, *rest)

        monkeypatch.setattr(encoder, "_attention", spy)
        forward(model, batch)
        list(forward(model, batch, traces=True))
        assert len(groups) > 2 * 2 * model.num_layers
        assert set(associations) == {False, True}
        assert [a.tobytes() for a in inputs] == before

    @pytest.mark.parametrize("budget", [1, 16 * 5])
    def test_many_groups_match_one(self, monkeypatch, budget):
        # budget 1 gives each document with an active row a group of its
        # own; 16 * 5 groups documents by about 5 active rows or 10 rows
        rng = np.random.default_rng(82)
        model = random_model(12, 4, 8, 2, 16, seed=83)
        for _ in range(6):
            ids_list, schedules = random_batch(rng, model, int(rng.integers(2, 14)))
            one = forward_docs(model, ids_list, schedules)
            monkeypatch.setattr(encoder, "BATCH_FLOATS", budget)
            groups = self.count_groups(monkeypatch)
            many = forward_docs(model, ids_list, schedules)
            assert len(groups) > model.num_layers
            for got, want in zip(many, one):
                assert np.max(np.abs(got - want)) <= 1e-12
            for k in range(1, 4):
                # a row exiting at k keeps, bit for bit, its state after k
                # layers of the same grouped run
                head = EncoderModel(d=8, heads=2, d_ff=16, layers=model.layers[:k],
                                    embedding=model.embedding)
                capped = [ExitSchedule(np.minimum(s.exit_layer, k), s.attn_mask)
                          for s in schedules]
                short = forward_docs(head, ids_list, capped)
                for sched, got, ref in zip(schedules, many, short):
                    rows = sched.exit_layer == k
                    assert np.array_equal(got[rows], ref[rows])
            monkeypatch.undo()

    def test_groups_at_mid_shape(self, monkeypatch):
        # a full mid batch: the dense layer runs groups of about 384 rows,
        # the sparse ones groups of about 16 documents
        rng = np.random.default_rng(84)
        model = random_model(300, 2, 256, 4, 1024, seed=85)
        ids_list, schedules = mid_batch(rng, model, row_budget(model),
                                        exits=(1, 2), p=(0.8, 0.2))
        groups = self.count_groups(monkeypatch)
        grouped = forward_docs(model, ids_list, schedules)
        dense = [g for g in groups if g[1] == g[2]]
        sparse = [g for g in groups if g[1] > g[2]]
        assert len(dense) + len(sparse) == len(groups)
        assert len(dense) >= 5 and all(rows <= 384 for _, rows, _ in dense)
        assert len(sparse) == 2 and 12 <= sparse[0][0] <= 20
        assert all(rows <= 1536 for _, rows, _ in sparse)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 1 << 40)
        groups.clear()
        whole = forward_docs(model, ids_list, schedules)
        assert [docs for docs, _, _ in groups] == [len(ids_list)] * 2
        for got, want in zip(grouped, whole):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_peak_memory_stays_near_states(self):
        # without traces one forward over a full mid batch holds its states
        # plus one group's temporaries; a single ungrouped call held 12x
        model = random_model(300, 3, 256, 4, 1024, seed=87)
        for seed in [86, 1, 2, 3, 4, 5]:
            rng = np.random.default_rng(seed)
            ids_list, schedules = mid_batch(rng, model, row_budget(model))
            h_nbytes = sum(ids.size for ids in ids_list) * model.d * 8
            tracemalloc.start()
            try:
                forward_docs(model, ids_list, schedules)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * h_nbytes, seed

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_peak_memory_at_bert_base_width(self, num_layers):
        # at d=768 a full batch holds 682 rows; grouping keeps one forward
        # near its states there as well, where one ungrouped call held 10x
        rng = np.random.default_rng(89)
        model = random_model(50, num_layers, 768, 12, 3072, seed=90)
        lengths = [256, 200, 130, 96]
        assert sum(lengths) == row_budget(model) == 682
        ids_list = [rng.integers(-1, 50, size=n) for n in lengths]
        schedules = []
        for n in lengths:
            e = rng.integers(1, num_layers + 1, size=n)
            e[0] = num_layers
            schedules.append(ExitSchedule(e, np.ones(n, dtype=bool)))
        h_nbytes = sum(lengths) * model.d * 8
        tracemalloc.start()
        try:
            forward_docs(model, ids_list, schedules)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * h_nbytes

    def test_peak_memory_of_folded_layers_at_bert_base_width(self, monkeypatch):
        # layer 2 leaves each document of the full d=768 batch the most
        # active rows that still reassociate, so every document folds its
        # heads into (rows, 12, 768) queries; _groups counts those 12·768
        # floats a row, which gives each document a group of its own, and
        # the peak stays within the same bound
        rng = np.random.default_rng(93)
        model = random_model(50, 2, 768, 12, 3072, seed=90)
        lengths = [256, 200, 130, 96]
        active = [_fewest_standard(n, 768, 12) - 1 for n in lengths]
        assert active == [54, 51, 45, 40]
        ids_list = [rng.integers(-1, 50, size=n) for n in lengths]
        schedules = []
        for n, m in zip(lengths, active):
            e = np.ones(n, dtype=np.int64)
            e[0] = 2
            e[1 + rng.choice(n - 1, size=m - 1, replace=False)] = 2
            schedules.append(ExitSchedule(e, np.ones(n, dtype=bool)))
        folded_rows = []
        real = encoder._folded_attention

        def spy(q, *args):
            folded_rows.append(q.shape[0])
            return real(q, *args)

        monkeypatch.setattr(encoder, "_folded_attention", spy)
        h_nbytes = sum(lengths) * model.d * 8
        tracemalloc.start()
        try:
            forward_docs(model, ids_list, schedules)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert folded_rows == active  # two documents would overflow it
        assert peak <= 4 * h_nbytes

    def test_cls_features_memory_stays_near_one_batch(self):
        # cls_features over two full mid batches holds one batch's states
        # at a time: the bound of one forward, plus the features. States
        # kept from the first batch while the second runs would also lift
        # the peak above that of either batch run alone
        rng = np.random.default_rng(88)
        model = random_model(300, 3, 256, 4, 1024, seed=87)
        table = HashTable("rand-cons", 3, 3, 0, tuple(f"t{i}" for i in range(300)),
                          rng.choice(3, p=(0.8, 0.1, 0.1), size=300))
        budget = row_budget(model)
        seqs = [list(rng.integers(-1, 300, size=n)) for n in [64] * 16 + [128] * 24]
        lengths = [len(seq) for seq in seqs]
        batches = [batch for batch, _ in
                   encoder.batches(model, route(*pack(seqs), table, 3))]
        assert [sum(lengths[i] for i in batch) for batch in batches] == [budget] * 2

        def peak_of(seqs):
            tracemalloc.start()
            try:
                feats = encoder.cls_features(model, [(seqs, table)])
                return feats, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        feats, peak = peak_of(seqs)
        assert peak <= 4 * budget * model.d * 8 + feats.nbytes
        alone = max(peak_of([seqs[i] for i in batch])[1] for batch in batches)
        assert peak <= alone + feats.nbytes

    def test_cls_features_holds_one_batch_of_states(self):
        # a walk over random mid documents, at least two full batches, peaks
        # within 3x one full batch's states; a state matrix kept one batch
        # too long, such as the previous batch's forward output, lifts the
        # peak past that, which a single forward cannot show
        rng = np.random.default_rng(86)
        model = random_model(300, 3, 256, 4, 1024, seed=87)
        table = HashTable("rand-cons", 3, 3, 0, tuple(f"t{i}" for i in range(300)),
                          rng.choice(3, p=(0.8, 0.1, 0.1), size=300))
        seqs = [rng.integers(-1, 300, size=int(rng.integers(64, 129)))
                for _ in range(40)]
        budget = row_budget(model)
        cut = [packed.offsets[-1] for _, packed in
               encoder.batches(model, route(*pack(seqs), table, 3))]
        assert len(cut) >= 2 and cut[0] > budget - 128
        tracemalloc.start()
        try:
            encoder.cls_features(model, [(seqs, table)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * budget * model.d * 8

    @staticmethod
    def golden_documents():
        """The model and the five (ids, schedule) documents of the
        single-document golden traces."""
        model = random_model(300, 12, 256, 4, 1024, seed=70)
        rng = np.random.default_rng(71)
        docs = []
        for n in (1, 7, 96, 64, 512):
            ids = rng.integers(-1, 300, size=n)
            exits = rng.choice([1, 5, 9, 12], p=[0.79, 0.11, 0.09, 0.01], size=n)
            if n == 64:
                exits[:] = 12  # no exit: every layer dense
            exits[0] = 12
            docs.append((ids, ExitSchedule(exits, np.ones(n, dtype=bool))))
        return model, docs

    @staticmethod
    def golden_batch(shape):
        """The model and the PackedBatch of the packed golden traces."""
        dims = {"toy": (6, 8, 2, 16), "mid": (6, 64, 4, 128)}[shape]
        model = random_model(50, *dims, seed=72)
        L = model.num_layers
        rng = np.random.default_rng(73)
        exits = [np.full(24, L),                        # dense
                 np.ones(9, dtype=np.int64),            # no active row above 1
                 np.array([L]),                         # one token
                 np.array([L] + [1] * 39),              # one query row
                 np.ones(3, dtype=np.int64)]
        for n in (40, 17, 64, 5, 31):
            e = rng.choice([1, 2, 4, L], p=[0.6, 0.2, 0.1, 0.1], size=n)
            e[0] = L
            exits.append(e)
        ids_list = [rng.integers(-1, 50, size=e.size) for e in exits]
        schedules = [ExitSchedule(e, np.ones(e.size, dtype=bool)) for e in exits]
        return model, packed_batch(ids_list, schedules)

    # sha256 of the states H^0..H^12 of five single documents at the mid
    # shape, recorded before layers ran in groups and updated states in
    # place; the grouped, in-place forward must give the same bits. The
    # float64 results are those of numpy's bundled OpenBLAS; another BLAS
    # may round the matmuls differently. GOLDEN_MID_TRACES holds the
    # stacked attention's bits, GOLDEN_MID_TRACES_FOLDED those of every
    # reassociated document attending folded (FOLDED_FLOATS 0), recorded
    # after test_folded_agrees_with_stacked_on_golden_inputs passed.
    GOLDEN_MID_TRACES = \
        "6001075080b2f74357a7013d2a4cb0a8142479c5cba1ee100ceb600456fbce74"
    GOLDEN_MID_TRACES_FOLDED = \
        "6ac5e045eb7d47095f1693d64a0d51919aefe8e0ab635fcb132028b11916077d"

    @pytest.mark.parametrize("folded", [False, True], ids=["stacked", "folded"])
    def test_golden_single_document_traces(self, monkeypatch, folded):
        fold(monkeypatch, folded)
        model, docs = self.golden_documents()
        digest = hashlib.sha256()
        for ids, sched in docs:
            for state in forward(model, ids, sched).hidden:
                digest.update(state.tobytes())
        assert digest.hexdigest() == (self.GOLDEN_MID_TRACES_FOLDED if folded
                                      else self.GOLDEN_MID_TRACES)

    # sha256 of the packed states H^0..H^L of multi-document batches,
    # recorded before attention padded its operands by per-document counts.
    # Each batch holds a dense document, documents with no active row above
    # layer 1 and documents of one or a few active rows, so that its layers
    # take both associations; budget 1 runs each document with an active
    # row as a group of its own. The float64 results are those of numpy's
    # bundled OpenBLAS; another BLAS may round the matmuls differently.
    # GOLDEN_PACKED_TRACES holds the stacked attention's bits, and
    # GOLDEN_PACKED_TRACES_FOLDED those of every reassociated document
    # attending folded, as for the single documents.
    GOLDEN_PACKED_TRACES = {
        ("toy", None):
            "829ced7ced11fd659beccd798d58913f9f18a2de9b39a8d4525dad9872ef20fc",
        ("toy", 1):
            "d5345d37f0ca1da9374ce6a0b4c824118ca8971b59c6a37a4bbf1f11548ba355",
        ("toy", 80):
            "d5345d37f0ca1da9374ce6a0b4c824118ca8971b59c6a37a4bbf1f11548ba355",
        ("mid", None):
            "694b0d5d3e4dba2d0057bab24a8b7c637ba0225a12c329acbe2fb8bc9746d92e",
        ("mid", 1):
            "af2d0d5586eaffc2ac900bec27c45290fc9e77cb782982ececb84cb449114725",
        ("mid", 4096):
            "89af4e80aa64645a464b8eb07f79f5f959810e9ef5c7a1c23bfefc1d6fde7853",
    }
    GOLDEN_PACKED_TRACES_FOLDED = {
        ("toy", None):
            "87beb8d7237503cca71ad1729a74d4187b92e1b8e1b58b0b80213b37df47684f",
        ("toy", 1):
            "ee71b3a38fa026a8fa6def5eb5baf5cea039906ccdeeeec04aef02570984db04",
        ("toy", 80):
            "ee71b3a38fa026a8fa6def5eb5baf5cea039906ccdeeeec04aef02570984db04",
        ("mid", None):
            "17bdf5d20b04d39be4301455d14af0571921e862f26d594c69acd6b0a08f79b3",
        ("mid", 1):
            "348800a509f87e75b7ac6d3103aa11f3d07c3210d7bb330ec998306a09c746c2",
        ("mid", 4096):
            "5fa02d8034e96f4170ddf3898c850c771cdc4189e4a4210f49300bd1cc4e72bf",
    }

    @pytest.mark.parametrize("shape, budget, folded", [
        pytest.param(shape, budget, folded,
                     id=f"{shape}-{budget}" + ("-folded" if folded else ""))
        for shape, budget in GOLDEN_PACKED_TRACES for folded in (False, True)])
    def test_golden_packed_traces(self, monkeypatch, shape, budget, folded):
        fold(monkeypatch, folded)
        model, batch = self.golden_batch(shape)
        L = model.num_layers
        if budget is not None:
            monkeypatch.setattr(encoder, "BATCH_FLOATS", budget)
        ways = spy_ways(monkeypatch)
        states = list(forward(model, batch, traces=True))
        seen = set().union(*ways)
        reassociated = encoder._FOLDED if folded else encoder._REASSOCIATED
        assert seen == {encoder._STANDARD, reassociated}
        if budget == 1:
            assert len(ways) > 3 * L
        digest = hashlib.sha256()
        for state in states:
            digest.update(state.tobytes())
        golden = (self.GOLDEN_PACKED_TRACES_FOLDED if folded
                  else self.GOLDEN_PACKED_TRACES)
        assert digest.hexdigest() == golden[shape, budget]

    def test_folded_agrees_with_stacked_on_golden_inputs(self, monkeypatch):
        # both selections on the inputs of both golden tests: their states
        # agree to 1e-12, and within each run every row keeps, bit for
        # bit, its state from its exit layer up
        model, docs = self.golden_documents()
        runs = [(model, packed_batch([ids], [sched]), None) for ids, sched in docs]
        runs += [(*self.golden_batch(shape), budget)
                 for shape, budget in self.GOLDEN_PACKED_TRACES]
        for model, batch, budget in runs:
            if budget is not None:
                monkeypatch.setattr(encoder, "BATCH_FLOATS", budget)
            both = []
            for folded in (False, True):
                fold(monkeypatch, folded)
                states = list(forward(model, batch, traces=True))
                assert_frozen_rows_exact(states, batch.exits)
                both.append(states)
            for stacked, folded in zip(*both):
                assert np.max(np.abs(stacked - folded)) <= 1e-12
            monkeypatch.undo()


class TestPositionalEncoding:
    def test_matches_independent_construction(self):
        assert np.array_equal(positional_encoding(7, 10), sinusoidal_positions(7, 10))

    def test_position_zero(self):
        pe = positional_encoding(3, 4)
        assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0])


class TestClassify:
    # classify reads one row of scores per row of features
    def test_zero_head(self):
        model = random_model(5, 1, 4, 1, 8, seed=0, num_classes=3)
        model.head = np.zeros((4, 3))
        scores = classify(model, np.ones((2, 4)))
        assert np.array_equal(scores, np.zeros((2, 3)))

    def test_identity_head_passthrough(self):
        model = random_model(5, 1, 4, 1, 8, seed=0, num_classes=4)
        model.head = np.eye(4)
        feats = np.arange(8.0).reshape(2, 4)
        assert np.array_equal(classify(model, feats), feats)

    def test_hand_two_class(self):
        model = random_model(5, 1, 4, 1, 8, seed=0, num_classes=2)
        model.head = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        feats = np.array([[0.2, 0.9, 5.0, -5.0], [1.0, -1.0, 0.0, 0.0]])
        scores = classify(model, feats)
        assert scores == pytest.approx(np.array([[0.2, 0.9], [1.0, -1.0]]))
        assert np.argmax(scores, axis=1).tolist() == [1, 0]

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

    @pytest.mark.parametrize("head, labels, bad", [
        (None, [-1] * 30, -1), (None, [0, -1] * 15, -1),
        (2, [0, 1] * 14 + [2, 0], 2), (2, [1] * 29 + [-2], -2),
        (2, [5, 0] * 15, 5)])
    def test_labels_outside_the_classes(self, head, labels, bad):
        # a new head takes its classes from the labels, so only a negative
        # label is out; a 2-class head also refuses 2 and above
        seqs, _, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=2, num_classes=head)
        with pytest.raises(InputError, match=f"label {bad} is not a class"):
            train_toy(model, seqs, labels, table, epochs=1)

    @pytest.mark.parametrize("labels, error", [
        pytest.param([0.5, 1.7] * 15, InputError, id="floats"),
        pytest.param(["0", "1"] * 15, InputError, id="strings"),
        pytest.param([[0, 1]] * 30, ShapeError, id="per-document-lists"),
        pytest.param([[0]] * 29 + [[0, 1]], ShapeError, id="ragged-lists"),
        pytest.param(5, ShapeError, id="scalar"),
        pytest.param(None, ShapeError, id="none"),
        pytest.param([0, 1] * 14, ShapeError, id="too-few"),
        pytest.param([0, 1] * 16, ShapeError, id="too-many")])
    def test_labels_must_be_a_flat_integer_vector(self, labels, error):
        # floats trained as their truncations, and the others raised bare
        # numpy errors. A scalar, or a label count other than the rows, is
        # a ShapeError everywhere
        seqs, _, table = self.make_task()
        for head in (None, 2):
            model = random_model(11, 2, 8, 2, 16, seed=2, num_classes=head)
            with pytest.raises(error):
                train_toy(model, seqs, labels, table, epochs=1)
        with pytest.raises(error):
            accuracy(model, seqs, labels, table)

    def test_accuracy_labels_outside_the_classes(self):
        seqs, _, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=2, num_classes=2)
        with pytest.raises(InputError, match="label -1 is not a class"):
            accuracy(model, seqs[:4], [-1, 5, 7, 9], table)
        with pytest.raises(InputError, match="label 5 is not a class"):
            accuracy(model, seqs[:4], [0, 5, 7, 9], table)

    def test_accuracy_without_a_head_runs_no_forward(self, monkeypatch):
        # the head is checked, as classify checks it, before any document
        # of the evaluation set is run
        seqs, labels, table = self.make_task()
        model = random_model(11, 2, 8, 2, 16, seed=2)
        calls = []
        monkeypatch.setattr(encoder, "forward",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match="model has no classifier head"):
            accuracy(model, seqs, labels, table)
        assert calls == []

    @staticmethod
    def numeric_grads(heads, feats, labels, eps=1e-6):
        """Central differences of each problem's loss in its own head, and
        the largest move of any other problem's loss on the way."""
        num = np.zeros_like(heads)
        moved = 0.0
        for p, i, j in np.ndindex(*heads.shape):
            hp, hm = heads.copy(), heads.copy()
            hp[p, i, j] += eps
            hm[p, i, j] -= eps
            lp, _ = encoder._head_loss_and_grad(hp, feats, labels)
            lm, _ = encoder._head_loss_and_grad(hm, feats, labels)
            num[p, i, j] = (lp[p] - lm[p]) / (2 * eps)
            others = np.arange(len(heads)) != p
            moved = max(moved, np.abs(lp - lm)[others].max(initial=0.0))
        return num, moved

    @staticmethod
    def rel_err(num, grad):
        denom = np.maximum(np.abs(num), np.abs(grad))
        denom[denom == 0] = 1.0
        return np.max(np.abs(num - grad) / denom)

    def test_gradcheck_head_loss(self):
        # the stacked kernel on stacks of one
        rng = np.random.default_rng(21)
        for _ in range(5):
            feats = rng.normal(size=(1, 6, 5))
            labels = rng.integers(0, 3, size=(1, 6))
            head = rng.normal(size=(1, 5, 3))
            loss, grad = encoder._head_loss_and_grad(head, feats, labels)
            assert loss.shape == (1,) and grad.shape == head.shape
            num, _ = self.numeric_grads(head, feats, labels)
            assert self.rel_err(num, grad) < 1e-4

    def test_gradcheck_stacked_head_loss(self):
        # four problems with their own features and labels: each gradient
        # slice must match its own problem's finite differences, and no
        # problem's loss may move with another's head
        rng = np.random.default_rng(22)
        for _ in range(3):
            feats = rng.normal(size=(4, 7, 5)) * rng.uniform(0.5, 2.0, (4, 1, 1))
            labels = rng.integers(0, 3, size=(4, 7))
            heads = rng.normal(size=(4, 5, 3))
            loss, grad = encoder._head_loss_and_grad(heads, feats, labels)
            assert loss.shape == (4,) and grad.shape == heads.shape
            num, moved = self.numeric_grads(heads, feats, labels)
            assert self.rel_err(num, grad) < 1e-4
            assert moved == 0.0
            for p in range(4):
                alone = encoder._head_loss_and_grad(
                    heads[p:p + 1], feats[p:p + 1], labels[p:p + 1])
                assert alone[0][0] == loss[p]
                assert np.array_equal(alone[1][0], grad[p])

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stacked_fit_is_bit_exact(self, data):
        # P problems trained as one stack end with the very heads of P
        # fits of a stack of one each
        P = data.draw(st.integers(1, 5), label="P")
        n = data.draw(st.integers(1, 12), label="n")
        d = data.draw(st.integers(1, 9), label="d")
        C = data.draw(st.integers(1, 4), label="C")
        epochs = data.draw(st.integers(0, 12), label="epochs")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        feats = rng.normal(size=(P, n, d))
        labels = rng.integers(0, C, size=(P, n))
        heads = rng.normal(0.0, 0.1, size=(P, d, C))
        stacked = encoder._fit_heads(heads, feats, labels, epochs=epochs,
                                     lr=0.5, names=["h"] * P)
        assert stacked.shape == (P, d, C)
        for p in range(P):
            alone = encoder._fit_heads(heads[p:p + 1], feats[p:p + 1],
                                       labels[p:p + 1], epochs=epochs, lr=0.5,
                                       names=["h"])
            assert np.array_equal(alone[0], stacked[p])

    def test_divergence_names_the_first_problem(self):
        # problems 1 and 2 blow up; the error names problem 1 and its loss
        # alone, not the loss vector
        rng = np.random.default_rng(23)
        feats = rng.normal(size=(3, 6, 4)) * np.array([1.0, 1e200, 1e200])[:, None, None]
        labels = rng.integers(0, 2, size=(3, 6))
        heads = rng.normal(size=(3, 4, 2))
        with pytest.raises(TrainingError) as excinfo:
            encoder._fit_heads(heads, feats, labels, epochs=3, lr=1.0,
                               names=["first", "second", "third"])
        assert str(excinfo.value) in ("second diverged: loss nan",
                                      "second diverged: loss inf")


def test_annotator_heads_equal_per_layer_fits():
    # the stack of L heads train_annotator fits holds what L fits of a
    # stack of one give, from the heads drawn in turn from the same seed
    task = make_separable_task(num_train=25, seed=4)
    model = random_model(11, 3, 8, 2, 16, seed=5)
    annotator = train_annotator(model, task.train_seqs, task.train_labels,
                                epochs=40, lr=0.5, seed=6)
    states = difficulty._instance_states(model, task.train_seqs,
                                         [1] * len(task.train_seqs))
    labels = np.array(task.train_labels)
    rng = np.random.default_rng(6)
    for l in range(3):
        head = rng.normal(0.0, 0.01, size=(8, 2))
        alone, = fit(lambda h: encoder._head_loss_and_grad(
                         h, states[None, :, l], labels[None]),
                     (head[None],), epochs=40, lr=0.5, what=["head"])
        assert np.array_equal(annotator.heads[l], alone[0])


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

    @pytest.mark.parametrize("epochs", [1.5, True, "2"])
    def test_epochs_are_an_integer(self, epochs):
        with pytest.raises(InputError, match="epochs"):
            fit(lambda h: (0.0, h), (np.ones(2),), epochs=epochs, lr=1.0,
                what="head")

    @pytest.mark.parametrize("trainer", ["train_toy", "train_annotator",
                                         "linear_b"])
    def test_divergence_raises_in_fit(self, trainer):
        with pytest.raises(TrainingError) as excinfo:
            _diverging_trainers()[trainer]()
        assert excinfo.traceback[-1].name == "fit"


def epoch_loops(tree):
    """Name of the function around each loop (for, while or comprehension)
    whose iterable or condition reads a name or attribute with "epoch" in
    it, in any case; None for a loop outside any function."""
    found = []

    def reads_epochs(node):
        return any("epoch" in (n.id if isinstance(n, ast.Name)
                               else n.attr).lower()
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.For, ast.AsyncFor, ast.comprehension)):
                if reads_epochs(child.iter):
                    found.append(func)
            elif isinstance(child, ast.While) and reads_epochs(child.test):
                found.append(func)
            visit(child, func)

    visit(tree, None)
    return found


def test_only_fit_loops_over_epochs():
    # one gradient loop: every learned part steps through encoder.fit, and
    # classifier heads train there as one stack (encoder._fit_heads)
    found = [(path.name, func)
             for path in sorted(Path(encoder.__file__).parent.glob("*.py"))
             for func in epoch_loops(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("encoder.py", "fit")]


def test_the_epoch_rule_finds_loops():
    tree = ast.parse("def fit(epochs):\n"
                     "    for _ in range(epochs):\n"
                     "        pass\n"
                     "def g(cfg, n_epochs, step=0):\n"
                     "    while step < cfg.epochs:\n"
                     "        step += 1\n"
                     "    return [f(x) for x in range(n_epochs)]\n"
                     "def h(xs):\n"
                     "    for x in xs:\n"
                     "        pass\n"
                     "for e in range(EPOCHS // 2):\n"
                     "    pass\n")
    assert epoch_loops(tree) == ["fit", "g", "g", None]


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
        with pytest.raises(ParseError, match="^not a model file "
                           r"\(bad magic header\)$"):
            load_model(path)

    def test_huge_header_is_rejected_before_reading(self, tmp_path):
        path, data = saved_model_bytes(tmp_path, random_model(4, 1, 4, 1, 8, seed=35))
        path.write_bytes(data.replace(b" V=4 ", b" V=1000000000000 ", 1))
        with pytest.raises(ParseError, match="truncated"):
            load_model(path)

    def test_bad_dims_are_rejected_before_reading(self, tmp_path):
        # the header's dims decide whether the model can run, so no weight
        # is read for a header whose heads do not divide d
        model = random_model(2000, 4, 64, 2, 256, seed=38)
        path, data = saved_model_bytes(tmp_path, model)
        assert data.count(b" h=2 ") == 1
        path.write_bytes(data.replace(b" h=2 ", b" h=3 "))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="^model header: heads=3 "
                               "does not divide d=64$"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        params = model.embedding.nbytes + sum(
            getattr(lw, name).nbytes for lw in model.layers
            for name in encoder._LAYER_FIELDS)
        assert peak < params / 50  # 2.6 MB of weights

    @pytest.mark.parametrize("edit", [(b" L=1 ", b" L=+1 "), (b" d=4 ", b" d=04 "),
                                      (b" V=4 ", b" V=\xd9\xa4 "),
                                      (b" h=1 ", b" h=-1 ")])
    def test_header_takes_only_written_integers(self, tmp_path, edit):
        path, data = saved_model_bytes(tmp_path, random_model(4, 1, 4, 1, 8, seed=39))
        assert data.count(edit[0]) == 1
        path.write_bytes(data.replace(*edit))
        with pytest.raises(ParseError, match="is not key=integer"):
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


class Saved(NamedTuple):
    """One saved binary artifact: its bytes, the length of its header line,
    where its float blocks end, its loader, its header fields and its
    saver."""

    path: object
    data: bytes
    header_len: int
    payload_end: int
    load: object
    fields: tuple
    save: object


class TestModelFuzz:
    """Mangled model and embedding files raise HashExitError and nothing
    else. Each example mangles both artifacts the same way."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        model_path, emb_path = root / "model.bin", root / "emb.bin"
        save_model(random_model(5, 2, 4, 2, 6, seed=37, num_classes=2),
                   model_path)
        tokens = ("the", "a", "cat", "sat", "mat")
        save_embeddings(EmbeddingTable(tokens, np.random.default_rng(37)
                                       .normal(size=(5, 3))), emb_path)
        artifacts = []
        for path, load, fields, floats, save in (
                (model_path, load_model, ("L", "d", "h", "d_ff", "V", "C"),
                 None, save_model),
                (emb_path, load_embeddings, ("V", "d"), 5 * 3,
                 save_embeddings)):
            data = path.read_bytes()
            header_len = data.index(b"\n") + 1
            end = len(data) if floats is None else header_len + 8 * floats
            artifacts.append(Saved(path, data, header_len, end, load, fields,
                                   save))
        return artifacts

    @staticmethod
    def load_or_typed_error(art, data):
        """Load `data`: a typed error, or a file that saves back as `data`."""
        art.path.write_bytes(data)
        try:
            loaded = art.load(art.path)
        except HashExitError:
            return
        art.save(loaded, art.path)
        assert art.path.read_bytes() == data

    @FUZZ
    @given(cut=st.integers(0, 10 ** 6))
    def test_truncation(self, saved, cut):
        for art in saved:
            self.load_or_typed_error(art, art.data[:cut % len(art.data)])

    @FUZZ
    @given(at=st.integers(0, 10 ** 6), mask=st.integers(1, 255),
           region=st.sampled_from(["header", "payload", "tokens"]))
    def test_byte_flip(self, saved, at, mask, region):
        for art in saved:
            lo, hi = {"header": (0, art.header_len),
                      "payload": (art.header_len, art.payload_end),
                      "tokens": (art.payload_end, len(art.data))}[region]
            if lo == hi:
                continue  # a model has no token block
            flipped = bytearray(art.data)
            flipped[lo + at % (hi - lo)] ^= mask
            self.load_or_typed_error(art, bytes(flipped))

    @FUZZ
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_appended_bytes(self, saved, extra):
        for art in saved:
            art.path.write_bytes(art.data + extra)
            # the model ends after its last tensor; appended bytes can only
            # break the embeddings' line count or their last line break
            says = "trailing" if art.load is load_model else "lines|UTF-8"
            with pytest.raises(ParseError, match=says):
                art.load(art.path)

    @FUZZ
    @given(key=st.integers(0, 5),
           value=st.one_of(st.integers(-10 ** 13, -1).map(str),
                           st.just(str(10 ** 12)),
                           st.integers(0, 10 ** 13).map(str),
                           st.text(max_size=12)))
    def test_header_field(self, saved, key, value):
        for art in saved:
            name = art.fields[key % len(art.fields)]
            fields = art.data[:art.header_len].decode("ascii").split()
            fields = [f"{name}={value}" if f.startswith(name + "=") else f
                      for f in fields]
            header = " ".join(fields).encode("utf-8", "replace") + b"\n"
            self.load_or_typed_error(art, header + art.data[art.header_len:])

    def test_huge_count_is_rejected_before_allocation(self, saved):
        for art in saved:
            header = art.data[:art.header_len].replace(b" V=5", b" V=1000000000000")
            art.path.write_bytes(header + art.data[art.header_len:])
            tracemalloc.start()
            try:
                with pytest.raises(ParseError, match="truncated"):
                    art.load(art.path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


class TestModelValidation:
    def test_heads_must_divide_d(self):
        with pytest.raises(ConfigError):
            random_model(4, 1, 6, 4, 8, seed=0)

    def test_odd_d_rejected(self):
        with pytest.raises(ConfigError):
            random_model(4, 1, 5, 1, 8, seed=0)

    @pytest.mark.parametrize("seed, error", [
        (-1, ConfigError), (0.5, InputError), (True, InputError),
    ], ids=["negative", "float", "bool"])
    def test_seed_is_a_non_negative_integer(self, seed, error):
        with pytest.raises(error, match="seed"):
            random_model(4, 1, 8, 2, 8, seed=seed)
