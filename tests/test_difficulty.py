import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hashexit.errors import ConfigError, InputError, ShapeError, TrainingError
from hashexit.difficulty import (
    DifficultyDataset,
    annotate,
    bce_loss_and_grad,
    evaluate,
    instance_states,
    linear_b,
    majority_baseline,
    negative_class_metrics,
    oversample,
    save_difficulty_dataset,
    serialize_difficulty_dataset,
    train_annotator,
)
from hashexit import difficulty, encoder
from hashexit.encoder import ExitSchedule, fit, forward, random_model, train_toy
from hashexit.experiments import (DifficultyOutcome, make_separable_task,
                                  run_difficulty_pipeline)
from hashexit.hashing import build_random

from helpers import greedy_batches


def random_annotator(seed=0, L=3, num_classes=2, d=8):
    """A random model and a random (L, d, C) head stack reading its states."""
    rng = np.random.default_rng(seed)
    model = random_model(9, L, d, 2, 16, seed=seed)
    return model, rng.normal(size=(L, d, num_classes))


def annotated(model, heads, seqs, labels, mode="sentence", tokens=None):
    """`annotate` of the states of one walk of `seqs` in `mode`."""
    return annotate(heads, seqs, labels, instance_states(model, seqs, mode),
                    mode=mode, tokens=tokens)


def dataset_from_bits(bits, seed=0, d=4):
    bits = np.asarray(bits, dtype=np.int8)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(bits.shape[0], bits.shape[1], d))
    return DifficultyDataset(bits=bits, features=feats)


class TestAnnotate:
    def test_single_class_heads_are_always_right(self):
        # a 1-class head cannot be wrong, so every bit comes out 1
        model, heads = random_annotator(seed=1, num_classes=1)
        seqs = [[0, 1, 2], [3, 4]]
        ds = annotated(model, heads, seqs, [0, 0])
        assert ds.bits.shape == (2, 3)
        assert np.all(ds.bits == 1)

    def test_bits_match_direct_head_evaluation(self):
        model, heads = random_annotator(seed=2)
        rng = np.random.default_rng(3)
        seqs = [list(rng.integers(0, 9, size=int(rng.integers(2, 6))))
                for _ in range(8)]
        golds = [int(rng.integers(0, 2)) for _ in range(8)]
        ds = annotated(model, heads, seqs, golds)
        for i, seq in enumerate(seqs):
            n = len(seq)
            sched = ExitSchedule(np.full(n, 3), np.ones(n, dtype=bool))
            trace = forward(model, seq, sched)
            for l in range(3):
                scores = trace.hidden[l + 1][0] @ heads[l]
                assert ds.bits[i, l] == int(np.argmax(scores) == golds[i])
                assert np.array_equal(ds.features[i, l], trace.hidden[l + 1][0])

    def test_single_layer_gives_one_bit(self):
        model, heads = random_annotator(seed=4, L=1)
        ds = annotated(model, heads, [[0, 1]], [1])
        assert ds.bits.shape == (1, 1)

    def test_token_mode(self):
        model, heads = random_annotator(seed=5)
        seqs = [[0, 1, 2], [3, 4]]
        token_labels = [[0, 1, 0], [1, 1]]
        ds = annotated(model, heads, seqs, token_labels, mode="token")
        assert len(ds) == 5
        assert ds.ids == ["0.0", "0.1", "0.2", "1.0", "1.1"]
        sched = ExitSchedule(np.full(3, 3), np.ones(3, dtype=bool))
        trace = forward(model, seqs[0], sched)
        scores = trace.hidden[2][1] @ heads[1]
        assert ds.bits[1, 1] == int(np.argmax(scores) == 1)

    def test_head_count_mismatch(self):
        # the heads must be an (L, d, C) stack reading the states, and the
        # states one (L, d) block per instance
        model, heads = random_annotator(seed=0)
        seqs = [[0, 1], [2, 3, 4]]
        states = instance_states(model, seqs)
        for bad_heads, bad_states in ((heads[:2], states),
                                      (heads[:, :4], states),
                                      (heads[0], states),
                                      (heads, states[1:]),
                                      (heads, states[:, :2]),
                                      (heads, states[0])):
            with pytest.raises(ShapeError, match="states of shape"):
                annotate(bad_heads, seqs, [0, 1], bad_states)
        with pytest.raises(ShapeError, match="states of shape"):
            train_annotator(states[0], [0, 1], epochs=1)

    def test_trained_annotator_beats_chance_at_top(self):
        rng = np.random.default_rng(6)
        model = random_model(11, 2, 8, 2, 16, seed=7)
        seqs, golds = [], []
        for _ in range(30):
            lab = int(rng.integers(0, 2))
            pool = np.arange(1, 6) if lab == 0 else np.arange(6, 11)
            seqs.append([0] + list(rng.choice(pool, size=4)))
            golds.append(lab)
        states = instance_states(model, seqs)
        heads = train_annotator(states, golds, epochs=300, lr=0.5, seed=0)
        assert heads.shape == (2, 8, 2)
        ds = annotate(heads, seqs, golds, states)
        assert ds.bits[:, -1].mean() >= 0.9

    def test_bad_mode(self):
        model, heads = random_annotator(seed=8)
        with pytest.raises(ConfigError, match="unknown annotation mode"):
            instance_states(model, [[0]], mode="word")
        with pytest.raises(ConfigError, match="unknown annotation mode"):
            annotate(heads, [[0]], [0], instance_states(model, [[0]]),
                     mode="word")

    def test_empty_input(self):
        model, heads = random_annotator(seed=9)
        nothing = instance_states(model, [])
        assert nothing.shape == (0, 3, 8)
        with pytest.raises(InputError, match="nothing to annotate"):
            annotate(heads, [], [], nothing)
        with pytest.raises(InputError, match="training set is empty"):
            train_annotator(nothing, [])

    @pytest.mark.parametrize("seqs", [[[]], [[], []]])
    def test_empty_documents_raise(self, seqs):
        # documents with no rows run through forward, which rejects them,
        # rather than leaving their states unset
        model, _ = random_annotator(seed=10)
        for mode in ("sentence", "token"):
            with pytest.raises(InputError, match="empty sequence"):
                instance_states(model, seqs, mode)

    @pytest.mark.parametrize("golds", [[0], [0, 1, 0]])
    def test_label_count_must_match_sequences(self, golds):
        model, heads = random_annotator(seed=19)
        seqs = [[0, 1], [2, 3, 4]]
        with pytest.raises(ShapeError, match="differ in length"):
            train_annotator(instance_states(model, seqs), golds, epochs=1)
        with pytest.raises(ShapeError, match="differ in length"):
            annotated(model, heads, seqs, golds)
        with pytest.raises(ShapeError, match="differ in length"):
            annotated(model, heads, seqs, [[g] * 2 for g in golds],
                      mode="token")

    @pytest.mark.parametrize("labels", [[[0, 1], [1, 0]], [[0, 1], [1, 0, 1, 1]]])
    def test_token_labels_must_cover_each_document(self, labels):
        model, heads = random_annotator(seed=20)
        with pytest.raises(ShapeError, match="document 1 has 3 tokens"):
            annotated(model, heads, [[0, 1], [2, 3, 4]], labels, mode="token")

    @pytest.mark.parametrize("tokens", [[["a"]], [["a"], ["b"], ["c"]]])
    def test_token_count_must_match_sequences(self, tokens):
        model, heads = random_annotator(seed=21)
        with pytest.raises(ShapeError, match="sequences and tokens"):
            annotated(model, heads, [[0, 1], [2, 3]], [0, 1], tokens=tokens)

    @pytest.mark.parametrize("mode, labels, bad", [
        ("sentence", [0, -1], -1), ("sentence", [2, 0], 2),
        ("token", [[0, 1], [1, 2]], 2), ("token", [[0, 1], [-3, 0]], -3)])
    def test_labels_must_be_classes_of_the_heads(self, mode, labels, bad):
        model, heads = random_annotator(seed=22, num_classes=2)
        with pytest.raises(InputError, match=f"label {bad} is not a class"):
            annotated(model, heads, [[0, 1], [2, 3]], labels, mode=mode)

    @pytest.mark.parametrize("mode, labels, error", [
        ("sentence", ["a", "b"], InputError),
        ("sentence", [0.0, 1.0], InputError),
        ("sentence", [[0, 1], [1, 0]], ShapeError),
        ("sentence", [[0, 1], [1]], ShapeError),
        ("token", [["a", "b"], ["c", "d"]], InputError),
        ("token", [[0.5, 1], [1, 0]], InputError),
        ("sentence", 5, ShapeError),
        ("sentence", None, ShapeError),
        ("token", 5, ShapeError),
        ("token", [0, 1], ShapeError)])
    def test_labels_must_be_integers(self, mode, labels, error):
        model, heads = random_annotator(seed=24, num_classes=2)
        seqs = [[0, 1], [2, 3]]
        with pytest.raises(error):
            annotated(model, heads, seqs, labels, mode=mode)
        if mode == "sentence":
            with pytest.raises(error):
                train_annotator(instance_states(model, seqs), labels, epochs=1)

    def test_new_heads_reject_negative_labels(self):
        model = random_model(9, 3, 8, 2, 16, seed=23)
        states = instance_states(model, [[0, 1], [2, 3], [4]])
        with pytest.raises(InputError, match="label -1 is not a class"):
            train_annotator(states, [0, -1, 1], epochs=1)


def lab_seed_calls():
    """Each seeded draw of the lab, and of train_toy with and without a
    head to start from, as a function of its seed."""
    task = make_separable_task(num_train=12, seed=0)
    model = random_model(11, 2, 8, 2, 16, seed=1)
    headed = random_model(11, 2, 8, 2, 16, seed=1, num_classes=2)
    states = instance_states(model, task.train_seqs)
    table = build_random(task.vocab, 2, 2, seed=3)
    ds = dataset_from_bits([[0, 1], [1, 1], [1, 0], [1, 1]])
    return {
        "oversample": lambda seed: oversample(ds, seed=seed),
        "linear_b": lambda seed: linear_b(ds, epochs=1, seed=seed),
        "train_toy": lambda seed: train_toy(model, task.train_seqs,
                                            task.train_labels, table,
                                            epochs=1, seed=seed),
        "train_toy_headed": lambda seed: train_toy(headed, task.train_seqs,
                                                   task.train_labels, table,
                                                   epochs=1, seed=seed),
        "train_annotator": lambda seed: train_annotator(
            states, task.train_labels, epochs=1, seed=seed),
    }


@pytest.mark.parametrize("seed, error", [(-1, ConfigError), (0.5, InputError),
                                         (True, InputError), ("1", InputError),
                                         ("x", InputError)])
@pytest.mark.parametrize("call", ["oversample", "linear_b", "train_toy",
                                  "train_toy_headed", "train_annotator"])
def test_lab_seeds_are_read_as_seeds(call, seed, error):
    # a seed numpy would refuse, truncate or read as 1 is a typed error
    with pytest.raises(error, match="seed"):
        lab_seed_calls()[call](seed)


class TestPackedWalk:
    """The lab runs its sequences as packed batches, one forward call per
    batch, and gives back what one-document forwards give, in order."""

    @pytest.fixture
    def small_batches(self, monkeypatch):
        # 7 rows a batch, and each layer splits a batch into groups of about
        # 3 active rows (random_annotator's widest layer is d_ff=16 floats)
        monkeypatch.setattr(encoder, "BATCH_ROWS", 7)
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 3)

    @staticmethod
    def ragged(seed, count=20, longest=12):
        rng = np.random.default_rng(seed)
        seqs = [list(rng.integers(0, 9, size=int(rng.integers(1, longest + 1))))
                for _ in range(count)]
        return rng, seqs

    @staticmethod
    def count_forward_calls(monkeypatch):
        calls = []
        real = difficulty.forward

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(difficulty, "forward", counted)
        return calls

    def test_one_forward_per_packed_batch(self, monkeypatch, small_batches):
        model, _ = random_annotator(seed=11)
        _, seqs = self.ragged(12, longest=6)
        batches = greedy_batches([len(s) for s in seqs], encoder.BATCH_ROWS)
        assert 1 < len(batches) < len(seqs)
        calls = self.count_forward_calls(monkeypatch)
        instance_states(model, seqs)
        instance_states(model, seqs, mode="token")
        assert calls == [len(b) for b in batches] * 2

    @pytest.mark.parametrize("mode", ["sentence", "token"])
    def test_matches_per_document_annotation(self, small_batches, mode):
        model, heads = random_annotator(seed=13)
        rng, seqs = self.ragged(14)
        if mode == "sentence":
            labels = [int(rng.integers(0, 2)) for _ in seqs]
        else:
            labels = [[int(g) for g in rng.integers(0, 2, len(s))] for s in seqs]
        tokens = [[f"w{t}" for t in seq] for seq in seqs]
        ds = annotated(model, heads, seqs, labels, mode=mode, tokens=tokens)
        bits, feats, ids, toks = [], [], [], []
        for i, seq in enumerate(seqs):
            n = len(seq)
            trace = forward(model, seq,
                            ExitSchedule(np.full(n, 3), np.ones(n, dtype=bool)))
            for p in [0] if mode == "sentence" else range(n):
                gold = labels[i] if mode == "sentence" else labels[i][p]
                states = [h[p] for h in trace.hidden[1:]]
                bits.append([int(np.argmax(s @ w) == gold)
                             for s, w in zip(states, heads)])
                feats.append(states)
                ids.append(str(i) if mode == "sentence" else f"{i}.{p}")
                toks.append(tokens[i])
        assert ds.ids == ids and ds.tokens == toks
        assert np.array_equal(ds.bits, bits)
        assert np.abs(ds.features - np.array(feats)).max() <= 1e-12

    def test_annotator_matches_per_document_training(self, monkeypatch,
                                                     small_batches):
        model = random_model(9, 3, 8, 2, 16, seed=15)
        rng, seqs = self.ragged(16)
        golds = [int(rng.integers(0, 2)) for _ in seqs]
        packed = train_annotator(instance_states(model, seqs), golds,
                                 epochs=30)
        monkeypatch.setattr(encoder, "BATCH_ROWS", 1)  # a batch per document
        alone = train_annotator(instance_states(model, seqs), golds,
                                epochs=30)
        assert np.abs(packed - alone).max() <= 1e-9

    def test_given_states_stand_in_for_the_walk(self, monkeypatch):
        # the trainer and the scorer read the states of one walk and run
        # no forward of their own, in either mode
        model = random_model(9, 3, 8, 2, 16, seed=25)
        rng, seqs = self.ragged(26)
        golds = [int(rng.integers(0, 2)) for _ in seqs]
        token_golds = [[int(g) for g in rng.integers(0, 2, len(s))]
                       for s in seqs]
        states = instance_states(model, seqs)
        token_states = instance_states(model, seqs, mode="token")
        calls = self.count_forward_calls(monkeypatch)
        heads = train_annotator(states, golds, epochs=20)
        ds = annotate(heads, seqs, golds, states)
        by_token = annotate(heads, seqs, token_golds, token_states,
                            mode="token")
        assert calls == []
        assert ds.features is states
        assert np.array_equal(by_token.features, token_states)

    @pytest.mark.filterwarnings(
        "ignore:slot .* has no negative instances:UserWarning")
    def test_pipeline_walks_the_training_set_once(self, monkeypatch):
        # the annotator's training and both sets' annotations share one
        # walk of the training and evaluation sets together
        calls = self.count_forward_calls(monkeypatch)
        run_difficulty_pipeline(seed=0, num_train=12, num_eval=8,
                                annotator_epochs=5, predictor_epochs=5)
        assert calls == [20]

    def test_sentence_annotation_memory_stays_near_one_batch(self):
        # a batch's states are read at the instances' rows as each layer
        # yields them; holding a batch's L+1 trace states reached 26.7x here
        # and a further copy of every row's states 47x
        model, heads = random_annotator(seed=17, L=12, d=64)
        rng, seqs = self.ragged(18, count=200, longest=60)
        golds = [int(rng.integers(0, 2)) for _ in seqs]
        rows = min(encoder.BATCH_ROWS, encoder.STATE_FLOATS // 64)
        tracemalloc.start()
        try:
            annotated(model, heads, seqs, golds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * rows * 64 * 8


def walk_callers(tree, names=("forward", "batches", "instance_states")):
    """Name of the function around each call of one of `names`, called
    bare or as an attribute, in source order; None for a call outside any
    function."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = (callee.id if isinstance(callee, ast.Name) else
                        callee.attr if isinstance(callee, ast.Attribute)
                        else None)
                if name in names:
                    found.append(func)
            visit(child, func)

    visit(tree, None)
    return found


def test_only_instance_states_walks():
    # one walk: the lab's trainers and scorers take states, and only
    # instance_states runs the model
    tree = ast.parse(Path(difficulty.__file__).read_text(encoding="utf-8"))
    assert walk_callers(tree) == ["instance_states", "instance_states"]


def test_the_walk_rule_finds_calls():
    tree = ast.parse("def instance_states(m, s):\n"
                     "    for b, p in batches(m, s):\n"
                     "        forward(m, p)\n"
                     "def annotate(m, s):\n"
                     "    return instance_states(m, s)\n"
                     "def g(m, p):\n"
                     "    return encoder.forward(m, p)\n"
                     "def h(m):\n"
                     "    f = lambda: batches(m, 0)\n"
                     "    def inner():\n"
                     "        return [forward(m, x) for x in m]\n"
                     "    return inner, f, forward\n"
                     "forward(0, 1)\n")
    assert walk_callers(tree) == ["instance_states", "instance_states",
                                  "annotate", "g", "h", "inner", None]


class TestOversample:
    def test_balanced_unchanged(self):
        bits = np.array([[0, 1], [1, 0], [0, 1], [1, 0]])
        ds = dataset_from_bits(bits)
        out = oversample(ds, seed=0)
        assert len(out) == 4
        assert np.array_equal(out.bits, bits)

    def test_single_minority_slot_arithmetic(self):
        bits = np.ones((10, 1), dtype=np.int8)
        bits[0, 0] = 0
        out = oversample(dataset_from_bits(bits), seed=1)
        negs = int(np.sum(out.bits[:, 0] == 0))
        assert len(out) == 13
        assert negs == math.ceil(0.3 * len(out)) == 4

    def test_all_positive_slot_warns_and_keeps(self):
        bits = np.ones((5, 1), dtype=np.int8)
        ds = dataset_from_bits(bits)
        with pytest.warns(UserWarning):
            out = oversample(ds, seed=2)
        assert np.array_equal(out.bits, bits)

    def test_originals_preserved_and_rows_are_copies(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((12, 3)) < 0.8).astype(np.int8)
        bits[0] = 0  # guarantee every slot holds at least one negative
        ds = dataset_from_bits(bits)
        out = oversample(ds, seed=4)
        assert len(out) >= 12
        assert np.array_equal(out.bits[:12], bits)
        originals = {tuple(row) for row in bits}
        for row in out.bits[12:]:
            assert tuple(row) in originals

    def test_each_slot_meets_floor_at_its_pass(self):
        bits = np.ones((10, 1), dtype=np.int8)
        bits[:2, 0] = 0
        out = oversample(dataset_from_bits(bits), seed=5, floor=0.4)
        frac = np.mean(out.bits[:, 0] == 0)
        assert frac >= 0.4

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        bits = (rng.random((15, 2)) < 0.85).astype(np.int8)
        ds = dataset_from_bits(bits)
        a = oversample(ds, seed=7)
        b = oversample(ds, seed=7)
        assert np.array_equal(a.bits, b.bits)
        assert a.ids == b.ids if a.ids else True

    def test_zero_floor_unchanged(self):
        bits = np.array([[0], [1], [1]], dtype=np.int8)
        out = oversample(dataset_from_bits(bits), seed=0, floor=0.0)
        assert len(out) == 3

    def test_empty_rejected(self):
        ds = DifficultyDataset(bits=np.zeros((0, 2), dtype=np.int8))
        with pytest.raises(InputError):
            oversample(ds)

    def test_bad_floor(self):
        ds = dataset_from_bits(np.array([[0, 1]]))
        with pytest.raises(ConfigError):
            oversample(ds, floor=1.0)

    def test_peak_memory_stays_near_output_features(self):
        # the duplicated rows are gathered once, straight into the output;
        # gathering and then copying them held twice the output's features
        rng = np.random.default_rng(21)
        bits = (rng.random((1000, 12)) < 0.75).astype(np.int8)
        ds = dataset_from_bits(bits, d=64)
        tracemalloc.start()
        try:
            out = oversample(ds, seed=22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > len(ds)
        assert peak <= 1.5 * out.features.nbytes


class TestMajority:
    def test_lopsided_slot(self):
        bits = np.ones((10, 1), dtype=np.int8)
        bits[0, 0] = 0
        pred = majority_baseline(dataset_from_bits(bits))
        assert pred.slot_bits[0] == 1

    def test_negative_heavy_slot(self):
        bits = np.zeros((10, 1), dtype=np.int8)
        bits[0, 0] = 1
        pred = majority_baseline(dataset_from_bits(bits))
        assert pred.slot_bits[0] == 0

    def test_tie_goes_positive(self):
        bits = np.array([[0], [1], [0], [1]], dtype=np.int8)
        pred = majority_baseline(dataset_from_bits(bits))
        assert pred.slot_bits[0] == 1

    def test_all_positive_training_reports_not_applicable(self):
        train = dataset_from_bits(np.ones((6, 2), dtype=np.int8))
        test = dataset_from_bits(np.array([[0, 1], [1, 1], [0, 0]]))
        pred = majority_baseline(train)
        metrics = evaluate(pred, test)
        assert not metrics.applicable
        assert metrics.recall == 0.0
        text = DifficultyOutcome(train, test, {"majority": metrics,
                                               "linear_b": metrics}).to_text()
        assert text.splitlines()[2].split()[:4] == [
            "majority", "n/a", "0.0000", "n/a"]

    def test_majority_is_best_constant(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            bits = (rng.random((20, 4)) < rng.random()).astype(np.int8)
            ds = dataset_from_bits(bits)
            pred = majority_baseline(ds)
            acc = (pred.predict_bits(ds) == bits).mean()
            for const in (0, 1):
                assert acc >= (bits == const).mean()


class TestLinearB:
    def make_separable(self, n=40, L=3, d=6, seed=0, flip_slots=()):
        rng = np.random.default_rng(seed)
        w_true = rng.normal(size=d)
        w_unit = w_true / np.linalg.norm(w_true)
        feats = np.empty((n, L, d))
        bits = np.empty((n, L), dtype=np.int8)
        for i in range(n):
            for l in range(L):
                x = rng.normal(size=d)
                z = x @ w_true
                x = x + 0.8 * np.sign(z) * w_unit
                lab = int((x @ w_true) > 0)
                if l in flip_slots:
                    lab = 1 - lab
                feats[i, l] = x
                bits[i, l] = lab
        return DifficultyDataset(bits=bits, features=feats)

    def test_separable_features_learned(self):
        ds = self.make_separable()
        pred = linear_b(ds, epochs=400, lr=0.5, seed=0)
        metrics = evaluate(pred, ds)
        assert metrics.f1 >= 0.95

    def test_per_layer_handles_conflicting_slots(self):
        ds = self.make_separable(flip_slots=(1,), seed=1)
        shared = linear_b(ds, epochs=400, lr=0.5, seed=0)
        split = linear_b(ds, per_layer=True, epochs=400, lr=0.5, seed=0)
        acc_shared = (shared.predict_bits(ds) == ds.bits).mean()
        acc_split = (split.predict_bits(ds) == ds.bits).mean()
        assert acc_split >= 0.95
        assert acc_split > acc_shared

    def test_one_weight_row_per_slot(self):
        # a shared probe is one row repeated; a predictor serves only a
        # dataset with as many slots as it has rows
        ds = self.make_separable(L=3)
        shared = linear_b(ds, epochs=20, seed=0)
        assert shared.weights.shape == (3, 6) and shared.biases.shape == (3,)
        assert (shared.weights == shared.weights[0]).all()
        assert (shared.biases == shared.biases[0]).all()
        other = self.make_separable(L=2)
        for per_layer in (False, True):
            pred = linear_b(ds, per_layer=per_layer, epochs=20, seed=0)
            with pytest.raises(ConfigError, match="3 slots"):
                pred.predict_bits(other)

    def test_zero_features_collapse_to_majority(self):
        for frac, expect in ((0.7, 1), (0.2, 0)):
            n = 20
            bits = (np.arange(n) < frac * n).astype(np.int8).reshape(n, 1)
            ds = DifficultyDataset(bits=bits, features=np.zeros((n, 1, 4)))
            pred = linear_b(ds, epochs=500, lr=1.0, seed=0)
            assert np.all(pred.predict_bits(ds) == expect)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            feats = rng.normal(size=(7, 4))
            targets = rng.integers(0, 2, size=7).astype(np.float64)
            w = rng.normal(size=4)
            b = float(rng.normal())
            _, gw, gb = bce_loss_and_grad(w, b, feats, targets)
            eps = 1e-6
            num_w = np.zeros(4)
            for i in range(4):
                wp, wm = w.copy(), w.copy()
                wp[i] += eps
                wm[i] -= eps
                num_w[i] = (bce_loss_and_grad(wp, b, feats, targets)[0]
                            - bce_loss_and_grad(wm, b, feats, targets)[0]) / (2 * eps)
            num_b = (bce_loss_and_grad(w, b + eps, feats, targets)[0]
                     - bce_loss_and_grad(w, b - eps, feats, targets)[0]) / (2 * eps)
            denom = np.maximum(np.abs(num_w), np.abs(gw))
            denom[denom == 0] = 1.0
            assert np.max(np.abs(num_w - gw) / denom) < 1e-4
            assert abs(num_b - gb) / max(abs(num_b), abs(gb), 1.0) < 1e-4

    def test_stacked_probes_equal_lone_fits(self):
        # the per-layer probes train as one stack; each holds what a lone
        # probe gives on its slot's states, from the weights drawn in turn
        ds = self.make_separable(flip_slots=(1,), seed=5)
        split = linear_b(ds, per_layer=True, epochs=60, lr=0.5, seed=7)
        rng = np.random.default_rng(7)
        for l in range(ds.num_layers):
            w = rng.normal(0.0, 0.01, size=ds.features.shape[2])
            targets = ds.bits[:, l].astype(np.float64)
            alone = fit(lambda w, b: bce_loss_and_grad(
                            w, b, ds.features[:, l], targets),
                        (w, 0.0), epochs=60, lr=0.5, what="probe")
            assert np.array_equal(split.weights[l], alone[0])
            assert split.biases[l] == alone[1]

    def test_per_layer_divergence_names_the_slot(self):
        ds = self.make_separable(seed=2)
        with pytest.raises(TrainingError, match=r"^linear difficulty "
                           r"predictor of slot 1 diverged"):
            linear_b(ds, per_layer=True, epochs=80, lr=1e308)

    def test_divergence(self):
        ds = self.make_separable(seed=2)
        with pytest.raises(TrainingError):
            linear_b(ds, epochs=80, lr=1e308)

    def test_needs_features(self):
        ds = DifficultyDataset(bits=np.array([[0, 1]]))
        with pytest.raises(ConfigError):
            linear_b(ds)

    def test_deterministic(self):
        ds = self.make_separable(seed=3)
        a = linear_b(ds, epochs=50, seed=4)
        b = linear_b(ds, epochs=50, seed=4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)


class TestMetrics:
    def test_hand_fixture_two_thirds(self):
        true = np.array([[0, 0, 0, 1, 1, 1]])
        pred = np.array([[0, 0, 1, 0, 1, 1]])
        m = negative_class_metrics(true, pred)
        assert m.tp == 2 and m.fp == 1 and m.fn == 1
        assert m.precision == 2 / 3
        assert m.recall == 2 / 3
        assert m.f1 == 2 / 3
        assert m.applicable

    def test_perfect(self):
        bits = np.array([[0, 1], [1, 0]])
        m = negative_class_metrics(bits, bits)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_all_positive_predictions(self):
        true = np.array([[0, 1, 0]])
        pred = np.ones((1, 3), dtype=int)
        m = negative_class_metrics(true, pred)
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert not m.applicable

    def test_micro_pools_slots(self):
        true = np.array([[0, 1], [1, 0]])
        pred = np.array([[0, 1], [1, 1]])
        m = negative_class_metrics(true, pred)
        assert m.tp == 1 and m.fn == 1 and m.fp == 0
        assert m.recall == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            negative_class_metrics(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_empty_evaluation(self):
        ds = DifficultyDataset(bits=np.zeros((0, 2), dtype=np.int8))
        pred = MajorityPredictorStub()
        with pytest.raises(InputError):
            evaluate(pred, ds)


class MajorityPredictorStub:
    def predict_bits(self, dataset):
        return np.ones_like(dataset.bits)


class TestSerialization:
    def test_save_writes_exact_text(self, tmp_path):
        ds = DifficultyDataset(bits=np.array([[1, 0], [0, 1]], dtype=np.int8),
                               tokens=[["good", "movie"], ["bad", "film"]],
                               ids=["0", "1.2"])
        path = tmp_path / "difficulty.tsv"
        save_difficulty_dataset(ds, path)
        assert path.read_bytes() == b"0\t10\tgood movie\n1.2\t01\tbad film\n"

    def test_byte_stable(self):
        ds = DifficultyDataset(bits=np.array([[1, 0]], dtype=np.int8),
                               tokens=[["a", "b"]], ids=["7"])
        assert serialize_difficulty_dataset(ds) == "7\t10\ta b\n"

    def test_zero_rows_write_nothing(self):
        ds = DifficultyDataset(bits=np.zeros((0, 3), dtype=np.int8), tokens=[],
                               ids=[])
        assert serialize_difficulty_dataset(ds) == ""

    def test_tokens_required_to_write(self):
        ds = DifficultyDataset(bits=np.array([[1]], dtype=np.int8))
        with pytest.raises(ConfigError):
            serialize_difficulty_dataset(ds)

    @pytest.mark.parametrize("bits", [
        pytest.param([[0.7, 1.0], [2, -1]], id="floats"),
        pytest.param([[True, False]], id="bools"),
        pytest.param([[0, 1], [2, -1]], id="not-0-or-1"),
        pytest.param([[1, 300]], id="past-int8"),
        pytest.param(np.array([[0, 256]]), id="wraps-to-0")])
    def test_bits_must_be_0_or_1(self, bits):
        # every bit is read as an integer and checked: a cast to int8 would
        # truncate floats, wrap 256 to 0 and keep 2 and -1
        with pytest.raises(InputError):
            DifficultyDataset(bits=bits)

    @pytest.mark.parametrize("column", [
        {"tokens": [["a"]]}, {"tokens": [["a"], ["b"], ["c"]]},
        {"ids": ["0"]}, {"ids": ["0", "1", "2"]}])
    def test_misaligned_columns_rejected(self, column):
        # a dataset whose token or id rows miss a bit row cannot be written
        with pytest.raises(ConfigError, match="bit rows"):
            DifficultyDataset(bits=np.array([[0, 1], [1, 0]]), **column)

    @pytest.mark.parametrize("ids, tokens", [
        (["0\t1"], [["a"]]),
        (["0\n"], [["a"]]),
        (["0"], [["a b"]]),
        (["0"], [["a", ""]]),
    ], ids=["tab-in-id", "newline-in-id", "space-in-token", "empty-token"])
    def test_fields_the_format_cannot_hold_refused(self, tmp_path, ids, tokens):
        ds = DifficultyDataset(bits=np.array([[1]], dtype=np.int8),
                               tokens=tokens, ids=ids)
        path = tmp_path / "difficulty.tsv"
        with pytest.raises(InputError):
            save_difficulty_dataset(ds, path)
        assert not path.exists()
