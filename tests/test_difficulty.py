import math

import numpy as np
import pytest

from hashexit.errors import ConfigError, InputError, TrainingError
from hashexit.difficulty import (
    DifficultyDataset,
    MultiExitAnnotator,
    annotate,
    bce_loss_and_grad,
    evaluate,
    linear_b,
    majority_baseline,
    negative_class_metrics,
    oversample,
    save_difficulty_dataset,
    serialize_difficulty_dataset,
    train_annotator,
)
from hashexit import difficulty, encoder
from hashexit.encoder import (ExitSchedule, batch_rows, forward, random_model,
                              row_batches)

import helpers  # noqa: F401  (sys.path side effect when run as a script)


def random_annotator(seed=0, L=3, num_classes=2, d=8):
    rng = np.random.default_rng(seed)
    model = random_model(9, L, d, 2, 16, seed=seed)
    heads = [rng.normal(size=(d, num_classes)) for _ in range(L)]
    return MultiExitAnnotator(model=model, heads=heads)


def dataset_from_bits(bits, seed=0, d=4):
    bits = np.asarray(bits, dtype=np.int8)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(bits.shape[0], bits.shape[1], d))
    return DifficultyDataset(bits=bits, features=feats)


class TestAnnotate:
    def test_single_class_heads_are_always_right(self):
        # a 1-class head cannot be wrong, so every bit comes out 1
        ann = random_annotator(seed=1, num_classes=1)
        seqs = [[0, 1, 2], [3, 4]]
        ds = annotate(ann, seqs, [0, 0])
        assert ds.bits.shape == (2, 3)
        assert np.all(ds.bits == 1)

    def test_bits_match_direct_head_evaluation(self):
        ann = random_annotator(seed=2)
        rng = np.random.default_rng(3)
        seqs = [list(rng.integers(0, 9, size=int(rng.integers(2, 6))))
                for _ in range(8)]
        golds = [int(rng.integers(0, 2)) for _ in range(8)]
        ds = annotate(ann, seqs, golds)
        for i, seq in enumerate(seqs):
            n = len(seq)
            sched = ExitSchedule(np.full(n, 3), np.ones(n, dtype=bool))
            trace = forward(ann.model, seq, sched)
            for l in range(3):
                scores = trace.hidden[l + 1][0] @ ann.heads[l]
                assert ds.bits[i, l] == int(np.argmax(scores) == golds[i])
                assert np.array_equal(ds.features[i, l], trace.hidden[l + 1][0])

    def test_single_layer_gives_one_bit(self):
        ann = random_annotator(seed=4, L=1)
        ds = annotate(ann, [[0, 1]], [1])
        assert ds.bits.shape == (1, 1)

    def test_token_mode(self):
        ann = random_annotator(seed=5)
        seqs = [[0, 1, 2], [3, 4]]
        token_labels = [[0, 1, 0], [1, 1]]
        ds = annotate(ann, seqs, token_labels, mode="token")
        assert len(ds) == 5
        assert ds.ids == ["0.0", "0.1", "0.2", "1.0", "1.1"]
        sched = ExitSchedule(np.full(3, 3), np.ones(3, dtype=bool))
        trace = forward(ann.model, seqs[0], sched)
        scores = trace.hidden[2][1] @ ann.heads[1]
        assert ds.bits[1, 1] == int(np.argmax(scores) == 1)

    def test_head_count_mismatch(self):
        model = random_model(9, 3, 8, 2, 16, seed=0)
        with pytest.raises(ConfigError):
            MultiExitAnnotator(model=model, heads=[np.zeros((8, 2))] * 2)

    def test_trained_annotator_beats_chance_at_top(self):
        rng = np.random.default_rng(6)
        model = random_model(11, 2, 8, 2, 16, seed=7)
        seqs, golds = [], []
        for _ in range(30):
            lab = int(rng.integers(0, 2))
            pool = np.arange(1, 6) if lab == 0 else np.arange(6, 11)
            seqs.append([0] + list(rng.choice(pool, size=4)))
            golds.append(lab)
        ann = train_annotator(model, seqs, golds, epochs=300, lr=0.5, seed=0)
        ds = annotate(ann, seqs, golds)
        assert ds.bits[:, -1].mean() >= 0.9

    def test_bad_mode(self):
        ann = random_annotator(seed=8)
        with pytest.raises(ConfigError):
            annotate(ann, [[0]], [0], mode="word")

    def test_empty_input(self):
        ann = random_annotator(seed=9)
        with pytest.raises(InputError):
            annotate(ann, [], [])


class TestPackedWalk:
    """The lab runs its sequences as packed batches, one forward call per
    batch, and gives back what one-document forwards give, in order."""

    @pytest.fixture
    def small_batches(self, monkeypatch):
        # random_annotator's widest layer is d_ff=16 floats: 7 rows a batch
        monkeypatch.setattr(encoder, "BATCH_FLOATS", 16 * 7)

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
        ann = random_annotator(seed=11)
        rng, seqs = self.ragged(12, longest=6)
        golds = [int(rng.integers(0, 2)) for _ in seqs]
        token_golds = [[int(g) for g in rng.integers(0, 2, len(s))] for s in seqs]
        batches = row_batches([len(s) for s in seqs], batch_rows(ann.model))
        assert 1 < len(batches) < len(seqs)
        calls = self.count_forward_calls(monkeypatch)
        train_annotator(ann.model, seqs, golds, epochs=2)
        annotate(ann, seqs, golds)
        annotate(ann, seqs, token_golds, mode="token")
        assert calls == [len(b) for b in batches] * 3

    @pytest.mark.parametrize("mode", ["sentence", "token"])
    def test_matches_per_document_annotation(self, small_batches, mode):
        ann = random_annotator(seed=13)
        rng, seqs = self.ragged(14)
        if mode == "sentence":
            labels = [int(rng.integers(0, 2)) for _ in seqs]
        else:
            labels = [[int(g) for g in rng.integers(0, 2, len(s))] for s in seqs]
        tokens = [[f"w{t}" for t in seq] for seq in seqs]
        ds = annotate(ann, seqs, labels, mode=mode, tokens=tokens)
        bits, feats, ids, toks = [], [], [], []
        for i, seq in enumerate(seqs):
            n = len(seq)
            trace = forward(ann.model, seq,
                            ExitSchedule(np.full(n, 3), np.ones(n, dtype=bool)))
            for p in [0] if mode == "sentence" else range(n):
                gold = labels[i] if mode == "sentence" else labels[i][p]
                states = [h[p] for h in trace.hidden[1:]]
                bits.append([int(np.argmax(s @ w) == gold)
                             for s, w in zip(states, ann.heads)])
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
        packed = train_annotator(model, seqs, golds, epochs=30)
        monkeypatch.setattr(difficulty, "row_batches", lambda lengths, _: [
            np.array([i]) for i in range(len(lengths))])
        alone = train_annotator(model, seqs, golds, epochs=30)
        for a, b in zip(packed.heads, alone.heads):
            assert np.abs(a - b).max() <= 1e-9


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
        assert "not applicable" in metrics.to_text()

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

    def test_tokens_required_to_write(self):
        ds = DifficultyDataset(bits=np.array([[1]], dtype=np.int8))
        with pytest.raises(ConfigError):
            serialize_difficulty_dataset(ds)
