import numpy as np
import pytest

from hashexit import encoder
from hashexit.errors import ConfigError, InputError, TrainingError
from hashexit.difficulty import serialize_difficulty_dataset
from hashexit.experiments import (
    make_separable_task,
    run_consistency_ablation,
    run_difficulty_pipeline,
)


class TestSeparableTask:
    def test_deterministic(self):
        a = make_separable_task(seed=3)
        b = make_separable_task(seed=3)
        assert a.train_seqs == b.train_seqs
        assert a.eval_labels == b.eval_labels

    def test_class_pools_are_disjoint(self):
        task = make_separable_task(vocab_size=11, seed=0)
        for seqs, labels in ((task.train_seqs, task.train_labels),
                             (task.eval_seqs, task.eval_labels)):
            for seq, lab in zip(seqs, labels):
                assert seq[0] == 0
                body = set(seq[1:])
                if lab == 0:
                    assert body <= set(range(1, 6))
                else:
                    assert body <= set(range(6, 11))

    def test_shapes(self):
        task = make_separable_task(num_train=7, num_eval=3, seq_len=4)
        assert len(task.train_seqs) == 7
        assert len(task.eval_seqs) == 3
        assert all(len(s) == 4 for s in task.train_seqs)

    def test_token_text(self):
        task = make_separable_task(num_train=2, num_eval=1)
        text = task.token_text(task.train_seqs)
        assert text[0][0] == "cls"

    @staticmethod
    def choice_draws(count, *, vocab_size, seq_len, rng):
        """The task's draws made through `Generator.choice`."""
        half = 1 + (vocab_size - 1) // 2
        pools = (np.arange(1, half), np.arange(half, vocab_size))
        seqs, labels = [], []
        for _ in range(count):
            lab = int(rng.integers(0, 2))
            body = rng.choice(pools[lab], size=seq_len - 1)
            seqs.append([0] + [int(t) for t in body])
            labels.append(lab)
        return seqs, labels

    @pytest.mark.parametrize("vocab_size", [3, 8, 12, 23, 40])
    @pytest.mark.parametrize("seq_len", [1, 2, 7])
    def test_draws_are_those_of_generator_choice(self, vocab_size, seq_len):
        # pools of 1, 3-4, 5-6, 11 and 19-20 tokens: sizes off powers of two
        for seed in range(120):
            task = make_separable_task(num_train=6, num_eval=4,
                                       vocab_size=vocab_size,
                                       seq_len=seq_len, seed=seed)
            rng = np.random.default_rng(seed)
            want = (self.choice_draws(6, vocab_size=vocab_size,
                                      seq_len=seq_len, rng=rng),
                    self.choice_draws(4, vocab_size=vocab_size,
                                      seq_len=seq_len, rng=rng))
            got = ((task.train_seqs, task.train_labels),
                   (task.eval_seqs, task.eval_labels))
            assert got == want
            assert {type(t) for seq in task.train_seqs for t in seq} == {int}

    def test_tiny_vocab_rejected(self):
        with pytest.raises(ConfigError):
            make_separable_task(vocab_size=2)

    @pytest.mark.parametrize("seed, error", [
        (-1, ConfigError), (0.5, InputError), (True, InputError),
    ], ids=["negative", "float", "bool"])
    def test_seed_is_a_non_negative_integer(self, seed, error):
        with pytest.raises(error, match="seed"):
            make_separable_task(seed=seed)


class TestAblation:
    def test_needs_two_seeds(self):
        with pytest.raises(ConfigError):
            run_consistency_ablation([0])

    @pytest.mark.parametrize("seeds, error", [
        ([-1, 2], ConfigError), ([0.5, 1.5], InputError), ([0, True], InputError),
    ], ids=["negative", "float", "bool"])
    def test_seeds_are_non_negative_integers(self, seeds, error):
        with pytest.raises(error, match="seeds"):
            run_consistency_ablation(seeds)

    def test_epochs_are_an_integer(self):
        # 1.5 epochs once reached range() and raised a bare TypeError
        with pytest.raises(InputError, match="epochs"):
            run_consistency_ablation([0, 1], epochs=1.5)

    def test_identical_tables_control(self):
        res = run_consistency_ablation([0, 1], epochs=40, force_identical=True)
        assert res.cons_accuracies == res.incons_accuracies

    def test_text_schema(self):
        res = run_consistency_ablation([0, 1], epochs=40)
        lines = res.to_text().splitlines()
        # header x2, then per arm: one row per seed plus a mean row
        assert len(lines) == 2 + 2 * (2 + 1)
        assert lines[2].startswith("cons")
        assert lines[4].startswith("cons    mean")
        assert lines[5].startswith("incons")
        assert lines[7].startswith("incons  mean")

    def test_deterministic(self):
        a = run_consistency_ablation([0, 1], epochs=40)
        b = run_consistency_ablation([0, 1], epochs=40)
        assert a.cons_accuracies == b.cons_accuracies
        assert a.incons_accuracies == b.incons_accuracies


    @pytest.mark.parametrize("seeds", [[0, 1], [6, 7]])
    def test_a_one_class_training_draw_still_trains_two_classes(self, seeds):
        # one training document of class 0 gave its seed a one-class head,
        # which then refused the evaluation set's class-1 labels
        res = run_consistency_ablation(seeds, num_train=1, epochs=5)
        assert len(res.cons_accuracies) == len(res.incons_accuracies) == 2

    def test_one_walk_per_seed(self, monkeypatch):
        # a seed's training docs under both arms' training tables and its
        # evaluation docs under both inference tables share one forward
        calls = []
        real = encoder.forward

        def counted(model, batch, *args, **kwargs):
            calls.append(len(batch))
            return real(model, batch, *args, **kwargs)

        monkeypatch.setattr(encoder, "forward", counted)
        run_consistency_ablation([0, 1, 2], num_train=6, num_eval=4, epochs=2)
        assert calls == [2 * 6 + 2 * 4] * 3

    @pytest.mark.parametrize("sizes, message", [
        ((0, 4), "training set is empty"),
        ((0, 0), "training set is empty"),
        ((4, 0), "evaluation set is empty"),
    ], ids=["train", "both", "eval"])
    def test_empty_sets_rejected(self, sizes, message):
        num_train, num_eval = sizes
        with pytest.raises(InputError, match=message):
            run_consistency_ablation([0, 1], num_train=num_train,
                                     num_eval=num_eval, epochs=2)

    def test_divergence_names_the_seed_and_arm(self):
        with pytest.raises(TrainingError,
                           match=r"^classifier head of seed 3, cons arm "
                                 r"diverged: loss nan$"):
            run_consistency_ablation([3, 4], lr=float("inf"), epochs=2)


class TestDifficultyPipeline:
    # numpy raised a bare ValueError for -1 and a TypeError for 0.5, and
    # True ran as seed 1
    @pytest.mark.parametrize("seed, error", [
        (-1, ConfigError), (0.5, InputError), (True, InputError),
    ], ids=["negative", "float", "bool"])
    def test_seed_is_a_non_negative_integer(self, seed, error):
        with pytest.raises(error, match="seed"):
            run_difficulty_pipeline(seed=seed)

    def test_runs_and_reports_both_predictors(self):
        out = run_difficulty_pipeline(seed=0, num_train=20, num_eval=20,
                                      annotator_epochs=60,
                                      predictor_epochs=80)
        assert set(out.metrics) == {"majority", "linear_b"}
        text = out.to_text()
        assert "majority" in text and "linear_b" in text

    # seed 2 leaves a slot without negative instances to oversample
    @pytest.mark.filterwarnings(
        "ignore:slot .* has no negative instances:UserWarning")
    def test_byte_deterministic(self):
        kwargs = dict(seed=2, num_train=20, num_eval=20,
                      annotator_epochs=60, predictor_epochs=80)
        a = run_difficulty_pipeline(**kwargs)
        b = run_difficulty_pipeline(**kwargs)
        assert a.to_text() == b.to_text()
        assert serialize_difficulty_dataset(a.train_dataset) == \
            serialize_difficulty_dataset(b.train_dataset)
        assert serialize_difficulty_dataset(a.eval_dataset) == \
            serialize_difficulty_dataset(b.eval_dataset)

    @pytest.mark.parametrize("sizes, message", [
        ((0, 4), "annotator training set is empty"),
        ((4, 0), "nothing to annotate"),
    ], ids=["train", "eval"])
    def test_empty_sets_rejected(self, sizes, message):
        num_train, num_eval = sizes
        with pytest.raises(InputError, match=message):
            run_difficulty_pipeline(num_train=num_train, num_eval=num_eval,
                                    annotator_epochs=2, predictor_epochs=2)

    def test_oversample_floor_respected_per_slot_pass(self):
        out = run_difficulty_pipeline(seed=0, num_train=20, num_eval=20,
                                      annotator_epochs=60,
                                      predictor_epochs=80, floor=0.3)
        bits = out.train_dataset.bits
        # the last slot's floor can never be diluted by later passes
        last = bits.shape[1] - 1
        if np.any(bits[:, last] == 0):
            assert (bits[:, last] == 0).mean() >= 0.3
