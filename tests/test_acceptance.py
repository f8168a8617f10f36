"""Acceptance gate: nine checks, one verdict line each.

Runs under pytest (one test per criterion) or directly via
`python3 tests/test_acceptance.py`. Every check prints
`[acceptance N] PASS|FAIL <name>`; tolerances and runtime budgets are
pinned in-line next to each check. The direct run goes on past a failing
check, so every check prints its line, and exits 1 if any failed.
"""

import math
import sys
import time

import numpy as np

from hashexit.difficulty import (
    DifficultyDataset,
    bce_loss_and_grad,
    evaluate,
    majority_baseline,
    negative_class_metrics,
)
from hashexit.encoder import (
    ExitSchedule,
    _head_loss_and_grad,
    forward,
    random_model,
    schedule,
)
from hashexit.experiments import DifficultyOutcome, run_consistency_ablation
from hashexit.corpus import zipf_corpus
from hashexit.flops import (
    FLOPS_PER_MAC,
    ModelDims,
    oracle_count,
    report,
    saved_macs,
)
from hashexit.hashing import (
    CorpusStats,
    Vocab,
    bucket_to_layer,
    build_frequency,
    build_mi,
    build_random,
    parse_hash_table,
    serialize_hash_table,
    token_label_mi,
)

from helpers import make_random_labeled_corpus, vanilla_forward


_PRINTED = set()  # numbers of the checks whose verdict line is out


def _verdict(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {num}] {status} {name} ({detail}; {elapsed:.2f}s "
          f"of {budget:.0f}s budget)")
    _PRINTED.add(num)
    assert ok, f"acceptance {num} {name}: {detail}"
    assert elapsed < budget, f"acceptance {num} overran {budget}s: {elapsed:.2f}s"


def test_acceptance_1_no_exit_equivalence():
    # 100 random (model, input) draws, exit everywhere at L, must match a
    # vanilla full forward within 1e-9 max abs error; budget 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        heads = int(rng.integers(1, 3))
        d = heads * int(rng.choice([2, 4]))
        L = int(rng.integers(1, 5))
        d_ff = int(rng.choice([8, 16]))
        vocab_size = int(rng.integers(4, 12))
        model = random_model(vocab_size, L, d, heads, d_ff,
                             seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 11))
        ids = rng.integers(0, vocab_size, size=n)
        sched = ExitSchedule(np.full(n, L), np.ones(n, dtype=bool))
        got = forward(model, ids, sched).final
        ref = vanilla_forward(model, ids)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    _verdict(1, "no-exit equivalence", worst < 1e-9,
             f"max |diff| {worst:.2e} over 100 draws, tolerance 1e-9",
             time.perf_counter() - start, 30.0)


def test_acceptance_2_freeze_exactness():
    # 100 random schedules: every position's state above its exit layer is
    # bit-identical to the state at the exit layer; budget 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    ok = True
    for _ in range(100):
        L = int(rng.integers(1, 6))
        heads = int(rng.integers(1, 3))
        d = 4 * heads
        model = random_model(10, L, d, heads, 12,
                             seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 9))
        ids = rng.integers(0, 10, size=n)
        exits = rng.integers(1, L + 1, size=n)
        trace = forward(model, ids, ExitSchedule(exits, np.ones(n, dtype=bool)))
        for p in range(n):
            k = int(exits[p])
            for t in range(k, L + 1):
                ok = ok and bool(
                    np.array_equal(trace.hidden[t][p], trace.hidden[k][p]))
                checked += 1
    _verdict(2, "freeze exactness", ok,
             f"{checked} (position, layer) pairs bit-compared over "
             "100 schedules",
             time.perf_counter() - start, 30.0)


def test_acceptance_3_flops_oracle_equality():
    # analytic saved-MACs == full - op-count oracle, exactly, on the whole
    # grid n<=16, m<=n, d in {4,8}, h in {1,2}, d_ff in {8,16}; the worked
    # case n=4,m=3,d=8,h=2,d_ff=32 totals 752 MACs / 1504 FLOPs; budget 10 s
    start = time.perf_counter()
    mismatches = 0
    cases = 0
    for d in (4, 8):
        for h in (1, 2):
            for d_ff in (8, 16):
                for n in range(1, 17):
                    full = saved_macs(n, n, d, h, d_ff).full_macs
                    for m in range(0, n + 1):
                        cases += 1
                        if saved_macs(n, m, d, h, d_ff).saved_macs != \
                                full - oracle_count(n, m, d, h, d_ff):
                            mismatches += 1
    worked = saved_macs(4, 3, 8, 2, 32)
    exact = (worked.saved_macs == 752
             and FLOPS_PER_MAC * worked.saved_macs == 1504)
    _verdict(3, "FLOPs oracle equality", mismatches == 0 and exact,
             f"{cases} grid cases, {mismatches} mismatches; worked case "
             f"{worked.saved_macs} MACs / {FLOPS_PER_MAC * worked.saved_macs} FLOPs",
             time.perf_counter() - start, 10.0)


def test_acceptance_4_bucket_map_constant():
    # B=3 buckets over L=12 layers land on exactly {1, 5, 9}; instant
    start = time.perf_counter()
    layers = {bucket_to_layer(b, 3, 12) for b in range(3)}
    _verdict(4, "bucket-map constant", layers == {1, 5, 9},
             f"L=12, B=3 -> {sorted(layers)}",
             time.perf_counter() - start, 5.0)


def test_acceptance_5_hash_law_properties():
    # frequency and MI tables over 50 random corpora: higher sort key never
    # exits later, bucket sizes differ by <= 1, round-trips byte-exact;
    # budget 30 s
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(50):
        vocab, stats, _, _ = make_random_labeled_corpus(rng)
        L = int(rng.integers(2, 13))
        B = int(rng.integers(1, L + 1))
        freq_table = build_frequency(vocab, stats, B, L)
        mi_table = build_mi(vocab, stats, B, L)
        mi_scores = np.array([token_label_mi(stats, t)
                              for t in range(len(vocab.tokens))])
        for table, key in ((freq_table, stats.freq.astype(float)),
                           (mi_table, mi_scores)):
            sizes = table.bucket_sizes()
            ok = ok and sizes.max() - sizes.min() <= 1
            order = np.argsort(-key, kind="stable")
            layers_sorted = table.layers[order]
            keys_sorted = key[order]
            for i in range(1, len(vocab.tokens)):
                if keys_sorted[i - 1] > keys_sorted[i]:
                    ok = ok and layers_sorted[i - 1] <= layers_sorted[i]
            text = serialize_hash_table(table)
            ok = ok and serialize_hash_table(parse_hash_table(text)) == text
    _verdict(5, "hash-law properties", ok,
             "monotonicity, balance <= 1, byte-exact round-trip on 50 corpora",
             time.perf_counter() - start, 30.0)


def test_acceptance_6_frequency_beats_random_flops():
    # Zipf(1.0) corpus, V=1000, 10k docs, L=6, B=6: frequency hashing must
    # cost strictly fewer FLOPs than consistent random hashing; budget 60 s
    start = time.perf_counter()
    corpus = zipf_corpus(1000, 10_000, seed=606)
    vocab = Vocab.from_documents(corpus.documents)
    stats = CorpusStats.from_documents(vocab, corpus.documents)
    freq_table = build_frequency(vocab, stats, 6, 6)
    rand_table = build_random(vocab, 6, 6, seed=0)
    dims = ModelDims(num_layers=6, d=8, heads=2, d_ff=16)
    totals = {}
    for name, table in (("frequency", freq_table), ("rand-cons", rand_table)):
        schedules = [schedule(vocab.ids_for(doc), table)
                     for doc in corpus.documents]
        totals[name] = report(dims, schedules).total_flops
    ok = totals["frequency"] < totals["rand-cons"]
    _verdict(6, "frequency beats random on FLOPs", ok,
             f"frequency {totals['frequency']} < rand-cons "
             f"{totals['rand-cons']}",
             time.perf_counter() - start, 60.0)


def test_acceptance_7_consistency_ablation_direction():
    # >= 10 seeds on the separable task: mean accuracy of the consistent
    # arm must not trail the inconsistent arm by more than 0.01; budget 5 min
    start = time.perf_counter()
    result = run_consistency_ablation(range(10))
    mean_cons = np.mean(result.cons_accuracies)
    mean_incons = np.mean(result.incons_accuracies)
    ok = mean_cons >= mean_incons - 0.01
    _verdict(7, "consistency ablation direction", ok,
             f"mean cons {mean_cons:.4f} vs mean incons {mean_incons:.4f} "
             "(slack 0.01)",
             time.perf_counter() - start, 300.0)


def test_acceptance_8_difficulty_metric_fixture():
    # hand-counted fixture: tp=2, fp=1, fn=1 -> p = r = f1 = 2/3 exactly;
    # an all-positive majority predictor reports F1 as not applicable
    start = time.perf_counter()
    fixture = negative_class_metrics(np.array([[0, 0, 0, 1, 1, 1]]),
                                     np.array([[0, 0, 1, 0, 1, 1]]))
    exact = (fixture.precision == 2 / 3 and fixture.recall == 2 / 3
             and fixture.f1 == 2 / 3 and fixture.applicable)
    train = DifficultyDataset(bits=np.ones((6, 2), dtype=np.int8))
    test_set = DifficultyDataset(bits=np.array([[0, 1], [1, 0], [1, 1]],
                                               dtype=np.int8))
    metrics = evaluate(majority_baseline(train), test_set)
    text = DifficultyOutcome(train, test_set, {"majority": metrics,
                                               "linear_b": metrics}).to_text()
    not_applicable = (not metrics.applicable
                      and text.splitlines()[2].split()[:4]
                      == ["majority", "n/a", "0.0000", "n/a"])
    _verdict(8, "difficulty metric fixture", exact and not_applicable,
             f"fixture p/r/f1 = {fixture.precision:.4f}/{fixture.recall:.4f}/"
             f"{fixture.f1:.4f}; all-positive majority applicable="
             f"{metrics.applicable}",
             time.perf_counter() - start, 5.0)


def test_acceptance_9_gradient_checks():
    # classifier-head cross entropy and difficulty BCE gradients vs central
    # finite differences, max relative error < 1e-4; budget 60 s
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0

    def rel_err(analytic, numeric):
        denom = max(abs(analytic), abs(numeric), 1e-8)
        return abs(analytic - numeric) / denom

    for _ in range(10):
        # the stacked kernel, each problem a stack of one
        feats = rng.normal(size=(1, 8, 6))
        labels = rng.integers(0, 3, size=(1, 8))
        head = rng.normal(size=(1, 6, 3))
        _, grad = _head_loss_and_grad(head, feats, labels)
        eps = 1e-6
        for i in range(6):
            for j in range(3):
                hp, hm = head.copy(), head.copy()
                hp[0, i, j] += eps
                hm[0, i, j] -= eps
                num = (_head_loss_and_grad(hp, feats, labels)[0][0]
                       - _head_loss_and_grad(hm, feats, labels)[0][0]) / (2 * eps)
                worst = max(worst, rel_err(grad[0, i, j], num))

    for _ in range(10):
        feats = rng.normal(size=(9, 5))
        targets = rng.integers(0, 2, size=9).astype(np.float64)
        w = rng.normal(size=5)
        b = float(rng.normal())
        _, gw, gb = bce_loss_and_grad(w, b, feats, targets)
        eps = 1e-6
        for i in range(5):
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            num = (bce_loss_and_grad(wp, b, feats, targets)[0]
                   - bce_loss_and_grad(wm, b, feats, targets)[0]) / (2 * eps)
            worst = max(worst, rel_err(gw[i], num))
        num_b = (bce_loss_and_grad(w, b + eps, feats, targets)[0]
                 - bce_loss_and_grad(w, b - eps, feats, targets)[0]) / (2 * eps)
        worst = max(worst, rel_err(gb, num_b))

    _verdict(9, "gradient checks", worst < 1e-4,
             f"max relative error {worst:.2e}, tolerance 1e-4",
             time.perf_counter() - start, 60.0)


if __name__ == "__main__":
    failed = False
    for num, fn in enumerate((test_acceptance_1_no_exit_equivalence,
                              test_acceptance_2_freeze_exactness,
                              test_acceptance_3_flops_oracle_equality,
                              test_acceptance_4_bucket_map_constant,
                              test_acceptance_5_hash_law_properties,
                              test_acceptance_6_frequency_beats_random_flops,
                              test_acceptance_7_consistency_ablation_direction,
                              test_acceptance_8_difficulty_metric_fixture,
                              test_acceptance_9_gradient_checks), start=1):
        try:
            fn()
        except Exception as exc:
            failed = True
            if num not in _PRINTED:  # it died before reaching its verdict
                print(f"[acceptance {num}] FAIL {fn.__name__} "
                      f"({type(exc).__name__}: {exc})")
    sys.exit(1 if failed else 0)
