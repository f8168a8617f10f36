"""Machine-speed twins: fixed, package-independent work of the same kind as
each timed section.

The CPU this benchmark runs on may be shared, and its speed then drifts by
tens of percent within a minute. A twin runs right before and right after
a timed section. The section's time is scaled by REF_S[kind] / (mean twin
time), which gives the time the section would take at the speed the twin
was calibrated at. Both the raw and the scaled times are recorded. The
twins' inputs never depend on the workload seed or on the package, so a
change to the package moves only the sections, never the twins.
"""

import time

import numpy as np

import reference

# Seconds each twin took, about the fastest of 40 runs, on the machine the
# bounds were tuned on: a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4 with
# OpenBLAS 0.3.31 at one thread. Only the ratio of live twin time to these
# matters; the constants keep the scaled figures in real units.
REF_S = {
    "parse": 0.035,
    "encoder:infer-mid": 0.055,
    "encoder:toy": 0.052,
    "routing": 0.038,
    "cluster": 0.038,
}
# (tokens per sequence, sequences) of the encoder twin per workload
ENCODER_SHAPE = {"infer-mid": (96, 1), "toy": (10, 180)}


class Twins:
    def __init__(self, workload, weights=None):
        """weights: reference.encode weights of the workload's model; the
        encoder twin runs no-exit sequences of ENCODER_SHAPE through them."""
        rng = np.random.default_rng(7)
        self.text = "\n".join(" ".join(repr(float(x)) for x in row)
                              for row in rng.normal(size=(1400, 64)))
        self.workload, self.weights = workload, weights
        if weights is not None:
            seq_len, num_seqs = ENCODER_SHAPE[workload]
            vocab = weights["embedding"].shape[0]
            self.seqs = [rng.integers(0, vocab, size=seq_len)
                         for _ in range(num_seqs)]
        names = [f"t{i:04d}" for i in range(4000)]
        self.index = {t: i for i, t in enumerate(names)}
        self.buckets = rng.integers(0, 3, size=len(names))
        self.docs = [[names[i] for i in rng.integers(0, len(names), size=120)]
                     for _ in range(600)]
        self.points = rng.normal(size=(6000, 128))
        self.centers = rng.normal(size=(3, 128))

    def parse(self):
        """Text floats to numbers, as the model and embedding loaders do."""
        return [[float(x) for x in line.split()]
                for line in self.text.splitlines()]

    def encoder(self):
        for ids in self.seqs:
            reference.encode(self.weights, ids,
                             np.full(ids.size, len(self.weights["layers"])))

    def routing(self):
        """Token lookups and per-layer counting, as routing and pricing do."""
        exits = [reference.exit_layers(doc, self.index, self.buckets, 3, 12,
                                       pin_first=False) for doc in self.docs]
        reference.corpus_macs(exits, 12, 768, 12, 3072)

    def cluster(self):
        """Broadcast distances over a large array, as k-means sweeps do."""
        for _ in range(6):
            d2 = (self.points[:, None, :] - self.centers[None, :, :]) ** 2
            d2.sum(axis=2).argmin(axis=1)

    def seconds(self, kind, budget=0.0, warm=True):
        """Mean seconds per run of one twin, run once and then until
        `budget` seconds have passed. With `warm`, a first untimed run
        brings the twin's data back into cache, so the figure does not
        depend on how long the twin runs."""
        fn = getattr(self, kind)
        if warm:
            fn()
        runs = 0
        t0 = time.perf_counter()
        while True:
            fn()
            runs += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                return elapsed / runs

    def scale(self, kind, runs):
        """Calibration time over the mean of live twin runs."""
        ref = REF_S[f"encoder:{self.workload}" if kind == "encoder" else kind]
        return ref * len(runs) / sum(runs)
