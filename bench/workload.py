"""One benchmark workload, run in its own process.

    python3 bench/workload.py --workload toy --seed 1 --seconds 20 \\
        --trace 0 --result result.json [--size tiny]

run.py starts this with one BLAS thread and reads the result file. The
run generates the workload's input files from --seed, then repeats rounds
of the workload's operations, one call at a time, until --seconds have
passed (at least two rounds). It drives the package only through
`hashexit.cli.main` (in process) and public functions, checks outputs
against reference.py outside the timed sections, and writes a JSON result
with the medians of the per-round figures.

With --trace 1 the first half of the time runs untraced rounds and the
second half traced rounds; the result then holds the per-layer metrics and
the tracing overhead (the twin-scaled time of a round's CLI commands,
traced minus untraced, medians).
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
import tracing
import twins

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 2
TOL = 1e-9
# The encoder weights and token embeddings stand for pretrained
# parameters: they come from a fixed seed, so only the corpus (and the
# tables built from it) changes with --seed, and the text files, slow to
# write, are cached per package source.
ASSET_SEED = 20220303
LAYER_FIELDS = ("wq", "wk", "wv", "wo", "w1", "w2",
                "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")
SAVED_CATEGORIES = ("linear_proj", "attn", "out_proj", "layer_norms", "ffn")
MODULES = ("cli", "corpus", "hashing", "encoder", "linalg", "flops",
           "difficulty", "experiments")
MAX_LAYERS = 12
# A twin run averages the machine's speed over its own length, so each
# twin runs for about this share of the section it scales (as long as the
# last call of the same command), capped at TWIN_MAX_S.
TWIN_SHARE = 0.1
TWIN_MAX_S = 0.5

SIZES = {
    "full": {
        "infer-mid": dict(vocab=5000, docs=200, min_len=64, max_len=128,
                          L=12, d=256, h=4, d_ff=1024, buckets=3,
                          compare_docs=24, flops_reps=5, twin_every=10,
                          flops_twin_every=50, setup_reps=0),
        "toy": dict(vocab=200, docs=2000, min_len=5, max_len=15,
                    L=4, d=8, h=2, d_ff=16, buckets=3, compare_docs=400,
                    ablate_seeds=6, difficulty_docs=200, twin_every=125,
                    ablate_twin_every=2, difficulty_twin_every=100,
                    setup_reps=8),
        "price-bert": dict(vocab=30522, docs=1000, min_len=64, max_len=512,
                           L=12, d=768, h=12, d_ff=3072, buckets=3,
                           emb_dim=64, setup_reps=0, flops_reps=2,
                           flops_twin_every=100, mi_twin_every=5000),
    },
    "tiny": {
        "infer-mid": dict(vocab=300, docs=6, min_len=8, max_len=16,
                          L=12, d=16, h=4, d_ff=32, buckets=3,
                          compare_docs=3, flops_reps=2, twin_every=2,
                          flops_twin_every=2, setup_reps=0),
        "toy": dict(vocab=50, docs=30, min_len=5, max_len=15,
                    L=4, d=8, h=2, d_ff=16, buckets=3, compare_docs=10,
                    ablate_seeds=2, difficulty_docs=20, twin_every=10,
                    ablate_twin_every=1, difficulty_twin_every=10,
                    setup_reps=2),
        "price-bert": dict(vocab=2000, docs=20, min_len=64, max_len=128,
                           L=12, d=768, h=12, d_ff=3072, buckets=3,
                           emb_dim=8, setup_reps=1, flops_reps=2,
                           flops_twin_every=5, mi_twin_every=200),
    },
}


def load_package():
    """Import hashexit from this checkout's src/, and nowhere else."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import hashexit
    import hashexit.cli
    where = Path(hashexit.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"hashexit imported from {where}, not this checkout")
    return hashexit


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hashexit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def blas_facts():
    """BLAS library, version and the thread count the loaded library uses."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        cdll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_in_effect": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


class LoadTimer:
    """Times the public loaders where the CLI looks them up, so setup can
    be told apart from the work of each command."""

    NAMES = ("load_model", "load_hash_table", "load_corpus", "load_embeddings")

    def __init__(self, cli):
        self.cli = cli
        self.records = []
        self.saved = [(name, getattr(cli, name)) for name in self.NAMES]
        for name, fn in self.saved:
            setattr(cli, name, self._timed(name, fn))

    def _timed(self, name, fn):
        def timed(path, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(path, *args, **kwargs)
            finally:
                self.records.append((name, str(path), time.perf_counter() - t0))
        return timed

    def restore(self):
        for name, fn in self.saved:
            setattr(self.cli, name, fn)


class Timing:
    """One CLI call: raw wall and loader seconds, and both scaled to the
    twins' calibration speed (loaders by the parse twin, the rest by the
    section's own twin)."""

    def __init__(self, wall, loaded, scale_work, scale_parse):
        self.wall, self.loaded = wall, loaded
        self.loaded_n = loaded * scale_parse
        self.work_n = (wall - loaded) * scale_work
        self.wall_n = self.work_n + self.loaded_n


class Run:
    """State of one workload run: inputs, counters, and checks."""

    def __init__(self, hx, name, cfg, seed, work):
        self.hx, self.name, self.cfg, self.seed = hx, name, cfg, seed
        self.work = work
        self.out_dir = work / "out"
        self.attempted = 0
        self.failures = []
        self.tracer = tracing.Tracer()
        self.loads = None
        self.twins = None
        self.scaled_loads = []
        self.round_cmds_s = 0.0
        self.last_call = {}
        self.round_runs = []
        self.devnull = open(os.devnull, "w", encoding="utf-8")
        self.src_digest = source_digest()
        self.inputs = {}
        self.extra = {}
        self.model = None
        self.flops = None
        self.flops_table = None
        self.schedules = []
        self.save_model_s = 0.0

    def path(self, name):
        return str(self.work / name)

    def asset(self, name, params, write):
        """Path of a cached seed-independent input file, written once."""
        key = hashlib.sha256(json.dumps([self.src_digest, name, params],
                                        sort_keys=True).encode()).hexdigest()
        path = OUT / "cache" / f"{name}-{key[:16]}"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
            write(str(tmp))
            os.replace(tmp, path)
        return str(path)

    def fail(self, what, detail):
        self.failures.append(f"{what}: {detail}")

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.fail(what, detail or "mismatch")
        return ok

    def cli(self, argv, twin, every=0, hook=("cli", "forward")):
        """One CLI command in process, between two runs of the parse twin
        and of `twin`. With `every`, `twin` also runs before every
        `every`-th call the command makes to `hook`, a (module, function)
        it calls many times; that time is taken out of the wall time. In
        traced rounds it does not, so that no span holds twin time.
        Returns a Timing, or None if the command failed."""
        kinds = ("parse", twin)
        budgets = [min(TWIN_MAX_S, TWIN_SHARE * secs)
                   for secs in self.last_call.get(tuple(argv), (0.0, 0.0))]
        before = [self.twins.seconds(k, b) for k, b in zip(kinds, budgets)]
        inner = []
        every = 0 if self.tracer.enabled else every
        if every:
            owner = getattr(self.hx, hook[0])
            hooked = getattr(owner, hook[1])

            def sampled(*args, **kwargs):
                if (len(inner) + 1) * every == sampled.calls:
                    inner.append(self.twins.seconds(twin, warm=False))
                sampled.calls += 1
                return hooked(*args, **kwargs)

            sampled.calls = 1
            setattr(owner, hook[1], sampled)
        self.attempted += 1
        self.tracer.run_id += 1
        self.round_runs.append(self.tracer.run_id)
        mark = len(self.loads.records)
        err = io.StringIO()
        rc = None
        with contextlib.redirect_stdout(self.devnull), \
                contextlib.redirect_stderr(err), \
                self.tracer.span("cli." + argv[0].replace("-", "_")):
            t0 = time.perf_counter()
            try:
                rc = self.hx.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                err.write(traceback.format_exc())
            finally:
                if every:
                    setattr(owner, hook[1], hooked)
            wall = time.perf_counter() - t0 - sum(inner)
        after = [self.twins.seconds(k, b) for k, b in zip(kinds, budgets)]
        if rc != 0:
            self.fail(f"hashexit {argv[0]}",
                      f"exit {rc}: {err.getvalue().strip()[-500:]}")
            return None
        scale = [self.twins.scale("parse", [before[0], after[0]]),
                 self.twins.scale(twin, [before[1], after[1], *inner])]
        loads = self.loads.records[mark:]
        self.scaled_loads += [(path, secs * scale[0])
                              for _, path, secs in loads]
        loaded = sum(r[2] for r in loads)
        self.last_call[tuple(argv)] = (loaded, wall - loaded)
        timing = Timing(wall, loaded, scale[1], scale[0])
        self.round_cmds_s += timing.wall_n
        return timing

    def forwards(self, model, ids_list, schedules):
        """Package forward over the docs: (seconds, final states)."""
        finals = []
        t0 = time.perf_counter()
        for ids, sched in zip(ids_list, schedules):
            self.attempted += 1
            try:
                finals.append(self.hx.forward(model, ids, sched).final)
            except self.hx.HashExitError as exc:
                self.fail("forward", repr(exc))
                finals.append(None)
        return time.perf_counter() - t0, finals

    def setup_samples(self, mark):
        """Set-up times of one round, scaled by the parse twin.

        One sample sums the first load of each input file by this round's
        CLI calls; cfg["setup_reps"] more read every input file again
        through the public loaders, for workloads whose set-up is short.
        """
        first = {}
        for path, secs in self.scaled_loads[mark:]:
            first.setdefault(path, secs)
        wanted = [path for _, path, _ in self.input_files]
        samples = []
        if all(path in first for path in wanted):
            samples.append(sum(first[path] for path in wanted))
        if self.cfg["setup_reps"]:
            before = self.twins.seconds("parse")
            raw = []
            for _ in range(self.cfg["setup_reps"]):
                t0 = time.perf_counter()
                for loader, path, kwargs in self.input_files:
                    getattr(self.hx, loader)(path, **kwargs)
                raw.append(time.perf_counter() - t0)
            scale = self.twins.scale("parse",
                                     [before, self.twins.seconds("parse")])
            samples += [secs * scale for secs in raw]
        return samples


# ---------------------------------------------------------------- inputs

def prepare_encoder(run):
    """Corpus, frequency table and model for infer-mid and toy."""
    hx, cfg = run.hx, run.cfg
    corpus = hx.zipf_corpus(cfg["vocab"], cfg["docs"], seed=run.seed,
                            min_len=cfg["min_len"], max_len=cfg["max_len"])
    run.corpus_path = run.path("corpus.txt")
    hx.save_corpus(corpus, run.corpus_path)
    vocab = hx.Vocab.from_documents(corpus.documents)
    stats = hx.CorpusStats.from_documents(vocab, corpus.documents)
    table = hx.build_frequency(vocab, stats, cfg["buckets"], cfg["L"])
    run.table_path = run.path("table.hash")
    hx.save_hash_table(table, run.table_path)
    dims = (cfg["vocab"], cfg["L"], cfg["d"], cfg["h"], cfg["d_ff"])
    model = hx.random_model(*dims, seed=ASSET_SEED, num_classes=2)
    run.model_path = run.asset("model", dims,
                               lambda p: hx.save_model(model, p))
    run.model, run.table, run.documents = model, table, corpus.documents
    run.twins = twins.Twins(run.name, _ref_weights(model))
    run.input_files = ([("load_model", run.model_path, {}),
                        ("load_hash_table", run.table_path, {})]
                       + [("load_corpus", run.corpus_path, {})])

    lookup = hx.Vocab(table.tokens)
    run.ids = [np.array(lookup.ids_for(doc), dtype=np.int64)
               for doc in corpus.documents]
    run.routed = [hx.schedule(ids, table, cfg["L"], pin_first=True)
                  for ids in run.ids]
    cmp_ids = run.ids[:cfg["compare_docs"]]
    run.noexit = [hx.ExitSchedule(np.full(ids.size, cfg["L"]),
                                  np.ones(ids.size, dtype=bool))
                  for ids in cmp_ids]
    run.inputs.update(docs=len(corpus.documents),
                      tokens=int(sum(ids.size for ids in run.ids)),
                      compare_docs=len(cmp_ids), vocab=cfg["vocab"],
                      table_tokens=len(table.tokens), buckets=cfg["buckets"],
                      L=cfg["L"], d=cfg["d"], heads=cfg["h"], d_ff=cfg["d_ff"])
    run.digests = {"table.hash": file_digest(run.table_path),
                   "model": file_digest(run.model_path)}


def prepare_price(run):
    """Long-doc corpus (plain and labeled) and token embeddings."""
    hx, cfg = run.hx, run.cfg
    corpus = hx.zipf_corpus(cfg["vocab"], cfg["docs"], seed=run.seed,
                            min_len=cfg["min_len"], max_len=cfg["max_len"],
                            labeled=True)
    run.labeled_path = run.path("labeled.tsv")
    run.corpus_path = run.path("corpus.txt")
    hx.save_corpus(corpus, run.labeled_path)
    hx.save_corpus(hx.Corpus(corpus.documents), run.corpus_path)
    width = len(str(cfg["vocab"] - 1))
    tokens = tuple(f"w{i:0{width}d}" for i in range(cfg["vocab"]))

    def write_embeddings(path):
        rng = np.random.default_rng(ASSET_SEED)
        vectors = rng.normal(size=(cfg["vocab"], cfg["emb_dim"]))
        hx.save_embeddings(hx.EmbeddingTable(tokens, vectors), path)

    run.emb_path = run.asset("embeddings", [cfg["vocab"], cfg["emb_dim"]],
                             write_embeddings)
    run.documents, run.labels = corpus.documents, corpus.labels
    run.twins = twins.Twins(run.name)
    run.input_files = [("load_corpus", run.corpus_path, {}),
                       ("load_corpus", run.labeled_path, {"labeled": True}),
                       ("load_embeddings", run.emb_path, {})]
    run.inputs.update(docs=len(corpus.documents),
                      tokens=int(sum(len(doc) for doc in corpus.documents)),
                      vocab=cfg["vocab"], embedding_tokens=cfg["vocab"],
                      embedding_width=cfg["emb_dim"], buckets=cfg["buckets"],
                      L=cfg["L"], d=cfg["d"], heads=cfg["h"], d_ff=cfg["d_ff"])
    run.digests = {"embeddings": file_digest(run.emb_path)}


# ---------------------------------------------------------------- rounds

def _dims_flags(cfg):
    return ["--d", str(cfg["d"]), "--heads", str(cfg["h"]),
            "--d-ff", str(cfg["d_ff"])]


def _infer_and_compare(run, sample):
    """hashexit infer over the corpus, then routed vs no-exit forward."""
    cfg = run.cfg
    got = run.cli(["infer", "--model", run.model_path, "--table",
                   run.table_path, "--corpus", run.corpus_path,
                   "--out-dir", str(run.out_dir)], "encoder", cfg["twin_every"])
    if got:
        docs = len(run.documents)
        sample["docs_per_s"] = docs / got.work_n
        sample["docs_per_s_raw"] = docs / (got.wall - got.loaded)
    traced, run.tracer.enabled = run.tracer.enabled, False
    n = cfg["compare_docs"]
    routed_s, run.routed_final = run.forwards(run.model, run.ids[:n],
                                              run.routed[:n])
    noexit_s, run.noexit_final = run.forwards(run.model, run.ids[:n],
                                              run.noexit)
    run.tracer.enabled = traced
    sample["wall_speedup"] = noexit_s / routed_s


def round_infer_mid(run, sample):
    _infer_and_compare(run, sample)
    cfg = run.cfg
    argv = ["flops-report", "--table", run.table_path, "--corpus",
            run.corpus_path, "--layers", str(cfg["L"]), *_dims_flags(cfg),
            "--out-dir", str(run.out_dir)]
    # a short command: the median of several runs steadies the figure
    got = [run.cli(argv, "routing", cfg["flops_twin_every"],
                   ("cli", "schedule"))
           for _ in range(cfg["flops_reps"])]
    if all(got):
        sample["side_cmds_s"] = statistics.median(
            t.wall_n for t in got)
        sample["side_cmds_s_raw"] = statistics.median(t.wall for t in got)


def round_toy(run, sample):
    _infer_and_compare(run, sample)
    cfg, out = run.cfg, str(run.out_dir)
    seeds = ",".join(str(run.seed * 100 + i)
                     for i in range(cfg["ablate_seeds"]))
    ablate = run.cli(["ablate-consistency", "--seeds", seeds,
                      "--out-dir", out], "encoder", cfg["ablate_twin_every"],
                     ("experiments", "train_toy"))
    n = str(cfg["difficulty_docs"])
    diff = run.cli(["difficulty", "--seed", str(run.seed), "--num-train", n,
                    "--num-eval", n, "--out-dir", out], "encoder",
                   cfg["difficulty_twin_every"], ("difficulty", "forward"))
    if ablate and diff:
        sample["ablation_s"] = ablate.wall_n
        sample["difficulty_s"] = diff.wall_n
        sample["side_cmds_s"] = ablate.wall_n + diff.wall_n
        sample["side_cmds_s_raw"] = ablate.wall + diff.wall


def round_price(run, sample):
    cfg, out = run.cfg, str(run.out_dir)
    common = ["--buckets", str(cfg["buckets"]), "--layers", str(cfg["L"]),
              "--out-dir", out]
    builds = [
        run.cli(["build-hash", "--method", "frequency", "--corpus",
                 run.corpus_path, "--out", "frequency.hash", *common],
                "routing"),
        run.cli(["build-hash", "--method", "mi", "--corpus",
                 run.labeled_path, "--labeled", "--out", "mi.hash", *common],
                "routing", cfg["mi_twin_every"], ("hashing", "token_label_mi")),
        run.cli(["build-hash", "--method", "clustered", "--embeddings",
                 run.emb_path, "--seed", str(run.seed),
                 "--out", "clustered.hash", *common], "cluster"),
    ]
    if all(builds):
        sample["build_hash_s"] = sample["side_cmds_s"] = sum(
            b.wall_n for b in builds)
        sample["side_cmds_s_raw"] = sum(b.wall for b in builds)
    argv = ["flops-report", "--table", str(run.out_dir / "frequency.hash"),
            "--corpus", run.corpus_path, *_dims_flags(cfg), "--out-dir", out]
    got = [run.cli(argv, "routing", cfg["flops_twin_every"],
                   ("cli", "schedule"))
           for _ in range(cfg["flops_reps"])]
    if all(got):
        docs, tokens = run.inputs["docs"], run.inputs["tokens"]
        sample["docs_per_s"] = statistics.median(
            docs / t.work_n for t in got)
        sample["docs_per_s_raw"] = statistics.median(
            docs / (t.wall - t.loaded) for t in got)
        sample["priced_tokens_per_s"] = statistics.median(
            tokens / t.wall_n for t in got)


# ---------------------------------------------------------------- checks

def _ref_weights(model):
    return {"embedding": model.embedding, "heads": model.heads,
            "layers": [{f: getattr(lw, f) for f in LAYER_FIELDS}
                       for lw in model.layers]}


def _read_flops_artifacts(out_dir):
    rows = []
    with open(out_dir / "flops.csv", encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            layer, n_sum, m_sum, saved, full = (int(x) for x in line.split(","))
            rows.append((n_sum, m_sum, full - saved))
    totals = {}
    with open(out_dir / "flops.txt", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("total FLOPs", "baseline FLOPs"):
                totals[key] = int(value)
    return rows, totals["total FLOPs"], totals["baseline FLOPs"]


def _own_exits(table, documents, pin_first):
    index = {t: i for i, t in enumerate(table.tokens)}
    return [reference.exit_layers(doc, index, table.buckets,
                                  table.num_buckets, table.num_layers,
                                  pin_first=pin_first)
            for doc in documents]


def check_flops_cli(run, table, documents):
    """The flops-report artifacts equal the closed-form sum, exactly."""
    cfg = run.cfg
    try:
        rows, total, baseline = _read_flops_artifacts(run.out_dir)
    except (OSError, ValueError, KeyError) as exc:
        run.check("flops-report artifacts", False, repr(exc))
        return None
    exits = _own_exits(table, documents, pin_first=False)
    own_rows, own_total, own_base = reference.corpus_macs(
        exits, cfg["L"], cfg["d"], cfg["h"], cfg["d_ff"])
    run.check("flops-report counts == closed form",
              rows == own_rows and total == own_total and baseline == own_base,
              f"cli total {total} baseline {baseline}, "
              f"closed form {own_total} {own_base}")
    run.extra["cli.flops_report_speedup"] = baseline / total
    return rows, total, baseline


def check_encoder_workload(run):
    """Predictions, no-exit and routed states, frozen rows, flops.report."""
    hx, cfg, L = run.hx, run.cfg, run.cfg["L"]
    weights = _ref_weights(run.model)
    n = cfg["compare_docs"]
    exits = _own_exits(run.table, run.documents, pin_first=True)
    try:
        with open(run.out_dir / "predictions.tsv", encoding="utf-8") as fh:
            preds = [int(line.split("\t")[1]) for line in fh.read().splitlines()]
    except (OSError, ValueError, IndexError) as exc:
        preds = []
        run.check("infer predictions file", False, repr(exc))
    for i in range(n):
        ids = run.ids[i]
        full = reference.encode(weights, ids, np.full(ids.size, L))
        routed = reference.encode(weights, ids, exits[i])
        got_full, got_routed = run.noexit_final[i], run.routed_final[i]
        run.check(f"doc {i} no-exit states within {TOL}",
                  got_full is not None
                  and np.max(np.abs(got_full - full)) <= TOL)
        run.check(f"doc {i} routed schedule and CLS state within {TOL}",
                  got_routed is not None
                  and np.array_equal(run.routed[i].exit_layer, exits[i])
                  and np.max(np.abs(got_routed[0] - routed[0])) <= TOL)
        want = int(np.argmax(routed[0] @ run.model.head))
        run.check(f"doc {i} infer prediction", i < len(preds)
                  and preds[i] == want,
                  f"got {preds[i] if i < len(preds) else None}, want {want}")
        run.check(f"doc {i} frozen rows bit-exact",
                  got_routed is not None
                  and frozen_rows_exact(run, ids, run.routed[i], got_routed))
    report = hx.report(hx.ModelDims(L, cfg["d"], cfg["h"], cfg["d_ff"]),
                       run.routed)
    own_rows, own_total, own_base = reference.corpus_macs(
        exits, L, cfg["d"], cfg["h"], cfg["d_ff"])
    rows = [(r.n_sum, r.m_sum, r.full_macs - r.saved_macs) for r in report.rows]
    run.check("flops.report counts == closed form",
              rows == own_rows and report.total_flops == own_total
              and report.baseline_flops == own_base,
              f"report {report.total_flops} {report.baseline_flops}, "
              f"closed form {own_total} {own_base}")
    run.flops = (rows, report.total_flops, report.baseline_flops)
    run.schedules = run.routed


def check_infer_mid(run):
    check_encoder_workload(run)
    check_flops_cli(run, run.table, run.documents)


def frozen_rows_exact(run, ids, sched, final):
    """Rows exiting at k equal a run of the first k layers, bit for bit."""
    hx, model = run.hx, run.model
    for k in sorted(set(int(e) for e in sched.exit_layer) - {model.num_layers}):
        head = hx.EncoderModel(d=model.d, heads=model.heads, d_ff=model.d_ff,
                               layers=model.layers[:k],
                               embedding=model.embedding, head=model.head)
        capped = hx.ExitSchedule(np.minimum(sched.exit_layer, k),
                                 sched.attn_mask)
        short = hx.forward(head, ids, capped).final
        rows = sched.exit_layer == k
        if not np.array_equal(short[rows], final[rows]):
            return False
    return True


def check_price(run):
    hx, cfg = run.hx, run.cfg
    tables = {}
    for method in ("frequency", "mi", "clustered"):
        try:
            tables[method] = hx.load_hash_table(run.out_dir / f"{method}.hash")
        except (OSError, hx.HashExitError) as exc:
            run.check(f"{method} table readable", False, repr(exc))
    freq = tables.get("frequency")
    if freq is not None:
        own = reference.frequency_buckets(run.documents, freq.tokens,
                                          cfg["buckets"])
        vocab = sorted({t for doc in run.documents for t in doc})
        run.check("frequency table == own frequency ranking",
                  list(freq.tokens) == vocab
                  and np.array_equal(freq.buckets, own))
        run.flops = check_flops_cli(run, freq, run.documents)
        run.flops_table = freq
    if "mi" in tables:
        sizes = tables["mi"].bucket_sizes()
        run.check("mi table covers the labeled vocab in equal chunks",
                  len(tables["mi"].tokens) == len(
                      {t for doc in run.documents for t in doc})
                  and sizes.max() - sizes.min() <= 1)
    if "clustered" in tables:
        table = tables["clustered"]
        run.check("clustered table covers every embedded token",
                  len(table.tokens) == cfg["vocab"]
                  and table.num_buckets == cfg["buckets"]
                  and table.num_layers == cfg["L"])


# ---------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else None


def round_medians(samples):
    keys = sorted({k for s in samples for k in s
                   if k not in ("runs", "setup")})
    return {k: median([s[k] for s in samples if k in s]) for k in keys}


def saved_by_category(run):
    hx, cfg = run.hx, run.cfg
    schedules = run.schedules
    if run.flops_table is not None:
        lookup = hx.Vocab(run.flops_table.tokens)
        schedules = [hx.schedule(lookup.ids_for(doc), run.flops_table)
                     for doc in run.documents]
    totals = dict.fromkeys(SAVED_CATEGORIES, 0)
    for sched in schedules:
        n = sched.valid_count
        for t in range(1, cfg["L"] + 1):
            m = int(np.count_nonzero(sched.exit_layer[sched.attn_mask] >= t))
            cost = hx.saved_macs(n, m, cfg["d"], cfg["h"], cfg["d_ff"])
            for cat in SAVED_CATEGORIES:
                totals[cat] += cost.saved[cat]
    return totals


def layer_metrics(run, agg):
    """Per-layer metrics of one traced round."""
    incl, self_s, calls = agg["incl"], agg["self"], agg["calls"]

    def total(table, name, root=None):
        return sum(v for (r, n), v in table.items()
                   if n == name and (root is None or r == root))

    m = {}
    counted = run.flops[0] if run.flops else []
    for t in range(1, MAX_LAYERS + 1):
        secs, active, kv = agg["layers"].get(t, (0.0, 0, 0))
        macs = counted[t - 1][2] if t <= len(counted) else 0
        m[f"encoder.layer_s.L{t:02d}"] = secs
        m[f"encoder.ns_per_mac.L{t:02d}"] = secs * 1e9 / macs if macs else 0.0
        m[f"encoder.active_rows.L{t:02d}"] = active
        m[f"encoder.kv_rows.L{t:02d}"] = kv
    m["encoder.forward_s"] = total(incl, "encoder.forward", "cli.infer")
    m["encoder.forward_calls"] = total(calls, "encoder.forward", "cli.infer")
    m["encoder.embed_s"] = total(incl, "encoder.embed", "cli.infer")
    m["encoder.classify_s"] = total(incl, "encoder.classify", "cli.infer")
    m["encoder.train_toy_s"] = total(incl, "encoder.train_toy")
    m["encoder.accuracy_s"] = total(incl, "encoder.accuracy")
    m["encoder.load_model_s"] = total(incl, "encoder.load_model")
    m["encoder.save_model_s"] = run.save_model_s
    sched_s = (total(incl, "encoder.schedule", "cli.infer")
               + total(incl, "encoder.schedule", "cli.flops_report"))
    sched_calls = (total(calls, "encoder.schedule", "cli.infer")
                   + total(calls, "encoder.schedule", "cli.flops_report"))
    tokens = run.inputs["tokens"] * sched_calls / run.inputs["docs"]
    m["encoder.schedule_s"] = sched_s
    m["encoder.schedule_ns_per_token"] = sched_s * 1e9 / tokens if tokens else 0.0
    for fn in ("softmax_rows", "layer_norm", "relu"):
        m[f"linalg.{fn}_s"] = total(incl, f"linalg.{fn}", "cli.infer")
        m[f"linalg.{fn}.calls"] = total(calls, f"linalg.{fn}", "cli.infer")
    for metric, span in (("corpus_stats_s", "corpus_stats"),
                         ("build_frequency_s", "build_frequency"),
                         ("build_mi_s", "build_mi"),
                         ("build_clustered_s", "build_clustered"),
                         ("kmeans_s", "kmeans"),
                         ("load_table_s", "load_hash_table"),
                         ("load_embeddings_s", "load_embeddings"),
                         ("save_table_s", "save_hash_table")):
        m[f"hashing.{metric}"] = total(incl, f"hashing.{span}")
    m["corpus.load_s"] = total(incl, "corpus.load_corpus")
    m["corpus.docs"] = run.inputs["docs"]
    m["corpus.tokens"] = run.inputs["tokens"]
    m["flops.report_s"] = total(incl, "flops.report")
    for fn in ("train_annotator", "annotate", "oversample", "linear_b",
               "evaluate"):
        m[f"difficulty.{fn}_s"] = total(incl, f"difficulty.{fn}")
    for fn in ("run_consistency_ablation", "run_difficulty_pipeline"):
        m[f"experiments.{fn}_s"] = total(incl, f"experiments.{fn}")
    for cmd in ("infer", "flops_report", "build_hash", "ablate_consistency",
                "difficulty"):
        m[f"cli.{cmd}_s"] = total(self_s, f"cli.{cmd}")
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v for (r, n), v in self_s.items()
                                 if n.split(".")[0] == mod)
    return m


def count_metrics(run):
    """Exact counts of the schedules behind flops_speedup."""
    m = {}
    rows, total, baseline = run.flops if run.flops else ([], 0, 0)
    for t in range(1, MAX_LAYERS + 1):
        m[f"flops.counted_macs.L{t:02d}"] = rows[t - 1][2] if t <= len(rows) else 0
    for cat, value in saved_by_category(run).items():
        m[f"flops.saved_macs.{cat}"] = value
    m["flops.total_flops"] = total
    m["flops.baseline_flops"] = baseline
    m["cli.flops_report_speedup"] = run.extra.get("cli.flops_report_speedup", 0.0)
    return m


# ---------------------------------------------------------------- run

WORKLOADS = {
    "infer-mid": (prepare_encoder, round_infer_mid, check_infer_mid),
    "toy": (prepare_encoder, round_toy, check_encoder_workload),
    "price-bert": (prepare_price, round_price, check_price),
}


def _rounds(run, round_fn, seconds, min_rounds, traced=False):
    """Rounds until the next would end past `seconds`; at least min_rounds."""
    samples = []
    start = time.perf_counter()
    run.tracer.enabled = traced
    try:
        while True:
            t0 = time.perf_counter()
            mark = len(run.scaled_loads)
            run.round_runs, run.round_cmds_s = [], 0.0
            sample = {}
            round_fn(run, sample)
            sample["setup"] = run.setup_samples(mark)
            sample.update(cmds_s=run.round_cmds_s, runs=run.round_runs,
                          round_s=time.perf_counter() - t0)
            samples.append(sample)
            elapsed = time.perf_counter() - start
            if (len(samples) >= min_rounds
                    and elapsed + sample["round_s"] > seconds):
                return samples
    finally:
        run.tracer.enabled = False


def run_workload(name, seed, seconds, trace, size="full"):
    hx = load_package()
    prepare, round_fn, check = WORKLOADS[name]
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    run = Run(hx, name, SIZES[size][name], seed, work)
    try:
        t0 = time.perf_counter()
        prepare(run)
        prepare_s = time.perf_counter() - t0
        run.loads = LoadTimer(hx.cli)
        if trace:
            untraced = _rounds(run, round_fn, seconds / 2, 1)
            run.tracer.install(hx)
            if run.model is not None:
                t1 = time.perf_counter()
                hx.save_model(run.model, run.path("saved.model"))
                run.save_model_s = time.perf_counter() - t1
            for_trace = _rounds(run, round_fn, seconds / 2, 1, traced=True)
            run.tracer.restore()
        else:
            untraced = _rounds(run, round_fn, seconds, MIN_ROUNDS)
        run.loads.restore()
        check(run)
        flops = run.flops
        result = {
            "workload": name, "seed": seed, "size": size, "trace": trace,
            "attempted": run.attempted, "failed": len(run.failures),
            "failures": run.failures[:50], "inputs": run.inputs,
            "digests": run.digests, "prepare_s": prepare_s,
            "numpy": np.__version__, "blas": blas_facts(),
            "source_digest": run.src_digest,
            "rounds": untraced,
        }
        med = round_medians(untraced)
        med["setup_s"] = median([x for s in untraced for x in s["setup"]])
        if flops:
            med["flops_speedup"] = flops[2] / flops[1]
        med["failed_share"] = len(run.failures) / run.attempted
        med.update(run.extra)
        result["e2e"] = med
        if trace:
            per_round = [layer_metrics(run, tracing.summarize(
                run.tracer.spans, s["runs"])) for s in for_trace]
            per_layer = round_medians(per_round)
            per_layer.update(count_metrics(run))
            per_layer["trace.overhead_s"] = (
                median([s["cmds_s"] for s in for_trace])
                - median([s["cmds_s"] for s in untraced]))
            result["per_layer"] = per_layer
            result["traced_rounds"] = len(for_trace)
            spans_path = OUT / "results" / f"spans-{name}-seed{seed}-{os.getpid()}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            run.tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        return result
    finally:
        run.devnull.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace, args.size)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
