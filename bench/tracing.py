"""Spans around the package's public calls, recorded from outside.

A Tracer replaces a function at the module attribute its callers look up
with a wrapper that records one span per call: id, parent id, run id,
name, start and end (perf_counter_ns) and an optional tag. Spans stay in
memory until the benchmark writes them out. `restore` puts the original
functions back.
"""

import json
import time

import numpy as np

# (module object path, attribute, span name). Callers bind these names at
# import time, so each caller module is patched where it looks them up.
TARGETS = (
    ("cli", "load_model", "encoder.load_model"),
    ("cli", "load_hash_table", "hashing.load_hash_table"),
    ("cli", "save_hash_table", "hashing.save_hash_table"),
    ("cli", "load_embeddings", "hashing.load_embeddings"),
    ("cli", "load_corpus", "corpus.load_corpus"),
    ("cli", "build_frequency", "hashing.build_frequency"),
    ("cli", "build_mi", "hashing.build_mi"),
    ("cli", "build_clustered", "hashing.build_clustered"),
    ("cli", "schedule", "encoder.schedule"),
    ("cli", "forward", "encoder.forward"),
    ("cli", "classify", "encoder.classify"),
    ("cli", "report", "flops.report"),
    ("cli", "run_consistency_ablation", "experiments.run_consistency_ablation"),
    ("cli", "run_difficulty_pipeline", "experiments.run_difficulty_pipeline"),
    ("encoder", "forward", "encoder.forward"),
    ("encoder", "schedule", "encoder.schedule"),
    ("encoder", "classify", "encoder.classify"),
    ("encoder", "embed", "encoder.embed"),
    ("encoder", "forward_layer", "encoder.forward_layer"),
    ("encoder", "softmax_rows", "linalg.softmax_rows"),
    ("encoder", "layer_norm", "linalg.layer_norm"),
    ("encoder", "relu", "linalg.relu"),
    ("hashing", "kmeans", "hashing.kmeans"),
    ("experiments", "train_toy", "encoder.train_toy"),
    ("experiments", "accuracy", "encoder.accuracy"),
    ("experiments", "train_annotator", "difficulty.train_annotator"),
    ("experiments", "annotate", "difficulty.annotate"),
    ("experiments", "oversample", "difficulty.oversample"),
    ("experiments", "linear_b", "difficulty.linear_b"),
    ("experiments", "evaluate", "difficulty.evaluate"),
    ("difficulty", "forward", "encoder.forward"),
)

# methods looked up on public classes: (module, class, method, span name)
CLASS_TARGETS = (
    ("hashing", "CorpusStats", "from_documents", "hashing.corpus_stats"),
    ("hashing", "Vocab", "from_documents", "hashing.vocab_from_documents"),
    ("hashing", "Vocab", "ids_for", "hashing.ids_for"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self.run_id = 0
        self._stack = []
        self._layer_depth = {}
        self._saved = []

    def wrap(self, name, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [len(spans), parent, self.run_id, name, 0, 0,
                   tag(parent, args, kwargs) if tag else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _layer_tag(self, parent, args, kwargs):
        """(depth, active rows, key/value rows) of one forward_layer call."""
        depth = self._layer_depth.get(parent, 0) + 1
        self._layer_depth[parent] = depth
        h, active = args[0], args[2]
        m = int(np.asarray(active).size)
        mask = kwargs.get("key_mask")
        kv = int(np.count_nonzero(mask)) if mask is not None else len(h)
        return depth, m, kv if m else 0

    def install(self, package):
        for mod_name, attr, name in TARGETS:
            mod = getattr(package, mod_name)
            fn = getattr(mod, attr)
            tag = self._layer_tag if attr == "forward_layer" else None
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, tag))
        for mod_name, cls_name, attr, name in CLASS_TARGETS:
            cls = getattr(getattr(package, mod_name), cls_name)
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    def restore(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def span(self, name):
        """Context manager: a span around the benchmark's own call."""
        return _Span(self, name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id parent run name start_ns end_ns tag\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name, self.rec = tracer, name, None

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            parent = t._stack[-1] if t._stack else -1
            self.rec = [len(t.spans), parent, t.run_id, self.name, 0, 0, None]
            t.spans.append(self.rec)
            t._stack.append(self.rec[0])
            self.rec[4] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        if self.rec is not None:
            self.rec[5] = time.perf_counter_ns()
            self.tracer._stack.pop()
        return False


def summarize(spans, run_ids):
    """Totals over the spans of the given runs, keyed (root name, name).

    Returns inclusive seconds, self seconds (inclusive minus the time
    covered by child spans) and call counts, plus per-depth
    [seconds, active rows, key/value rows] of forward_layer calls made
    under `cli.infer` roots.
    """
    chosen = set(run_ids)
    recs = [r for r in spans if r[2] in chosen]
    child_ns, root_of = {}, {}
    for sid, parent, run, name, start, end, tag in recs:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        else:
            root_of[run] = name
    incl, self_s, calls, layers = {}, {}, {}, {}
    for sid, parent, run, name, start, end, tag in recs:
        key = (root_of[run], name)
        dur = (end - start) / 1e9
        incl[key] = incl.get(key, 0.0) + dur
        self_s[key] = self_s.get(key, 0.0) + dur - child_ns.get(sid, 0) / 1e9
        calls[key] = calls.get(key, 0) + 1
        if tag is not None and key[0] == "cli.infer":
            depth, m, kv = tag
            acc = layers.setdefault(depth, [0.0, 0, 0])
            acc[0] += dur
            acc[1] += m
            acc[2] += kv
    return {"incl": incl, "self": self_s, "calls": calls, "layers": layers}
