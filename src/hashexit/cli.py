"""Command-line front door.

Subcommands: build-hash, infer, flops-report, ablate-consistency,
difficulty. Every command is deterministic given its flags and writes its
artifacts under --out-dir; exit status is 0 exactly when no error occurred.
"""

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from .artifacts import write_text
from .errors import ConfigError, HashExitError
from .corpus import load_corpus
# schedule is not called here; it stays importable because bench/ wraps it
# at this hashexit.cli name, and goes when bench/ drops the per-document API
from .encoder import batches, classify, forward, load_model, route, schedule
from .flops import ModelDims, report
from . import experiments
from .experiments import run_consistency_ablation, run_difficulty_pipeline
from .hashing import (
    CorpusStats,
    Vocab,
    bucket_to_layer,
    build_clustered,
    build_frequency,
    build_mi,
    build_random,
    load_embeddings,
    load_hash_table,
    save_hash_table,
)
from .difficulty import save_difficulty_dataset


def _report_skipped(corpus):
    if corpus.skipped_empty:
        print(f"skipped {corpus.skipped_empty} empty corpus lines",
              file=sys.stderr)


def _histogram_text(table):
    sizes = table.bucket_sizes()
    layers = bucket_to_layer(np.arange(sizes.size), table.num_buckets,
                             table.num_layers)
    return "\n".join(f"bucket {b} -> layer {layers[b]}: {size} tokens"
                     for b, size in enumerate(sizes))


def cmd_build_hash(args):
    names = [args.out]
    if args.method == "clustered":
        if args.embeddings is None:
            raise ConfigError("method clustered needs --embeddings")
        tables = [build_clustered(load_embeddings(args.embeddings),
                                  args.buckets, args.layers, seed=args.seed)]
    else:
        if args.corpus is None:
            raise ConfigError(f"method {args.method} needs --corpus")
        if args.method == "mi" and not args.labeled:
            raise ConfigError("method mi needs a labeled corpus; pass --labeled")
        corpus = load_corpus(args.corpus, labeled=args.labeled)
        _report_skipped(corpus)
        vocab = Vocab.from_documents(corpus.documents)
        if args.method == "random":
            tables = build_random(vocab, args.buckets, args.layers,
                                  seed=args.seed, consistent=args.consistent)
            if args.consistent:
                tables = [tables]
            else:
                names = [args.out + ".train", args.out + ".infer"]
        else:
            stats = CorpusStats.from_documents(vocab, corpus.documents,
                                               corpus.labels)
            build = build_frequency if args.method == "frequency" else build_mi
            tables = [build(vocab, stats, args.buckets, args.layers)]
    paths = [Path(args.out_dir) / name for name in names]
    for table, path in zip(tables, paths):
        save_hash_table(table, path)
    print(_histogram_text(tables[0]))
    print("wrote " + " and ".join(map(str, paths)))


def cmd_infer(args):
    out_dir = Path(args.out_dir)
    model = load_model(args.model)
    if model.head is None:
        raise ConfigError(f"model {args.model} has no classifier head")
    table = load_hash_table(args.table)
    if len(table.tokens) > model.vocab_size:
        raise ConfigError(f"table vocabulary ({len(table.tokens)}) exceeds "
                          f"model vocabulary ({model.vocab_size})")
    corpus = load_corpus(args.corpus, labeled=args.labeled)
    _report_skipped(corpus)
    routed = route(*table.vocab.packed_ids(corpus.documents), table,
                   model.num_layers)
    # one forward call per packed batch, forward and classify looked up
    # here so that bench/'s wrappers at these hashexit.cli names see each
    # call; the packed states are dropped once their first rows are read
    feats = np.empty((len(routed), model.d))
    for batch, packed in batches(model, routed):
        feats[batch] = forward(model, packed)[packed.offsets[:-1]]
    preds = np.argmax(classify(model, feats), axis=1)
    path = out_dir / "predictions.tsv"
    write_text(path, "".join(f"{i}\t{pred}\n" for i, pred in enumerate(preds)))
    print(f"wrote {path}")
    if corpus.labeled and corpus.documents:
        hits = sum(str(pred) == label for pred, label in zip(preds, corpus.labels))
        print(f"accuracy: {hits / len(corpus.documents):.4f}")


def cmd_flops_report(args):
    """Price a corpus under a table. The dims are checked before the corpus
    is read; the corpus is then looked up in one flat `Vocab.packed_ids`
    pass, one `HashTable.exits` call and one `report` call, with no
    per-document id list or schedule."""
    out_dir = Path(args.out_dir)
    table = load_hash_table(args.table)
    if args.layers is not None and args.layers != table.num_layers:
        raise ConfigError(f"--layers {args.layers} does not match the "
                          f"table's L={table.num_layers}")
    dims = ModelDims(num_layers=table.num_layers, d=args.d, heads=args.heads,
                     d_ff=args.d_ff)
    corpus = load_corpus(args.corpus)
    _report_skipped(corpus)
    # unpinned, unlike infer's route: bench/ checks this report against the
    # unpinned lookup, so pinning position 0 here needs a bench/ change too
    ids, offsets = table.vocab.packed_ids(corpus.documents)
    exits = table.exits(ids)
    del ids  # not held through report's temporaries, which set the peak
    rep = report(dims, exits, offsets)
    write_text(out_dir / "flops.csv", rep.to_csv())
    write_text(out_dir / "flops.txt", rep.to_text())
    print(rep.to_text(), end="")
    print(f"wrote {out_dir / 'flops.csv'} and {out_dir / 'flops.txt'}")


def _toy_settings(args):
    """The toy flags given, by parameter name (`_add_toy_flags`)."""
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "func", "out_dir", "seeds")}


def cmd_ablate_consistency(args):
    out_dir = Path(args.out_dir)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds takes comma-separated integers, "
                          f"got {args.seeds!r}") from None
    result = run_consistency_ablation(seeds, **_toy_settings(args))
    text = result.to_text()
    write_text(out_dir / "ablation.txt", text)
    print(text, end="")
    print(f"wrote {out_dir / 'ablation.txt'}")


def cmd_difficulty(args):
    out_dir = Path(args.out_dir)
    outcome = run_difficulty_pipeline(**_toy_settings(args))
    save_difficulty_dataset(outcome.train_dataset,
                            out_dir / "difficulty_train.tsv")
    save_difficulty_dataset(outcome.eval_dataset,
                            out_dir / "difficulty_eval.tsv")
    text = outcome.to_text()
    write_text(out_dir / "metrics.txt", text)
    print(text, end="")
    print(f"wrote {out_dir / 'difficulty_train.tsv'}, "
          f"{out_dir / 'difficulty_eval.tsv'} and {out_dir / 'metrics.txt'}")


def _bool_flag(value):
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, so that main
    reports a malformed flag like any other error, with exit status 1.
    Flags are never abbreviated, so --seed is not a --seeds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_toy_flags(p, run):
    """One flag per keyword-only parameter of `run`, an experiments
    function (not the hashexit.cli name that bench/ wraps): `--layers` for
    num_layers, else `--name-with-dashes`, typed by its default or a
    switch for a bool. `p`'s argument_default, argparse.SUPPRESS, leaves a
    flag not given out, so `run` holds the only default."""
    for name, param in inspect.signature(run).parameters.items():
        if param.kind is param.KEYWORD_ONLY:
            flag = "--" + name.replace("num_layers", "layers").replace("_", "-")
            how = ({"action": "store_true"} if isinstance(param.default, bool)
                   else {"type": type(param.default)})
            p.add_argument(flag, dest=name, **how)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".")

    parser = _Parser(
        prog="hashexit",
        description="hash-routed token early exit: tables, inference, "
                    "FLOPs accounting and difficulty experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-hash", parents=[common],
                       help="build a token-to-bucket hash table")
    p.add_argument("--method", required=True,
                   choices=("random", "frequency", "mi", "clustered"))
    p.add_argument("--buckets", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--corpus")
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--embeddings")
    p.add_argument("--consistent", type=_bool_flag, default=True)
    p.add_argument("--out", default="table.hash")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build_hash)

    p = sub.add_parser("infer", parents=[common],
                       help="classify corpus documents with early exits")
    p.add_argument("--model", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--labeled", action="store_true")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("flops-report", parents=[common],
                       help="account FLOPs of a table over a corpus")
    p.add_argument("--table", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--layers", type=int)
    p.add_argument("--d", type=int, default=768)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--d-ff", type=int, default=3072)
    p.set_defaults(func=cmd_flops_report)

    p = sub.add_parser("ablate-consistency", parents=[common],
                       argument_default=argparse.SUPPRESS,
                       help="train/infer hash consistency ablation")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    _add_toy_flags(p, experiments.run_consistency_ablation)
    p.set_defaults(func=cmd_ablate_consistency)

    p = sub.add_parser("difficulty", parents=[common],
                       argument_default=argparse.SUPPRESS,
                       help="annotate and score difficulty predictors")
    _add_toy_flags(p, experiments.run_difficulty_pipeline)
    p.set_defaults(func=cmd_difficulty)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        args.func(args)
    except HashExitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
