"""Command-line front door.

Subcommands: build-hash, infer, flops-report, ablate-consistency,
difficulty. Every command is deterministic given --seed and writes its
artifacts under --out-dir; exit status is 0 exactly when no error occurred.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .artifacts import write_text
from .errors import ConfigError, HashExitError
from .corpus import load_corpus
from .encoder import batches, classify, forward, load_model, schedule
from .flops import ModelDims, report
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
        emb = load_embeddings(args.embeddings)
        tables = [build_clustered(emb.vocab, emb, args.buckets, args.layers,
                                  seed=args.seed)]
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
    table.exits((), model.num_layers)  # the depth check, for any corpus
    corpus = load_corpus(args.corpus, labeled=args.labeled)
    _report_skipped(corpus)
    ids_list = [table.vocab.ids_for(doc) for doc in corpus.documents]
    # one forward call per packed batch, and forward and classify looked
    # up here, so that wrappers placed at these names in hashexit.cli see
    # each call (bench/ times and traces them); the packed states are
    # dropped as soon as their first rows are read
    feats = np.empty((len(ids_list), model.d))
    for batch, packed in batches(model, ids_list, table):
        feats[batch] = forward(model, packed)[packed.offsets[:-1]]
    preds = np.argmax(classify(model, feats), axis=1)
    path = out_dir / "predictions.tsv"
    write_text(path, "".join(f"{i}\t{pred}\n" for i, pred in enumerate(preds)))
    print(f"wrote {path}")
    if corpus.labeled and corpus.documents:
        hits = sum(str(pred) == label for pred, label in zip(preds, corpus.labels))
        print(f"accuracy: {hits / len(corpus.documents):.4f}")


def cmd_flops_report(args):
    out_dir = Path(args.out_dir)
    table = load_hash_table(args.table)
    if args.layers is not None and args.layers != table.num_layers:
        raise ConfigError(f"--layers {args.layers} does not match the "
                          f"table's L={table.num_layers}")
    corpus = load_corpus(args.corpus)
    _report_skipped(corpus)
    vocab = table.vocab
    # unpinned, unlike infer: the benchmark checks this report against the
    # unpinned lookup, so pinning waits for a benchmark change (ROADMAP)
    schedules = [schedule(vocab.ids_for(doc), table)
                 for doc in corpus.documents]
    dims = ModelDims(num_layers=table.num_layers, d=args.d, heads=args.heads,
                     d_ff=args.d_ff)
    overrides = {"num_layers": args.baseline_layers, "d": args.baseline_d,
                 "heads": args.baseline_heads, "d_ff": args.baseline_d_ff}
    baseline = replace(dims, **{name: value for name, value in overrides.items()
                                if value is not None})
    rep = report(dims, schedules, baseline_dims=baseline)
    write_text(out_dir / "flops.csv", rep.to_csv())
    write_text(out_dir / "flops.txt", rep.to_text())
    print(rep.to_text(), end="")
    print(f"wrote {out_dir / 'flops.csv'} and {out_dir / 'flops.txt'}")


def cmd_ablate_consistency(args):
    out_dir = Path(args.out_dir)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds takes comma-separated integers, "
                          f"got {args.seeds!r}") from None
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"--seeds must be >= 0, got {args.seeds!r}")
    result = run_consistency_ablation(
        seeds, buckets=args.buckets, num_layers=args.layers, d=args.d,
        heads=args.heads, d_ff=args.d_ff, epochs=args.epochs, lr=args.lr,
        num_train=args.num_train, num_eval=args.num_eval,
        vocab_size=args.vocab_size, seq_len=args.seq_len,
        force_identical=args.force_identical)
    text = result.to_text()
    write_text(out_dir / "ablation.txt", text)
    print(text, end="")
    print(f"wrote {out_dir / 'ablation.txt'}")


def cmd_difficulty(args):
    out_dir = Path(args.out_dir)
    outcome = run_difficulty_pipeline(
        seed=args.seed, num_train=args.num_train, num_eval=args.num_eval,
        vocab_size=args.vocab_size, seq_len=args.seq_len,
        num_layers=args.layers, d=args.d, heads=args.heads, d_ff=args.d_ff,
        floor=args.floor, annotator_epochs=args.annotator_epochs,
        predictor_epochs=args.predictor_epochs, lr=args.lr,
        per_layer=args.per_layer)
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
    reports a malformed flag like any other error, with exit status 1."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")
    # the toy encoder and task of ablate-consistency and difficulty
    toy = argparse.ArgumentParser(add_help=False)
    toy.add_argument("--d", type=int, default=8)
    toy.add_argument("--heads", type=int, default=2)
    toy.add_argument("--d-ff", type=int, default=16)
    toy.add_argument("--lr", type=float, default=0.5)
    toy.add_argument("--num-train", type=int, default=40)
    toy.add_argument("--num-eval", type=int, default=40)
    toy.add_argument("--vocab-size", type=int, default=11)
    toy.add_argument("--seq-len", type=int, default=5)

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
    p.add_argument("--baseline-layers", type=int)
    p.add_argument("--baseline-d", type=int)
    p.add_argument("--baseline-heads", type=int)
    p.add_argument("--baseline-d-ff", type=int)
    p.set_defaults(func=cmd_flops_report)

    p = sub.add_parser("ablate-consistency", parents=[common, toy],
                       help="train/infer hash consistency ablation")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--buckets", type=int, default=2)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--force-identical", action="store_true")
    p.set_defaults(func=cmd_ablate_consistency)

    p = sub.add_parser("difficulty", parents=[common, toy],
                       help="annotate and score difficulty predictors")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--floor", type=float, default=0.3)
    p.add_argument("--annotator-epochs", type=int, default=150)
    p.add_argument("--predictor-epochs", type=int, default=300)
    p.add_argument("--per-layer", action="store_true")
    p.set_defaults(func=cmd_difficulty)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.seed < 0:
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
