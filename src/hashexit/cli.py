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

from .errors import ConfigError, HashExitError
from .corpus import load_corpus
# classify is not called here, but stays importable from this module:
# bench/tracing.py wraps it (and forward and schedule) at these names.
from .encoder import (batch_rows, classify, forward, load_model,  # noqa: F401
                      row_batches, schedule)
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


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _report_skipped(corpus):
    if corpus.skipped_empty:
        print(f"skipped {corpus.skipped_empty} empty corpus lines",
              file=sys.stderr)


def _histogram_text(table):
    lines = []
    for b, size in enumerate(table.bucket_sizes()):
        layer = bucket_to_layer(b, table.num_buckets, table.num_layers)
        lines.append(f"bucket {b} -> layer {layer}: {size} tokens")
    return "\n".join(lines)


def cmd_build_hash(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.method == "clustered":
        if args.embeddings is None:
            raise ConfigError("method clustered needs --embeddings")
        emb = load_embeddings(args.embeddings)
        vocab = Vocab(emb.tokens)
        table = build_clustered(vocab, emb, args.buckets, args.layers,
                                seed=args.seed)
    else:
        if args.corpus is None:
            raise ConfigError(f"method {args.method} needs --corpus")
        labeled = args.labeled or args.method == "mi"
        if args.method == "mi" and not args.labeled:
            raise ConfigError("method mi needs a labeled corpus; pass --labeled")
        corpus = load_corpus(args.corpus, labeled=labeled)
        _report_skipped(corpus)
        vocab = Vocab.from_documents(corpus.documents)
        if args.method == "random":
            if args.consistent:
                table = build_random(vocab, args.buckets, args.layers,
                                     seed=args.seed)
            else:
                train_t, infer_t = build_random(vocab, args.buckets,
                                                args.layers, seed=args.seed,
                                                consistent=False)
                train_path = out_dir / (args.out + ".train")
                infer_path = out_dir / (args.out + ".infer")
                save_hash_table(train_t, train_path)
                save_hash_table(infer_t, infer_path)
                print(_histogram_text(train_t))
                print(f"wrote {train_path} and {infer_path}")
                return
        else:
            stats = CorpusStats.from_documents(vocab, corpus.documents,
                                               corpus.labels)
            if args.method == "frequency":
                table = build_frequency(vocab, stats, args.buckets, args.layers)
            else:
                table = build_mi(vocab, stats, args.buckets, args.layers)
    path = out_dir / args.out
    save_hash_table(table, path)
    print(_histogram_text(table))
    print(f"wrote {path}")


def cmd_infer(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(args.model)
    if model.head is None:
        raise ConfigError(f"model {args.model} has no classifier head")
    table = load_hash_table(args.table)
    if len(table.tokens) > model.vocab_size:
        raise ConfigError(f"table vocabulary ({len(table.tokens)}) exceeds "
                          f"model vocabulary ({model.vocab_size})")
    if table.num_layers != model.num_layers:
        raise ConfigError(f"table is built for L={table.num_layers}, "
                          f"model has L={model.num_layers}")
    corpus = load_corpus(args.corpus, labeled=args.labeled)
    _report_skipped(corpus)
    vocab = Vocab(table.tokens)
    ids_list = [vocab.ids_for(doc) for doc in corpus.documents]
    # one forward call per packed batch, looked up here, so that wrappers
    # placed at hashexit.cli.forward see each pass (bench/ times and
    # traces them)
    feats = np.empty((len(ids_list), model.d))
    for batch in row_batches([len(ids) for ids in ids_list], batch_rows(model)):
        seqs = [ids_list[i] for i in batch]
        scheds = [schedule(ids, table, model.num_layers, pin_first=True)
                  for ids in seqs]
        feats[batch] = [final[0] for final in forward(model, seqs, scheds)]
    preds = np.argmax(feats @ model.head, axis=1)
    lines = [f"{i}\t{pred}" for i, pred in enumerate(preds)]
    path = out_dir / "predictions.tsv"
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    if corpus.labeled and corpus.documents:
        hits = sum(str(pred) == label for pred, label in zip(preds, corpus.labels))
        print(f"accuracy: {hits / len(corpus.documents):.4f}")


def cmd_flops_report(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = load_hash_table(args.table)
    if args.layers is not None and args.layers != table.num_layers:
        raise ConfigError(f"--layers {args.layers} does not match the "
                          f"table's L={table.num_layers}")
    corpus = load_corpus(args.corpus)
    _report_skipped(corpus)
    vocab = Vocab(table.tokens)
    schedules = [schedule(vocab.ids_for(doc), table)
                 for doc in corpus.documents]
    dims = ModelDims(num_layers=table.num_layers, d=args.d, heads=args.heads,
                     d_ff=args.d_ff)
    overrides = {"num_layers": args.baseline_layers, "d": args.baseline_d,
                 "heads": args.baseline_heads, "d_ff": args.baseline_d_ff}
    baseline = replace(dims, **{name: value for name, value in overrides.items()
                                if value is not None})
    rep = report(dims, schedules, baseline_dims=baseline)
    _write_text(out_dir / "flops.csv", rep.to_csv())
    _write_text(out_dir / "flops.txt", rep.to_text())
    print(rep.to_text(), end="")
    print(f"wrote {out_dir / 'flops.csv'} and {out_dir / 'flops.txt'}")


def cmd_ablate_consistency(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_text(out_dir / "ablation.txt", text)
    print(text, end="")
    print(f"wrote {out_dir / 'ablation.txt'}")


def cmd_difficulty(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_text(out_dir / "metrics.txt", text)
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


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")

    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("ablate-consistency", parents=[common],
                       help="train/infer hash consistency ablation")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--buckets", type=int, default=2)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--d-ff", type=int, default=16)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--num-train", type=int, default=40)
    p.add_argument("--num-eval", type=int, default=40)
    p.add_argument("--vocab-size", type=int, default=11)
    p.add_argument("--seq-len", type=int, default=5)
    p.add_argument("--force-identical", action="store_true")
    p.set_defaults(func=cmd_ablate_consistency)

    p = sub.add_parser("difficulty", parents=[common],
                       help="annotate and score difficulty predictors")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--d-ff", type=int, default=16)
    p.add_argument("--floor", type=float, default=0.3)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--num-train", type=int, default=40)
    p.add_argument("--num-eval", type=int, default=40)
    p.add_argument("--vocab-size", type=int, default=11)
    p.add_argument("--seq-len", type=int, default=5)
    p.add_argument("--annotator-epochs", type=int, default=150)
    p.add_argument("--predictor-epochs", type=int, default=300)
    p.add_argument("--per-layer", action="store_true")
    p.set_defaults(func=cmd_difficulty)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
