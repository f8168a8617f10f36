"""Text corpus ingestion and synthetic corpus generation.

Unlabeled format: one whitespace-tokenized document per line. Labeled
format: `<label>\\t<text>`. Blank lines are skipped and counted so callers
can report them.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .artifacts import check_field, check_tokens, open_text, write_text
from .errors import ConfigError, InputError, ParseError


@dataclass
class Corpus:
    documents: list
    labels: Optional[list] = None
    skipped_empty: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.documents):
            raise ConfigError(f"{len(self.labels)} labels for "
                              f"{len(self.documents)} documents")

    def __len__(self):
        return len(self.documents)

    @property
    def labeled(self):
        return self.labels is not None


def parse_corpus(text, labeled=False):
    documents, labels, skipped = [], [], 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            skipped += 1
            continue
        if labeled:
            label, tab, rest = line.partition("\t")
            if not tab:
                raise ParseError(f"line {lineno}: labeled corpus lines need "
                                 "a tab between label and text")
            labels.append(label)
            documents.append(rest.split())
        else:
            documents.append(line.split())
    return Corpus(documents=documents, labels=labels if labeled else None,
                  skipped_empty=skipped)


def load_corpus(path, labeled=False):
    with open_text(path) as fh:
        return parse_corpus(fh.read(), labeled=labeled)


def serialize_corpus(corpus):
    """The corpus as text. A label holding a tab or a line break, a token
    breaking the token rule, or a line that would read back as blank is an
    InputError."""
    lines = []
    for i, doc in enumerate(corpus.documents):
        line = " ".join(doc)
        if corpus.labeled:
            check_field(corpus.labels[i], f"label of document {i}")
            line = f"{corpus.labels[i]}\t{line}"
        check_tokens(doc)
        if not line.strip():
            raise InputError(f"document {i} is empty; its line would read "
                             "back as blank")
        lines.append(line + "\n")
    return "".join(lines)


def save_corpus(corpus, path):
    write_text(path, serialize_corpus(corpus))


def zipf_corpus(vocab_size, num_docs, *, seed=0, min_len=5, max_len=15,
                labeled=False):
    """Synthetic corpus with Zipf token frequencies.

    Token w0000 is the most frequent; draw probability of rank r is
    proportional to 1/r.
    """
    if vocab_size < 1 or num_docs < 1:
        raise ConfigError("vocab_size and num_docs must be positive")
    if not 1 <= min_len <= max_len:
        raise ConfigError("need 1 <= min_len <= max_len")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    width = len(str(vocab_size - 1))
    tokens = [f"w{i:0{width}d}" for i in range(vocab_size)]
    lengths = rng.integers(min_len, max_len + 1, size=num_docs)
    draws = rng.choice(vocab_size, size=int(lengths.sum()), p=weights)
    documents = []
    offset = 0
    for length in lengths:
        documents.append([tokens[i] for i in draws[offset:offset + length]])
        offset += length
    labels = None
    if labeled:
        labels = [str(int(x)) for x in rng.integers(0, 2, size=num_docs)]
    return Corpus(documents=documents, labels=labels)
