"""Corpus preparation: tokenization, document filtering, vocabulary construction.

Documents arrive as JSON-lines ({"id": ..., "text": ...}), are tokenized into
lowercase runs of ASCII letters, filtered by a post-stopword length threshold,
and reduced to a document-frequency-filtered vocabulary whose lexicographic order
fixes the row order of every matrix built downstream.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import filterfalse
from pathlib import Path

from .errors import DataError, EmptyCorpus, EmptyVocabulary
from .fileio import atomic_path, read_utf8, utf8_lines

# Runs of two or more ASCII letters: a regex match only ever starts at a
# run's first letter, and a greedy one takes the whole run, so these are the
# maximal runs of a-z with the one-letter runs dropped.
_TOKEN_RE = re.compile(r"[a-z]{2,}")


@dataclass(frozen=True)
class Document:
    """One document: an opaque id and its ordered token list."""

    id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    """Ordered document collection; the order defines matrix column order."""

    documents: tuple[Document, ...]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def ids(self) -> list[str]:
        return [d.id for d in self.documents]


@dataclass(frozen=True)
class Vocabulary:
    """Term list in fixed order with its term -> index map."""

    terms: tuple[str, ...]
    index_of: dict[str, int]

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index_of


def default_stopwords() -> frozenset[str]:
    """Bundled English stopword list."""
    text = resources.files("senmfk_split.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Stopword file: plain text, one term per line, UTF-8."""
    lines = read_utf8(path).splitlines()
    return frozenset(line.strip() for line in lines if line.strip())


@dataclass(frozen=True)
class PipelineConfig:
    """Preprocessing thresholds.

    Documents with fewer than ``min_doc_tokens`` tokens (counted after
    stopword removal) are dropped.  A term enters the vocabulary only if its
    document frequency lies in [min_df, floor(max_df_ratio * n_docs)]; both
    bounds are inclusive.
    """

    min_doc_tokens: int = 20
    min_df: int = 5
    max_df_ratio: float = 0.5
    stopwords: frozenset[str] = field(default_factory=default_stopwords)

    def __post_init__(self):
        if not (0 < self.max_df_ratio <= 1):
            raise ValueError("max_df_ratio must be in (0, 1]")
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")
        if self.min_doc_tokens < 0:
            raise ValueError("min_doc_tokens must be >= 0")


def tokenize(raw_text: str) -> list[str]:
    """Lowercase and keep the runs of ASCII letters a-z; drop tokens shorter
    than 2 characters.  Every other character, digits and non-ASCII letters
    included, is a separator, so "résumé" yields "sum".  Stopwords are kept
    (removal is corpus-level)."""
    return _TOKEN_RE.findall(raw_text.lower())


def filter_documents(corpus: Corpus, config: PipelineConfig) -> Corpus:
    """Remove stopword tokens, then keep only documents whose remaining token
    count is >= config.min_doc_tokens.  Document order is preserved."""
    stop = config.stopwords
    kept = []
    for doc in corpus:
        tokens = tuple(filterfalse(stop.__contains__, doc.tokens))
        if len(tokens) >= config.min_doc_tokens:
            kept.append(Document(doc.id, tokens))
    return Corpus(tuple(kept))


def build_vocabulary(corpus: Corpus, config: PipelineConfig) -> Vocabulary:
    """Collect terms with min_df <= doc_freq <= floor(max_df_ratio * n),
    sorted lexicographically.

    Raises EmptyVocabulary if no term survives, EmptyCorpus if the corpus has
    no documents.
    """
    n = len(corpus)
    if n == 0:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    df: Counter[str] = Counter()
    for doc in corpus:
        df.update(set(doc.tokens))
    ceiling = int(config.max_df_ratio * n)
    terms = sorted(t for t, c in df.items() if config.min_df <= c <= ceiling)
    if not terms:
        raise EmptyVocabulary(
            f"no term satisfies {config.min_df} <= doc_freq <= {ceiling} over {n} documents"
        )
    return Vocabulary(terms=tuple(terms), index_of={t: i for i, t in enumerate(terms)})


def drop_empty_documents(corpus: Corpus, vocab: Vocabulary) -> Corpus:
    """Drop documents with zero in-vocabulary tokens (they would produce empty
    matrix columns).  Out-of-vocabulary tokens are kept in surviving documents
    because they still occupy co-occurrence window positions."""
    kept = tuple(d for d in corpus if any(t in vocab.index_of for t in d.tokens))
    return Corpus(kept)


def load_jsonl_corpus(path: str | Path, pre_tokenized: bool = False) -> Corpus:
    """Read a JSON-lines corpus.

    Each line is an object with an ``id`` field and either ``text`` (raw, run
    through :func:`tokenize`) or, when ``pre_tokenized`` is set, ``tokens``
    (a list of term strings taken as-is).  An id or token that holds a lone
    surrogate (a valid JSON escape, but not text) is a DataError.

    Equal raw-text tokens share one string object; pre-tokenized ones (a
    resumed ``corpus.jsonl``) are kept as parsed, sparing a lookup a token.
    """
    path = Path(path)
    docs: list[Document] = []
    seen: set[str] = set()
    shared: dict[str, str] = {}
    for lineno, line in utf8_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj:
            raise DataError(f"{path}:{lineno}: expected an object with an 'id' field")
        doc_id = str(obj["id"])
        if doc_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        if pre_tokenized:
            if "tokens" not in obj or not isinstance(obj["tokens"], list):
                raise DataError(f"{path}:{lineno}: expected a 'tokens' list")
            tokens = tuple(str(t) for t in obj["tokens"] if str(t))
        else:
            if "text" not in obj:
                raise DataError(f"{path}:{lineno}: expected a 'text' field")
            toks = tokenize(str(obj["text"]))
            tokens = tuple(map(shared.setdefault, toks, toks))
        # a JSON escape such as \ud800 decodes to a lone surrogate, which no
        # artifact can be written with; raw-text tokens are [a-z]+ already
        try:
            (doc_id + "".join(tokens) if pre_tokenized else doc_id).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"{path}:{lineno}: id or token is not valid text: {exc}") from exc
        docs.append(Document(doc_id, tokens))
    if not docs:
        raise EmptyCorpus(f"{path}: no documents")
    return Corpus(tuple(docs))


def save_jsonl_corpus(corpus: Corpus, path: str | Path) -> None:
    """Persist a tokenized corpus, one {"id", "tokens"} object per line."""
    with atomic_path(path) as tmp, tmp.open("w", encoding="utf-8") as fh:
        for doc in corpus:
            fh.write(json.dumps({"id": doc.id, "tokens": list(doc.tokens)}) + "\n")


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Persist vocabulary terms in index order, one per line.  A term that
    would not read back as itself (edge whitespace, a line break) is a DataError."""
    for term in vocab.terms:
        if term.strip().splitlines() != [term]:
            raise DataError(f"{path}: term {term!r} cannot be stored one per line")
    with atomic_path(path) as tmp:
        tmp.write_text("".join(t + "\n" for t in vocab.terms), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Load a term-per-line vocabulary."""
    terms = tuple(
        line.strip()
        for line in read_utf8(path).splitlines()
        if line.strip()
    )
    if len(set(terms)) != len(terms):
        raise DataError(f"{path}: duplicate terms")
    return Vocabulary(terms=terms, index_of={t: i for i, t in enumerate(terms)})
