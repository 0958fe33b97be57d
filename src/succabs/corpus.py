"""Tagged-corpus handling: parsing, serialization, splitting, synthesis.

The on-disk format is one token per line as ``word<TAB>tag``, with a blank
line separating sentences and ``#``-prefixed lines ignored.  Words and tags
are compared case-sensitively and never normalized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import CorpusParseError, ValidationError

_FORBIDDEN_IN_SYMBOL = ("\t", "\n", "\r")


@dataclass(frozen=True)
class TagSet:
    """Ordered, finite tag inventory with stable 0-based indices."""

    tags: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = {}
        for i, t in enumerate(self.tags):
            if not t:
                raise ValidationError("tag symbols must be non-empty")
            if any(c in t for c in _FORBIDDEN_IN_SYMBOL):
                raise ValidationError(f"tag symbol {t!r} contains whitespace control characters")
            if t in seen:
                raise ValidationError(f"duplicate tag symbol {t!r}")
            seen[t] = i
        object.__setattr__(self, "index", seen)

    def __len__(self) -> int:
        return len(self.tags)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.index

    def index_of(self, symbol: str) -> int:
        try:
            return self.index[symbol]
        except KeyError:
            raise ValidationError(f"tag {symbol!r} not in tag set") from None

    def symbol(self, i: int) -> str:
        return self.tags[i]


@dataclass(frozen=True)
class TaggedToken:
    word: str
    tag: str

    def __post_init__(self):
        if not self.word:
            raise ValidationError("token word must be non-empty")
        if any(c in self.word for c in _FORBIDDEN_IN_SYMBOL):
            raise ValidationError(f"token word {self.word!r} contains whitespace control characters")


class Corpus:
    """Immutable tagged sentences over a fixed tag set, held as id columns.

    ``word_ids`` and ``tag_ids`` hold one entry per token: ``vocab[word_ids[i]]``
    is token i's word, with ``vocab`` in first-occurrence order, and
    ``tag_set.tags[tag_ids[i]]`` its tag.  Sentence s is tokens
    ``offsets[s]:offsets[s + 1]``.  ``sentences`` is a view of the same
    tokens as ``TaggedToken`` tuples, built on first access unless the
    corpus was constructed from it.
    """

    def __init__(self, sentences: Sequence[Sequence[TaggedToken]], tag_set: TagSet):
        sentences = tuple(map(tuple, sentences))
        index = tag_set.index
        vocab: dict[str, int] = {}
        word_ids: list[int] = []
        tag_ids: list[int] = []
        offsets = [0]
        for sent in sentences:
            if not sent:
                raise ValidationError("corpus must not contain empty sentences")
            for tok in sent:
                tag = index.get(tok.tag)
                if tag is None:
                    raise ValidationError(f"tag {tok.tag!r} not in tag set")
                tag_ids.append(tag)
                word_ids.append(vocab.setdefault(tok.word, len(vocab)))
            offsets.append(len(tag_ids))
        self._set_columns(tag_set, tuple(vocab), word_ids, tag_ids, offsets)
        self.__dict__["sentences"] = sentences

    @classmethod
    def _from_columns(cls, tag_set: TagSet, vocab: tuple[str, ...], word_ids, tag_ids,
                      offsets) -> "Corpus":
        """A corpus over already validated columns."""
        corpus = cls.__new__(cls)
        corpus._set_columns(tag_set, vocab, word_ids, tag_ids, offsets)
        return corpus

    def _set_columns(self, tag_set, vocab, word_ids, tag_ids, offsets) -> None:
        columns = {"word_ids": word_ids, "tag_ids": tag_ids, "offsets": offsets}
        for name, values in columns.items():
            array = np.asarray(values, dtype=np.int64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "tag_set", tag_set)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Corpus.{name}: a corpus is immutable")

    @cached_property
    def sentences(self) -> tuple[tuple[TaggedToken, ...], ...]:
        words = [self.vocab[i] for i in self.word_ids.tolist()]
        tags = self.tag_set.tags
        tokens = [TaggedToken(w, tags[t]) for w, t in zip(words, self.tag_ids.tolist())]
        bounds = self.offsets.tolist()
        return tuple(tuple(tokens[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @property
    def num_sentences(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_tokens(self) -> int:
        return int(self.offsets[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (self.tag_set == other.tag_set and self.vocab == other.vocab
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.word_ids, other.word_ids)
                and np.array_equal(self.tag_ids, other.tag_ids))

    def __hash__(self) -> int:
        return hash((self.tag_set, self.vocab, self.num_tokens))

    def __repr__(self) -> str:
        return (f"Corpus({self.num_sentences} sentences, {self.num_tokens} tokens, "
                f"{len(self.tag_set)} tags)")


def _source_lines(source: str | IO[str] | Iterable[str]) -> list[str]:
    """The source's lines: text is split at LF only, whatever holds it, and
    an iterable gives one line per item."""
    if isinstance(source, str):
        return source.split("\n")
    if hasattr(source, "read"):
        return source.read().split("\n")
    return list(source)


_BLANK, _COMMENT = -1, -2


def parse_corpus(source: str | IO[str] | Iterable[str],
                 declared_tags: Sequence[str] | None = None) -> Corpus:
    """Parse token-per-line text into a Corpus.

    When `declared_tags` is given it is used verbatim as the tag set and
    every observed tag must belong to it; otherwise the tag set is the
    lexicographically sorted set of observed tags.  A line loses one
    trailing LF (an iterable's items may keep theirs) and then one
    trailing CR; a CR or LF left in a word or tag is an error.
    """
    declared = TagSet(tuple(declared_tags)) if declared_tags is not None else None
    lines = _source_lines(source)
    # Most lines of a corpus repeat, so each distinct line is checked once.
    distinct = dict.fromkeys(lines)
    vocab: dict[str, int] = {}
    tags: dict[str, int] = dict(declared.index) if declared is not None else {}
    word_of = [_BLANK] * len(distinct)
    tag_of = [_BLANK] * len(distinct)
    errors: dict[int, str] = {}
    for i, line in enumerate(distinct):
        distinct[line] = i
        if line.endswith("\n"):
            line = line[:-1]
        if line.endswith("\r"):
            line = line[:-1]
        if line.startswith("#"):
            word_of[i] = _COMMENT
            continue
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            errors[i] = f"expected exactly two tab-separated non-empty fields, got {line!r}"
            continue
        word, tag = fields
        if "\r" in line or "\n" in line:
            errors[i] = f"CR or LF inside a word or tag: {line!r}"
        elif declared is not None and tag not in declared:
            errors[i] = f"tag {tag!r} not in declared tag set"
        else:
            word_of[i] = vocab.setdefault(word, len(vocab))
            tag_of[i] = tags.setdefault(tag, len(tags))

    line_ids = np.fromiter(map(distinct.__getitem__, lines), np.int64, count=len(lines))
    if errors:
        first = np.flatnonzero(np.isin(line_ids, list(errors)))[0]
        raise CorpusParseError(errors[int(line_ids[first])], int(first) + 1)
    word_of = np.array(word_of, dtype=np.int64)[line_ids]
    tag_of = np.array(tag_of, dtype=np.int64)[line_ids]
    kept = word_of != _COMMENT  # a comment line neither holds a token nor ends a sentence
    word_of, tag_of = word_of[kept], tag_of[kept]
    is_token = word_of >= 0
    starts = is_token & ~np.concatenate(([False], is_token[:-1]))
    offsets = np.append(np.flatnonzero(starts[is_token]), np.count_nonzero(is_token))
    tag_ids = tag_of[is_token]
    if declared is not None:
        tag_set = declared
    else:
        tag_set = TagSet(tuple(sorted(tags)))
        tag_ids = np.array([tag_set.index[t] for t in tags], dtype=np.int64)[tag_ids]
    return Corpus._from_columns(tag_set, tuple(vocab), word_of[is_token], tag_ids, offsets)


def write_corpus(corpus: Corpus) -> str:
    """Serialize to the token-per-line format (LF line endings).

    Re-parsing the result with the corpus's own tag set declared yields an
    equal Corpus.
    """
    if corpus.num_tokens == 0:
        return ""
    # Token i is its word's "word<TAB>" then its tag's "tag<LF>", with a
    # second LF after the last token of every sentence but the last.
    words = np.array([w + "\t" for w in corpus.vocab], dtype=object)
    k = len(corpus.tag_set)
    tags = np.array([t + "\n" for t in corpus.tag_set.tags]
                    + [t + "\n\n" for t in corpus.tag_set.tags], dtype=object)
    tag_cell = corpus.tag_ids.copy()
    tag_cell[corpus.offsets[1:-1] - 1] += k
    cells = np.empty((corpus.num_tokens, 2), dtype=object)
    cells[:, 0] = words[corpus.word_ids]
    cells[:, 1] = tags[tag_cell]
    return "".join(cells.ravel().tolist())


def split_corpus(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic sentence-level split into (train, test)."""
    n = corpus.num_sentences
    if n < 2:
        raise ValidationError("need at least 2 sentences to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must lie strictly between 0 and 1")
    n_train = min(max(round(n * train_fraction), 1), n - 1)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    train_idx = sorted(order[:n_train])
    test_idx = sorted(order[n_train:])
    train = Corpus(tuple(corpus.sentences[i] for i in train_idx), corpus.tag_set)
    test = Corpus(tuple(corpus.sentences[i] for i in test_idx), corpus.tag_set)
    return train, test


@dataclass(frozen=True)
class SynthesisConfig:
    num_tags: int
    vocab_size: int
    num_train_tokens: int
    num_test_tokens: int
    seed: int
    zipf_exponent: float = 1.9

    def __post_init__(self):
        if self.num_tags < 2:
            raise ValidationError("num_tags must be at least 2")
        if self.vocab_size < self.num_tags:
            raise ValidationError("vocab_size must be at least num_tags")
        if self.num_train_tokens < 1 or self.num_test_tokens < 1:
            raise ValidationError("token counts must be positive")
        if self.zipf_exponent <= 0:
            raise ValidationError("zipf_exponent must be positive")


@dataclass(frozen=True)
class GeneratorSpec:
    """True distributions behind a synthesized corpus, for oracle checks."""

    tag_set: TagSet
    initial: np.ndarray          # shape (K,)
    transition: np.ndarray       # shape (K, K), rows sum to 1
    words: tuple[str, ...]       # vocabulary, index-aligned with emission columns
    preferred_tags: np.ndarray   # shape (V,), tag index each word leans toward
    secondary_tags: np.ndarray   # shape (V,), second tag of ambiguous words
    ambiguous: np.ndarray        # shape (V,) bool, words with a real second tag
    emission: np.ndarray         # shape (K, V), rows sum to 1
    config: SynthesisConfig

    def to_jsonable(self) -> dict:
        return {
            "tags": list(self.tag_set.tags),
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
            "words": list(self.words),
            "preferred_tags": self.preferred_tags.tolist(),
            "secondary_tags": self.secondary_tags.tolist(),
            "ambiguous": self.ambiguous.tolist(),
            "emission": self.emission.tolist(),
            "config": {
                "num_tags": self.config.num_tags,
                "vocab_size": self.config.vocab_size,
                "num_train_tokens": self.config.num_train_tokens,
                "num_test_tokens": self.config.num_test_tokens,
                "seed": self.config.seed,
                "zipf_exponent": self.config.zipf_exponent,
            },
        }


_STEM_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Most words are nearly unambiguous (tiny leak to foreign tags); a fixed
# fraction get a genuine second tag, so context models have work to do.
_EMISSION_LEAK = 0.002
_AMBIGUOUS_FRACTION = 0.2
_SECONDARY_WEIGHT = 0.5
_SENTENCE_LEN_RANGE = (5, 25)


def _sample_index(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    return int(np.searchsorted(cumulative, rng.random(), side="right"))


def _make_vocabulary(cfg: SynthesisConfig, rng: np.random.Generator) -> tuple[list[str], np.ndarray]:
    # One 3-letter suffix per tag; distinct, hence never a suffix of another.
    suffixes: list[str] = []
    while len(suffixes) < cfg.num_tags:
        s = "".join(rng.choice(list(_STEM_LETTERS), size=3))
        if s not in suffixes:
            suffixes.append(s)
    words: list[str] = []
    used: set[str] = set()
    preferred = np.empty(cfg.vocab_size, dtype=np.int64)
    for i in range(cfg.vocab_size):
        tag = i % cfg.num_tags
        while True:
            stem_len = int(rng.integers(2, 6))
            stem = "".join(rng.choice(list(_STEM_LETTERS), size=stem_len))
            word = stem + suffixes[tag]
            if word not in used:
                break
        used.add(word)
        words.append(word)
        preferred[i] = tag
    return words, preferred


def synthesize_corpus(cfg: SynthesisConfig) -> tuple[Corpus, Corpus, GeneratorSpec]:
    """Sample train/test corpora from a random first-order hidden tag chain.

    Word forms carry a suffix characteristic of their preferred tag, so
    suffix statistics of rare words are informative about tags.  Word
    frequencies follow a Zipf law with exponent ``cfg.zipf_exponent``.
    Deterministic for a fixed config.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.num_tags
    width = len(str(k - 1))
    tag_set = TagSet(tuple(f"T{i:0{width}d}" for i in range(k)))

    initial = rng.dirichlet(np.ones(k))
    transition = np.stack([rng.dirichlet(np.ones(k)) for _ in range(k)])

    words, preferred = _make_vocabulary(cfg, rng)
    ambiguous = rng.random(cfg.vocab_size) < _AMBIGUOUS_FRACTION
    secondary = (preferred + 1 + rng.integers(0, k - 1, size=cfg.vocab_size)) % k

    # Zipf rank within the word's own tag, so every tag owns words across
    # the whole frequency range and posterior sharpness is rank-independent.
    zipf = (np.arange(cfg.vocab_size) // k + 1.0) ** (-cfg.zipf_exponent)
    weight = np.full((k, cfg.vocab_size), _EMISSION_LEAK)
    weight[preferred, np.arange(cfg.vocab_size)] = 1.0
    weight[secondary[ambiguous], np.flatnonzero(ambiguous)] = _SECONDARY_WEIGHT
    emission = zipf * weight
    emission /= emission.sum(axis=1, keepdims=True)

    initial_cum = np.cumsum(initial)
    transition_cum = np.cumsum(transition, axis=1)
    emission_cum = np.cumsum(emission, axis=1)

    def draw(total_tokens: int) -> tuple[tuple[TaggedToken, ...], ...]:
        sentences = []
        remaining = total_tokens
        lo, hi = _SENTENCE_LEN_RANGE
        while remaining > 0:
            length = min(int(rng.integers(lo, hi + 1)), remaining)
            toks = []
            tag = _sample_index(initial_cum, rng)
            for pos in range(length):
                if pos > 0:
                    tag = _sample_index(transition_cum[tag], rng)
                word = words[_sample_index(emission_cum[tag], rng)]
                toks.append(TaggedToken(word, tag_set.symbol(tag)))
            sentences.append(tuple(toks))
            remaining -= length
        return tuple(sentences)

    train = Corpus(draw(cfg.num_train_tokens), tag_set)
    test = Corpus(draw(cfg.num_test_tokens), tag_set)
    spec = GeneratorSpec(tag_set, initial, transition, tuple(words), preferred,
                         secondary, ambiguous, emission, cfg)
    return train, test, spec
