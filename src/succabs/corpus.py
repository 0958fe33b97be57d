"""Tagged-corpus handling: parsing, serialization, splitting, synthesis.

The on-disk format is one token per line as ``word<TAB>tag``, with a blank
line separating sentences and ``#``-prefixed lines ignored.  Words and tags
are compared case-sensitively and never normalized.
"""

from __future__ import annotations

import math
import operator
import random
import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import count
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import CorpusParseError, ValidationError

_FORBIDDEN_IN_SYMBOL = ("\t", "\n", "\r")
_SURROGATE = re.compile("[\ud800-\udfff]")  # code points no UTF-8 text can hold

# ``parse_corpus`` splits about this many characters of text at a time, so
# it never holds all the lines.  On a 300k-token corpus, 256 KiB blocks
# parse as fast as 1 MiB ones and hold a quarter of the line strings.
_PARSE_CHARS = 1 << 18
# ``write_corpus`` joins this many tokens into one piece at a time.
_WRITE_TOKENS = 1 << 15


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int (numpy integers and bools too), at least ``minimum`` if given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, not {value}")
    return value


@dataclass(frozen=True)
class TagSet:
    """Ordered, finite tag inventory with stable 0-based indices, held as a tuple."""

    tags: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.tags, str):
            raise ValidationError(f"tags must be a sequence of symbols, not the str {self.tags!r}")
        object.__setattr__(self, "tags", tuple(self.tags))
        seen = {}
        for i, t in enumerate(self.tags):
            if not t:
                raise ValidationError("tag symbols must be non-empty")
            if any(c in t for c in _FORBIDDEN_IN_SYMBOL):
                raise ValidationError(f"tag symbol {t!r} contains whitespace control characters")
            if not t.isascii() and _SURROGATE.search(t):
                raise ValidationError(f"tag symbol {t!r} holds a lone surrogate, which UTF-8 "
                                      "cannot hold")
            if t in seen:
                raise ValidationError(f"duplicate tag symbol {t!r}")
            seen[t] = i
        object.__setattr__(self, "index", seen)

    def __len__(self) -> int:
        return len(self.tags)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.index


@dataclass(frozen=True, slots=True)
class TaggedToken:
    """One word and its tag.  Slotted and frozen: a corpus's ``sentences``
    share one per distinct (word, tag) pair."""

    word: str
    tag: str

    def __post_init__(self):
        _check_words((self.word,))


def _check_words(words: Sequence[str]) -> None:
    """The rule for a corpus word, over many at once: not empty, no TAB, LF
    or CR (which end a field or line), no lone surrogate (which UTF-8 cannot
    hold), no "#" first (a comment line).  A few passes over the words joined
    at LF; only if they fail is each word read, to name the first that does."""
    text = "\n".join(("", *words, ""))
    if (text.count("\n") == len(words) + 1 and "\n\n" not in text and "\n#" not in text
            and "\t" not in text and "\r" not in text
            and (text.isascii() or not _SURROGATE.search(text))):
        return
    for word in words:
        if not word:
            raise ValidationError("empty word, which no corpus can hold")
        if any(c in word for c in _FORBIDDEN_IN_SYMBOL):
            raise ValidationError(f"token word {word!r} contains whitespace control characters")
        if _SURROGATE.search(word):
            raise ValidationError(f"token word {word!r} holds a lone surrogate, which UTF-8 "
                                  "cannot hold")
        if word.startswith("#"):
            raise ValidationError(f"token word {word!r} starts with '#', which would write "
                                  "a comment line")


class Corpus:
    """Immutable tagged sentences over a fixed tag set, held as id columns.

    ``word_ids`` and ``tag_ids`` hold one entry per token: ``vocab[word_ids[i]]``
    is token i's word, with ``vocab`` in first-occurrence order, and
    ``tag_set.tags[tag_ids[i]]`` its tag.  Sentence s is tokens
    ``offsets[s]:offsets[s + 1]``.  ``sentences`` is a view of the same
    tokens as ``TaggedToken`` tuples, built on first access unless the
    corpus was constructed from it; nothing else reads it.
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
        """The tokens as tuples, one ``TaggedToken`` per distinct (word, tag)
        pair, shared by every token of that pair."""
        k = len(self.tag_set)
        pairs, pair_of = np.unique(self.word_ids * k + self.tag_ids, return_inverse=True)
        vocab, tags = self.vocab, self.tag_set.tags
        shared = np.empty(len(pairs), dtype=object)
        shared[:] = [TaggedToken(vocab[p // k], tags[p % k]) for p in pairs.tolist()]
        tokens = shared[pair_of]
        bounds = self.offsets.tolist()
        return tuple(tuple(tokens[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def sentence_words(self) -> list[list[str]]:
        """Each sentence's words, read from the columns."""
        vocab = np.empty(len(self.vocab), dtype=object)
        vocab[:] = self.vocab
        words = vocab[self.word_ids]
        bounds = self.offsets.tolist()
        return [words[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]

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


def _text_blocks(text: str) -> Iterator[list[str]]:
    """The text's lines, split at LF, a block at a time: a block runs to
    the first LF at or past its ``_PARSE_CHARS``-th character."""
    start = 0
    while (cut := text.find("\n", start + _PARSE_CHARS - 1)) >= 0:
        yield text[start:cut].split("\n")
        start = cut + 1
    yield text[start:].split("\n")


_BLANK, _COMMENT = -1, -2


def _classify_lines(text: str, declared: TagSet | None,
                    vocab: dict[str, int], tags: dict[str, int]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each line's id among the distinct lines, and each id's word and tag
    ids (or _BLANK, or _COMMENT as its word) in ``vocab`` and ``tags``,
    first seen first; or the first bad line's CorpusParseError.

    Most lines of a corpus repeat, so each line is looked up once, a new
    one taking the next id, and only the distinct lines new to a block are
    checked, in the order first seen; a block keeps only its lines' ids.
    """
    distinct: defaultdict[str, int] = defaultdict(count().__next__)
    word_of: list[int] = []
    tag_of: list[int] = []
    blocks = []
    before = 0  # the lines of the blocks before
    for lines in _text_blocks(text):
        seen = len(distinct)
        line_ids = np.fromiter(map(distinct.__getitem__, lines), np.int64, count=len(lines))
        # A new line's id is above every id before it in the block, and above
        # the ids of the blocks before.
        highest = np.maximum.accumulate(np.concatenate(([seen - 1], line_ids)))
        firsts = np.flatnonzero(line_ids > highest[:-1])
        errors: dict[int, str] = {}
        for i, at in enumerate(firsts.tolist(), seen):
            line = lines[at]
            word_of.append(_BLANK)
            tag_of.append(_BLANK)
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
            if "\r" in line:
                errors[i] = f"CR or LF inside a word or tag: {line!r}"
            elif not line.isascii() and _SURROGATE.search(line):
                errors[i] = f"lone surrogate, which UTF-8 cannot hold, in a word or tag: {line!r}"
            elif declared is not None and tag not in declared:
                errors[i] = f"tag {tag!r} not in declared tag set"
            else:
                word_of[i] = vocab.setdefault(word, len(vocab))
                tag_of[i] = tags.setdefault(tag, len(tags))
        if errors:  # the first bad line is the first of the lowest bad id
            first = min(errors)
            raise CorpusParseError(errors[first], before + int(firsts[first - seen]) + 1)
        blocks.append(line_ids)
        before += len(lines)
    return (np.concatenate(blocks), np.array(word_of, dtype=np.int64),
            np.array(tag_of, dtype=np.int64))


def parse_corpus(text: str, declared_tags: Sequence[str] | None = None) -> Corpus:
    """Parse token-per-line text, a ``str``, into a Corpus.

    When `declared_tags` is given it is used verbatim as the tag set and
    every observed tag must belong to it; otherwise the tag set is the
    lexicographically sorted set of observed tags.  Lines end at LF, and
    a line loses one trailing CR; a CR left in a word or tag is an error,
    and so is a lone surrogate.

    The text is split a block of about ``_PARSE_CHARS`` characters at a
    time, so its lines are never all held at once.  The first bad line
    raises from its block, with its line number in the whole text.
    """
    if not isinstance(text, str):
        raise ValidationError(f"parse_corpus takes the text as a str, not {type(text).__name__}")
    declared = TagSet(declared_tags) if declared_tags is not None else None
    vocab: dict[str, int] = {}
    tags: dict[str, int] = dict(declared.index) if declared is not None else {}
    line_ids, word_of, tag_of = _classify_lines(text, declared, vocab, tags)
    # A comment line neither holds a token nor ends a sentence.
    line_ids = line_ids[word_of[line_ids] != _COMMENT]
    is_token = word_of[line_ids] >= 0
    starts = is_token & ~np.concatenate(([False], is_token[:-1]))
    offsets = np.append(np.flatnonzero(starts[is_token]), np.count_nonzero(is_token))
    line_ids = line_ids[is_token]
    tag_ids = tag_of[line_ids]
    if declared is not None:
        tag_set = declared
    else:
        tag_set = TagSet(tuple(sorted(tags)))
        tag_ids = np.array([tag_set.index[t] for t in tags], dtype=np.int64)[tag_ids]
    return Corpus._from_columns(tag_set, tuple(vocab), word_of[line_ids], tag_ids, offsets)


def _written_pieces(corpus: Corpus) -> Iterator[str]:
    """The token-per-line text, in pieces of ``_WRITE_TOKENS`` tokens."""
    n = corpus.num_tokens
    # Token i is its word's "word<TAB>" then its tag's "tag<LF>", with a
    # second LF after the last token of every sentence but the last.
    words = np.array([w + "\t" for w in corpus.vocab], dtype=object)
    k = len(corpus.tag_set)
    tags = np.array([t + "\n" for t in corpus.tag_set.tags]
                    + [t + "\n\n" for t in corpus.tag_set.tags], dtype=object)
    last = corpus.offsets[1:-1] - 1  # each sentence's last token, but the last sentence's
    cells = np.empty((min(n, _WRITE_TOKENS), 2), dtype=object)
    for lo in range(0, n, _WRITE_TOKENS):
        hi = min(lo + _WRITE_TOKENS, n)
        tag_cell = corpus.tag_ids[lo:hi].copy()
        tag_cell[last[np.searchsorted(last, lo):np.searchsorted(last, hi)] - lo] += k
        block = cells[:hi - lo]
        block[:, 0] = words[corpus.word_ids[lo:hi]]
        block[:, 1] = tags[tag_cell]
        yield "".join(block.ravel().tolist())


def write_corpus(corpus: Corpus, sink: Callable[[str], object] | None = None) -> str | None:
    """Serialize to the token-per-line format (LF line endings).

    Re-parsing the result with the corpus's own tag set declared yields an
    equal Corpus.  The text is joined from pieces of ``_WRITE_TOKENS``
    tokens, so besides it and its pieces nothing is held per token.  With
    ``sink``, each piece is passed to it in turn instead, nothing is joined
    and None is returned.
    """
    if sink is None:
        return "".join(_written_pieces(corpus))
    for piece in _written_pieces(corpus):
        sink(piece)
    return None


def _first_seen(ids: np.ndarray, names: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The names ``ids`` use, in first-occurrence order, and ``ids``
    renumbered into them."""
    used, first = np.unique(ids, return_index=True)
    order = used[np.argsort(first)]
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return tuple(names[i] for i in order.tolist()), rank[ids]


def _take_sentences(corpus: Corpus, chosen: Sequence[int]) -> Corpus:
    """The chosen sentences, in the order given, as a corpus of their own."""
    chosen = np.asarray(chosen, dtype=np.intp)
    starts = corpus.offsets[chosen]
    lengths = corpus.offsets[chosen + 1] - starts
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    tokens = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
    vocab, word_ids = _first_seen(corpus.word_ids[tokens], corpus.vocab)
    return Corpus._from_columns(corpus.tag_set, vocab, word_ids, corpus.tag_ids[tokens],
                                offsets)


def split_corpus(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic sentence-level split into (train, test), sliced from
    the id columns."""
    n = corpus.num_sentences
    if n < 2:
        raise ValidationError("need at least 2 sentences to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must lie strictly between 0 and 1")
    n_train = min(max(round(n * train_fraction), 1), n - 1)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return (_take_sentences(corpus, sorted(order[:n_train])),
            _take_sentences(corpus, sorted(order[n_train:])))


@dataclass(frozen=True)
class SynthesisConfig:
    num_tags: int
    vocab_size: int
    num_train_tokens: int
    num_test_tokens: int
    seed: int
    zipf_exponent: float = 1.9

    def __post_init__(self):
        for name in ("num_tags", "vocab_size", "num_train_tokens", "num_test_tokens", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.num_tags < 2:
            raise ValidationError("num_tags must be at least 2")
        if self.vocab_size < self.num_tags:
            raise ValidationError("vocab_size must be at least num_tags")
        if self.num_train_tokens < 1 or self.num_test_tokens < 1:
            raise ValidationError("token counts must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if not 0 < self.zipf_exponent < math.inf:  # NaN fails both comparisons
            raise ValidationError("zipf_exponent must be finite and positive")


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
        """The fields as values ``json`` writes: ``tag_set`` as ``tags``, arrays as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["tags"] = out.pop("tag_set").tags
        out["config"] = asdict(self.config)
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in out.items()}


_STEM_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Most words are nearly unambiguous (tiny leak to foreign tags); a fixed
# fraction get a genuine second tag, so context models have work to do.
_EMISSION_LEAK = 0.002
_AMBIGUOUS_FRACTION = 0.2
_SECONDARY_WEIGHT = 0.5
_SENTENCE_LEN_RANGE = (5, 25)


def _make_vocabulary(cfg: SynthesisConfig, rng: np.random.Generator) -> tuple[list[str], np.ndarray]:
    def letters(n: int) -> str:  # the draws of rng.choice(list(_STEM_LETTERS), size=n)
        return "".join(map(_STEM_LETTERS.__getitem__,
                           rng.integers(0, len(_STEM_LETTERS), size=n).tolist()))

    # One 3-letter suffix per tag; distinct, hence never a suffix of another.
    # Each dict is a set that keeps the order drawn.
    suffixes: dict[str, None] = {}
    while len(suffixes) < cfg.num_tags:
        suffixes.setdefault(letters(3))
    ends, words = list(suffixes), {}
    while len(words) < cfg.vocab_size:
        words.setdefault(letters(int(rng.integers(2, 6))) + ends[len(words) % cfg.num_tags])
    return list(words), np.arange(cfg.vocab_size, dtype=np.int64) % cfg.num_tags


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

    initial_cum = np.cumsum(initial).tolist()
    transition_cum = np.cumsum(transition, axis=1).tolist()
    emission_cum = np.cumsum(emission, axis=1)

    def draw(total_tokens: int) -> Corpus:
        # Per sentence, its length, then one uniform draw per tag and per
        # word, alternately; each picks the first index whose cumulative
        # probability exceeds it.
        uniform = np.empty((total_tokens, 2))  # each token's tag and word draws
        tag_ids = np.empty(total_tokens, dtype=np.int64)
        offsets = [0]
        lo, hi = _SENTENCE_LEN_RANGE
        while (start := offsets[-1]) < total_tokens:
            end = min(start + int(rng.integers(lo, hi + 1)), total_tokens)
            rng.random(out=uniform[start:end])
            first, *rest = uniform[start:end, 0].tolist()
            tags = [bisect_right(initial_cum, first)]
            for u in rest:
                tags.append(bisect_right(transition_cum[tags[-1]], u))
            tag_ids[start:end] = tags
            offsets.append(end)
        generated = np.empty(total_tokens, dtype=np.int64)
        for t in np.flatnonzero(np.bincount(tag_ids)).tolist():
            at = np.flatnonzero(tag_ids == t)
            generated[at] = np.searchsorted(emission_cum[t], uniform[at, 1], side="right")
        del uniform
        vocab, word_ids = _first_seen(generated, words)
        return Corpus._from_columns(tag_set, vocab, word_ids, tag_ids, offsets)

    train = draw(cfg.num_train_tokens)
    test = draw(cfg.num_test_tokens)
    spec = GeneratorSpec(tag_set, initial, transition, tuple(words), preferred,
                         secondary, ambiguous, emission, cfg)
    return train, test, spec
