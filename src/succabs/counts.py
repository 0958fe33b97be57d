"""Frequency statistics feeding the estimators.

Contexts are tuples of tag indices.  Sentence-initial positions are padded
with the reserved pseudo-tag index ``BOUNDARY`` so every token has a full
left context; the pseudo-tag is never an outcome, so outcome vectors range
over the real tag set only.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .corpus import Corpus
from .errors import ValidationError

# Pseudo-tag index padding sentence-initial contexts.  Never a valid outcome.
BOUNDARY = -1

# Marker consumed after a word's last (leftmost) letter on its reversed-suffix
# path.  The empty string can never collide with a real character.
BOW_LETTER = ""


@dataclass
class NGramCountTable:
    """Outcome counts and occurrence totals for every observed context.

    A context of length k-1 belongs to the k-gram level, so a single map
    keyed by context tuples holds all levels at once.  The empty tuple is
    the unigram context.
    """

    order: int
    num_tags: int
    counts: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    totals: dict[tuple[int, ...], int] = field(default_factory=dict)

    def outcome_counts(self, context: tuple[int, ...]) -> np.ndarray:
        """Counts vector for a context; all zeros if never observed."""
        vec = self.counts.get(tuple(context))
        if vec is None:
            return np.zeros(self.num_tags, dtype=np.int64)
        return vec

    def contexts_of_length(self, length: int) -> Iterator[tuple[int, ...]]:
        return (c for c in self.counts if len(c) == length)


def _place_values(num_tags: int, order: int, length: int) -> np.ndarray:
    """What each tag of a context of the given length, oldest first, weighs
    in its ``context_keys`` key: int64 while every key of the order fits,
    else Python ints."""
    fits = (num_tags + 1) ** (order - 1) * num_tags < 2 ** 63
    return np.array([(num_tags + 1) ** p for p in range(length - 1, -1, -1)],
                    dtype=np.int64 if fits else object)


def context_keys(corpus: Corpus, order: int) -> Iterator[np.ndarray]:
    """For each context length 0..order-1, one key per token for the tags
    before it: each tag is a digit tag+1 in base K+1, where a position
    before the sentence start is the boundary digit 0, and the oldest tag
    is the most significant.  Keys sort as their context tuples do."""
    place = _place_values(len(corpus.tag_set), order, order - 1)[::-1]
    n = corpus.num_tokens
    position = np.arange(n) - np.repeat(corpus.offsets[:-1], np.diff(corpus.offsets))
    digits = (corpus.tag_ids + 1).astype(place.dtype)
    keys = np.zeros(n, dtype=place.dtype)
    yield keys
    for length in range(1, order):
        previous = np.zeros(n, dtype=place.dtype)
        previous[length:] = digits[:max(n - length, 0)]
        previous[position < length] = 0
        keys = keys + previous * place[length - 1]
        yield keys


def encode_contexts(contexts: list[tuple[int, ...]], length: int, num_tags: int,
                    order: int) -> np.ndarray:
    """The ``context_keys`` key of each context tuple of the given length."""
    place = _place_values(num_tags, order, length)
    digits = np.array(contexts, dtype=np.int64).reshape(len(contexts), length) + 1
    return (digits.astype(place.dtype) * place).sum(axis=1, dtype=place.dtype)


def count_ngrams(corpus: Corpus, order: int) -> NGramCountTable:
    """Count tag n-grams of all orders 1..order over the corpus.

    Each sentence's left edge is padded with order-1 BOUNDARY pseudo-tags.
    Each order is one ``np.unique`` over context key times K plus outcome.
    """
    if order < 1:
        raise ValidationError("n-gram order must be at least 1")
    if corpus.num_sentences == 0:
        raise ValidationError("cannot count n-grams of an empty corpus")
    m = len(corpus.tag_set)
    table = NGramCountTable(order=order, num_tags=m)
    for length, keys in enumerate(context_keys(corpus, order)):
        cells, cell_counts = np.unique(keys * m + corpus.tag_ids, return_counts=True)
        contexts, row = np.unique(cells // m, return_inverse=True)
        rows = np.zeros((len(contexts), m), dtype=np.int64)
        rows[row, (cells % m).astype(np.int64)] = cell_counts
        place = _place_values(m, order, length)
        tuples = map(tuple, (contexts[:, None] // place % (m + 1) - 1).tolist())
        for ctx, vec, total in zip(tuples, rows, rows.sum(axis=1).tolist()):
            table.counts[ctx] = vec
            table.totals[ctx] = total
    return table


def context_count(table: NGramCountTable, context: tuple[int, ...]) -> int:
    """How often the context occurred in training; 0 if never."""
    context = tuple(context)
    if len(context) >= table.order:
        raise ValidationError(
            f"context length {len(context)} is not below the table order {table.order}")
    return table.totals.get(context, 0)


@dataclass
class Lexicon:
    """Per-word tag-count vectors over the training corpus."""

    num_tags: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)
    totals: dict[str, int] = field(default_factory=dict)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def total(self, word: str) -> int:
        return self.totals.get(word, 0)


def build_lexicon(corpus: Corpus) -> Lexicon:
    """Tag counts per word: one ``bincount`` over word id times K plus tag."""
    m = len(corpus.tag_set)
    cells = np.bincount(corpus.word_ids * m + corpus.tag_ids, minlength=len(corpus.vocab) * m)
    rows = cells.reshape(len(corpus.vocab), m)
    return Lexicon(m, dict(zip(corpus.vocab, rows)),
                   dict(zip(corpus.vocab, rows.sum(axis=1).tolist())))


@dataclass(frozen=True)
class RareWordPolicy:
    frequency_threshold: int = 10
    max_suffix_length: int = 10

    def __post_init__(self):
        if self.frequency_threshold < 1 or self.max_suffix_length < 1:
            raise ValidationError("rare-word policy values must be positive")


class SuffixTrieNode:
    __slots__ = ("letter", "children", "tag_counts")

    def __init__(self, letter: str | None, tag_counts: np.ndarray):
        self.letter = letter
        self.children: dict[str, SuffixTrieNode] = {}
        self.tag_counts = tag_counts

    @property
    def node_total(self) -> int:
        return int(self.tag_counts.sum())


@dataclass
class SuffixTrie:
    """Tree over reversed word suffixes, each node pooling tag counts.

    A word contributes along root -> last letter -> ... -> first letter ->
    begin-of-word marker, truncated to the policy's maximum depth.  The root
    aggregates the whole rare-word subcorpus.
    """

    num_tags: int
    root: SuffixTrieNode

    def iter_nodes(self) -> Iterator[SuffixTrieNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())


def reversed_suffix_path(word: str, max_edges: int) -> list[str]:
    """Letters of the trie path for a word: reversed letters then the
    begin-of-word marker, truncated to max_edges."""
    return (list(reversed(word)) + [BOW_LETTER])[:max_edges]


# Letter codes on a trie path: the begin-of-word marker, or code point + 1.
_BOW_CODE = 0
_LETTER_CODES = sys.maxunicode + 2


def build_suffix_trie(corpus: Corpus, lexicon: Lexicon, policy: RareWordPolicy) -> SuffixTrie:
    """Pool tag counts of tokens whose word falls under the rare threshold.

    Counts are of token occurrences, not word types: a node holds the sum
    of the lexicon rows of the rare words whose path passes through it, so
    the lexicon must have been built from the same corpus.  The nodes are
    made a depth at a time, one per distinct (parent, letter) pair.
    """
    m = len(corpus.tag_set)
    depth = policy.max_suffix_length
    rare = [w for w in lexicon.entries if lexicon.total(w) < policy.frequency_threshold]
    rows = np.array([lexicon.entries[w] for w in rare], dtype=np.int64).reshape(len(rare), m)
    root = SuffixTrieNode(None, rows.sum(axis=0))
    # One row of letter codes per rare word along its path; a row shorter
    # than the depth ends with the marker, after which its codes are unused.
    reversed_words = np.array([w[::-1][:depth] for w in rare], dtype=f"<U{depth}")
    letters = reversed_words.view(np.uint32).reshape(len(rare), depth).astype(np.int64) + 1
    lengths = np.array([len(w) for w in rare], dtype=np.int64)
    letters[np.arange(depth) >= lengths[:, None]] = _BOW_CODE
    path_lengths = np.minimum(lengths + 1, depth)

    word, tag = np.nonzero(rows)  # the nonzero cells of the rare words' rows
    cell_counts = rows[word, tag]
    node = np.zeros(len(rare), dtype=np.int64)  # each word's node at the current depth
    level = [root]
    for d in range(depth):
        live = np.flatnonzero(path_lengths > d)
        if live.size == 0:
            break
        keys, node[live] = np.unique(node[live] * _LETTER_CODES + letters[live, d],
                                     return_inverse=True)
        on = path_lengths[word] > d
        counts = np.zeros(len(keys) * m, dtype=np.int64)
        np.add.at(counts, node[word[on]] * m + tag[on], cell_counts[on])
        above, level = level, [
            SuffixTrieNode(chr(code - 1) if code != _BOW_CODE else BOW_LETTER, vec)
            for code, vec in zip((keys % _LETTER_CODES).tolist(), counts.reshape(-1, m))]
        for up, child in zip((keys // _LETTER_CODES).tolist(), level):
            above[up].children[child.letter] = child
    return SuffixTrie(num_tags=m, root=root)
