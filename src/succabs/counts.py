"""Frequency statistics feeding the estimators.

Contexts are tuples of tag indices.  Sentence-initial positions are padded
with the reserved pseudo-tag index ``BOUNDARY`` so every token has a full
left context; the pseudo-tag is never an outcome, so outcome vectors range
over the real tag set only.
"""

from __future__ import annotations

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


def count_ngrams(corpus: Corpus, order: int) -> NGramCountTable:
    """Count tag n-grams of all orders 1..order over the corpus.

    Each sentence's left edge is padded with order-1 BOUNDARY pseudo-tags.
    """
    if order < 1:
        raise ValidationError("n-gram order must be at least 1")
    if corpus.num_sentences == 0:
        raise ValidationError("cannot count n-grams of an empty corpus")
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    table = NGramCountTable(order=order, num_tags=m)
    for sent in corpus.sentences:
        padded = [BOUNDARY] * (order - 1) + [index[t.tag] for t in sent]
        for i in range(order - 1, len(padded)):
            outcome = padded[i]
            for k in range(1, order + 1):
                ctx = tuple(padded[i - k + 1:i])
                vec = table.counts.get(ctx)
                if vec is None:
                    vec = np.zeros(m, dtype=np.int64)
                    table.counts[ctx] = vec
                vec[outcome] += 1
    for ctx, vec in table.counts.items():
        table.totals[ctx] = int(vec.sum())
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
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    lex = Lexicon(num_tags=m)
    for sent in corpus.sentences:
        for tok in sent:
            vec = lex.entries.get(tok.word)
            if vec is None:
                vec = np.zeros(m, dtype=np.int64)
                lex.entries[tok.word] = vec
            vec[index[tok.tag]] += 1
    for word, vec in lex.entries.items():
        lex.totals[word] = int(vec.sum())
    return lex


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


def build_suffix_trie(corpus: Corpus, lexicon: Lexicon, policy: RareWordPolicy) -> SuffixTrie:
    """Pool tag counts of tokens whose word falls under the rare threshold.

    Counts are of token occurrences, not word types; the lexicon must have
    been built from the same corpus.
    """
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    trie = SuffixTrie(num_tags=m, root=SuffixTrieNode(None, np.zeros(m, dtype=np.int64)))
    for sent in corpus.sentences:
        for tok in sent:
            if lexicon.total(tok.word) >= policy.frequency_threshold:
                continue
            tag = index[tok.tag]
            node = trie.root
            node.tag_counts[tag] += 1
            for letter in reversed_suffix_path(tok.word, policy.max_suffix_length):
                child = node.children.get(letter)
                if child is None:
                    child = SuffixTrieNode(letter, np.zeros(m, dtype=np.int64))
                    node.children[letter] = child
                node = child
                node.tag_counts[tag] += 1
    return trie
