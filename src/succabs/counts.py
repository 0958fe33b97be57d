"""Frequency statistics feeding the estimators.

Contexts are tuples of tag indices.  Sentence-initial positions are padded
with the reserved pseudo-tag index ``BOUNDARY`` so every token has a full
left context; the pseudo-tag is never an outcome, so outcome vectors range
over the real tag set only.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .corpus import Corpus, TagSet
from .errors import ValidationError

# Pseudo-tag index padding sentence-initial contexts.  Never a valid outcome.
BOUNDARY = -1

# Marker consumed after a word's last (leftmost) letter on its reversed-suffix
# path.  The empty string can never collide with a real character.
BOW_LETTER = ""

# Letter codes on a trie path: BOW_CODE for the begin-of-word marker, else
# code point + 1, so codes sort as the letters do.
BOW_CODE = 0
_LETTER_CODES = sys.maxunicode + 2


@dataclass(frozen=True, eq=False)
class NGramCountTable:
    """Outcome counts for every observed context of every length below the
    order; the empty context is the unigram level.

    ``contexts`` come in model-file order, shortest first and then by tag
    indices, so row 0 is the empty context; row i of the read-only int64
    ``counts`` matrix is context i's outcome counts.
    """

    order: int
    tag_set: TagSet
    contexts: tuple[tuple[int, ...], ...]
    counts: np.ndarray

    def __post_init__(self):
        self.counts.flags.writeable = False

    @property
    def num_tags(self) -> int:
        return len(self.tag_set)


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
    Each order is one ``np.unique`` over context key times K plus outcome,
    and keys sort as their contexts do, so the rows come in file order.
    """
    if order < 1:
        raise ValidationError("n-gram order must be at least 1")
    if corpus.num_sentences == 0:
        raise ValidationError("cannot count n-grams of an empty corpus")
    m = len(corpus.tag_set)
    contexts: list[tuple[int, ...]] = []
    blocks = []  # one count matrix per context length
    for length, keys in enumerate(context_keys(corpus, order)):
        cells, cell_counts = np.unique(keys * m + corpus.tag_ids, return_counts=True)
        stored, row = np.unique(cells // m, return_inverse=True)
        rows = np.zeros((len(stored), m), dtype=np.int64)
        rows[row, (cells % m).astype(np.int64)] = cell_counts
        place = _place_values(m, order, length)
        contexts.extend(map(tuple, (stored[:, None] // place % (m + 1) - 1).tolist()))
        blocks.append(rows)
    return NGramCountTable(order, corpus.tag_set, tuple(contexts), np.concatenate(blocks))


@dataclass(frozen=True, eq=False)
class Lexicon(Mapping[str, np.ndarray]):
    """Tag counts per training word: row i of the read-only int64 (words, K)
    ``counts`` matrix is ``words[i]``'s, with ``words`` in model-file order
    (Python's ``sorted``) and ``index`` mapping each word to its row.  As a
    mapping, a word's value is its row."""

    words: tuple[str, ...]
    counts: np.ndarray
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.counts.flags.writeable = False
        object.__setattr__(self, "index", dict(zip(self.words, range(len(self.words)))))

    def __getitem__(self, word: str) -> np.ndarray:
        return self.counts[self.index[word]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    entries = property(lambda self: self)  # the benchmark harness reads the mapping by this name

    def total(self, word: str) -> int:
        return int(self[word].sum()) if word in self.index else 0


def build_lexicon(corpus: Corpus) -> Lexicon:
    """Tag counts per word: one ``bincount`` over word id times K plus tag,
    with the rows put in ``sorted`` word order (a numpy string sort would
    drop trailing NULs)."""
    m = len(corpus.tag_set)
    cells = np.bincount(corpus.word_ids * m + corpus.tag_ids, minlength=len(corpus.vocab) * m)
    order = sorted(range(len(corpus.vocab)), key=corpus.vocab.__getitem__)
    return Lexicon(tuple(corpus.vocab[i] for i in order),
                   cells.reshape(len(corpus.vocab), m)[np.array(order, dtype=np.intp)])


@dataclass(frozen=True)
class RareWordPolicy:
    frequency_threshold: int = 10
    max_suffix_length: int = 10

    def __post_init__(self):
        if self.frequency_threshold < 1 or self.max_suffix_length < 1:
            raise ValidationError("rare-word policy values must be positive")


@dataclass
class SuffixTrie:
    """Tree over reversed word suffixes, each node pooling tag counts.

    A word contributes along root -> last letter -> ... -> first letter ->
    begin-of-word marker, truncated to the policy's maximum depth.  The root
    aggregates the whole rare-word subcorpus.

    Node ids are rows in preorder, row 0 the root, with siblings in
    ascending letter order (the begin-of-word marker first).  ``counts`` is
    the read-only (nodes, K) matrix of tag counts; ``depths``, ``codes``
    (the letter code of the edge into each node) and ``parents`` (-1 for
    the root) hold one entry per node.
    """

    counts: np.ndarray
    depths: np.ndarray
    codes: np.ndarray
    parents: np.ndarray
    # Integer keys, parent id * _LETTER_CODES + code: unlike tuples, ints are
    # not tracked by the garbage collector, so building the map starts no
    # collection pass over the caller's heap.
    _children: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.counts.flags.writeable = False
        self._children = dict(zip((self.parents[1:] * _LETTER_CODES + self.codes[1:]).tolist(),
                                  range(1, len(self.codes))))

    def iter_nodes(self) -> Iterator[int]:
        """Every node id, in preorder."""
        return iter(range(len(self.codes)))

    def child(self, node: int, letter: str) -> int | None:
        """The node below ``node`` along ``letter`` (``BOW_LETTER`` for the
        begin-of-word marker), or None."""
        return self._children.get(node * _LETTER_CODES
                                  + (ord(letter) + 1 if letter else BOW_CODE))

    def letters(self) -> list[str]:
        """Each node's edge letter; the root's and the marker's are empty."""
        return [chr(c - 1) if c != BOW_CODE else BOW_LETTER for c in self.codes.tolist()]


def reversed_suffix_path(word: str, max_edges: int) -> list[str]:
    """Letters of the trie path for a word: reversed letters then the
    begin-of-word marker, truncated to max_edges."""
    return (list(reversed(word)) + [BOW_LETTER])[:max_edges]


def _path_letters(words: list[str], depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Each word's trie path as a row of letter codes, its reversed letters
    and then the begin-of-word marker, cut at the depth and padded with
    ``BOW_CODE``; and a mask of the cells past each path."""
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    # No path is longer than the longest word and its marker; the policy's
    # depth, which a model file sets, may be far longer.
    depth = min(depth, int(lengths.max(initial=0)) + 1)
    reversed_words = np.array([w[::-1][:depth] for w in words], dtype=f"<U{depth}")
    letters = reversed_words.view(np.uint32).reshape(len(words), depth).astype(np.int64) + 1
    letters[np.arange(depth) >= lengths[:, None]] = BOW_CODE
    return letters, np.arange(depth) >= np.minimum(lengths + 1, depth)[:, None]


def build_suffix_trie(lexicon: Lexicon, policy: RareWordPolicy) -> SuffixTrie:
    """Pool tag counts of tokens whose word falls under the rare threshold.

    Counts are of token occurrences, not word types: a node holds the sum
    of the lexicon rows of the rare words whose path passes through it.
    The root pools every rare row, so their total must fit int64: the
    pooled sums would wrap silently.

    With the words sorted by their paths, the trie's preorder is row-major
    order: each path's new nodes are its cells after the letters it shares
    with the path before, and a column's later cells lie on the same node
    until the next new one.
    """
    totals = lexicon.counts.sum(axis=1)
    # An int64 bound: numpy 1 compares an int64 array with 2**63 as floats.
    rare = totals <= min(policy.frequency_threshold - 1, 2 ** 63 - 1)
    pooled = totals[rare]
    if int(pooled.max(initial=0)) * len(pooled) >= 2 ** 63 and sum(pooled.tolist()) >= 2 ** 63:
        raise ValidationError("the counts of the rare words sum past 2**63 - 1")
    letters, past = _path_letters(list(compress(lexicon.words, rare)), policy.max_suffix_length)
    order = np.lexsort(letters.T[::-1])  # column 0 is the primary key
    letters, past = letters[order], past[order]
    new = ~past
    new[1:] &= ~np.logical_and.accumulate(letters[1:] == letters[:-1], axis=1)
    # Each path's node at each depth below the root; ids count from 1.
    nodes = np.maximum.accumulate(np.where(new, np.cumsum(new).reshape(new.shape), 0), axis=0)
    nodes[past] = -1
    row, col = np.nonzero(new)

    rows = lexicon.counts[np.flatnonzero(rare)[order]]
    word, tag = np.nonzero(rows)
    path = nodes[word]
    on = path >= 0
    counts = np.zeros((len(row) + 1, rows.shape[1]), dtype=np.int64)
    counts[0] = rows.sum(axis=0)
    np.add.at(counts, (path[on], np.broadcast_to(tag[:, None], path.shape)[on]),
              np.broadcast_to(rows[word, tag][:, None], path.shape)[on])
    return SuffixTrie(counts, np.concatenate([[0], col + 1]),
                      np.concatenate([[BOW_CODE], letters[row, col]]),
                      np.concatenate([[-1], np.where(col > 0, nodes[row, col - 1], 0)]))
