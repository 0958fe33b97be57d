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


def letter_codes(letters: list[str]) -> np.ndarray:
    """The code of each letter, each one character or ``BOW_LETTER``."""
    codes = np.array(letters, dtype="<U1").view(np.uint32).astype(np.int64) + 1
    codes[np.fromiter(map(len, letters), dtype=np.int64, count=len(letters)) == 0] = BOW_CODE
    return codes


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


@dataclass
class SuffixTrie:
    """Tree over reversed word suffixes, each node pooling tag counts.

    A word contributes along root -> last letter -> ... -> first letter ->
    begin-of-word marker, truncated to the policy's maximum depth.  The root
    aggregates the whole rare-word subcorpus.

    Node ids are rows in preorder, row 0 the root, with siblings in
    ascending letter order (the begin-of-word marker first).  ``counts`` is
    the read-only (nodes, K) matrix of tag counts; ``depths``, ``codes``
    (the edge letter into each node, as ``letter_codes`` spells it) and
    ``parents`` (-1 for the root) hold one entry per node.
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


def _suffix_nodes(words: list[str], depth: int) -> tuple[np.ndarray, ...]:
    """Number the trie's nodes a depth at a time from the root's 0, one per
    distinct (parent, letter code) pair.  Returns each word's node at each
    depth (-1 past its path), and each node's parent, letter code and depth."""
    # One row of letter codes per word along its path; a row shorter than
    # the depth ends with the marker, after which its codes are unused.
    reversed_words = np.array([w[::-1][:depth] for w in words], dtype=f"<U{depth}")
    letters = reversed_words.view(np.uint32).reshape(len(words), depth).astype(np.int64) + 1
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    letters[np.arange(depth) >= lengths[:, None]] = BOW_CODE
    path_lengths = np.minimum(lengths + 1, depth)

    word_nodes = np.full((len(words), depth + 1), -1, dtype=np.int64)
    word_nodes[:, 0] = 0
    parents, codes = [np.array([-1])], [np.array([BOW_CODE])]
    size = 1
    for d in range(depth):
        live = np.flatnonzero(path_lengths > d)
        if live.size == 0:
            break
        keys, ids = np.unique(word_nodes[live, d] * _LETTER_CODES + letters[live, d],
                              return_inverse=True)
        word_nodes[live, d + 1] = ids + size
        parents.append(keys // _LETTER_CODES)
        codes.append(keys % _LETTER_CODES)
        size += len(keys)
    depths = np.repeat(np.arange(len(parents)), [len(p) for p in parents])
    return word_nodes, np.concatenate(parents), np.concatenate(codes), depths


def _preorder(parent: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Each node's position in preorder, siblings in ascending letter order.

    Ids run a depth at a time, and within a depth in (parent, letter) order,
    so a node's position is its parent's, plus one, plus the subtree sizes
    of its earlier siblings.
    """
    bounds = np.searchsorted(depths, np.arange(depths[-1] + 2)).tolist()
    levels = list(zip(bounds[1:-1], bounds[2:]))  # the id range of each depth below the root
    size = np.ones(len(parent), dtype=np.int64)
    for lo, hi in reversed(levels):
        np.add.at(size, parent[lo:hi], size[lo:hi])
    position = np.zeros(len(parent), dtype=np.int64)
    for lo, hi in levels:
        level, up = size[lo:hi], parent[lo:hi]
        before = np.cumsum(level) - level  # sizes of this depth's earlier nodes
        position[lo:hi] = position[up] + 1 + before - before[np.searchsorted(up, up)]
    return position


def _pooled_counts(rows: np.ndarray, word_nodes: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Per node, the sum of the count rows of the words through it."""
    word, tag = np.nonzero(rows)
    nodes = word_nodes[word]
    on = nodes >= 0
    counts = np.zeros((len(rank), rows.shape[1]), dtype=np.int64)
    np.add.at(counts, (rank[nodes[on]], np.broadcast_to(tag[:, None], nodes.shape)[on]),
              np.broadcast_to(rows[word, tag][:, None], nodes.shape)[on])
    return counts


def build_suffix_trie(corpus: Corpus, lexicon: Lexicon, policy: RareWordPolicy) -> SuffixTrie:
    """Pool tag counts of tokens whose word falls under the rare threshold.

    Counts are of token occurrences, not word types: a node holds the sum
    of the lexicon rows of the rare words whose path passes through it, so
    the lexicon must have been built from the same corpus.
    """
    m = len(corpus.tag_set)
    rare = [w for w in lexicon.entries if lexicon.total(w) < policy.frequency_threshold]
    word_nodes, parent, code, depths = _suffix_nodes(rare, policy.max_suffix_length)
    rank = _preorder(parent, depths)
    order = np.empty_like(rank)
    order[rank] = np.arange(len(rank))
    counts = _pooled_counts(
        np.array([lexicon.entries[w] for w in rare], dtype=np.int64).reshape(len(rare), m),
        word_nodes, rank)
    parents = rank[parent[order]]
    parents[0] = -1
    return SuffixTrie(counts, depths[order], code[order], parents)
