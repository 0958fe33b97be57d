"""The per-word lexical code that the array walk and build replaced, kept
as the reference they must equal, with the same arithmetic.

``reversed_suffix_path`` is the trie path rule one letter at a time,
``letters`` each trie node's edge letter, ``children`` the (parent,
letter) -> node map the walk used to follow, ``lexsort_suffix_trie`` the
one-pass builder over padded (rare words x path) matrices into a dense
count matrix, ``sparse_rows`` the ``SparseRows`` of a dense count matrix
(how tests make a ``Lexicon`` from one), ``sparse_trie`` a trie of a
dense matrix, and
``known_word_distribution`` / ``lexical_factors`` the per-word
P(tag | word) and factor path that decoding's factor matrix replaced.
"""

from dataclasses import dataclass
from itertools import compress
from types import SimpleNamespace

import numpy as np

from succabs.counts import BOW_CODE, BOW_LETTER, SparseRows, SuffixTrie
from succabs.errors import ValidationError
from succabs.lexicon import lexical_factors as lexical_factor_cells


def reversed_suffix_path(word, max_edges):
    """Letters of the trie path for a word: reversed letters then the
    begin-of-word marker, truncated to max_edges."""
    return (list(reversed(word)) + [BOW_LETTER])[:max_edges]


def letters(trie):
    """Each node's edge letter; the root's and the marker's are empty."""
    return [chr(c - 1) if c != BOW_CODE else BOW_LETTER for c in trie.codes.tolist()]


def children(trie):
    """The trie's edges as a (parent id, letter) -> node id map, the
    begin-of-word marker's letter ``BOW_LETTER``."""
    return {(parent, letter): node for node, (parent, letter)
            in enumerate(zip(trie.parents.tolist(), letters(trie))) if node}


def path_nodes(trie, word, max_edges):
    """The nodes a word's path matches from the root, the root first."""
    edges = children(trie)
    path = [0]
    for letter in reversed_suffix_path(word, max_edges):
        node = edges.get((path[-1], letter))
        if node is None:
            break
        path.append(node)
    return path


def _path_letters(words, depth):
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    depth = min(depth, int(lengths.max(initial=0)) + 1)
    reversed_words = np.array([w[::-1][:depth] for w in words], dtype=f"<U{depth}")
    letters = reversed_words.view(np.uint32).reshape(len(words), depth).astype(np.int64) + 1
    letters[np.arange(depth) >= lengths[:, None]] = BOW_CODE
    return letters, np.arange(depth) >= np.minimum(lengths + 1, depth)[:, None]


def sparse_rows(counts):
    """The ``SparseRows`` of a dense (rows, K) count matrix."""
    counts = np.asarray(counts)
    row, tag = np.nonzero(counts)
    return SparseRows(np.searchsorted(row, np.arange(len(counts) + 1)), tag, counts[row, tag],
                      counts.shape[1])


def sparse_trie(counts, depths, codes, parents):
    """The ``SuffixTrie`` whose tag counts are a dense (nodes, K) matrix's."""
    return SuffixTrie(sparse_rows(counts), depths, codes, parents)


def lexsort_suffix_trie(lexicon, policy):
    """The one-pass builder: the rare words' padded path rows sorted with
    one ``np.lexsort``, whose row-major order is the trie's preorder.  The
    trie's (nodes, K) ``counts`` matrix, ``depths``, ``codes`` and
    ``parents``, as a namespace."""
    dense = lexicon.counts.rows(np.arange(len(lexicon)))
    totals = dense.sum(axis=1)
    rare = totals <= min(policy.frequency_threshold - 1, 2 ** 63 - 1)
    pooled = totals[rare]
    if int(pooled.max(initial=0)) * len(pooled) >= 2 ** 63 and sum(pooled.tolist()) >= 2 ** 63:
        raise ValidationError("the counts of the rare words sum past 2**63 - 1")
    letters, past = _path_letters(list(compress(lexicon.words, rare)), policy.max_suffix_length)
    order = np.lexsort(letters.T[::-1])
    letters, past = letters[order], past[order]
    new = ~past
    new[1:] &= ~np.logical_and.accumulate(letters[1:] == letters[:-1], axis=1)
    nodes = np.maximum.accumulate(np.where(new, np.cumsum(new).reshape(new.shape), 0), axis=0)
    nodes[past] = -1
    row, col = np.nonzero(new)

    rows = dense[np.flatnonzero(rare)[order]]
    word, tag = np.nonzero(rows)
    path = nodes[word]
    on = path >= 0
    counts = np.zeros((len(row) + 1, rows.shape[1]), dtype=np.int64)
    counts[0] = rows.sum(axis=0)
    np.add.at(counts, (path[on], np.broadcast_to(tag[:, None], path.shape)[on]),
              np.broadcast_to(rows[word, tag][:, None], path.shape)[on])
    return SimpleNamespace(
        counts=counts, depths=np.concatenate([[0], col + 1]),
        codes=np.concatenate([[BOW_CODE], letters[row, col]]),
        parents=np.concatenate([[-1], np.where(col > 0, nodes[row, col - 1], 0)]))


@dataclass(frozen=True)
class LexicalDistribution:
    """P(tag | word) with the set of tag indices seen in training; an empty
    support means the word is unknown and every tag stays in play."""

    probs: np.ndarray
    support: frozenset

    def __post_init__(self):
        self.probs.flags.writeable = False


def known_word_distribution(lex, word):
    """Relative tag frequencies of a training word, from its dense row
    through ``rows``; None if never seen."""
    if word not in lex.index:
        return None
    vec = lex.counts.rows([lex.index[word]])[0]
    total = vec.sum()
    support = frozenset(int(i) for i in np.nonzero(vec)[0])
    return LexicalDistribution(vec / total, support)


def lexical_factors(dist, unigram):
    """P(t | word) / P(t) for every tag t: zero wherever P(t | word) is zero,
    and rejected where P(t | word) > 0 but P(t) = 0."""
    return lexical_factor_cells(dist.probs, np.arange(len(dist.probs)), unigram)
