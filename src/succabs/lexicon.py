"""Lexical probabilities: P(tag | word) for known words, and a back-off
chain over the reversed-suffix trie for unknown words.

A known word keeps its raw relative frequencies and restricts the decoder
to its observed tags.  An unknown word walks the trie along its reversed
letters, and each matched node contributes one smoothing step on top of
the rare-word root distribution, so longer matched suffixes pull the
estimate further toward what words with that ending looked like in
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counts import Lexicon, RareWordPolicy, SuffixTrie, reversed_suffix_path
from .errors import ValidationError
from .smoothing import (
    ROOT_MODE_ELE,
    ROOT_MODE_RF,
    ConditionalDistribution,
    _smooth_level,
    root_estimate,
)


@dataclass(frozen=True)
class LexicalDistribution:
    """P(tag | word) with the set of tag indices seen in training.

    An empty support means the word is unknown and every tag stays in play.
    """

    probs: np.ndarray
    support: frozenset[int]

    def __post_init__(self):
        self.probs.flags.writeable = False


def known_word_distribution(lex: Lexicon, word: str) -> LexicalDistribution | None:
    """Relative tag frequencies of a training word; None if never seen."""
    vec = lex.get(word)
    if vec is None:
        return None
    total = vec.sum()
    support = frozenset(int(i) for i in np.nonzero(vec)[0])
    return LexicalDistribution(vec / total, support)


@dataclass(frozen=True)
class UnknownWordModel:
    """Suffix trie plus the smoothed tag distribution of all rare tokens."""

    trie: SuffixTrie
    root: ConditionalDistribution
    policy: RareWordPolicy


def build_unknown_word_model(trie: SuffixTrie, policy: RareWordPolicy,
                             root_mode: str = ROOT_MODE_ELE) -> UnknownWordModel:
    root_counts = trie.counts[0]
    if root_mode == ROOT_MODE_RF and not root_counts.any():
        raise ValidationError(
            f"no word is rarer than the rare threshold ({policy.frequency_threshold}), so the "
            "unknown-word model has no counts for a relative-frequency root; raise "
            "--rare-threshold or use --root-mode ele")
    return UnknownWordModel(trie, root_estimate(root_counts, root_mode), policy)


def unknown_word_distribution(m: UnknownWordModel, words: Sequence[str]) -> np.ndarray:
    """P(tag | word) of each word, as a read-only (words, K) matrix.

    A word walks the trie along its reversed letters (begin-of-word marker
    last) up to the first unmatched letter or the policy depth, and its row
    is the fold of one smoothing step per matched node onto the rare-word
    root.  The union of the words' nodes is folded once, a depth at a time.
    """
    if isinstance(words, str):
        raise ValidationError("expected a sequence of words, not one string")
    trie = m.trie
    ends, matched = [], {0}  # each word's deepest matched node; all of them
    for word in words:
        if not word:
            raise ValidationError("cannot estimate a distribution for an empty word")
        path = [0]
        for letter in reversed_suffix_path(word, m.policy.max_suffix_length):
            node = trie.child(path[-1], letter)
            if node is None:
                break
            path.append(node)
        ends.append(path[-1])
        matched.update(path)
    nodes = np.array(sorted(matched), dtype=np.intp)  # the root first
    depths = trie.depths[nodes]
    probs, entropies = np.empty((len(nodes), m.root.dim)), np.empty(len(nodes))
    probs[0], entropies[0] = m.root.probs, m.root.entropy_nats
    for depth in range(1, int(depths.max()) + 1):
        rows = np.flatnonzero(depths == depth)
        up = np.searchsorted(nodes, trie.parents[nodes[rows]])
        probs[rows], entropies[rows] = _smooth_level(trie.counts[nodes[rows]], probs[up],
                                                     entropies[up])
    out = probs[np.searchsorted(nodes, ends)]
    out.flags.writeable = False
    return out


def lexical_factors(dist: LexicalDistribution,
                    unigram: ConditionalDistribution) -> np.ndarray:
    """P(t | word) / P(t) for every tag t: zero wherever P(t | word) is zero,
    and rejected where P(t | word) > 0 but P(t) = 0."""
    return lexical_factor_rows(dist.probs, unigram)


def lexical_factor_rows(p_lex: np.ndarray, unigram: ConditionalDistribution) -> np.ndarray:
    """``lexical_factors`` for each row of a (words, K) matrix of P(t | word),
    with the same operations on each cell.  A rejection names the first
    offending tag of the first offending row."""
    p_tag = unigram.probs
    if p_tag.all():
        # The usual case: no 0/0 can occur.
        return p_lex / p_tag
    mass = p_lex > 0.0
    orphans = np.argwhere(mass & (p_tag == 0.0))
    if orphans.size:
        raise ValidationError(
            f"tag index {orphans[0, -1]} has zero unigram probability but nonzero "
            "lexical probability; use a strictly positive root mode")
    return np.divide(p_lex, p_tag, out=np.zeros_like(p_lex), where=mass)
