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

from .counts import _LETTER_CODES, RareWordPolicy, SuffixTrie, _suffix_paths
from .errors import ValidationError
from .smoothing import (
    ROOT_MODE_ELE,
    ROOT_MODE_RF,
    ConditionalDistribution,
    _smooth_level,
    root_estimate,
)


@dataclass(frozen=True)
class UnknownWordModel:
    """Suffix trie plus the smoothed tag distribution of all rare tokens."""

    trie: SuffixTrie
    root: ConditionalDistribution
    policy: RareWordPolicy


def build_unknown_word_model(trie: SuffixTrie, policy: RareWordPolicy,
                             root_mode: str = ROOT_MODE_ELE) -> UnknownWordModel:
    root_counts = trie.counts.rows([0])[0]
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
    root.  All the words walk together a depth at a time, and the nodes
    they reach at a depth are folded once each, from their gathered rows
    alone.
    """
    if isinstance(words, str):
        raise ValidationError("expected a sequence of words, not one string")
    if "" in words:
        raise ValidationError("cannot estimate a distribution for an empty word")
    trie = m.trie
    codes, offsets, lengths = _suffix_paths(words, m.policy.max_suffix_length)
    out = np.tile(m.root.probs, (len(words), 1))
    # The words still matching, and each one's node at the depth before,
    # as an index into that depth's folded ``level`` nodes.
    alive, at = np.arange(len(words)), np.zeros(len(words), dtype=np.intp)
    level = np.zeros(1, dtype=np.int64)
    probs, entropies = m.root.probs[None, :], np.array([m.root.entropy_nats])
    for depth in range(int(lengths.max(initial=0))):
        keep = lengths[alive] > depth
        alive, at = alive[keep], at[keep]
        keys = level[at] * _LETTER_CODES + codes[offsets[alive] + depth]
        edge = np.minimum(np.searchsorted(trie.edge_keys, keys), len(trie.edge_keys) - 1)
        hit = (trie.edge_keys[edge] == keys if len(trie.edge_keys) else  # a root-only trie
               np.zeros(len(keys), dtype=bool))
        alive, at, edge = alive[hit], at[hit], edge[hit]
        if not len(alive):
            break
        level, first, reached = np.unique(trie.edge_nodes[edge], return_index=True,
                                          return_inverse=True)
        probs, entropies = _smooth_level(trie.counts.rows(level), probs[at[first]],
                                         entropies[at[first]])
        at = reached
        out[alive] = probs[at]
    out.flags.writeable = False
    return out


def lexical_factors(p_lex: np.ndarray, tags: np.ndarray,
                    unigram: ConditionalDistribution) -> np.ndarray:
    """P(t | word) / P(t) for cells of P(t | word) and their tags t: zero
    wherever P(t | word) is zero, and rejected where P(t | word) > 0 but
    P(t) = 0.  A rejection names the first offending cell's tag."""
    p_tag = unigram.probs[tags]
    mass = p_lex > 0.0
    orphans = np.flatnonzero(mass & (p_tag == 0.0))
    if orphans.size:
        raise ValidationError(
            f"tag index {tags[orphans[0]]} has zero unigram probability but nonzero "
            "lexical probability; use a strictly positive root mode")
    return np.divide(p_lex, p_tag, out=np.zeros_like(p_lex), where=mass)
