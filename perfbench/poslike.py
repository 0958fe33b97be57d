"""Seeded generator for the ``poslike48`` workload: a corpus whose word
ambiguity resembles real part-of-speech data.

``succabs.synthesize_corpus`` lets every word leak into every tag, so known
words open lattices of most of the tag set.  Here each word owns one to
three tags (about 60/30/10 percent), as in tagged English text (Brants 2000,
TnT), and each tag marks its words with its own suffix.  A flat Zipf law
over a large vocabulary leaves a few percent of test tokens unknown, so the
unknown-word suffix model and full-width lattices carry a real share of the
decoding work.
"""

from __future__ import annotations

import numpy as np

from succabs.corpus import Corpus, TaggedToken, TagSet

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_TAGS_PER_WORD_P = (0.6, 0.3, 0.1)
_EXTRA_TAG_WEIGHT = 0.35
_TRANSITION_CONCENTRATION = 0.2
_ZIPF_EXPONENT = 1.0
_SENTENCE_LEN_RANGE = (5, 25)


def _distinct_strings(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[str]:
    """``n`` distinct random strings of ``lo`` to ``hi`` letters."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        need = n - len(out)
        lengths = rng.integers(lo, hi + 1, size=need)
        letters = rng.choice(_LETTERS, size=(need, hi))
        for row, k in zip(letters, lengths):
            s = "".join(row[:k])
            if s not in seen:
                seen.add(s)
                out.append(s)
    return out


def poslike_corpus(num_tags: int, vocab_size: int, train_tokens: int,
                   test_tokens: int, seed: int) -> tuple[Corpus, Corpus]:
    """Train and test corpora from one seeded first-order tag chain.

    Deterministic for fixed arguments.  Word ``i`` belongs to tag
    ``i % num_tags`` plus zero to two extra tags; its frequency rank within
    each of its tags follows a Zipf law with exponent ``_ZIPF_EXPONENT``.
    """
    rng = np.random.default_rng(seed)
    width = len(str(num_tags - 1))
    tag_set = TagSet(tuple(f"P{i:0{width}d}" for i in range(num_tags)))
    suffixes = _distinct_strings(rng, num_tags, 3, 3)

    primary = np.arange(vocab_size) % num_tags
    words = [stem + suffixes[t]
             for stem, t in zip(_distinct_strings(rng, vocab_size, 2, 6), primary)]
    n_tags = rng.choice(3, size=vocab_size, p=_TAGS_PER_WORD_P) + 1
    weight = np.zeros((num_tags, vocab_size))
    weight[primary, np.arange(vocab_size)] = 1.0
    for w in np.flatnonzero(n_tags > 1):
        others = rng.permutation(np.delete(np.arange(num_tags), primary[w]))
        weight[others[:n_tags[w] - 1], w] = _EXTRA_TAG_WEIGHT
    rank = np.arange(vocab_size) // num_tags + 1.0
    emission = weight * rank ** (-_ZIPF_EXPONENT)
    emission /= emission.sum(axis=1, keepdims=True)

    initial = rng.dirichlet(np.full(num_tags, 1.0))
    transition = rng.dirichlet(np.full(num_tags, _TRANSITION_CONCENTRATION), size=num_tags)
    initial_cum = np.cumsum(initial)
    transition_cum = np.cumsum(transition, axis=1)
    transition_cum[:, -1] = 1.0
    emission_cum = np.cumsum(emission, axis=1)
    emission_cum[:, -1] = 1.0

    def draw(total: int) -> tuple[tuple[TaggedToken, ...], ...]:
        lo, hi = _SENTENCE_LEN_RANGE
        lengths, drawn = [], 0
        while drawn < total:
            lengths.append(min(int(rng.integers(lo, hi + 1)), total - drawn))
            drawn += lengths[-1]
        tags = np.empty(total, dtype=np.int64)
        u = rng.random(total)
        pos = 0
        for n in lengths:
            tags[pos] = np.searchsorted(initial_cum, u[pos], side="right")
            for i in range(pos + 1, pos + n):
                tags[i] = np.searchsorted(transition_cum[tags[i - 1]], u[i], side="right")
            pos += n
        word_idx = np.empty(total, dtype=np.int64)
        v = rng.random(total)
        for t in range(num_tags):
            at = np.flatnonzero(tags == t)
            word_idx[at] = np.searchsorted(emission_cum[t], v[at], side="right")
        toks = [TaggedToken(words[w], tag_set.tags[t]) for w, t in zip(word_idx, tags)]
        out, pos = [], 0
        for n in lengths:
            out.append(tuple(toks[pos:pos + n]))
            pos += n
        return tuple(out)

    return Corpus(draw(train_tokens), tag_set), Corpus(draw(test_tokens), tag_set)
