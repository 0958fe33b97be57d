"""Trigram tag decoding: train a model from a corpus, then find the tag
sequence maximizing the product of contextual and lexical factors.

The score of a tagged sentence is

    sum_k [ ln P(T_k | T_{k-N+1},...,T_{k-1}) + ln (P(T_k | W_k) / P(T_k)) ]

with the context padded by the sentence-boundary pseudo-tag.  Decoding is
exact dynamic programming over (N-1)-tuples of tag indices; known words are
restricted to their lexicon tags, unknown words range over the whole tag
set with the suffix model supplying P(T|W).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, takewhile
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Corpus, TagSet, write_corpus
from .counts import (
    BOUNDARY,
    Lexicon,
    RareWordPolicy,
    build_lexicon,
    build_suffix_trie,
    count_ngrams,
)
from .errors import ValidationError
from .lexicon import (
    UnknownWordModel,
    build_unknown_word_model,
    lexical_factor_rows,
    unknown_word_distribution,
)
from .smoothing import (
    ROOT_MODE_ELE,
    ConditionalDistribution,
    InterpolationWeights,
    SmoothedNGramModel,
    _check_sigma_scale,
    build_ele_ngram_model,
    build_interpolated_ngram_model,
    build_sa_ngram_model,
    interpolated_ngram_model,
    log_probs,
    unigram_distribution,
)

NEG_INF = float("-inf")
# Words per factor matrix when priming: ``log_probs`` holds two Python floats
# per lattice cell at once, 6 MB for a block of 2048 open 48-tag lattices.
_PRIME_BLOCK = 2048

SMOOTHING_SA = "sa"
SMOOTHING_INTERP = "interp"
SMOOTHING_ELE = "ele"
SMOOTHING_MODES = (SMOOTHING_SA, SMOOTHING_INTERP, SMOOTHING_ELE)


@dataclass(frozen=True)
class ModelMetadata:
    order: int
    smoothing: str
    root_mode: str
    sigma_scale: float
    corpus_digest: str
    lambdas: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_sigma_scale(self.sigma_scale)


@dataclass
class Model:
    """Everything the decoder needs, immutable once trained."""

    tag_set: TagSet
    transition: SmoothedNGramModel
    lexicon: Lexicon
    unknown_word_model: UnknownWordModel
    unigram: ConditionalDistribution
    metadata: ModelMetadata


@dataclass(frozen=True)
class TagSequenceScore:
    tags: tuple[str, ...]
    log_score: float


def corpus_digest(corpus: Corpus) -> str:
    """Hash of the canonical serialization, stored as training provenance."""
    return hashlib.sha256(write_corpus(corpus).encode("utf-8")).hexdigest()


def train_model(corpus: Corpus, order: int = 3,
                policy: RareWordPolicy | None = None,
                root_mode: str = ROOT_MODE_ELE, sigma_scale: float = 1.0,
                smoothing: str = SMOOTHING_SA,
                lambdas: Sequence[float] | None = None) -> Model:
    """Count, smooth, and bundle a tagging model from a tagged corpus."""
    if smoothing not in SMOOTHING_MODES:
        raise ValidationError(f"unknown smoothing mode {smoothing!r}")
    if policy is None:
        policy = RareWordPolicy()
    counts = count_ngrams(corpus, order)
    lam = None
    if smoothing == SMOOTHING_SA:
        transition = build_sa_ngram_model(counts, root_mode, sigma_scale)
    elif smoothing == SMOOTHING_ELE:
        transition = build_ele_ngram_model(counts)
    else:
        if lambdas is None:
            raise ValidationError("interpolation smoothing requires weights")
        lam = tuple(float(x) for x in lambdas)
        transition = build_interpolated_ngram_model(counts, InterpolationWeights(lam))
    lexicon = build_lexicon(corpus)
    trie = build_suffix_trie(corpus, lexicon, policy)
    unknown = build_unknown_word_model(trie, policy, root_mode)
    unigram = unigram_distribution(counts, root_mode)
    meta = ModelMetadata(
        order=order,
        smoothing=smoothing,
        root_mode=root_mode,
        sigma_scale=sigma_scale,
        corpus_digest=corpus_digest(corpus),
        lambdas=lam,
    )
    return Model(corpus.tag_set, transition, lexicon, unknown, unigram, meta)


class _DecodeRuntime:
    """Each word's log lexical factors and lattice, for one decoding call.

    ``table`` maps a word to ln(P(t|w)/P(t)) on its lattice and the lattice,
    the tag indices the decoder tries for it, ascending: a known word's
    lexicon tags (every tag with ``open_lattice``), or every tag for an
    unknown word.
    """

    def __init__(self, model: Model, open_lattice: bool = False):
        self.model = model
        self.open_lattice = open_lattice
        self.table: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def prime(self, words: Iterable[str]) -> None:
        """Add the words not in ``table`` yet, in blocks of ``_PRIME_BLOCK``:
        one factor matrix and one ``log_probs`` per block, with each cell's
        operations those of ``known_word_distribution`` or
        ``unknown_word_distribution`` and then ``lexical_factors``.  If words
        are rejected, the error is the per-word one of the first of them in
        ``words``."""
        new = [w for w in dict.fromkeys(words) if w not in self.table]
        m = self.model
        entries = m.lexicon.entries
        folds: dict[int, ConditionalDistribution] = {}  # trie node -> fold, for this call
        for start in range(0, len(new), _PRIME_BLOCK):
            block = new[start:start + _PRIME_BLOCK]
            probs = np.empty((len(block), len(m.tag_set)))
            on_lattice = np.ones(probs.shape, dtype=bool)
            known = [i for i, w in enumerate(block) if w in entries]
            if known:
                rows = np.array([entries[block[i]] for i in known])
                probs[known] = rows / rows.sum(axis=1)[:, None]
                if not self.open_lattice:
                    on_lattice[known] = rows > 0
            for i, w in enumerate(block):
                if w not in entries:
                    try:
                        probs[i] = unknown_word_distribution(m.unknown_word_model, w, folds).probs
                    except ValidationError:
                        lexical_factor_rows(probs[:i], m.unigram)  # an earlier rejection first
                        raise
            factors = lexical_factor_rows(probs, m.unigram)
            word_rows, lattices = np.nonzero(on_lattice)
            log_factors = log_probs(factors[word_rows, lattices])
            ends = np.cumsum(on_lattice.sum(axis=1)).tolist()
            self.table.update((w, (log_factors[lo:hi], lattices[lo:hi]))
                              for w, lo, hi in zip(block, [0] + ends, ends))


def _score_indices(model: Model, words: Sequence[str], tag_indices: Sequence[int],
                   runtime: _DecodeRuntime | None = None) -> float:
    rt = runtime if runtime is not None else _DecodeRuntime(model)
    rt.prime(words)
    index, log_rows = model.transition.index, model.transition.log_probs
    n_ctx = model.metadata.order - 1
    context = (BOUNDARY + 1,) * n_ctx
    total = 0.0
    for word, t in zip(words, tag_indices):
        log_factors, lattice = rt.table[word]
        at = int(np.searchsorted(lattice, t))
        lex = float(log_factors[at]) if at < len(lattice) and lattice[at] == t else NEG_INF
        trans = float(log_rows[index[context], t])
        if trans == NEG_INF or lex == NEG_INF:
            return NEG_INF
        total += trans + lex
        if n_ctx:
            context = (context + (t + 1,))[-n_ctx:]
    return total


def score_sequence(m: Model, words: Sequence[str], tags: Sequence[str]) -> float:
    """Log score of one tagging; the sentinel -inf when any factor is zero."""
    if len(words) != len(tags):
        raise ValidationError(f"{len(words)} words but {len(tags)} tags")
    index = m.tag_set.index
    for t in tags:
        if t not in index:
            raise ValidationError(f"tag {t!r} not in the model's tag set")
    return _score_indices(m, words, [index[t] for t in tags])


def viterbi_tag(m: Model, words: Sequence[str], open_lattice: bool = False) -> list[str]:
    """Highest-scoring tag sequence for one sentence."""
    return _viterbi(_DecodeRuntime(m, open_lattice), words)


def _viterbi(runtime: _DecodeRuntime, words: Sequence[str]) -> list[str]:
    """``viterbi_tag`` with the runtime's model, lattice mode and lexical table.

    Exact search: states are the last order-1 tags, and ``cells`` holds
    their scores with one axis per tag position, each over that position's
    ascending lattice (just the boundary before the sentence).  A step adds
    one axis for the new tag and maximizes out the oldest; ``argmax`` keeps
    the first maximum, and the final one runs in C order, so ties resolve
    toward the smallest tag indices.
    """
    if not words:
        raise ValidationError("cannot decode an empty sentence")
    runtime.prime(words)
    m = runtime.model
    index, log_rows = m.transition.index, m.transition.log_probs
    n_ctx = m.metadata.order - 1
    context = [np.zeros((1,) * (n_ctx - j), np.intp) for j in range(n_ctx)]  # tag+1
    cells = np.zeros((1,) * n_ctx)
    back = []  # per token: (lattice, argmax over the oldest tag)
    for word in words:
        log_factors, lattice = runtime.table[word]
        rows = index[tuple(context)]
        scores = log_rows.take(rows, axis=0)[..., lattice]
        scores += cells[..., None]
        scores += log_factors
        back.append((lattice, scores.argmax(axis=0)))
        cells = scores.max(axis=0)
        context = ([c[..., None] for c in context] + [lattice + 1])[1:]  # as np.ix_ shapes
    # Walk back from the best final state, prepending the position each
    # back-pointer array names; the first n_ctx positions are boundaries.
    path = [int(i) for i in np.unravel_index(cells.argmax(), cells.shape)]
    for _, bp in reversed(back):
        path.insert(0, int(bp[tuple(path[:n_ctx])]))
    return [m.tag_set.tags[lat[i]] for (lat, _), i in zip(back, path[n_ctx:])]


def viterbi_tag_scored(m: Model, words: Sequence[str],
                       open_lattice: bool = False) -> TagSequenceScore:
    rt = _DecodeRuntime(m, open_lattice)
    tags = _viterbi(rt, words)
    score = _score_indices(m, words, [m.tag_set.index[t] for t in tags], rt)
    return TagSequenceScore(tuple(tags), score)


def tag_corpus(m: Model, sentences: Sequence[Sequence[str]],
               open_lattice: bool = False) -> list[list[str]]:
    """Decode each sentence independently, with one lexical table for the call."""
    rt = _DecodeRuntime(m, open_lattice)
    # Decoding stops at the first empty sentence, which raises.
    rt.prime(chain.from_iterable(takewhile(len, sentences)))
    return [_viterbi(rt, sent) for sent in sentences]


def tagging_accuracy_objective(train: Corpus, heldout: Corpus, order: int = 3,
                               policy: RareWordPolicy | None = None,
                               root_mode: str = ROOT_MODE_ELE,
                               ) -> Callable[[tuple[float, ...]], float]:
    """Held-out tagging accuracy of the interpolated tagger at given weights.

    Each evaluation decodes the whole held-out set, so prefer the
    log-likelihood objective when the weight grid is large.
    """
    if heldout.num_tokens == 0:
        raise ValidationError("held-out corpus has no tokens")
    placeholder = (1.0,) + (0.0,) * (order - 1)
    base = train_model(train, order=order, policy=policy, root_mode=root_mode,
                       smoothing=SMOOTHING_INTERP, lambdas=placeholder)
    words = [[tok.word for tok in sent] for sent in heldout.sentences]
    gold = [[tok.tag for tok in sent] for sent in heldout.sentences]
    total = heldout.num_tokens

    def objective(lam: tuple[float, ...]) -> float:
        transition = interpolated_ngram_model(order, len(base.tag_set),
                                              base.transition.contexts, base.transition.freqs,
                                              InterpolationWeights(tuple(lam)))
        model = Model(base.tag_set, transition, base.lexicon,
                      base.unknown_word_model, base.unigram, base.metadata)
        correct = sum(predicted == actual
                      for sent_tags, sent_gold in zip(tag_corpus(model, words), gold)
                      for predicted, actual in zip(sent_tags, sent_gold))
        return correct / total

    return objective
