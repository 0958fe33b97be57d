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
from math import log
from typing import Callable, Sequence

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
    known_word_distribution,
    lexical_factors,
    unknown_word_distribution,
)
from .smoothing import (
    ROOT_MODE_ELE,
    ConditionalDistribution,
    InterpolationWeights,
    SmoothedNGramModel,
    build_ele_ngram_model,
    build_interpolated_ngram_model,
    build_sa_ngram_model,
    interpolated_ngram_model,
    unigram_distribution,
)

NEG_INF = float("-inf")

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
    """Per-model caches: transition rows by context, lexical factors by word."""

    def __init__(self, model: Model, open_lattice: bool = False):
        self.model = model
        self.open_lattice = open_lattice
        self.num_tags = len(model.tag_set)
        self._trans: dict[tuple[int, ...], np.ndarray] = {}
        self._lex: dict[str, tuple[np.ndarray, tuple[int, ...]]] = {}

    def transition_row(self, context: tuple[int, ...]) -> np.ndarray:
        row = self._trans.get(context)
        if row is None:
            row = self.model.transition.distribution(context).probs
            self._trans[context] = row
        return row

    def lexical(self, word: str) -> tuple[np.ndarray, tuple[int, ...]]:
        """Factor vector P(t|w)/P(t) and the lattice tag indices for a word."""
        cached = self._lex.get(word)
        if cached is not None:
            return cached
        dist = known_word_distribution(self.model.lexicon, word)
        if dist is None:
            dist = unknown_word_distribution(self.model.unknown_word_model, word)
        factors = lexical_factors(dist, self.model.unigram)
        if dist.support and not self.open_lattice:
            lattice = tuple(sorted(dist.support))
        else:
            lattice = tuple(range(self.num_tags))
        result = (factors, lattice)
        self._lex[word] = result
        return result


def _score_indices(model: Model, words: Sequence[str], tag_indices: Sequence[int],
                   runtime: _DecodeRuntime | None = None) -> float:
    rt = runtime if runtime is not None else _DecodeRuntime(model)
    n_ctx = model.metadata.order - 1
    context = (BOUNDARY,) * n_ctx
    total = 0.0
    for word, t in zip(words, tag_indices):
        trans = float(rt.transition_row(context)[t])
        factor = float(rt.lexical(word)[0][t])
        if trans <= 0.0 or factor <= 0.0:
            return NEG_INF
        total += log(trans) + log(factor)
        if n_ctx:
            context = (context + (t,))[-n_ctx:]
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


def viterbi_tag(m: Model, words: Sequence[str], open_lattice: bool = False,
                runtime: _DecodeRuntime | None = None) -> list[str]:
    """Highest-scoring tag sequence for one sentence.

    Exact search: states are the last order-1 tag indices.  Ties resolve
    toward the candidate reached first when previous states are visited in
    sorted order and lattice tags in ascending order, which yields the
    smallest tag indices.
    """
    if not words:
        raise ValidationError("cannot decode an empty sentence")
    rt = runtime if runtime is not None else _DecodeRuntime(m, open_lattice)
    n_ctx = m.metadata.order - 1
    start = (BOUNDARY,) * n_ctx
    # cells[state] = score; bp[t][state] = (previous state, tag index)
    cells: dict[tuple[int, ...], float] = {start: 0.0}
    bp: list[dict[tuple[int, ...], tuple[tuple[int, ...], int]]] = []
    for word in words:
        factors, lattice = rt.lexical(word)
        step: dict[tuple[int, ...], float] = {}
        back: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        for state in sorted(cells):
            base = cells[state]
            row = rt.transition_row(state)
            for t in lattice:
                trans = float(row[t])
                factor = float(factors[t])
                if trans <= 0.0 or factor <= 0.0:
                    score = NEG_INF
                else:
                    score = base + log(trans) + log(factor)
                nxt = (state + (t,))[-n_ctx:] if n_ctx else ()
                old = step.get(nxt)
                if old is None or score > old:
                    step[nxt] = score
                    back[nxt] = (state, t)
        cells = step
        bp.append(back)
    final = max(sorted(cells), key=cells.__getitem__)
    tags_rev = []
    state = final
    for back in reversed(bp):
        state, t = back[state]
        tags_rev.append(t)
    return [m.tag_set.tags[t] for t in reversed(tags_rev)]


def viterbi_tag_scored(m: Model, words: Sequence[str],
                       open_lattice: bool = False) -> TagSequenceScore:
    rt = _DecodeRuntime(m, open_lattice)
    tags = viterbi_tag(m, words, open_lattice, rt)
    score = _score_indices(m, words, [m.tag_set.index[t] for t in tags], rt)
    return TagSequenceScore(tuple(tags), score)


def tag_corpus(m: Model, sentences: Sequence[Sequence[str]],
               open_lattice: bool = False) -> list[list[str]]:
    """Decode each sentence independently with shared caches."""
    rt = _DecodeRuntime(m, open_lattice)
    return [viterbi_tag(m, sent, open_lattice, rt) for sent in sentences]


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
                                              base.transition.freqs,
                                              InterpolationWeights(tuple(lam)))
        model = Model(base.tag_set, transition, base.lexicon,
                      base.unknown_word_model, base.unigram, base.metadata)
        correct = 0
        for sent_words, sent_gold in zip(words, gold):
            for predicted, actual in zip(viterbi_tag(model, sent_words), sent_gold):
                correct += predicted == actual
        return correct / total

    return objective
