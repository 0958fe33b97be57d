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
from itertools import chain, islice, takewhile
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
# A sentence with fewer (state, tag) cells per token than this is decoded
# with the other such sentences of its call by ``_viterbi_batch``; a wider
# one by ``_viterbi``, whose array steps are already large enough there.
_BATCH_CROSSOVER = 1024
# Cells per ``_viterbi_batch`` call, summed over its sentences' tokens: the
# bound on its back-pointers and on the arrays of one step.
_BATCH_CELLS = 1 << 18

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
    trie = build_suffix_trie(lexicon, policy)
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

    ``ids`` numbers the words primed so far.  Word i's lattice, the tag
    indices the decoder tries for it, ascending, is ``lat`` at ``offsets[i]``
    for ``sizes[i]`` entries: a known word's lexicon tags (every tag with
    ``open_lattice``), or every tag for an unknown word.  ``lex`` holds
    ln(P(t|w)/P(t)) at the same places.
    """

    def __init__(self, model: Model, open_lattice: bool = False):
        self.model = model
        self.open_lattice = open_lattice
        self.ids: dict[str, int] = {}
        self.lex = np.empty(0)
        self.lat = self.offsets = self.sizes = np.empty(0, np.intp)

    def entry(self, word: str) -> tuple[np.ndarray, np.ndarray]:
        """A primed word's log factors and lattice, as views."""
        i = self.ids[word]
        span = slice(self.offsets[i], self.offsets[i] + self.sizes[i])
        return self.lex[span], self.lat[span]

    def prime(self, words: Iterable[str]) -> None:
        """Add the words not in ``ids`` yet, in blocks of ``_PRIME_BLOCK``:
        one factor matrix and one ``log_probs`` per block, with each cell's
        operations those of ``known_word_distribution`` or
        ``unknown_word_distribution`` and then ``lexical_factors``.  If words
        are rejected, the error is the per-word one of the first of them in
        ``words``."""
        new = [w for w in dict.fromkeys(words) if w not in self.ids]
        m = self.model
        index = m.lexicon.index
        folds: dict[int, ConditionalDistribution] = {}  # trie node -> fold, for this call
        for start in range(0, len(new), _PRIME_BLOCK):
            block = new[start:start + _PRIME_BLOCK]
            probs = np.empty((len(block), len(m.tag_set)))
            on_lattice = np.ones(probs.shape, dtype=bool)
            at = np.array([index.get(w, -1) for w in block], dtype=np.intp)
            known = np.flatnonzero(at >= 0)
            counts = m.lexicon.counts[at[known]]
            probs[known] = counts / counts.sum(axis=1)[:, None]
            if not self.open_lattice:
                on_lattice[known] = counts > 0
            for i in np.flatnonzero(at < 0).tolist():
                try:
                    probs[i] = unknown_word_distribution(m.unknown_word_model, block[i],
                                                         folds).probs
                except ValidationError:
                    lexical_factor_rows(probs[:i], m.unigram)  # an earlier rejection first
                    raise
            factors = lexical_factor_rows(probs, m.unigram)
            word_rows, lattices = np.nonzero(on_lattice)
            self.lex = np.concatenate((self.lex, log_probs(factors[word_rows, lattices])))
            self.lat = np.concatenate((self.lat, lattices))
            self.sizes = np.concatenate((self.sizes, on_lattice.sum(axis=1)))
            self.ids.update(zip(block, range(len(self.ids), len(self.ids) + len(block))))
            self.offsets = np.cumsum(self.sizes) - self.sizes


def _score_indices(model: Model, words: Sequence[str], tag_indices: Sequence[int],
                   runtime: _DecodeRuntime | None = None) -> float:
    rt = runtime if runtime is not None else _DecodeRuntime(model)
    rt.prime(words)
    index, log_rows = model.transition.index, model.transition.log_probs
    n_ctx = model.metadata.order - 1
    context = (BOUNDARY + 1,) * n_ctx
    total = 0.0
    for word, t in zip(words, tag_indices):
        log_factors, lattice = rt.entry(word)
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
    return _decode(_DecodeRuntime(m, open_lattice), [words])[0]


def _decode(runtime: _DecodeRuntime, sentences: Sequence[Sequence[str]]) -> list[list[str]]:
    """Tags of each sentence, with the runtime's model, lattice mode and
    lexical arrays: the entry point of every decode.

    The runtime is primed in token order up to the first empty sentence,
    which raises.  A sentence's cells per token, the mean over its tokens of
    the product of the lattice sizes at that token and the order-1 before
    it, routes it: below ``_BATCH_CROSSOVER`` to ``_viterbi_batch``, longest
    sentences first, each batch as many as fit in ``_BATCH_CELLS`` cells and
    at least one; else to ``_viterbi``.  Both find the same tags, ties
    included.
    """
    runtime.prime(chain.from_iterable(takewhile(len, sentences)))
    if not all(len(s) for s in sentences):
        raise ValidationError("cannot decode an empty sentence")
    if not sentences:
        return []
    ids = runtime.ids
    tokens = np.array([ids[w] for s in sentences for w in s], dtype=np.intp)
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    firsts = np.cumsum(lengths) - lengths
    width = runtime.sizes[tokens]
    position = np.arange(len(tokens)) - np.repeat(firsts, lengths)
    cells = width.copy()
    for back in range(1, min(runtime.model.metadata.order, int(lengths.max()))):
        cells[back:] *= np.where(position[back:] >= back, width[:-back], 1)
    cells = np.add.reduceat(cells, firsts)

    names = runtime.model.tag_set.tags
    out: list = [None] * len(sentences)
    wide = cells >= _BATCH_CROSSOVER * lengths
    for i in np.flatnonzero(wide).tolist():
        out[i] = _viterbi(runtime, sentences[i])
    narrow = np.flatnonzero(~wide)
    narrow = narrow[np.argsort(-lengths[narrow], kind="stable")]
    ends = np.cumsum(cells[narrow])
    lo = 0
    while lo < len(narrow):  # as many as fit in _BATCH_CELLS, and at least one
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - cells[narrow[lo]] + _BATCH_CELLS,
                                             "right")))
        batch, lo = narrow[lo:hi], hi
        n = lengths[batch]
        at = np.repeat(firsts[batch] - np.cumsum(n) + n, n) + np.arange(n.sum())
        got = iter([names[t] for t in _viterbi_batch(runtime, n, tokens[at]).tolist()])
        for i in batch.tolist():
            out[i] = list(islice(got, lengths[i]))
    return out


def _viterbi_batch(runtime: _DecodeRuntime, lengths: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """``_viterbi`` over many sentences at once: the tag indices of their
    tokens, sentence after sentence.

    ``lengths`` are descending and ``tokens`` are the runtime's word ids.
    Step k decodes position k of the sentences longer than k, a prefix of
    them.  Each one's states form a C-order block over its last order-1
    lattices, the blocks one flat vector, and ``codes`` holds each state's
    tag+1 digits in base K+1, the flat ``index`` of its transition row.  The
    step scores every (state, tag) cell as ``_viterbi`` does, laid out by new
    state with the oldest tag varying fastest, and maximizes each new
    state's run of cells with ``reduceat``; the smallest index reaching the
    maximum is the first one, and a finished sentence's final argmax runs
    over its block in C order, so ties resolve as in ``_viterbi``.  One loop
    over the positions walks all sentences back.
    """
    m, lex, lat = runtime.model, runtime.lex, runtime.lat
    k_tags = m.transition.num_tags
    n_ctx = m.metadata.order - 1
    rows_of_code = m.transition.index.ravel() * k_tags
    log_rows = m.transition.log_probs.ravel()
    oldest = (k_tags + 1) ** max(n_ctx - 1, 0)  # weight of a code's oldest digit
    n = len(lengths)
    firsts = np.cumsum(lengths) - lengths
    active = (n - np.cumsum(np.bincount(lengths))).tolist()  # sentences longer than k
    scores, codes = np.zeros(n), np.zeros(n, np.intp)
    block_first = np.arange(n + 1)  # where each sentence's states start
    final = np.empty(n, np.intp)  # each sentence's best final state, in its block
    steps = []  # per position: lattice offsets and sizes, block starts, stride, back-pointers
    for k in range(len(active) - 1):
        na, done = active[k], active[k + 1]
        words = tokens[firsts[:na] + k]
        lo, size = runtime.offsets[words], runtime.sizes[words]
        sentence = np.arange(na)
        if n_ctx:
            # A new state's run is over the oldest tag's lattice (the
            # boundary's before position n_ctx), which a state index
            # multiplies by ``stride``.
            run = steps[k - n_ctx][1][:na] if k >= n_ctx else np.ones(na, np.intp)
            stride = np.diff(block_first) // run
            new_first = np.concatenate(([0], np.cumsum(stride * size)))
            sentence = np.repeat(sentence, stride * size)
            rest, tag = np.divmod(np.arange(new_first[-1]) - new_first[sentence], size[sentence])
            base = block_first[sentence] + rest  # each run's first state
            at = lo[sentence] + tag
            new_codes = codes[base] % oldest * (k_tags + 1) + lat[at] + 1
            run = run[sentence]
        else:  # the only run is over the new tag's lattice, from the one state
            run, stride, new_first = size, np.zeros(na, np.intp), np.arange(na + 1)
            base, new_codes = sentence, codes
        run_first = np.concatenate(([0], np.cumsum(run)))
        starts, step = run_first[:-1], stride[sentence]
        jump = np.repeat(step, run)
        jump[starts] = base - np.concatenate(([0], (base + (run - 1) * step)[:-1]))
        state = np.cumsum(jump)  # each cell's state: base, base + stride, ...
        if n_ctx:
            col, lex_cell = np.repeat(lat[at], run), np.repeat(lex[at], run)
        else:
            at = np.arange(run_first[-1]) + np.repeat(lo - starts, run)
            col, lex_cell = lat[at], lex[at]
        cell = scores[state] + log_rows[rows_of_code[codes][state] + col]
        cell += lex_cell
        best, back = _segment_argmax(cell, run_first)
        steps.append((lo, size, new_first, stride, back))
        if done < na:  # sentences ending here: the first maximum of each block
            ends = new_first[done:]
            final[done:na] = _segment_argmax(best[ends[0]:], ends - ends[0])[1]
        block_first = new_first[:done + 1]
        scores, codes = best[:block_first[-1]], new_codes[:block_first[-1]]
    tags = np.empty(len(tokens), np.intp)
    state = final[:0]
    for k in reversed(range(len(steps))):
        lo, size, new_first, stride, back = steps[k]
        na = len(lo)
        state = np.concatenate((state, final[len(state):na]))
        if n_ctx:
            rest, tag = np.divmod(state, size)
            tags[firsts[:na] + k] = lat[lo + tag]
            state = back[new_first[:na] + state] * stride + rest
        else:
            tags[firsts[:na] + k] = lat[lo + back]
    return tags


def _segment_argmax(values: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximum of each nonempty segment ``values[bounds[i]:bounds[i+1]]``
    and the offset in it of its first occurrence, the tie-break of ``argmax``."""
    starts = bounds[:-1]
    best = np.maximum.reduceat(values, starts)
    hits = np.flatnonzero(values == np.repeat(best, np.diff(bounds)))  # one in each segment
    return best, hits[np.searchsorted(hits, starts)] - starts


def _viterbi(runtime: _DecodeRuntime, words: Sequence[str]) -> list[str]:
    """One sentence's tags, with the runtime's model, lattice mode and
    lexical arrays.

    Exact search: states are the last order-1 tags, and ``cells`` holds
    their scores with one axis per tag position, each over that position's
    ascending lattice (just the boundary before the sentence).  A step adds
    one axis for the new tag and maximizes out the oldest; ``argmax`` keeps
    the first maximum, and the final one runs in C order, so ties resolve
    toward the smallest tag indices.  ``_decode`` sends it the sentences
    whose steps are large enough to be array-bound.
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
        log_factors, lattice = runtime.entry(word)
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
    tags = _decode(rt, [words])[0]
    score = _score_indices(m, words, [m.tag_set.index[t] for t in tags], rt)
    return TagSequenceScore(tuple(tags), score)


def tag_corpus(m: Model, sentences: Sequence[Sequence[str]],
               open_lattice: bool = False) -> list[list[str]]:
    """Each sentence's best tags, found independently, with one lexical
    table for the call; narrow sentences are decoded together, position by
    position (``_decode``).  An empty sentence raises, unless a rejected word
    comes before it."""
    return _decode(_DecodeRuntime(m, open_lattice), sentences)


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
