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
from dataclasses import dataclass, replace
from itertools import chain, islice, takewhile
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Corpus, TagSet, _integer, write_corpus
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
    lexical_factors,
    unknown_word_distribution,
)
from .smoothing import (
    ROOT_MODE_ELE,
    ROOT_MODES,
    ConditionalDistribution,
    InterpolationWeights,
    SmoothedNGramModel,
    build_ele_ngram_model,
    build_interpolated_ngram_model,
    build_sa_ngram_model,
    interpolated_ngram_model,
    log_probs,
    unigram_distribution,
)

NEG_INF = float("-inf")
# Words per block when priming: ``log_probs`` holds two Python floats
# per lattice cell at once, 6 MB for a block of 2048 unknown words of 48 tags.
_PRIME_BLOCK = 2048
# A sentence with fewer (state, tag) cells per token than this is decoded
# with the other such sentences of its call by ``_viterbi_batch``; a wider
# one by ``_viterbi``, whose array steps are already large enough there.
_BATCH_CROSSOVER = 1024
# Cells per ``_viterbi_batch`` call, summed over its sentences' tokens.  It
# bounds what a call holds at once, since a state has at least one cell:
# 16 bytes per state of every step (its score and transition row, kept for
# the walk back) and up to 16 more per state in the walk back; and one
# step's temporaries, 32 bytes per cell and 72 per new state.
_BATCH_CELLS = 1 << 19

SMOOTHING_SA = "sa"
SMOOTHING_INTERP = "interp"
SMOOTHING_ELE = "ele"
SMOOTHING_MODES = (SMOOTHING_SA, SMOOTHING_INTERP, SMOOTHING_ELE)


@dataclass(frozen=True)
class ModelMetadata:
    order: int
    smoothing: str
    root_mode: str
    corpus_digest: str
    lambdas: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "order", _integer(self.order, "order"))
        if self.order < 1:
            raise ValidationError(f"model order must be at least 1, not {self.order}")
        if self.smoothing not in SMOOTHING_MODES:
            raise ValidationError(f"unknown smoothing mode {self.smoothing!r}")
        if (self.smoothing == SMOOTHING_INTERP) != (self.lambdas is not None):
            raise ValidationError("lambdas present iff smoothing is interp")
        if self.root_mode not in ROOT_MODES:
            raise ValidationError(f"unknown root mode {self.root_mode!r}")


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
    """Hash of the canonical serialization, stored as training provenance:
    each of ``write_corpus``'s pieces is hashed as it is made, so neither
    the text nor an encoded copy of it is held."""
    digest = hashlib.sha256()
    write_corpus(corpus, lambda piece: digest.update(piece.encode("utf-8")))
    return digest.hexdigest()


def train_model(corpus: Corpus, order: int = 3,
                policy: RareWordPolicy | None = None,
                root_mode: str = ROOT_MODE_ELE, smoothing: str = SMOOTHING_SA,
                lambdas: Sequence[float] | None = None) -> Model:
    """Count, smooth, and bundle a tagging model from a tagged corpus."""
    # Checked before any work.  The digest is taken last: taken first, it
    # raised the benchmark's peak RSS by ~4 MB on wide40 and poslike48.
    meta = ModelMetadata(order, smoothing, root_mode, "",
                         None if lambdas is None else tuple(float(x) for x in lambdas))
    if policy is None:
        policy = RareWordPolicy()
    counts = count_ngrams(corpus, order)
    if smoothing == SMOOTHING_SA:
        transition = build_sa_ngram_model(counts, root_mode)
    elif smoothing == SMOOTHING_ELE:
        transition = build_ele_ngram_model(counts)
    else:
        transition = build_interpolated_ngram_model(counts, InterpolationWeights(meta.lambdas))
    lexicon = build_lexicon(corpus)
    trie = build_suffix_trie(lexicon, policy)
    unknown = build_unknown_word_model(trie, policy, root_mode)
    unigram = unigram_distribution(counts, root_mode)
    return Model(corpus.tag_set, transition, lexicon, unknown, unigram,
                 replace(meta, corpus_digest=corpus_digest(corpus)))


class _DecodeRuntime:
    """Each word's log lexical factors and lattice, for one decoding call.

    ``ids`` numbers the words primed so far.  Word i's lattice, the tag
    indices the decoder tries for it, ascending, is ``lat`` at ``offsets[i]``
    for ``sizes[i]`` entries: a known word's lexicon tags, or every tag for
    an unknown word.  ``lex`` holds ln(P(t|w)/P(t)) at the same places.
    """

    def __init__(self, model: Model):
        self.model = model
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
        one ``unknown_word_distribution``, ``lexical_factors`` and
        ``log_probs`` per block, over its lattice cells in word order.  A
        known word's lattice and P(t | w) are its sparse lexicon row's
        ``tags`` and ``values`` over their total; an unknown word's lattice
        is every tag.  If words are rejected, the error is the one the first
        of them in ``words`` would raise alone."""
        new = [w for w in dict.fromkeys(words) if w not in self.ids]
        m = self.model
        index, counts, k = m.lexicon.index, m.lexicon.counts, len(m.tag_set)
        # The empty word, always unknown, is rejected after the words before it.
        empty = new.index("") if "" in new else len(new)
        for start in range(0, empty, _PRIME_BLOCK):
            block = new[start:min(start + _PRIME_BLOCK, empty)]
            at = np.array([index.get(w, -1) for w in block], dtype=np.intp)
            known, unknown = np.flatnonzero(at >= 0), np.flatnonzero(at < 0)
            sizes, tags, values = counts.cells(at[known])
            probs = unknown_word_distribution(m.unknown_word_model,
                                              [block[i] for i in unknown.tolist()])
            # Each cell's word, known words' cells first; a stable sort puts
            # them in word order, each word's tags still ascending.
            word = np.concatenate((np.repeat(known, sizes), np.repeat(unknown, k)))
            order = np.argsort(word, kind="stable")
            lattices = np.concatenate((tags, np.tile(np.arange(k), len(unknown))))[order]
            p_lex = np.concatenate((values / np.repeat(counts.totals()[at[known]], sizes),
                                    probs.reshape(-1)))[order]
            factors = lexical_factors(p_lex, lattices, m.unigram)
            self.lex = np.concatenate((self.lex, log_probs(factors)))
            self.lat = np.concatenate((self.lat, lattices))
            self.sizes = np.concatenate((self.sizes, np.bincount(word, minlength=len(block))))
            self.ids.update(zip(block, range(len(self.ids), len(self.ids) + len(block))))
            self.offsets = np.cumsum(self.sizes) - self.sizes
        if empty < len(new):
            unknown_word_distribution(m.unknown_word_model, [""])  # raises


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
    if isinstance(words, str) or isinstance(tags, str):
        raise ValidationError("expected sequences of words and tags, not strings")
    if len(words) != len(tags):
        raise ValidationError(f"{len(words)} words but {len(tags)} tags")
    index = m.tag_set.index
    for t in tags:
        if t not in index:
            raise ValidationError(f"tag {t!r} not in the model's tag set")
    return _score_indices(m, words, [index[t] for t in tags])


def viterbi_tag(m: Model, words: Sequence[str]) -> list[str]:
    """Highest-scoring tag sequence for one sentence."""
    return _decode(_DecodeRuntime(m), [words])[0]


def _decode(runtime: _DecodeRuntime, sentences: Sequence[Sequence[str]]) -> list[list[str]]:
    """Tags of each sentence, with the runtime's model, lattices and
    lexical factors: the entry point of every decode.

    The runtime is primed in token order up to the first empty sentence,
    which raises.  A sentence's cells per token, the mean over its tokens of
    the product of the lattice sizes at that token and the order-1 before
    it, routes it: below ``_BATCH_CROSSOVER`` to ``_viterbi_batch``, longest
    sentences first, each batch as many as fit in ``_BATCH_CELLS`` cells and
    at least one; else to ``_viterbi``.  Both keep only maxima in the
    forward pass and recompute the chosen path's runs on the walk back, so
    they find the same tags by one tie rule.  A string where a sentence or
    the list of them belongs raises.
    """
    if isinstance(sentences, str) or any(isinstance(s, str) for s in sentences):
        raise ValidationError("expected sentences as sequences of words, not strings")
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
    tag+1 digits in base K+1, the flat ``index`` of its transition row.  A
    new state's run of cells, one per oldest tag (``stride`` states apart),
    are state scores plus transitions T; the step keeps each run's maximum
    (``reduceat``), then adds the lexical term, exact as in ``_viterbi``
    (order 1 adds it first), and keeps its incoming scores and rows.  The
    walk back recomputes each chosen state's run as ``(scores + T) + lex``
    and takes its first maximum: ties, rounding collisions included, go as
    in ``_viterbi``.
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
    # Step k's tokens, the k-th of each sentence longer than k: by_step[p[k]:p[k + 1]].
    by_step = np.argsort(np.arange(len(tokens)) - np.repeat(firsts, lengths), kind="stable")
    p = np.cumsum([0] + active[:-1]).tolist()
    los, sizes = runtime.offsets[tokens[by_step]], runtime.sizes[tokens[by_step]]
    scores, codes = np.zeros(n), np.zeros(n, np.intp)
    block_first = np.arange(n + 1)  # where each sentence's states start
    steps = []  # per position: incoming scores and rows; runs, strides and blocks by sentence
    finals = []  # the blocks of the sentences ending at each position, and their sizes
    for k in range(len(active) - 1):
        na, done = active[k], active[k + 1]
        lo, size = los[p[k]:p[k + 1]], sizes[p[k]:p[k + 1]]
        if n_ctx:  # runs over the oldest lattice, the boundary's before position n_ctx
            run = sizes[p[k - n_ctx]:p[k - n_ctx] + na] if k >= n_ctx else np.ones(na, np.intp)
            stride = np.diff(block_first) // run
            new_first = np.concatenate(([0], np.cumsum(stride * size)))
            sentence = np.repeat(np.arange(na), np.diff(new_first))
            rest, tag = np.divmod(np.arange(new_first[-1]) - new_first[sentence], size[sentence])
            base = block_first[sentence] + rest  # each run's first state
            at = lo[sentence] + tag
            new_codes = codes[base] % oldest * (k_tags + 1) + lat[at] + 1
            step, cells = stride[sentence], run[sentence]
        else:  # the only run is over the new tag's lattice, from the one state
            run, stride, new_first = size, np.zeros(na, np.intp), np.arange(na + 1)
            base, new_codes, step, cells = new_first[:-1], codes, stride, size
            at = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
        col = np.repeat(lat[at], cells) if n_ctx else lat[at]
        starts = np.cumsum(cells) - cells
        prev = np.repeat(step, cells)
        prev[starts] = base - np.concatenate(([0], (base + (cells - 1) * step)[:-1]))
        prev = np.cumsum(prev, out=prev)  # each cell's state: base, base + stride, ...
        rows = rows_of_code[codes]
        col += rows[prev]
        cell = log_rows[col]
        cell += scores[prev]
        best = np.maximum.reduceat(cell if n_ctx else cell + lex[at], starts)
        del prev, col, cell  # before the next step's
        best += lex[at] if n_ctx else 0
        steps.append((scores, rows, run, stride, block_first[:na]))
        finals.append((best[new_first[done]:], np.diff(new_first[done:])))
        block_first = new_first[:done + 1]
        scores, codes = best[:block_first[-1]], new_codes[:block_first[-1]]
    # Each sentence's best final state: the first maximum of its block.
    top, ends = (np.concatenate(x[::-1]) for x in zip(*finals))
    ends = np.concatenate(([0], np.cumsum(ends)))
    hits = np.flatnonzero(top == np.repeat(np.maximum.reduceat(top, ends[:-1]), np.diff(ends)))
    state = hits[np.searchsorted(hits, ends[:-1])] - ends[:-1]
    run, stride, first = map(np.concatenate, list(zip(*steps))[2:])  # by token, by step
    bounds = np.concatenate(([0], np.cumsum(run)))
    j = np.arange(bounds[-1]) - np.repeat(bounds[:-1], run)
    off = np.repeat(first, run) + j * np.repeat(stride, run)  # each run's states, rest 0
    starts = bounds[:-1] - np.repeat(bounds[p[:-1]], active[:-1])  # in the step's runs
    tags = np.empty(len(tokens), np.intp)
    for k, (scores, rows, *_) in reversed(list(enumerate(steps))):  # chosen states back
        a, b = p[k], p[k + 1]
        rest, tag = np.divmod(state[:b - a], sizes[a:b])
        r, c = run[a:b], slice(bounds[a], bounds[b])
        prev = off[c] + np.repeat(rest, r)
        at = np.repeat(los[a:b] + tag, r) + (0 if n_ctx else j[c])
        cell = scores[prev] + log_rows[rows[prev] + lat[at]]
        cell += lex[at]
        top = np.repeat(np.maximum.reduceat(cell, starts[a:b]), r)
        first_j = np.minimum.reduceat(np.where(cell == top, j[c], k_tags), starts[a:b])
        tags[by_step[a:b]] = lat[at[starts[a:b] + first_j]]
        state[:b - a] = first_j * stride[a:b] + rest
    return tags


def _viterbi(runtime: _DecodeRuntime, words: Sequence[str]) -> list[str]:
    """One sentence's tags, with the runtime's model, lattices and lexical
    factors: exact search over states of the last order-1 tags.

    ``cells`` holds the states' scores, one axis per tag position, oldest
    first as in ``index``, each over its ascending lattice (the boundary
    before the sentence).  A step adds each state's score to its K-wide
    transition row T, maximizes out the oldest tag, then takes the lattice's
    columns and adds their lexical factors ``lex``: L^(order-1) additions,
    not L^order.  ``fl(x + lex)`` is monotone in x, so the cells equal bit
    for bit those of adding ``lex`` first, as order 1 (no state axis) does.
    No back-pointers are kept: from the first best final state in C order,
    the walk back recomputes the chosen state's ``(T + cells) + lex`` over
    its oldest tag and takes the first maximum, so ties, even ``fl(x1 + lex)
    == fl(x2 + lex)`` with x1 < x2, go to the smallest tag indices, oldest
    position first.  ``_decode`` sends it the array-bound sentences, primed.
    """
    m = runtime.model
    index, log_rows = m.transition.index, m.transition.log_probs
    n_ctx = m.metadata.order - 1
    # tag+1 of each context position, oldest first, shaped to broadcast
    # over the state axes: position j's values run along axis j.
    context = [np.zeros((1,) * (n_ctx - j), np.intp) for j in range(n_ctx)]
    cells = np.zeros((1,) * n_ctx)
    steps = []  # per token: lattice, log factors, transition rows, incoming cells
    for word in words:
        log_factors, lattice = runtime.entry(word)
        rows = index[tuple(context)]
        steps.append((lattice, log_factors, rows, cells))
        scores = log_rows.take(rows, axis=0)
        scores += cells[..., None]
        if n_ctx:
            cells = scores.max(axis=0)[..., lattice]
            cells += log_factors
            context = [c[..., None] for c in context[1:]] + [lattice + 1]
        else:
            cells = (scores[lattice] + log_factors).max()
    # A chosen state ends with its new tag; the first maximum shifts in its oldest.
    state = list(np.unravel_index(cells.argmax(), cells.shape))
    tags = []
    for lattice, log_factors, rows, cells in reversed(steps):
        new, at = (state[-1], (slice(None), *state[:-1])) if n_ctx else (slice(None), ())
        scores = log_rows[rows[at], lattice[new]] + cells[at]
        scores += log_factors[new]
        first = scores.argmax()
        tags.append(lattice[new] if n_ctx else lattice[first])
        state = [first, *state][:n_ctx]
    return [m.tag_set.tags[t] for t in reversed(tags)]


def viterbi_tag_scored(m: Model, words: Sequence[str]) -> TagSequenceScore:
    """``viterbi_tag``'s tags with their log score, -inf when every tagging has a zero factor."""
    rt = _DecodeRuntime(m)
    tags = _decode(rt, [words])[0]
    score = _score_indices(m, words, [m.tag_set.index[t] for t in tags], rt)
    return TagSequenceScore(tuple(tags), score)


def tag_corpus(m: Model, sentences: Sequence[Sequence[str]]) -> list[list[str]]:
    """Each sentence's best tags, found independently, with one lexical
    table for the call; narrow sentences are decoded together, position by
    position (``_decode``).  An empty sentence raises, unless a rejected word
    comes before it."""
    return _decode(_DecodeRuntime(m), sentences)


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
    placeholder = (1.0,) + (0.0,) * (_integer(order, "order") - 1)
    base = train_model(train, order=order, policy=policy, root_mode=root_mode,
                       smoothing=SMOOTHING_INTERP, lambdas=placeholder)
    words = heldout.sentence_words()
    total = heldout.num_tokens
    # Each model tag's id in the held-out tag set, -1 where it has none.
    gold_id = {t: heldout.tag_set.index.get(t, -1) for t in base.tag_set.tags}
    table = base.transition
    rf = SmoothedNGramModel(table.order, table.num_tags, table.contexts, table.freqs)

    def objective(lam: tuple[float, ...]) -> float:
        transition = interpolated_ngram_model(rf, InterpolationWeights(tuple(lam)))
        model = Model(base.tag_set, transition, base.lexicon,
                      base.unknown_word_model, base.unigram, base.metadata)
        predicted = np.fromiter(map(gold_id.__getitem__, chain.from_iterable(
            tag_corpus(model, words))), np.int64, count=total)
        return np.count_nonzero(predicted == heldout.tag_ids) / total

    return objective
