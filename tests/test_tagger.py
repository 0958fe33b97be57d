import contextlib
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from succabs.corpus import SynthesisConfig, TagSet, parse_corpus, synthesize_corpus
from succabs.counts import RareWordPolicy, Lexicon, build_suffix_trie
from succabs.errors import ValidationError
import succabs.counts
import succabs.tagger
from succabs.lexicon import UnknownWordModel, build_unknown_word_model, unknown_word_distribution
from succabs.smoothing import (
    ConditionalDistribution,
    SmoothedNGramModel,
    _row_entropies,
    log_probs,
    simplex_grid,
    smooth_step,
    uniform_distribution,
)
from succabs.tagger import (
    Model,
    ModelMetadata,
    NEG_INF,
    _DecodeRuntime,
    _decode,
    _score_indices,
    corpus_digest,
    score_sequence,
    tag_corpus,
    tagging_accuracy_objective,
    train_model,
    viterbi_tag,
    viterbi_tag_scored,
)
from lexical_oracle import (
    LexicalDistribution,
    children,
    known_word_distribution,
    lexical_factors,
    reversed_suffix_path,
    sparse_rows,
    sparse_trie,
)
from test_lexicon import word_ending_at
from transition_oracle import distribution, query, tables_of

# The ways ``_decode`` can be made to run a call: every sentence through
# ``_viterbi`` (at order 2 or more; an order-1 call always goes through
# ``_viterbi_batch``); every sentence through ``_viterbi_batch``, in batches
# as large as allowed, of one sentence each, or of a few; and the default
# routing by cells per token.
ROUTES = (
    {"_BATCH_CROSSOVER": 0},
    {"_BATCH_CROSSOVER": 10**9, "_BATCH_CELLS": 10**12},
    {"_BATCH_CROSSOVER": 10**9, "_BATCH_CELLS": 1},
    {"_BATCH_CROSSOVER": 10**9, "_BATCH_CELLS": 60},
    {},
)


@contextlib.contextmanager
def routed(monkeypatch, route):
    """Decode through one of ``ROUTES`` inside the block."""
    with monkeypatch.context() as patch:
        for name, value in route.items():
            patch.setattr(succabs.tagger, name, value)
        yield


def hand_built_bigram_model():
    """Two tags X, Y with fully specified transition and lexical tables.

    Transition rows: start [.5,.5]; after X [.7,.3]; after Y [.4,.6].
    Lexical counts: w1 -> [9,1], w2 -> [2,8]; uniform tag distribution, so
    the decoder's per-word factor vector is the tag distribution times 2.
    """
    transition = SmoothedNGramModel(
        order=2, num_tags=2, contexts=((), (-1,), (0,), (1,)),
        probs=np.array([uniform_distribution(2).probs, [0.5, 0.5], [0.7, 0.3], [0.4, 0.6]]))
    lexicon = Lexicon(("w1", "w2"), sparse_rows([[9, 1], [2, 8]]))
    empty_trie = sparse_trie(np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
                             np.zeros(1, dtype=np.int64), np.array([-1]))
    unknown = UnknownWordModel(empty_trie,
                               uniform_distribution(2), RareWordPolicy())
    meta = ModelMetadata(order=2, smoothing="sa", root_mode="ele", corpus_digest="0" * 64)
    return Model(TagSet(("X", "Y")), transition, lexicon, unknown,
                 uniform_distribution(2), meta)


class TestScoreSequence:
    def test_two_word_path_products(self):
        m = hand_built_bigram_model()
        # Raw probability products over (transition, tag-given-word) pairs,
        # each word also divided by its uniform 0.5 tag prior.
        cases = {
            ("X", "X"): 0.5 * 0.9 * 0.7 * 0.2,
            ("X", "Y"): 0.5 * 0.9 * 0.3 * 0.8,
            ("Y", "X"): 0.5 * 0.1 * 0.4 * 0.2,
            ("Y", "Y"): 0.5 * 0.1 * 0.6 * 0.8,
        }
        for tags, product in cases.items():
            got = score_sequence(m, ["w1", "w2"], list(tags))
            assert got == pytest.approx(math.log(product * 4), abs=1e-12)

    def test_best_path_is_x_then_y(self):
        m = hand_built_bigram_model()
        best = viterbi_tag_scored(m, ["w1", "w2"])
        assert best.tags == ("X", "Y")
        # 4x the raw 0.108 product because each factor divides by prior 0.5.
        assert best.log_score == pytest.approx(math.log(0.432), abs=1e-12)

    def test_zero_factor_gives_neg_inf(self):
        m = hand_built_bigram_model()
        lexicon = Lexicon(("only",), sparse_rows([[3, 0]]))
        m2 = Model(m.tag_set, m.transition, lexicon, m.unknown_word_model,
                   m.unigram, m.metadata)
        assert score_sequence(m2, ["only"], ["Y"]) == NEG_INF

    def test_length_mismatch_rejected(self):
        m = hand_built_bigram_model()
        with pytest.raises(ValidationError):
            score_sequence(m, ["w1", "w2"], ["X"])

    def test_unknown_tag_symbol_rejected(self):
        m = hand_built_bigram_model()
        with pytest.raises(ValidationError):
            score_sequence(m, ["w1"], ["Z"])

    def test_matches_naive_product_on_trained_model(self):
        corpus = parse_corpus(
            "the\tAT\ncat\tNN\nsat\tVB\n\nthe\tAT\ndog\tNN\nsat\tVB\n\n"
            "a\tAT\ncat\tNN\n\n")
        m = train_model(corpus, order=2)
        rng = np.random.default_rng(77)
        words = ["the", "cat", "sat"]
        for _ in range(50):
            tags = [corpus.tag_set.tags[i]
                    for i in rng.integers(0, 3, size=len(words))]
            product = 1.0
            ctx = (-1,)
            possible = True
            for w, t_sym in zip(words, tags):
                t = corpus.tag_set.index[t_sym]
                trans = query(m.transition, ctx).probs[t]
                lex = known_word_distribution(m.lexicon, w).probs[t]
                if lex == 0.0:
                    possible = False
                    break
                product *= trans * (lex / m.unigram.probs[t])
                ctx = (t,)
            got = score_sequence(m, words, tags)
            if not possible:
                assert got == NEG_INF
            else:
                assert got == pytest.approx(math.log(product), abs=1e-9)


class TestViterbi:
    def test_empty_sentence_rejected(self):
        with pytest.raises(ValidationError):
            viterbi_tag(hand_built_bigram_model(), [])

    def test_single_unambiguous_word(self):
        corpus = parse_corpus("the\tAT\nthe\tAT\ncat\tNN\n\n")
        m = train_model(corpus, order=2)
        assert viterbi_tag(m, ["the"]) == ["AT"]
        assert viterbi_tag(m, ["cat"]) == ["NN"]

    def test_all_uniform_ties_resolve_to_first_tag(self):
        transition = SmoothedNGramModel(order=2, num_tags=2, contexts=((), (-1,), (0,), (1,)),
                                        probs=np.array([uniform_distribution(2).probs] * 4))
        lexicon = Lexicon(("w",), sparse_rows([[5, 5]]))
        unknown = UnknownWordModel(
            sparse_trie(np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
                        np.zeros(1, dtype=np.int64), np.array([-1])),
            uniform_distribution(2), RareWordPolicy())
        meta = ModelMetadata(order=2, smoothing="sa", root_mode="ele", corpus_digest="0" * 64)
        m = Model(TagSet(("P", "Q")), transition, lexicon, unknown,
                  uniform_distribution(2), meta)
        assert viterbi_tag(m, ["w", "w", "w"]) == ["P", "P", "P"]

    def test_closed_lattice_respects_observed_tags(self):
        # "w1" was seen under both tags but "sure" only under X, so the
        # decoder never assigns Y to "sure" even when transitions prefer it.
        m = hand_built_bigram_model()
        lexicon = Lexicon(("sure", "w1"), sparse_rows([[1, 0], [9, 1]]))
        m2 = Model(m.tag_set, m.transition, lexicon, m.unknown_word_model,
                   m.unigram, m.metadata)
        assert viterbi_tag(m2, ["w1", "sure"])[1] == "X"

    def test_unknown_word_decoded_over_full_tag_set(self):
        corpus = parse_corpus(
            "\n".join(["the\tAT"] * 12 + ["cat\tNN", "mat\tNN"]) + "\n\n")
        m = train_model(corpus, order=2)
        tags = viterbi_tag(m, ["the", "zat"])
        assert tags[0] == "AT"
        assert tags[1] == "NN"  # suffix pulls the novel word toward NN

    def test_factor_scale_invariance_of_argmax(self, monkeypatch):
        m = hand_built_bigram_model()
        words = ["w1", "w2", "w1"]
        plain = viterbi_tag(m, words)
        for route in ROUTES:
            with routed(monkeypatch, route):
                scaled = _DecodeRuntime(m)
                scaled.prime(["w1"])
                log_factors, _ = scaled.entry("w1")
                log_factors += math.log(7.3)  # a view into the runtime's ``lex``
                assert _decode(scaled, [words]) == [plain], route

    def test_scored_variant_is_consistent(self):
        m = hand_built_bigram_model()
        result = viterbi_tag_scored(m, ["w2", "w2", "w1"])
        assert result.tags == tuple(viterbi_tag(m, ["w2", "w2", "w1"]))
        assert result.log_score == pytest.approx(
            score_sequence(m, ["w2", "w2", "w1"], list(result.tags)), abs=1e-12)


def random_training_corpus(rng, unseen_tags=()):
    num_tags = int(rng.integers(2, 5))
    tags = tuple(f"T{i}" for i in range(num_tags))
    vocab = [f"w{i}" for i in range(int(rng.integers(6, 11)))]
    blocks = []
    total = 0
    target = int(rng.integers(30, 81))
    while total < target:
        n = int(rng.integers(1, 7))
        sent = [f"{vocab[int(rng.integers(len(vocab)))]}\tT{int(rng.integers(num_tags))}"
                for _ in range(n)]
        blocks.append("\n".join(sent))
        total += n
    return parse_corpus("\n\n".join(blocks) + "\n", declared_tags=unseen_tags + tags)


def random_test_sentence(rng, corpus, novel=0.2):
    """1-5 words, each unknown with chance ``novel``, else a training word."""
    vocab = sorted({tok.word for sent in corpus.sentences for tok in sent})
    words = []
    for j in range(int(rng.integers(1, 6))):
        if rng.random() < novel:
            words.append(f"novel{j}")
        else:
            words.append(vocab[int(rng.integers(len(vocab)))])
    return words


def narrow_training_corpus(rng, unseen_tags=()):
    """A corpus in which each word carries its own tag 85% of the time."""
    num_tags = int(rng.integers(2, 6))
    vocab = [f"w{i}" for i in range(int(rng.integers(8, 15)))]
    home = rng.integers(num_tags, size=len(vocab))
    blocks = []
    for _ in range(int(rng.integers(12, 25))):
        lines = []
        for _ in range(int(rng.integers(1, 8))):
            w = int(rng.integers(len(vocab)))
            t = home[w] if rng.random() < 0.85 else rng.integers(num_tags)
            lines.append(f"{vocab[w]}\tT{t}")
        blocks.append("\n".join(lines))
    tags = unseen_tags + tuple(f"T{i}" for i in range(num_tags))
    return parse_corpus("\n\n".join(blocks) + "\n", declared_tags=tags)


def narrow_test_call(rng, corpus, novel=0.0):
    """Sentences of 1 to 30 tokens, one of each extreme, over the training
    words with repeats, some holding a run of one to three unknown words;
    with ``novel``, any word is also unknown with that chance."""
    vocab = sorted(corpus.vocab)
    lengths = [1, 30] + rng.integers(1, 31, size=int(rng.integers(2, 7))).tolist()
    sentences = []
    for n in lengths:
        sent = [vocab[int(rng.integers(len(vocab)))] for _ in range(n)]
        if novel:
            sent = [f"novel{int(rng.integers(3))}" if rng.random() < novel else w for w in sent]
        if rng.random() < 0.6:
            at = int(rng.integers(n))
            run = min(int(rng.integers(1, 4)), n - at)
            sent[at:at + run] = [f"novel{int(rng.integers(3))}" for _ in range(run)]
        sentences.append(sent)
    return sentences


def enumerate_best_score(m, words):
    lattices = []
    for w in words:
        dist = known_word_distribution(m.lexicon, w)
        if dist is None or not dist.support:
            lattices.append(tuple(range(len(m.tag_set))))
        else:
            lattices.append(tuple(sorted(dist.support)))
    best = NEG_INF
    for combo in itertools.product(*lattices):
        tags = [m.tag_set.tags[t] for t in combo]
        best = max(best, score_sequence(m, words, tags))
    return best


class TestDecoderAgainstEnumeration:
    def test_dp_score_equals_brute_force(self):
        rng = np.random.default_rng(2024)
        smoothing_cycle = ("sa", "ele", "interp")
        for i in range(60):
            corpus = random_training_corpus(rng)
            order = int(rng.integers(1, 4))
            smoothing = smoothing_cycle[i % 3]
            lambdas = None
            if smoothing == "interp":
                points = list(simplex_grid(order, 0.25))
                lambdas = points[int(rng.integers(len(points)))]
            m = train_model(corpus, order=order, smoothing=smoothing,
                            lambdas=lambdas)
            for _ in range(3):
                words = random_test_sentence(rng, corpus)
                got = viterbi_tag_scored(m, words)
                expect = enumerate_best_score(m, words)
                if expect == NEG_INF:
                    assert got.log_score == NEG_INF
                else:
                    assert got.log_score == pytest.approx(expect, abs=1e-9)

    def test_declared_but_unseen_tag_is_impossible(self):
        # Under a relative-frequency root a tag never seen in training has
        # P(t) = 0, and so P(t | w) = 0 for every word: its lexical factor is
        # zero, not 0/0.  Half-count transitions give it positive mass, so
        # only the lexical factor keeps it out of the best path.  Every
        # training word counts as rare, so the unknown-word root is defined.
        rng = np.random.default_rng(5)
        for _ in range(20):
            corpus = random_training_corpus(rng, unseen_tags=("NEVER",))
            m = train_model(corpus, order=int(rng.integers(1, 4)), smoothing="ele",
                            root_mode="rf", policy=RareWordPolicy(frequency_threshold=100))
            for _ in range(3):
                words = random_test_sentence(rng, corpus)
                got = viterbi_tag_scored(m, words)
                assert "NEVER" not in got.tags
                assert got.log_score == pytest.approx(enumerate_best_score(m, words),
                                                      abs=1e-9)


def reference_lexical(m, word):
    """The per-word lexical path the decoder's batched table replaced: the
    factor vector P(t|w)/P(t) over every tag, and the lattice, a known word's
    lexicon tags or every tag for an unknown word."""
    dist = known_word_distribution(m.lexicon, word)
    if dist is None:
        dist = LexicalDistribution(unknown_word_distribution(m.unknown_word_model, [word])[0],
                                   frozenset())
    factors = lexical_factors(dist, m.unigram)
    if dist.support:
        return factors, tuple(sorted(dist.support))
    return factors, tuple(range(len(m.tag_set)))


def reference_viterbi_tag(m, words):
    """The scalar dict-based decoder the array one replaced, kept verbatim as
    the reference: transitions come from ``distribution()`` one context at a
    time, and states are visited in sorted order."""
    tables = tables_of(m.transition)
    n_ctx = m.metadata.order - 1
    start = (-1,) * n_ctx
    cells = {start: 0.0}
    bp = []
    for word in words:
        factors, lattice = reference_lexical(m, word)
        step = {}
        back = {}
        for state in sorted(cells):
            base = cells[state]
            row = distribution(tables, m.transition.order, m.transition.num_tags, state).probs
            for t in lattice:
                trans = float(row[t])
                factor = float(factors[t])
                if trans <= 0.0 or factor <= 0.0:
                    score = NEG_INF
                else:
                    score = base + math.log(trans) + math.log(factor)
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


def reference_score(m, words, tags):
    """Path score summed as the scalar decoder's scorer did, from ``distribution()``."""
    tables = tables_of(m.transition)
    n_ctx = m.metadata.order - 1
    context = (-1,) * n_ctx
    total = 0.0
    for word, t in zip(words, (m.tag_set.index[tag] for tag in tags)):
        trans = float(distribution(tables, m.transition.order, m.transition.num_tags,
                                   context).probs[t])
        factor = float(reference_lexical(m, word)[0][t])
        if trans <= 0.0 or factor <= 0.0:
            return NEG_INF
        total += math.log(trans) + math.log(factor)
        if n_ctx:
            context = (context + (t,))[-n_ctx:]
    return total


def holed_unknown_lattices(m, words):
    """How many of the tokens are unknown words whose lattice, every tag,
    holds a -inf cell: a tag with P(t | w) = 0, whose factor is zero."""
    unknown = [w for w in words if w not in m.lexicon]
    rows = unknown_word_distribution(m.unknown_word_model, unknown)
    return int((rows.min(axis=1, initial=1.0) == 0.0).sum())


class TestDecoderAgainstScalarReference:
    def test_random_models_decode_identically(self, monkeypatch):
        # Orders 1-4, every estimator, both root modes (rf with a declared
        # tag never seen in training), sentences that repeat words so
        # equal-scoring paths occur, and sentences in which each word is
        # unknown at even odds: an unknown word's lattice holds every tag,
        # with NEVER's cell at -inf under rf.  Tags and scores must match
        # exactly, through every route of the decoder: the tie-break
        # depends on both.
        rng = np.random.default_rng(31)
        holed = 0
        for i in range(320):
            root_mode = ("ele", "rf")[i % 2]
            unseen = ("NEVER",) if root_mode == "rf" else ()
            corpus = random_training_corpus(rng, unseen_tags=unseen)
            order = 1 + (i // 2) % 4
            smoothing = ("sa", "ele", "interp")[(i // 8) % 3]
            lambdas = None
            if smoothing == "interp":
                points = list(simplex_grid(order, 0.25))
                lambdas = points[int(rng.integers(len(points)))]
            m = train_model(corpus, order=order, smoothing=smoothing, lambdas=lambdas,
                            root_mode=root_mode,
                            policy=RareWordPolicy(frequency_threshold=100))
            for j in range(4):
                words = random_test_sentence(rng, corpus, 0.5 if j >= 2 else 0.2)
                if j % 2:
                    words = words + words[::-1]
                expect = reference_viterbi_tag(m, words)
                score = reference_score(m, words, expect)
                holed += holed_unknown_lattices(m, words)
                for route in ROUTES:
                    with routed(monkeypatch, route):
                        got = viterbi_tag_scored(m, words)
                    assert list(got.tags) == expect, (i, words, route)
                    assert got.log_score == score, (i, words, route)
        assert holed > 0  # unknown-word lattices with a -inf cell


WIDE_TAGS = tuple(f"T{i}" for i in range(32))


def all_tied_corpus():
    """Single-token sentences: the words w0-w2 each once under every tag,
    and n<t> once under tag t alone.  Every transition row is uniform, every
    tag equally frequent and each w word's factors equal, so all paths over
    the same lattices tie exactly."""
    lines = [f"w{i}\t{t}" for i in range(3) for t in WIDE_TAGS]
    lines += [f"n{i}\t{t}" for i, t in enumerate(WIDE_TAGS)]
    return parse_corpus("\n\n".join(lines) + "\n", declared_tags=WIDE_TAGS)


def mirrored_corpus(rng, unseen_tags=()):
    """Random sentences over wide words w0-w3 and narrow words m<i> (tags
    2i and 2i+1), each also present with every tag index t replaced by
    t ^ 1.  Half-count estimates are elementwise, and the rare m words'
    suffix counts are symmetric too, so the models are symmetric under that
    swap, for unknown words as well: a path and its swapped twin tie
    exactly.  ``unseen_tags``, declared first, must come in pairs."""
    blocks = []
    for _ in range(60):
        tags = rng.integers(len(WIDE_TAGS), size=int(rng.integers(1, 7)))
        words = [f"m{t // 2}" if rng.random() < 0.3 else f"w{int(rng.integers(4))}"
                 for t in tags.tolist()]
        for swap in (0, 1):
            blocks.append("\n".join(f"{w}\tT{t ^ swap}" for w, t in zip(words, tags.tolist())))
    return parse_corpus("\n\n".join(blocks) + "\n", declared_tags=unseen_tags + WIDE_TAGS)


def wide_sentences(rng, order, narrow, novel=0.0):
    """Sentences of 1-6 words, mostly wide; at order 4 no three adjacent
    words are wide, which keeps the scalar reference quick.  With ``novel``,
    that share of the wide words are unknown: a narrow word after an "x",
    so that they meet the narrow words' trie nodes."""
    sentences = []
    for _ in range(3):
        sent = []
        for _ in range(int(rng.integers(1, 7))):
            run = len(sent) >= 2 and all(w[0] in "wx" for w in sent[-2:])
            if rng.random() < 0.25 or (order == 4 and run):
                sent.append(narrow[int(rng.integers(len(narrow)))])
            elif novel and rng.random() < novel:
                sent.append("x" + narrow[int(rng.integers(len(narrow)))])
            else:
                sent.append(f"w{int(rng.integers(3))}")
        sentences.append(sent)
    return sentences


class TestWideLatticeTies:
    # Through ``_viterbi`` alone, lattices of up to 32 tags, where exact
    # ties decide the tags: the first maximum over the oldest tag at each
    # step and the first final state in oldest-first C order must win, as
    # in the scalar reference.
    def assert_decodes_like_reference(self, monkeypatch, m, sentences):
        with routed(monkeypatch, ROUTES[0]):
            for words in sentences:
                expect = reference_viterbi_tag(m, words)
                got = viterbi_tag_scored(m, words)
                assert list(got.tags) == expect, words
                assert got.log_score == reference_score(m, words, expect), words

    def test_all_paths_tied(self, monkeypatch):
        rng = np.random.default_rng(7)
        corpus = all_tied_corpus()
        narrow = [f"n{i}" for i in range(len(WIDE_TAGS))]
        for order in (2, 3, 4):
            m = train_model(corpus, order=order)
            sentences = wide_sentences(rng, order, narrow)
            self.assert_decodes_like_reference(monkeypatch, m, sentences)
            for words in sentences:  # the largest tags tie with the smallest
                last = [WIDE_TAGS[-1] if w[0] == "w" else WIDE_TAGS[int(w[1:])] for w in words]
                first = viterbi_tag(m, words)
                assert first == [WIDE_TAGS[0] if w[0] == "w" else t for w, t in zip(words, last)]
                assert score_sequence(m, words, last) == score_sequence(m, words, first)

    def test_swapped_twin_paths_tied(self, monkeypatch):
        # Under rf, a declared pair of unseen tags puts -inf cells in each
        # unknown word's lattice.
        rng = np.random.default_rng(11)
        holed = 0
        for i in range(6):
            root_mode = ("ele", "rf")[i % 2]
            corpus = mirrored_corpus(rng, ("N0", "N1") if root_mode == "rf" else ())
            narrow = sorted(w for w in corpus.vocab if w.startswith("m"))
            order = 2 + i % 3
            m = train_model(corpus, order=order, smoothing="ele", root_mode=root_mode)
            # Unknown words are wide too, so order 4 keeps to known words.
            for novel in (0.0, 0.7) if order < 4 else (0.0,):
                sentences = wide_sentences(rng, order, narrow, novel)
                self.assert_decodes_like_reference(monkeypatch, m, sentences)
                for words in sentences:  # the best path's swapped twin ties with it
                    tags = viterbi_tag(m, words)
                    twin = [m.tag_set.tags[m.tag_set.index[t] ^ 1] for t in tags]
                    assert score_sequence(m, words, twin) == score_sequence(m, words, tags)
                    holed += holed_unknown_lattices(m, words)
        assert holed > 0  # unknown-word lattices with a -inf cell


class TestRoundingCollision:
    def test_first_predecessor_wins_after_the_lexical_term(self, monkeypatch):
        # The first word opens X and Y at scores x1 = 1 < x2 = 1 + 2**-52,
        # every later transition is 0, and the last word's lexical term 3
        # rounds both to 4.0.  Scoring each (state, tag) before its max
        # ties them, so the first, X, must be the oldest tag on every
        # route; a back-pointer taken before the lexical term picks Y.
        base = hand_built_bigram_model()
        for order in (2, 3, 4):
            n_ctx = order - 1
            transition = SmoothedNGramModel(order=order, num_tags=2,
                                            contexts=((), (-1,) * n_ctx),
                                            probs=np.full((2, 2), 0.5))
            transition.log_probs[:] = 0.0
            transition.log_probs[1] = [1.0, 1.0 + 2.0 ** -52]  # after the boundary alone
            m = dataclasses.replace(base, transition=transition,
                                    metadata=dataclasses.replace(base.metadata, order=order))
            words = ["w1"] * n_ctx + ["w2"]
            for route in ROUTES:
                with routed(monkeypatch, route):
                    rt = _DecodeRuntime(m)
                    rt.prime(words)
                    for word, lex in (("w1", 0.0), ("w2", 3.0)):
                        rt.entry(word)[0][:] = lex  # views into the runtime's ``lex``
                    assert _decode(rt, [words]) == [["X"] * order], (order, route)
                    first = [0] * order
                    assert _score_indices(m, words[:-1], first[:-1], rt) == 1.0
                    assert _score_indices(m, words[:-1], [1] + first[2:], rt) == 1.0 + 2.0 ** -52
                    assert _score_indices(m, words, first, rt) == 4.0
                    assert _score_indices(m, words, [1] + first[1:], rt) == 4.0

    def test_collision_among_sentences_of_other_widths(self, monkeypatch):
        # The colliding sentence, its first word opening X below Y and its
        # first "w2" rounding both to 4.0, is decoded in one call with a
        # longer and a shorter sentence, one of 1-wide lattices ("z", all
        # X) and one of K-wide lattices ("u", all Y), either way round,
        # which share its batch steps and shift its states and runs, or
        # theirs, in them.  Every order, order 1 (no state, the lexical
        # term added before the max) included, must give each sentence its
        # own tags on every route; a back-pointer taken before the lexical
        # term, or a run read at another sentence's offset, does not.
        base = hand_built_bigram_model()
        lexicon = Lexicon(("w1", "w2", "z"), sparse_rows([[9, 1], [2, 8], [5, 0]]))
        for order in (1, 2, 3, 4):
            n_ctx = order - 1
            contexts = ((),) if order == 1 else ((), (-1,) * n_ctx)
            transition = SmoothedNGramModel(order=order, num_tags=2, contexts=contexts,
                                            probs=np.full((len(contexts), 2), 0.5))
            transition.log_probs[:] = 0.0
            transition.log_probs[len(contexts) - 1] = [1.0, 1.0 + 2.0 ** -52]
            m = dataclasses.replace(base, transition=transition, lexicon=lexicon,
                                    metadata=dataclasses.replace(base.metadata, order=order))
            collide = ["w1"] * n_ctx + ["w2", "w2"]
            best = {"z": "X", "u": "Y"}
            for longer, shorter in (("z", "u"), ("u", "z")):
                sentences = [[longer] * (n_ctx + 4), collide, [shorter] * (n_ctx + 1)]
                expect = [[best[longer]] * (n_ctx + 4), ["X"] * (n_ctx + 2),
                          [best[shorter]] * (n_ctx + 1)]
                for route in ROUTES:
                    with routed(monkeypatch, route):
                        rt = _DecodeRuntime(m)
                        rt.prime(["w1", *itertools.chain(*sentences)])
                        for word, lex in (("w1", 0.0), ("w2", 3.0), ("u", [0.0, 0.25]),
                                          ("z", 0.5)):
                            rt.entry(word)[0][:] = lex
                        assert _decode(rt, sentences) == expect, (order, longer, route)
                        tied = [1] + [0] * (n_ctx + 1)
                        assert (_score_indices(m, collide, tied, rt)
                                == _score_indices(m, collide, [0] * (n_ctx + 2), rt))


def lettered_corpus(rng, num_tags, unseen_tags=()):
    """Words of 1-6 letters over a small alphabet with a non-BMP letter, so
    unknown words made from the same letters share trie nodes with them."""
    alphabet = ["a", "b", "c", "\U0001d51e"]
    vocab = ["".join(rng.choice(alphabet, size=int(rng.integers(1, 7))))
             for _ in range(int(rng.integers(6, 15)))]
    blocks = []
    for _ in range(int(rng.integers(6, 16))):
        blocks.append("\n".join(f"{vocab[int(rng.integers(len(vocab)))]}\t"
                                f"T{int(rng.integers(num_tags))}"
                                for _ in range(int(rng.integers(1, 7)))))
    tags = unseen_tags + tuple(f"T{i}" for i in range(num_tags))
    return parse_corpus("\n\n".join(blocks) + "\n", declared_tags=tags), alphabet


def lettered_sentences(rng, corpus, alphabet, max_suffix):
    """Sentences mixing training words, new words over the same letters,
    words longer than ``max_suffix`` and repeats of earlier words."""
    vocab = sorted(corpus.vocab)
    sentences = []
    for _ in range(int(rng.integers(1, 6))):
        sent = []
        for _ in range(int(rng.integers(1, 7))):
            kind = rng.random()
            if kind < 0.4:
                sent.append(vocab[int(rng.integers(len(vocab)))])
            elif kind < 0.7:
                sent.append("".join(rng.choice(alphabet, size=int(rng.integers(1, 4)))))
            elif kind < 0.85:
                sent.append(vocab[int(rng.integers(len(vocab)))] * (max_suffix + 1))
            else:
                pool = [w for s in sentences for w in s] + sent
                sent.append(pool[int(rng.integers(len(pool)))] if pool else "a")
        sentences.append(sent)
    return sentences


def smooth_step_walk(m, words, folds=None):
    """``unknown_word_distribution`` as it folded before: the public,
    checking ``smooth_step`` per matched trie node of each word in turn,
    with ``folds`` mapping each node folded so far to its distribution."""
    if folds is None:
        folds = {}
    edges = children(m.trie)
    rows = []
    for word in words:
        if not word:
            raise ValidationError("cannot estimate a distribution for an empty word")
        dist, node = m.root, 0
        for letter in reversed_suffix_path(word, m.policy.max_suffix_length):
            node = edges.get((node, letter))
            if node is None:
                break
            if node not in folds:
                folds[node] = smooth_step(m.trie.counts.rows([node])[0], dist)
            dist = folds[node]
        rows.append(dist.probs)
    return np.array(rows).reshape(len(words), m.root.dim)


class TestUnknownWordFolds:
    def test_folds_and_tags_equal_the_smooth_step_chain(self, monkeypatch):
        # One call folds every node that the words match, a depth at a time;
        # each word's row, and each node's fold and entropy, must equal the
        # per-node chain's bit for bit, in both root modes.
        rng = np.random.default_rng(4242)
        folded = 0
        for i in range(60):
            corpus, alphabet = lettered_corpus(rng, int(rng.integers(2, 6)))
            max_suffix = int(rng.integers(1, 5))
            m = train_model(corpus, order=int(rng.integers(1, 4)),
                            root_mode=("ele", "rf")[i % 2],
                            policy=RareWordPolicy(frequency_threshold=int(rng.integers(10, 100)),
                                                  max_suffix_length=max_suffix))
            sentences = lettered_sentences(rng, corpus, alphabet, max_suffix)
            words = [w for s in sentences for w in s] + [w + "a" for w in corpus.vocab]
            unknown = m.unknown_word_model
            folds = {}
            expect = smooth_step_walk(unknown, words, folds)
            got = unknown_word_distribution(unknown, words)
            assert not got.flags.writeable
            for word, got_row, expect_row in zip(words, got.tolist(), expect.tolist()):
                assert got_row == expect_row, (i, word)
            nodes = sorted(folds)
            at_nodes = unknown_word_distribution(
                unknown, [word_ending_at(unknown.trie, node) for node in nodes])
            assert at_nodes.tolist() == [folds[node].probs.tolist() for node in nodes]
            assert _row_entropies(at_nodes).tolist() == [folds[node].entropy_nats
                                                         for node in nodes]
            folded += len(folds)
            tagged = tag_corpus(m, sentences)
            with monkeypatch.context() as patch:
                patch.setattr(succabs.tagger, "unknown_word_distribution", smooth_step_walk)
                assert tagged == tag_corpus(m, sentences)
        assert folded > 100


    def test_lone_surrogates_walk_as_letters(self):
        # An API word may hold a lone surrogate, which no corpus file can:
        # it walks the trie as any letter does, and the sentence decodes.
        corpus = parse_corpus("\n".join(["the\tAT"] * 12 + ["caq\tNN", "saq\tVB"]) + "\n\n")
        m = train_model(corpus, order=2)
        words = ["q\ud800", "\ud800q", "\udfffaq", "\ud800"]
        got = unknown_word_distribution(m.unknown_word_model, words)
        assert got.tolist() == smooth_step_walk(m.unknown_word_model, words).tolist()
        assert got[1].tolist() != got[0].tolist() == m.unknown_word_model.root.probs.tolist()
        sentences = [["the", word] for word in words]
        assert tag_corpus(m, sentences) == [reference_viterbi_tag(m, s) for s in sentences]
        assert tag_corpus(m, [["q\ud800"], ["the", "\ud800q"], ["\udfffaq"]]) == [
            ["AT"], ["AT", "NN"], ["NN"]]
        # A trie can hold one too, when a lexicon is made without a corpus.
        policy = RareWordPolicy()
        lex = Lexicon(("a\ud800", "b\ud800"), sparse_rows([[2, 0], [0, 1]]))
        unknown = build_unknown_word_model(build_suffix_trie(lex, policy), policy)
        words = ["x\ud800", "a\ud800", "\ud800", "\udfff"]
        got = unknown_word_distribution(unknown, words)
        assert got.tolist() == smooth_step_walk(unknown, words).tolist()
        assert len(set(map(tuple, got.tolist()))) == 3  # the root, the surrogate, "a\ud800"


class TestLexicalTable:
    def test_table_equals_the_per_word_path(self, monkeypatch):
        # Each word's log factors and lattice, filled for a whole call at
        # once, must equal the per-word path's bit for bit, whether the
        # words fill one factor matrix or several.  Under rf, a declared
        # tag never seen in training is a -inf cell of every unknown word.
        rng = np.random.default_rng(909)
        shared = holed = 0
        for i in range(80):
            monkeypatch.setattr(succabs.tagger, "_PRIME_BLOCK", (2048, 1, 3)[i % 3])
            corpus, alphabet = lettered_corpus(rng, int(rng.integers(2, 6)),
                                               ("NEVER",) if i % 2 else ())
            max_suffix = int(rng.integers(1, 5))
            m = train_model(corpus, order=int(rng.integers(1, 4)),
                            root_mode=("ele", "rf")[i % 2],
                            policy=RareWordPolicy(frequency_threshold=int(rng.integers(4, 12)),
                                                  max_suffix_length=max_suffix))
            sentences = lettered_sentences(rng, corpus, alphabet, max_suffix)
            words = [w for s in sentences for w in s]
            edges = children(m.unknown_word_model.trie)
            firsts = [edges.get((0, w[-1])) for w in set(words) if w not in m.lexicon]
            firsts = [node for node in firsts if node is not None]
            shared += len(firsts) - len(set(firsts))
            rt = _DecodeRuntime(m)
            rt.prime(words)
            assert set(rt.ids) == set(words)
            for word in words:
                factors, lattice = reference_lexical(m, word)
                got_logs, got_lattice = rt.entry(word)
                assert got_lattice.tolist() == list(lattice), (i, word)
                expect = log_probs(factors[list(lattice)])
                assert np.array_equal(got_logs, expect), (i, word)
            holed += holed_unknown_lattices(m, words)
            assert tag_corpus(m, sentences) == [reference_viterbi_tag(m, s) for s in sentences]
        assert shared > 0  # some unknown words met on a trie node
        assert holed > 0  # unknown-word lattices with a -inf cell

    def test_zero_unigram_rejection_follows_token_order(self, monkeypatch):
        # Unigram zeros under tags that words carry: the call raises the
        # per-word path's error for the first such word in token order, or
        # the empty-sentence error if an empty sentence comes first.
        rng = np.random.default_rng(44)
        messages = set()
        for i in range(60):
            monkeypatch.setattr(succabs.tagger, "_PRIME_BLOCK", (2048, 2)[i % 2])
            num_tags = int(rng.integers(3, 6))
            corpus, alphabet = lettered_corpus(rng, num_tags, unseen_tags=("NEVER",))
            m = train_model(corpus, order=2, root_mode="rf",
                            policy=RareWordPolicy(frequency_threshold=100, max_suffix_length=3))
            probs = m.unigram.probs.copy()
            probs[rng.choice(np.arange(1, num_tags + 1), size=2, replace=False)] = 0.0
            m = dataclasses.replace(
                m, unigram=ConditionalDistribution.from_probs(probs / probs.sum()))
            sentences = lettered_sentences(rng, corpus, alphabet, 3)
            if rng.random() < 0.3:
                sentences.insert(int(rng.integers(len(sentences) + 1)), [])
            if rng.random() < 0.3:  # an empty word, which the suffix walk rejects
                sent = sentences[int(rng.integers(len(sentences)))]
                sent.insert(int(rng.integers(len(sent) + 1)), "")
            expect = None
            for sent in sentences:
                if not sent:
                    expect = "cannot decode an empty sentence"
                for word in sent:
                    try:
                        reference_lexical(m, word)
                    except ValidationError as bad:
                        expect = str(bad)
                        break
                if expect is not None:
                    break
            if expect is None:
                tag_corpus(m, sentences)
                continue
            messages.add(expect)
            with pytest.raises(ValidationError) as raised:
                tag_corpus(m, sentences)
            assert str(raised.value) == expect
        assert len(messages) >= 4  # the first offending word decides the message

    def test_unknown_words_estimated_once_per_call(self, monkeypatch):
        # perfbench times suffix estimation through this name on
        # succabs.tagger, and each call must build its caches afresh.
        corpus = parse_corpus("\n".join(["the\tAT"] * 12 + ["cat\tNN", "mat\tNN"]) + "\n\n")
        m = train_model(corpus, order=2)
        calls = []
        real = succabs.tagger.unknown_word_distribution

        def counting(model, words):
            calls.append(list(words))
            return real(model, words)

        monkeypatch.setattr(succabs.tagger, "unknown_word_distribution", counting)
        sentences = [["the", "zat", "zat"], ["qat", "the", "zat"], ["qat"]]
        first = tag_corpus(m, sentences)
        assert calls == [["zat", "qat"]]
        assert tag_corpus(m, sentences) == first
        assert calls == [["zat", "qat"]] * 2


class TestTagCorpus:
    def test_matches_per_sentence_decoding(self):
        corpus = parse_corpus(
            "the\tAT\ncat\tNN\n\nthe\tAT\ndog\tNN\nsat\tVB\n\nsat\tVB\n\n")
        m = train_model(corpus, order=3)
        sentences = [["the", "cat"], ["sat"], ["the", "dog", "sat"]]
        batch = tag_corpus(m, sentences)
        assert batch == [viterbi_tag(m, s) for s in sentences]

    def test_sentences_from_a_generator(self):
        # The sentences are read once: priming must not use them up.
        corpus = parse_corpus("the\tAT\ncat\tNN\n\nthe\tAT\ndog\tNN\nsat\tVB\n\n")
        sentences = [["the", "cat"], ["sat"], ["the", "dog", "sat", "zzz"]]
        for order in (1, 3):
            m = train_model(corpus, order=order)
            assert tag_corpus(m, (s for s in sentences)) == tag_corpus(m, sentences)
            assert tag_corpus(m, iter([])) == []
            with pytest.raises(ValidationError, match="not strings"):
                tag_corpus(m, (s for s in ["the cat"]))

    def test_sentence_order_does_not_matter(self):
        corpus = parse_corpus(
            "the\tAT\ncat\tNN\n\nthe\tAT\ndog\tNN\nsat\tVB\n\nsat\tVB\n\n")
        m = train_model(corpus, order=2)
        sentences = [["the", "cat"], ["sat", "sat"], ["dog"]]
        forward = tag_corpus(m, sentences)
        backward = tag_corpus(m, sentences[::-1])
        assert forward == backward[::-1]

    def test_random_calls_match_the_scalar_reference(self, monkeypatch):
        # Calls of sentences 1-30 tokens long, over words mostly seen under
        # one tag, so known words' lattices are narrow, with runs of adjacent
        # unknown words and repeated words (ties); then a call in which any
        # word may be unknown, so wide lattices, every tag with NEVER's cell
        # at -inf under rf, are often adjacent.  Orders 1-4, every
        # estimator, both root modes; every route of the decoder, in the
        # given and in a shuffled sentence order.  Some sentences score -inf
        # on every tagging, so the tie-break among -inf paths is pinned too.
        rng = np.random.default_rng(606)
        dead = holed = 0
        for i in range(48):
            root_mode = ("ele", "rf")[i % 2]
            corpus = narrow_training_corpus(rng, ("NEVER",) if root_mode == "rf" else ())
            order = 1 + (i // 2) % 4
            smoothing = ("sa", "ele", "interp")[(i // 8) % 3]
            lambdas = None
            if smoothing == "interp":
                points = list(simplex_grid(order, 0.25))
                lambdas = points[int(rng.integers(len(points)))]
            m = train_model(corpus, order=order, smoothing=smoothing, lambdas=lambdas,
                            root_mode=root_mode, policy=RareWordPolicy(frequency_threshold=100))
            for novel in (0.0, 0.3):
                sentences = narrow_test_call(rng, corpus, novel)
                shuffle = rng.permutation(len(sentences)).tolist()
                expect = [reference_viterbi_tag(m, s) for s in sentences]
                holed += sum(holed_unknown_lattices(m, s) for s in sentences)
                for route in ROUTES:
                    with routed(monkeypatch, route):
                        assert tag_corpus(m, sentences) == expect, (i, route)
                        assert (tag_corpus(m, [sentences[j] for j in shuffle])
                                == [expect[j] for j in shuffle]), (i, route)
                for words, tags in zip(sentences, expect):
                    if reference_score(m, words, tags) == NEG_INF:
                        dead += 1
                        assert viterbi_tag_scored(m, words).log_score == NEG_INF
        assert dead > 0  # sentences whose every tagging scores -inf
        assert holed > 0  # unknown-word lattices with a -inf cell

    def test_routing_by_cells_per_token(self, monkeypatch):
        # A sentence of 1,024 or more cells per token goes to ``_viterbi``;
        # the others are batched longest first, as many as fit in
        # ``_BATCH_CELLS`` and at least one.
        tags = [f"T{i}" for i in range(12)]
        corpus = parse_corpus("".join(f"k{i}\t{t}\n" + ("\n" if i % 4 == 3 else "")
                                      for i, t in enumerate(tags)))
        m = train_model(corpus, order=3)
        calls = []
        single, batch = succabs.tagger._viterbi, succabs.tagger._viterbi_batch
        monkeypatch.setattr(succabs.tagger, "_viterbi",
                            lambda rt, words: calls.append(list(words)) or single(rt, words))
        monkeypatch.setattr(succabs.tagger, "_viterbi_batch",
                            lambda rt, n, tokens: calls.append(n.tolist()) or batch(rt, n, tokens))
        monkeypatch.setattr(succabs.tagger, "_BATCH_CELLS", 24)
        wide = [f"u{i}" for i in range(10)]  # 12, 144, then 1,728 cells a token
        narrow = [["k0", "k5", "k9", "k2"][:n] * 3 for n in (4, 4, 4, 4, 1)]  # 1 a token
        sentences = [narrow[0], wide, ["k1"] * 30, *narrow[1:]]  # 30 cells: a batch alone
        got = tag_corpus(m, sentences)
        assert calls == [wide, [30], [12, 12], [12, 12], [3]]
        with routed(monkeypatch, ROUTES[0]):
            assert got == tag_corpus(m, sentences)

    def test_order_one_never_reaches_viterbi(self, monkeypatch):
        # At order 1 a sentence's cells per token are its lattice widths, so
        # every sentence goes to ``_viterbi_batch``, even with a crossover of 0.
        corpus = parse_corpus("".join(f"k{i}\tT{i % 5}\n" for i in range(20)) + "\n")
        m = train_model(corpus, order=1)
        sentences = [["k1", "u1", "k2"], [f"u{i}" for i in range(12)], ["k3"]]
        expect = [reference_viterbi_tag(m, s) for s in sentences]

        def no_viterbi(*args):
            raise AssertionError("an order-1 sentence reached _viterbi")

        monkeypatch.setattr(succabs.tagger, "_viterbi", no_viterbi)
        for route in ROUTES:
            with routed(monkeypatch, route):
                assert tag_corpus(m, sentences) == expect, route
                assert viterbi_tag_scored(m, sentences[1]).tags == tuple(expect[1])

    def test_memory_of_a_call_of_two_batches(self):
        # ``_BATCH_CELLS`` bounds what a batch holds (its comment): 16 bytes
        # per state of every step, and up to 16 more in the walk back; one
        # step's temporaries, 32 bytes per cell and 72 per new state.  Every
        # token here is an unknown word of K = 4 tags, in sentences of 20,
        # so each state has K cells and a batch of the constant's 2**19
        # cells 2**17 states, over steps of K**3 cells per sentence.  The
        # call's per-token arrays and tag lists take under 64 bytes a token.
        # A call of two batches stays under the sum; it would not with the
        # constant doubled, or with a step that kept its cells.
        k, length, batch_cells = 4, 20, 1 << 19
        train, _, _ = synthesize_corpus(SynthesisConfig(
            num_tags=k, vocab_size=50, num_train_tokens=2000, num_test_tokens=10, seed=3))
        m = train_model(train)
        cells = k + k ** 2 + (length - 2) * k ** 3  # per sentence
        n = -(-2 * succabs.tagger._BATCH_CELLS // cells)
        sentences = [[f"zz{(i * length + j) % 7}q" for j in range(length)] for i in range(n)]
        assert not any(w in m.lexicon.index for s in sentences for w in s)
        per_batch = batch_cells // cells
        bound = (32 * batch_cells // k + (32 * k ** 3 + 72 * k ** 2) * per_batch
                 + 64 * n * length)
        tag_corpus(m, sentences[:1])  # builds the model's lazy tables before measuring
        tracemalloc.start()
        try:
            tagged = tag_corpus(m, sentences)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tagged) == n and peak < bound, (peak, bound)

    def test_empty_call(self, monkeypatch):
        m = hand_built_bigram_model()
        for route in ROUTES:
            with routed(monkeypatch, route):
                assert tag_corpus(m, []) == []

    def test_string_for_a_word_list_rejected(self):
        # A str is a sequence of letters: it would be decoded or scored
        # letter by letter, with a space as one more word.
        m = train_model(parse_corpus("a\tX\nb\tY\n\n"), order=2)
        calls = [lambda: tag_corpus(m, ["a b"]), lambda: tag_corpus(m, [["a"], "ab"]),
                 lambda: tag_corpus(m, "ab"), lambda: viterbi_tag(m, "ab"),
                 lambda: viterbi_tag_scored(m, "ab"),
                 lambda: score_sequence(m, "ab", ["X", "Y"]),
                 lambda: score_sequence(m, ["a", "b"], "XY")]
        for call in calls:
            with pytest.raises(ValidationError, match="not strings"):
                call()
        assert tag_corpus(m, [("a", "b")]) == [["X", "Y"]]
        assert score_sequence(m, ("a", "b"), ("X", "Y")) == \
            viterbi_tag_scored(m, ["a", "b"]).log_score

    def test_empty_sentence_after_longer_ones_rejected(self, monkeypatch):
        # Every route raises the first error in token order, as decoding
        # sentence by sentence would: the empty sentence's, or that of a
        # rejected word before it.
        corpus = parse_corpus("\n".join(["the\tAT"] * 12 + ["cat\tNN", "mat\tNN"]) + "\n\n")
        m = train_model(corpus, order=3)
        for route in ROUTES:
            with routed(monkeypatch, route):
                with pytest.raises(ValidationError, match="^cannot decode an empty sentence$"):
                    tag_corpus(m, [["the", "cat", "zat"], ["the"], [], ["mat", ""]])
                with pytest.raises(ValidationError) as raised:
                    tag_corpus(m, [["the", "cat", "zat"], ["the", ""], [], ["mat"]])
                with pytest.raises(ValidationError) as alone:
                    viterbi_tag(m, [""])
                assert str(raised.value) == str(alone.value) != "cannot decode an empty sentence"


class TestTrainModel:
    def test_metadata_recorded(self):
        corpus = parse_corpus("a\tX\nb\tY\n\nb\tY\na\tX\n\n")
        m = train_model(corpus, order=2, root_mode="rf")
        assert m.metadata.order == 2
        assert m.metadata.smoothing == "sa"
        assert m.metadata.root_mode == "rf"
        assert m.metadata.corpus_digest == corpus_digest(corpus)
        assert m.metadata.lambdas is None

    def test_interp_requires_lambdas(self):
        corpus = parse_corpus("a\tX\nb\tY\n\n")
        with pytest.raises(ValidationError):
            train_model(corpus, order=2, smoothing="interp")
        m = train_model(corpus, order=2, smoothing="interp", lambdas=(0.3, 0.7))
        assert m.metadata.lambdas == (0.3, 0.7)

    def test_unknown_smoothing_rejected(self):
        corpus = parse_corpus("a\tX\n\n")
        with pytest.raises(ValidationError):
            train_model(corpus, smoothing="kneser-ney")

    def test_order_beyond_the_transition_index_rejected_before_counting(self, monkeypatch):
        corpus = parse_corpus("a\tX\nb\tY\n\nb\tY\na\tX\n")

        def no_counting(*args):
            raise AssertionError("counted an order no index can hold")

        # What counting runs first after the bound.
        monkeypatch.setattr(succabs.counts, "_place_values", no_counting)
        seven = parse_corpus("".join(f"w{t}\tT{t}\n" for t in range(7)))
        forty = parse_corpus("".join(f"w{t}\tT{t}\n" for t in range(40)))
        for max_axes in (32, 64):  # numpy's axis limit before 2.0 and from it
            monkeypatch.setattr(succabs.counts, "_MAX_AXES", max_axes)
            with pytest.raises(ValidationError, match="69 axes"):
                train_model(corpus, order=70)
            # 8**21 eight-byte cells over 21 axes: past the cell bound, within
            # the axis bound of numpy 1.x (32) as of 2.x (64).
            with pytest.raises(ValidationError, match="cells, more than an array can hold"):
                train_model(seven, order=22)
            # 41**11 cells fit an array, but 40 times as many count keys pass int64.
            with pytest.raises(ValidationError, match="count keys .* pass 2\\*\\*63 - 1"):
                train_model(forty, order=12)
            with pytest.raises(ValidationError, match="999999 axes"):
                train_model(corpus, order=10**6)

    def test_non_integer_order_rejected(self):
        corpus = parse_corpus("a\tX\nb\tY\n\n")
        for bad in (2.5, 3.0, "3", None):
            with pytest.raises(ValidationError, match=f"^order must be an integer, not {bad!r}$"):
                train_model(corpus, order=bad)
            with pytest.raises(ValidationError, match=f"^order must be an integer, not {bad!r}$"):
                tagging_accuracy_objective(corpus, corpus, order=bad)
        # numpy integers and bools are integers; the metadata holds an int.
        for order, plain in ((np.int64(2), 2), (np.uint8(3), 3), (True, 1)):
            meta = train_model(corpus, order=order).metadata
            assert type(meta.order) is int and meta.order == plain


class TestModelParts:
    """A ``Model``'s parts share its metadata's order and its tag set's size."""

    def test_order_other_than_the_transition_tables_rejected(self):
        # Order 2 over an order-3 table decoded, and wrote a file its loader
        # rejected; order 3 over an order-2 table raised a raw IndexError.
        corpus = parse_corpus("a\tX\nb\tY\nc\tZ\n\nb\tY\na\tX\n\n")
        m2, m3 = train_model(corpus, order=2), train_model(corpus, order=3)
        for m, other in ((m2, m3), (m3, m2)):
            mismatch = r"order {} over 3 tags .* transition table \(order {}\)"
            with pytest.raises(ValidationError, match=mismatch.format(other.metadata.order,
                                                                      m.metadata.order)):
                dataclasses.replace(m, metadata=other.metadata)
            with pytest.raises(ValidationError, match=mismatch.format(m.metadata.order,
                                                                      other.metadata.order)):
                dataclasses.replace(m, transition=other.transition)

    def test_part_over_another_tag_count_rejected(self):
        three = train_model(parse_corpus("a\tX\nb\tY\nc\tZ\n\n"), order=2)
        two = train_model(parse_corpus("a\tX\nb\tY\n\n"), order=2)
        unknown, other = three.unknown_word_model, two.unknown_word_model
        parts = [("tag_set", two.tag_set), ("transition", two.transition),
                 ("lexicon", two.lexicon), ("unigram", two.unigram),
                 ("unknown_word_model", dataclasses.replace(unknown, trie=other.trie)),
                 ("unknown_word_model", dataclasses.replace(unknown, root=other.root))]
        for name, part in parts:
            with pytest.raises(ValidationError, match="over [23] tags"):
                dataclasses.replace(three, **{name: part})
        dataclasses.replace(three, unknown_word_model=dataclasses.replace(unknown))


class TestTaggingAccuracyObjective:
    def test_scores_lambda_choices_by_heldout_accuracy(self):
        train = parse_corpus(
            "\n\n".join(["a\tX\nb\tY\na\tX", "a\tX\nb\tY\nb\tY",
                         "b\tY\na\tX\na\tX"] * 4) + "\n")
        heldout = parse_corpus("a\tX\nb\tY\na\tX\n\n")
        objective = tagging_accuracy_objective(train, heldout, order=2)
        scores = {lam: objective(lam) for lam in ((1.0, 0.0), (0.0, 1.0))}
        for v in scores.values():
            assert 0.0 <= v <= 1.0
        # The bigram-heavy weighting must be at least as good here.
        assert scores[(0.0, 1.0)] >= scores[(1.0, 0.0)]

    def test_equals_accuracy_of_tag_corpus_output(self):
        train = parse_corpus(
            "\n\n".join(["a\tX\nb\tY\na\tX", "a\tX\nb\tY\nb\tY",
                         "b\tY\na\tX\na\tX", "b\tX\nb\tX\na\tY"] * 3) + "\n")
        heldout = parse_corpus("a\tX\nb\tY\nb\tX\n\nb\tX\nc\tY\na\tX\n\n")
        objective = tagging_accuracy_objective(train, heldout, order=2)
        words = [[tok.word for tok in sent] for sent in heldout.sentences]
        scores = []
        for lam in ((1.0, 0.0), (0.0, 1.0)):
            model = train_model(train, order=2, smoothing="interp", lambdas=lam)
            correct = sum(predicted == tok.tag
                          for sent, tags in zip(heldout.sentences, tag_corpus(model, words))
                          for tok, predicted in zip(sent, tags))
            scores.append(objective(lam))
            assert scores[-1] == correct / heldout.num_tokens
        assert scores[0] != scores[1]

    def test_heldout_tag_set_of_its_own(self):
        # Gold tags are read as ids of the held-out tag set, which may order
        # the tags otherwise and hold tags the model never predicts.
        train = parse_corpus(
            "\n\n".join(["a\tX\nb\tY\na\tX", "a\tX\nb\tY\nb\tY",
                         "b\tY\na\tX\na\tX", "b\tX\nb\tX\na\tY"] * 3) + "\n")
        heldout = parse_corpus("a\tX\nb\tY\nb\tZ\n\nb\tX\nc\tY\na\tZ\n\n",
                               declared_tags=("Z", "Y", "X"))
        objective = tagging_accuracy_objective(train, heldout, order=2)
        assert "sentences" not in heldout.__dict__
        words = [[tok.word for tok in sent] for sent in heldout.sentences]
        for lam in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
            model = train_model(train, order=2, smoothing="interp", lambdas=lam)
            correct = sum(predicted == tok.tag
                          for sent, tags in zip(heldout.sentences, tag_corpus(model, words))
                          for tok, predicted in zip(sent, tags))
            assert objective(lam) == correct / heldout.num_tokens

    def test_empty_heldout_rejected(self):
        train = parse_corpus("a\tX\n\n")
        with pytest.raises(ValidationError):
            tagging_accuracy_objective(train, parse_corpus(""), order=1)
