import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest

from succabs.corpus import TagSet, parse_corpus
from succabs.counts import RareWordPolicy, Lexicon, SuffixTrie, reversed_suffix_path
from succabs.errors import ValidationError
import succabs.tagger
from succabs.lexicon import (
    LexicalDistribution,
    UnknownWordModel,
    known_word_distribution,
    lexical_factors,
    unknown_word_distribution,
)
from succabs.smoothing import (
    ConditionalDistribution,
    SmoothedNGramModel,
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
    corpus_digest,
    score_sequence,
    tag_corpus,
    tagging_accuracy_objective,
    train_model,
    viterbi_tag,
    viterbi_tag_scored,
)
from transition_oracle import distribution, query, tables_of

# The ways ``_decode`` can be made to run a call: every sentence through
# ``_viterbi``; every sentence through ``_viterbi_batch``, in batches as
# large as allowed, of one sentence each, or of a few; and the default
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
    lexicon = Lexicon(("w1", "w2"), np.array([[9, 1], [2, 8]]))
    empty_trie = SuffixTrie(np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
                            np.zeros(1, dtype=np.int64), np.array([-1]))
    unknown = UnknownWordModel(empty_trie,
                               uniform_distribution(2), RareWordPolicy())
    meta = ModelMetadata(order=2, smoothing="sa", root_mode="ele",
                         sigma_scale=1.0, corpus_digest="0" * 64)
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
        lexicon = Lexicon(("only",), np.array([[3, 0]]))
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
        lexicon = Lexicon(("w",), np.array([[5, 5]]))
        unknown = UnknownWordModel(
            SuffixTrie(np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
                       np.zeros(1, dtype=np.int64), np.array([-1])),
            uniform_distribution(2), RareWordPolicy())
        meta = ModelMetadata(order=2, smoothing="sa", root_mode="ele",
                             sigma_scale=1.0, corpus_digest="0" * 64)
        m = Model(TagSet(("P", "Q")), transition, lexicon, unknown,
                  uniform_distribution(2), meta)
        assert viterbi_tag(m, ["w", "w", "w"]) == ["P", "P", "P"]

    def test_closed_lattice_respects_observed_tags(self):
        # "w1" was seen under both tags but "sure" only under X, so a closed
        # decode never assigns Y to "sure" even when transitions prefer it.
        m = hand_built_bigram_model()
        lexicon = Lexicon(("sure", "w1"), np.array([[1, 0], [9, 1]]))
        m2 = Model(m.tag_set, m.transition, lexicon, m.unknown_word_model,
                   m.unigram, m.metadata)
        assert viterbi_tag(m2, ["w1", "sure"])[1] == "X"

    def test_open_lattice_can_override_lexicon_support(self):
        m = hand_built_bigram_model()
        tags_closed = viterbi_tag(m, ["w1", "w2"])
        tags_open = viterbi_tag(m, ["w1", "w2"], open_lattice=True)
        # Both words were seen under both tags, so open changes nothing here.
        assert tags_closed == tags_open

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


def random_test_sentence(rng, corpus):
    vocab = sorted({tok.word for sent in corpus.sentences for tok in sent})
    words = []
    for j in range(int(rng.integers(1, 6))):
        if rng.random() < 0.2:
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


def narrow_test_call(rng, corpus):
    """Sentences of 1 to 30 tokens, one of each extreme, over the training
    words with repeats, some holding a run of one to three unknown words."""
    vocab = sorted(corpus.vocab)
    lengths = [1, 30] + rng.integers(1, 31, size=int(rng.integers(2, 7))).tolist()
    sentences = []
    for n in lengths:
        sent = [vocab[int(rng.integers(len(vocab)))] for _ in range(n)]
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


def reference_lexical(m, word, open_lattice=False):
    """The per-word lexical path the decoder's batched table replaced: the
    factor vector P(t|w)/P(t) over every tag, and the lattice."""
    dist = known_word_distribution(m.lexicon, word)
    if dist is None:
        dist = unknown_word_distribution(m.unknown_word_model, word)
    factors = lexical_factors(dist, m.unigram)
    if dist.support and not open_lattice:
        return factors, tuple(sorted(dist.support))
    return factors, tuple(range(len(m.tag_set)))


def reference_viterbi_tag(m, words, open_lattice=False):
    """The scalar dict-based decoder the array one replaced, kept verbatim as
    the reference: transitions come from ``distribution()`` one context at a
    time, and states are visited in sorted order."""
    tables = tables_of(m.transition)
    n_ctx = m.metadata.order - 1
    start = (-1,) * n_ctx
    cells = {start: 0.0}
    bp = []
    for word in words:
        factors, lattice = reference_lexical(m, word, open_lattice)
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


class TestDecoderAgainstScalarReference:
    def test_random_models_decode_identically(self, monkeypatch):
        # Orders 1-4, every estimator, both root modes (rf with a declared
        # tag never seen in training), closed and open lattices, and
        # sentences that repeat words so equal-scoring paths occur.  Tags
        # and scores must match exactly, through every route of the
        # decoder: the tie-break depends on both.
        rng = np.random.default_rng(31)
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
                words = random_test_sentence(rng, corpus)
                if j % 2:
                    words = words + words[::-1]
                open_lattice = j >= 2
                expect = reference_viterbi_tag(m, words, open_lattice)
                score = reference_score(m, words, expect)
                for route in ROUTES:
                    with routed(monkeypatch, route):
                        got = viterbi_tag_scored(m, words, open_lattice)
                    assert list(got.tags) == expect, (i, words, route)
                    assert got.log_score == score, (i, words, route)


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


def smooth_step_walk(m, word, folds=None):
    """``unknown_word_distribution`` as it folded before: the public,
    checking ``smooth_step`` per matched trie node."""
    if folds is None:
        folds = {}
    dist, node = m.root, 0
    for letter in reversed_suffix_path(word, m.policy.max_suffix_length):
        node = m.trie.child(node, letter)
        if node is None:
            break
        if node not in folds:
            counts = m.trie.counts[node]
            total = int(counts.sum())
            folds[node] = smooth_step(counts / total, dist, total)
        dist = folds[node]
    return LexicalDistribution(dist.probs.copy(), frozenset())


class TestUnknownWordFolds:
    def test_folds_and_tags_equal_the_smooth_step_chain(self, monkeypatch):
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
            got_folds, expect_folds = {}, {}
            for word in words:
                got = unknown_word_distribution(unknown, word, got_folds)
                expect = smooth_step_walk(unknown, word, expect_folds)
                assert got.probs.tolist() == expect.probs.tolist(), (i, word)
            assert got_folds.keys() == expect_folds.keys()
            for node, dist in got_folds.items():
                assert dist.probs.tolist() == expect_folds[node].probs.tolist()
                assert dist.entropy_nats == expect_folds[node].entropy_nats
                assert not dist.probs.flags.writeable
            folded += len(got_folds)
            tagged = tag_corpus(m, sentences)
            with monkeypatch.context() as patch:
                patch.setattr(succabs.tagger, "unknown_word_distribution", smooth_step_walk)
                assert tagged == tag_corpus(m, sentences)
        assert folded > 100


class TestLexicalTable:
    def test_table_equals_the_per_word_path(self, monkeypatch):
        # Each word's log factors and lattice, filled for a whole call at
        # once, must equal the per-word path's bit for bit, whether the
        # words fill one factor matrix or several.
        rng = np.random.default_rng(909)
        shared = 0
        for i in range(80):
            monkeypatch.setattr(succabs.tagger, "_PRIME_BLOCK", (2048, 1, 3)[i % 3])
            corpus, alphabet = lettered_corpus(rng, int(rng.integers(2, 6)))
            max_suffix = int(rng.integers(1, 5))
            m = train_model(corpus, order=int(rng.integers(1, 4)),
                            root_mode=("ele", "rf")[i % 2],
                            policy=RareWordPolicy(frequency_threshold=int(rng.integers(4, 12)),
                                                  max_suffix_length=max_suffix))
            sentences = lettered_sentences(rng, corpus, alphabet, max_suffix)
            words = [w for s in sentences for w in s]
            trie = m.unknown_word_model.trie
            firsts = [trie.child(0, w[-1]) for w in set(words) if w not in m.lexicon]
            firsts = [node for node in firsts if node is not None]
            shared += len(firsts) - len(set(firsts))
            for open_lattice in (False, True):
                rt = _DecodeRuntime(m, open_lattice)
                rt.prime(words)
                assert set(rt.ids) == set(words)
                for word in words:
                    factors, lattice = reference_lexical(m, word, open_lattice)
                    got_logs, got_lattice = rt.entry(word)
                    assert got_lattice.tolist() == list(lattice), (i, word)
                    expect = log_probs(factors[list(lattice)])
                    assert np.array_equal(got_logs, expect), (i, word)
                assert tag_corpus(m, sentences, open_lattice) == [
                    reference_viterbi_tag(m, s, open_lattice) for s in sentences]
        assert shared > 0  # some unknown words met on a trie node

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

        def counting(model, word, *args, **kwargs):
            calls.append(word)
            return real(model, word, *args, **kwargs)

        monkeypatch.setattr(succabs.tagger, "unknown_word_distribution", counting)
        sentences = [["the", "zat", "zat"], ["qat", "the", "zat"], ["qat"]]
        first = tag_corpus(m, sentences)
        assert sorted(calls) == ["qat", "zat"]
        assert tag_corpus(m, sentences) == first
        assert sorted(calls) == ["qat", "qat", "zat", "zat"]


class TestTagCorpus:
    def test_matches_per_sentence_decoding(self):
        corpus = parse_corpus(
            "the\tAT\ncat\tNN\n\nthe\tAT\ndog\tNN\nsat\tVB\n\nsat\tVB\n\n")
        m = train_model(corpus, order=3)
        sentences = [["the", "cat"], ["sat"], ["the", "dog", "sat"]]
        batch = tag_corpus(m, sentences)
        assert batch == [viterbi_tag(m, s) for s in sentences]

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
        # one tag, so closed lattices are narrow, with runs of adjacent
        # unknown words and repeated words (ties).  Orders 1-4, every
        # estimator, both root modes, closed and open lattices; every route
        # of the decoder, in the given and in a shuffled sentence order.
        rng = np.random.default_rng(606)
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
            sentences = narrow_test_call(rng, corpus)
            shuffle = rng.permutation(len(sentences)).tolist()
            for open_lattice in (False, True):
                expect = [reference_viterbi_tag(m, s, open_lattice) for s in sentences]
                for route in ROUTES:
                    with routed(monkeypatch, route):
                        assert tag_corpus(m, sentences, open_lattice) == expect, (i, route)
                        assert (tag_corpus(m, [sentences[j] for j in shuffle], open_lattice)
                                == [expect[j] for j in shuffle]), (i, route)

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

    def test_empty_call(self, monkeypatch):
        m = hand_built_bigram_model()
        for route in ROUTES:
            with routed(monkeypatch, route):
                assert tag_corpus(m, []) == []

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
        m = train_model(corpus, order=2, root_mode="ele", sigma_scale=1.5)
        assert m.metadata.order == 2
        assert m.metadata.smoothing == "sa"
        assert m.metadata.sigma_scale == 1.5
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

    def test_non_finite_or_negative_sigma_scale_rejected(self):
        # Also where no smoothing step uses the scale: it is stored either way.
        corpus = parse_corpus("a\tX\nb\tY\n\nb\tY\na\tX\n\n")
        for scale in (math.nan, math.inf, -1.0):
            for kwargs in ({}, {"order": 1}, {"smoothing": "ele"},
                           {"smoothing": "interp", "lambdas": (0.5, 0.25, 0.25)}):
                with pytest.raises(ValidationError, match="sigma scale"):
                    train_model(corpus, sigma_scale=scale, **kwargs)
        m = train_model(corpus, sigma_scale=0.0)
        assert m.metadata.sigma_scale == 0.0
        assert tag_corpus(m, [["a", "b"]]) == [["X", "Y"]]


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

    def test_empty_heldout_rejected(self):
        train = parse_corpus("a\tX\n\n")
        with pytest.raises(ValidationError):
            tagging_accuracy_objective(train, parse_corpus(""), order=1)
