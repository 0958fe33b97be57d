import itertools
import math

import numpy as np
import pytest

from succabs.corpus import TagSet, parse_corpus
from succabs.counts import RareWordPolicy, Lexicon, SuffixTrie, SuffixTrieNode
from succabs.errors import ValidationError
from succabs.lexicon import UnknownWordModel, known_word_distribution
from succabs.smoothing import (
    ConditionalDistribution,
    SmoothedNGramModel,
    simplex_grid,
    uniform_distribution,
)
from succabs.tagger import (
    Model,
    ModelMetadata,
    NEG_INF,
    _DecodeRuntime,
    corpus_digest,
    score_sequence,
    tag_corpus,
    tagging_accuracy_objective,
    train_model,
    viterbi_tag,
    viterbi_tag_scored,
)


def hand_built_bigram_model():
    """Two tags X, Y with fully specified transition and lexical tables.

    Transition rows: start [.5,.5]; after X [.7,.3]; after Y [.4,.6].
    Lexical counts: w1 -> [9,1], w2 -> [2,8]; uniform tag distribution, so
    the decoder's per-word factor vector is the tag distribution times 2.
    """
    tables = {
        (): uniform_distribution(2),
        (-1,): ConditionalDistribution.from_probs([0.5, 0.5]),
        (0,): ConditionalDistribution.from_probs([0.7, 0.3]),
        (1,): ConditionalDistribution.from_probs([0.4, 0.6]),
    }
    transition = SmoothedNGramModel(order=2, num_tags=2, tables=tables)
    lexicon = Lexicon(num_tags=2,
                      entries={"w1": np.array([9, 1]), "w2": np.array([2, 8])},
                      totals={"w1": 10, "w2": 10})
    empty_trie = SuffixTrie(num_tags=2, root=SuffixTrieNode(None, np.zeros(2, dtype=np.int64)))
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
        lexicon = Lexicon(num_tags=2, entries={"only": np.array([3, 0])},
                          totals={"only": 3})
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
                trans = m.transition.distribution(ctx).probs[t]
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
        tables = {
            (): uniform_distribution(2),
            (-1,): uniform_distribution(2),
            (0,): uniform_distribution(2),
            (1,): uniform_distribution(2),
        }
        transition = SmoothedNGramModel(order=2, num_tags=2, tables=tables)
        lexicon = Lexicon(num_tags=2, entries={"w": np.array([5, 5])},
                          totals={"w": 10})
        unknown = UnknownWordModel(
            SuffixTrie(num_tags=2, root=SuffixTrieNode(None, np.zeros(2, dtype=np.int64))),
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
        lexicon = Lexicon(num_tags=2,
                          entries={"w1": np.array([9, 1]),
                                   "sure": np.array([1, 0])},
                          totals={"w1": 10, "sure": 1})
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

    def test_factor_scale_invariance_of_argmax(self):
        m = hand_built_bigram_model()

        class ScaledRuntime(_DecodeRuntime):
            def lexical(self, word):
                factors, lattice = super().lexical(word)
                if word == "w1":
                    return factors * 7.3, lattice
                return factors, lattice

        plain = viterbi_tag(m, ["w1", "w2", "w1"])
        scaled = viterbi_tag(m, ["w1", "w2", "w1"], runtime=ScaledRuntime(m))
        assert plain == scaled

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


def reference_viterbi_tag(m, words, open_lattice=False):
    """The scalar dict-based decoder the array one replaced, kept verbatim as
    the reference: transitions come from ``distribution()`` one context at a
    time, and states are visited in sorted order."""
    rt = _DecodeRuntime(m, open_lattice)
    n_ctx = m.metadata.order - 1
    start = (-1,) * n_ctx
    cells = {start: 0.0}
    bp = []
    for word in words:
        factors, lattice = rt.lexical(word)
        step = {}
        back = {}
        for state in sorted(cells):
            base = cells[state]
            row = m.transition.distribution(state).probs
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
    rt = _DecodeRuntime(m)
    n_ctx = m.metadata.order - 1
    context = (-1,) * n_ctx
    total = 0.0
    for word, t in zip(words, (m.tag_set.index[tag] for tag in tags)):
        trans = float(m.transition.distribution(context).probs[t])
        factor = float(rt.lexical(word)[0][t])
        if trans <= 0.0 or factor <= 0.0:
            return NEG_INF
        total += math.log(trans) + math.log(factor)
        if n_ctx:
            context = (context + (t,))[-n_ctx:]
    return total


class TestDecoderAgainstScalarReference:
    def test_random_models_decode_identically(self):
        # Orders 1-4, every estimator, both root modes (rf with a declared
        # tag never seen in training), closed and open lattices, and
        # sentences that repeat words so equal-scoring paths occur.  Tags
        # and scores must match exactly: the tie-break depends on both.
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
                got = viterbi_tag_scored(m, words, open_lattice)
                expect = reference_viterbi_tag(m, words, open_lattice)
                assert list(got.tags) == expect, (i, words)
                assert got.log_score == reference_score(m, words, expect), (i, words)


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
