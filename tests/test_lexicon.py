import math

import numpy as np
import pytest

from succabs.corpus import parse_corpus
from succabs.counts import RareWordPolicy, build_lexicon, build_suffix_trie, reversed_suffix_path
from succabs.errors import ValidationError
from succabs.lexicon import (
    LexicalDistribution,
    build_unknown_word_model,
    known_word_distribution,
    lexical_factors,
    unknown_word_distribution,
)
from succabs.smoothing import SQRT12, ConditionalDistribution, smooth_step, uniform_distribution
from test_counts import random_corpus, reference_build_suffix_trie


def oracle_entropy(probs):
    return -sum(p * math.log(p) for p in probs if p > 0)


def oracle_step(f, parent_probs, count):
    s = math.sqrt(12.0) * math.sqrt(count) * math.exp(-oracle_entropy(parent_probs))
    return [(s * fi + pi) / (s + 1.0) for fi, pi in zip(f, parent_probs)]


def rare_cat_corpus():
    # Two tags; "cat" occurs once (rare), "the" is frequent filler.
    lines = ["the\tAT"] * 12 + ["cat\tNN"]
    return parse_corpus("\n".join(lines) + "\n\n")


class TestKnownWordDistribution:
    def test_relative_frequencies_and_support(self):
        corpus = parse_corpus("run\tNN\nrun\tVB\nrun\tVB\nrun\tVB\n\n")
        lex = build_lexicon(corpus)
        dist = known_word_distribution(lex, "run")
        np.testing.assert_allclose(dist.probs, [0.25, 0.75], atol=1e-15)
        assert dist.support == {0, 1}

    def test_single_tag_word_has_singleton_support(self):
        corpus = parse_corpus("the\tAT\nthe\tAT\ncat\tNN\n\n")
        lex = build_lexicon(corpus)
        dist = known_word_distribution(lex, "the")
        np.testing.assert_allclose(dist.probs, [1.0, 0.0], atol=1e-15)
        assert dist.support == {0}

    def test_unseen_word_is_none(self):
        lex = build_lexicon(parse_corpus("a\tX\n\n"))
        assert known_word_distribution(lex, "b") is None


class TestUnknownWordModel:
    def build(self, corpus, **policy_kwargs):
        lex = build_lexicon(corpus)
        policy = RareWordPolicy(**policy_kwargs)
        trie = build_suffix_trie(lex, policy)
        return build_unknown_word_model(trie, policy)

    def test_root_is_half_count_estimate_of_rare_tokens(self):
        model = self.build(rare_cat_corpus())
        # One rare token tagged NN out of tags (AT, NN).
        np.testing.assert_allclose(model.root.probs, [0.5 / 2, 1.5 / 2], atol=1e-15)

    def test_no_match_returns_root(self):
        model = self.build(rare_cat_corpus())
        dist = unknown_word_distribution(model, "xyz")
        np.testing.assert_allclose(dist.probs, model.root.probs, atol=1e-15)
        assert dist.support == frozenset()

    def test_two_step_chain_for_shared_suffix(self):
        model = self.build(rare_cat_corpus())
        # "mat" reversed is t-a-m: matches the "t" and "a" nodes (counts all
        # from "cat"), then misses "m".
        dist = unknown_word_distribution(model, "mat")
        level = model.root.probs.tolist()
        for _ in range(2):
            level = oracle_step([0.0, 1.0], level, 1)
        np.testing.assert_allclose(dist.probs, level, atol=1e-12)

    def test_full_match_walks_through_bow_marker(self):
        model = self.build(rare_cat_corpus())
        # "cat" itself matches t, a, c, then the begin-of-word marker: four
        # smoothing steps on the same single-token counts.
        dist = unknown_word_distribution(model, "cat")
        level = model.root.probs.tolist()
        for _ in range(4):
            level = oracle_step([0.0, 1.0], level, 1)
        np.testing.assert_allclose(dist.probs, level, atol=1e-12)

    def test_longer_match_trusts_suffix_more(self):
        model = self.build(rare_cat_corpus())
        nn = 1
        p_root = model.root.probs[nn]
        p_short = unknown_word_distribution(model, "it").probs[nn]   # matches "t"
        p_mid = unknown_word_distribution(model, "mat").probs[nn]    # matches "t","a"
        p_full = unknown_word_distribution(model, "cat").probs[nn]
        assert p_root < p_short < p_mid < p_full < 1.0

    def test_output_strictly_positive_with_half_count_root(self):
        model = self.build(rare_cat_corpus())
        for word in ("cat", "mat", "t", "zzz", "q"):
            dist = unknown_word_distribution(model, word)
            assert np.all(dist.probs > 0)
            assert abs(dist.probs.sum() - 1.0) < 1e-9

    def test_max_suffix_caps_chain_length(self):
        deep = self.build(rare_cat_corpus(), max_suffix_length=10)
        shallow = self.build(rare_cat_corpus(), max_suffix_length=1)
        # With depth 1 only the "t" node can match, so "cat" and "mat" agree.
        a = unknown_word_distribution(shallow, "cat")
        b = unknown_word_distribution(shallow, "mat")
        np.testing.assert_array_equal(a.probs, b.probs)
        c = unknown_word_distribution(deep, "cat")
        assert not np.allclose(a.probs, c.probs)

    def test_relative_frequency_root_requires_rare_tokens(self):
        corpus = parse_corpus("\n".join(["the\tAT"] * 12 + ["dog\tNN"] * 12) + "\n\n")
        lex = build_lexicon(corpus)
        policy = RareWordPolicy()
        trie = build_suffix_trie(lex, policy)
        with pytest.raises(ValidationError):
            build_unknown_word_model(trie, policy, root_mode="rf")
        # Half-count root stays defined.
        model = build_unknown_word_model(trie, policy, root_mode="ele")
        np.testing.assert_allclose(model.root.probs, [0.5, 0.5], atol=1e-15)

    def test_empty_word_rejected(self):
        model = self.build(rare_cat_corpus())
        with pytest.raises(ValidationError):
            unknown_word_distribution(model, "")


class TestLexicalFactor:
    def test_ratio_example(self):
        dist = LexicalDistribution(np.array([0.5, 0.5]), frozenset({0, 1}))
        unigram = ConditionalDistribution.from_probs([0.25, 0.75])
        factors = lexical_factors(dist, unigram)
        assert factors[0] == pytest.approx(2.0, abs=1e-15)
        assert factors[1] == pytest.approx(2 / 3, abs=1e-15)

    def test_zero_lexical_probability_gives_zero(self):
        dist = LexicalDistribution(np.array([1.0, 0.0]), frozenset({0}))
        unigram = uniform_distribution(2)
        assert lexical_factors(dist, unigram)[1] == 0.0

    def test_zero_unigram_with_mass_rejected(self):
        dist = LexicalDistribution(np.array([1.0, 0.0]), frozenset({0}))
        unigram = ConditionalDistribution.from_probs([0.0, 1.0])
        with pytest.raises(ValidationError):
            lexical_factors(dist, unigram)


class TestSmoothingConstantsVisible:
    def test_sqrt12_used_by_chain(self):
        # Sanity anchor: the weight constant is sqrt(12) ~ 3.4641.
        assert SQRT12 == pytest.approx(math.sqrt(12.0), abs=0)


def reference_unknown_word_distribution(root_node, root, policy, word):
    """The walk over the object trie that the flat-array walk replaced."""
    dist = root
    node = root_node
    for letter in reversed_suffix_path(word, policy.max_suffix_length):
        node = node.children.get(letter)
        if node is None:
            break
        total = int(node.tag_counts.sum())
        dist = smooth_step(node.tag_counts / total, dist, total)
    return dist.probs


class TestWalkAgainstObjectTrie:
    def test_probabilities_equal_the_object_walk(self):
        rng = np.random.default_rng(808)
        for i in range(120):
            corpus = random_corpus(rng, via_text=i % 2 == 0)
            lex = build_lexicon(corpus)
            policy = RareWordPolicy(frequency_threshold=int(rng.integers(1, 6)),
                                    max_suffix_length=int(rng.choice([1, 3, 10])))
            model = build_unknown_word_model(build_suffix_trie(lex, policy), policy)
            reference = reference_build_suffix_trie(corpus, lex, policy)
            # Training words match through the marker; "q" and U+1F601 are
            # letters no word has; the repeats run past every depth.
            words = [w for s in (lex.entries, ["q", "\U0001f601", "\U0001f600\U0001f601"])
                     for w in s]
            words += [w + "q" for w in lex.entries] + ["q" + w for w in lex.entries]
            words += [w * 11 for w in lex.entries] + ["\U0001f601" + w for w in lex.entries]
            folds = {}  # shared by all the words, as one decoding call shares it
            for word in words:
                got = unknown_word_distribution(model, word).probs
                expect = reference_unknown_word_distribution(reference, model.root, policy, word)
                assert got.tolist() == expect.tolist()
                assert unknown_word_distribution(model, word, folds).probs.tolist() == got.tolist()
            # Every node lies on a training word's path, and each walk keeps its folds.
            assert sorted(folds) == list(range(1, len(model.trie.depths)))
