import numpy as np
import pytest

from succabs.corpus import SynthesisConfig, parse_corpus, synthesize_corpus
from succabs.counts import (
    BOUNDARY,
    BOW_LETTER,
    Lexicon,
    NGramCountTable,
    RareWordPolicy,
    SuffixTrie,
    SuffixTrieNode,
    build_lexicon,
    build_suffix_trie,
    context_count,
    count_ngrams,
    reversed_suffix_path,
)
from succabs.errors import ValidationError


class TestCountNgrams:
    def test_hand_counted_bigram_example(self):
        corpus = parse_corpus("x\tA\ny\tB\nz\tA\n\n")
        table = count_ngrams(corpus, 2)
        assert table.order == 2
        assert table.num_tags == 2
        # Contexts: sentence start, then A, then B.
        np.testing.assert_array_equal(table.counts[(BOUNDARY,)], [1, 0])
        np.testing.assert_array_equal(table.counts[(0,)], [0, 1])
        np.testing.assert_array_equal(table.counts[(1,)], [1, 0])
        # Unigram context is always present.
        np.testing.assert_array_equal(table.counts[()], [2, 1])
        assert table.totals[()] == 3

    def test_trigram_boundary_padding(self):
        corpus = parse_corpus("x\tA\ny\tB\n\n")
        table = count_ngrams(corpus, 3)
        np.testing.assert_array_equal(table.counts[(BOUNDARY, BOUNDARY)], [1, 0])
        np.testing.assert_array_equal(table.counts[(BOUNDARY, 0)], [0, 1])
        assert (0, 1) not in table.counts  # nothing follows the last token

    def test_marginalization_identity(self):
        # Summing order-k counts over all observed one-step extensions of the
        # context recovers the order-(k-1) counts exactly.
        train = synthesize_corpus(SynthesisConfig(num_tags=4, vocab_size=50,
                                                  num_train_tokens=2000,
                                                  num_test_tokens=100, seed=13))[0]
        table = count_ngrams(train, 3)
        for k in (1, 2):
            shorter = {}
            for ctx, vec in table.counts.items():
                if len(ctx) != k:
                    continue
                tail = ctx[1:]
                shorter[tail] = shorter.get(tail, 0) + vec
            for tail, vec in shorter.items():
                np.testing.assert_array_equal(vec, table.counts[tail])

    def test_context_count_examples(self):
        corpus = parse_corpus("x\tA\ny\tB\nz\tA\n\n")
        table = count_ngrams(corpus, 2)
        assert context_count(table, ()) == 3
        assert context_count(table, (0,)) == 1
        assert context_count(table, (1,)) == 1
        assert context_count(table, (BOUNDARY,)) == 1
        assert context_count(table, (5,)) == 0  # never observed

    def test_totals_match_vector_sums(self):
        train = synthesize_corpus(SynthesisConfig(num_tags=3, vocab_size=30,
                                                  num_train_tokens=600,
                                                  num_test_tokens=100, seed=4))[0]
        table = count_ngrams(train, 3)
        for ctx, vec in table.counts.items():
            assert table.totals[ctx] == int(vec.sum())

    def test_contexts_of_length(self):
        corpus = parse_corpus("x\tA\ny\tB\nz\tA\n\n")
        table = count_ngrams(corpus, 2)
        assert set(table.contexts_of_length(0)) == {()}
        assert set(table.contexts_of_length(1)) == {(BOUNDARY,), (0,), (1,)}

    def test_bad_order_rejected(self):
        corpus = parse_corpus("x\tA\n\n")
        with pytest.raises(ValidationError):
            count_ngrams(corpus, 0)


class TestLexicon:
    def test_counts_and_membership(self):
        corpus = parse_corpus("cat\tNN\ncat\tVB\n\ncat\tNN\ndog\tNN\n\n")
        lex = build_lexicon(corpus)
        assert "cat" in lex
        assert "dog" in lex
        assert "fish" not in lex
        assert len(lex) == 2
        np.testing.assert_array_equal(lex.entries["cat"], [2, 1])
        assert lex.total("cat") == 3
        assert lex.total("dog") == 1

    def test_empty_corpus_gives_empty_lexicon(self):
        lex = build_lexicon(parse_corpus(""))
        assert len(lex) == 0


class TestReversedSuffixPath:
    def test_word_reversed_with_bow_marker(self):
        assert reversed_suffix_path("cat", 10) == ["t", "a", "c", BOW_LETTER]

    def test_single_letter(self):
        assert reversed_suffix_path("a", 10) == ["a", BOW_LETTER]

    def test_truncation_to_max_edges(self):
        assert reversed_suffix_path("abcdefghijkl", 4) == ["l", "k", "j", "i"]

    def test_exact_length_keeps_marker(self):
        assert reversed_suffix_path("ab", 3) == ["b", "a", BOW_LETTER]


class TestRareWordPolicy:
    def test_defaults(self):
        policy = RareWordPolicy()
        assert policy.frequency_threshold == 10
        assert policy.max_suffix_length == 10

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            RareWordPolicy(frequency_threshold=0)
        with pytest.raises(ValidationError):
            RareWordPolicy(max_suffix_length=0)


class TestBuildSuffixTrie:
    def corpus_with_rare_words(self):
        # "cat" and "bat" are rare (freq 1 each); "the" is frequent.
        lines = []
        for _ in range(12):
            lines.append("the\tAT")
        lines.append("cat\tNN")
        lines.append("bat\tNN")
        return parse_corpus("\n".join(lines) + "\n\n")

    def test_shared_suffix_pools_counts(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(corpus, lex, RareWordPolicy())
        nn = corpus.tag_set.index_of("NN")
        # Root pools every rare token.
        assert trie.root.tag_counts[nn] == 2
        # "t" and "ta" prefixes of both reversed words share counts.
        t_node = trie.root.children["t"]
        assert t_node.tag_counts[nn] == 2
        ta_node = t_node.children["a"]
        assert ta_node.tag_counts[nn] == 2
        # Then the paths split on "c" vs "b".
        assert ta_node.children["c"].tag_counts[nn] == 1
        assert ta_node.children["b"].tag_counts[nn] == 1

    def test_frequent_words_excluded(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(corpus, lex, RareWordPolicy())
        at = corpus.tag_set.index_of("AT")
        assert trie.root.tag_counts[at] == 0
        assert "e" not in trie.root.children

    def test_bow_marker_terminates_full_words(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(corpus, lex, RareWordPolicy())
        node = trie.root
        for letter in ["t", "a", "c", BOW_LETTER]:
            node = node.children[letter]
        assert node.tag_counts[corpus.tag_set.index_of("NN")] == 1
        assert not node.children

    def test_child_counts_never_exceed_parent(self):
        train = synthesize_corpus(SynthesisConfig(num_tags=4, vocab_size=120,
                                                  num_train_tokens=1500,
                                                  num_test_tokens=100, seed=8))[0]
        lex = build_lexicon(train)
        trie = build_suffix_trie(train, lex, RareWordPolicy())
        for node in trie.iter_nodes():
            child_sum = sum(c.tag_counts for c in node.children.values())
            if node.children:
                assert np.all(np.asarray(child_sum) <= node.tag_counts)

    def test_max_suffix_limits_depth(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(corpus, lex, RareWordPolicy(max_suffix_length=2))
        def depth(node):
            if not node.children:
                return 0
            return 1 + max(depth(c) for c in node.children.values())
        assert depth(trie.root) <= 2

    def test_raising_threshold_adds_words(self):
        corpus = parse_corpus("\n".join(["the\tAT"] * 12 + ["cat\tNN"]) + "\n\n")
        lex = build_lexicon(corpus)
        low = build_suffix_trie(corpus, lex, RareWordPolicy(frequency_threshold=10))
        high = build_suffix_trie(corpus, lex, RareWordPolicy(frequency_threshold=20))
        at = corpus.tag_set.index_of("AT")
        assert low.root.tag_counts[at] == 0
        assert high.root.tag_counts[at] == 12

    def test_node_total(self):
        node = SuffixTrieNode("x", np.array([1, 2, 3]))
        assert node.node_total == 6

    def test_empty_trie_iterates_root_only(self):
        trie = SuffixTrie(num_tags=2, root=SuffixTrieNode(None, np.zeros(2, dtype=np.int64)))
        assert list(trie.iter_nodes()) == [trie.root]
