import hashlib

import numpy as np
import pytest

from succabs.corpus import (
    Corpus,
    SynthesisConfig,
    TaggedToken,
    TagSet,
    parse_corpus,
    synthesize_corpus,
    write_corpus,
)
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
from succabs.tagger import corpus_digest


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


# The token-by-token functions the array ones replaced, kept verbatim as the
# reference they must match cell by cell.
def reference_count_ngrams(corpus, order):
    if order < 1:
        raise ValidationError("n-gram order must be at least 1")
    if corpus.num_sentences == 0:
        raise ValidationError("cannot count n-grams of an empty corpus")
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    table = NGramCountTable(order=order, num_tags=m)
    for sent in corpus.sentences:
        padded = [BOUNDARY] * (order - 1) + [index[t.tag] for t in sent]
        for i in range(order - 1, len(padded)):
            outcome = padded[i]
            for k in range(1, order + 1):
                ctx = tuple(padded[i - k + 1:i])
                vec = table.counts.get(ctx)
                if vec is None:
                    vec = np.zeros(m, dtype=np.int64)
                    table.counts[ctx] = vec
                vec[outcome] += 1
    for ctx, vec in table.counts.items():
        table.totals[ctx] = int(vec.sum())
    return table


def reference_build_lexicon(corpus):
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    lex = Lexicon(num_tags=m)
    for sent in corpus.sentences:
        for tok in sent:
            vec = lex.entries.get(tok.word)
            if vec is None:
                vec = np.zeros(m, dtype=np.int64)
                lex.entries[tok.word] = vec
            vec[index[tok.tag]] += 1
    for word, vec in lex.entries.items():
        lex.totals[word] = int(vec.sum())
    return lex


def reference_build_suffix_trie(corpus, lexicon, policy):
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    trie = SuffixTrie(num_tags=m, root=SuffixTrieNode(None, np.zeros(m, dtype=np.int64)))
    for sent in corpus.sentences:
        for tok in sent:
            if lexicon.total(tok.word) >= policy.frequency_threshold:
                continue
            tag = index[tok.tag]
            node = trie.root
            node.tag_counts[tag] += 1
            for letter in reversed_suffix_path(tok.word, policy.max_suffix_length):
                child = node.children.get(letter)
                if child is None:
                    child = SuffixTrieNode(letter, np.zeros(m, dtype=np.int64))
                    node.children[letter] = child
                node = child
                node.tag_counts[tag] += 1
    return trie


def reference_write_corpus(corpus):
    blocks = ["\n".join(f"{t.word}\t{t.tag}" for t in sent) for sent in corpus.sentences]
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


# Letters include non-ASCII ones, a code point outside the BMP and a NUL,
# so words are not plain byte strings.
_LETTERS = ["a", "b", "c", "é", "ß", "\U0001f600", "\x00"]


def random_corpus(rng, via_text):
    """A seeded corpus of one- to six-token sentences over 2-5 tags, one of
    them declared but never used, with words of 1 to 14 letters."""
    num_tags = int(rng.integers(2, 6))
    tags = [f"T{i}" for i in range(num_tags)]
    vocab = sorted({"".join(_LETTERS[j] for j in rng.integers(len(_LETTERS),
                                                              size=int(rng.integers(1, 15))))
                    for _ in range(int(rng.integers(3, 30)))})
    sentences = []
    for _ in range(int(rng.integers(1, 25))):
        n = int(rng.integers(1, 7))
        sentences.append([(vocab[int(rng.integers(len(vocab)))],
                           tags[int(rng.integers(num_tags - 1))]) for _ in range(n)])
    tag_set = TagSet(tuple(tags))
    if via_text:
        text = "\n\n".join("\n".join(f"{w}\t{t}" for w, t in s) for s in sentences) + "\n"
        return parse_corpus(text, declared_tags=tags)
    return Corpus(tuple(tuple(TaggedToken(w, t) for w, t in s) for s in sentences), tag_set)


def assert_same_table(got, expect):
    assert (got.order, got.num_tags) == (expect.order, expect.num_tags)
    assert got.counts.keys() == expect.counts.keys()
    for ctx, vec in expect.counts.items():
        assert got.counts[ctx].dtype == vec.dtype
        np.testing.assert_array_equal(got.counts[ctx], vec)
    assert got.totals == expect.totals


def assert_same_trie_node(got, expect):
    assert got.letter == expect.letter
    assert got.tag_counts.dtype == expect.tag_counts.dtype
    np.testing.assert_array_equal(got.tag_counts, expect.tag_counts)
    assert got.children.keys() == expect.children.keys()
    for letter, child in expect.children.items():
        assert_same_trie_node(got.children[letter], child)


class TestAgainstTokenReference:
    def test_counts_lexicon_and_trie_equal_cell_by_cell(self):
        rng = np.random.default_rng(606)
        for i in range(120):
            corpus = random_corpus(rng, via_text=i % 2 == 0)
            for order in (1, 2, 3, 4):
                assert_same_table(count_ngrams(corpus, order),
                                  reference_count_ngrams(corpus, order))
            lex, ref_lex = build_lexicon(corpus), reference_build_lexicon(corpus)
            assert list(lex.entries) == list(ref_lex.entries)
            for word, vec in ref_lex.entries.items():
                assert lex.entries[word].dtype == vec.dtype
                np.testing.assert_array_equal(lex.entries[word], vec)
            assert lex.totals == ref_lex.totals
            # Threshold 1 leaves no word rare, so the trie is its root alone;
            # a depth of 3 cuts most words short.
            policy = RareWordPolicy(frequency_threshold=int(rng.integers(1, 6)),
                                    max_suffix_length=int(rng.choice([1, 3, 10])))
            trie = build_suffix_trie(corpus, lex, policy)
            assert_same_trie_node(trie.root,
                                  reference_build_suffix_trie(corpus, ref_lex, policy).root)
            if policy.frequency_threshold == 1:
                assert list(trie.iter_nodes()) == [trie.root]

    def test_orders_past_64_bit_context_keys(self):
        rng = np.random.default_rng(7)
        corpus = random_corpus(rng, via_text=True)
        k = len(corpus.tag_set)
        order = 2
        while (k + 1) ** (order - 1) * k < 2 ** 63:
            order += 1
        assert_same_table(count_ngrams(corpus, order), reference_count_ngrams(corpus, order))

    def test_orders_past_the_corpus_length(self):
        corpus = parse_corpus("a\tX\nb\tY\nc\tX\n\nd\tY\n", ("X", "Y", "Z"))
        for order in range(1, 10):
            assert_same_table(count_ngrams(corpus, order), reference_count_ngrams(corpus, order))

    def test_write_and_digest_match_and_reparse(self):
        rng = np.random.default_rng(11)
        for i in range(40):
            corpus = random_corpus(rng, via_text=i % 2 == 0)
            text = write_corpus(corpus)
            assert text == reference_write_corpus(corpus)
            assert corpus_digest(corpus) == hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert parse_corpus(text, corpus.tag_set.tags) == corpus
