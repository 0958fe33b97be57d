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
    RareWordPolicy,
    SuffixTrie,
    build_lexicon,
    build_suffix_trie,
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
        assert table.tag_set == corpus.tag_set
        rows = dict(zip(table.contexts, table.counts))
        # Contexts: sentence start, then A, then B.
        np.testing.assert_array_equal(rows[(BOUNDARY,)], [1, 0])
        np.testing.assert_array_equal(rows[(0,)], [0, 1])
        np.testing.assert_array_equal(rows[(1,)], [1, 0])
        # Unigram context is always present, as row 0.
        assert table.contexts[0] == ()
        np.testing.assert_array_equal(table.counts[0], [2, 1])
        assert table.counts[0].sum() == 3

    def test_trigram_boundary_padding(self):
        corpus = parse_corpus("x\tA\ny\tB\n\n")
        table = count_ngrams(corpus, 3)
        rows = dict(zip(table.contexts, table.counts))
        np.testing.assert_array_equal(rows[(BOUNDARY, BOUNDARY)], [1, 0])
        np.testing.assert_array_equal(rows[(BOUNDARY, 0)], [0, 1])
        assert (0, 1) not in rows  # nothing follows the last token

    def test_marginalization_identity(self):
        # Summing order-k counts over all observed one-step extensions of the
        # context recovers the order-(k-1) counts exactly.
        train = synthesize_corpus(SynthesisConfig(num_tags=4, vocab_size=50,
                                                  num_train_tokens=2000,
                                                  num_test_tokens=100, seed=13))[0]
        table = count_ngrams(train, 3)
        rows = dict(zip(table.contexts, table.counts))
        for k in (1, 2):
            shorter = {}
            for ctx, vec in rows.items():
                if len(ctx) != k:
                    continue
                tail = ctx[1:]
                shorter[tail] = shorter.get(tail, 0) + vec
            for tail, vec in shorter.items():
                np.testing.assert_array_equal(vec, rows[tail])

    def test_context_count_examples(self):
        corpus = parse_corpus("x\tA\ny\tB\nz\tA\n\n")
        table = count_ngrams(corpus, 2)
        totals = dict(zip(table.contexts, table.counts.sum(axis=1).tolist()))
        assert totals[()] == 3
        assert totals[(0,)] == 1
        assert totals[(1,)] == 1
        assert totals[(BOUNDARY,)] == 1
        assert (5,) not in totals  # never observed

    def test_totals_match_vector_sums(self):
        train = synthesize_corpus(SynthesisConfig(num_tags=3, vocab_size=30,
                                                  num_train_tokens=600,
                                                  num_test_tokens=100, seed=4))[0]
        table = count_ngrams(train, 3)
        # Every token has one context of each length, and only observed
        # contexts are stored.
        lengths = np.array([len(ctx) for ctx in table.contexts])
        totals = table.counts.sum(axis=1)
        assert (totals > 0).all()
        for length in range(3):
            assert totals[lengths == length].sum() == train.num_tokens

    def test_contexts_of_length(self):
        corpus = parse_corpus("x\tA\ny\tB\nz\tA\n\n")
        table = count_ngrams(corpus, 2)
        assert table.contexts == ((), (BOUNDARY,), (0,), (1,))

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
        np.testing.assert_array_equal(lex["cat"], [2, 1])
        assert lex.total("cat") == 3
        assert lex.total("dog") == 1
        assert lex.total("fish") == 0
        # The benchmark harness reads ``entries`` with get, in, iteration and len.
        entries = lex.entries
        assert entries.get("cat").tolist() == [2, 1] and entries.get("fish") is None
        assert "dog" in entries and "fish" not in entries
        assert list(entries) == ["cat", "dog"] and len(entries) == 2

    def test_empty_corpus_gives_empty_lexicon(self):
        lex = build_lexicon(parse_corpus(""))
        assert len(lex) == 0
        assert lex.words == () and lex.counts.shape == (0, 0)


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
        trie = build_suffix_trie(lex, RareWordPolicy())
        nn = corpus.tag_set.index_of("NN")
        # Root pools every rare token.
        assert trie.counts[0, nn] == 2
        # "t" and "ta" prefixes of both reversed words share counts.
        assert trie.counts[walk(trie, "t"), nn] == 2
        assert trie.counts[walk(trie, "ta"), nn] == 2
        # Then the paths split on "c" vs "b".
        assert trie.counts[walk(trie, "tac"), nn] == 1
        assert trie.counts[walk(trie, "tab"), nn] == 1

    def test_frequent_words_excluded(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(lex, RareWordPolicy())
        at = corpus.tag_set.index_of("AT")
        assert trie.counts[0, at] == 0
        assert trie.child(0, "e") is None

    def test_bow_marker_terminates_full_words(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(lex, RareWordPolicy())
        node = walk(trie, ["t", "a", "c", BOW_LETTER])
        assert trie.counts[node, corpus.tag_set.index_of("NN")] == 1
        assert not child_ids(trie, node)

    def test_child_counts_never_exceed_parent(self):
        train = synthesize_corpus(SynthesisConfig(num_tags=4, vocab_size=120,
                                                  num_train_tokens=1500,
                                                  num_test_tokens=100, seed=8))[0]
        lex = build_lexicon(train)
        trie = build_suffix_trie(lex, RareWordPolicy())
        for node in trie.iter_nodes():
            children = child_ids(trie, node)
            if children:
                assert np.all(trie.counts[children].sum(axis=0) <= trie.counts[node])

    def test_max_suffix_limits_depth(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(lex, RareWordPolicy(max_suffix_length=2))
        def depth(node):
            if not child_ids(trie, node):
                return 0
            return 1 + max(depth(c) for c in child_ids(trie, node))
        assert depth(0) <= 2

    def test_raising_threshold_adds_words(self):
        corpus = parse_corpus("\n".join(["the\tAT"] * 12 + ["cat\tNN"]) + "\n\n")
        lex = build_lexicon(corpus)
        at = corpus.tag_set.index_of("AT")
        # "the" occurs 12 times: rare only under a threshold above 12.
        for threshold, count in ((10, 0), (12, 0), (13, 12), (20, 12)):
            trie = build_suffix_trie(lex, RareWordPolicy(frequency_threshold=threshold))
            assert trie.counts[0, at] == count

    def test_node_total(self):
        # A node's total, the context count of its smoothing step, is its row sum.
        corpus = self.corpus_with_rare_words()
        trie = build_suffix_trie(build_lexicon(corpus), RareWordPolicy())
        assert [int(trie.counts[walk(trie, path)].sum())
                for path in ("", "t", "ta", "tac", "tab")] == [2, 2, 2, 1, 1]

    def test_empty_trie_iterates_root_only(self):
        trie = SuffixTrie(np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
                          np.zeros(1, dtype=np.int64), np.array([-1]))
        assert list(trie.iter_nodes()) == [0]


def walk(trie, letters):
    """The id of the node reached from the root along the given letters."""
    node = 0
    for letter in letters:
        node = trie.child(node, letter)
        assert node is not None
    return node


def child_ids(trie, node):
    return np.flatnonzero(trie.parents == node).tolist()


# The token-by-token functions the array ones replaced, kept verbatim as the
# reference they must match cell by cell.
def reference_count_ngrams(corpus, order):
    if order < 1:
        raise ValidationError("n-gram order must be at least 1")
    if corpus.num_sentences == 0:
        raise ValidationError("cannot count n-grams of an empty corpus")
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    counts = {}  # context -> outcome counts
    for sent in corpus.sentences:
        padded = [BOUNDARY] * (order - 1) + [index[t.tag] for t in sent]
        for i in range(order - 1, len(padded)):
            outcome = padded[i]
            for k in range(1, order + 1):
                ctx = tuple(padded[i - k + 1:i])
                vec = counts.get(ctx)
                if vec is None:
                    vec = np.zeros(m, dtype=np.int64)
                    counts[ctx] = vec
                vec[outcome] += 1
    return counts


def reference_build_lexicon(corpus):
    """Word -> tag counts, token by token."""
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    lex = {}
    for sent in corpus.sentences:
        for tok in sent:
            vec = lex.get(tok.word)
            if vec is None:
                vec = np.zeros(m, dtype=np.int64)
                lex[tok.word] = vec
            vec[index[tok.tag]] += 1
    return lex


class ReferenceNode:
    """A node of the object trie the flat arrays replaced."""

    def __init__(self, letter, tag_counts):
        self.letter = letter
        self.children = {}
        self.tag_counts = tag_counts


def reference_build_suffix_trie(corpus, lexicon, policy):
    """The object trie, built token by token from a word -> tag counts
    mapping; returns its root node."""
    m = len(corpus.tag_set)
    index = corpus.tag_set.index
    root = ReferenceNode(None, np.zeros(m, dtype=np.int64))
    for sent in corpus.sentences:
        for tok in sent:
            if lexicon[tok.word].sum() >= policy.frequency_threshold:
                continue
            tag = index[tok.tag]
            node = root
            node.tag_counts[tag] += 1
            for letter in reversed_suffix_path(tok.word, policy.max_suffix_length):
                child = node.children.get(letter)
                if child is None:
                    child = ReferenceNode(letter, np.zeros(m, dtype=np.int64))
                    node.children[letter] = child
                node = child
                node.tag_counts[tag] += 1
    return root


def flatten_reference(root):
    """The object trie's nodes in preorder, siblings in sorted letter order,
    as the model file writes them: counts, depths, letters and parent ids."""
    counts, depths, letters, parents = [], [], [], []
    stack = [(root, 0, "", -1)]
    while stack:
        node, depth, letter, parent = stack.pop()
        parents.append(parent)
        stack.extend((node.children[key], depth + 1, key, len(counts))
                     for key in sorted(node.children, reverse=True))
        counts.append(node.tag_counts)
        depths.append(depth)
        letters.append(letter)
    return np.array(counts), np.array(depths, dtype=np.int64), letters, parents


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


def assert_same_table(corpus, order):
    """``count_ngrams`` against the reference: the same counts, with the
    contexts in file order (by length, then by tag indices)."""
    got, expect = count_ngrams(corpus, order), reference_count_ngrams(corpus, order)
    assert got.order == order and got.tag_set == corpus.tag_set
    assert got.contexts == tuple(sorted(expect, key=lambda ctx: (len(ctx), ctx)))
    assert got.contexts[0] == ()
    assert got.counts.dtype == np.int64 and not got.counts.flags.writeable
    for ctx, vec in dict(zip(got.contexts, got.counts)).items():
        np.testing.assert_array_equal(vec, expect[ctx])


def assert_same_trie(got, expect_root):
    counts, depths, letters, parents = flatten_reference(expect_root)
    assert got.counts.dtype == counts.dtype == np.int64
    np.testing.assert_array_equal(got.counts, counts)
    assert got.depths.dtype == depths.dtype
    np.testing.assert_array_equal(got.depths, depths)
    assert got.letters() == letters
    assert got.parents.tolist() == parents
    for node, (parent, letter) in enumerate(zip(parents, letters)):
        if parent >= 0:
            assert got.child(parent, letter) == node


class TestAgainstTokenReference:
    def test_counts_lexicon_and_trie_equal_cell_by_cell(self):
        rng = np.random.default_rng(606)
        for i in range(120):
            corpus = random_corpus(rng, via_text=i % 2 == 0)
            for order in (1, 2, 3, 4):
                assert_same_table(corpus, order)
            lex, ref_lex = build_lexicon(corpus), reference_build_lexicon(corpus)
            assert lex.words == tuple(sorted(ref_lex))
            assert lex.counts.dtype == np.int64 and not lex.counts.flags.writeable
            for word, vec in ref_lex.items():
                np.testing.assert_array_equal(lex[word], vec)
            # Threshold 1 leaves no word rare, so the trie is its root alone;
            # a depth of 3 cuts most words short.
            policy = RareWordPolicy(frequency_threshold=int(rng.integers(1, 6)),
                                    max_suffix_length=int(rng.choice([1, 3, 10])))
            trie = build_suffix_trie(lex, policy)
            assert_same_trie(trie, reference_build_suffix_trie(corpus, ref_lex, policy))
            if policy.frequency_threshold == 1:
                assert list(trie.iter_nodes()) == [0]

    def test_orders_past_64_bit_context_keys(self):
        rng = np.random.default_rng(7)
        corpus = random_corpus(rng, via_text=True)
        k = len(corpus.tag_set)
        order = 2
        while (k + 1) ** (order - 1) * k < 2 ** 63:
            order += 1
        assert_same_table(corpus, order)

    def test_orders_past_the_corpus_length(self):
        corpus = parse_corpus("a\tX\nb\tY\nc\tX\n\nd\tY\n", ("X", "Y", "Z"))
        for order in range(1, 10):
            assert_same_table(corpus, order)

    def test_write_and_digest_match_and_reparse(self):
        rng = np.random.default_rng(11)
        for i in range(40):
            corpus = random_corpus(rng, via_text=i % 2 == 0)
            text = write_corpus(corpus)
            assert text == reference_write_corpus(corpus)
            assert corpus_digest(corpus) == hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert parse_corpus(text, corpus.tag_set.tags) == corpus
