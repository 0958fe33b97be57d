import hashlib

import numpy as np
import pytest

import succabs.counts
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
    _LETTER_CODES,
    BOUNDARY,
    BOW_LETTER,
    Lexicon,
    NGramCountTable,
    RareWordPolicy,
    SparseRows,
    SuffixTrie,
    _suffix_paths,
    build_lexicon,
    build_suffix_trie,
    count_ngrams,
)
from succabs.errors import ValidationError
from succabs.smoothing import interpolation_loglik_objective
from succabs.tagger import corpus_digest

from lexical_oracle import (
    children,
    letters,
    lexsort_suffix_trie,
    path_nodes,
    reversed_suffix_path,
    sparse_rows,
)


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

    def test_non_integer_order_rejected(self):
        corpus = parse_corpus("a\tX\nb\tY\n\n")
        for bad in (2.5, 3.0, "3", None):
            with pytest.raises(ValidationError, match=f"^order must be an integer, not {bad!r}$"):
                count_ngrams(corpus, bad)
        for order, plain in ((np.int64(2), 2), (np.uint8(3), 3), (True, 1)):
            table = count_ngrams(corpus, order)
            assert type(table.order) is int and table.order == plain
            assert table.contexts == count_ngrams(corpus, plain).contexts


class TestLexicon:
    def test_counts_and_membership(self):
        corpus = parse_corpus("cat\tNN\ncat\tVB\n\ncat\tNN\ndog\tNN\n\n")
        lex = build_lexicon(corpus)
        assert "cat" in lex
        assert "dog" in lex
        assert "fish" not in lex
        assert len(lex) == 2
        np.testing.assert_array_equal(lex["cat"], [2, 1])
        total = lambda word: int(lex[word].sum()) if word in lex else 0
        assert total("cat") == 3
        assert total("dog") == 1
        assert total("fish") == 0
        # The benchmark harness reads ``entries`` with get, in, iteration and len.
        entries = lex.entries
        assert entries.get("cat").tolist() == [2, 1] and entries.get("fish") is None
        assert "dog" in entries and "fish" not in entries
        assert list(entries) == ["cat", "dog"] and len(entries) == 2

    def test_empty_corpus_gives_empty_lexicon(self):
        lex = build_lexicon(parse_corpus(""))
        assert len(lex) == 0
        assert lex.words == () and len(lex.counts) == 0 and lex.counts.num_tags == 0


def assert_one_word_path(word, depth, path):
    """A one-word trie is the word's path, and the word walks all of it."""
    trie = build_suffix_trie(Lexicon((word,), sparse_rows([[1]])), RareWordPolicy(2, depth))
    assert reversed_suffix_path(word, depth) == path
    assert letters(trie) == [""] + path
    assert trie.depths.tolist() == list(range(len(path) + 1))
    assert trie.parents.tolist() == list(range(-1, len(path)))
    assert path_nodes(trie, word, depth) == list(range(len(path) + 1))
    codes, offsets, lengths = _suffix_paths([word], depth)
    assert offsets.tolist() == [0] and lengths.tolist() == [len(path)]
    assert codes.tolist() == trie.codes[1:].tolist()


class TestReversedSuffixPath:
    def test_word_reversed_with_bow_marker(self):
        assert_one_word_path("cat", 10, ["t", "a", "c", BOW_LETTER])

    def test_single_letter(self):
        assert_one_word_path("a", 10, ["a", BOW_LETTER])

    def test_truncation_to_max_edges(self):
        assert_one_word_path("abcdefghijkl", 4, ["l", "k", "j", "i"])

    def test_exact_length_keeps_marker(self):
        assert_one_word_path("ab", 3, ["b", "a", BOW_LETTER])

    def test_paths_equal_the_letter_rule(self):
        # Many words at once, lone surrogates and NULs included, and depths
        # past any int64.
        rng = np.random.default_rng(31)
        for _ in range(200):
            words = [random_word(rng, int(rng.integers(0, 12)))
                     for _ in range(int(rng.integers(0, 8)))]
            depth = int(rng.choice([1, 2, 5, 13, 10 ** 30]))
            codes, offsets, lengths = _suffix_paths(words, depth)
            assert codes.dtype == offsets.dtype == lengths.dtype == np.int64
            assert len(codes) == int(lengths.sum())
            for word, at, length in zip(words, offsets.tolist(), lengths.tolist()):
                assert codes[at:at + length].tolist() == [
                    ord(letter) + 1 if letter else 0
                    for letter in reversed_suffix_path(word, depth)]


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

    def test_values_must_be_integers(self):
        for values in [(2.5, 3), (10, 2.0), ("3", 3), (None, 3)]:
            with pytest.raises(ValidationError, match="must be an integer, not "):
                RareWordPolicy(*values)
        policy = RareWordPolicy(True, np.int64(3))
        assert (policy.frequency_threshold, policy.max_suffix_length) == (1, 3)
        assert type(policy.frequency_threshold) is int is type(policy.max_suffix_length)


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
        assert trie.counts.rows([0])[0, nn] == 2
        # "t" and "ta" prefixes of both reversed words share counts.
        assert trie.counts.rows([walk(trie, "t")])[0, nn] == 2
        assert trie.counts.rows([walk(trie, "ta")])[0, nn] == 2
        # Then the paths split on "c" vs "b".
        assert trie.counts.rows([walk(trie, "tac")])[0, nn] == 1
        assert trie.counts.rows([walk(trie, "tab")])[0, nn] == 1

    def test_frequent_words_excluded(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(lex, RareWordPolicy())
        at = corpus.tag_set.index_of("AT")
        assert trie.counts.rows([0])[0, at] == 0
        assert (0, "e") not in children(trie)

    def test_bow_marker_terminates_full_words(self):
        corpus = self.corpus_with_rare_words()
        lex = build_lexicon(corpus)
        trie = build_suffix_trie(lex, RareWordPolicy())
        node = walk(trie, ["t", "a", "c", BOW_LETTER])
        assert trie.counts.rows([node])[0, corpus.tag_set.index_of("NN")] == 1
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
                assert np.all(trie.counts.rows(children).sum(axis=0)
                              <= trie.counts.rows([node])[0])

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
            assert trie.counts.rows([0])[0, at] == count

    def test_node_total(self):
        # A node's total, the context count of its smoothing step, is its row sum.
        corpus = self.corpus_with_rare_words()
        trie = build_suffix_trie(build_lexicon(corpus), RareWordPolicy())
        assert [int(trie.counts.rows([walk(trie, path)]).sum())
                for path in ("", "t", "ta", "tac", "tab")] == [2, 2, 2, 1, 1]

    def test_pooled_counts_past_int64_rejected(self):
        # Each rare row fits int64, but the root's pooled sums would wrap to
        # [2**63 - 2, 1], below its children's counts.
        top = 2 ** 63 - 1
        policy = RareWordPolicy(2 ** 63, 10)
        lex = Lexicon(("a", "b", "c", "d"),
                      sparse_rows(np.array([[top, 0], [top, 0], [top, 0], [1, 1]], dtype=np.int64)))
        with pytest.raises(ValidationError, match="rare words sum past 2\\*\\*63 - 1"):
            build_suffix_trie(lex, policy)
        # A pooled total of exactly 2**63 - 1 still builds.
        lex = Lexicon(("a", "b"),
                      sparse_rows(np.array([[2 ** 62, 0], [2 ** 62 - 2, 1]], dtype=np.int64)))
        assert build_suffix_trie(lex, policy).counts.rows([0])[0].tolist() == [top - 1, 1]

    def test_empty_trie_iterates_root_only(self):
        trie = SuffixTrie(sparse_rows(np.zeros((1, 2), dtype=np.int64)),
                          np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.array([-1]))
        assert list(trie.iter_nodes()) == [0]


def walk(trie, letters):
    """The id of the node reached from the root along the given letters."""
    edges = children(trie)
    node = 0
    for letter in letters:
        node = edges[node, letter]
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


def reference_table(corpus, order):
    """The reference counts as an ``NGramCountTable``, at any order."""
    counts = reference_count_ngrams(corpus, order)
    contexts = tuple(sorted(counts, key=lambda ctx: (len(ctx), ctx)))
    return NGramCountTable(order, corpus.tag_set, contexts,
                           np.array([counts[ctx] for ctx in contexts]))


def assert_same_trie(got, expect_root):
    counts, depths, edge_letters, parents = flatten_reference(expect_root)
    assert_sparse_rows(got.counts, len(got.depths))
    got_counts = got.counts.rows(np.arange(len(got.depths)))
    assert got_counts.dtype == counts.dtype == np.int64
    np.testing.assert_array_equal(got_counts, counts)
    assert got.depths.dtype == depths.dtype
    np.testing.assert_array_equal(got.depths, depths)
    assert letters(got) == edge_letters
    assert got.parents.tolist() == parents
    assert_edges_found(got)


def assert_edges_found(trie):
    """Each node's edge key leads to it, and no two edges share a key."""
    keys = trie.parents[1:] * _LETTER_CODES + trie.codes[1:]
    assert trie.edge_keys.tolist() == sorted(keys.tolist())
    assert len(set(keys.tolist())) == len(keys)
    found = trie.edge_nodes[np.searchsorted(trie.edge_keys, keys)]
    assert found.tolist() == list(range(1, len(trie.codes)))


# A lone surrogate is a letter to the trie, though no corpus file holds one.
_PATH_LETTERS = ["a", "é", "\U0001f600", "\x00", "\ud800"]


def random_word(rng, size):
    return "".join(_PATH_LETTERS[j] for j in rng.integers(len(_PATH_LETTERS), size=size))


class TestAgainstLexsortBuilder:
    def test_same_arrays_as_the_lexsort_builder(self):
        rng = np.random.default_rng(1616)
        for i in range(300):
            words = sorted({random_word(rng, int(rng.integers(1, 6 if i % 2 else 40)))
                            for _ in range(int(rng.integers(0, 40)))})
            num_tags = int(rng.integers(1, 5))
            counts = rng.integers(0, 4, size=(len(words), num_tags))
            counts[np.arange(len(words)), rng.integers(num_tags, size=len(words))] += 1
            lex = Lexicon(tuple(words), sparse_rows(counts.astype(np.int64)))
            policy = RareWordPolicy(int(rng.integers(1, 8)), int(rng.integers(1, 101)))
            assert_same_arrays(build_suffix_trie(lex, policy), lexsort_suffix_trie(lex, policy))
        empty = Lexicon((), sparse_rows(np.zeros((0, 0), dtype=np.int64)))
        assert_same_arrays(build_suffix_trie(empty, RareWordPolicy()),
                           lexsort_suffix_trie(empty, RareWordPolicy()))

    def test_arrays_are_read_only(self):
        lex = Lexicon(("ab", "b"), sparse_rows(np.array([[1, 0], [0, 2]], dtype=np.int64)))
        trie = build_suffix_trie(lex, RareWordPolicy())
        # No dense matrix behind either one's sparse rows.
        assert type(trie.counts) is type(lex.counts) is SparseRows
        owners = [(trie, ("depths", "codes", "parents", "edge_keys", "edge_nodes"))]
        owners += [(rows, ("indptr", "tags", "values")) for rows in (trie.counts, lex.counts)]
        for owner, names in owners:
            for name in names:
                array = getattr(owner, name)
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
                with pytest.raises(AttributeError):
                    setattr(owner, name, array.copy())


def sparse_row_cases(rows):
    """Each way to break a set of sparse rows with a row of two tags, by the
    ``ValidationError`` message it must raise: message -> the changed
    ``SparseRows`` fields."""
    indptr, tags, values = rows.indptr, rows.tags, rows.values
    n, k = len(tags), rows.num_tags
    two = int(np.flatnonzero(np.diff(indptr) == 2)[0])  # a row with two tags
    swapped = tags.copy()
    swapped[indptr[two]:indptr[two] + 2] = swapped[indptr[two]:indptr[two] + 2][::-1]
    repeated = tags.copy()
    repeated[indptr[two] + 1] = repeated[indptr[two]]
    dipping = indptr.copy()
    dipping[1], dipping[2] = indptr[2], indptr[1] - 1
    return {
        "indptr must start at 0, never": dict(indptr=np.zeros(0, dtype=np.int64)),
        f"hold {n} tags but {n - 1} values": dict(values=values[1:]),
        "indptr must start at 0": dict(indptr=indptr + 1),
        f"end at its {n} counts": dict(indptr=np.append(indptr[:-1], n - 1)),
        "never decrease": dict(indptr=dipping),
        f"tags must lie in \\[0, {k}\\)": dict(tags=np.where(tags == k - 1, k, tags)),
        f"must lie in \\[0, {k - 1}\\)": dict(num_tags=k - 1),
        "must lie": dict(tags=np.where(tags == 0, -1, tags)),
        "ascend within each row": dict(tags=swapped),
        "ascend within": dict(tags=repeated),
        "counts must be positive": dict(values=np.where(values == values.max(), 0, values)),
        "must be positive": dict(values=-values),
        "one-dimensional integers": dict(values=values.astype(float)),
        "arrays must be one": dict(tags=tags[None, :]),
    }


def with_fields(rows, **fields):
    """``SparseRows`` of copies of the rows' arrays, but for the given fields."""
    arrays = {name: getattr(rows, name).copy() for name in ("indptr", "tags", "values")}
    return SparseRows(**{**arrays, "num_tags": rows.num_tags, **fields})


class TestSuffixTrieChecks:
    def trie(self):
        # Seven nodes with 12 nonzero counts, rows of three, two and one
        # tags, so every rule has a cell to break.
        lex = Lexicon(("ab", "b", "cb"), sparse_rows(np.array([[1, 0, 0], [2, 1, 0], [0, 0, 1]],
                                                              dtype=np.int64)))
        return build_suffix_trie(lex, RareWordPolicy())

    def with_arrays(self, counts=None, **arrays):
        trie = self.trie()
        fields = {name: getattr(trie, name).copy() for name in ("depths", "codes", "parents")}
        return SuffixTrie(with_fields(trie.counts) if counts is None else counts,
                          **{**fields, **arrays})

    def test_built_trie_holds_the_invariants(self):
        trie = self.trie()
        assert_sparse_rows(trie.counts, len(trie.depths))
        assert trie.counts.rows([0]).tolist() == [[3, 1, 1]]
        assert len(set(np.diff(trie.counts.indptr).tolist())) > 1  # rows of different sizes

    def test_arrays_that_disagree_rejected(self):
        trie = self.trie()
        assert len(trie.counts.tags) == 12
        empty = with_fields(trie.counts, indptr=np.zeros(1, dtype=np.int64),
                            tags=trie.counts.tags[:0], values=trie.counts.values[:0])
        cases = {
            "a suffix trie needs a root": dict(counts=empty),
            "depths holds 3 entries for 7 nodes": dict(depths=trie.depths[:3]),
            "codes holds": dict(codes=np.append(trie.codes, 1)),
            "parents holds": dict(parents=trie.parents[1:]),
            "a suffix trie's arrays must be one-dimensional": dict(depths=trie.depths[None, :]),
            "must be one-dimensional integers": dict(codes=trie.codes.astype(float)),
        }
        for message, arrays in cases.items():
            with pytest.raises(ValidationError, match=message):
                self.with_arrays(**arrays)
        # The count rows' own rules, checked where the trie's rows are made.
        for message, fields in sparse_row_cases(trie.counts).items():
            with pytest.raises(ValidationError, match=f"^sparse rows.*{message}"):
                self.with_arrays(counts=with_fields(trie.counts, **fields))
        assert_sparse_rows(self.with_arrays().counts, len(trie.depths))

    def test_narrow_count_rows_rejected_before_decoding(self):
        # A trie over fewer tags than the model's: rejected where it is made.
        train = parse_corpus("cat\tNN\nran\tVB\nthe\tDT\n\n")
        trie = build_suffix_trie(build_lexicon(train), RareWordPolicy())
        assert trie.counts.num_tags == 3 and trie.counts.tags.max() == 2
        with pytest.raises(ValidationError, match="must lie in \\[0, 2\\)"):
            SuffixTrie(with_fields(trie.counts, num_tags=2), trie.depths, trie.codes,
                       trie.parents)


def assert_same_arrays(got, expect):
    """A built trie against the lexsort builder's dense counts and arrays."""
    assert_sparse_rows(got.counts, len(got.depths))
    counts = got.counts.rows(np.arange(len(got.depths)))
    assert counts.dtype == expect.counts.dtype and counts.shape == expect.counts.shape
    np.testing.assert_array_equal(counts, expect.counts)
    for name in ("depths", "codes", "parents"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b)
    assert_edges_found(got)


def assert_sparse_rows(rows, count):
    """``count`` rows: ``indptr`` starts at 0, never decreases and ends at
    ``len(tags)``; tags ascend within each row and lie in [0, K); values are
    positive int64."""
    indptr, tags, values = rows.indptr, rows.tags, rows.values
    assert len(rows) == count and len(indptr) == count + 1
    assert indptr[0] == 0 and indptr[-1] == len(tags) == len(values)
    assert (np.diff(indptr) >= 0).all()
    assert ((tags >= 0) & (tags < rows.num_tags)).all()
    row = np.repeat(np.arange(count), np.diff(indptr))
    assert (np.diff(row * rows.num_tags + tags) > 0).all()
    assert values.dtype == np.int64 and (values > 0).all()


class TestLexiconChecks:
    def lexicon(self):
        # Rows of one and two tags.
        return build_lexicon(parse_corpus("b\tX\na\tX\na\tY\nc\tZ\na\tX\n\n"))

    def test_built_lexicon_holds_the_invariants(self):
        lex = self.lexicon()
        assert lex.words == ("a", "b", "c")
        assert_sparse_rows(lex.counts, 3)
        assert lex.counts.rows([0, 1, 2]).tolist() == [[2, 1, 0], [1, 0, 0], [0, 0, 1]]

    def test_sparse_row_rules_hold_for_the_lexicon(self):
        # The same rules as the trie's rows, raised by the same type.
        lex = self.lexicon()
        for message, fields in sparse_row_cases(lex.counts).items():
            with pytest.raises(ValidationError, match=f"^sparse rows.*{message}"):
                Lexicon(lex.words, with_fields(lex.counts, **fields))
        assert Lexicon(lex.words, with_fields(lex.counts)).words == lex.words

    def test_words_that_do_not_match_the_rows_rejected(self):
        two = sparse_rows([[1, 0], [0, 2]])
        for words, message in ((("a", "b", "c"), "^3 words but 2 count rows$"),
                               (("a",), "^1 words but 2 count rows$"),
                               (("a", "a"), "^duplicate word 'a'$"),
                               (("b", "a"), "^word 'a' is out of order")):
            with pytest.raises(ValidationError, match=message):
                Lexicon(words, two)
        with pytest.raises(ValidationError, match="^2 words but 1 count rows$"):
            Lexicon(("a", "b"), sparse_rows([[1, 0]]))

    def test_equal_only_to_itself(self):
        # The Mapping comparison of dense rows raised numpy's ValueError for
        # rows of more than one tag, and a Mapping has no hash.
        lex = self.lexicon()
        assert lex == lex and lex != self.lexicon() and lex != dict(lex)
        assert hash(lex) == hash(lex) and len({lex, lex, self.lexicon()}) == 2
        assert set(lex.entries) == {"a", "b", "c"} and lex.entries.get("d") is None

    def test_row_without_counts_rejected(self):
        with pytest.raises(ValidationError, match="^word 'b' has no tag counts$"):
            Lexicon(("a", "b", "c"), sparse_rows([[1, 0], [0, 0], [0, 3]]))
        assert Lexicon((), sparse_rows(np.zeros((0, 2), dtype=np.int64))).index == {}


class TestAgainstTokenReference:
    def test_counts_lexicon_and_trie_equal_cell_by_cell(self):
        rng = np.random.default_rng(606)
        for i in range(120):
            corpus = random_corpus(rng, via_text=i % 2 == 0)
            for order in (1, 2, 3, 4):
                assert_same_table(corpus, order)
            lex, ref_lex = build_lexicon(corpus), reference_build_lexicon(corpus)
            assert lex.words == tuple(sorted(ref_lex))
            assert_sparse_rows(lex.counts, len(ref_lex))
            got = lex.counts.rows(np.arange(len(lex)))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, [ref_lex[word] for word in lex.words])
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

    def test_orders_past_64_bit_context_keys(self, monkeypatch):
        # Keys are int64: the first order whose keys would pass it is
        # rejected by counting and by the objective, and the largest order
        # the bound accepts still counts exactly.
        rng = np.random.default_rng(7)
        corpus = random_corpus(rng, via_text=True)
        k = len(corpus.tag_set)
        order = 2
        while (k + 1) ** (order - 1) * k < 2 ** 63:
            order += 1
        for max_axes in (32, 64):  # numpy's axis limit before 2.0 and from it
            monkeypatch.setattr(succabs.counts, "_MAX_AXES", max_axes)
            with pytest.raises(ValidationError):
                count_ngrams(corpus, order)
            with pytest.raises(ValidationError):
                interpolation_loglik_objective(reference_table(corpus, order), corpus)

            def fits(n):  # the index's axes, its bytes and the count keys
                cells = (k + 1) ** (n - 1)
                return (n - 1 <= max_axes and cells * 8 <= np.iinfo(np.intp).max
                        and cells * k < 2 ** 63)

            largest = max(n for n in range(1, order) if fits(n))
            assert_same_table(corpus, largest)
            with pytest.raises(ValidationError):
                count_ngrams(corpus, largest + 1)

    def test_orders_no_index_can_hold_rejected_on_a_short_corpus(self, monkeypatch):
        # Four tokens hold few contexts even at these orders, but no model
        # of them could be decoded.
        corpus = parse_corpus("a\tX\nb\tY\n\nb\tY\na\tX\n")
        for max_axes in (32, 64):  # numpy's axis limit before 2.0 and from it
            monkeypatch.setattr(succabs.counts, "_MAX_AXES", max_axes)
            for order in (66, 70):
                message = f"^an order-{order} model needs a transition index of {order - 1} axes"
                with pytest.raises(ValidationError, match=message):
                    count_ngrams(corpus, order)
                with pytest.raises(ValidationError, match=message):
                    interpolation_loglik_objective(reference_table(corpus, order), corpus)

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
