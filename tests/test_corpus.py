import copy
import dataclasses
import hashlib
import io
import pickle
import random
import sys
import tracemalloc

import numpy as np
import pytest

import succabs.corpus as corpus_module
from succabs.corpus import (
    Corpus,
    SynthesisConfig,
    TagSet,
    TaggedToken,
    parse_corpus,
    split_corpus,
    synthesize_corpus,
    write_corpus,
)
from succabs.counts import count_ngrams
from succabs.errors import CorpusParseError, ValidationError
from succabs.tagger import corpus_digest, train_model


class TestTagSet:
    def test_index_round_trip(self):
        ts = TagSet(("NN", "VB", "AT"))
        assert ts.index["VB"] == 1
        assert ts.tags[2] == "AT"
        assert len(ts) == 3

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValidationError):
            TagSet(("NN", "NN"))

    def test_tab_in_symbol_rejected(self):
        with pytest.raises(ValidationError):
            TagSet(("N\tN",))

    def test_bare_str_rejected(self):
        # A str is a sequence of letters: "AB" would be the tags 'A' and 'B'.
        with pytest.raises(ValidationError, match="not the str 'AB'"):
            TagSet("AB")

    def test_tags_stored_as_a_tuple(self):
        listed = TagSet(["A", "B"])
        assert listed.tags == ("A", "B")
        assert listed == TagSet(("A", "B"))
        assert hash(listed) == hash(TagSet(("A", "B")))
        corpus = Corpus([[TaggedToken("a", "A")]], listed)
        assert hash(corpus) == hash(Corpus([[TaggedToken("a", "A")]], TagSet(("A", "B"))))


class TestParseCorpus:
    def test_two_token_sentence(self):
        corpus = parse_corpus("the\tAT\ncat\tNN\n\n")
        assert corpus.num_sentences == 1
        assert corpus.num_tokens == 2
        assert corpus.sentences[0][0] == TaggedToken("the", "AT")
        assert corpus.sentences[0][1] == TaggedToken("cat", "NN")
        assert corpus.tag_set.tags == ("AT", "NN")

    def test_empty_input_is_empty_corpus(self):
        corpus = parse_corpus("")
        assert corpus.num_sentences == 0
        assert corpus.num_tokens == 0

    def test_missing_final_blank_line_accepted(self):
        corpus = parse_corpus("a\tX")
        assert corpus.num_sentences == 1

    def test_multiple_sentences_and_tag_order(self):
        corpus = parse_corpus("b\tT2\n\na\tT1\n\n")
        # Tag inventory is sorted, not first-seen.
        assert corpus.tag_set.tags == ("T1", "T2")
        assert corpus.num_sentences == 2

    def test_consecutive_blank_lines_collapse(self):
        corpus = parse_corpus("a\tX\n\n\n\nb\tX\n\n")
        assert corpus.num_sentences == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(CorpusParseError) as err:
            parse_corpus("a\tX\nbroken line here extra\n\n")
        assert "line 2" in str(err.value)

    def test_missing_tag_reports_line_number(self):
        with pytest.raises(CorpusParseError) as err:
            parse_corpus("a\tX\n\nword-without-tab\n\n")
        assert "line 3" in str(err.value)

    def test_declared_tags_enforced(self):
        corpus = parse_corpus("a\tX\n\n", declared_tags=("X", "Y"))
        assert corpus.tag_set.tags == ("X", "Y")
        with pytest.raises(CorpusParseError):
            parse_corpus("a\tZ\n\n", declared_tags=("X", "Y"))

    def test_non_text_sources_rejected(self, tmp_path):
        # The parser takes the corpus text; a stream, a file, lines or bytes
        # are each a ValidationError, not an AttributeError from inside.
        text = "a\tX\nb\tY\n\n"
        path = tmp_path / "corpus.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as fh:
            sources = {"StringIO": io.StringIO(text), "TextIOWrapper": fh,
                       "list": text.split("\n"), "bytes": text.encode("utf-8")}
            for kind, source in sources.items():
                with pytest.raises(ValidationError,
                                   match=f"^parse_corpus takes the text as a str, not {kind}$"):
                    parse_corpus(source)


def parse_or_error_line(source):
    try:
        return parse_corpus(source)
    except CorpusParseError as err:
        return err.line


def file_text(text, path):
    """The text written to a file and read back without newline
    translation, as ``succabs train`` reads a corpus."""
    path.write_text(text, encoding="utf-8", errors="surrogatepass", newline="")
    with open(path, encoding="utf-8", errors="surrogatepass", newline="") as fh:
        return fh.read()


def each_source(text, tmp_path):
    """The parse of the text as a str and as a file's text."""
    return [parse_or_error_line(text),
            parse_or_error_line(file_text(text, tmp_path / "corpus.tsv"))]


class TestLineSplitting:
    def test_every_source_splits_at_lf_only(self, tmp_path):
        # str.splitlines() would also break at each of these characters.
        texts = [
            "a\u2028b\tX\nc\tY\n\n",
            "a\x0bb\tX\n\nc\x0cd\tY\n",
            "w\x85\tX\r\n# c\x1co\x1dm\x1e\nv\tY\r\n",
            "a b\tX\u2028c\tY\n\n",
            "a\tX\n\nb\tY\x0bc\tZ\n",
        ]
        for text in texts:
            results = each_source(text, tmp_path)
            assert all(r == results[0] for r in results[1:]), (text, results)
        assert parse_corpus(texts[0]).sentences[0][0].word == "a\u2028b"
        assert each_source(texts[3], tmp_path)[0] == 1
        assert each_source(texts[4], tmp_path)[0] == 3

    @pytest.mark.parametrize("text, line", [
        ("a\rb\tX\n", 1),
        ("a\tX\rY\n", 1),
        ("a\tX\n\nb\tY\n\u2028c\rd\tX\r\n", 4),
        ("a\tX\n# note\nb\tX\rY\r\n", 3),
    ])
    def test_cr_inside_word_or_tag_is_a_parse_error(self, text, line, tmp_path):
        assert each_source(text, tmp_path) == [line] * 2
        with pytest.raises(CorpusParseError, match="CR or LF"):
            parse_corpus(text)

    @pytest.mark.parametrize("text, line", [
        ("a\ud800\tX\n", 1),
        ("a\tX\n\nb\tT\udfff1\n", 3),
    ])
    def test_lone_surrogate_is_a_parse_error(self, text, line):
        # Neither the corpus digest nor a model file could be written.
        with pytest.raises(CorpusParseError, match=f"^line {line}: lone surrogate"):
            parse_corpus(text)

    def test_crlf_and_lf_parse_alike(self):
        assert parse_corpus("a\tX\r\nb\tY\r\n\r\nc\tX\r\n") == \
            parse_corpus("a\tX\nb\tY\n\nc\tX\n")


def reference_parse_corpus(source, declared_tags=None):
    """The line-by-line parser the columnar one replaced, as it read a text
    stream, kept as the reference; it returns (word, tag) tuples per
    sentence and the tag set instead of a Corpus."""
    declared = TagSet(tuple(declared_tags)) if declared_tags is not None else None
    sentences = []
    current = []
    observed = set()
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if line.endswith("\r"):
            line = line[:-1]
        if line.startswith("#"):
            continue
        if line == "":
            if current:
                sentences.append(tuple(current))
                current = []
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise CorpusParseError(
                f"expected exactly two tab-separated non-empty fields, got {line!r}", lineno)
        word, tag = fields
        if declared is not None and tag not in declared:
            raise CorpusParseError(f"tag {tag!r} not in declared tag set", lineno)
        observed.add(tag)
        current.append((word, tag))
    if current:
        sentences.append(tuple(current))
    tag_set = declared if declared is not None else TagSet(tuple(sorted(observed)))
    return [list(s) for s in sentences], tag_set


class TestParseAgainstLineReference:
    def test_random_texts_parse_or_fail_alike(self):
        # Comments, runs of blank lines, CRLF endings, repeated lines and,
        # now and then, a malformed or undeclared line.
        rng = np.random.default_rng(77)
        pool = ["a\tX", "b\tY", "a\tY", "c c\tX", "d\tZ", "", "", "# note", "#\tX",
                "\tX", "a\t", "a", "a\tX\tY", "a\tW"]
        for i in range(300):
            picks = rng.integers(len(pool) - (5 if i % 3 else 0), size=int(rng.integers(0, 12)))
            lines = [pool[j] + ("\r" if rng.random() < 0.3 else "") for j in picks]
            text = "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")
            declared = ("X", "Y", "Z") if i % 2 else None
            try:
                expect = reference_parse_corpus(io.StringIO(text), declared)
            except CorpusParseError as err:
                with pytest.raises(CorpusParseError) as got:
                    parse_corpus(text, declared)
                assert (got.value.line, str(got.value)) == (err.line, str(err)), text
                continue
            corpus = parse_corpus(text, declared)
            assert [[(t.word, t.tag) for t in s] for s in corpus.sentences] == expect[0], text
            assert corpus.tag_set == expect[1]
            assert corpus.num_tokens == sum(len(s) for s in expect[0])


def parsed(source, declared=None):
    """The source's Corpus, or its CorpusParseError's message and line."""
    try:
        return parse_corpus(source, declared)
    except CorpusParseError as err:
        return str(err), err.line


class TestBlockBoundaries:
    """The parser reads its source a block of lines at a time.  Wherever
    the blocks are cut, it must give the Corpus that one block gives, or
    fail at the same first bad line with the same message."""

    BAD = ("lonely", "\tX", "a\rb\tX", "a\ud800\tX", "a\tW")  # W is not declared

    @staticmethod
    def cases():
        # Seeded corpora with comments, runs of blank lines, leading and
        # trailing blanks and some CRLF endings, half with a declared tag
        # set; each clean, and with each bad line at every position, so
        # before, on and after every cut of every block size, and a second
        # bad line after it.
        rng = np.random.default_rng(28)
        pool = ["a\tX", "b\tY", "a\tY", "c c\tZ", "d\u2028e\tX", "# note", "#\tX", "", "", ""]
        for case in range(12):
            lines = ([""] * int(rng.integers(0, 3))
                     + [pool[j] for j in rng.integers(len(pool), size=int(rng.integers(1, 20)))]
                     + [""] * int(rng.integers(0, 3)))
            declared = ("X", "Y", "Z") if case % 2 else None
            variants = [lines] + [lines[:at] + [bad] + lines[at:] + ["x\ty\tz"]
                                  for bad in TestBlockBoundaries.BAD
                                  for at in range(len(lines) + 1)]
            for variant in variants:
                ends = ["\r\n" if rng.random() < 0.3 else "\n" for _ in variant]
                text = "".join(line + end for line, end in zip(variant, ends))
                yield (text if rng.random() < 0.5 else text[:-len(ends[-1])]), declared

    def test_every_block_size_parses_as_one_block(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.tsv"
        results = 0
        for text, declared in self.cases():
            expected = parsed(text, declared)
            results += isinstance(expected, Corpus)
            sources = (text, file_text(text, path))
            for size in (1, 2, 7, 64):
                monkeypatch.setattr(corpus_module, "_PARSE_CHARS", size)
                for source in sources:
                    got = parsed(source, declared)
                    assert got == expected, (text, size, source)
                    if isinstance(got, Corpus):
                        assert got.vocab == expected.vocab
                        assert got.tag_set.tags == expected.tag_set.tags
            monkeypatch.undo()
        assert results >= 12  # the clean corpora, and bad lines that are not bad undeclared

    def test_default_blocks_of_a_large_text(self):
        # Several default-sized blocks, and a bad line in the last.
        line = "word\tX\r\n"
        count = 3 * corpus_module._PARSE_CHARS // len(line)
        text = line * count + "\n"
        corpus = parse_corpus(text)
        assert corpus.num_tokens == count and corpus.num_sentences == 1
        assert parsed(text + "bad line\n") == (
            f"line {count + 2}: expected exactly two tab-separated non-empty fields, "
            "got 'bad line'", count + 2)


class TestTaggedToken:
    def test_slotted(self):
        token = TaggedToken("word", "TAG")
        assert not hasattr(token, "__dict__")
        assert sys.getsizeof(token) <= 48

    def test_frozen(self):
        token = TaggedToken("word", "TAG")
        with pytest.raises(dataclasses.FrozenInstanceError):
            token.word = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del token.tag

    def test_round_trips(self):
        token = TaggedToken("w\u2028ord", "TAG")
        assert pickle.loads(pickle.dumps(token)) == token
        assert copy.deepcopy(token) == token
        assert copy.copy(token) == token
        assert dataclasses.replace(token, tag="OTHER") == TaggedToken("w\u2028ord", "OTHER")
        with pytest.raises(ValidationError, match="starts with '#'"):
            dataclasses.replace(token, word="#1")


def random_corpus(rng, declared=None):
    """A parsed corpus of 2 to 40 sentences over a few words and tags, most
    words repeated, some under more than one tag."""
    words = [f"w{i}" for i in range(int(rng.integers(1, 12)))]
    tags = declared or ("A", "B", "C")
    sentences = ["".join(f"{words[int(rng.integers(len(words)))]}\t"
                         f"{tags[int(rng.integers(len(tags)))]}\n"
                         for _ in range(int(rng.integers(1, 9))))
                 for _ in range(int(rng.integers(2, 41)))]
    return parse_corpus("\n".join(sentences), declared)


class TestSentencesView:
    def test_one_token_object_per_word_tag_pair(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            corpus = random_corpus(rng)
            tokens = [tok for sentence in corpus.sentences for tok in sentence]
            by_pair = {}
            for tok in tokens:
                assert by_pair.setdefault((tok.word, tok.tag), tok) is tok
            assert len({id(tok) for tok in tokens}) == len(by_pair)
            assert [(tok.word, tok.tag) for tok in tokens] == [
                (corpus.vocab[w], corpus.tag_set.tags[t])
                for w, t in zip(corpus.word_ids.tolist(), corpus.tag_ids.tolist())]
            assert [len(s) for s in corpus.sentences] == np.diff(corpus.offsets).tolist()

    def test_view_holds_its_pairs_and_a_pointer_per_token(self, large_corpus):
        # One token object per token held about 59 bytes a token; shared,
        # the view holds a pointer a token, its tuples and one token a pair.
        corpus = parse_corpus(large_corpus[1])
        pairs = len(np.unique(corpus.word_ids * len(corpus.tag_set) + corpus.tag_ids))
        tracemalloc.start()
        try:
            view = corpus.sentences
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(view) == corpus.num_sentences
        bound = 10 * corpus.num_tokens + 64 * corpus.num_sentences + 64 * pairs
        assert held < bound, (held, bound)

    def test_sentence_words_read_the_columns(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            corpus = random_corpus(rng)
            words = corpus.sentence_words()
            assert "sentences" not in corpus.__dict__
            assert words == [[tok.word for tok in s] for s in corpus.sentences]
        assert parse_corpus("").sentence_words() == []


@pytest.fixture(scope="module")
def large_corpus():
    """100k training tokens over 20 tags, and their text (about 1.1 MB)."""
    corpus = synthesize_corpus(SynthesisConfig(num_tags=20, vocab_size=5000,
                                               num_train_tokens=100_000,
                                               num_test_tokens=10, seed=5))[0]
    return corpus, write_corpus(corpus)


def traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainingPathMemory:
    """What the training path holds besides the corpus grows with a block
    of it, not with a copy per line or token of the whole of it."""

    def test_parse_holds_no_list_of_every_line(self, large_corpus):
        # About 10.5 times the text when every line was split out at once;
        # the corpus parsed takes 1.7 of that.
        corpus, text = large_corpus
        parsed_corpus, peak = traced_peak(lambda: parse_corpus(text))
        assert parsed_corpus == parse_corpus(text, corpus.tag_set.tags)
        assert peak < 6 * len(text), peak / len(text)

    def test_digest_holds_the_text_and_its_pieces(self, large_corpus):
        # About 4.7 times the text with a (tokens, 2) object array, its
        # list of pieces and a whole encoded copy.
        corpus, text = large_corpus
        digest, peak = traced_peak(lambda: corpus_digest(corpus))
        assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert peak < 3.5 * len(text), peak / len(text)

    def test_digest_holds_no_copy_of_the_text(self, large_corpus, monkeypatch):
        # With pieces of 2^12 tokens: about 2.2 times the text when the
        # joined text was hashed a slice at a time, and 0.4 hashed a piece
        # at a time, most of it the vocabulary's "word<TAB>" strings.
        corpus, text = large_corpus
        monkeypatch.setattr(corpus_module, "_WRITE_TOKENS", 1 << 12)
        digest, peak = traced_peak(lambda: corpus_digest(corpus))
        assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert peak < 0.6 * len(text), peak / len(text)

    def test_count_ngrams_sorts_one_key_array(self, large_corpus):
        # About 51 bytes a token with np.unique's copies and a new digit
        # array per context length.
        corpus, _ = large_corpus
        counts, peak = traced_peak(lambda: count_ngrams(corpus, 3))
        assert int(counts.counts[0].sum()) == corpus.num_tokens
        assert peak < 42 * corpus.num_tokens, peak / corpus.num_tokens


class TestWriteCorpus:
    def test_canonical_form_has_no_trailing_blank(self):
        corpus = parse_corpus("the\tAT\ncat\tNN\n\nsat\tVB\n\n")
        assert write_corpus(corpus) == "the\tAT\ncat\tNN\n\nsat\tVB\n"

    def test_canonical_form_is_a_fixed_point(self):
        corpus = synthesize_corpus(SynthesisConfig(num_tags=4, vocab_size=60,
                                                   num_train_tokens=400,
                                                   num_test_tokens=100, seed=9))[0]
        text = write_corpus(corpus)
        again = parse_corpus(text)
        assert again.sentences == corpus.sentences
        assert write_corpus(again) == text

    def test_pieces_join_to_the_token_by_token_text(self, monkeypatch):
        # The text is joined from pieces of _WRITE_TOKENS tokens; wherever
        # they are cut, sentence ends included, it is the same text.
        corpus = synthesize_corpus(SynthesisConfig(num_tags=4, vocab_size=60,
                                                   num_train_tokens=400,
                                                   num_test_tokens=10, seed=9))[0]
        text = "\n".join("".join(f"{t.word}\t{t.tag}\n" for t in sentence)
                         for sentence in corpus.sentences)
        assert write_corpus(corpus) == text
        for size in (1, 2, 7, 64):
            monkeypatch.setattr(corpus_module, "_WRITE_TOKENS", size)
            assert write_corpus(corpus) == text

    def test_empty_corpus_writes_empty_string(self):
        assert write_corpus(parse_corpus("")) == ""

    def test_sink_gets_the_pieces_of_the_text(self, monkeypatch):
        corpus = synthesize_corpus(SynthesisConfig(num_tags=4, vocab_size=60,
                                                   num_train_tokens=400,
                                                   num_test_tokens=10, seed=9))[0]
        text = write_corpus(corpus)
        monkeypatch.setattr(corpus_module, "_WRITE_TOKENS", 64)
        pieces = []
        assert write_corpus(corpus, pieces.append) is None
        assert len(pieces) == -(-corpus.num_tokens // 64)
        assert "".join(pieces) == text
        pieces.clear()
        write_corpus(parse_corpus(""), pieces.append)
        assert pieces == []


class TestSplitCorpus:
    def test_partition_preserves_all_sentences(self):
        corpus = synthesize_corpus(SynthesisConfig(num_tags=3, vocab_size=40,
                                                   num_train_tokens=500,
                                                   num_test_tokens=100, seed=3))[0]
        head, tail = split_corpus(corpus, 0.6, seed=7)
        from collections import Counter
        assert Counter(head.sentences + tail.sentences) == Counter(corpus.sentences)
        assert head.num_sentences + tail.num_sentences == corpus.num_sentences
        assert head.num_sentences == min(max(round(corpus.num_sentences * 0.6), 1),
                                         corpus.num_sentences - 1)

    def test_deterministic_for_seed(self):
        corpus = synthesize_corpus(SynthesisConfig(num_tags=3, vocab_size=40,
                                                   num_train_tokens=500,
                                                   num_test_tokens=100, seed=3))[0]
        a = split_corpus(corpus, 0.5, seed=1)
        b = split_corpus(corpus, 0.5, seed=1)
        assert a[0].sentences == b[0].sentences
        assert a[1].sentences == b[1].sentences

    def test_parts_equal_corpora_built_from_their_sentences(self):
        # The parts are sliced from the id columns, each with its own vocab
        # in first-occurrence order; built from the sentences' tokens, a
        # part must come out the same.
        rng = np.random.default_rng(31)
        for case in range(30):
            corpus = random_corpus(rng, ("C", "A", "B") if case % 2 else None)
            fraction, seed = float(rng.uniform(0.05, 0.95)), int(rng.integers(1000))
            train, test = split_corpus(corpus, fraction, seed)
            assert "sentences" not in corpus.__dict__
            n = corpus.num_sentences
            order = list(range(n))
            random.Random(seed).shuffle(order)
            n_train = min(max(round(n * fraction), 1), n - 1)
            for part, chosen in ((train, order[:n_train]), (test, order[n_train:])):
                expected = Corpus(tuple(corpus.sentences[i] for i in sorted(chosen)),
                                  corpus.tag_set)
                assert part == expected
                assert part.vocab == expected.vocab
                assert part.tag_set is corpus.tag_set

    def test_bad_fraction_rejected(self):
        corpus = parse_corpus("a\tX\n\nb\tX\n\n")
        with pytest.raises(ValidationError):
            split_corpus(corpus, 0.0, seed=1)
        with pytest.raises(ValidationError):
            split_corpus(corpus, 1.0, seed=1)

    def test_too_few_sentences_rejected(self):
        with pytest.raises(ValidationError):
            split_corpus(parse_corpus("a\tX\n\n"), 0.5, seed=1)


def reference_synthesize(cfg):
    """The token-by-token sampler the columnar one replaced: one uniform
    draw per tag and per word, alternately, after each sentence's length,
    each mapped with a scalar searchsorted; the corpora are built from
    tokens."""
    rng = np.random.default_rng(cfg.seed)
    k = cfg.num_tags
    rng.dirichlet(np.ones(k))
    for _ in range(k):
        rng.dirichlet(np.ones(k))
    corpus_module._make_vocabulary(cfg, rng)
    rng.random(cfg.vocab_size)
    rng.integers(0, k - 1, size=cfg.vocab_size)
    _, _, spec = synthesize_corpus(cfg)
    initial_cum = np.cumsum(spec.initial)
    transition_cum = np.cumsum(spec.transition, axis=1)
    emission_cum = np.cumsum(spec.emission, axis=1)

    def sample(cumulative):
        return int(np.searchsorted(cumulative, rng.random(), side="right"))

    def draw(total):
        sentences = []
        while total > 0:
            length = min(int(rng.integers(5, 26)), total)
            tokens = []
            tag = sample(initial_cum)
            for position in range(length):
                if position:
                    tag = sample(transition_cum[tag])
                word = spec.words[sample(emission_cum[tag])]
                tokens.append(TaggedToken(word, spec.tag_set.tags[tag]))
            sentences.append(tuple(tokens))
            total -= length
        return Corpus(sentences, spec.tag_set)

    return draw(cfg.num_train_tokens), draw(cfg.num_test_tokens)


class TestSynthesizeCorpus:
    @pytest.mark.parametrize("cfg", [
        SynthesisConfig(num_tags=8, vocab_size=500, num_train_tokens=50000,
                        num_test_tokens=5000, seed=42),  # criterion 6
        SynthesisConfig(num_tags=13, vocab_size=90, num_train_tokens=3001,
                        num_test_tokens=7, seed=3, zipf_exponent=1.1),
    ])
    def test_equals_the_token_by_token_sampler(self, cfg):
        train, test, _ = synthesize_corpus(cfg)
        for got, expected in zip((train, test), reference_synthesize(cfg)):
            assert got == expected
            assert got.vocab == expected.vocab
            assert got.tag_set == expected.tag_set
            assert "sentences" not in got.__dict__

    def test_deterministic_for_seed(self):
        cfg = SynthesisConfig(num_tags=5, vocab_size=100, num_train_tokens=2000,
                              num_test_tokens=500, seed=17)
        train1, test1, spec1 = synthesize_corpus(cfg)
        train2, test2, spec2 = synthesize_corpus(cfg)
        assert write_corpus(train1) == write_corpus(train2)
        assert write_corpus(test1) == write_corpus(test2)
        np.testing.assert_array_equal(spec1.transition, spec2.transition)

    def test_different_seeds_differ(self):
        base = dict(num_tags=5, vocab_size=100, num_train_tokens=2000,
                    num_test_tokens=100)
        a = synthesize_corpus(SynthesisConfig(seed=1, **base))[0]
        b = synthesize_corpus(SynthesisConfig(seed=2, **base))[0]
        assert write_corpus(a) != write_corpus(b)

    def test_token_budget_and_sentence_lengths(self):
        cfg = SynthesisConfig(num_tags=4, vocab_size=80, num_train_tokens=3000,
                              num_test_tokens=800, seed=23)
        train, test, _ = synthesize_corpus(cfg)
        assert train.num_tokens >= 3000
        assert test.num_tokens >= 800
        for corpus, budget in ((train, 3000), (test, 800)):
            assert corpus.num_tokens < budget + 25
            for sent in corpus.sentences:
                assert 5 <= len(sent) <= 25

    def test_all_tags_from_declared_inventory(self):
        cfg = SynthesisConfig(num_tags=6, vocab_size=90, num_train_tokens=2000,
                              num_test_tokens=100, seed=29)
        train, _, spec = synthesize_corpus(cfg)
        assert train.tag_set.tags == tuple(f"T{i}" for i in range(6))
        assert spec.transition.shape == (6, 6)
        np.testing.assert_allclose(spec.transition.sum(axis=1), np.ones(6),
                                   atol=1e-12)

    def test_oov_rate_small_but_nonzero(self):
        cfg = SynthesisConfig(num_tags=8, vocab_size=500, num_train_tokens=50000,
                              num_test_tokens=5000, seed=42)
        train, test, _ = synthesize_corpus(cfg)
        train_vocab = {tok.word for sent in train.sentences for tok in sent}
        unseen = sum(1 for sent in test.sentences for tok in sent
                     if tok.word not in train_vocab)
        rate = unseen / test.num_tokens
        assert 0.0 < rate < 0.30
        # Regression pin for the documented default configuration.
        assert rate == pytest.approx(0.0018, abs=1e-4)

    def test_empirical_transitions_match_generator(self):
        cfg = SynthesisConfig(num_tags=8, vocab_size=500, num_train_tokens=50000,
                              num_test_tokens=100, seed=42)
        train, _, spec = synthesize_corpus(cfg)
        k = len(train.tag_set.tags)
        counts = np.zeros((k, k))
        for sent in train.sentences:
            tags = [train.tag_set.index[t.tag] for t in sent]
            for prev, cur in zip(tags, tags[1:]):
                counts[prev, cur] += 1
        empirical = counts / counts.sum(axis=1, keepdims=True)
        l1 = np.abs(empirical - spec.transition).sum(axis=1)
        assert np.all(l1 <= 0.05)

    def test_spec_jsonable(self):
        import json
        cfg = SynthesisConfig(num_tags=3, vocab_size=30, num_train_tokens=300,
                              num_test_tokens=100, seed=2)
        _, _, spec = synthesize_corpus(cfg)
        blob = json.dumps(spec.to_jsonable(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["config"]["num_tags"] == 3
        assert parsed["tags"] == ["T0", "T1", "T2"]
        np.testing.assert_allclose(np.array(parsed["transition"]), spec.transition)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            SynthesisConfig(num_tags=1, vocab_size=10, num_train_tokens=100,
                            num_test_tokens=100, seed=1)
        with pytest.raises(ValidationError):
            SynthesisConfig(num_tags=3, vocab_size=2, num_train_tokens=100,
                            num_test_tokens=100, seed=1)

    def test_exponent_finite_and_counts_integers(self):
        base = dict(num_tags=3, vocab_size=30, num_train_tokens=100, num_test_tokens=10, seed=1)
        for exponent in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValidationError, match="zipf_exponent must be finite and positive"):
                SynthesisConfig(**base, zipf_exponent=exponent)
        for name in ("num_tags", "vocab_size", "num_train_tokens", "num_test_tokens", "seed"):
            with pytest.raises(ValidationError, match=f"^{name} must be an integer, not 3.0$"):
                SynthesisConfig(**{**base, name: 3.0})
        cfg = SynthesisConfig(**{**base, "num_tags": np.int64(3), "seed": True})
        assert (cfg.num_tags, cfg.seed) == (3, 1) and type(cfg.num_tags) is int

    def test_negative_seed_rejected(self):
        # numpy's generator raises a raw ValueError for it only when drawing.
        base = dict(num_tags=3, vocab_size=30, num_train_tokens=100, num_test_tokens=10)
        with pytest.raises(ValidationError, match="^seed must be non-negative$"):
            SynthesisConfig(**base, seed=-1)
        assert SynthesisConfig(**base, seed=0).seed == 0


class TestCorpusValidation:
    def test_token_tag_outside_tag_set_rejected(self):
        with pytest.raises(ValidationError):
            Corpus(((TaggedToken("a", "Y"),),), TagSet(("X",)))

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValidationError):
            Corpus(((),), TagSet(("X",)))

    def test_empty_word_rejected(self):
        with pytest.raises(ValidationError):
            TaggedToken("", "X")

    def test_lone_surrogate_in_tag_or_word_rejected(self):
        # A model trained from either could not be written: the tag set
        # goes into the model file, the words into the corpus digest.
        for tag in ("T\ud800", "\udfff", "\U0001f600\udc00x"):
            with pytest.raises(ValidationError, match="lone surrogate"):
                TagSet(("X", tag))
            with pytest.raises(ValidationError, match="lone surrogate"):
                train_model(parse_corpus("a\tX\n", declared_tags=["X", tag]))
        for word in ("a\ud800", "\udbffz"):
            with pytest.raises(ValidationError, match="lone surrogate"):
                train_model(Corpus(((TaggedToken(word, "X"),),), TagSet(("X",))))
        # A surrogate pair spelled as one code point is a letter like any other.
        TagSet(("X", "T\U0001f600"))
        TaggedToken("a\U0001f600", "X")

    def test_word_starting_with_hash_rejected(self):
        # The parser reads such a line as a comment, so the written corpus
        # would not parse back to its tokens.
        for word in ("#1", "#", "# note"):
            with pytest.raises(ValidationError, match="starts with '#'"):
                Corpus([[TaggedToken(word, "NN"), TaggedToken("a", "AT")]], TagSet(("AT", "NN")))
        corpus = Corpus([[TaggedToken("a#1", "NN"), TaggedToken("a", "AT")]], TagSet(("AT", "NN")))
        assert write_corpus(corpus) == "a#1\tNN\na\tAT\n"
        assert parse_corpus(write_corpus(corpus)).sentences == corpus.sentences

