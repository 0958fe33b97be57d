import io

import numpy as np
import pytest

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
from succabs.errors import CorpusParseError, ValidationError


class TestTagSet:
    def test_index_round_trip(self):
        ts = TagSet(("NN", "VB", "AT"))
        assert ts.index_of("VB") == 1
        assert ts.symbol(2) == "AT"
        assert len(ts) == 3

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValidationError):
            TagSet(("NN", "NN"))

    def test_tab_in_symbol_rejected(self):
        with pytest.raises(ValidationError):
            TagSet(("N\tN",))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValidationError):
            TagSet(("NN",)).index_of("VB")


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

    def test_file_like_source(self):
        import io
        corpus = parse_corpus(io.StringIO("a\tX\nb\tY\n\n"))
        assert corpus.num_tokens == 2


def parse_or_error_line(source):
    try:
        return parse_corpus(source)
    except CorpusParseError as err:
        return err.line


def each_source(text, tmp_path):
    """The same text as a str, a text stream, a file read without newline
    translation, and lists of lines with and without their LFs."""
    path = tmp_path / "corpus.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8", newline="") as fh:
        from_file = parse_or_error_line(fh)
    return [parse_or_error_line(text), parse_or_error_line(io.StringIO(text)), from_file,
            parse_or_error_line(text.split("\n")),
            parse_or_error_line(io.StringIO(text).readlines())]


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
        assert each_source(text, tmp_path) == [line] * 5
        with pytest.raises(CorpusParseError, match="CR or LF"):
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

    def test_empty_corpus_writes_empty_string(self):
        assert write_corpus(parse_corpus("")) == ""


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

    def test_bad_fraction_rejected(self):
        corpus = parse_corpus("a\tX\n\nb\tX\n\n")
        with pytest.raises(ValidationError):
            split_corpus(corpus, 0.0, seed=1)
        with pytest.raises(ValidationError):
            split_corpus(corpus, 1.0, seed=1)

    def test_too_few_sentences_rejected(self):
        with pytest.raises(ValidationError):
            split_corpus(parse_corpus("a\tX\n\n"), 0.5, seed=1)


class TestSynthesizeCorpus:
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
