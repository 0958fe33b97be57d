import collections
import contextlib
import dataclasses
import fractions
import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from succabs.corpus import SynthesisConfig, parse_corpus, synthesize_corpus
from succabs.counts import Lexicon, RareWordPolicy, build_lexicon, build_suffix_trie
from succabs.errors import ModelFormatError, ValidationError
from succabs.lexicon import build_unknown_word_model, unknown_word_distribution
from succabs.model_io import (
    FORMAT_VERSION,
    MAGIC,
    _RENDER,
    _SectionReader,
    _heads,
    _render_blocks,
    _trie_heads,
    model_from_text,
    model_to_text,
    read_model,
    write_model,
)
from succabs.smoothing import ConditionalDistribution
from succabs.tagger import tag_corpus, train_model, viterbi_tag_scored
from lexical_oracle import letters, sparse_rows
from test_counts import random_corpus
from transition_oracle import query


def traced_peak(call):
    """The call's result, and the most memory tracemalloc saw allocated in it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def small_corpus():
    return parse_corpus(
        "\n".join(["the\tAT"] * 12 + ["cat\tNN", "bat\tNN", "sat\tVB"]) + "\n\n")


def trained_models():
    corpus = small_corpus()
    return [
        train_model(corpus, order=3),
        train_model(corpus, order=2, root_mode="rf"),
        train_model(corpus, order=3, smoothing="ele"),
        train_model(corpus, order=3, smoothing="interp", lambdas=(0.2, 0.3, 0.5)),
        train_model(corpus, order=1),
    ]


def sample_contexts(num_tags, order):
    contexts = [(), (-1,) * (order - 1) if order > 1 else ()]
    for t in range(num_tags):
        contexts.append((t,))
    contexts.append((0, 1))
    contexts.append((num_tags - 1, num_tags - 1))
    return contexts


class TestRoundTrip:
    def test_queries_survive_serialization(self):
        for model in trained_models():
            loaded = model_from_text(model_to_text(model))
            assert loaded.tag_set.tags == model.tag_set.tags
            assert loaded.metadata == model.metadata
            np.testing.assert_array_equal(loaded.unigram.probs, model.unigram.probs)
            for ctx in sample_contexts(len(model.tag_set), model.metadata.order):
                np.testing.assert_array_equal(query(loaded.transition, ctx).probs,
                                              query(model.transition, ctx).probs)
            assert loaded.lexicon.words == model.lexicon.words
            loaded_trie, trie = loaded.unknown_word_model.trie, model.unknown_word_model.trie
            model_k = len(model.tag_set)
            assert loaded_trie.counts.num_tags == loaded.lexicon.counts.num_tags == model_k
            sparse = ("indptr", "tags", "values")
            for got, expect, names in ((loaded.lexicon.counts, model.lexicon.counts, sparse),
                                       (loaded_trie.counts, trie.counts, sparse),
                                       (loaded_trie, trie, ("depths", "codes", "parents"))):
                for name in names:
                    a, b = getattr(got, name), getattr(expect, name)
                    assert a.dtype == b.dtype and a.tolist() == b.tolist()
                    assert not a.flags.writeable
            words = ["cat", "mat", "zzz", "unseen"]
            np.testing.assert_array_equal(
                unknown_word_distribution(loaded.unknown_word_model, words),
                unknown_word_distribution(model.unknown_word_model, words))

    def test_decoding_identical_after_reload(self):
        sentences = [["the", "cat"], ["sat", "zat", "the"], ["bat"]]
        for model in trained_models():
            loaded = model_from_text(model_to_text(model))
            assert tag_corpus(loaded, sentences) == tag_corpus(model, sentences)
            a = viterbi_tag_scored(model, ["the", "nat"])
            b = viterbi_tag_scored(loaded, ["the", "nat"])
            assert a.tags == b.tags
            assert a.log_score == b.log_score

    def test_reserialization_is_byte_identical(self):
        # "a\x00" comes first in the corpus, and a numpy string array would
        # tie it with "a"; the file holds Python's order, "a" first.
        nul = train_model(parse_corpus("a\x00\tX\na\tY\n\n"))
        assert nul.lexicon.words == ("a", "a\x00")
        for model in trained_models() + [nul]:
            text = model_to_text(model)
            assert model_to_text(model_from_text(text)) == text
        assert "\n[lexicon] 2\na\t0 1\na\x00\t1 0\n" in model_to_text(nul)

    def test_serialization_is_deterministic(self):
        corpus = small_corpus()
        a = model_to_text(train_model(corpus, order=3))
        b = model_to_text(train_model(corpus, order=3))
        assert a == b

    def test_policy_given_as_bool_or_numpy_integer_round_trips(self):
        # Stored as ints, the policy writes "1", never "True", so the
        # loader reads back what the model holds.
        for policy in (RareWordPolicy(True, 3), RareWordPolicy(np.int64(2), np.int32(4))):
            model = train_model(small_corpus(), policy=policy)
            text = model_to_text(model)
            assert "\nrare_threshold\tTrue\n" not in text
            loaded = model_from_text(text)
            assert loaded.unknown_word_model.policy == policy
            assert model_to_text(loaded) == text

    def test_file_round_trip(self, tmp_path):
        model = trained_models()[0]
        path = str(tmp_path / "model.txt")
        write_model(model, path)
        loaded = read_model(path)
        assert model_to_text(loaded) == model_to_text(model)

    def test_larger_model_round_trip(self):
        train = synthesize_corpus(SynthesisConfig(num_tags=5, vocab_size=200,
                                                  num_train_tokens=5000,
                                                  num_test_tokens=100,
                                                  seed=31))[0]
        model = train_model(train, order=3)
        text = model_to_text(model)
        assert model_to_text(model_from_text(text)) == text


def letters_text():
    """A model whose rare words hold non-ASCII and astral letters and a NUL."""
    letters = ["a", "é", "ß", "ж", "\x00", "\U0001f600", "\U0001d51e"]
    tokens = []
    for i in range(400):
        j = i * 37 % 150
        word = letters[j % 7] + letters[j // 7 % 7] * (j % 3) + letters[j // 49]
        tokens.append(f"{word}\tT{j % 4}" + ("\n" if i % 6 == 5 else ""))
    return model_to_text(train_model(parse_corpus("\n".join(tokens) + "\n"), order=3))


def rare_tags_text():
    """A corpus of 12,000 tokens in which 29 of 31 tags occur once each."""
    rare = "".join(f"w{t}\tR{t:02d}\na\tA\n\n" for t in range(29))
    return rare + "a\tA\nb\tA\nc\tB\n\n" * 4000


class TestPinnedBytes:
    """The sha256 of fixed trained models' text.  A round trip passes when
    the writer and the loader change together; these pins fail when the
    bytes a model file holds change at all."""

    PINS = {
        "sa3": "66ab2de2ce623ef9c06dfb6fe745ca3ed45f9a14dfe9daf8cace5e8a2902644f",
        "sa2": "5da0fafcc857ccb53adb1f7d06212579fdaeaeef9545400e2d2473f5bc3cbe09",
        "ele3": "0db28915228074be69289edff60aea2d2cc6068176da7c799c991ceb356d7f65",
        "interp3": "711e0318382a06511e7e61d693de89929270bb8ee9b9f978d2edf262fa79b41f",
        "rf3": "3606d764b7d6abfc0728b3b451465dd1bb159016df514768863f5fbed354316b",
        "big": "b95aba1b6b2acb1a307d4bcd475fb5808877073bed6605a77ec40b2e7d049e3f",
        "letters": "8ff4c84eb90988ad1ce20559fe71d5d46ff46df87e1fe9d22c1bc453de859b98",
        "interp_cells": "156db434725c33b8640679d123733dcde924b23762e479aa97618100a12e5197",
        "tiny": "4699cb836302157807aad469c82a26263619748753f7b744df701684bdc3beeb",
        "order1": "df6a0c2040e687960de848b6d26c3dd134910ded7c3da48f0d1568f2ffc705da",
    }

    def test_model_text_digests(self, big_text):
        train = synthesize_corpus(SynthesisConfig(num_tags=8, vocab_size=500,
                                                  num_train_tokens=50000,
                                                  num_test_tokens=5000, seed=42))[0]
        texts = {"sa3": model_to_text(train_model(train, order=3)),
                 "sa2": model_to_text(train_model(train, order=2)),
                 "ele3": model_to_text(train_model(train, order=3, smoothing="ele")),
                 "interp3": model_to_text(train_model(train, order=3, smoothing="interp",
                                                      lambdas=(0.1, 0.6, 0.3))),
                 "rf3": model_to_text(train_model(train, order=3, root_mode="rf")),
                 "big": big_text,
                 "letters": letters_text(),
                 # Exact 0 and 1 relative frequencies in [freqs].
                 "interp_cells": model_to_text(train_model(small_corpus(), order=3,
                                                           smoothing="interp",
                                                           lambdas=(0.2, 0.3, 0.5))),
                 # Probabilities below 1e-4, which %.17g writes with an exponent.
                 "tiny": model_to_text(train_model(parse_corpus(rare_tags_text()), order=4)),
                 "order1": model_to_text(train_model(train, order=1))}
        assert "\U0001f600" in texts["letters"] and "é" in texts["letters"]
        assert "\t1 0 0\n" in texts["interp_cells"] and "\t0 0 1\n" in texts["interp_cells"]
        assert "e-07 " in texts["tiny"]
        for name in ("interp_cells", "tiny", "order1"):
            assert model_to_text(model_from_text(texts[name])) == texts[name]
        assert {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
                for name, text in texts.items()} == self.PINS


def valid_text():
    return model_to_text(train_model(small_corpus(), order=3))


class TestFormatErrors:
    def test_bad_magic(self):
        text = valid_text().replace(f"{MAGIC} {FORMAT_VERSION}", "NOTRIGHT 1", 1)
        with pytest.raises(ModelFormatError):
            model_from_text(text)

    def test_unsupported_version(self):
        text = valid_text().replace(f"{MAGIC} {FORMAT_VERSION}", f"{MAGIC} 2", 1)
        with pytest.raises(ModelFormatError):
            model_from_text(text)

    def test_crlf_file_names_the_version_it_read(self):
        # Each line of a CRLF file ends in an invisible "\r", the magic
        # line's too, so the message shows the version as read.
        text = valid_text().replace("\n", "\r\n")
        with pytest.raises(ModelFormatError,
                           match=r"^unsupported model format version '1\\r'$"):
            model_from_text(text)

    def test_truncated_input(self):
        text = valid_text()
        for cut in (len(text) // 4, len(text) // 2, len(text) - 20):
            with pytest.raises(ModelFormatError):
                model_from_text(text[:cut])

    def test_section_cut_short_names_the_line_after_the_last_newline(self, big_text):
        # A file ending inside a section read by lines, after a row's
        # newline or one letter into a row before its last, ends before the
        # line after its last newline: in a small file, and in sections of
        # a large one longer than the reader's first split.
        for text, sections, rows in (
                (valid_text(), ("meta", "tags", "transitions", "lexicon"), None),
                (big_text, ("transitions", "lexicon"), (0, 1, 2100, -2, -1))):
            lines = text.split("\n")
            for section in sections:
                start = section_start(lines, section)
                count = int(lines[start - 1].split(" ")[1])
                for row in range(count) if rows is None else [r % count for r in rows]:
                    cut = len("\n".join(lines[:start + row])) + 1  # the rows left
                    for end in (cut, cut + 1) if row + 1 < count else (cut,):
                        line = text.count("\n", 0, end) + 1
                        with pytest.raises(ModelFormatError,
                                           match=f"^line {line}: unexpected end of file$"):
                            model_from_text(text[:end])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_text(valid_text() + "leftover\n")

    def test_duplicate_context_rejected(self):
        lines = valid_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[transitions]"))
        count = int(lines[start].split()[1])
        lines[start] = f"[transitions] {count + 1}"
        lines.insert(start + 2, lines[start + 1])
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

    def test_rootless_or_overlong_table_rejected(self):
        # Back-off queries must end at the root, and no context may hold
        # more than order-1 tags.
        interp = train_model(small_corpus(), order=3, smoothing="interp",
                             lambdas=(0.2, 0.3, 0.5))
        for text, section in ((valid_text(), "[transitions]"),
                              (model_to_text(interp), "[freqs]")):
            lines = text.splitlines()
            start = next(i for i, l in enumerate(lines) if l.startswith(section))
            count = int(lines[start].split()[1])
            assert lines[start + 1].startswith("\t")  # the root sorts first
            rootless = lines[:start] + [f"{section} {count - 1}"] + lines[start + 2:]
            with pytest.raises(ModelFormatError):
                model_from_text("\n".join(rootless) + "\n")
            overlong = list(lines)
            overlong[start + count] = "0," + overlong[start + count]
            with pytest.raises(ModelFormatError):
                model_from_text("\n".join(overlong) + "\n")

    def test_context_rows_rejected_with_the_tables_message(self):
        # SmoothedNGramModel checks the rows; the loader names the section.
        text = valid_text()
        row = text.split("\n")[section_start(text.split("\n"), "transitions") + 1]
        assert row.startswith("-1\t")
        for bad, message in ((swap_rows(text, "transitions", 1, 2), "context '-1' is out of order; "
                              "rows are sorted by length, then by tag indices"),
                             (insert_row(text, "transitions", 1, row), "duplicate context '-1'"),
                             (insert_row(text, "transitions", 3, "3" + row[2:]),
                              "context '3' is longer than order 3 allows or holds a tag index "
                              "outside \\[-1, 3\\)")):
            with pytest.raises(ModelFormatError, match=f"^transitions: {message}$"):
                model_from_text(bad)

    def test_rows_rejected_with_the_tables_message(self):
        # SmoothedNGramModel checks each row, after the contexts; SparseRows
        # the lexicon's counts.  The loader only names the section.
        lines = valid_text().split("\n")
        at = section_start(lines, "transitions") + 1
        assert lines[at].startswith("-1\t") and lines[at + 1].startswith("0\t")
        lexicon = section_start(lines, "lexicon")
        assert lines[lexicon] == "bat\t0 1 0"

        def edit(row, new):
            return "\n".join(lines[:row] + [new] + lines[row + 1:])

        nan_row = "-1\tnan" + lines[at][lines[at].index(" "):]
        for bad, message in ((edit(at, nan_row), "transitions: probabilities must lie in "
                                                 "\\[0, 1\\]"),
                             (edit(at, "-1\t0.25 0.25 0"), "transitions: probabilities sum to "
                                                          "0.5, not 1"),
                             (edit(lexicon, "bat\t-1 1 0"), "lexicon: sparse rows' counts must "
                                                            "be positive"),
                             (edit(at + 1, nan_row), "transitions: duplicate context '-1'")):
            with pytest.raises(ModelFormatError, match=f"^{message}"):
                model_from_text(bad)

    def test_table_missing_a_stored_contexts_suffix_rejected(self):
        # Trained back-off tables are suffix-closed.  Without row -1 an
        # interpolated row -1,-1 would mix an unseen order in its place.
        train = synthesize_corpus(SynthesisConfig(8, 300, 3000, 200, 42))[0]
        for smoothing, section in (("sa", "transitions"), ("interp", "freqs")):
            lines = model_to_text(train_model(
                train, order=3, smoothing=smoothing,
                lambdas=(0.2, 0.3, 0.5) if smoothing == "interp" else None)).split("\n")
            start = section_start(lines, section)
            assert lines[start + 1].startswith("-1\t") and lines[start + 2].startswith("0\t")
            assert sum(line.startswith("-1,-1\t") for line in lines[start:]) == 1
            count = int(lines[start - 1].split(" ")[1])
            lines[start - 1] = f"[{section}] {count - 1}"
            del lines[start + 1]
            message = f"^{section}: context '-1,-1' is stored, but its suffix '-1' is not$"
            with pytest.raises(ModelFormatError, match=message):
                model_from_text("\n".join(lines))

    def test_non_finite_values_rejected(self):
        # NaN passes every range comparison, so it needs a check of its own;
        # loaded, it would make path scores NaN.
        interp = model_to_text(train_model(small_corpus(), order=3, smoothing="interp",
                                           lambdas=(0.2, 0.3, 0.5)))
        for text, section in ((valid_text(), "[transitions]"), (interp, "[freqs]"),
                              (valid_text(), "[unigram]"),
                              (valid_text(), "[unknown_root]")):
            lines = text.splitlines()
            i = next(i for i, l in enumerate(lines) if l.startswith(section)) + 1
            ctx, sep, vec = lines[i].rpartition("\t")
            for bad in ("nan", "inf", "-inf"):
                lines[i] = ctx + sep + " ".join([bad] + vec.split(" ")[1:])
                with pytest.raises(ModelFormatError):
                    model_from_text("\n".join(lines) + "\n")
        lines = interp.splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("lambdas\t"))
        for bad in ("nan,0.5,0.5", "0.5,nan,0.5"):
            lines[i] = f"lambdas\t{bad}"
            with pytest.raises(ModelFormatError):
                model_from_text("\n".join(lines) + "\n")

    def test_context_tag_out_of_range_rejected(self):
        # Three tags: indices 0..2, and -1 for the sentence boundary.
        for ctx in ("3", "-2", "0,7"):
            lines = valid_text().splitlines()
            start = next(i for i, l in enumerate(lines) if l.startswith("[transitions]"))
            count = int(lines[start].split()[1])
            lines[start] = f"[transitions] {count + 1}"
            lines.insert(start + 2, ctx + "\t" + lines[start + 1].split("\t")[1])
            with pytest.raises(ModelFormatError):
                model_from_text("\n".join(lines) + "\n")

    def test_duplicate_lexicon_word_rejected(self):
        lines = valid_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[lexicon]"))
        count = int(lines[start].split()[1])
        lines[start] = f"[lexicon] {count + 1}"
        lines.insert(start + 1, lines[start + 1])
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

    def test_empty_lexicon_word_rejected(self):
        # No corpus holds an empty word, and a loaded one would tag "" where
        # the trained model rejects it.
        text = insert_row(valid_text(), "lexicon", -1, "\t1 0 0")
        with pytest.raises(ModelFormatError, match="^lexicon: empty word"):
            model_from_text(text)

    def test_lexicon_words_keep_the_corpus_word_rule(self):
        # Counted often enough to stay out of [trie], each word loaded and
        # wrote back its own bytes, though no corpus line can hold it: one
        # is a comment line, the other holds a CR.
        text = valid_text()
        lines = text.split("\n")
        start = section_start(lines, "lexicon")
        words = [line.split("\t")[0] for line in lines[start:start + 4]]
        assert words == ["bat", "cat", "sat", "the"] and "rare_threshold\t10" in text
        for word, fault in (("#x", "starts with '#', which would write a comment line"),
                            ("a\rb", "contains whitespace control characters")):
            mutant = insert_row(text, "lexicon", sum(w < word for w in words) - 1,
                                f"{word}\t20 0 0")
            message = re.escape(f"lexicon: token word {word!r} {fault}")
            with pytest.raises(ModelFormatError, match=f"^{message}$"):
                model_from_text(mutant)

    def test_wrong_probability_dimension_rejected(self):
        lines = valid_text().splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("[unigram]")) + 1
        lines[i] = "0.5 0.5"  # three tags expected
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

    def test_unnormalized_probabilities_rejected(self):
        lines = valid_text().splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("[unigram]")) + 1
        lines[i] = "0.5 0.2 0.2"
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

    def test_non_numeric_count_vector_rejected(self):
        for bad in ("twelve", "99999999999999999999"):  # the second overflows int64
            text = valid_text().replace("the\t12 0 0", f"the\t{bad} 0 0", 1)
            with pytest.raises(ModelFormatError):
                model_from_text(text)

    def test_malformed_counts_rejected(self):
        # Negative counts, an all-zero lexicon row or trie node, and a trie
        # node above its parent; loaded, they would decode to NaN scores or
        # fail only at decode.  ``TestBlockedParse`` makes the same faults
        # past the loader's first block of rows.
        many = model_to_text(train_model(parse_corpus(
            "".join(f"w{i}\t{'AB'[i % 2]}\n" for i in range(400)) + "\n")))
        leaf, last = "4\t\t0 0 1\n[unknown_root]", "3\t\t0 1\n[unknown_root]"
        for text, old, new in (
                (valid_text(), "the\t12 0 0", "the\t-12 0 0"),
                (valid_text(), "3\tb\t0 1 0\n4\t\t0 1 0", "3\tb\t0 2 0\n4\t\t-1 2 0"),
                (valid_text(), "the\t12 0 0", "the\t0 0 0"),
                (valid_text(), leaf, leaf.replace("0 0 1", "0 0 0")),
                (valid_text(), leaf, leaf.replace("0 0 1", "0 0 2")),
                (many, last, last.replace("0 1", "0 0")),
                (many, last, last.replace("0 1", "0 2"))):
            assert text.count(old) == 1
            with pytest.raises(ModelFormatError):
                model_from_text(text.replace(old, new, 1))

    def test_counts_summing_past_int64_rejected(self):
        # Each count fits int64, but the row's total would wrap to a
        # negative number and decode to a -inf score without a warning.
        half = 2 ** 62
        text = valid_text()
        assert "the\t12 0 0\n" in text and "\n0\t\t0 2 1\n" in text
        # The trie is derived, so a trie row of such counts is not the writer's.
        for old, new, message in (
                ("the\t12 0 0\n", f"the\t{half} {half} 0\n", "^lexicon: .* sum past 2\\*\\*63 - 1"),
                ("\n0\t\t0 2 1\n", f"\n0\t\t0 {half} {half}\n", NOT_DERIVED + ".*: row 1 reads")):
            with pytest.raises(ModelFormatError, match=message):
                model_from_text(text.replace(old, new, 1))
        # A total of exactly 2**63 - 1 still loads.
        model = model_from_text(text.replace("the\t12 0 0\n", f"the\t{half} {half - 1} 0\n", 1))
        assert model.lexicon.counts.totals().max() == 2 ** 63 - 1
        assert model.lexicon["the"].sum() == 2 ** 63 - 1

    def test_bad_trie_depth_rejected(self):
        lines = valid_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[trie]"))
        fields = lines[start + 2].split("\t")
        fields[0] = "9"  # jumps more than one level below the root
        lines[start + 2] = "\t".join(fields)
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

    def test_missing_meta_key_rejected(self):
        lines = valid_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[meta]"))
        count = int(lines[start].split()[1])
        drop = next(i for i, l in enumerate(lines) if l.startswith("order\t"))
        del lines[drop]
        lines[start] = f"[meta] {count - 1}"
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

    def test_sigma_scale_other_than_1_rejected(self):
        # The smoothing step has no scale: format 1 keeps the key, always 1.
        text = valid_text()
        assert text.count("\nsigma_scale\t1\n") == 1
        for bad in ("1.0", "+1", "0", "1.5", "nan", "inf", "-1", "01", " 1", "1e0", ""):
            read = repr("sigma_scale\t" + bad)
            with pytest.raises(ModelFormatError, match=f"^meta: row 4 reads {re.escape(read)}, "
                               "but the writer writes 'sigma_scale\\\\t1'$"):
                model_from_text(text.replace("\nsigma_scale\t1\n", f"\nsigma_scale\t{bad}\n"))

    def test_lambdas_on_non_interp_model_rejected(self):
        lines = valid_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[meta]"))
        count = int(lines[start].split()[1])
        lines[start] = f"[meta] {count + 1}"
        # After digest, where the writer puts lambdas, and well formed, so
        # only the smoothing mode is wrong.
        lines.insert(start + count + 1, "lambdas\t0.5,0.2,0.3")
        with pytest.raises(ModelFormatError, match="lambdas present iff smoothing is interp"):
            model_from_text("\n".join(lines) + "\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_text("")

    def test_read_model_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_model(str(tmp_path / "missing.txt"))


@pytest.fixture(scope="module")
def big_text():
    # 16 tags at order 4 and 3000 words seen twice each: [transitions],
    # [lexicon] and [trie] each hold more than 2048 rows, so row 2100 lies
    # past the loader's first block of rows.
    tags = np.random.default_rng(5).integers(0, 16, size=6000)
    lines = [f"w{i % 3000}\tT{t:02d}" + ("\n" if i % 10 == 9 else "")
             for i, t in enumerate(tags)]
    return model_to_text(train_model(parse_corpus("\n".join(lines) + "\n"), order=4))


def edit_rows(text, section, rows, edit):
    """Replace the numbers of each given 0-based row of a section by
    ``edit(numbers)``."""
    lines = text.split("\n")
    start = next(i for i, l in enumerate(lines) if l.startswith(f"[{section}] "))
    for row in rows:
        assert row < int(lines[start].split(" ")[1])
        key, sep, numbers = lines[start + 1 + row].rpartition("\t")
        lines[start + 1 + row] = key + sep + edit(numbers.split(" "))
    return "\n".join(lines)


@contextlib.contextmanager
def no_warnings():
    # Recorded, not raised: a warning turned into an error could be caught
    # inside the loader and pass for a format error.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not caught, [str(w.message) for w in caught]


def assert_rejected_without_warnings(text):
    with no_warnings(), pytest.raises(ModelFormatError):
        model_from_text(text)


class TestBlockedParse:
    """Every section is parsed in blocks of rows; a fault past the first
    block must be found like one in it."""

    def test_large_model_round_trips(self, big_text):
        for section in ("transitions", "lexicon", "trie"):
            header = next(l for l in big_text.split("\n") if l.startswith(f"[{section}] "))
            assert int(header.split(" ")[1]) > 2100
        with no_warnings():
            assert model_to_text(model_from_text(big_text)) == big_text

    def test_section_read_copies_no_more_than_twice_itself(self):
        # A section of 0.47 MB, then a text 16 times as long: reading the
        # section's lines copies at most about twice the section, never the
        # text after it.
        count = 52_428
        rows = "".join(f"w{i:07d}\n" for i in range(count))

        def read(tail):
            reader = _SectionReader(f"[lexicon] {count}\n{rows}{tail}")
            lines, peak = traced_peak(lambda: reader.section("lexicon"))
            assert lines == rows.split("\n")[:-1]
            assert reader.text.startswith(tail, reader.at)
            return peak

        alone = read("")
        assert read("[trie] 0\n" + 16 * rows) < alone + 2 * len(rows)

    @pytest.mark.parametrize("section", ["lexicon", "trie"])
    def test_bad_count_row_past_first_block(self, big_text, section):
        # In the trie, row 2100 or the first begin-of-word leaf after it, so
        # that a node without counts has no child above it.
        lines = big_text.split("\n")
        start = lines.index(next(l for l in lines if l.startswith(f"[{section}] "))) + 1
        row = next(r for r in range(2100, len(lines))
                   if section == "lexicon" or lines[start + r].split("\t")[1] == "")
        edits = [lambda v: " ".join(["1x"] + v[1:]),  # malformed integer
                 lambda v: " ".join(v[:-1]),  # one number short
                 lambda v: " ".join(v + ["0"]),  # one number too many
                 lambda v: "",  # blank, which np.loadtxt would skip
                 lambda v: " ".join(["-1"] + v[1:]),
                 lambda v: " ".join(["0"] * len(v)),
                 lambda v: " ".join([str(2 ** 62)] * 2 + v[2:])]  # sums past int64
        if section == "trie":
            edits.append(lambda v: " ".join(["1000000"] + v[1:]))  # above its parent
        for edit in edits:
            assert_rejected_without_warnings(edit_rows(big_text, section, [row], edit))
        # A [lexicon] message names the block of rows, counted in the section;
        # a derived [trie]'s names the row.
        lo = row // 256 * 256
        message = (f"^lexicon: a row among {lo + 1}-{lo + 256} " if section == "lexicon" else
                   f"{NOT_DERIVED}.*: row {row + 1} reads '")
        with pytest.raises(ModelFormatError, match=message):
            model_from_text(edit_rows(big_text, section, [row], edits[0]))

    def test_trie_edits_past_first_block_not_derived(self, big_text):
        # Rows that still parse: a count moved between two tags of one row,
        # the row's total kept, and two sibling letters swapped.
        trie = model_from_text(big_text).unknown_word_model.trie
        lines = big_text.split("\n")
        start = section_start(lines, "trie")

        def moved(v):
            c = next(i for i, x in enumerate(v) if x != "0")
            d = (c + 1) % len(v)
            v[c], v[d] = str(int(v[c]) - 1), str(int(v[d]) + 1)
            return " ".join(v)

        parents = trie.parents.tolist()
        i, j = next((i, j) for i in range(2100, len(parents))
                    for j in range(i + 1, len(parents)) if parents[j] == parents[i])
        (depth, letter, counts), (_, letter2, counts2) = (lines[start + r].split("\t")
                                                           for r in (i, j))
        swapped = list(lines)
        swapped[start + i] = "\t".join([depth, letter2, counts])
        swapped[start + j] = "\t".join([depth, letter, counts2])
        for bad in (edit_rows(big_text, "trie", [2100], moved), "\n".join(swapped)):
            assert bad != big_text
            with no_warnings(), pytest.raises(ModelFormatError, match=NOT_DERIVED):
                model_from_text(bad)

    def test_trie_rows_short_or_long_not_derived_unrendered(self, big_text, monkeypatch):
        # A row count other than the derived trie's is rejected before the
        # derived trie's counts exist, so before its rows are written out.
        lines = big_text.split("\n")
        start = section_start(lines, "trie")
        short = list(lines)
        del short[start + 2100]
        short[start - 1] = f"[trie] {int(lines[start - 1].split(' ')[1]) - 1}"
        long = insert_row(big_text, "trie", 2100, lines[start + 2100])

        def unrendered(*args):
            raise AssertionError("rendered the derived trie")

        monkeypatch.setattr("succabs.model_io._trie_heads", unrendered)
        for bad in ("\n".join(short), long):
            with pytest.raises(ModelFormatError, match=NOT_DERIVED):
                model_from_text(bad)

    def test_bad_probability_row_past_first_block(self, big_text):
        for edit in (lambda v: " ".join(["nan"] + v[1:]),
                     lambda v: " ".join(["inf"] + v[1:]),
                     lambda v: " ".join(["-inf"] + v[1:]),
                     lambda v: " ".join(["0.1.2"] + v[1:]),
                     lambda v: " ".join(v[:-1])):
            assert_rejected_without_warnings(edit_rows(big_text, "transitions", [2100], edit))

    def test_all_blank_last_block(self, big_text):
        # A block of only blank rows makes np.loadtxt warn "no data".  Rows
        # 2048 to the end fill whole blocks of any power-of-two size up to 2048.
        assert_rejected_without_warnings(
            edit_rows(big_text, "lexicon", range(2048, 3000), lambda v: ""))

    def test_one_tag_model(self):
        model = train_model(parse_corpus("a\tX\nb\tX\n\nb\tX\n\n"))
        text = model_to_text(model)
        assert "[unigram] 1\n1\n" in text
        assert model_to_text(model_from_text(text)) == text

    def test_empty_lexicon(self):
        model = train_model(small_corpus())
        empty = Lexicon((), sparse_rows(np.zeros((0, 3), dtype=np.int64)))
        policy = model.unknown_word_model.policy
        unknown = build_unknown_word_model(build_suffix_trie(empty, policy), policy)
        text = model_to_text(dataclasses.replace(model, lexicon=empty,
                                                 unknown_word_model=unknown))
        assert "[lexicon] 0\n[trie] 1\n0\t\t0 0 0\n[unknown_root]" in text
        assert model_to_text(model_from_text(text)) == text

    def test_trie_of_only_the_root(self):
        # No word is rarer than once, so the trie holds only its empty root.
        model = train_model(small_corpus(), policy=RareWordPolicy(frequency_threshold=1))
        text = model_to_text(model)
        assert "[trie] 1\n0\t\t0 0 0\n[unknown_root]" in text
        assert model_to_text(model_from_text(text)) == text


class TestNumberSpellings:
    """Counts are ASCII decimal integers and probabilities decimal floats.
    ``int()`` and ``float()`` also took underscores and non-ASCII digits;
    succabs never writes any of these spellings."""

    def test_count_spellings_rejected(self):
        text = valid_text()
        assert text.count("the\t12 0 0\n") == 1
        for bad, plain in (("1_000", "1000"), ("\u0661\u0662", "12"), ("\uff11\uff12", "12"),
                           ("0xc", "12"), ("1e3", "1000"), ("12.0", "12")):
            model_from_text(text.replace("the\t12 0 0", f"the\t{plain} 0 0"))
            assert_rejected_without_warnings(text.replace("the\t12 0 0", f"the\t{bad} 0 0"))

    def test_count_row_spellings_rejected(self):
        # Counts inside [lexicon] and [trie] rows: np.loadtxt takes a
        # leading zero, a sign and -0, which would write back other bytes.
        text = valid_text()
        assert text.count("the\t12 0 0\n") == 1
        assert text.count("\n1\tt\t0 2 1\n") == 1
        for bad in ("012", "+12", "0012", "12\u00a0", "\uff11\uff12"):
            assert_rejected_without_warnings(text.replace("the\t12 0 0", f"the\t{bad} 0 0"))
        for bad in ("0 02 1", "0 +2 1", "-0 2 1", "+0 2 1", "0 2 01", "0 2 \uff11"):
            assert_rejected_without_warnings(text.replace("\n1\tt\t0 2 1\n", f"\n1\tt\t{bad}\n"))

    def test_count_spelling_past_first_block_names_its_block(self, big_text):
        # Each message names the row, counted in the section, as read and as written.
        for section, prefix in (("lexicon", "^lexicon"), ("trie", NOT_DERIVED + ".*")):
            bad = edit_rows(big_text, section, [2100], lambda v: " ".join(["0" + v[0]] + v[1:]))
            line = section_start(big_text.split("\n"), section) + 2100
            read, written = (repr(text.split("\n")[line]) for text in (bad, big_text))
            message = (f"{prefix}: row 2101 reads {re.escape(read)}, "
                       f"but the writer writes {re.escape(written)}$")
            with pytest.raises(ModelFormatError, match=message):
                model_from_text(bad)

    def test_context_key_spellings_rejected(self):
        # int() takes each of these keys as the context 0,1; the writer
        # spells it "0,1".
        interp = model_to_text(train_model(small_corpus(), order=3, smoothing="interp",
                                           lambdas=(0.2, 0.3, 0.5)))
        for text, section in ((valid_text(), "transitions"), (interp, "freqs")):
            lines = text.split("\n")
            start = section_start(lines, section)
            assert text.count("\n0,1\t") == 1
            row = lines.index(next(l for l in lines if l.startswith("0,1\t"))) - start + 1
            for bad in ("0,01", "0,+1", "0, 1", "00,1", "0,1 ", "0,\u0661"):
                read = re.escape(repr(bad + "\t")[:-1])  # the row as read, less its cells
                with pytest.raises(ModelFormatError, match=f"^{section}: row {row} reads {read}"):
                    model_from_text(text.replace("\n0,1\t", f"\n{bad}\t"))

    def test_probability_spellings_rejected(self):
        model = train_model(small_corpus())
        quarter = ConditionalDistribution.from_probs([0.25, 0.25, 0.5])
        text = model_to_text(dataclasses.replace(model, unigram=quarter))
        assert text.count("[unigram] 1\n0.25 ") == 1
        model_from_text(text)
        for bad in ("0x1p-2", "0.2_5", "\u0660.\u0662\u0665"):
            assert_rejected_without_warnings(
                text.replace("[unigram] 1\n0.25 ", f"[unigram] 1\n{bad} "))


    def test_meta_and_one_line_float_spellings_rejected(self):
        # Floats the loader re-formats cheaply must be spelled as %.17g
        # writes them, so a file that loads writes back its bytes.
        text = valid_text()
        unigram = "\n[unigram] 1\n0.75757575757575757 "
        unknown = "\n[unknown_root] 1\n0.1111111111111111 "
        edits = [(unigram, unigram.replace("0.7", bad)) for bad in ("+0.7", "0.70", " 0.7")]
        edits += [(unigram, unigram[:-1] + "0 "), (unknown, unknown[:-1] + "0 ")]
        interp = model_to_text(train_model(small_corpus(), order=3, smoothing="interp",
                                           lambdas=(0.2, 0.3, 0.5)))
        lambdas = "\nlambdas\t0.20000000000000001,0.29999999999999999,0.5\n"
        for plain, bad in edits + [(lambdas, "\nlambdas\t0.2,0.3,0.5\n"),
                                   (lambdas, lambdas.replace(",0.5", ",+0.5"))]:
            source = interp if plain == lambdas else text
            assert source.count(plain) == 1
            assert_rejected_without_warnings(source.replace(plain, bad))

    def test_integer_spellings_rejected(self):
        # Trie depths, section sizes and [meta] integers must be spelled as
        # the writer spells them, so a file that loads writes back its bytes.
        text = valid_text()
        assert text.count("\n1\tt\t0 2 1\n") == 1
        assert text.count("\n[trie] 9\n") == 1
        edits = [("\n1\tt\t", f"\n{bad}\tt\t") for bad in ("01", "+1", " 1", "1 ", "\u0661")]
        edits += [("\n[trie] 9\n", f"\n[trie] {bad}\n") for bad in ("09", "+9", " 9", "\u0669")]
        edits += [("\norder\t3\n", f"\norder\t{bad}\n") for bad in ("03", "+3", "3 ", "\u0663")]
        edits += [("\nmax_suffix\t10\n", "\nmax_suffix\t010\n"),
                  ("\nrare_threshold\t10\n", "\nrare_threshold\t+10\n")]
        for plain, bad in edits:
            assert text.count(plain) == 1
            assert_rejected_without_warnings(text.replace(plain, bad))
        # Spelled as the writer spells them, but no model has an order below
        # 1: the loader rejects it at [meta], and training before it counts.
        for bad in (0, -1):
            message = f"model order must be at least 1, not {bad}$"
            with pytest.raises(ModelFormatError, match="^meta: " + message):
                model_from_text(text.replace("\norder\t3\n", f"\norder\t{bad}\n"))
            with pytest.raises(ValidationError, match="^" + message):
                train_model(small_corpus(), order=bad)

    def test_meta_keys_out_of_order_rejected(self):
        text = model_to_text(train_model(small_corpus(), order=3, smoothing="interp",
                                         lambdas=(0.2, 0.3, 0.5)))
        lines = text.split("\n")
        start = section_start(lines, "meta")
        assert model_to_text(model_from_text(text)) == text
        for i in range(7):
            swapped = swap_rows(text, "meta", i, i + 1)
            with pytest.raises(ModelFormatError, match=f"^meta: row {i + 1} reads "):
                model_from_text(swapped)
        assert lines[start + 7].startswith("lambdas\t")


# A [trie] that is not build_suffix_trie's of the [lexicon] and [meta].
NOT_DERIVED = "^trie: not the suffix trie of the lexicon's words"


def section_start(lines, section):
    """Index of the first row of a section in the file's lines."""
    return lines.index(next(l for l in lines if l.startswith(f"[{section}] "))) + 1


def swap_rows(text, section, i, j):
    lines = text.split("\n")
    start = section_start(lines, section)
    lines[start + i], lines[start + j] = lines[start + j], lines[start + i]
    return "\n".join(lines)


def insert_row(text, section, after, row):
    """Insert a row after the given 0-based row, and count it in the header."""
    lines = text.split("\n")
    start = section_start(lines, section)
    lines.insert(start + after + 1, row)
    lines[start - 1] = f"[{section}] {int(lines[start - 1].split(' ')[1]) + 1}"
    return "\n".join(lines)


def load_error(mutant, cell_edit=False):
    """The ``ModelFormatError`` a mutant raises, or None if it loads.  One
    that loads must write back its own bytes, unless ``cell_edit``: the edit
    lies in the float cells of ``[transitions]``/``[freqs]``, the only text
    the loader does not compare with the writer's."""
    try:
        model = model_from_text(mutant)
    except ModelFormatError as bad:
        return bad
    assert cell_edit or model_to_text(model) == mutant
    return None


# Characters a one-line edit inserts: digits, separators, signs, number
# and key letters, a newline and a non-ASCII letter.
EDIT_CHARS = "019 \t\n,.-+e_aé"


def one_line_edit(text, rng):
    """A seeded edit to one line of a model text: insert a character, delete
    one, swap the line with the next, bump a digit, or delete the line if
    it is a section's row and count it out of the header.  The line is drawn
    from the magic line or a section, each as likely, the header included;
    a character edit lies in one of its tab-separated fields, each as
    likely, or at the field's end.  Returns the mutant and whether the edit
    lies in the float cells of ``[transitions]``/``[freqs]``."""
    lines = text.split("\n")[:-1]
    table = "freqs" if "\n[freqs] " in text else "transitions"
    names = ("meta", "tags", "unigram", table, "lexicon", "trie", "unknown_root")
    bounds = [0] + [section_start(lines, name) - 1 for name in names] + [len(lines)]
    part = int(rng.integers(len(bounds) - 1))
    i = int(rng.integers(bounds[part], bounds[part + 1]))
    line, kind = lines[i], int(rng.integers(5))
    tabs = [p for p, c in enumerate(line) if c == "\t"]
    field = int(rng.integers(len(tabs) + 1))
    lo, hi = ([0] + [p + 1 for p in tabs])[field], (tabs + [len(line)])[field]
    at = int(rng.integers(lo, hi + 1))  # hi is the field's tab, or the line's end
    digits = [p for p in range(lo, hi) if line[p] in "0123456789"]
    if kind == 0:
        lines[i] = line[:at] + rng.choice(list(EDIT_CHARS)) + line[at:]
    elif kind == 1:
        lines[i] = line[:at] + line[at + 1:]
    elif kind == 2 and i + 1 < len(lines):
        lines[i], lines[i + 1], at = lines[i + 1], line, -1
    elif kind == 3 and digits:
        at = int(rng.choice(digits))
        lines[i] = line[:at] + str((int(line[at]) + 1) % 10) + line[at + 1:]
    elif kind == 4 and i > bounds[part]:
        name, count = lines[bounds[part]].split(" ")
        lines[bounds[part]], at = f"{name} {int(count) - 1}", -1
        del lines[i]
    cell = part > 0 and names[part - 1] == table and i > bounds[part] and at > line.find("\t")
    return "\n".join(lines) + "\n", cell


class TestCanonicalOrder:
    """Rows must come in the order the writer puts them in, so a file that
    loads writes back to the same bytes."""

    def interp_text(self):
        return model_to_text(train_model(small_corpus(), order=3, smoothing="interp",
                                         lambdas=(0.2, 0.3, 0.5)))

    def test_reordered_rows_rejected(self):
        # Rows 3 and 5 of the trie are the siblings "b" and "c" under "ta".
        for text, section, i, j, message in (
                (valid_text(), "transitions", 1, 2, "^transitions: .*order"),
                (self.interp_text(), "freqs", 1, 2, "^freqs: .*order"),
                (valid_text(), "lexicon", 0, 1, "^lexicon: .*order"),
                (valid_text(), "trie", 3, 5, NOT_DERIVED)):
            with pytest.raises(ModelFormatError, match=message):
                model_from_text(swap_rows(text, section, i, j))

    def test_equal_keys_are_duplicates(self):
        text = valid_text()
        lines = text.split("\n")
        row = lines[section_start(lines, "transitions") + 1]
        for old, new, message in ((row, "\t" + row.split("\t")[1], "^transitions: duplicate"),
                                  ("cat\t", "bat\t", "^lexicon: duplicate"),
                                  ("3\tc\t", "3\tb\t", NOT_DERIVED)):
            assert text.count(old) == 1
            with pytest.raises(ModelFormatError, match=message):
                model_from_text(text.replace(old, new))

    def test_loaded_files_write_back_their_bytes(self):
        # Any two rows of a section swapped: the file is rejected, or it
        # loads and writes back byte for byte.
        rng = np.random.default_rng(77)
        loaded = 0
        for n in range(40):
            corpus = random_corpus(rng, via_text=True)
            order = int(rng.integers(1, 4))
            smoothing = ("sa", "ele", "interp")[n % 3]
            policy = RareWordPolicy(int(rng.integers(1, 6)), int(rng.choice([1, 3, 10])))
            text = model_to_text(train_model(
                corpus, order=order, policy=policy, smoothing=smoothing,
                lambdas=[1 / order] * order if smoothing == "interp" else None))
            assert model_to_text(model_from_text(text)) == text
            lines = text.split("\n")
            sections = [(name, int(lines[section_start(lines, name) - 1].split(" ")[1]))
                        for name in ("tags", "freqs" if smoothing == "interp" else "transitions",
                                     "lexicon", "trie")]
            sections = [(name, count) for name, count in sections if count >= 2]
            for _ in range(10):
                name, count = sections[int(rng.integers(len(sections)))]
                i, j = rng.choice(count, size=2, replace=False)
                mutant = swap_rows(text, name, int(i), int(j))
                loaded += load_error(mutant) is None and mutant != text
        assert loaded > 0

    def test_one_line_edits_rejected_or_written_back(self):
        # Every section, headers and the magic line included: a mutant is
        # rejected or writes back its own bytes, but for an edit to a float
        # cell of [transitions]/[freqs].
        train = synthesize_corpus(SynthesisConfig(num_tags=3, vocab_size=40,
                                                  num_train_tokens=300, num_test_tokens=10,
                                                  seed=3))[0]
        rng = np.random.default_rng(20)
        outcomes = collections.Counter()
        for order in (2, 3):
            for smoothing in ("sa", "interp", "ele"):
                text = model_to_text(train_model(
                    train, order=order, smoothing=smoothing, policy=RareWordPolicy(8, 6),
                    lambdas=[1 / order] * order if smoothing == "interp" else None))
                for _ in range(200):
                    mutant, cell = one_line_edit(text, rng)
                    if mutant != text:
                        bad = load_error(mutant, cell)
                        outcomes[cell, bad is None] += 1
                        # A context row deleted while a longer one stays.
                        outcomes["orphan"] += "is stored, but its suffix" in str(bad)
        assert outcomes[False, False] > 500 and outcomes[False, True] > 50
        assert outcomes[True, False] > 0 and outcomes[True, True] > 0
        assert outcomes["orphan"] > 0

    def test_node_deeper_than_max_suffix_rejected(self):
        # Lookups stop at max_suffix letters, so a deeper node is never used.
        text = model_to_text(train_model(small_corpus(),
                                         policy=RareWordPolicy(max_suffix_length=3)))
        lines = text.split("\n")
        assert lines[section_start(lines, "trie") + 4] == "3\tc\t0 1 0"
        with pytest.raises(ModelFormatError, match=NOT_DERIVED):
            model_from_text(insert_row(text, "trie", 4, "4\tx\t0 1 0"))

    def test_child_of_begin_of_word_rejected(self):
        # The marker ends every lookup path, so nothing below it is used.
        text = valid_text()
        lines = text.split("\n")
        assert lines[section_start(lines, "trie") + 6] == "4\t\t0 1 0"
        below_root = insert_row(insert_row(text, "trie", 0, "2\tx\t0 1 0"),
                                "trie", 0, "1\t\t0 1 0")
        for bad in (insert_row(text, "trie", 6, "5\tx\t0 1 0"), below_root):
            with pytest.raises(ModelFormatError, match=NOT_DERIVED):
                model_from_text(bad)


class TestLoneSurrogates:
    def test_rejected_with_the_line(self, tmp_path):
        # A str can hold a lone surrogate, which no UTF-8 file can: such a
        # model would load and then fail to be written.
        text = model_to_text(trained_models()[0])
        lines = text.split("\n")
        for line, old, new in ((lines.index("NN") + 1, "\nNN\n", "\nN\ud8001\n"),
                               (lines.index("cat\t0 1 0") + 1, "\ncat\t", "\nc\udfffat\t")):
            assert text.count(old) == 1
            with pytest.raises(ModelFormatError, match=f"^line {line}: not UTF-8 text$"):
                model_from_text(text.replace(old, new))
        model = model_from_text(text)
        write_model(model, str(tmp_path / "m.txt"))
        assert read_model(str(tmp_path / "m.txt")).tag_set == model.tag_set


class TestDerivedSections:
    """``[trie]`` and ``[unknown_root]`` must be what ``build_suffix_trie``
    and ``build_unknown_word_model`` make of ``[lexicon]`` and ``[meta]``."""

    def test_edits_no_training_run_makes_rejected(self):
        # A rare word's count raised, the trie root's count raised and two
        # root probabilities swapped: well-formed files no lexicon trains to.
        text = valid_text()
        root = "\n[unknown_root] 1\n0.1111111111111111 0.55555555555555558 "
        for old, new, message in (
                ("\ncat\t0 1 0\n", "\ncat\t0 3 0\n", NOT_DERIVED),
                ("\n0\t\t0 2 1\n", "\n0\t\t0 3 1\n", NOT_DERIVED),
                (root, "\n[unknown_root] 1\n0.55555555555555558 0.1111111111111111 ",
                 "^unknown_root: not the root_mode estimate")):
            assert text.count(old) == 1
            with pytest.raises(ModelFormatError, match=message):
                model_from_text(text.replace(old, new))

    def test_unknown_root_mode_rejected(self):
        text = valid_text()
        assert text.count("\nroot_mode\tele\n") == 1
        with pytest.raises(ModelFormatError, match="^meta: .*root mode"):
            model_from_text(text.replace("\nroot_mode\tele\n", "\nroot_mode\tbogus\n"))
        for smoothing in ("sa", "ele"):
            with pytest.raises(ValidationError, match="root mode"):
                train_model(small_corpus(), smoothing=smoothing, root_mode="bogus")

    def test_relative_frequency_root_without_rare_words_rejected(self):
        # Training refuses an rf root of zero counts; so does the loader.
        text = model_to_text(train_model(small_corpus(),
                                         policy=RareWordPolicy(frequency_threshold=1)))
        assert text.count("\nroot_mode\tele\n") == 1
        with pytest.raises(ModelFormatError, match="^unknown_root: no word is rarer"):
            model_from_text(text.replace("\nroot_mode\tele\n", "\nroot_mode\trf\n"))

    def test_rare_counts_pooling_past_int64_rejected(self):
        # Three rare rows of 2**63 - 1: the trie root's pooled counts would wrap.
        text = model_to_text(train_model(parse_corpus("a\tX\nb\tX\nc\tX\nd\tY\n\n")))
        top = 2 ** 63 - 1
        edits = (("\nrare_threshold\t10\n", f"\nrare_threshold\t{2 ** 63}\n"),
                 ("\na\t1 0\nb\t1 0\nc\t1 0\nd\t0 1\n",
                  f"\na\t{top} 0\nb\t{top} 0\nc\t{top} 0\nd\t1 1\n"))
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        with pytest.raises(ModelFormatError,
                           match="^lexicon: the counts of the rare words sum past 2\\*\\*63 - 1"):
            model_from_text(text)

    def test_max_suffix_past_every_word(self):
        # The derived trie is as deep as the longest word, whatever depth
        # the file allows.
        text = valid_text()
        assert text.count("\nmax_suffix\t10\n") == 1
        deep = text.replace("\nmax_suffix\t10\n", f"\nmax_suffix\t{10 ** 15}\n")
        assert model_to_text(model_from_text(deep)) == deep

    def test_long_word_load_memory_is_linear(self):
        # The loader builds the trie of whatever [lexicon] and max_suffix a
        # file holds: one 4,000-letter rare word among 600 must cost memory
        # in proportion to the text, not rare words x longest word.  Nor
        # may decoding one 100,000-letter unknown word among short ones
        # cost more than a fixed multiple of its length.
        rng = np.random.default_rng(16)
        words = sorted({"".join(rng.choice(list("abcdef"), size=6)) for _ in range(1200)})
        words = words[:599] + ["q" * 4000]
        corpus = parse_corpus("\n".join(f"{w}\t{'XY'[i % 2]}" for i, w in enumerate(words)))
        text = model_to_text(train_model(corpus, order=2, policy=RareWordPolicy(10, 10 ** 6)))
        tracemalloc.start()
        try:
            model = model_from_text(text)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tagged = tag_corpus(model, [["z" * 10 ** 5] + [f"q{i}" for i in range(100)]])
            decode_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model_to_text(model) == text and len(tagged[0]) == 101
        assert load_peak < 60 * len(text), (load_peak, len(text))
        assert decode_peak < 60 * 10 ** 5, decode_peak

    def test_trie_cut_to_its_root_load_memory_is_linear(self):
        # 200 rare words of 500 random letters under max_suffix 10**6 make
        # a trie of about 100,000 nodes over 100 tags; a [trie] of only the
        # root row is rejected before any of that trie's counts are pooled.
        rng = np.random.default_rng(18)
        words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=500))
                 for _ in range(200)]
        corpus = parse_corpus("\n".join(f"{w}\tT{i % 100:02d}" for i, w in enumerate(words)))
        text = model_to_text(train_model(corpus, order=2, policy=RareWordPolicy(10, 1)))
        lines = text.split("\n")
        start = section_start(lines, "trie")
        end = start + int(lines[start - 1].split(" ")[1])
        assert lines[start].startswith("0\t\t") and lines.count("max_suffix\t1") == 1
        lines[start - 1:end] = ["[trie] 1", lines[start]]
        text = "\n".join(lines).replace("\nmax_suffix\t1\n", f"\nmax_suffix\t{10 ** 6}\n")
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match=NOT_DERIVED):
                model_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * len(text), (peak, len(text))

    def test_trie_memory_follows_its_nonzero_counts(self, tmp_path):
        # 300 rare words of 120 random letters over 100 tags make a trie of
        # about 36,000 nodes, nearly all on one word's path with one nonzero
        # count: 29 MB as a dense (nodes, K) int64 matrix.  Building it and
        # tagging unknown words that walk it cost memory in proportion to
        # its nodes and nonzero counts.  The file holds two bytes a cell, so
        # ``model_to_text`` and loading may hold the text twice over, but no
        # eight bytes a cell besides; ``write_model``, which writes a block
        # of rows at a time, holds less than the text once.
        rng = np.random.default_rng(24)
        words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=120))
                 for _ in range(300)]
        corpus = parse_corpus("\n".join(f"{w}\tT{i % 100:02d}" for i, w in enumerate(words)))
        policy = RareWordPolicy(10, 10 ** 6)
        lexicon = build_lexicon(corpus)
        model = train_model(corpus, order=2, policy=policy)
        unknown = ["x" + w for w in words[:100]]  # each walks a whole word's path

        trie, build_peak = traced_peak(lambda: build_suffix_trie(lexicon, policy))
        text, write_peak = traced_peak(lambda: model_to_text(model))
        _, file_peak = traced_peak(lambda: write_model(model, str(tmp_path / "model.txt")))
        loaded, load_peak = traced_peak(lambda: model_from_text(text))
        tagged, tag_peak = traced_peak(lambda: tag_corpus(loaded, [unknown]))
        nodes, nonzero = len(trie.depths), len(trie.counts.values)
        assert 8 * nodes * trie.counts.num_tags > 20 * 2 ** 20 and nonzero < 2 * nodes
        sparse = 150 * (nodes + nonzero)
        assert build_peak < sparse, (build_peak, sparse)
        assert tag_peak < sparse and len(tagged[0]) == 100, (tag_peak, sparse)
        assert write_peak < 2 * len(text) + sparse, (write_peak, len(text), sparse)
        assert file_peak < len(text), (file_peak, len(text))
        assert (tmp_path / "model.txt").read_bytes() == text.encode("utf-8")
        assert load_peak < 2 * len(text) + sparse, (load_peak, len(text), sparse)
        assert model_to_text(loaded) == text

    def test_lexicon_memory_follows_its_nonzero_counts(self):
        # 20,000 words over 200 tags, each seen with one or two of them:
        # about 30,000 nonzero counts, 32 MB as a dense (words, K) int64
        # matrix.  Counting them, training on them and loading them cost
        # memory in proportion to the words and nonzero counts, well below
        # that; the file holds two bytes a cell, so loading may hold the
        # text twice over, but no eight bytes a cell besides.
        rng = np.random.default_rng(27)
        words, k = [f"w{i:05d}" for i in range(20_000)], 200
        first = rng.integers(k, size=len(words))
        second = np.where(rng.random(len(words)) < 0.5,
                          (first + 1 + rng.integers(k - 1, size=len(words))) % k, -1)
        lines = [f"{w}\tT{t:03d}" for w, t in zip(words, first.tolist())]
        lines += [f"{w}\tT{t:03d}" for w, t in zip(words, second.tolist()) if t >= 0]
        order = rng.permutation(len(lines)).tolist()
        corpus = parse_corpus("\n\n".join("\n".join(lines[i] for i in order[at:at + 10])
                                          for at in range(0, len(order), 10)))
        policy = RareWordPolicy(frequency_threshold=1)  # no word is rare: the lexicon alone

        lexicon, build_peak = traced_peak(lambda: build_lexicon(corpus))
        model, train_peak = traced_peak(lambda: train_model(corpus, order=1, policy=policy))
        text = model_to_text(model)
        loaded, load_peak = traced_peak(lambda: model_from_text(text))
        nonzero, dense = len(lexicon.counts.values), 8 * len(words) * k
        assert nonzero == len(lines) and len(model.lexicon) == len(words)
        sparse = 150 * (len(words) + nonzero)
        assert sparse < dense / 4 and 2 * len(text) < dense
        assert build_peak < sparse, (build_peak, sparse)
        assert train_peak < sparse, (train_peak, sparse)
        assert load_peak < 2 * len(text) + sparse, (load_peak, len(text), sparse)
        assert model_to_text(loaded) == text

    @pytest.mark.parametrize("root_mode", ["ele", "rf"])
    def test_mutants_rejected_or_written_back(self, root_mode):
        # Seeded edits to the [lexicon], [trie] and [unknown_root] rows.  A
        # mutant loads only if it is a file some lexicon would write, and
        # never when the edit lies in a derived section.
        train = synthesize_corpus(SynthesisConfig(num_tags=3, vocab_size=40,
                                                  num_train_tokens=300, num_test_tokens=10,
                                                  seed=3))[0]
        text = model_to_text(train_model(train, order=2, root_mode=root_mode,
                                         policy=RareWordPolicy(8, 6)))
        rng = np.random.default_rng(15)
        tried, loaded = collections.Counter(), 0
        for _ in range(500):
            section = ("lexicon", "trie", "unknown_root")[int(rng.integers(3))]
            mutant = mutate(text, section, rng)
            if mutant == text:  # e.g. two equal counts swapped
                continue
            tried[section] += 1
            if load_error(mutant) is None:
                assert section == "lexicon"
                loaded += 1
        assert min(tried.values()) >= 100 and loaded > 0


def mutate(text, section, rng):
    """One seeded edit to a row of a section: drop, duplicate or swap rows
    (swap two numbers of a one-row section), change a number by one (a
    probability by one unit in the last place), or change a word's last
    letter or an edge letter."""
    lines = text.split("\n")
    start = section_start(lines, section)
    count = int(lines[start - 1].split(" ")[1])
    i = start + int(rng.integers(count))
    kind = ("drop", "duplicate", "swap", "number", "letter")[int(rng.integers(5))]
    if kind in ("drop", "duplicate"):
        lines[i:i + 1] = [] if kind == "drop" else [lines[i]] * 2
        lines[start - 1] = f"[{section}] {count + (1 if kind == 'duplicate' else -1)}"
        return "\n".join(lines)
    if kind == "swap" and count > 1:
        j = start + int(rng.choice([r for r in range(count) if start + r != i]))
        lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines)
    key, sep, numbers = lines[i].rpartition("\t")
    values = numbers.split(" ")
    c = int(rng.integers(len(values)))
    if kind == "swap":
        d = int(rng.integers(len(values)))
        values[c], values[d] = values[d], values[c]
    elif kind == "number" or section == "unknown_root":
        step = int(rng.choice([-1, 1]))
        values[c] = (format(float(np.nextafter(float(values[c]), step * np.inf)), ".17g")
                     if section == "unknown_root" else str(int(values[c]) + step))
    elif section == "trie":
        depth, _ = key.split("\t")
        key = f"{depth}\t{rng.choice(list('aeksz') + [''])}"
    else:
        key = key[:-1] + rng.choice(list("aeksz"))
    lines[i] = key + sep + " ".join(values)
    return "\n".join(lines)


def render(table, heads, ends):
    """``_render_blocks``' blocks joined: one section's rows."""
    return "".join(_render_blocks(table, heads, ends))


def assert_one_format_per_cell(matrix):
    keys = [f"{i}\tw{i}" for i in range(len(matrix))]
    row = "%s\t" + " ".join(["%d"] * matrix.shape[1]) + "\n"
    assert render(sparse_rows(matrix), *_heads(keys)) == "".join(
        row % (key, *cells.tolist()) for key, cells in zip(keys, matrix))


class TestCountLines:
    def test_equals_one_format_per_cell(self):
        rng = np.random.default_rng(9)
        cases = [np.zeros((0, 3), dtype=np.int64), np.zeros((4, 5), dtype=np.int64),
                 np.array([[7], [0], [12]], dtype=np.int64), np.full((3, 6), 2 ** 62)]
        for _ in range(300):
            n, k = int(rng.integers(0, 12)), int(rng.integers(1, 50))
            values = rng.integers(1, int(rng.choice([2, 100, 2 ** 62])), size=(n, k))
            cases.append(np.where(rng.random((n, k)) < rng.choice([0.0, 0.03, 0.3, 1.0]),
                                  values, 0))
        for matrix in cases:
            assert_one_format_per_cell(matrix)

    def test_digit_count_boundaries(self):
        # A cell's digit count places its digits and the cells after it,
        # and its digits come four to a table lookup, so the offsets move
        # exactly where a value gains a digit, and at a row's first and last
        # cells; rows are rendered in blocks, so a long matrix crosses their
        # edges.
        edges = np.array([v for j in range(1, 19) for v in (10 ** j - 1, 10 ** j)]
                         + [2 ** 63 - 1], dtype=np.int64)
        n = len(edges)
        first, last = np.zeros((n, 4), dtype=np.int64), np.zeros((n, 4), dtype=np.int64)
        first[:, 0] = edges
        last[:, -1] = edges
        padded = np.zeros((n + 4, 3), dtype=np.int64)  # all-zero rows at both ends
        padded[2:-2] = np.stack([edges, np.zeros(n, dtype=np.int64), edges[::-1]], axis=1)
        for matrix in (edges[None, :], edges[:, None], first, last, padded, np.diag(edges),
                       np.zeros((0, 5), dtype=np.int64), np.zeros((0, 1), dtype=np.int64),
                       np.tile(padded, (110, 1))):
            assert_one_format_per_cell(matrix)

    def test_trie_renders_as_its_dense_rows(self):
        # A trie's rows come from its sparse arrays: the same text as one
        # Python format per cell of its dense rows, across block edges, with
        # rows of one and many counts and counts of many digits.
        rng = np.random.default_rng(24)
        words = sorted({"".join(rng.choice(list("abcdé"), size=int(rng.integers(1, 30))))
                        for _ in range(400)})
        counts = np.where(rng.random((len(words), 7)) < 0.3,
                          rng.integers(1, 10 ** rng.integers(1, 15, size=(len(words), 7))), 0)
        counts[np.arange(len(words)), rng.integers(7, size=len(words))] += 1
        counts[:, 3] = 0  # a tag no word has
        counts[~counts.any(axis=1), 0] = 1  # but every word a tag
        trie = build_suffix_trie(Lexicon(tuple(words), sparse_rows(counts)),
                                 RareWordPolicy(2 ** 62, 40))
        assert len(trie.depths) > 2 * _RENDER
        keys = [f"{depth}\t{letter}" for depth, letter in zip(trie.depths.tolist(), letters(trie))]
        assert_same_lines(render(trie.counts, *_trie_heads(trie)),
                          python_rows(trie.counts.rows(np.arange(len(keys))), "%d".__mod__, keys))


def python_rows(matrix, spell, keys):
    """The rows one Python format per cell writes, each after its key and a tab."""
    return "".join(f"{key}\t" + " ".join(map(spell, row)) + "\n"
                   for key, row in zip(keys, matrix.tolist()))


def assert_same_lines(got, expect):
    """Equal texts, or the first line that differs: a diff of megabytes of
    text would take pytest minutes."""
    if got != expect:
        pairs = zip(got.split("\n"), expect.split("\n"))
        line, pair = next(((i, p) for i, p in enumerate(pairs) if p[0] != p[1]), (None, None))
        raise AssertionError(f"line {line}: rendered, then Python's: {pair}")


def assert_rendered_as_python(values, spell, width):
    """``_render_blocks`` of the values as one row, and as a matrix of ``width``
    columns long enough to cross a block edge, with non-ASCII row keys;
    counts as their ``SparseRows``."""
    table = (lambda m: m) if values.dtype.kind == "f" else sparse_rows
    padded = np.concatenate([values, np.zeros(-len(values) % width, dtype=values.dtype)])
    matrix = padded.reshape(-1, width)
    assert len(matrix) > _RENDER
    keys = [f"{i}" + "é\U0001f600"[i % 3:] for i in range(len(matrix))]
    assert_same_lines(render(table(matrix), *_heads(keys)), python_rows(matrix, spell, keys))
    row = values[:100_000][None, :]
    assert_same_lines(render(table(row), *_heads(["é"])), python_rows(row, spell, ["é"]))


def float_cases(rng):
    """About 500,000 doubles for each step of the %.17g path and its edges."""
    finite = np.array([np.inf]).view(np.int64)[0]  # every positive double's bits lie below
    low, one = np.array([1e-4, 1.0]).view(np.int64)
    powers = np.array([float(f"1e{p}") for p in range(-22, 1)])
    # x = c / 2**(p + 1) with c odd makes x * 10**p end in exactly .5; p is
    # 17 + z for x in the decade [10**-(z + 1), 10**-z).
    ties = []
    for z in range(4):
        p = 17 + z
        c = rng.integers(2 ** (p + 1) // 10 ** (z + 1) + 1, 2 ** (p + 1) // 10 ** z, 10_000) | 1
        ties.append(c / 2.0 ** (p + 1))
    ties = np.concatenate(ties)
    for x in ties[::499].tolist():
        p = 20 - sum(x >= 10.0 ** -e for e in (3, 2, 1))
        assert (fractions.Fraction(x) * 10 ** p).denominator == 2
    # The doubles nearest 17-digit decimal midpoints, in each of the four decades.
    significands = rng.integers(10 ** 16, 10 ** 17, 60_000).tolist()
    midpoints = [float(f"{2 * n + 1}e-{18 + i % 4}") for i, n in enumerate(significands)]
    edges = np.concatenate([low - np.arange(1, 3000), low + np.arange(3000),
                            one - np.arange(1, 3000)]).view(np.float64)
    special = [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -0.5, 1.5, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e-5, 0.5, 0.25, 0.1]
    anywhere = rng.integers(1, finite, 100_000).view(np.float64)  # log-uniform, subnormals too
    return rng.permutation(np.concatenate([
        anywhere, -anywhere[:20_000],
        rng.integers(low, one, 200_000).view(np.float64),  # log-uniform over [1e-4, 1)
        rng.random(100_000), np.nextafter(powers, 0), powers, np.nextafter(powers, 2),
        ties, midpoints, edges, special * 20]))


def count_cases(rng):
    """About 500,000 non-negative int64 counts: half zeros, the rest with
    uniformly 1 to 19 digits, and each power of ten and its predecessor."""
    digits = rng.integers(1, 20, 250_000)
    top = np.where(digits < 19, 10 ** np.minimum(digits, 18) - 1, 2 ** 63 - 1)
    values = rng.integers(10 ** (digits - 1), top, endpoint=True)
    edges = [v for j in range(1, 19) for v in (10 ** j - 1, 10 ** j)] + [2 ** 63 - 1]
    return rng.permutation(np.concatenate([values, np.zeros(250_000, dtype=np.int64),
                                           np.array(edges * 50, dtype=np.int64)]))


class TestRender:
    """``_render_blocks`` against one Python format per cell, on about 10**6 seeded
    values in all."""

    def test_floats_equal_format_17g(self):
        values = float_cases(np.random.default_rng(23))
        assert len(values) > 500_000
        assert_rendered_as_python(values, "{:.17g}".format, 97)

    def test_counts_equal_percent_d(self):
        values = count_cases(np.random.default_rng(29))
        assert values.dtype == np.int64 and len(values) > 500_000
        assert_rendered_as_python(values, "%d".__mod__, 48)
