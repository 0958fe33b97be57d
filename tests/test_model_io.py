import contextlib
import dataclasses
import warnings

import numpy as np
import pytest

from succabs.corpus import SynthesisConfig, parse_corpus, synthesize_corpus
from succabs.counts import Lexicon, RareWordPolicy
from succabs.errors import ModelFormatError
from succabs.lexicon import unknown_word_distribution
from succabs.model_io import (
    FORMAT_VERSION,
    MAGIC,
    _count_lines,
    model_from_text,
    model_to_text,
    read_model,
    write_model,
)
from succabs.smoothing import ConditionalDistribution
from succabs.tagger import tag_corpus, train_model, viterbi_tag_scored
from test_counts import random_corpus
from transition_oracle import query


def small_corpus():
    return parse_corpus(
        "\n".join(["the\tAT"] * 12 + ["cat\tNN", "bat\tNN", "sat\tVB"]) + "\n\n")


def trained_models():
    corpus = small_corpus()
    return [
        train_model(corpus, order=3),
        train_model(corpus, order=2, root_mode="rf", sigma_scale=1.5),
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
            assert loaded.lexicon.counts.dtype == np.int64
            assert loaded.lexicon.counts.tolist() == model.lexicon.counts.tolist()
            assert not loaded.lexicon.counts.flags.writeable
            for name in ("counts", "depths", "codes", "parents"):
                got = getattr(loaded.unknown_word_model.trie, name)
                expect = getattr(model.unknown_word_model.trie, name)
                assert got.dtype == expect.dtype and got.tolist() == expect.tolist()
            for word in ("cat", "mat", "zzz", "unseen"):
                np.testing.assert_array_equal(
                    unknown_word_distribution(loaded.unknown_word_model, word).probs,
                    unknown_word_distribution(model.unknown_word_model, word).probs)

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

    def test_truncated_input(self):
        text = valid_text()
        for cut in (len(text) // 4, len(text) // 2, len(text) - 20):
            with pytest.raises(ModelFormatError):
                model_from_text(text[:cut])

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

    def test_non_finite_or_negative_sigma_scale_rejected(self):
        text = valid_text()
        assert text.count("\nsigma_scale\t1\n") == 1
        for bad in ("nan", "inf", "-inf", "-1"):
            with pytest.raises(ModelFormatError, match="sigma scale must be finite"):
                model_from_text(text.replace("\nsigma_scale\t1\n", f"\nsigma_scale\t{bad}\n"))
        zero = text.replace("\nsigma_scale\t1\n", "\nsigma_scale\t0\n")
        assert model_to_text(model_from_text(zero)) == zero

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
                 lambda v: " ".join(["0"] * len(v))]
        if section == "trie":
            edits.append(lambda v: " ".join(["1000000"] + v[1:]))  # above its parent
        for edit in edits:
            assert_rejected_without_warnings(edit_rows(big_text, section, [row], edit))
        lo = row // 256 * 256  # the message names the block of rows, counted in the section
        with pytest.raises(ModelFormatError, match=f"^{section}: a row among {lo + 1}-{lo + 256} "):
            model_from_text(edit_rows(big_text, section, [row], edits[0]))

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
        empty = Lexicon((), np.zeros((0, 3), dtype=np.int64))
        text = model_to_text(dataclasses.replace(model, lexicon=empty))
        assert "[lexicon] 0\n[trie]" in text
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
                           ("0x1", "1"), ("1e3", "1000"), ("1.0", "1")):
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
        for section in ("lexicon", "trie"):
            bad = edit_rows(big_text, section, [2100], lambda v: " ".join(["0" + v[0]] + v[1:]))
            with pytest.raises(ModelFormatError,
                               match=f"^{section}: a row among 2049-2304 spells a count"):
                model_from_text(bad)

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
        edits = [("\nsigma_scale\t1\n", f"\nsigma_scale\t{bad}\n")
                 for bad in ("1.0", "+1", "1e0", "01", " 1", "1.", "NaN")]
        edits += [(unigram, unigram.replace("0.7", bad))
                  for bad in ("+0.7", "0.70", " 0.7")]
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

    def test_meta_keys_out_of_order_rejected(self):
        text = model_to_text(train_model(small_corpus(), order=3, smoothing="interp",
                                         lambdas=(0.2, 0.3, 0.5)))
        lines = text.split("\n")
        start = section_start(lines, "meta")
        assert model_to_text(model_from_text(text)) == text
        for i in range(7):
            swapped = swap_rows(text, "meta", i, i + 1)
            with pytest.raises(ModelFormatError, match="^meta: keys must come in the order"):
                model_from_text(swapped)
        assert lines[start + 7].startswith("lambdas\t")


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


class TestCanonicalOrder:
    """Rows must come in the order the writer puts them in, so a file that
    loads writes back to the same bytes."""

    def interp_text(self):
        return model_to_text(train_model(small_corpus(), order=3, smoothing="interp",
                                         lambdas=(0.2, 0.3, 0.5)))

    def test_reordered_rows_rejected(self):
        # Rows 3 and 5 of the trie are the siblings "b" and "c" under "ta".
        for text, section, i, j in ((valid_text(), "transitions", 1, 2),
                                    (self.interp_text(), "freqs", 1, 2),
                                    (valid_text(), "lexicon", 0, 1),
                                    (valid_text(), "trie", 3, 5)):
            with pytest.raises(ModelFormatError, match=f"^{section}: .*order"):
                model_from_text(swap_rows(text, section, i, j))

    def test_equal_keys_are_duplicates(self):
        text = valid_text()
        lines = text.split("\n")
        row = lines[section_start(lines, "transitions") + 1]
        for section, old, new in (("transitions", row, "\t" + row.split("\t")[1]),
                                  ("lexicon", "cat\t", "bat\t"),
                                  ("trie", "3\tc\t", "3\tb\t")):
            assert text.count(old) == 1
            with pytest.raises(ModelFormatError, match=f"^{section}: duplicate"):
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
                try:
                    model = model_from_text(mutant)
                except ModelFormatError:
                    continue
                loaded += mutant != text
                assert model_to_text(model) == mutant
        assert loaded > 0

    def test_node_deeper_than_max_suffix_rejected(self):
        # Lookups stop at max_suffix letters, so a deeper node is never used.
        text = model_to_text(train_model(small_corpus(),
                                         policy=RareWordPolicy(max_suffix_length=3)))
        lines = text.split("\n")
        assert lines[section_start(lines, "trie") + 4] == "3\tc\t0 1 0"
        with pytest.raises(ModelFormatError, match="^trie: a node is deeper than max_suffix 3"):
            model_from_text(insert_row(text, "trie", 4, "4\tx\t0 1 0"))

    def test_child_of_begin_of_word_rejected(self):
        # The marker ends every lookup path, so nothing below it is used.
        text = valid_text()
        lines = text.split("\n")
        assert lines[section_start(lines, "trie") + 6] == "4\t\t0 1 0"
        below_root = insert_row(insert_row(text, "trie", 0, "2\tx\t0 1 0"),
                                "trie", 0, "1\t\t0 1 0")
        for bad in (insert_row(text, "trie", 6, "5\tx\t0 1 0"), below_root):
            with pytest.raises(ModelFormatError, match="^trie: a node lies below a begin-of-word"):
                model_from_text(bad)


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
            prefixes = [f"{i}\tw{i}\t" for i in range(len(matrix))]
            row = "%s" + " ".join(["%d"] * matrix.shape[1])
            assert _count_lines(prefixes, matrix) == [
                row % (prefix, *cells.tolist()) for prefix, cells in zip(prefixes, matrix)]
