import numpy as np
import pytest

from succabs.corpus import SynthesisConfig, parse_corpus, synthesize_corpus
from succabs.errors import ModelFormatError
from succabs.lexicon import unknown_word_distribution
from succabs.model_io import (
    FORMAT_VERSION,
    MAGIC,
    model_from_text,
    model_to_text,
    read_model,
    write_model,
)
from succabs.tagger import tag_corpus, train_model, viterbi_tag_scored


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
                np.testing.assert_array_equal(
                    loaded.transition.distribution(ctx).probs,
                    model.transition.distribution(ctx).probs)
            assert set(loaded.lexicon.entries) == set(model.lexicon.entries)
            for word, vec in model.lexicon.entries.items():
                np.testing.assert_array_equal(loaded.lexicon.entries[word], vec)
                assert loaded.lexicon.total(word) == model.lexicon.total(word)
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
        for model in trained_models():
            text = model_to_text(model)
            assert model_to_text(model_from_text(text)) == text

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

    def test_duplicate_lexicon_word_rejected(self):
        lines = valid_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[lexicon]"))
        count = int(lines[start].split()[1])
        lines[start] = f"[lexicon] {count + 1}"
        lines.insert(start + 1, lines[start + 1])
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

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
        text = valid_text().replace("the\t12 0 0", "the\ttwelve 0 0", 1)
        with pytest.raises(ModelFormatError):
            model_from_text(text)

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

    def test_lambdas_on_non_interp_model_rejected(self):
        lines = valid_text().splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("[meta]"))
        count = int(lines[start].split()[1])
        lines[start] = f"[meta] {count + 1}"
        lines.insert(start + 1, "lambdas\t0.5 0.5")
        with pytest.raises(ModelFormatError):
            model_from_text("\n".join(lines) + "\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_text("")

    def test_read_model_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_model(str(tmp_path / "missing.txt"))
