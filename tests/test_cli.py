import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import succabs.cli
import succabs.corpus
from succabs.cli import build_parser, main
from succabs.corpus import (
    _PARSE_CHARS,
    SynthesisConfig,
    parse_corpus,
    split_corpus,
    synthesize_corpus,
    write_corpus,
)

TRAIN_TEXT = (
    "a\tT0\na\tT0\nc\tT0\nb\tT1\n\n"
    "a\tT1\nb\tT1\nc\tT1\nb\tT0\n\n"
)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text(TRAIN_TEXT, encoding="utf-8")
    return str(path)


def train_default(tmp_path, corpus_file, name="model.txt", *extra):
    out = str(tmp_path / name)
    rc = main(["train", "--corpus", corpus_file, "--out", out, *extra])
    assert rc == 0
    return out


class TestTrain:
    def test_writes_readable_model(self, tmp_path, corpus_file):
        out = train_default(tmp_path, corpus_file)
        with open(out, encoding="utf-8") as fh:
            head = fh.readline()
        assert head == "SUCCABS 1\n"

    def test_byte_identical_across_runs(self, tmp_path, corpus_file):
        a = train_default(tmp_path, corpus_file, "a.txt")
        b = train_default(tmp_path, corpus_file, "b.txt")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_interp_smoothing_with_lambdas(self, tmp_path, corpus_file):
        out = str(tmp_path / "interp.txt")
        rc = main(["train", "--corpus", corpus_file, "--out", out,
                   "--smoothing", "interp", "--lambdas", "0.2,0.3,0.5"])
        assert rc == 0
        assert "lambdas\t" in Path(out).read_text(encoding="utf-8")

    def test_lambdas_without_interp_is_usage_error(self, tmp_path, corpus_file):
        rc = main(["train", "--corpus", corpus_file,
                   "--out", str(tmp_path / "m.txt"), "--lambdas", "0.5,0.5"])
        assert rc == 1

    def test_malformed_lambdas_is_data_error(self, tmp_path, corpus_file):
        rc = main(["train", "--corpus", corpus_file,
                   "--out", str(tmp_path / "m.txt"),
                   "--smoothing", "interp", "--lambdas", "a,b,c"])
        assert rc == 2

    def test_interp_without_lambdas_is_data_error(self, tmp_path, corpus_file):
        rc = main(["train", "--corpus", corpus_file,
                   "--out", str(tmp_path / "m.txt"), "--smoothing", "interp"])
        assert rc == 2

    def test_missing_corpus_file_is_data_error(self, tmp_path):
        rc = main(["train", "--corpus", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 2

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("word without tag\n", encoding="utf-8")
        rc = main(["train", "--corpus", str(bad),
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 2

    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes("a\tT0\n\ncaf\xe9\tT1\n\n".encode("latin-1"))
        rc = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        assert "line 3: not UTF-8 text" in capsys.readouterr().err

    def test_cr_inside_corpus_line_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "cr.tsv"
        bad.write_bytes(b"a\tT0\r\n\r\nb\rc\tT1\r\n")
        rc = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        assert "line 3: CR or LF inside a word or tag" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_line_past_the_first_parse_block_names_its_line(self, tmp_path, corpus_file,
                                                                 capsys, command):
        # The parser splits the file's text a block at a time; a bad line
        # in a later block is still reported by its line in the file.
        good = "a\tT0\nb\tT1\n\n" * (2 * _PARSE_CHARS // 11)
        line = good.count("\n") + 2
        bad = tmp_path / "bad.tsv"
        bad.write_text(good + "c\tT0\nno tab here\n\n", encoding="utf-8")
        args = (["train", "--corpus", str(bad), "--out", str(tmp_path / "m.txt")]
                if command == "train" else
                ["eval", "--model", train_default(tmp_path, corpus_file), "--gold", str(bad)])
        assert main(args) == 2
        assert (f"line {line}: expected exactly two tab-separated non-empty fields, "
                "got 'no tab here'") in capsys.readouterr().err

    def test_corpus_reaches_the_parser_as_text(self, tmp_path, corpus_file, monkeypatch):
        sources = []

        def parse(source, *args):
            sources.append(source)
            return parse_corpus(source, *args)

        monkeypatch.setattr(succabs.cli, "parse_corpus", parse)
        models = [train_default(tmp_path, corpus_file, name) for name in ("a.txt", "b.txt")]
        assert main(["eval", "--model", models[0], "--gold", corpus_file]) == 0
        assert main(["compare", "--model", models[0], "--model", models[1],
                     "--gold", corpus_file]) == 0
        assert sources == [TRAIN_TEXT] * 4

    def test_rf_root_without_rare_words_is_data_error(self, tmp_path, capsys):
        # Every word occurs 10 times, so none is under the default threshold.
        corpus = tmp_path / "common.tsv"
        corpus.write_text("a\tX\nb\tY\n\n" * 10, encoding="utf-8")
        rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.txt"),
                   "--root-mode", "rf"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no word is rarer than the rare threshold (10)" in err
        assert "--rare-threshold" in err and "--root-mode ele" in err

    def test_sigma_scale_is_not_an_option(self, tmp_path, corpus_file, capsys):
        # The smoothing step has no scale: the flag is unknown, and a model
        # file whose sigma_scale is not 1 is a data error.
        out = tmp_path / "m.txt"
        rc = main(["train", "--corpus", corpus_file, "--out", str(out), "--sigma-scale", "1"])
        assert rc == 1
        assert "unrecognized arguments: --sigma-scale" in capsys.readouterr().err
        assert not out.exists()
        text = Path(train_default(tmp_path, corpus_file)).read_text(encoding="utf-8")
        for bad in ("1.0", "+1", "0", "1.5", "nan"):
            out.write_text(text.replace("\nsigma_scale\t1\n", f"\nsigma_scale\t{bad}\n"),
                           encoding="utf-8")
            assert main(["eval", "--model", str(out), "--gold", corpus_file]) == 2
            read = repr("sigma_scale\t" + bad)
            assert (f"meta: row 4 reads {read}, but the writer writes 'sigma_scale\\t1'"
                    in capsys.readouterr().err)

    def test_flag_options_reach_the_model(self, tmp_path, corpus_file):
        out = train_default(tmp_path, corpus_file, "m.txt",
                            "--order", "2", "--rare-threshold", "3",
                            "--max-suffix", "4", "--root-mode", "rf")
        text = Path(out).read_text(encoding="utf-8")
        assert "order\t2" in text
        assert "rare_threshold\t3" in text
        assert "max_suffix\t4" in text
        assert "sigma_scale\t1\n" in text
        assert "root_mode\trf" in text


class TestTag:
    def test_majority_tag_decoding_order_one(self, tmp_path, corpus_file, capsys):
        # Order 1 scores each word by its lexical distribution alone:
        # "a" prefers T0 (2 of 3), "b" prefers T1 (2 of 3), and "c" ties
        # 1-1, which resolves to the smaller tag index T0.
        model = train_default(tmp_path, corpus_file, "m1.txt", "--order", "1")
        inp = tmp_path / "input.txt"
        inp.write_text("a b c\n", encoding="utf-8")
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 0
        assert capsys.readouterr().out == "a\tT0\nb\tT1\nc\tT0\n"

    def test_reads_stdin_when_no_input_flag(self, tmp_path, corpus_file,
                                            capsys, monkeypatch):
        model = train_default(tmp_path, corpus_file)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a b\n\nb c a\n"),
                                                          encoding="utf-8"))
        rc = main(["tag", "--model", model])
        assert rc == 0
        out = capsys.readouterr().out
        corpus = parse_corpus(out)
        assert [[t.word for t in s] for s in corpus.sentences] == \
            [["a", "b"], ["b", "c", "a"]]

    def test_words_split_only_at_space_and_tab(self, tmp_path, capsys, monkeypatch):
        # Corpus words may hold whitespace other than tab, LF and CR, and
        # the model knows these, so each must come back as one word with
        # its only tag, X: split at every Unicode whitespace, they would be
        # unknown fragments.
        odd = ["a\xa0b", "d\u2028e", "f\x85g", "h\u3000i", "j\x1ck\x1fl", "m\x0bn\x0co"]
        corpus = tmp_path / "train.tsv"
        corpus.write_text("".join(f"{w}\tX\n" for w in odd) + "c\tY\n\n", encoding="utf-8")
        model = train_default(tmp_path, str(corpus))
        data = (" \t".join(odd) + "  c\t\n").encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["tag", "--model", model]) == 0
        assert capsys.readouterr().out == "".join(f"{w}\tX\n" for w in odd) + "c\tY\n"

    def test_word_starting_with_hash_is_data_error(self, tmp_path, corpus_file, capsys,
                                                   monkeypatch):
        # Written first on its line, "#a" would make the tagged output's
        # line a comment, which a corpus reader skips; the corpus word rule
        # rejects it, naming the input line, before anything is written.
        model = train_default(tmp_path, corpus_file)
        message = ("error: line {}: token word '{}' starts with '#', which would write a "
                   "comment line\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"#a b\n"), encoding="utf-8"))
        assert main(["tag", "--model", model]) == 2
        assert capsys.readouterr() == ("", message.format(1, "#a"))
        inp, outp = tmp_path / "input.txt", tmp_path / "tagged.tsv"
        inp.write_bytes(b"a b\r\n\rc\t#d a#\n")
        assert main(["tag", "--model", model, "--input", str(inp), "--output", str(outp)]) == 2
        assert capsys.readouterr() == ("", message.format(3, "#d"))
        assert not outp.exists()

    def test_output_file_and_reparseability(self, tmp_path, corpus_file):
        model = train_default(tmp_path, corpus_file)
        inp = tmp_path / "input.txt"
        inp.write_text("a b c\nc c\n", encoding="utf-8")
        outp = tmp_path / "tagged.tsv"
        rc = main(["tag", "--model", model, "--input", str(inp),
                   "--output", str(outp)])
        assert rc == 0
        corpus = parse_corpus(outp.read_text(encoding="utf-8"))
        assert corpus.num_sentences == 2
        assert all(t.tag in ("T0", "T1") for s in corpus.sentences for t in s)

    def test_unknown_words_get_tags_too(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        inp = tmp_path / "input.txt"
        inp.write_text("quux a\n", encoding="utf-8")
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("quux\tT")

    def test_corrupt_model_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("garbage\n", encoding="utf-8")
        inp = tmp_path / "input.txt"
        inp.write_text("a\n", encoding="utf-8")
        rc = main(["tag", "--model", str(bad), "--input", str(inp)])
        assert rc == 2

    def test_count_row_past_int64_is_data_error(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        text = Path(model).read_text(encoding="utf-8")
        assert text.count("\na\t2 1\n") == 1  # the lexicon line of "a"
        Path(model).write_text(text.replace("\na\t2 1\n", f"\na\t{2 ** 62} {2 ** 62}\n"),
                               encoding="utf-8")
        inp = tmp_path / "input.txt"
        inp.write_text("a\n", encoding="utf-8")
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 2
        assert "lexicon: the counts of a row among 1-3 sum past 2**63 - 1" in capsys.readouterr().err

    def test_non_utf8_model_is_data_error(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        with open(model, "rb") as fh:
            data = fh.read()
        assert data.count(b"\nb\t") == 1  # the lexicon line of "b"
        line = data[:data.index(b"\nb\t")].count(b"\n") + 2
        with open(model, "wb") as fh:
            fh.write(data.replace(b"\nb\t", b"\n\xe9\t"))
        inp = tmp_path / "input.txt"
        inp.write_text("a\n", encoding="utf-8")
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 2
        assert f"line {line}: not UTF-8 text" in capsys.readouterr().err

    def test_transition_index_too_large_is_data_error(self, tmp_path, capsys, monkeypatch):
        # An order-7 model over 48 tags trains and loads, but its index
        # would hold 49^6 cells; the allocation is made to fail here.
        corpus = tmp_path / "wide.tsv"
        corpus.write_text("".join(f"w{i % 5}\tT{i}\n" for i in range(48)) + "\n",
                          encoding="utf-8")
        model = str(tmp_path / "m.txt")
        assert main(["train", "--corpus", str(corpus), "--out", model, "--order", "7"]) == 0
        inp = tmp_path / "input.txt"
        inp.write_text("w1 w2\n", encoding="utf-8")
        full = np.full

        def no_large_full(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > 10**8:
                raise MemoryError("Unable to allocate")
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", no_large_full)
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: an order-7 model over 48 tags needs a transition index of "
            "13,841,287,201 cells, more than can be allocated\n")

    @pytest.mark.parametrize("order", [66, 70])
    def test_order_beyond_numpys_axes_is_data_error(self, tmp_path, corpus_file, capsys, order):
        # The file loads, but its transition index would need order-1 axes.
        model = train_default(tmp_path, corpus_file)
        with open(model, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count("\norder\t3\n") == 1
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(text.replace("\norder\t3\n", f"\norder\t{order}\n"))
        inp = tmp_path / "input.txt"
        inp.write_text("a b\n", encoding="utf-8")
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: an order-{order} model needs a transition index of "
                              f"{order - 1} axes, more than numpy's ")

    def test_non_utf8_input_is_data_error(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        inp = tmp_path / "input.txt"
        inp.write_bytes(b"a b\n\xff c\n")
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 2
        assert "line 2: not UTF-8 text" in capsys.readouterr().err


class TestEval:
    def test_kv_format_parses(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        rc = main(["eval", "--model", model, "--gold", corpus_file,
                   "--format", "kv"])
        assert rc == 0
        parsed = dict(line.split("\t")
                      for line in capsys.readouterr().out.splitlines())
        assert parsed["total_tokens"] == "8"
        assert 0.0 <= float(parsed["error_rate"]) <= 1.0
        assert parsed["unknown_tokens"] == "0"

    def test_table_format_default(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        rc = main(["eval", "--model", model, "--gold", corpus_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Error rate (%)" in out
        assert "Tokens" in out

    def test_gold_is_read_from_its_columns(self, tmp_path, corpus_file, capsys,
                                           monkeypatch):
        # Neither eval nor compare builds a gold corpus's sentences view.
        m1 = train_default(tmp_path, corpus_file, "m1.txt", "--order", "1")
        m2 = train_default(tmp_path, corpus_file, "m2.txt")
        commands = (["eval", "--model", m2, "--gold", corpus_file, "--format", "kv"],
                    ["eval", "--model", m1, "--gold", corpus_file],
                    ["compare", "--model", m1, "--model", m2, "--gold", corpus_file])
        outputs = []
        for argv in commands:
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)

        def no_view(corpus):
            raise AssertionError("the sentences view was built")

        monkeypatch.setattr(succabs.corpus.Corpus, "sentences", property(no_view))
        for argv, out in zip(commands, outputs):
            assert main(argv) == 0
            assert capsys.readouterr().out == out

    def test_non_utf8_gold_is_data_error(self, tmp_path, corpus_file):
        model = train_default(tmp_path, corpus_file)
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(b"a\tT0\n\xfe\tT1\n")
        rc = main(["eval", "--model", model, "--gold", str(gold)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_gold_without_tokens_is_data_error(self, tmp_path, corpus_file, capsys, command):
        # Found before any model is read: the second model does not exist.
        gold = tmp_path / "gold.tsv"
        gold.write_text("# nothing\n\n", encoding="utf-8")
        flags = ["--model", train_default(tmp_path, corpus_file)]
        if command == "compare":
            flags += ["--model", str(tmp_path / "missing.txt")]
        assert main([command, *flags, "--gold", str(gold)]) == 2
        assert capsys.readouterr() == ("", "error: the gold corpus has no tokens\n")

    def test_crlf_model_is_data_error_naming_the_version(self, tmp_path, corpus_file,
                                                         capsys):
        model = train_default(tmp_path, corpus_file)
        Path(model).write_bytes(Path(model).read_bytes().replace(b"\n", b"\r\n"))
        rc = main(["eval", "--model", model, "--gold", corpus_file])
        assert rc == 2
        assert "unsupported model format version '1\\r'" in capsys.readouterr().err

    def test_bad_format_is_usage_error(self, tmp_path, corpus_file):
        model = train_default(tmp_path, corpus_file)
        rc = main(["eval", "--model", model, "--gold", corpus_file,
                   "--format", "xml"])
        assert rc == 1


class TestCompare:
    def test_two_models_comparison_table(self, tmp_path, corpus_file, capsys):
        m1 = train_default(tmp_path, corpus_file, "m1.txt", "--order", "1")
        m2 = train_default(tmp_path, corpus_file, "m2.txt", "--order", "2")
        rc = main(["compare", "--model", m1, "--model", m2,
                   "--gold", corpus_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pairwise differences" in out
        assert m1 in out and m2 in out

    def test_single_model_is_usage_error(self, tmp_path, corpus_file):
        m1 = train_default(tmp_path, corpus_file, "m1.txt")
        rc = main(["compare", "--model", m1, "--gold", corpus_file])
        assert rc == 1

    def test_repeated_model_is_usage_error(self, tmp_path, corpus_file, capsys):
        # Found before any file is read: the gold path does not exist.
        m1 = train_default(tmp_path, corpus_file, "m1.txt")
        missing = str(tmp_path / "missing.tsv")
        rc = main(["compare", "--model", m1, "--model", m1, "--gold", missing])
        assert rc == 1
        assert "each --model may be given once" in capsys.readouterr().err


SRC = Path(__file__).resolve().parent.parent / "src"

# Each way the environment can set up the standard streams: the C locale
# (where Python reads stdin with surrogateescape), a UTF-8 locale, and an
# ASCII stream encoding.
STREAM_ENVS = {"C": {"LC_ALL": "C"}, "UTF-8": {"LC_ALL": "C.UTF-8"},
               "ascii": {"PYTHONIOENCODING": "ascii"}}


def run_succabs(argv, env, stdin=b""):
    """``succabs`` in a fresh interpreter whose locale and stream encoding
    are ``env``'s alone."""
    base = {key: value for key, value in os.environ.items() if not key.startswith("LC_")
            and key not in ("LANG", "PYTHONIOENCODING", "PYTHONUTF8")}
    return subprocess.run([sys.executable, "-m", "succabs", *argv], input=stdin,
                          env={**base, **env, "PYTHONPATH": str(SRC)},
                          capture_output=True, timeout=60)


class TestStreams:
    # CRLF, a lone CR, a last line without LF, and NBSP and U+2028 in words.
    TEXT = "a\xa0b c\r\nd\u2028e\rc a\r\n\r\nb"

    @pytest.mark.parametrize("env", STREAM_ENVS.values(), ids=STREAM_ENVS)
    def test_stdin_and_input_file_agree(self, tmp_path, corpus_file, env):
        model = train_default(tmp_path, corpus_file)
        inp = tmp_path / "input.txt"
        runs = []
        for data in (self.TEXT.encode("utf-8"), b"a b\r\ncaf\xe9\n"):
            inp.write_bytes(data)
            piped = run_succabs(["tag", "--model", model], env, data)
            given = run_succabs(["tag", "--model", model, "--input", str(inp)], env)
            assert (piped.returncode, piped.stdout, piped.stderr) == \
                (given.returncode, given.stdout, given.stderr)
            runs.append(piped)
        good, bad = runs
        assert (good.returncode, good.stderr) == (0, b"")
        assert parse_corpus(good.stdout.decode("utf-8")).sentence_words() == \
            [["a\xa0b", "c"], ["d\u2028e"], ["c", "a"], ["b"]]
        assert (bad.returncode, bad.stdout, bad.stderr) == \
            (2, b"", b"error: line 2: not UTF-8 text\n")

    def test_ascii_stdout_gets_utf8(self, tmp_path, corpus_file):
        model = train_default(tmp_path, corpus_file)
        proc = run_succabs(["tag", "--model", model], STREAM_ENVS["ascii"], "café a\n".encode())
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert parse_corpus(proc.stdout.decode("utf-8")).sentence_words() == [["café", "a"]]

    @pytest.mark.parametrize("name", [b"m\xc3\xa9.txt", b"m\xe9.txt"], ids=["UTF-8", "latin-1"])
    def test_compare_writes_a_model_path_as_its_bytes(self, tmp_path, corpus_file, name):
        # A path that is not UTF-8 comes back as the bytes that name the file.
        model = os.fsdecode(bytes(tmp_path) + b"/" + name)
        Path(model).write_bytes(Path(train_default(tmp_path, corpus_file)).read_bytes())
        other = train_default(tmp_path, corpus_file, "other.txt", "--order", "2")
        proc = run_succabs(["compare", "--model", model, "--model", other,
                            "--gold", corpus_file], STREAM_ENVS["ascii"])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert os.fsencode(model) in proc.stdout


class TestSynth:
    def run_synth(self, tmp_path, seed, suffix="", spec=False):
        train = str(tmp_path / f"train{suffix}.tsv")
        test = str(tmp_path / f"test{suffix}.tsv")
        argv = ["synth", "--tags", "3", "--vocab", "30",
                "--train-tokens", "300", "--test-tokens", "60",
                "--seed", str(seed), "--train-out", train, "--test-out", test]
        if spec:
            argv += ["--spec-out", str(tmp_path / f"spec{suffix}.json")]
        assert main(argv) == 0
        return train, test

    def test_deterministic_output_files(self, tmp_path):
        t1, s1 = self.run_synth(tmp_path, 5, "a")
        t2, s2 = self.run_synth(tmp_path, 5, "b")
        assert Path(t1).read_bytes() == Path(t2).read_bytes()
        assert Path(s1).read_bytes() == Path(s2).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        t1, _ = self.run_synth(tmp_path, 5, "a")
        t2, _ = self.run_synth(tmp_path, 6, "b")
        assert Path(t1).read_bytes() != Path(t2).read_bytes()

    def test_criterion_6_spec_file_pinned(self, tmp_path):
        # The generator spec of the criterion-6 corpus pair, byte for byte.
        spec = tmp_path / "spec.json"
        assert main(["synth", "--tags", "8", "--vocab", "500", "--train-tokens", "50000",
                     "--test-tokens", "5000", "--seed", "42",
                     "--train-out", str(tmp_path / "train.tsv"),
                     "--test-out", str(tmp_path / "test.tsv"), "--spec-out", str(spec)]) == 0
        assert hashlib.sha256(spec.read_bytes()).hexdigest() == (
            "411d85bcd704a175b4b182154ce7a531c30483f920f75df75f4d40440fdc2df9")

    def test_outputs_parse_and_spec_json(self, tmp_path):
        train, test = self.run_synth(tmp_path, 11, spec=True)
        for path in (train, test):
            corpus = parse_corpus(Path(path).read_text(encoding="utf-8"))
            assert corpus.num_tokens > 0
        spec = json.loads((tmp_path / "spec.json").read_text(encoding="utf-8"))
        assert spec["config"]["num_tags"] == 3
        assert len(spec["transition"]) == 3

    def test_invalid_config_is_data_error(self, tmp_path):
        rc = main(["synth", "--tags", "1", "--vocab", "30",
                   "--train-tokens", "300", "--test-tokens", "60",
                   "--seed", "1", "--train-out", str(tmp_path / "t.tsv"),
                   "--test-out", str(tmp_path / "s.tsv")])
        assert rc == 2

    def test_nan_zipf_exponent_is_data_error(self, tmp_path, capsys):
        # NaN passes a "<= 0" check, and its weights draw a corpus of one word.
        rc = main(["synth", "--tags", "3", "--vocab", "30", "--zipf-exponent", "nan",
                   "--train-tokens", "300", "--test-tokens", "60",
                   "--seed", "1", "--train-out", str(tmp_path / "t.tsv"),
                   "--test-out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert "zipf_exponent must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "t.tsv").exists()


class TestInvalidValues:
    # Each value is one a config or model rejects: exit 2 with one error
    # line, never a traceback from numpy or from deeper in the library.
    SYNTH = {"--tags": "3", "--vocab": "30", "--train-tokens": "300", "--test-tokens": "60",
             "--seed": "1"}
    BAD_SYNTH = [{"--tags": "1"}, {"--vocab": "2"}, {"--train-tokens": "0"},
                 {"--test-tokens": "-5"}, {"--zipf-exponent": "nan"}, {"--seed": "-1"}]
    BAD_TRAIN = [["--order", "0"], ["--order", "70"], ["--rare-threshold", "0"],
                 ["--max-suffix", "0"], ["--smoothing", "interp", "--lambdas", "nan,0.5,0.5"],
                 ["--smoothing", "interp", "--lambdas", "0.5,0.5"],
                 ["--root-mode", "rf", "--rare-threshold", "1"]]

    def assert_data_error(self, argv, capsys):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)

    @pytest.mark.parametrize("bad", BAD_SYNTH, ids=lambda bad: " ".join(*bad.items()))
    def test_synth(self, tmp_path, capsys, bad):
        flags = {**self.SYNTH, **bad}
        self.assert_data_error(["synth", *(x for item in flags.items() for x in item),
                                "--train-out", str(tmp_path / "t.tsv"),
                                "--test-out", str(tmp_path / "s.tsv")], capsys)
        assert not (tmp_path / "t.tsv").exists()

    @pytest.mark.parametrize("bad", BAD_TRAIN, ids=" ".join)
    def test_train(self, tmp_path, corpus_file, capsys, bad):
        out = tmp_path / "model.txt"
        self.assert_data_error(["train", "--corpus", corpus_file, "--out", str(out), *bad],
                               capsys)
        assert not out.exists()


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path, corpus_file):
        rc = main(["train", "--corpus", corpus_file,
                   "--out", str(tmp_path / "m.txt"), "--bogus"])
        assert rc == 1

    def test_missing_required_flag(self):
        assert main(["train"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "command" in capsys.readouterr().out


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_library_use_blocks_run(self, tmp_path, monkeypatch, capsys):
        # Each Python block of "## Library use" runs on its own, in a
        # directory holding small synthesized train, test and held-out files.
        readme = README.read_text(encoding="utf-8")
        section = re.search(r"^## Library use\n(.*?)(?=^## )", readme, re.M | re.S).group(1)
        blocks = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
        assert len(blocks) == 3
        assert all("train.tsv" in block for block in blocks[:2])
        train, test, _ = synthesize_corpus(SynthesisConfig(
            num_tags=4, vocab_size=60, num_train_tokens=1500, num_test_tokens=300, seed=4))
        heldout, _ = split_corpus(test, 0.5, 4)
        for name, corpus in (("train", train), ("test", test), ("heldout", heldout)):
            (tmp_path / f"{name}.tsv").write_text(write_corpus(corpus), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.count("\n") == 2  # the tags, then the two rates

    def test_flag_tables_list_the_parser_flags(self):
        # Each "### `succabs <command>`" section's table lists exactly the
        # long flags the parser defines for that command, --help aside.
        readme = README.read_text(encoding="utf-8")
        sections = re.findall(r"^### `succabs (\w+)`\n(.*?)(?=^#)", readme, re.M | re.S)
        documented = {command: set(re.findall(r"^\| `(--[\w-]+)", body, re.M))
                      for command, body in sections}
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        defined = {command: {flag for action in parser._actions
                             for flag in action.option_strings if flag.startswith("--")}
                   - {"--help"} for command, parser in commands.items()}
        assert documented == defined
