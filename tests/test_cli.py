import io
import json

import pytest

from succabs.cli import main
from succabs.corpus import parse_corpus

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
        head = open(out, encoding="utf-8").readline()
        assert head == "SUCCABS 1\n"

    def test_byte_identical_across_runs(self, tmp_path, corpus_file):
        a = train_default(tmp_path, corpus_file, "a.txt")
        b = train_default(tmp_path, corpus_file, "b.txt")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_interp_smoothing_with_lambdas(self, tmp_path, corpus_file):
        out = str(tmp_path / "interp.txt")
        rc = main(["train", "--corpus", corpus_file, "--out", out,
                   "--smoothing", "interp", "--lambdas", "0.2,0.3,0.5"])
        assert rc == 0
        assert "lambdas\t" in open(out, encoding="utf-8").read()

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
        assert "line 3: not utf-8 text" in capsys.readouterr().err

    def test_cr_inside_corpus_line_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "cr.tsv"
        bad.write_bytes(b"a\tT0\r\n\r\nb\rc\tT1\r\n")
        rc = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        assert "line 3: CR or LF inside a word or tag" in capsys.readouterr().err

    def test_flag_options_reach_the_model(self, tmp_path, corpus_file):
        out = train_default(tmp_path, corpus_file, "m.txt",
                            "--order", "2", "--rare-threshold", "3",
                            "--max-suffix", "4", "--sigma-scale", "2.0",
                            "--root-mode", "rf")
        text = open(out, encoding="utf-8").read()
        assert "order\t2" in text
        assert "rare_threshold\t3" in text
        assert "max_suffix\t4" in text
        assert "sigma_scale\t2" in text
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
        monkeypatch.setattr("sys.stdin", io.StringIO("a b\n\nb c a\n"))
        rc = main(["tag", "--model", model])
        assert rc == 0
        out = capsys.readouterr().out
        corpus = parse_corpus(out)
        assert [[t.word for t in s] for s in corpus.sentences] == \
            [["a", "b"], ["b", "c", "a"]]

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

    def test_open_lattice_flag_accepted(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        inp = tmp_path / "input.txt"
        inp.write_text("a b\n", encoding="utf-8")
        rc = main(["tag", "--model", model, "--input", str(inp),
                   "--open-lattice"])
        assert rc == 0
        assert capsys.readouterr().out.count("\t") == 2

    def test_corrupt_model_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("garbage\n", encoding="utf-8")
        inp = tmp_path / "input.txt"
        inp.write_text("a\n", encoding="utf-8")
        rc = main(["tag", "--model", str(bad), "--input", str(inp)])
        assert rc == 2

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

    def test_non_utf8_input_is_data_error(self, tmp_path, corpus_file, capsys):
        model = train_default(tmp_path, corpus_file)
        inp = tmp_path / "input.txt"
        inp.write_bytes(b"a b\n\xff c\n")
        rc = main(["tag", "--model", model, "--input", str(inp)])
        assert rc == 2
        assert "line 2: not utf-8 text" in capsys.readouterr().err


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

    def test_non_utf8_gold_is_data_error(self, tmp_path, corpus_file):
        model = train_default(tmp_path, corpus_file)
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(b"a\tT0\n\xfe\tT1\n")
        rc = main(["eval", "--model", model, "--gold", str(gold)])
        assert rc == 2

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
        assert open(t1, "rb").read() == open(t2, "rb").read()
        assert open(s1, "rb").read() == open(s2, "rb").read()

    def test_different_seeds_differ(self, tmp_path):
        t1, _ = self.run_synth(tmp_path, 5, "a")
        t2, _ = self.run_synth(tmp_path, 6, "b")
        assert open(t1, "rb").read() != open(t2, "rb").read()

    def test_outputs_parse_and_spec_json(self, tmp_path):
        train, test = self.run_synth(tmp_path, 11, spec=True)
        for path in (train, test):
            corpus = parse_corpus(open(path, encoding="utf-8").read())
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
