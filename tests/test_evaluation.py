import math

import numpy as np
import pytest

from succabs.corpus import parse_corpus
from succabs.errors import ValidationError
from succabs.evaluation import (
    EvalReport,
    SignificanceQuery,
    Z_10_PERCENT,
    Z_5_PERCENT,
    compare,
    evaluate,
    render_comparison,
    render_report_kv,
    render_report_table,
    significance_threshold,
)

GOLD = "the\tAT\ncat\tNN\n\nsat\tVB\nsat\tVB\n\n"


class TestEvaluate:
    def test_counts_and_rates(self):
        gold = parse_corpus(GOLD)
        predicted = [["AT", "VB"], ["VB", "NN"]]
        report = evaluate(gold, predicted, known_words={"the", "sat"})
        assert report.total_tokens == 4
        assert report.errors == 2
        assert report.error_rate == 0.5
        # "cat" is the only unknown word and it was mistagged.
        assert report.unknown_tokens == 1
        assert report.unknown_errors == 1
        assert report.unknown_error_rate == 1.0
        assert report.unknown_fraction == 0.25

    def test_confusion_matrix_includes_diagonal(self):
        gold = parse_corpus(GOLD)
        report = evaluate(gold, [["AT", "NN"], ["VB", "NN"]],
                          known_words={"the", "cat", "sat"})
        assert report.confusion[("AT", "AT")] == 1
        assert report.confusion[("NN", "NN")] == 1
        assert report.confusion[("VB", "VB")] == 1
        assert report.confusion[("VB", "NN")] == 1

    def test_perfect_prediction(self):
        gold = parse_corpus(GOLD)
        report = evaluate(gold, [["AT", "NN"], ["VB", "VB"]],
                          known_words={"the", "cat", "sat"})
        assert report.errors == 0
        assert report.error_rate == 0.0
        assert report.unknown_error_rate == 0.0

    def test_sentence_count_mismatch_rejected(self):
        gold = parse_corpus(GOLD)
        with pytest.raises(ValidationError):
            evaluate(gold, [["AT", "NN"]], known_words=set())

    def test_sentence_length_mismatch_rejected(self):
        gold = parse_corpus(GOLD)
        with pytest.raises(ValidationError):
            evaluate(gold, [["AT"], ["VB", "VB"]], known_words=set())

    def test_strings_for_sequences_rejected(self):
        # A str is a sequence of its letters: as the known words, "the cat"
        # would make every token unknown, and "XXY" or "XY" would be read
        # one letter per tag.
        three = parse_corpus("the\tX\n\ncat\tX\n\nsat\tY\n\n")
        assert evaluate(three, [["X"], ["X"], ["Y"]], {"the", "cat"}).unknown_tokens == 1
        for predicted, known in (("XXY", {"the"}), ([["X"], ["X"], ["Y"]], "the cat")):
            with pytest.raises(ValidationError, match="not strings$"):
                evaluate(three, predicted, known)
        with pytest.raises(ValidationError, match="not strings$"):
            evaluate(parse_corpus("the\tX\ncat\tY\n\n"), ["XY"], {"the"})


def reference_evaluate(gold, predicted, known):
    """The token-by-token tally the columnar one replaced, over the
    sentences view; its errors are the report's length errors."""
    if len(predicted) != gold.num_sentences:
        raise ValidationError(
            f"{len(predicted)} predictions for {gold.num_sentences} gold sentences")
    total = errors = unk = unk_errors = 0
    confusion = {}
    for sent, pred in zip(gold.sentences, predicted):
        if len(pred) != len(sent):
            raise ValidationError(f"{len(pred)} predicted tags for a {len(sent)}-token sentence")
        for tok, tag in zip(sent, pred):
            total += 1
            wrong = tag != tok.tag
            errors += wrong
            if tok.word not in known:
                unk += 1
                unk_errors += wrong
            confusion[tok.tag, tag] = confusion.get((tok.tag, tag), 0) + 1
    return EvalReport(total, errors, unk, unk_errors, confusion)


def outcome(call):
    try:
        return call()
    except ValidationError as err:
        return str(err)


class TestEvaluateAgainstTokenReference:
    def test_random_golds_and_predictions(self):
        rng = np.random.default_rng(29)
        guesses = ("A", "B", "C", "D", "")  # D and the empty tag are in no gold tag set
        reports = 0
        for case in range(60):
            words = [f"w{i}" for i in range(int(rng.integers(1, 10)))]
            tags = ("A", "B", "C")[:int(rng.integers(1, 4))]
            text = "\n".join("".join(f"{words[int(rng.integers(len(words)))]}\t"
                                      f"{tags[int(rng.integers(len(tags)))]}\n"
                                      for _ in range(int(rng.integers(1, 7))))
                             for _ in range(int(rng.integers(0, 8))))
            gold = parse_corpus(text, ("C", "B", "A") if case % 2 else None)
            known = {w for w in words if rng.random() < 0.5}
            lengths = np.diff(gold.offsets).tolist()
            if case % 5 == 4 and lengths:  # one sentence one tag short or long
                at = int(rng.integers(len(lengths)))
                lengths[at] += 1 if rng.random() < 0.5 or lengths[at] == 0 else -1
            if case % 7 == 6:
                lengths.append(1)
            predicted = [[guesses[int(rng.integers(len(guesses)))] for _ in range(n)]
                         for n in lengths]
            got = outcome(lambda: evaluate(gold, predicted, known))
            assert "sentences" not in gold.__dict__
            expected = outcome(lambda: reference_evaluate(gold, predicted, known))
            assert got == expected
            if isinstance(got, EvalReport):
                assert list(got.confusion) == list(expected.confusion)
            reports += isinstance(got, EvalReport)
        assert reports >= 30


class TestEvalReport:
    def test_zero_tokens_gives_zero_rates(self):
        report = EvalReport(0, 0, 0, 0)
        assert report.error_rate == 0.0
        assert report.unknown_error_rate == 0.0
        assert report.unknown_fraction == 0.0

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValidationError):
            EvalReport(10, 11, 0, 0)
        with pytest.raises(ValidationError):
            EvalReport(10, 5, 3, 4)
        with pytest.raises(ValidationError):
            EvalReport(10, 5, 11, 0)


class TestSignificanceThreshold:
    def test_four_reference_points(self):
        # n = 10000 test tokens; thresholds quoted in percent.
        cases = [
            (0.04, Z_5_PERCENT, 0.384),
            (0.05, Z_5_PERCENT, 0.427),
            (0.04, Z_10_PERCENT, 0.322),
            (0.05, Z_10_PERCENT, 0.359),
        ]
        for p, z, expected_pct in cases:
            got = significance_threshold(SignificanceQuery(p=p, n=10000, z=z))
            assert 100 * got == pytest.approx(expected_pct, abs=0.005)

    def test_closed_form(self):
        q = SignificanceQuery(p=0.1, n=2500, z=1.96)
        assert significance_threshold(q) == pytest.approx(
            1.96 * math.sqrt(0.1 * 0.9 / 2500), abs=1e-15)

    def test_monotone_in_p_below_half_and_in_n(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = float(rng.uniform(0.01, 0.49))
            n = int(rng.integers(100, 100000))
            z = float(rng.uniform(0.5, 3.0))
            base = significance_threshold(SignificanceQuery(p, n, z))
            wider = significance_threshold(SignificanceQuery(p + 0.005, n, z))
            assert wider > base  # variance grows toward p = 0.5
            tighter = significance_threshold(SignificanceQuery(p, 4 * n, z))
            assert tighter == pytest.approx(base / 2, rel=1e-12)

    def test_degenerate_rates_rejected(self):
        with pytest.raises(ValidationError):
            SignificanceQuery(0.0, 100, 1.96)
        with pytest.raises(ValidationError):
            SignificanceQuery(1.0, 100, 1.96)
        with pytest.raises(ValidationError):
            SignificanceQuery(0.5, 0, 1.96)

    def test_critical_value_finite_and_size_an_integer(self):
        # A NaN critical value gave a NaN threshold.
        for z in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValidationError, match="^critical value must be positive"):
                SignificanceQuery(0.1, 100, z)
        with pytest.raises(ValidationError, match="^sample size must be an integer"):
            SignificanceQuery(0.1, 10.5, 1.96)
        for n in (True, np.int64(1)):
            q = SignificanceQuery(0.1, n, 1.96)
            assert type(q.n) is int and q.n == 1


def report_with_errors(total, errors):
    return EvalReport(total, errors, 0, 0)


class TestCompare:
    def test_borderline_pair_significant_at_ten_percent_only(self):
        # Error rates 3.93% and 4.26% on 10k tokens: the gap 0.33 points
        # exceeds the 10%-level threshold (0.32) but not the 5%-level (0.38).
        c = compare([("a", report_with_errors(10000, 393)),
                     ("b", report_with_errors(10000, 426))])
        pair = c.pairs[0]
        assert pair.difference == pytest.approx(-0.0033, abs=1e-12)
        assert 100 * pair.threshold_10 == pytest.approx(0.3196, abs=5e-4)
        assert pair.significant_10
        assert not pair.significant_5

    def test_close_pair_not_significant(self):
        # 4.36% vs 4.49% differ by 0.13 points, inside both thresholds.
        c = compare([("a", report_with_errors(10000, 436)),
                     ("b", report_with_errors(10000, 449))])
        pair = c.pairs[0]
        assert not pair.significant_10
        assert not pair.significant_5

    def test_threshold_uses_smaller_rate(self):
        c = compare([("a", report_with_errors(10000, 100)),
                     ("b", report_with_errors(10000, 900))])
        pair = c.pairs[0]
        assert pair.threshold_5 == pytest.approx(
            1.96 * math.sqrt(0.01 * 0.99 / 10000), abs=1e-15)

    def test_difference_is_signed_and_antisymmetric(self):
        a = report_with_errors(1000, 50)
        b = report_with_errors(1000, 80)
        ab = compare([("a", a), ("b", b)]).pairs[0]
        ba = compare([("b", b), ("a", a)]).pairs[0]
        assert ab.difference == pytest.approx(-ba.difference, abs=1e-15)
        assert ab.threshold_5 == ba.threshold_5

    def test_all_pairs_enumerated(self):
        reports = [(f"s{i}", report_with_errors(500, 10 * (i + 1)))
                   for i in range(4)]
        c = compare(reports)
        assert len(c.pairs) == 6
        assert c.sample_size == 500

    def test_mismatched_test_sets_rejected(self):
        with pytest.raises(ValidationError):
            compare([("a", report_with_errors(1000, 5)),
                     ("b", report_with_errors(999, 5))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            compare([("a", report_with_errors(10, 1)),
                     ("a", report_with_errors(10, 2))])

    def test_single_report_rejected(self):
        with pytest.raises(ValidationError):
            compare([("a", report_with_errors(10, 1))])


class TestRendering:
    def make_report(self):
        gold = parse_corpus(GOLD)
        return evaluate(gold, [["AT", "VB"], ["VB", "NN"]],
                        known_words={"the", "sat"})

    def test_kv_lines_parse_back(self):
        text = render_report_kv(self.make_report())
        parsed = dict(line.split("\t") for line in text.splitlines())
        assert parsed["total_tokens"] == "4"
        assert parsed["errors"] == "2"
        assert float(parsed["error_rate"]) == 0.5
        assert float(parsed["unknown_error_rate"]) == 1.0
        assert set(parsed) == {"total_tokens", "errors", "error_rate",
                               "unknown_tokens", "unknown_errors",
                               "unknown_error_rate", "unknown_fraction"}

    def test_table_contains_counts_and_confusions(self):
        text = render_report_table(self.make_report())
        assert "Error rate (%)" in text
        assert "50.00" in text
        assert "NN -> VB: 1" in text

    def test_comparison_render_labels_significance(self):
        c = compare([("big", report_with_errors(10000, 393)),
                     ("small", report_with_errors(10000, 426))])
        text = render_comparison(c)
        assert "significant at the 10% level only" in text
        assert "z*sqrt(p*(1-p)/n)" in text
        assert "n = 10000" in text
        c2 = compare([("x", report_with_errors(10000, 100)),
                      ("y", report_with_errors(10000, 900))])
        assert "significant at the 5% level" in render_comparison(c2)
        c3 = compare([("x", report_with_errors(10000, 436)),
                      ("y", report_with_errors(10000, 449))])
        assert "not significant" in render_comparison(c3)
