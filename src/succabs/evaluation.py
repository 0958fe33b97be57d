"""Error-rate accounting, significance thresholds, and side-by-side
comparison of tagging systems on one test set.

The significance threshold for a difference in error rates is

    z * sqrt(p * (1 - p) / n)

with n test tokens and z = 1.645 (10 percent level) or 1.96 (5 percent
level).  Pairwise comparisons evaluate it at the smaller of the two error
rates, the conservative choice for claiming the better system really is
better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, _integer
from .errors import ValidationError

Z_10_PERCENT = 1.645
Z_5_PERCENT = 1.96


@dataclass(frozen=True)
class EvalReport:
    """Token-level tally of one system's output against gold tags."""

    total_tokens: int
    errors: int
    unknown_tokens: int
    unknown_errors: int
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        ok = (0 <= self.errors <= self.total_tokens
              and 0 <= self.unknown_errors <= self.unknown_tokens <= self.total_tokens)
        if not ok:
            raise ValidationError("inconsistent evaluation counts")

    @property
    def error_rate(self) -> float:
        return self.errors / self.total_tokens if self.total_tokens else 0.0

    @property
    def unknown_error_rate(self) -> float:
        return self.unknown_errors / self.unknown_tokens if self.unknown_tokens else 0.0

    @property
    def unknown_fraction(self) -> float:
        return self.unknown_tokens / self.total_tokens if self.total_tokens else 0.0


def evaluate(gold: Corpus, predicted: Sequence[Sequence[str]],
             known_words: Iterable[str]) -> EvalReport:
    """Exact-match accuracy; a token is unknown iff its word is not known.

    Gold words and tags are read from the corpus's id columns.  Predicted
    tags get ids in a copy of the tag set's index, any other tag the next
    free id, so a prediction is right iff its id is the gold tag's.
    """
    if len(predicted) != gold.num_sentences:
        raise ValidationError(
            f"{len(predicted)} predictions for {gold.num_sentences} gold sentences")
    for pred, length in zip(predicted, np.diff(gold.offsets).tolist()):
        if len(pred) != length:
            raise ValidationError(f"{len(pred)} predicted tags for a {length}-token sentence")
    known = known_words if isinstance(known_words, (set, frozenset)) else set(known_words)
    names = dict(gold.tag_set.index)
    guessed = np.fromiter((names.setdefault(tag, len(names))
                           for tag in chain.from_iterable(predicted)),
                          np.int64, count=gold.num_tokens)
    wrong = guessed != gold.tag_ids
    unknown = np.fromiter((w not in known for w in gold.vocab), bool,
                          count=len(gold.vocab))[gold.word_ids]
    # Each (gold, predicted) pair's count, in the order first seen.
    pairs, first, counts = np.unique(gold.tag_ids * len(names) + guessed,
                                     return_index=True, return_counts=True)
    seen = np.argsort(first)
    symbols = list(names)
    confusion = {(symbols[p // len(names)], symbols[p % len(names)]): c
                 for p, c in zip(pairs[seen].tolist(), counts[seen].tolist())}
    return EvalReport(gold.num_tokens, int(np.count_nonzero(wrong)),
                      int(np.count_nonzero(unknown)),
                      int(np.count_nonzero(wrong & unknown)), confusion)


@dataclass(frozen=True)
class SignificanceQuery:
    """Error rate in (0, 1), sample size an int >= 1, critical value in (0, inf)."""

    p: float
    n: int
    z: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValidationError("error rate must lie strictly between 0 and 1")
        object.__setattr__(self, "n", _integer(self.n, "sample size"))
        if self.n < 1:
            raise ValidationError("sample size must be positive")
        if not 0.0 < self.z < math.inf:
            raise ValidationError("critical value must be positive and finite")


def significance_threshold(q: SignificanceQuery) -> float:
    """Smallest error-rate difference counted as significant."""
    return _threshold(q.p, q.n, q.z)


def _threshold(p: float, n: int, z: float) -> float:
    # Unvalidated, so that compare() can evaluate the degenerate rates 0
    # and 1 that a tiny toy evaluation can produce.
    return z * math.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class PairwiseComparison:
    name_a: str
    name_b: str
    difference: float
    threshold_10: float
    threshold_5: float

    @property
    def significant_10(self) -> bool:
        return abs(self.difference) > self.threshold_10

    @property
    def significant_5(self) -> bool:
        return abs(self.difference) > self.threshold_5


@dataclass(frozen=True)
class Comparison:
    names: tuple[str, ...]
    reports: tuple[EvalReport, ...]
    sample_size: int
    pairs: tuple[PairwiseComparison, ...]


def compare(reports: Sequence[tuple[str, EvalReport]]) -> Comparison:
    """All pairwise error-rate differences with significance flags.

    Every report must cover the same test set; thresholds are evaluated at
    the smaller error rate of each pair.
    """
    if len(reports) < 2:
        raise ValidationError("need at least two reports to compare")
    names = tuple(name for name, _ in reports)
    if len(set(names)) != len(names):
        raise ValidationError("report names must be unique")
    reps = tuple(rep for _, rep in reports)
    totals = {rep.total_tokens for rep in reps}
    if len(totals) != 1:
        raise ValidationError(f"reports cover different test sets: sizes {sorted(totals)}")
    size = totals.pop()
    if size < 1:
        raise ValidationError("cannot compare empty test sets")
    pairs = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            p_i, p_j = reps[i].error_rate, reps[j].error_rate
            p_min = min(p_i, p_j)
            pairs.append(PairwiseComparison(
                names[i], names[j], p_i - p_j,
                _threshold(p_min, size, Z_10_PERCENT),
                _threshold(p_min, size, Z_5_PERCENT)))
    return Comparison(names, reps, size, tuple(pairs))


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def render_report_table(report: EvalReport) -> str:
    """Aligned two-column summary, error rates in percent."""
    rows = [
        ("Tokens", str(report.total_tokens)),
        ("Errors", str(report.errors)),
        ("Error rate (%)", _pct(report.error_rate)),
        ("Unknown tokens", str(report.unknown_tokens)),
        ("Unknown fraction (%)", _pct(report.unknown_fraction)),
        ("Unknown errors", str(report.unknown_errors)),
        ("Unknown error rate (%)", _pct(report.unknown_error_rate)),
    ]
    label_w = max(len(label) for label, _ in rows)
    value_w = max(len(value) for _, value in rows)
    lines = [f"{label:<{label_w}}  {value:>{value_w}}" for label, value in rows]
    mistakes = [(cnt, gold, pred) for (gold, pred), cnt in report.confusion.items()
                if gold != pred]
    if mistakes:
        mistakes.sort(key=lambda t: (-t[0], t[1], t[2]))
        lines.append("")
        lines.append("Most frequent confusions (gold -> predicted):")
        for cnt, gold, pred in mistakes[:10]:
            lines.append(f"  {gold} -> {pred}: {cnt}")
    return "\n".join(lines) + "\n"


def render_report_kv(report: EvalReport) -> str:
    """Machine-readable lines: metric name, tab, value."""
    items = [
        ("total_tokens", str(report.total_tokens)),
        ("errors", str(report.errors)),
        ("error_rate", f"{report.error_rate:.17g}"),
        ("unknown_tokens", str(report.unknown_tokens)),
        ("unknown_errors", str(report.unknown_errors)),
        ("unknown_error_rate", f"{report.unknown_error_rate:.17g}"),
        ("unknown_fraction", f"{report.unknown_fraction:.17g}"),
    ]
    return "".join(f"{k}\t{v}\n" for k, v in items)


def render_comparison(c: Comparison) -> str:
    """Systems as columns, one metric per row, then the pairwise block."""
    header = ["System"] + list(c.names)
    rows = [
        ["Error rate (%)"] + [_pct(r.error_rate) for r in c.reports],
        ["Unknown error rate (%)"] + [_pct(r.unknown_error_rate) for r in c.reports],
        ["Unknown tokens (%)"] + [_pct(r.unknown_fraction) for r in c.reports],
    ]
    widths = [max(len(header[k]), *(len(row[k]) for row in rows))
              for k in range(len(header))]
    lines = ["  ".join(f"{cell:<{widths[k]}}" if k == 0 else f"{cell:>{widths[k]}}"
                       for k, cell in enumerate(row))
             for row in [header] + rows]
    lines.append("")
    lines.append("Pairwise differences (percentage points):")
    for pair in c.pairs:
        if pair.significant_5:
            label = "significant at the 5% level"
        elif pair.significant_10:
            label = "significant at the 10% level only"
        else:
            label = "not significant"
        lines.append(
            f"  {pair.name_a} - {pair.name_b}: {100.0 * pair.difference:+.2f}"
            f" (thresholds {_pct(pair.threshold_10)} / {_pct(pair.threshold_5)})"
            f" -> {label}")
    lines.append("")
    lines.append(f"Thresholds are z*sqrt(p*(1-p)/n) with n = {c.sample_size} test")
    lines.append("tokens, p the smaller error rate of the pair, z = 1.645 for the")
    lines.append("10% level and z = 1.96 for the 5% level.")
    return "\n".join(lines) + "\n"
