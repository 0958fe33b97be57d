"""The three benchmark workloads and the corpora they run on.

Each workload's corpora come from a fixed generator seed, so the error
counts and digests pinned in ``pins.json`` hold on every run; the run seed
only shuffles the order in which sentences reach the decoder.

- ``wide40``: ``synthesize_corpus`` at 40 tags, 20k vocabulary, 300k
  training tokens.  Test tokens open lattices of about 33 of the 40 tags,
  so the order-3 decoder dominates; this is the headline tagging scale.
  The 120-token decode set takes about 5 s per pass at today's ~24
  tok/s, so the three passes every run makes take about 15 s, and still
  about 50 ms after a 100x speed-up.
- ``poslike48``: the ``poslike`` generator, 48 tags with 1-3 tags per word
  and about 5% unknown test tokens.  Known-word lattices are small, so the
  work shifts to unknown words: ``unknown_word_distribution`` and
  full-width lattices around them.  A decoder change that only pays off on
  wide lattices should show no gain here.
- ``narrow8-compare``: the acceptance-test criterion-6 corpus (8 tags, 500
  vocabulary, 50k/5k tokens, seed 42) and the four-estimator comparison
  over its whole test set; the only workload where the interpolated and
  half-count transition models decode a large test set.

Every workload runs the same comparison.  Where the full comparison would
take too long to repeat, ``compare_train_sentences`` trains it on a prefix
of the training set and ``compare_sentences`` caps the test sentences it
decodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from succabs import Corpus, SynthesisConfig, synthesize_corpus

from poslike import poslike_corpus

CORPUS_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    make_corpora: Callable[[], tuple[Corpus, Corpus]]
    train_reps: int
    setup_reps: int
    decode_chunks: int
    compare_reps: int
    compare_sentences: int | None  # None: the whole test set
    compare_train_sentences: int | None = None  # None: the whole training set


def _synth(tags: int, vocab: int, train: int, test: int) -> Callable[[], tuple[Corpus, Corpus]]:
    def make() -> tuple[Corpus, Corpus]:
        cfg = SynthesisConfig(num_tags=tags, vocab_size=vocab, num_train_tokens=train,
                              num_test_tokens=test, seed=CORPUS_SEED)
        train_c, test_c, _ = synthesize_corpus(cfg)
        return train_c, test_c
    return make


def _poslike(tags: int, vocab: int, train: int, test: int) -> Callable[[], tuple[Corpus, Corpus]]:
    return lambda: poslike_corpus(tags, vocab, train, test, CORPUS_SEED)


FULL = {
    "wide40": Workload(
        "wide40", _synth(40, 20000, 300000, 120), train_reps=3, setup_reps=5,
        decode_chunks=4, compare_reps=2, compare_sentences=2,
        compare_train_sentences=2000),
    "poslike48": Workload(
        "poslike48", _poslike(48, 10000, 50000, 6000), train_reps=5, setup_reps=5,
        decode_chunks=4, compare_reps=2, compare_sentences=60,
        compare_train_sentences=1000),
    "narrow8-compare": Workload(
        "narrow8-compare", _synth(8, 500, 50000, 5000), train_reps=8, setup_reps=10,
        decode_chunks=3, compare_reps=3, compare_sentences=None),
}

# Tiny versions of the same workloads: every phase, check and span in seconds.
SMOKE = {
    "wide40": Workload(
        "wide40", _synth(40, 400, 3000, 40), train_reps=2, setup_reps=2,
        decode_chunks=2, compare_reps=1, compare_sentences=1),
    "poslike48": Workload(
        "poslike48", _poslike(48, 600, 3000, 300), train_reps=2, setup_reps=2,
        decode_chunks=2, compare_reps=1, compare_sentences=None),
    "narrow8-compare": Workload(
        "narrow8-compare", _synth(8, 300, 2000, 200), train_reps=2, setup_reps=2,
        decode_chunks=2, compare_reps=1, compare_sentences=None),
}
