"""Acceptance gate: one test per criterion, each printing one summary line.

Criterion 7 needs an external hand-tagged corpus and is skipped unless the
environment supplies one; every other criterion runs unconditionally.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from succabs.corpus import SynthesisConfig, parse_corpus, synthesize_corpus
from succabs.counts import count_ngrams
from succabs.errors import ValidationError
from succabs.evaluation import (
    SignificanceQuery,
    compare,
    evaluate,
    render_comparison,
    significance_threshold,
)
from succabs.lexicon import UnknownWordModel
from succabs.model_io import model_from_text, model_to_text
from succabs.smoothing import (
    ConditionalDistribution,
    GeneralizationNode,
    SQRT12,
    grid_search_lambdas,
    interpolation_loglik_objective,
    sigma_inverse,
    simplex_grid,
    smooth_dag,
    smooth_step,
    uniform_distribution,
)
from succabs.tagger import (
    Model,
    NEG_INF,
    _DecodeRuntime,
    _score_indices,
    corpus_digest,
    score_sequence,
    tag_corpus,
    train_model,
    viterbi_tag_scored,
)
from succabs.cli import main as cli_main

from lexical_oracle import known_word_distribution, sparse_trie


def random_distribution(rng, dim):
    v = rng.random(dim) + 1e-3
    return v / v.sum()


def test_criterion_1_half_count_correspondence():
    # A single observation against a uniform parent over M outcomes must
    # give exactly ((sqrt(12)+1)/(sqrt(12)+M), 1/(sqrt(12)+M), ...).
    worst = 0.0
    for m in (2, 3, 10, 62):
        parent = uniform_distribution(m)
        counts = np.zeros(m, dtype=np.int64)
        counts[0] = 1
        out = smooth_step(counts, parent).probs
        expected = np.full(m, 1.0 / (SQRT12 + m))
        expected[0] = (SQRT12 + 1.0) / (SQRT12 + m)
        worst = max(worst, float(np.abs(out - expected).max()))
    assert worst <= 1e-12
    print(f"criterion 1 PASS: half-count correspondence, max deviation {worst:.2e}")


def test_criterion_2_residual_identity():
    rng = np.random.default_rng(1001)
    worst_residual = 0.0
    worst_sum = 0.0
    for _ in range(1200):
        dim = int(rng.integers(2, 11))
        count = int(rng.integers(1, 10001))
        parent = ConditionalDistribution.from_probs(random_distribution(rng, dim))
        counts = rng.multinomial(count, random_distribution(rng, dim))
        f = counts / count
        out = smooth_step(counts, parent).probs
        s = sigma_inverse(count, parent.entropy_nats)
        residual = np.abs((out - f) - (parent.probs - f) / (s + 1.0)).max()
        worst_residual = max(worst_residual, float(residual))
        worst_sum = max(worst_sum, abs(float(out.sum()) - 1.0))
    assert worst_residual <= 1e-12
    assert worst_sum <= 1e-9
    print(f"criterion 2 PASS: 1200 triples, residual {worst_residual:.2e}, "
          f"sum deviation {worst_sum:.2e}")


def test_criterion_3_significance_endpoints():
    cases = [
        (0.04, 1.96, 0.384),
        (0.05, 1.96, 0.427),
        (0.04, 1.645, 0.322),
        (0.05, 1.645, 0.359),
    ]
    worst = 0.0
    for p, z, expected_pct in cases:
        got = 100.0 * significance_threshold(SignificanceQuery(p=p, n=10000, z=z))
        worst = max(worst, abs(got - expected_pct))
    assert worst <= 0.005
    print(f"criterion 3 PASS: four threshold endpoints, max deviation "
          f"{worst:.4f} percentage points")


def _random_training_corpus(rng):
    num_tags = int(rng.integers(2, 5))
    tags = tuple(f"T{i}" for i in range(num_tags))
    vocab = [f"w{i}" for i in range(int(rng.integers(6, 11)))]
    blocks = []
    total = 0
    target = int(rng.integers(30, 81))
    while total < target:
        n = int(rng.integers(1, 7))
        sent = [f"{vocab[int(rng.integers(len(vocab)))]}\tT{int(rng.integers(num_tags))}"
                for _ in range(n)]
        blocks.append("\n".join(sent))
        total += n
    return parse_corpus("\n\n".join(blocks) + "\n", declared_tags=tags)


def _random_sentence(rng, corpus):
    vocab = sorted({tok.word for sent in corpus.sentences for tok in sent})
    words = []
    for j in range(int(rng.integers(1, 7))):
        if rng.random() < 0.2:
            words.append(f"novel{j}")
        else:
            words.append(vocab[int(rng.integers(len(vocab)))])
    return words


def _enumerate_best(m, words):
    lattices = []
    for w in words:
        dist = known_word_distribution(m.lexicon, w)
        if dist is None or not dist.support:
            lattices.append(tuple(range(len(m.tag_set))))
        else:
            lattices.append(tuple(sorted(dist.support)))
    # Every combination is scored through one primed runtime; the best is
    # then checked once through the public scorer.
    runtime = _DecodeRuntime(m)
    runtime.prime(words)
    best, best_combo = NEG_INF, None
    for combo in itertools.product(*lattices):
        score = _score_indices(m, words, combo, runtime)
        if score > best:
            best, best_combo = score, combo
    if best_combo is not None:
        assert score_sequence(m, words, [m.tag_set.tags[t] for t in best_combo]) == best
    return best


def test_criterion_4_decoder_matches_enumeration():
    rng = np.random.default_rng(4004)
    smoothing_cycle = ("sa", "ele", "interp")
    start = time.monotonic()
    instances = 0
    worst = 0.0
    for i in range(50):
        corpus = _random_training_corpus(rng)
        order = int(rng.integers(1, 4))
        smoothing = smoothing_cycle[i % 3]
        lambdas = None
        if smoothing == "interp":
            points = list(simplex_grid(order, 0.25))
            lambdas = points[int(rng.integers(len(points)))]
        m = train_model(corpus, order=order, smoothing=smoothing, lambdas=lambdas)
        for _ in range(4):
            words = _random_sentence(rng, corpus)
            got = viterbi_tag_scored(m, words).log_score
            expect = _enumerate_best(m, words)
            if expect == NEG_INF:
                assert got == NEG_INF
            else:
                worst = max(worst, abs(got - expect))
                assert got == pytest.approx(expect, abs=1e-9)
            instances += 1
    elapsed = time.monotonic() - start
    assert instances == 200
    assert elapsed < 10.0
    print(f"criterion 4 PASS: 200 decode instances in {elapsed:.2f}s, "
          f"max score gap {worst:.2e}")


def _random_dag(rng, dim, num_nodes):
    nodes = [GeneralizationNode(0, (), None,
                                ConditionalDistribution.from_probs(
                                    random_distribution(rng, dim)))]
    for i in range(1, num_nodes):
        n_parents = int(rng.integers(1, min(i, 3) + 1))
        parents = tuple(int(p) for p in rng.choice(i, size=n_parents, replace=False))
        counts = rng.multinomial(int(rng.integers(0, 40)), random_distribution(rng, dim))
        nodes.append(GeneralizationNode(i, parents, counts))
    return nodes


def _copy_nodes(nodes):
    return [GeneralizationNode(n.node_id, n.parent_ids,
                               None if n.counts is None else n.counts.copy(),
                               n.distribution)
            for n in nodes]


def test_criterion_5_dag_order_independence():
    rng = np.random.default_rng(5005)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        nodes = _random_dag(rng, dim, int(rng.integers(2, 9)))
        baseline = smooth_dag(_copy_nodes(nodes))
        shuffled = _copy_nodes(nodes)
        rng.shuffle(shuffled)
        again = smooth_dag(shuffled)
        for node_id, dist in baseline.items():
            gap = float(np.abs(again[node_id].probs - dist.probs).max())
            worst = max(worst, gap)
    assert worst <= 1e-12
    print(f"criterion 5 PASS: 50 DAGs, max cross-order deviation {worst:.2e}")


def test_criterion_6_synthetic_end_to_end():
    start = time.monotonic()
    cfg = SynthesisConfig(num_tags=8, vocab_size=500, num_train_tokens=50000,
                          num_test_tokens=5000, seed=42)
    train, test, _ = synthesize_corpus(cfg)

    # Regression pins: the corpora themselves are part of the contract.
    assert train.num_tokens == 50000
    assert test.num_tokens == 5000
    assert corpus_digest(train).startswith("bf7ec0cc3fb193bb")
    assert corpus_digest(test).startswith("c6058421f97b33b5")

    known = {tok.word for sent in train.sentences for tok in sent}
    unknown_tokens = sum(1 for sent in test.sentences for tok in sent
                         if tok.word not in known)
    oov_rate = unknown_tokens / test.num_tokens
    assert 0.0 < oov_rate < 0.30
    assert unknown_tokens == 9

    words = [[tok.word for tok in sent] for sent in test.sentences]

    m3 = train_model(train, order=3)
    rep3 = evaluate(test, tag_corpus(m3, words), known)
    m2 = train_model(train, order=2)
    rep2 = evaluate(test, tag_corpus(m2, words), known)

    counts = count_ngrams(train, 3)
    best = grid_search_lambdas(interpolation_loglik_objective(counts, test), 3, 0.05)
    mi = train_model(train, order=3, smoothing="interp", lambdas=best.lam)
    repi = evaluate(test, tag_corpus(mi, words), known)

    # (a) three-tag context at least on par with two-tag context.
    assert rep3.error_rate <= rep2.error_rate + 0.0025
    # (b) at least on par with the best grid-searched interpolation.
    assert rep3.error_rate <= repi.error_rate + 0.0030

    # (c) the suffix model clearly beats decoding unknowns from the rare-tag
    # root alone (same model except for an empty trie).
    no_suffix = Model(
        m3.tag_set, m3.transition, m3.lexicon,
        UnknownWordModel(sparse_trie(np.zeros((1, 8), dtype=np.int64), np.zeros(1, dtype=np.int64),
                                     np.zeros(1, dtype=np.int64), np.array([-1])),
                         m3.unknown_word_model.root, m3.unknown_word_model.policy),
        m3.unigram, m3.metadata)
    repb = evaluate(test, tag_corpus(no_suffix, words), known)
    assert repb.unknown_error_rate - rep3.unknown_error_rate >= 0.02

    # Regression pins from the first verified run.
    assert rep3.errors == 361
    assert rep2.errors == 364
    assert best.lam == (0.0, 0.95, 0.05)
    assert repi.errors == 363
    assert rep3.unknown_errors == 0
    assert repb.unknown_errors == 6

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 6 PASS: trigram {100 * rep3.error_rate:.2f}% vs bigram "
          f"{100 * rep2.error_rate:.2f}% vs interpolation "
          f"{100 * repi.error_rate:.2f}%; unknown-word error "
          f"{100 * rep3.unknown_error_rate:.2f}% vs root-only "
          f"{100 * repb.unknown_error_rate:.2f}%; {elapsed:.1f}s")


@pytest.mark.skipif(
    "SUCCABS_EXTERNAL_TRAIN" not in os.environ
    or "SUCCABS_EXTERNAL_TEST" not in os.environ,
    reason="needs SUCCABS_EXTERNAL_TRAIN / SUCCABS_EXTERNAL_TEST pointing at a "
           "hand-tagged corpus pair (~130k train / ~10k test tokens, reduced "
           "tag set); the trigram error rate is then checked against the "
           "3.9-5.3% band")
def test_criterion_7_external_corpus_band():
    train = parse_corpus(Path(os.environ["SUCCABS_EXTERNAL_TRAIN"]).read_text(encoding="utf-8"))
    declared = train.tag_set.tags
    test = parse_corpus(Path(os.environ["SUCCABS_EXTERNAL_TEST"]).read_text(encoding="utf-8"),
                        declared_tags=declared)
    known = {tok.word for sent in train.sentences for tok in sent}
    words = [[tok.word for tok in sent] for sent in test.sentences]

    reports = []
    for name, order in (("bigram", 2), ("trigram", 3)):
        model = train_model(train, order=order)
        reports.append((name, evaluate(test, tag_corpus(model, words), known)))
    print(render_comparison(compare(reports)))

    trigram_rate = dict(reports)["trigram"].error_rate
    assert 0.039 <= trigram_rate <= 0.053
    print(f"criterion 7 PASS: external trigram error rate "
          f"{100 * trigram_rate:.2f}% inside the 3.9-5.3% band")


def test_criterion_8_round_trip_and_cli_determinism(tmp_path):
    corpus_text = ("\n".join(["the\tAT"] * 12 + ["cat\tNN", "bat\tNN", "sat\tVB"])
                   + "\n\n")
    corpus = parse_corpus(corpus_text)
    models = [
        train_model(corpus, order=3),
        train_model(corpus, order=2, root_mode="rf"),
        train_model(corpus, order=3, smoothing="ele"),
        train_model(corpus, order=3, smoothing="interp", lambdas=(0.2, 0.3, 0.5)),
    ]
    for model in models:
        text = model_to_text(model)
        loaded = model_from_text(text)
        assert model_to_text(loaded) == text
        for sentence in (["the", "cat"], ["sat", "zat"], ["bat", "the", "nat"]):
            a = viterbi_tag_scored(model, sentence)
            b = viterbi_tag_scored(loaded, sentence)
            assert a.tags == b.tags and a.log_score == b.log_score

    corpus_file = tmp_path / "train.tsv"
    corpus_file.write_text(corpus_text, encoding="utf-8")
    out_a = tmp_path / "a.model"
    out_b = tmp_path / "b.model"
    assert cli_main(["train", "--corpus", str(corpus_file),
                     "--out", str(out_a)]) == 0
    assert cli_main(["train", "--corpus", str(corpus_file),
                     "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    print("criterion 8 PASS: serialization round-trips byte-identically and "
          "repeated CLI training is deterministic")
