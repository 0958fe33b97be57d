import itertools
import math

import numpy as np
import pytest

from succabs.corpus import parse_corpus
from succabs.counts import RareWordPolicy, SuffixTrie, SuffixTrieNode, count_ngrams
from succabs.errors import ValidationError
from succabs.lexicon import build_unknown_word_model
from succabs.smoothing import (
    ConditionalDistribution,
    GeneralizationNode,
    InterpolationWeights,
    SQRT12,
    build_ele_ngram_model,
    build_interpolated_ngram_model,
    build_sa_ngram_model,
    ele_estimate,
    entropy,
    grid_search_lambdas,
    interpolate,
    interpolation_loglik_objective,
    sigma_inverse,
    simplex_grid,
    smooth_dag,
    smooth_partial,
    smooth_step,
    uniform_distribution,
    unigram_distribution,
)


def oracle_entropy(probs):
    # Straight-line reference, plain Python floats only.
    return -sum(p * math.log(p) for p in probs if p > 0)


def oracle_step(f, parent_probs, count, scale=1.0):
    """Independent evaluation of one smoothing step."""
    if count == 0:
        return list(parent_probs)
    s = scale * math.sqrt(12.0) * math.sqrt(count) * math.exp(-oracle_entropy(parent_probs))
    return [(s * fi + pi) / (s + 1.0) for fi, pi in zip(f, parent_probs)]


def oracle_partial(f, count, parent_prob_lists, scale=1.0):
    m = len(parent_prob_lists)
    mean = [sum(ps[i] for ps in parent_prob_lists) / m
            for i in range(len(parent_prob_lists[0]))]
    if count == 0:
        return mean
    h_min = min(oracle_entropy(ps) for ps in parent_prob_lists)
    s = scale * math.sqrt(12.0) * math.sqrt(count) * math.exp(-h_min)
    return [(s * fi + mi) / (s + 1.0) for fi, mi in zip(f, mean)]


def random_distribution(rng, dim):
    v = rng.random(dim) + 1e-3
    return v / v.sum()


class TestEntropy:
    def test_uniform_over_62(self):
        assert entropy(np.full(62, 1 / 62)) == pytest.approx(math.log(62), abs=1e-12)

    def test_degenerate_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_two_point_symmetric(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            entropy([1.2, -0.2])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            entropy([0.6, 0.6])

    def test_permutation_invariant_and_uniform_maximal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            p = random_distribution(rng, dim)
            shuffled = rng.permutation(p)
            assert entropy(shuffled) == pytest.approx(entropy(p), abs=1e-12)
            assert entropy(p) <= math.log(dim) + 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_distribution(rng, int(rng.integers(2, 12)))
            assert entropy(p) == pytest.approx(oracle_entropy(p.tolist()), abs=1e-12)
            assert entropy(p) == ConditionalDistribution.from_probs(p).entropy_nats


class TestConditionalDistribution:
    def test_non_finite_probabilities_rejected(self):
        for bad in ([math.nan, 1.0], [0.5, 0.5, math.nan], [math.inf, 0.0],
                    [-math.inf, 1.0]):
            with pytest.raises(ValidationError):
                ConditionalDistribution.from_probs(bad)


class TestSigmaInverse:
    def test_count_one_entropy_ln3(self):
        assert sigma_inverse(1, math.log(3)) == pytest.approx(SQRT12 / 3, abs=1e-12)
        assert sigma_inverse(1, math.log(3)) == pytest.approx(1.154701, abs=1e-6)

    def test_zero_count(self):
        assert sigma_inverse(0, 0.37) == 0.0

    def test_count_nine_entropy_zero(self):
        assert sigma_inverse(9, 0.0) == pytest.approx(3 * SQRT12, abs=1e-12)
        assert sigma_inverse(9, 0.0) == pytest.approx(10.392305, abs=1e-6)

    def test_scale_is_a_plain_multiplier(self):
        base = sigma_inverse(5, 0.8)
        assert sigma_inverse(5, 0.8, scale=2.5) == pytest.approx(2.5 * base, rel=1e-15)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            sigma_inverse(-1, 0.0)


class TestSmoothStep:
    def test_single_observation_against_uniform_parent(self):
        for m in (2, 3, 10, 62):
            parent = uniform_distribution(m)
            f = np.zeros(m)
            f[0] = 1.0
            out = smooth_step(f, parent, 1)
            assert out.probs[0] == pytest.approx((SQRT12 + 1) / (SQRT12 + m), abs=1e-12)
            for i in range(1, m):
                assert out.probs[i] == pytest.approx(1 / (SQRT12 + m), abs=1e-12)

    def test_three_outcome_literal_values(self):
        parent = uniform_distribution(3)
        out = smooth_step(np.array([1.0, 0, 0]), parent, 1)
        assert out.probs[0] == pytest.approx(0.690599, abs=1e-6)
        assert out.probs[1] == pytest.approx(0.154701, abs=1e-6)

    def test_fixed_point_when_frequencies_equal_parent(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_distribution(rng, 4)
            parent = ConditionalDistribution.from_probs(p)
            out = smooth_step(p, parent, int(rng.integers(1, 100)))
            np.testing.assert_allclose(out.probs, p, atol=1e-12)

    def test_zero_count_returns_parent(self):
        parent = uniform_distribution(3)
        assert smooth_step(np.zeros(3), parent, 0) is parent

    def test_zero_count_with_nonzero_frequencies_rejected(self):
        with pytest.raises(ValidationError):
            smooth_step(np.array([1.0, 0, 0]), uniform_distribution(3), 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            smooth_step(np.array([1.0, 0]), uniform_distribution(3), 1)

    def test_matches_oracle_and_residual_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            count = int(rng.integers(1, 10000))
            parent = ConditionalDistribution.from_probs(random_distribution(rng, dim))
            counts = rng.multinomial(count, random_distribution(rng, dim))
            f = counts / count
            out = smooth_step(f, parent, count)
            np.testing.assert_allclose(
                out.probs, oracle_step(f.tolist(), parent.probs.tolist(), count),
                atol=1e-12)
            s = sigma_inverse(count, parent.entropy_nats)
            np.testing.assert_allclose(out.probs - f, (parent.probs - f) / (s + 1),
                                       atol=1e-12)
            assert abs(out.probs.sum() - 1.0) < 1e-9

    def test_monotone_trust_toward_frequencies(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            parent = ConditionalDistribution.from_probs(random_distribution(rng, dim))
            f = random_distribution(rng, dim)
            gaps = None
            for count in (1, 4, 16, 64, 256, 4096):
                out = smooth_step(f, parent, count)
                new_gaps = np.abs(out.probs - f)
                if gaps is not None:
                    assert np.all(new_gaps <= gaps + 1e-15)
                gaps = new_gaps


class TestSmoothPartial:
    def test_equal_parents_collapse_to_plain_step(self):
        parent = ConditionalDistribution.from_probs([0.5, 0.3, 0.2])
        f = np.array([0.25, 0.25, 0.5])
        single = smooth_step(f, parent, 6)
        for parents in ([parent], [parent, parent]):
            np.testing.assert_array_equal(smooth_partial(f, 6, parents).probs, single.probs)

    def test_zero_count_gives_parent_mean(self):
        a = ConditionalDistribution.from_probs([0.8, 0.2])
        b = ConditionalDistribution.from_probs([0.4, 0.6])
        out = smooth_partial(None, 0, [a, b])
        np.testing.assert_allclose(out.probs, [0.6, 0.4], atol=1e-15)

    def test_weight_uses_smallest_parent_entropy(self):
        # count 4 with parent entropies ln 2 and ln 4: the sharper parent
        # (ln 2) sets the weight, 2*sqrt(12)*exp(-ln 2) = sqrt(12).
        a = ConditionalDistribution.from_probs([0.5, 0.5, 0.0, 0.0])
        b = ConditionalDistribution.from_probs([0.25, 0.25, 0.25, 0.25])
        s = sigma_inverse(4, min(a.entropy_nats, b.entropy_nats))
        assert s == pytest.approx(SQRT12, abs=1e-12)
        assert s == pytest.approx(3.464102, abs=1e-6)
        f = np.array([1.0, 0.0, 0.0, 0.0])
        out = smooth_partial(f, 4, [a, b])
        mean = (a.probs + b.probs) / 2
        np.testing.assert_allclose(out.probs, (s * f + mean) / (s + 1), atol=1e-12)

    def test_empty_parent_list_rejected(self):
        with pytest.raises(ValidationError):
            smooth_partial(np.array([1.0]), 1, [])

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            n_parents = int(rng.integers(1, 5))
            parents = [ConditionalDistribution.from_probs(random_distribution(rng, dim))
                       for _ in range(n_parents)]
            count = int(rng.integers(0, 500))
            f = random_distribution(rng, dim) if count else None
            out = smooth_partial(f, count, parents)
            expect = oracle_partial(None if f is None else f.tolist(), count,
                                    [p.probs.tolist() for p in parents])
            np.testing.assert_allclose(out.probs, expect, atol=1e-12)
            assert abs(out.probs.sum() - 1.0) < 1e-9


def make_random_dag(rng, dim, num_nodes):
    nodes = [GeneralizationNode(0, (), int(rng.integers(1, 50)), None,
                                ConditionalDistribution.from_probs(
                                    random_distribution(rng, dim)))]
    for i in range(1, num_nodes):
        n_parents = int(rng.integers(1, min(i, 3) + 1))
        parents = tuple(int(p) for p in rng.choice(i, size=n_parents, replace=False))
        count = int(rng.integers(0, 40))
        if count:
            counts = rng.multinomial(count, random_distribution(rng, dim))
            freqs = counts / count
        else:
            freqs = None
        nodes.append(GeneralizationNode(i, parents, count, freqs))
    return nodes


def copy_nodes(nodes):
    return [GeneralizationNode(n.node_id, n.parent_ids, n.count,
                               None if n.freqs is None else n.freqs.copy(),
                               n.distribution)
            for n in nodes]


class TestSmoothDag:
    def test_linear_chain_reduction(self):
        root = uniform_distribution(3)
        f1 = np.array([0.5, 0.25, 0.25])
        f2 = np.array([1.0, 0.0, 0.0])
        a = smooth_step(f1, root, 4)
        b = smooth_step(f2, a, 1)
        nodes = [
            GeneralizationNode("root", (), 100, None, root),
            GeneralizationNode("a", ("root",), 4, f1),
            GeneralizationNode("b", ("a",), 1, f2),
        ]
        result = smooth_dag(nodes)
        np.testing.assert_allclose(result["a"].probs, a.probs, atol=1e-15)
        np.testing.assert_allclose(result["b"].probs, b.probs, atol=1e-15)

    def test_symmetric_diamond_gives_symmetric_output(self):
        # Two outcomes mirrored through the two middle contexts.
        root = uniform_distribution(2)
        nodes = [
            GeneralizationNode("root", (), 10, None, root),
            GeneralizationNode("left", ("root",), 6, np.array([0.75, 0.25])),
            GeneralizationNode("right", ("root",), 6, np.array([0.25, 0.75])),
            GeneralizationNode("join", ("left", "right"), 4, np.array([0.5, 0.5])),
        ]
        result = smooth_dag(nodes)
        np.testing.assert_allclose(result["join"].probs, result["join"].probs[::-1],
                                   atol=1e-15)

    def test_order_independent_and_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            nodes = make_random_dag(rng, dim, int(rng.integers(2, 9)))
            baseline = smooth_dag(copy_nodes(nodes))
            shuffled = copy_nodes(nodes)
            rng.shuffle(shuffled)
            again = smooth_dag(shuffled)
            for node_id, dist in baseline.items():
                np.testing.assert_allclose(again[node_id].probs, dist.probs, atol=1e-12)
            # Straight-line recomputation in id order (parents have lower ids).
            computed = {0: nodes[0].distribution.probs.tolist()}
            for n in sorted(nodes[1:], key=lambda n: n.node_id):
                parent_lists = [computed[p] for p in n.parent_ids]
                f = None if n.freqs is None else n.freqs.tolist()
                computed[n.node_id] = oracle_partial(f, n.count, parent_lists)
                np.testing.assert_allclose(baseline[n.node_id].probs,
                                           computed[n.node_id], atol=1e-12)

    def test_cycle_rejected(self):
        nodes = [
            GeneralizationNode("root", (), 1, None, uniform_distribution(2)),
            GeneralizationNode("a", ("b",), 1, np.array([1.0, 0.0])),
            GeneralizationNode("b", ("a",), 1, np.array([0.0, 1.0])),
        ]
        with pytest.raises(ValidationError):
            smooth_dag(nodes)

    def test_zero_count_node_with_frequencies_rejected(self):
        # A node that never occurred cannot have observed frequencies, with
        # one parent or with several.
        for parent_ids in (("root",), ("root", "a")):
            nodes = [
                GeneralizationNode("root", (), 10, None, uniform_distribution(2)),
                GeneralizationNode("a", ("root",), 4, np.array([0.75, 0.25])),
                GeneralizationNode("b", parent_ids, 0, np.array([1.0, 0.0])),
            ]
            with pytest.raises(ValidationError):
                smooth_dag(nodes)

    def test_missing_root_distribution_rejected(self):
        with pytest.raises(ValidationError):
            smooth_dag([GeneralizationNode("root", (), 1, None, None)])


class TestEleEstimate:
    def test_all_zero_counts(self):
        np.testing.assert_allclose(ele_estimate([0, 0]).probs, [0.5, 0.5], atol=1e-15)

    def test_single_count_three_outcomes(self):
        np.testing.assert_allclose(ele_estimate([1, 0, 0]).probs, [0.6, 0.2, 0.2],
                                   atol=1e-15)

    def test_mixed_counts(self):
        np.testing.assert_allclose(ele_estimate([2, 1, 1]).probs,
                                   [2.5 / 5.5, 1.5 / 5.5, 1.5 / 5.5], atol=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ele_estimate([1, -1])


class TestInterpolate:
    def test_degenerate_unigram_weights(self):
        w = InterpolationWeights((1.0, 0.0, 0.0))
        out = interpolate([np.array([0.3, 0.7]), np.array([1.0, 0.0]),
                           np.array([0.0, 1.0])], w)
        np.testing.assert_allclose(out.probs, [0.3, 0.7], atol=1e-15)

    def test_pure_top_order(self):
        w = InterpolationWeights((0.0, 0.0, 1.0))
        out = interpolate([np.array([0.3, 0.7]), np.array([1.0, 0.0]),
                           np.array([0.0, 1.0])], w)
        np.testing.assert_allclose(out.probs, [0.0, 1.0], atol=1e-15)

    def test_weighted_mix(self):
        w = InterpolationWeights((0.2, 0.3, 0.5))
        out = interpolate([np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                           np.array([0.0, 1.0])], w)
        np.testing.assert_allclose(out.probs, [0.4, 0.6], atol=1e-15)

    def test_unseen_order_mass_redistributed(self):
        w = InterpolationWeights((0.2, 0.3, 0.5))
        out = interpolate([np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                           np.zeros(2)], w)
        np.testing.assert_allclose(out.probs,
                                   (0.2 * np.array([0.5, 0.5]) + 0.3 * np.array([1.0, 0.0])) / 0.5,
                                   atol=1e-15)

    def test_all_zero_weight_on_seen_orders_falls_back(self):
        w = InterpolationWeights((0.0, 0.0, 1.0))
        out = interpolate([np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                           np.zeros(2)], w)
        np.testing.assert_allclose(out.probs, [0.5, 0.5], atol=1e-15)

    def test_nothing_seen_rejected(self):
        with pytest.raises(ValidationError):
            interpolate([np.zeros(2), np.zeros(2)], InterpolationWeights((0.5, 0.5)))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            InterpolationWeights((0.2, 0.3, 0.6))
        with pytest.raises(ValidationError):
            InterpolationWeights((-0.2, 1.2))
        for bad in ((math.nan, 1.0), (0.5, math.nan), (math.inf, -math.inf)):
            with pytest.raises(ValidationError):
                InterpolationWeights(bad)


class TestSimplexGrid:
    def test_half_step_three_orders_has_six_points(self):
        points = list(simplex_grid(3, 0.5))
        assert len(points) == 6
        assert all(abs(sum(p) - 1) < 1e-12 for p in points)

    def test_step_one_gives_one_hot(self):
        points = list(simplex_grid(3, 1.0))
        assert points == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]

    def test_non_dividing_step_rejected(self):
        with pytest.raises(ValidationError):
            list(simplex_grid(2, 0.3))

    def test_count_for_step_005_three_orders(self):
        assert len(list(simplex_grid(3, 0.05))) == 231


class TestGridSearch:
    def test_unique_maximum_found(self):
        target = (0.35, 0.65)
        best = grid_search_lambdas(
            lambda lam: -sum((a - b) ** 2 for a, b in zip(lam, target)), 2, 0.05)
        assert best.lam == pytest.approx(target, abs=1e-12)

    def test_tie_broken_toward_lexicographically_largest(self):
        best = grid_search_lambdas(lambda lam: 0.0, 3, 0.5)
        assert best.lam == (1.0, 0.0, 0.0)


TOY = """\
a\tA
b\tB
a\tA

a\tB
c\tC
a\tA
b\tB

c\tC
a\tA
b\tB
a\tA
"""


class TestNGramModels:
    def setup_method(self):
        self.corpus = parse_corpus(TOY)
        self.counts = count_ngrams(self.corpus, 3)

    def test_root_relative_frequency(self):
        model = build_sa_ngram_model(self.counts, root_mode="rf")
        np.testing.assert_allclose(model.root.probs, [5 / 11, 4 / 11, 2 / 11],
                                   atol=1e-15)

    def test_root_half_count(self):
        model = build_sa_ngram_model(self.counts, root_mode="ele")
        np.testing.assert_allclose(model.root.probs,
                                   [5.5 / 12.5, 4.5 / 12.5, 2.5 / 12.5], atol=1e-15)

    def test_unigram_and_unknown_word_roots_share_one_rule(self):
        vec = self.counts.outcome_counts(())
        trie = SuffixTrie(num_tags=3, root=SuffixTrieNode(None, vec.copy()))
        for mode in ("rf", "ele"):
            unknown = build_unknown_word_model(trie, RareWordPolicy(), mode)
            np.testing.assert_array_equal(unigram_distribution(self.counts, mode).probs,
                                          unknown.root.probs)

    def test_order_one_model_is_just_the_root(self):
        counts1 = count_ngrams(self.corpus, 1)
        model = build_sa_ngram_model(counts1, root_mode="rf")
        np.testing.assert_allclose(model.distribution(()).probs, model.root.probs)
        np.testing.assert_allclose(model.distribution((0, 1)).probs, model.root.probs)

    def test_every_stored_context_matches_straight_line_recomputation(self):
        model = build_sa_ngram_model(self.counts, root_mode="rf")
        root = [c / self.counts.totals[()] for c in self.counts.counts[()]]
        for ctx, vec in self.counts.counts.items():
            if not ctx:
                continue
            # Recompute the whole back-off chain independently.
            expect = root
            for start in range(len(ctx) - 1, -1, -1):
                sub = ctx[start:]
                total = self.counts.totals.get(sub, 0)
                if total == 0:
                    continue
                f = [c / total for c in self.counts.counts[sub]]
                expect = oracle_step(f, expect, total)
            np.testing.assert_allclose(model.distribution(ctx).probs, expect,
                                       atol=1e-12)

    def test_unseen_context_resolves_to_longest_observed_suffix(self):
        model = build_sa_ngram_model(self.counts, root_mode="rf")
        # (2, 2) never occurs; its suffix (2,) does.
        np.testing.assert_array_equal(model.distribution((2, 2)).probs,
                                      model.distribution((2,)).probs)

    def all_contexts(self):
        """Every context of up to order-1 tags (boundary included), stored or not."""
        for k in range(self.counts.order):
            yield from itertools.product(range(-1, self.counts.num_tags), repeat=k)

    def test_interpolated_model_matches_manual_mix(self):
        weights = InterpolationWeights((0.2, 0.3, 0.5))
        model = build_interpolated_ngram_model(self.counts, weights)
        for ctx in self.all_contexts():
            per_order = []
            for j in range(self.counts.order):
                sub = ctx[len(ctx) - j:]
                total = self.counts.totals.get(sub, 0) if j <= len(ctx) else 0
                per_order.append(self.counts.counts[sub] / total if total else np.zeros(3))
            expect = interpolate(per_order, weights)
            np.testing.assert_array_equal(model.distribution(ctx).probs, expect.probs)

    def test_ele_model_per_context_and_unseen_uniform(self):
        model = build_ele_ngram_model(self.counts)
        uniform = uniform_distribution(3)
        for ctx in self.all_contexts():
            if len(ctx) == self.counts.order - 1 and ctx in self.counts.counts:
                expect = ele_estimate(self.counts.counts[ctx])
            else:
                expect = uniform
            np.testing.assert_array_equal(model.distribution(ctx).probs, expect.probs)
        np.testing.assert_allclose(model.distribution((2, 2)).probs,
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_unigram_distribution_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            unigram_distribution(self.counts, "bogus")


class TestLoglikObjective:
    def test_matches_direct_interpolation_scoring(self):
        corpus = parse_corpus(TOY)
        counts = count_ngrams(corpus, 3)
        objective = interpolation_loglik_objective(counts, corpus)
        for lam in [(1.0, 0.0, 0.0), (0.2, 0.3, 0.5), (0.0, 0.0, 1.0)]:
            model = build_interpolated_ngram_model(counts, InterpolationWeights(lam))
            expect = 0.0
            index = corpus.tag_set.index
            for sent in corpus.sentences:
                ctx = (-1, -1)
                for tok in sent:
                    t = index[tok.tag]
                    expect += math.log(model.distribution(ctx).probs[t])
                    ctx = (ctx[1], t)
            assert objective(lam) == pytest.approx(expect, abs=1e-9)


def reference_loglik_objective(counts, heldout):
    """The per-token objective the array one replaced, kept verbatim as the
    reference whose values it must equal."""
    from succabs.counts import BOUNDARY  # local import keeps module load order flat

    order = counts.order
    index = heldout.tag_set.index
    freq_rows: list[np.ndarray] = []
    depths: list[int] = []
    for sent in heldout.sentences:
        padded = [BOUNDARY] * (order - 1) + [index[t.tag] for t in sent]
        for i in range(order - 1, len(padded)):
            outcome = padded[i]
            row = np.zeros(order)
            depth = 0
            for k in range(1, order + 1):
                ctx = tuple(padded[i - k + 1:i])
                total = counts.totals.get(ctx, 0)
                if total == 0:
                    break
                depth = k
                row[k - 1] = counts.counts[ctx][outcome] / total
            freq_rows.append(row)
            depths.append(depth)
    freqs = np.array(freq_rows) if freq_rows else np.zeros((0, order))
    depth_col = np.array(depths, dtype=np.int64) - 1

    def objective(lam: tuple[float, ...]) -> float:
        w = np.asarray(lam, dtype=np.float64)
        rows = np.arange(freqs.shape[0])
        num = np.cumsum(freqs * w, axis=1)[rows, depth_col]
        den = np.cumsum(w)[depth_col]
        ok = den > 0
        p = np.where(ok, np.divide(num, den, out=np.zeros_like(num), where=ok), freqs[:, 0])
        if np.any(p <= 0):
            return -math.inf
        return float(np.log(p).sum())

    return objective


def random_tagged_text(rng, tags, tokens):
    blocks, total = [], 0
    while total < tokens:
        n = int(rng.integers(1, 7))
        blocks.append("\n".join(f"w{int(rng.integers(9))}\t{tags[int(rng.integers(len(tags)))]}"
                                for _ in range(n)))
        total += n
    return "\n\n".join(blocks) + "\n"


class TestLoglikObjectiveAgainstReference:
    def test_equal_over_the_whole_grid(self):
        # Little training text, so held-out contexts go unseen at every
        # depth; in the first round the held-out text also has a tag that
        # training never saw, which makes every weight's value -inf.
        rng = np.random.default_rng(404)
        declared = ("A", "B", "C", "D")
        finite = 0
        for i in range(8):
            train = parse_corpus(random_tagged_text(rng, declared[:3], 40), declared)
            heldout = parse_corpus(
                random_tagged_text(rng, declared[:4 if i == 0 else 3], 30), declared)
            for order in (1, 2, 3, 4):
                counts = count_ngrams(train, order)
                got = interpolation_loglik_objective(counts, heldout)
                expect = reference_loglik_objective(counts, heldout)
                for lam in simplex_grid(order, 0.05):
                    value = expect(lam)
                    assert got(lam) == value, (i, order, lam)
                    finite += math.isfinite(value)
        assert finite > 1000

    def test_tag_set_mismatch_rejected(self):
        counts = count_ngrams(parse_corpus("a\tX\n"), 2)
        with pytest.raises(ValidationError):
            interpolation_loglik_objective(counts, parse_corpus("a\tX\nb\tY\n"))
