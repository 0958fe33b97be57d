import itertools
import math

import numpy as np
import pytest

from succabs.corpus import SynthesisConfig, parse_corpus, synthesize_corpus
from succabs.counts import RareWordPolicy, count_ngrams
from succabs.errors import ValidationError
from succabs.lexicon import build_unknown_word_model, unknown_word_distribution
from succabs.smoothing import (
    ConditionalDistribution,
    GeneralizationNode,
    InterpolationWeights,
    SmoothedNGramModel,
    SQRT12,
    _entropy,
    _row_entropies,
    build_ele_ngram_model,
    build_interpolated_ngram_model,
    build_sa_ngram_model,
    ele_estimate,
    entropy,
    grid_search_lambdas,
    interpolate,
    interpolated_ngram_model,
    interpolation_loglik_objective,
    log_probs,
    sigma_inverse,
    simplex_grid,
    smooth_dag,
    smooth_partial,
    smooth_step,
    uniform_distribution,
    unigram_distribution,
)
from succabs.model_io import model_from_text, model_to_text
from succabs.tagger import train_model
from lexical_oracle import sparse_trie
from test_lexicon import word_ending_at
from transition_oracle import (
    count_freqs,
    distribution,
    ele_tables,
    interpolated_tables,
    query,
    rows_of,
    sa_tables,
)


def oracle_entropy(probs):
    # Straight-line reference, plain Python floats only.
    return -sum(p * math.log(p) for p in probs if p > 0)


def oracle_step(f, parent_probs, count):
    """Independent evaluation of one smoothing step."""
    if count == 0:
        return list(parent_probs)
    s = math.sqrt(12.0) * math.sqrt(count) * math.exp(-oracle_entropy(parent_probs))
    return [(s * fi + pi) / (s + 1.0) for fi, pi in zip(f, parent_probs)]


def oracle_partial(f, count, parent_prob_lists):
    m = len(parent_prob_lists)
    mean = [sum(ps[i] for ps in parent_prob_lists) / m
            for i in range(len(parent_prob_lists[0]))]
    if count == 0:
        return mean
    h_min = min(oracle_entropy(ps) for ps in parent_prob_lists)
    s = math.sqrt(12.0) * math.sqrt(count) * math.exp(-h_min)
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

    def test_row_entropies_equal_entropy_per_row_bit_for_bit(self):
        # Widths around the pairwise sum's blocks; rows with zeros, one-hot
        # rows (whose sum is -0.0 before the clamp), uniform rows and rows
        # with terms that underflow.
        rng = np.random.default_rng(13)
        for width in (1, 2, 7, 8, 9, 16, 17, 47, 48, 49, 127, 128, 129, 257):
            rows = rng.dirichlet(np.full(width, 0.3), size=60)
            rows[:20][rng.random((20, width)) < 0.3] = 0.0
            rows[20] = np.eye(width)[width // 2]
            rows[21] = 1.0 / width
            rows[22, :] = 1e-300
            rows[22, 0] = 1.0 - 1e-300 * (width - 1)
            got = _row_entropies(rows)
            expect = np.array([_entropy(row) for row in rows])
            assert got.view(np.int64).tolist() == expect.view(np.int64).tolist(), width
        assert _row_entropies(np.empty((0, 3))).shape == (0,)


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

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            sigma_inverse(-1, 0.0)


class TestSmoothStep:
    def test_single_observation_against_uniform_parent(self):
        for m in (2, 3, 10, 62):
            parent = uniform_distribution(m)
            counts = np.zeros(m, dtype=np.int64)
            counts[0] = 1
            out = smooth_step(counts, parent)
            assert out.probs[0] == pytest.approx((SQRT12 + 1) / (SQRT12 + m), abs=1e-12)
            for i in range(1, m):
                assert out.probs[i] == pytest.approx(1 / (SQRT12 + m), abs=1e-12)

    def test_three_outcome_literal_values(self):
        parent = uniform_distribution(3)
        out = smooth_step([1, 0, 0], parent)
        assert out.probs[0] == pytest.approx(0.690599, abs=1e-6)
        assert out.probs[1] == pytest.approx(0.154701, abs=1e-6)

    def test_fixed_point_when_frequencies_equal_parent(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_distribution(rng, 4)
            parent = ConditionalDistribution.from_probs(p)
            out = smooth_step(p * int(rng.integers(1, 100)), parent)
            np.testing.assert_allclose(out.probs, p, atol=1e-12)

    def test_zero_count_returns_parent(self):
        parent = uniform_distribution(3)
        assert smooth_step(np.zeros(3, dtype=np.int64), parent) is parent

    def test_negative_or_non_finite_counts_rejected(self):
        for bad in ([1, -1, 0], [1.0, math.nan, 0.0], [math.inf, 0.0, 0.0], [[1, 0, 0]]):
            with pytest.raises(ValidationError, match="count"):
                smooth_step(bad, uniform_distribution(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            smooth_step([1, 0], uniform_distribution(3))

    def test_matches_oracle_and_residual_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            count = int(rng.integers(1, 10000))
            parent = ConditionalDistribution.from_probs(random_distribution(rng, dim))
            counts = rng.multinomial(count, random_distribution(rng, dim))
            f = counts / count
            out = smooth_step(counts, parent)
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
                out = smooth_step(f * count, parent)
                new_gaps = np.abs(out.probs - f)
                if gaps is not None:
                    assert np.all(new_gaps <= gaps + 1e-15)
                gaps = new_gaps


class TestSmoothPartial:
    def test_equal_parents_collapse_to_plain_step(self):
        parent = ConditionalDistribution.from_probs([0.5, 0.3, 0.2])
        counts = np.array([1, 1, 2])
        single = smooth_step(counts, parent)
        for parents in ([parent], [parent, parent]):
            np.testing.assert_array_equal(smooth_partial(counts, parents).probs, single.probs)

    def test_zero_count_gives_parent_mean(self):
        a = ConditionalDistribution.from_probs([0.8, 0.2])
        b = ConditionalDistribution.from_probs([0.4, 0.6])
        out = smooth_partial([0, 0], [a, b])
        np.testing.assert_allclose(out.probs, [0.6, 0.4], atol=1e-15)

    def test_weight_uses_smallest_parent_entropy(self):
        # count 4 with parent entropies ln 2 and ln 4: the sharper parent
        # (ln 2) sets the weight, 2*sqrt(12)*exp(-ln 2) = sqrt(12).
        a = ConditionalDistribution.from_probs([0.5, 0.5, 0.0, 0.0])
        b = ConditionalDistribution.from_probs([0.25, 0.25, 0.25, 0.25])
        s = sigma_inverse(4, min(a.entropy_nats, b.entropy_nats))
        assert s == pytest.approx(SQRT12, abs=1e-12)
        assert s == pytest.approx(3.464102, abs=1e-6)
        out = smooth_partial([4, 0, 0, 0], [a, b])
        f = np.array([1.0, 0.0, 0.0, 0.0])
        mean = (a.probs + b.probs) / 2
        np.testing.assert_allclose(out.probs, (s * f + mean) / (s + 1), atol=1e-12)

    def test_empty_parent_list_rejected(self):
        with pytest.raises(ValidationError):
            smooth_partial([1], [])

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            n_parents = int(rng.integers(1, 5))
            parents = [ConditionalDistribution.from_probs(random_distribution(rng, dim))
                       for _ in range(n_parents)]
            count = int(rng.integers(0, 500))
            counts = rng.multinomial(count, random_distribution(rng, dim))
            out = smooth_partial(counts, parents)
            expect = oracle_partial((counts / max(count, 1)).tolist(), count,
                                    [p.probs.tolist() for p in parents])
            np.testing.assert_allclose(out.probs, expect, atol=1e-12)
            assert abs(out.probs.sum() - 1.0) < 1e-9


def make_random_dag(rng, dim, num_nodes):
    nodes = [GeneralizationNode(0, (), None,
                                ConditionalDistribution.from_probs(
                                    random_distribution(rng, dim)))]
    for i in range(1, num_nodes):
        n_parents = int(rng.integers(1, min(i, 3) + 1))
        parents = tuple(int(p) for p in rng.choice(i, size=n_parents, replace=False))
        counts = rng.multinomial(int(rng.integers(0, 40)), random_distribution(rng, dim))
        nodes.append(GeneralizationNode(i, parents, counts))
    return nodes


def copy_nodes(nodes):
    return [GeneralizationNode(n.node_id, n.parent_ids,
                               None if n.counts is None else n.counts.copy(),
                               n.distribution)
            for n in nodes]


class TestSmoothDag:
    def test_linear_chain_reduction(self):
        root = uniform_distribution(3)
        c1 = np.array([2, 1, 1])
        c2 = np.array([1, 0, 0])
        a = smooth_step(c1, root)
        b = smooth_step(c2, a)
        nodes = [
            GeneralizationNode("root", (), None, root),
            GeneralizationNode("a", ("root",), c1),
            GeneralizationNode("b", ("a",), c2),
        ]
        result = smooth_dag(nodes)
        np.testing.assert_allclose(result["a"].probs, a.probs, atol=1e-15)
        np.testing.assert_allclose(result["b"].probs, b.probs, atol=1e-15)

    def test_symmetric_diamond_gives_symmetric_output(self):
        # Two outcomes mirrored through the two middle contexts.
        root = uniform_distribution(2)
        nodes = [
            GeneralizationNode("root", (), None, root),
            GeneralizationNode("left", ("root",), np.array([3, 1])),
            GeneralizationNode("right", ("root",), np.array([1, 3])),
            GeneralizationNode("join", ("left", "right"), np.array([2, 2])),
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
                count = int(n.counts.sum())
                f = (n.counts / max(count, 1)).tolist()
                computed[n.node_id] = oracle_partial(f, count, parent_lists)
                np.testing.assert_allclose(baseline[n.node_id].probs,
                                           computed[n.node_id], atol=1e-12)

    def test_cycle_rejected(self):
        nodes = [
            GeneralizationNode("root", (), None, uniform_distribution(2)),
            GeneralizationNode("a", ("b",), np.array([1, 0])),
            GeneralizationNode("b", ("a",), np.array([0, 1])),
        ]
        with pytest.raises(ValidationError):
            smooth_dag(nodes)

    def test_missing_root_distribution_rejected(self):
        with pytest.raises(ValidationError):
            smooth_dag([GeneralizationNode("root", (), None, None)])

    @pytest.mark.parametrize("nodes", [
        [GeneralizationNode("root", (), None, uniform_distribution(2)),
         GeneralizationNode("root", (), None, uniform_distribution(2))],
        [GeneralizationNode("root", (), None, uniform_distribution(2)),
         GeneralizationNode("a", ("elsewhere",), np.array([1, 0]))],
        [GeneralizationNode("root", (), None, uniform_distribution(2)),
         GeneralizationNode("other", (), None, uniform_distribution(2))],
        [GeneralizationNode("root", (), None, uniform_distribution(2)),
         GeneralizationNode("a", ("a",), np.array([1, 0]))],
    ], ids=["duplicate id", "unknown parent", "two roots", "self-loop"])
    def test_malformed_graph_rejected(self, nodes):
        with pytest.raises(ValidationError):
            smooth_dag(nodes)

    def test_parent_listed_twice_counts_twice(self):
        root = uniform_distribution(3)
        p = smooth_step(np.array([3, 1, 0]), root)
        q = smooth_step(np.array([0, 1, 1]), root)
        counts = np.array([1, 0, 2])
        result = smooth_dag([
            GeneralizationNode("root", (), None, root),
            GeneralizationNode("p", ("root",), np.array([3, 1, 0])),
            GeneralizationNode("q", ("root",), np.array([0, 1, 1])),
            GeneralizationNode("ppq", ("p", "p", "q"), counts),
        ])
        expected = smooth_partial(counts, [p, p, q])
        assert result["ppq"].probs.tolist() == expected.probs.tolist()
        assert result["ppq"].probs.tolist() != smooth_partial(counts, [p, q]).probs.tolist()


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

    @pytest.mark.parametrize("step", [0, 0.0, -0.5, math.nan, math.inf])
    def test_step_not_finite_and_positive_rejected(self, step):
        with pytest.raises(ValidationError, match="does not divide 1"):
            list(simplex_grid(3, step))
        with pytest.raises(ValidationError, match="does not divide 1"):
            grid_search_lambdas(lambda lam: 0.0, 3, step)

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

    def test_interior_tie_broken_toward_lexicographically_largest(self):
        peaks = {(0.25, 0.5, 0.25), (0.5, 0.25, 0.25)}
        calls = []

        def objective(lam):
            calls.append(lam)
            return 1.0 if lam in peaks else -float(len(calls))

        best = grid_search_lambdas(objective, 3, 0.25)
        assert best.lam == (0.5, 0.25, 0.25)
        assert calls == list(simplex_grid(3, 0.25))  # once per grid point

    def test_nan_and_minus_inf_scores(self):
        # NaN never beats the point it is compared with, nor is beaten, so
        # a NaN first point stands and a later one never wins.
        first = next(simplex_grid(3, 0.5))
        assert grid_search_lambdas(lambda lam: math.nan, 3, 0.5).lam == first
        assert grid_search_lambdas(lambda lam: math.nan if lam != first else -1.0,
                                   3, 0.5).lam == first
        assert grid_search_lambdas(lambda lam: -math.inf, 3, 0.5).lam == first
        assert grid_search_lambdas(lambda lam: -math.inf if lam[2] < 1 else -5.0,
                                   3, 0.5).lam == (0.0, 0.0, 1.0)


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
        self.rows = rows_of(self.counts)

    def test_root_relative_frequency(self):
        model = build_sa_ngram_model(self.counts, root_mode="rf")
        assert model.contexts[0] == ()
        np.testing.assert_allclose(model.probs[0], [5 / 11, 4 / 11, 2 / 11],
                                   atol=1e-15)

    def test_root_half_count(self):
        model = build_sa_ngram_model(self.counts, root_mode="ele")
        assert model.contexts[0] == ()
        np.testing.assert_allclose(model.probs[0],
                                   [5.5 / 12.5, 4.5 / 12.5, 2.5 / 12.5], atol=1e-15)

    def test_root_mode_has_no_default(self):
        # train_model, the CLI and the unknown-word model default to ele;
        # the builder takes the caller's choice.
        with pytest.raises(TypeError):
            build_sa_ngram_model(self.counts)

    def test_contexts_checked(self):
        # Each context below the order, with tags in [-1, K), in file order
        # once: a tag past K used to raise a raw IndexError from ``index``,
        # and a context as long as the order was a row no query reaches.
        rows = np.full((3, 2), 0.5)
        for contexts, message in (
                (((), (5,)), "context '5' is longer than order 2 allows or holds a tag "
                             "index outside \\[-1, 2\\)"),
                (((), (-2,)), "context '-2' is longer"),
                (((), (0, 1)), "context '0,1' is longer"),
                (((), (1,), (0,)), "context '0' is out of order; rows are sorted by length, "
                                   "then by tag indices"),
                (((0,), ()), "context '' is out of order"),
                (((), (0,), (0,)), "duplicate context '0'")):
            with pytest.raises(ValidationError, match=f"^{message}"):
                SmoothedNGramModel(2, 2, contexts, rows[:len(contexts)])
        model = SmoothedNGramModel(2, 2, ((), (-1,), (1,)), rows)
        assert model.depth.tolist() == [0, 1, 1] and not model.depth.flags.writeable

    def test_interpolated_table_must_be_suffix_closed(self):
        # A row missing its suffix would mix an unseen order in its place.
        weights = InterpolationWeights((0.2, 0.3, 0.5))
        for contexts, message in ((((), (0,), (0, 1)), "^context '0,1' is stored, but its "
                                                        "suffix '1' is not$"),
                                  (((0,), (0, 1)), "^the root context is missing$")):
            rf = SmoothedNGramModel(3, 2, contexts, np.full((len(contexts), 2), 0.5))
            with pytest.raises(ValidationError, match=message):
                interpolated_ngram_model(rf, weights)

    def test_unigram_and_unknown_word_roots_share_one_rule(self):
        vec = self.counts.counts[0]
        trie = sparse_trie(vec.copy()[None, :], np.zeros(1, dtype=np.int64),
                           np.zeros(1, dtype=np.int64), np.array([-1]))
        for mode in ("rf", "ele"):
            unknown = build_unknown_word_model(trie, RareWordPolicy(), mode)
            np.testing.assert_array_equal(unigram_distribution(self.counts, mode).probs,
                                          unknown.root.probs)

    def test_order_one_model_is_just_the_root(self):
        counts1 = count_ngrams(self.corpus, 1)
        model = build_sa_ngram_model(counts1, root_mode="rf")
        assert model.contexts == ((),)
        np.testing.assert_allclose(query(model, ()).probs, model.probs[0])
        np.testing.assert_allclose(query(model, (0, 1)).probs, model.probs[0])

    def test_every_stored_context_matches_straight_line_recomputation(self):
        model = build_sa_ngram_model(self.counts, root_mode="rf")
        root = [c / int(self.rows[()].sum()) for c in self.rows[()]]
        for ctx, vec in self.rows.items():
            if not ctx:
                continue
            # Recompute the whole back-off chain independently.
            expect = root
            for start in range(len(ctx) - 1, -1, -1):
                sub = ctx[start:]
                total = int(self.rows[sub].sum()) if sub in self.rows else 0
                if total == 0:
                    continue
                f = [c / total for c in self.rows[sub]]
                expect = oracle_step(f, expect, total)
            np.testing.assert_allclose(query(model, ctx).probs, expect,
                                       atol=1e-12)

    def test_unseen_context_resolves_to_longest_observed_suffix(self):
        model = build_sa_ngram_model(self.counts, root_mode="rf")
        # (2, 2) never occurs; its suffix (2,) does.
        np.testing.assert_array_equal(query(model, (2, 2)).probs, query(model, (2,)).probs)

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
                total = int(self.rows[sub].sum()) if j <= len(ctx) and sub in self.rows else 0
                per_order.append(self.rows[sub] / total if total else np.zeros(3))
            expect = interpolate(per_order, weights)
            np.testing.assert_array_equal(query(model, ctx).probs, expect.probs)

    def test_ele_model_per_context_and_unseen_uniform(self):
        model = build_ele_ngram_model(self.counts)
        uniform = uniform_distribution(3)
        for ctx in self.all_contexts():
            if len(ctx) == self.counts.order - 1 and ctx in self.rows:
                expect = ele_estimate(self.rows[ctx])
            else:
                expect = uniform
            np.testing.assert_array_equal(query(model, ctx).probs, expect.probs)
        np.testing.assert_allclose(query(model, (2, 2)).probs,
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
                    expect += math.log(query(model, ctx).probs[t])
                    ctx = (ctx[1], t)
            assert objective(lam) == pytest.approx(expect, abs=1e-9)


def reference_loglik_objective(counts, heldout):
    """The per-token objective the array one replaced, kept verbatim as the
    reference whose values it must equal."""
    from succabs.counts import BOUNDARY  # local import keeps module load order flat

    order = counts.order
    rows = rows_of(counts)
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
                total = int(rows[ctx].sum()) if ctx in rows else 0
                if total == 0:
                    break
                depth = k
                row[k - 1] = rows[ctx][outcome] / total
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
        # As many tags, one of them another.
        counts = count_ngrams(parse_corpus("a\tA\nb\tB\nc\tC\n"), 2)
        with pytest.raises(ValidationError, match="held-out corpus has tags"):
            interpolation_loglik_objective(counts, parse_corpus("a\tA\nb\tB\nd\tD\n"))


class TestLogProbs:
    def test_equals_math_log_per_cell(self):
        rng = np.random.default_rng(8)
        for shape in ((0,), (7,), (5, 9), (3, 4, 2)):
            p = rng.random(shape) * rng.choice([1e-300, 1.0], size=shape)
            p[rng.random(shape) < 0.3] = 0.0
            expect = [math.log(x) if x > 0.0 else -math.inf for x in p.ravel().tolist()]
            got = log_probs(p)
            assert got.shape == p.shape and got.ravel().tolist() == expect


def random_count_table(rng, order):
    """``count_ngrams`` of a random corpus over 1-5 declared tags, one of
    which may never occur."""
    k = int(rng.integers(1, 6))
    declared = tuple(f"T{i}" for i in range(k))
    used = declared[:max(1, k - int(rng.integers(0, 2)))]
    text = random_tagged_text(rng, used, int(rng.integers(1, 80)))
    return count_ngrams(parse_corpus(text, declared), order)


def file_order(contexts):
    return tuple(sorted(contexts, key=lambda ctx: (len(ctx), ctx)))


class TestArrayTablesAgainstOracle:
    def assert_equal_tables(self, model, tables):
        order, k = model.order, model.num_tags
        assert model.contexts == file_order(tables)
        for ctx, row, h in zip(model.contexts, model.probs, model.entropies):
            assert row.tolist() == tables[ctx].probs.tolist(), ctx
            assert h == tables[ctx].entropy_nats, ctx
        # Every query the decoder can make: order-1 tags, boundary included.
        for ctx in itertools.product(range(-1, k), repeat=order - 1):
            expect = log_probs(distribution(tables, order, k, ctx).probs)
            got = model.log_probs[model.index[tuple(t + 1 for t in ctx)]]
            assert got.tolist() == expect.tolist(), ctx

    def test_rows_and_queries_equal_the_per_context_tables(self):
        # Orders 1-4, both root modes, interpolation weights on a grid that
        # zeroes whole orders, and suffix-closed frequency maps with stored
        # contexts removed together with their extensions, so that, where
        # no seen order carries weight, the most general one wins.
        rng = np.random.default_rng(2024)
        no_weight = 0
        for i in range(200):
            order = 1 + i % 4
            root_mode = ("rf", "ele")[(i // 4) % 2]
            counts = random_count_table(rng, order)
            k = counts.num_tags
            points = list(simplex_grid(order, float(rng.choice([0.5, 0.25]))))
            weights = InterpolationWeights(points[int(rng.integers(len(points)))])
            freqs = {}
            for ctx, vec in count_freqs(counts).items():  # in file order, suffixes first
                if not ctx or ctx[1:] in freqs and rng.random() < 0.7:
                    freqs[ctx] = vec
            contexts = file_order(freqs)
            rf = SmoothedNGramModel(order, k, contexts, np.array([freqs[ctx] for ctx in contexts]))
            cases = [
                (build_sa_ngram_model(counts, root_mode), sa_tables(counts, root_mode)),
                (build_ele_ngram_model(counts), ele_tables(counts)),
                (build_interpolated_ngram_model(counts, weights),
                 interpolated_tables(order, k, count_freqs(counts), weights)),
                (interpolated_ngram_model(rf, weights),
                 interpolated_tables(order, k, freqs, weights)),
            ]
            for model, tables in cases:
                self.assert_equal_tables(model, tables)
            no_weight += sum(
                all(w == 0 or ctx[len(ctx) - j:] not in freqs
                    for j, w in enumerate(weights.lam) if j <= len(ctx))
                for ctx in freqs)
        assert no_weight > 0


@pytest.fixture(scope="module")
def narrow8_counts():
    # The criterion-6 training corpus: 8 tags, 50k tokens.
    train = synthesize_corpus(SynthesisConfig(num_tags=8, vocab_size=500,
                                              num_train_tokens=50000,
                                              num_test_tokens=100, seed=42))[0]
    return train, count_ngrams(train, 3)


class TestIdentitiesOnTrainedModel:
    def test_residual_at_every_stored_context(self, narrow8_counts):
        # smoothed - f = (p - f)/(s + 1), p the parent (one tag shorter).
        train, counts = narrow8_counts
        model = train_model(train, order=3, root_mode="ele").transition
        rows = rows_of(counts)
        row_of = {ctx: i for i, ctx in enumerate(model.contexts)}
        worst = 0.0
        for ctx, smoothed in zip(model.contexts[1:], model.probs[1:]):
            total = int(rows[ctx].sum())
            f = rows[ctx] / total
            parent = model.probs[row_of[ctx[1:]]]
            h = model.entropies[row_of[ctx[1:]]]
            assert h == entropy(parent)
            s = sigma_inverse(total, h)
            worst = max(worst, float(np.abs((smoothed - f) - (parent - f) / (s + 1.0)).max()))
        assert model.contexts == counts.contexts and len(model.contexts) > 80
        assert worst <= 1e-12

    def test_residual_at_every_trie_node(self, narrow8_counts):
        # The same identity at every suffix-trie node, p the parent node's
        # fold, with every node folded by one call, in both root modes.
        train, _ = narrow8_counts
        for root_mode in ("ele", "rf"):
            unknown = train_model(train, order=1, root_mode=root_mode).unknown_word_model
            trie = unknown.trie
            nodes = list(trie.iter_nodes())
            folded = unknown_word_distribution(unknown, [word_ending_at(trie, n) for n in nodes])
            assert folded[0].tolist() == unknown.root.probs.tolist()
            worst = 0.0
            for node in nodes[1:]:
                counts = trie.counts.rows([node])[0]
                total = int(counts.sum())
                f = counts / total
                parent = folded[trie.parents[node]]
                s = sigma_inverse(total, entropy(parent))
                worst = max(worst, float(np.abs((folded[node] - f)
                                                - (parent - f) / (s + 1.0)).max()))
            assert len(nodes) > 500
            assert worst <= 1e-12

    def test_dag_of_trained_chains_equals_the_builder(self, narrow8_counts):
        # The strip-the-oldest-tag chains of a trained count table as one
        # DAG, listed in shuffled orders so that ``smooth_dag`` visits it in
        # different topological orders: each gives the builder's rows.
        train, _ = narrow8_counts
        rng = np.random.default_rng(55)
        for order, root_mode in ((3, "ele"), (3, "rf"), (4, "ele")):
            counts = count_ngrams(train, order)
            model = build_sa_ngram_model(counts, root_mode)
            expect = dict(zip(model.contexts, model.probs.tolist()))
            root = unigram_distribution(counts, root_mode)
            for _ in range(3):
                nodes = [GeneralizationNode((), (), distribution=root)]
                nodes += [GeneralizationNode(ctx, (ctx[1:],), row)
                          for ctx, row in zip(counts.contexts[1:], counts.counts[1:])]
                rng.shuffle(nodes)
                got = smooth_dag(nodes)
                assert {ctx: dist.probs.tolist() for ctx, dist in got.items()} == expect

    def test_ele_rows_are_ele_estimates(self, narrow8_counts):
        train, counts = narrow8_counts
        model = train_model(train, order=3, smoothing="ele").transition
        rows = rows_of(counts)
        assert model.contexts == file_order(c for c in rows if len(c) == 2)
        for ctx, row in zip(model.contexts, model.probs):
            assert row.tolist() == ele_estimate(rows[ctx]).probs.tolist()

    def test_loaded_tables_equal_trained_ones(self, narrow8_counts):
        train, _ = narrow8_counts
        for kwargs in ({}, {"root_mode": "rf"}, {"smoothing": "ele"},
                       {"smoothing": "interp", "lambdas": (0.0, 0.95, 0.05)}, {"order": 2}):
            trained = train_model(train, **kwargs).transition
            loaded = model_from_text(model_to_text(train_model(train, **kwargs))).transition
            assert loaded.contexts == trained.contexts
            assert loaded.probs.tolist() == trained.probs.tolist()
            assert (loaded.freqs is None) == (trained.freqs is None)
            if trained.freqs is not None:
                assert loaded.freqs.tolist() == trained.freqs.tolist()
            assert np.array_equal(loaded.index, trained.index)
            assert loaded.log_probs.tolist() == trained.log_probs.tolist()
