"""Entropy-weighted back-off smoothing over context generalizations.

The single estimation step blends a context's relative frequencies with the
estimate from a more general context, weighted by the inverse standard
deviation of an entropy-matched uniform distribution:

    estimate = (s * freqs + parent) / (s + 1)
    s        = sqrt(12) * sqrt(context_count) * exp(-parent_entropy)

Folding the step along a chain of increasingly specific contexts smooths a
whole n-gram model; a DAG of one-step generalizations is handled by backing
off to the unweighted mean of the parents with the smallest parent entropy
driving the weight.  Baselines (half-count estimation and fixed-weight
linear interpolation) live here too so they can be compared like for like.

All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .counts import NGramCountTable
from .corpus import Corpus
from .errors import ValidationError

SQRT12 = math.sqrt(12.0)

ROOT_MODE_RF = "rf"
ROOT_MODE_ELE = "ele"
ROOT_MODES = (ROOT_MODE_RF, ROOT_MODE_ELE)

# Tolerances: structural probability-sum checks at 1e-9, user-supplied raw
# vectors at 1e-6, interpolation weights at 1e-12.
_SUM_TOL_STRICT = 1e-9
_SUM_TOL_INPUT = 1e-6
_SUM_TOL_WEIGHTS = 1e-12


def _as_prob_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("probability vector must be 1-dimensional and non-empty")
    return arr


def entropy(probs) -> float:
    """Shannon entropy -sum(p*ln(p)) in nats, with 0*ln(0) = 0."""
    p = _as_prob_array(probs)
    if np.any(p < 0):
        raise ValidationError("probability vector has a negative entry")
    total = float(p.sum())
    if abs(total - 1.0) > _SUM_TOL_INPUT:
        raise ValidationError(f"probability vector sums to {total}, not 1")
    nz = p[p > 0]
    return max(0.0, float(-(nz * np.log(nz)).sum()))


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    """Probability vector over the tag set with its entropy cached."""

    probs: np.ndarray
    entropy_nats: float

    def __post_init__(self):
        self.probs.flags.writeable = False

    @classmethod
    def from_probs(cls, probs) -> "ConditionalDistribution":
        p = _as_prob_array(probs).copy()
        if np.any(p < 0) or np.any(p > 1):
            raise ValidationError("probabilities must lie in [0, 1]")
        total = float(p.sum())
        if abs(total - 1.0) > _SUM_TOL_STRICT:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        nz = p[p > 0]
        h = max(0.0, float(-(nz * np.log(nz)).sum()))
        return cls(p, h)

    @property
    def dim(self) -> int:
        return self.probs.shape[0]


def uniform_distribution(dim: int) -> ConditionalDistribution:
    return ConditionalDistribution.from_probs(np.full(dim, 1.0 / dim))


def sigma_inverse(context_count: int, parent_entropy: float, scale: float = 1.0) -> float:
    """Inverse standard deviation weighting the relative frequencies.

    Grows with the square root of the context's occurrence count and shrinks
    exponentially with the parent estimate's entropy.  Zero when the context
    was never observed, which collapses the smoothing step onto the parent.
    """
    if context_count < 0:
        raise ValidationError("context count must be nonnegative")
    if parent_entropy < 0:
        raise ValidationError("entropy must be nonnegative")
    if context_count == 0:
        return 0.0
    return scale * SQRT12 * math.sqrt(context_count) * math.exp(-parent_entropy)


def _check_freq_vector(f: np.ndarray, context_count: int) -> None:
    if np.any(f < 0):
        raise ValidationError("relative frequencies must be nonnegative")
    total = float(f.sum())
    if context_count > 0:
        if abs(total - 1.0) > _SUM_TOL_INPUT:
            raise ValidationError(f"relative frequencies sum to {total}, not 1")
    elif total != 0.0:
        raise ValidationError("zero-count context must come with a zero frequency vector")


def smooth_step(freqs, parent: ConditionalDistribution, context_count: int,
                scale: float = 1.0) -> ConditionalDistribution:
    """One back-off step: blend observed frequencies with the parent estimate."""
    f = _as_prob_array(freqs)
    if f.shape != parent.probs.shape:
        raise ValidationError(
            f"dimension mismatch: frequencies {f.shape[0]}, parent {parent.dim}")
    _check_freq_vector(f, context_count)
    if context_count == 0:
        return parent
    s = sigma_inverse(context_count, parent.entropy_nats, scale)
    return ConditionalDistribution.from_probs((s * f + parent.probs) / (s + 1.0))


def smooth_linear_chain(chain: Sequence[tuple[np.ndarray, int]],
                        root: ConditionalDistribution,
                        scale: float = 1.0) -> list[ConditionalDistribution]:
    """Fold the smoothing step along most-general-to-most-specific contexts.

    ``chain[k]`` is the (frequency vector, occurrence count) pair of the
    k-th context; element k of the result estimates its distribution.
    """
    out: list[ConditionalDistribution] = []
    current = root
    for freqs, count in chain:
        current = smooth_step(freqs, current, count, scale)
        out.append(current)
    return out


def smooth_partial(freqs, context_count: int,
                   parents: Sequence[ConditionalDistribution],
                   scale: float = 1.0) -> ConditionalDistribution:
    """Smoothing step against several one-step generalizations at once.

    The back-off term is the unweighted mean of the parent estimates; the
    weight uses the smallest parent entropy, i.e. the most reliable parent
    decides how much the raw frequencies are trusted.
    """
    if not parents:
        raise ValidationError("at least one parent distribution is required")
    dim = parents[0].dim
    if any(p.dim != dim for p in parents):
        raise ValidationError("parent distributions must share one dimension")
    mean = np.mean([p.probs for p in parents], axis=0)
    if context_count == 0:
        return ConditionalDistribution.from_probs(mean)
    f = _as_prob_array(freqs)
    if f.shape[0] != dim:
        raise ValidationError(f"dimension mismatch: frequencies {f.shape[0]}, parents {dim}")
    _check_freq_vector(f, context_count)
    h_min = min(p.entropy_nats for p in parents)
    s = sigma_inverse(context_count, h_min, scale)
    return ConditionalDistribution.from_probs((s * f + mean) / (s + 1.0))


@dataclass
class GeneralizationNode:
    """One context in a generalization DAG.

    Parents are the context's one-step generalizations; only the root (the
    no-information context) has none, and its distribution must be supplied.
    """

    node_id: Hashable
    parent_ids: tuple[Hashable, ...]
    count: int
    freqs: np.ndarray | None = None
    distribution: ConditionalDistribution | None = None


def smooth_dag(nodes: Iterable[GeneralizationNode],
               scale: float = 1.0) -> dict[Hashable, ConditionalDistribution]:
    """Populate every node of a generalization DAG, parents before children.

    Nodes with a single parent get the plain smoothing step; nodes with
    several get the partial variant.  The result does not depend on which
    valid topological order is used.
    """
    node_list = list(nodes)
    by_id: dict[Hashable, GeneralizationNode] = {}
    for n in node_list:
        if n.node_id in by_id:
            raise ValidationError(f"duplicate node id {n.node_id!r}")
        by_id[n.node_id] = n
    roots = [n for n in node_list if not n.parent_ids]
    if len(roots) != 1:
        raise ValidationError("exactly one parentless root node is required")
    if roots[0].distribution is None:
        raise ValidationError("the root node must carry its distribution")
    for n in node_list:
        for p in n.parent_ids:
            if p not in by_id:
                raise ValidationError(f"node {n.node_id!r} references unknown parent {p!r}")

    children: dict[Hashable, list[GeneralizationNode]] = {n.node_id: [] for n in node_list}
    indegree = {n.node_id: len(n.parent_ids) for n in node_list}
    for n in node_list:
        for p in n.parent_ids:
            children[p].append(n)

    results: dict[Hashable, ConditionalDistribution] = {}
    ready = [n for n in node_list if indegree[n.node_id] == 0]
    done = 0
    while ready:
        node = ready.pop(0)
        done += 1
        if not node.parent_ids:
            dist = node.distribution
        else:
            parents = [results[p] for p in node.parent_ids]
            dim = parents[0].dim
            freqs = node.freqs if node.freqs is not None else np.zeros(dim)
            if len(parents) == 1:
                dist = smooth_step(freqs, parents[0], node.count, scale)
            else:
                dist = smooth_partial(freqs, node.count, parents, scale)
        node.distribution = dist
        results[node.node_id] = dist
        for child in children[node.node_id]:
            indegree[child.node_id] -= 1
            if indegree[child.node_id] == 0:
                ready.append(child)
    if done != len(node_list):
        raise ValidationError("generalization graph contains a cycle")
    return results


def ele_estimate(counts) -> ConditionalDistribution:
    """Half-count estimation: add 0.5 to every outcome, then normalize."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("count vector must be 1-dimensional and non-empty")
    if np.any(c < 0):
        raise ValidationError("counts must be nonnegative")
    return ConditionalDistribution.from_probs((c + 0.5) / (c.sum() + 0.5 * c.size))


@dataclass(frozen=True)
class InterpolationWeights:
    """Per-order mixture weights: nonnegative, summing to one."""

    lam: tuple[float, ...]

    def __post_init__(self):
        if not self.lam:
            raise ValidationError("at least one weight is required")
        if any(w < 0 for w in self.lam):
            raise ValidationError("interpolation weights must be nonnegative")
        if abs(sum(self.lam) - 1.0) > _SUM_TOL_WEIGHTS:
            raise ValidationError(f"interpolation weights sum to {sum(self.lam)}, not 1")

    def __len__(self) -> int:
        return len(self.lam)


def interpolate(freqs_per_order: Sequence[np.ndarray],
                weights: InterpolationWeights) -> ConditionalDistribution:
    """Fixed-weight linear combination of per-order relative frequencies.

    An unseen context is represented by an all-zero vector; its weight mass
    is redistributed proportionally over the seen orders.  If no seen order
    carries weight, the most general seen order wins outright.
    """
    if len(freqs_per_order) != len(weights):
        raise ValidationError(
            f"{len(freqs_per_order)} frequency vectors for {len(weights)} weights")
    vectors = [_as_prob_array(v) for v in freqs_per_order]
    dim = vectors[0].shape[0]
    if any(v.shape[0] != dim for v in vectors):
        raise ValidationError("frequency vectors must share one dimension")
    seen = [bool(np.any(v != 0)) for v in vectors]
    if not any(seen):
        raise ValidationError("all orders unseen: nothing to interpolate")
    effective = [w if s else 0.0 for w, s in zip(weights.lam, seen)]
    denom = sum(effective)
    if denom <= 0.0:
        for v, s in zip(vectors, seen):
            if s:
                return ConditionalDistribution.from_probs(v)
    combined = sum(w * v for w, v in zip(effective, vectors)) / denom
    return ConditionalDistribution.from_probs(combined)


def simplex_grid(num_orders: int, step: float) -> Iterator[tuple[float, ...]]:
    """All weight vectors on the simplex grid with the given step.

    Enumerated in lexicographically descending order.
    """
    if num_orders < 1:
        raise ValidationError("need at least one order")
    n = round(1.0 / step)
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValidationError(f"step {step} does not divide 1")

    def parts(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for head in range(remaining, -1, -1):
            for tail in parts(remaining - head, slots - 1):
                yield (head,) + tail

    for combo in parts(n, num_orders):
        yield tuple(c / n for c in combo)


def grid_search_lambdas(objective: Callable[[tuple[float, ...]], float],
                        num_orders: int, step: float) -> InterpolationWeights:
    """Exhaustively maximize the objective over the simplex grid.

    Ties go to the lexicographically largest weight vector.
    """
    best_lam: tuple[float, ...] | None = None
    best_score = -math.inf
    for lam in simplex_grid(num_orders, step):
        score = objective(lam)
        if best_lam is None or score > best_score or (score == best_score and lam > best_lam):
            best_lam = lam
            best_score = score
    assert best_lam is not None
    return InterpolationWeights(best_lam)


def interpolation_loglik_objective(counts: NGramCountTable,
                                   heldout: Corpus) -> Callable[[tuple[float, ...]], float]:
    """Held-out log-likelihood of gold tag sequences under interpolation.

    The per-token per-order relative frequencies are gathered once, so each
    weight evaluation is a cheap vectorized pass.  The held-out corpus must
    share the tag set the counts were gathered over.
    """
    from .counts import BOUNDARY  # local import keeps module load order flat

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
        # Where every seen order has zero weight, the most general seen
        # order (the unigram) wins outright.
        p = np.where(ok, np.divide(num, den, out=np.zeros_like(num), where=ok), freqs[:, 0])
        if np.any(p <= 0):
            return -math.inf
        return float(np.log(p).sum())

    return objective


@dataclass
class SmoothedNGramModel:
    """One conditional tag distribution per stored context, for every estimator.

    A query keeps its last order-1 tags and resolves to their longest stored
    suffix, which is exactly what a zero-count smoothing step, or an
    interpolation over unseen orders, would return anyway.  Half-count
    tables store full-length contexts only and answer uniform when nothing
    matches.  ``freqs`` keeps the relative frequencies an interpolated table
    was mixed from, for the model file.
    """

    order: int
    num_tags: int
    tables: dict[tuple[int, ...], ConditionalDistribution]
    freqs: dict[tuple[int, ...], np.ndarray] | None = None

    @property
    def root(self) -> ConditionalDistribution:
        return self.tables[()]

    def distribution(self, context: tuple[int, ...]) -> ConditionalDistribution:
        ctx = tuple(context)
        ctx = ctx[max(0, len(ctx) - (self.order - 1)):]
        while ctx not in self.tables:
            if not ctx:
                return uniform_distribution(self.num_tags)
            ctx = ctx[1:]
        return self.tables[ctx]


def unigram_distribution(counts: NGramCountTable, root_mode: str) -> ConditionalDistribution:
    """Root of every back-off chain: the global tag distribution."""
    if root_mode not in ROOT_MODES:
        raise ValidationError(f"unknown root mode {root_mode!r}")
    vec = counts.outcome_counts(())
    if root_mode == ROOT_MODE_ELE:
        return ele_estimate(vec)
    total = vec.sum()
    if total == 0:
        raise ValidationError("cannot take relative frequencies of an empty table")
    return ConditionalDistribution.from_probs(vec / total)


def build_sa_ngram_model(counts: NGramCountTable, root_mode: str = ROOT_MODE_RF,
                         sigma_scale: float = 1.0) -> SmoothedNGramModel:
    """Smooth every observed context against its strip-the-oldest-tag chain.

    Contexts are processed shortest first, so each one's parent (its suffix,
    one tag shorter) is already estimated.
    """
    root = unigram_distribution(counts, root_mode)
    tables: dict[tuple[int, ...], ConditionalDistribution] = {(): root}
    model = SmoothedNGramModel(counts.order, counts.num_tags, tables)
    for length in range(1, counts.order):
        for ctx in sorted(counts.contexts_of_length(length)):
            total = counts.totals[ctx]
            parent = model.distribution(ctx[1:])
            tables[ctx] = smooth_step(counts.counts[ctx] / total, parent, total, sigma_scale)
    return model


def interpolated_ngram_model(order: int, num_tags: int,
                             freqs: dict[tuple[int, ...], np.ndarray],
                             weights: InterpolationWeights) -> SmoothedNGramModel:
    """Mix each stored context's suffix frequencies once, into one row each.

    ``freqs`` maps every stored context to its relative frequencies; a
    suffix missing from it counts as an unseen order.
    """
    if len(weights) != order:
        raise ValidationError(f"{len(weights)} weights for an order-{order} model")
    zeros = np.zeros(num_tags)
    tables = {}
    for ctx in freqs:
        per_order = [freqs.get(ctx[len(ctx) - j:], zeros) if j <= len(ctx) else zeros
                     for j in range(order)]
        tables[ctx] = interpolate(per_order, weights)
    return SmoothedNGramModel(order, num_tags, tables, freqs)


def build_interpolated_ngram_model(counts: NGramCountTable,
                                   weights: InterpolationWeights) -> SmoothedNGramModel:
    freqs = {ctx: vec / counts.totals[ctx] for ctx, vec in counts.counts.items()}
    return interpolated_ngram_model(counts.order, counts.num_tags, freqs, weights)


def build_ele_ngram_model(counts: NGramCountTable) -> SmoothedNGramModel:
    """Half-count estimation per full-length context, with no back-off rows."""
    tables = {ctx: ele_estimate(vec)
              for ctx, vec in counts.counts.items() if len(ctx) == counts.order - 1}
    return SmoothedNGramModel(counts.order, counts.num_tags, tables)
