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
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .counts import NGramCountTable, context_keys, transition_index_shape
from .corpus import Corpus, _integer
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


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return max(0.0, float(-(nz * np.log(nz)).sum()))


def _row_entropies(probs: np.ndarray) -> np.ndarray:
    """``_entropy`` of each row, bit for bit: one ``np.log`` and row sum over
    the rows without a zero, and ``_entropy`` itself for the others, whose
    compressed sum groups the terms differently."""
    full = probs.all(axis=1)
    p = probs[full]
    h = -(p * np.log(p)).sum(axis=1)
    out = np.empty(len(probs))
    out[full] = np.where(h > 0.0, h, 0.0)  # as max(0.0, -0.0) gives 0.0
    out[~full] = [_entropy(row) for row in probs[~full]]
    return out


def entropy(probs) -> float:
    """Shannon entropy -sum(p*ln(p)) in nats, with 0*ln(0) = 0."""
    p = _as_prob_array(probs)
    if not (p >= 0).all():  # NaN fails it too
        raise ValidationError("probability vector has a negative or NaN entry")
    total = float(p.sum())
    if not abs(total - 1.0) <= _SUM_TOL_INPUT:
        raise ValidationError(f"probability vector sums to {total}, not 1")
    return _entropy(p)


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
        _check_rows(p[None])
        return cls(p, _entropy(p))

    @property
    def dim(self) -> int:
        return self.probs.shape[0]


def _check_rows(probs: np.ndarray) -> None:
    """Reject a matrix unless each row lies in [0, 1] (so holds no NaN) and
    sums to 1 within the structural tolerance."""
    if not ((probs >= 0) & (probs <= 1)).all():
        raise ValidationError("probabilities must lie in [0, 1]")
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > _SUM_TOL_STRICT
    if off.any():
        raise ValidationError(f"probabilities sum to {sums[off][0]}, not 1")


def log_probs(probs) -> np.ndarray:
    """Elementwise ln, -inf where p <= 0, taken with ``math.log``.

    ``np.log`` can differ from it in the last bit, and path scores must not
    move, or ties between paths could break differently.
    """
    p = np.asarray(probs, dtype=np.float64)
    out = np.full(p.shape, -math.inf)
    positive = p > 0.0
    out[positive] = np.fromiter(map(math.log, p[positive].tolist()), dtype=np.float64,
                                count=int(positive.sum()))
    return out


def uniform_distribution(dim: int) -> ConditionalDistribution:
    dim = _integer(dim, "dim", 1)
    return ConditionalDistribution.from_probs(np.full(dim, 1.0 / dim))


def sigma_inverse(context_count: int, parent_entropy: float) -> float:
    """Inverse standard deviation weighting the relative frequencies.

    Grows with the square root of the context's occurrence count and shrinks
    exponentially with the parent estimate's entropy.  Zero when the context
    was never observed, which collapses the smoothing step onto the parent.
    """
    if not 0 <= context_count < math.inf:  # NaN fails both comparisons
        raise ValidationError("context count must be finite and nonnegative")
    if not 0 <= parent_entropy < math.inf:
        raise ValidationError("entropy must be finite and nonnegative")
    if context_count == 0:
        return 0.0
    return SQRT12 * math.sqrt(context_count) * math.exp(-parent_entropy)


def _as_count_array(values) -> np.ndarray:
    c = np.asarray(values, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("count vector must be 1-dimensional and non-empty")
    if not ((c >= 0) & (c < math.inf)).all():
        raise ValidationError("counts must be finite and nonnegative")
    return c


def _smooth_level(counts: np.ndarray, parents: np.ndarray,
                  parent_entropies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``smooth_step``'s operations, without its checks, on each nonzero row
    of ``counts`` against its parent row and entropy (``s`` per row with
    ``sigma_inverse``): one level of a hierarchy.  Returns rows, entropies."""
    totals = counts.sum(axis=1)
    s = np.array([sigma_inverse(total, h) for total, h in
                  zip(totals.tolist(), parent_entropies.tolist())])[:, None]
    probs = (s * (counts / totals[:, None]) + parents) / (s + 1.0)
    return probs, _row_entropies(probs)


def smooth_step(counts, parent: ConditionalDistribution) -> ConditionalDistribution:
    """One back-off step: blend a context's relative frequencies, its counts
    over their total |C|, with the parent estimate.  A context never
    observed (all counts zero) gets the parent itself."""
    return smooth_partial(counts, [parent])


def smooth_partial(counts,
                   parents: Sequence[ConditionalDistribution]) -> ConditionalDistribution:
    """Smoothing step against several one-step generalizations at once.

    The back-off term is the unweighted mean of the parent estimates; the
    weight uses the smallest parent entropy, i.e. the most reliable parent
    decides how much the raw frequencies are trusted.  With one parent it
    is ``smooth_step``.  A context never observed gets the mean.
    """
    if not parents:
        raise ValidationError("at least one parent distribution is required")
    dim = parents[0].dim
    if any(p.dim != dim for p in parents):
        raise ValidationError("parent distributions must share one dimension")
    c = _as_count_array(counts)
    if c.shape[0] != dim:
        raise ValidationError(f"dimension mismatch: counts {c.shape[0]}, parents {dim}")
    mean = np.mean([p.probs for p in parents], axis=0)
    total = c.sum()
    if total == 0:
        return parents[0] if len(parents) == 1 else ConditionalDistribution.from_probs(mean)
    s = sigma_inverse(total, min(p.entropy_nats for p in parents))
    return ConditionalDistribution.from_probs((s * (c / total) + mean) / (s + 1.0))


@dataclass
class GeneralizationNode:
    """One context in a generalization DAG.

    Parents are the context's one-step generalizations; only the root (the
    no-information context) has none, and its distribution must be supplied.
    Every other node carries its outcome counts.
    """

    node_id: Hashable
    parent_ids: tuple[Hashable, ...]
    counts: np.ndarray | None = None
    distribution: ConditionalDistribution | None = None


def smooth_dag(nodes: Iterable[GeneralizationNode]) -> dict[Hashable, ConditionalDistribution]:
    """Populate every node of a generalization DAG, parents before children.

    Every node but the root gets the partial smoothing step over its
    parents, which on a single parent is the plain step.  The result does
    not depend on which valid topological order is used.
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
    try:
        visit = list(TopologicalSorter({n.node_id: n.parent_ids for n in node_list}).static_order())
    except CycleError:
        raise ValidationError("generalization graph contains a cycle") from None

    results: dict[Hashable, ConditionalDistribution] = {}
    for node in map(by_id.__getitem__, visit):
        if node.parent_ids:
            node.distribution = smooth_partial(node.counts, [results[p] for p in node.parent_ids])
        results[node.node_id] = node.distribution
    return results


def ele_estimate(counts) -> ConditionalDistribution:
    """Half-count estimation: add 0.5 to every outcome, then normalize."""
    c = _as_count_array(counts)
    return ConditionalDistribution.from_probs((c + 0.5) / (c.sum() + 0.5 * c.size))


def root_estimate(counts, root_mode: str) -> ConditionalDistribution:
    """Root of a back-off chain from its count vector: half-count
    estimation (``ele``) or relative frequencies (``rf``)."""
    if root_mode not in ROOT_MODES:
        raise ValidationError(f"unknown root mode {root_mode!r}")
    if root_mode == ROOT_MODE_ELE:
        return ele_estimate(counts)
    total = counts.sum()
    if total == 0:
        raise ValidationError("relative-frequency root of zero counts is undefined")
    return ConditionalDistribution.from_probs(counts / total)


@dataclass(frozen=True)
class InterpolationWeights:
    """Per-order mixture weights, a tuple of floats: nonnegative, summing to one."""

    lam: tuple[float, ...]

    def __post_init__(self):
        lam = tuple(self.lam)
        if isinstance(self.lam, str) or not all(isinstance(w, numbers.Real) for w in lam):
            raise ValidationError(f"interpolation weights must be real numbers, not {self.lam!r}")
        object.__setattr__(self, "lam", tuple(map(float, lam)))
        if not self.lam:
            raise ValidationError("at least one weight is required")
        if not all(math.isfinite(w) and w >= 0 for w in self.lam):
            raise ValidationError("interpolation weights must be finite and nonnegative")
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
    num_orders = _integer(num_orders, "num_orders", 1)
    # Checked first, as "0.5" < 0, 1 / 0 and round(NaN) raise untyped errors.
    n = round(1.0 / step) if isinstance(step, numbers.Real) and 0 < step < math.inf else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ValidationError(f"step {step!r} does not divide 1")

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
    """Exhaustively maximize the objective over the simplex grid, calling it
    once per grid point.

    The higher score wins; ties go to the lexicographically largest weight
    vector.
    """
    def key(lam: tuple[float, ...]) -> tuple[float, tuple[float, ...]]:
        if math.isnan(score := objective(lam)):
            raise ValidationError(f"the objective is NaN at {lam}")
        return score, lam

    return InterpolationWeights(max(simplex_grid(num_orders, step), key=key))


def interpolation_loglik_objective(counts: NGramCountTable,
                                   heldout: Corpus) -> Callable[[tuple[float, ...]], float]:
    """Held-out log-likelihood of gold tag sequences under interpolation.

    Each token's longest stored context suffix is its full-length key's
    cell of the relative frequencies' ``index``, and the frequencies of that
    row's suffixes at the token's tag are gathered once, so each weight
    evaluation is one ``mix`` (``_mixer``) over one column per order.  The
    held-out corpus must hold tokens, or every weight would score 0.0, and
    share the tag set the counts were gathered over.
    """
    if heldout.num_tokens == 0:
        raise ValidationError("held-out corpus has no tokens")
    if heldout.tag_set != counts.tag_set:
        raise ValidationError(f"held-out corpus has tags {heldout.tag_set.tags}, "
                              f"the counts {counts.tag_set.tags}")
    *_, keys = context_keys(heldout, counts.order)
    rf = _relative_frequencies(counts)
    longest = rf.index.ravel()[keys]
    mix = _mixer([rf.probs[rows[longest], heldout.tag_ids]
                  for rows in _suffix_rows(rf.contexts, rf.order)], rf.depth[longest])

    def objective(lam: tuple[float, ...]) -> float:
        p = mix(lam)
        if np.any(p <= 0):
            return -math.inf
        return float(np.log(p).sum())

    return objective


@dataclass(frozen=True, eq=False)
class SmoothedNGramModel:
    """One conditional tag distribution per stored context, for every estimator.

    ``contexts`` come in file order, shortest first and then by tag indices,
    each of fewer than ``order`` tags in [-1, K), with their lengths in
    ``depth``; row i of ``probs`` is context i's distribution, and of
    ``freqs`` the relative frequencies an interpolated row was mixed from,
    each a (contexts, K) matrix of rows that ``_check_rows`` accepts.  The
    contexts are checked first, then the rows, each fault a
    ``ValidationError``.  A query keeps its last order-1 tags and resolves to
    their longest stored suffix (``index``), which is exactly what a
    zero-count smoothing step, or an interpolation over unseen orders, would
    return anyway.  Half-count tables store full-length contexts only and
    answer uniform when nothing matches.
    """

    order: int
    num_tags: int
    contexts: tuple[tuple[int, ...], ...]
    probs: np.ndarray
    freqs: np.ndarray | None = None
    depth: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "order", _integer(self.order, "model order", 1))
        object.__setattr__(self, "num_tags", _integer(self.num_tags, "num_tags", 1))
        contexts, k, depth = self.contexts, self.num_tags, _depths(self.contexts)
        step = np.diff(depth, prepend=0)
        unordered = (step < 0) | (step == 0) & np.array(  # as (length, tags) keys
            [False] + [a >= b for a, b in zip(contexts, contexts[1:])], dtype=bool)
        bad = unordered | (depth >= self.order)
        try:  # np.fromiter would read 0.5 as 0
            tags = np.fromiter(map(operator.index, chain.from_iterable(contexts)), np.int64)
        except TypeError:
            raise ValidationError("context tags must be integers") from None
        bad[np.repeat(np.arange(len(depth)), depth)[(tags < -1) | (tags >= k)]] = True
        if bad.any():
            i = int(np.argmax(bad))
            text = ",".join(map(str, contexts[i]))
            raise ValidationError(
                f"context {text!r} is longer than order {self.order} allows or holds a tag "
                f"index outside [-1, {k})" if not unordered[i] else
                f"duplicate context {text!r}" if contexts[i] == contexts[i - 1] else
                f"context {text!r} is out of order; rows are sorted by length, then by tag indices")
        for name, rows in (("probs", self.probs), ("freqs", self.freqs)):
            if rows is not None:
                if np.shape(rows) != (len(contexts), k):
                    raise ValidationError(f"{name} must be a ({len(contexts)}, {k}) matrix, one "
                                          f"row per context, not {np.shape(rows)}")
                _check_rows(rows)
        object.__setattr__(self, "depth", depth)
        for array in (depth, self.probs, self.freqs):
            if array is not None:
                array.flags.writeable = False

    @cached_property
    def index(self) -> np.ndarray:
        """Row of each query's longest stored suffix: one axis of size K+1
        per context tag, indexed by tag+1 so the boundary comes first.  A
        query with no stored suffix (only in a table without the root) gets
        ``len(contexts)``, the uniform row of ``log_probs``.  An index too
        large to build (``transition_index_shape``) or to allocate is a
        ``ValidationError``."""
        n = len(self.contexts)
        shape = transition_index_shape(self.order, self.num_tags)
        try:
            index = np.full(shape, 0 if n and not self.contexts[0] else n, dtype=np.intp)
        except MemoryError:
            raise ValidationError(
                f"an order-{self.order} model over {self.num_tags} tags needs a transition "
                f"index of {math.prod(shape):,} cells, more than can be allocated") from None
        for length in range(1, self.order):  # a longer context overwrites its suffixes
            rows = np.flatnonzero(self.depth == length)
            cells = np.array([self.contexts[i] for i in rows.tolist()], dtype=np.intp)
            index[(...,) + tuple(cells.reshape(len(rows), length).T + 1)] = rows
        return index

    @cached_property
    def log_probs(self) -> np.ndarray:
        """ln of ``probs`` (``log_probs``), then of the uniform row ``index``
        gives a query with no stored suffix.  Half-count and interpolated
        tables repeat many values, so each distinct value's ln is taken once."""
        k = self.num_tags
        table = np.vstack([self.probs, np.full(k, 1.0 / k)])
        values, inverse = np.unique(table, return_inverse=True)
        return log_probs(values)[inverse].reshape(table.shape)


def unigram_distribution(counts: NGramCountTable, root_mode: str) -> ConditionalDistribution:
    """Root of every back-off chain: the global tag distribution."""
    return root_estimate(counts.counts[0], root_mode)


def _depths(contexts: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Each context's length, as ``SmoothedNGramModel.depth`` holds it."""
    return np.fromiter(map(len, contexts), np.intp, len(contexts))


def _suffix_rows(contexts: Sequence[tuple[int, ...]], order: int) -> np.ndarray:
    """An (order, n) matrix: in row j, the row of each context's suffix of
    length j, or of the context itself where it is shorter.  Every suffix
    must be stored, the root's included, as in count tables; else a
    ``ValidationError`` names the first context that misses one (its parent)."""
    if not contexts or contexts[0]:
        raise ValidationError("the root context is missing")
    n, depth = len(contexts), _depths(contexts)
    row_of = dict(zip(contexts, range(n)))
    rows = np.tile(np.arange(n), (order, 1))
    rows[0] = 0
    for j in range(1, order - 1):  # the root and a context's own row need no lookup
        at = np.flatnonzero(depth > j).tolist()
        rows[j, at] = [row_of.get(contexts[i][-j:], n) for i in at]
    missing = np.flatnonzero((rows == n).any(axis=0))
    if missing.size:
        text = ",".join(map(str, contexts[missing[0]]))
        raise ValidationError(f"context {text!r} is stored, but its suffix "
                              f"{text.partition(',')[2]!r} is not")
    return rows


def build_sa_ngram_model(counts: NGramCountTable, root_mode: str) -> SmoothedNGramModel:
    """Smooth every observed context against its strip-the-oldest-tag chain.

    One context length at a time, shortest first, so each context's parent
    (its suffix, one tag shorter, which ``count_ngrams`` always stores) is
    already estimated: the level's parent rows are gathered and folded by
    ``_smooth_level``.
    """
    contexts, c = counts.contexts, counts.counts
    depth = _depths(contexts)
    suffixes = _suffix_rows(contexts, counts.order)
    root = unigram_distribution(counts, root_mode)
    probs, entropies = np.empty(c.shape), np.empty(len(contexts))
    probs[0], entropies[0] = root.probs, root.entropy_nats
    for length in range(1, counts.order):
        rows = np.flatnonzero(depth == length)
        parents = suffixes[length - 1, rows]
        probs[rows], entropies[rows] = _smooth_level(c[rows], probs[parents], entropies[parents])
    return SmoothedNGramModel(counts.order, counts.num_tags, contexts, probs)


def _mixer(orders: Sequence[np.ndarray], depth: np.ndarray) -> Callable[..., np.ndarray]:
    """``interpolate``'s arithmetic for each row at once, as ``mix(lam)``:
    ``orders[j]`` holds each row's suffix frequencies of length j, (n, K)
    or (n,), seen up to the row's ``depth``, as in a suffix-closed table.
    ``mix`` adds each order on the rows it reaches, found once, and divides
    by the seen orders' weight; where that is 0, order 0 wins outright."""
    reach = [(at, orders[j][at]) for j in range(1, len(orders))
             for at in [np.flatnonzero(depth >= j)]]
    depths = np.unique(depth)

    def mix(lam: Sequence[float]) -> np.ndarray:
        w = np.asarray(lam, dtype=np.float64)
        num = orders[0] * w[0]
        for j, (at, f) in enumerate(reach, 1):
            num[at] += f * w[j]
        total = np.cumsum(w)
        den = total[depth].reshape((-1,) + (1,) * (num.ndim - 1))
        if (total[depths] > 0).all():
            return np.divide(num, den, out=num)
        ok = den > 0
        return np.where(ok, np.divide(num, den, out=np.zeros_like(num), where=ok), orders[0])

    return mix


def interpolated_ngram_model(rf: SmoothedNGramModel,
                             weights: InterpolationWeights) -> SmoothedNGramModel:
    """Mix each stored context's suffix frequencies once, into one row each,
    from a suffix-closed table of relative frequencies (``_suffix_rows``),
    kept as the result's ``freqs``."""
    if len(weights) != rf.order:
        raise ValidationError(f"{len(weights)} weights for an order-{rf.order} model")
    mix = _mixer([rf.probs[rows] for rows in _suffix_rows(rf.contexts, rf.order)], rf.depth)
    return SmoothedNGramModel(rf.order, rf.num_tags, rf.contexts, mix(weights.lam), rf.probs)


def _relative_frequencies(counts: NGramCountTable) -> SmoothedNGramModel:
    """Each stored context's counts over their total, as a table."""
    return SmoothedNGramModel(counts.order, counts.num_tags, counts.contexts,
                              counts.counts / counts.counts.sum(axis=1)[:, None])


def build_interpolated_ngram_model(counts: NGramCountTable,
                                   weights: InterpolationWeights) -> SmoothedNGramModel:
    return interpolated_ngram_model(_relative_frequencies(counts), weights)


def build_ele_ngram_model(counts: NGramCountTable) -> SmoothedNGramModel:
    """Half-count estimation per full-length context, with no back-off rows:
    ``ele_estimate`` of every row at once."""
    first = int(np.searchsorted(_depths(counts.contexts), counts.order - 1))
    contexts, c = counts.contexts[first:], counts.counts[first:]
    probs = (c + 0.5) / (c.sum(axis=1) + 0.5 * counts.num_tags)[:, None]
    return SmoothedNGramModel(counts.order, counts.num_tags, contexts, probs)
