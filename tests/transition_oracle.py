"""The per-context transition tables that ``SmoothedNGramModel``'s matrices
replaced, kept verbatim as the reference they must equal.

Each builder returns the old ``tables`` map, context -> validated
``ConditionalDistribution``, filled one context at a time through the
public smoothing functions; ``distribution`` is the old back-off query.
They read a count table as the old context -> counts map, ``rows_of``.
"""

import numpy as np

from succabs.smoothing import (
    ConditionalDistribution,
    _row_entropies,
    ele_estimate,
    interpolate,
    smooth_step,
    uniform_distribution,
    unigram_distribution,
)


def rows_of(counts):
    """A count table as a context -> outcome counts map."""
    return dict(zip(counts.contexts, counts.counts))


def sa_tables(counts, root_mode):
    """The old ``build_sa_ngram_model``: a ``smooth_step`` per context."""
    rows = rows_of(counts)
    tables = {(): unigram_distribution(counts, root_mode)}
    for length in range(1, counts.order):
        for ctx in sorted(ctx for ctx in rows if len(ctx) == length):
            tables[ctx] = smooth_step(rows[ctx], tables[ctx[1:]])
    return tables


def interpolated_tables(order, num_tags, freqs, weights):
    """The old ``interpolated_ngram_model``: an ``interpolate`` per context,
    where a suffix missing from ``freqs`` counts as an unseen order."""
    zeros = np.zeros(num_tags)
    tables = {}
    for ctx in freqs:
        per_order = [freqs.get(ctx[len(ctx) - j:], zeros) if j <= len(ctx) else zeros
                     for j in range(order)]
        tables[ctx] = interpolate(per_order, weights)
    return tables


def count_freqs(counts):
    """The old ``build_interpolated_ngram_model``'s frequency map."""
    return {ctx: vec / int(vec.sum()) for ctx, vec in rows_of(counts).items()}


def ele_tables(counts):
    """The old ``build_ele_ngram_model``."""
    return {ctx: ele_estimate(vec)
            for ctx, vec in rows_of(counts).items() if len(ctx) == counts.order - 1}


def distribution(tables, order, num_tags, context):
    """The old ``SmoothedNGramModel.distribution``: the longest stored
    suffix of the context's last order-1 tags, else uniform."""
    ctx = tuple(context)
    ctx = ctx[max(0, len(ctx) - (order - 1)):]
    while ctx not in tables:
        if not ctx:
            return uniform_distribution(num_tags)
        ctx = ctx[1:]
    return tables[ctx]


def tables_of(model):
    """An array model's rows as a ``tables`` map, with its entropies."""
    return {ctx: ConditionalDistribution(row, float(h))
            for ctx, row, h in zip(model.contexts, model.probs, _row_entropies(model.probs))}


def query(model, context):
    """``distribution`` over an array model's rows."""
    return distribution(tables_of(model), model.order, model.num_tags, context)
