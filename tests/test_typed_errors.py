"""Each public call rejects a bad argument with a ``SuccabsError`` subclass:
not a raw ``TypeError`` or ``RecursionError``, a NaN passed on, or a str
read letter by letter."""

import math

import numpy as np
import pytest

from succabs.corpus import parse_corpus
from succabs.errors import SuccabsError
from succabs.evaluation import evaluate
from succabs.lexicon import unknown_word_distribution
from succabs.smoothing import (
    InterpolationWeights,
    SmoothedNGramModel,
    entropy,
    grid_search_lambdas,
    sigma_inverse,
    simplex_grid,
    uniform_distribution,
)
from succabs.tagger import tag_corpus, train_model, viterbi_tag

CORPUS = parse_corpus("the\tAT\ncat\tNN\n\nthe\tAT\nmat\tNN\n\n")

# Each case: the call, given the model trained on CORPUS, and its message.
CASES = {
    "entropy of a NaN entry": (lambda m: entropy([math.nan, 1.0]), "negative or NaN entry"),
    "sigma_inverse of a NaN entropy": (lambda m: sigma_inverse(3, math.nan),
                                       "^entropy must be finite and nonnegative$"),
    "sigma_inverse of an infinite count": (lambda m: sigma_inverse(math.inf, 0.1),
                                           "^context count must be finite and nonnegative$"),
    "grid search of a NaN objective": (lambda m: grid_search_lambdas(lambda lam: math.nan, 3, 0.5),
                                       "^the objective is NaN at "),
    "simplex grid of 1.5 orders": (lambda m: list(simplex_grid(1.5, 0.5)),
                                   "^num_orders must be an integer, not 1.5$"),
    "grid search over 1.5 orders": (lambda m: grid_search_lambdas(lambda lam: 0.0, 1.5, 0.5),
                                    "^num_orders must be an integer, not 1.5$"),
    "simplex grid of a str step": (lambda m: list(simplex_grid(2, "0.5")),
                                   "^step '0.5' does not divide 1$"),
    "uniform over no tags": (lambda m: uniform_distribution(0), "^dim must be at least 1, not 0$"),
    "uniform over -1 tags": (lambda m: uniform_distribution(-1), "^dim must be at least 1, not -1$"),
    "table of order 0": (lambda m: SmoothedNGramModel(0, 2, (), np.zeros((0, 2))),
                         "^model order must be at least 1, not 0$"),
    "table of order -1": (lambda m: SmoothedNGramModel(-1, 2, (), np.zeros((0, 2))),
                          "^model order must be at least 1, not -1$"),
    "table of 2.0 tags": (lambda m: SmoothedNGramModel(2, 2.0, ((),), np.full((1, 2), 0.5)).index,
                          "^num_tags must be an integer, not 2.0$"),
    "table of a context tag 0.5": (
        lambda m: SmoothedNGramModel(2, 2, ((), (0.5,)), np.full((2, 2), 0.5)),
        "^context tags must be integers$"),
    "declared tags as a str": (lambda m: parse_corpus("a\tX\n", declared_tags="XY"),
                               "not the str 'XY'"),
    "one lambda as a str": (
        lambda m: train_model(CORPUS, order=1, smoothing="interp", lambdas="1"),
        "^interpolation weights must be real numbers, not '1'$"),
    "three lambdas as a str": (
        lambda m: train_model(CORPUS, order=3, smoothing="interp", lambdas="0.5,0.5,0"),
        "^interpolation weights must be real numbers, not '0.5,0.5,0'$"),
    "weights as a str": (lambda m: InterpolationWeights("1"), "real numbers, not '1'$"),
    "a weight as a str": (lambda m: InterpolationWeights([0.5, "0.5"]),
                          r"real numbers, not \[0.5, '0.5'\]$"),
    "a bytes word": (lambda m: tag_corpus(m, [[b"a"]]), "^expected words as str, not b'a'$"),
    "an int word": (lambda m: tag_corpus(m, [["the", 1]]), "^expected words as str, not 1$"),
    "a None word": (lambda m: tag_corpus(m, [[None]]), "^expected words as str, not None$"),
    "a list word": (lambda m: viterbi_tag(m, [["a"]]), "each a str$"),
    "a bytes word of the suffix model": (
        lambda m: unknown_word_distribution(m.unknown_word_model, [b"ab"]),
        "^expected words as str, not b'ab'$"),
    "no known words": (lambda m: evaluate(CORPUS, [["AT", "NN"], ["AT", "NN"]], None),
                       "^expected known words, not NoneType$"),
}


@pytest.fixture(scope="module")
def model():
    return train_model(CORPUS, order=2)


@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_bad_argument_raises_a_typed_error(model, call, message):
    with pytest.raises(SuccabsError, match=message):
        call(model)
