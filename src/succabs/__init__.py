"""Entropy-weighted back-off smoothing for sparse conditional
distributions, packaged as a trigram part-of-speech tagger with
suffix-based handling of unknown words."""

from .corpus import (
    Corpus,
    GeneratorSpec,
    SynthesisConfig,
    TaggedToken,
    TagSet,
    parse_corpus,
    split_corpus,
    synthesize_corpus,
    write_corpus,
)
from .counts import (
    BOUNDARY,
    BOW_LETTER,
    Lexicon,
    NGramCountTable,
    RareWordPolicy,
    SuffixTrie,
    build_lexicon,
    build_suffix_trie,
    context_count,
    count_ngrams,
    reversed_suffix_path,
)
from .errors import CorpusParseError, ModelFormatError, SuccabsError, ValidationError
from .evaluation import (
    Comparison,
    EvalReport,
    SignificanceQuery,
    Z_5_PERCENT,
    Z_10_PERCENT,
    compare,
    evaluate,
    render_comparison,
    render_report_kv,
    render_report_table,
    significance_threshold,
)
from .lexicon import (
    LexicalDistribution,
    UnknownWordModel,
    build_unknown_word_model,
    known_word_distribution,
    lexical_factor,
    unknown_word_distribution,
)
from .model_io import model_from_text, model_to_text, read_model, write_model
from .smoothing import (
    ConditionalDistribution,
    GeneralizationNode,
    InterpolationWeights,
    SmoothedNGramModel,
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
from .tagger import (
    Model,
    ModelMetadata,
    TagSequenceScore,
    score_sequence,
    tag_corpus,
    tagging_accuracy_objective,
    train_model,
    viterbi_tag,
    viterbi_tag_scored,
)

__version__ = "0.1.0"
