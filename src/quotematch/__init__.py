"""quotematch: near-duplicate canonical-quote detection and sharer/debunker
behavior modeling for Arabic social media corpora."""

from .behavior import (
    BehaviorLabel,
    LabelThresholds,
    Post,
    UserStats,
    build_labeled_dataset,
    interaction_summary,
    label_user,
    scan_timeline,
)
from .corpus import (
    AuthenticityLevel,
    ReferenceCorpus,
    ReferenceQuote,
    filter_corpus,
    load_corpus,
    merge_corpora,
)
from .features import (
    FeatureSpace,
    FeatureVector,
    TieKind,
    TieTable,
    build_feature_space,
    encode_users,
    tie_table,
)
from .matcher import (
    CompiledIndex,
    MatchKind,
    MatchResult,
    MinHashParams,
    MinHashSignature,
    build_index,
    contains_refute_term,
    estimate_jaccard,
    exact_jaccard,
    match_post,
    minhash_signature,
    query_candidates,
)
from .model import (
    CoefficientReport,
    LogitHyperparams,
    LogitModel,
    Metrics,
    WelchResult,
    categorize_report,
    cross_validate,
    distinct_columns,
    evaluate,
    top_coefficients,
    train_and_validate,
    train_logit,
    welch_t_test,
)
from .synth import SyntheticSpec, generate
from .textnorm import (
    NormalizedText,
    PhraseLexicon,
    normalize_arabic,
    shingle,
    strip_quote_prefix,
)

__version__ = "0.1.0"
