"""Semantic NMF topic modeling with automatic rank selection.

The pipeline builds a TF-IDF term-document matrix and an SPPMI word-context
matrix from a token corpus, factorizes each with stability-based rank
selection, merges the two topic bases through a second factorization, and
regresses documents onto the merged topics.
"""

from .errors import (
    DataError,
    DegenerateBasis,
    DegenerateMatrix,
    DimensionMismatch,
    EmptyColumn,
    EmptyCorpus,
    EmptyVocabulary,
    InvalidRank,
    NonNegativityViolation,
    NumericalError,
    PipelineStageError,
    SenmfkError,
    ShapeMismatch,
)
from .matrix_builder import SemanticConfig, build_cooccurrence, build_tfidf, sppmi
from .model_selection import (
    SelectionConfig,
    SelectionReport,
    cluster_columns,
    nmfk,
    silhouette,
)
from .nmf_core import (
    FactorPair,
    NmfConfig,
    nmf,
    perturb,
    relative_error,
    solve_h,
)
from .split_pipeline import (
    SplitConfig,
    TopicModel,
    assign_documents,
    concat_normalized,
    factorize_m,
    factorize_x,
    final_regression,
    joint_factorize,
    run_split,
    top_words,
)
from .text_pipeline import (
    Corpus,
    Document,
    PipelineConfig,
    Vocabulary,
    build_vocabulary,
    filter_documents,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SenmfkError",
    "DataError",
    "NumericalError",
    "EmptyCorpus",
    "EmptyVocabulary",
    "EmptyColumn",
    "DimensionMismatch",
    "ShapeMismatch",
    "InvalidRank",
    "NonNegativityViolation",
    "DegenerateMatrix",
    "DegenerateBasis",
    "PipelineStageError",
    # text pipeline
    "Document",
    "Corpus",
    "Vocabulary",
    "PipelineConfig",
    "tokenize",
    "filter_documents",
    "build_vocabulary",
    # matrices
    "SemanticConfig",
    "build_tfidf",
    "build_cooccurrence",
    "sppmi",
    # nmf core
    "NmfConfig",
    "FactorPair",
    "nmf",
    "solve_h",
    "relative_error",
    "perturb",
    # model selection
    "SelectionConfig",
    "SelectionReport",
    "cluster_columns",
    "silhouette",
    "nmfk",
    # split pipeline
    "SplitConfig",
    "TopicModel",
    "factorize_x",
    "factorize_m",
    "concat_normalized",
    "joint_factorize",
    "final_regression",
    "assign_documents",
    "top_words",
    "run_split",
]
