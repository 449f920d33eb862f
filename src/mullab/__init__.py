"""mullab: a from-scratch multi-label classification toolkit.

Problem transformations (binary relevance, label powerset, RAKEL, pruned
sets), a subsampling ensemble of multi-label models, five standard
evaluation measures, ARFF/Mulan dataset ingestion and a benchmark CLI.
"""

from .core import (
    Attribute,
    DatasetStats,
    MLDataset,
    Schema,
    UniverseMismatch,
    dataset_stats,
    label_cardinality,
    label_density,
)
from .arff import (
    ArffParseError,
    LabelSpec,
    RawTable,
    SplitSpec,
    bind_labels,
    load_arff,
    load_dataset,
    parse_arff,
    read_label_names,
    split_dataset,
)
from .learners import (
    Classifier,
    KnnSpec,
    NaiveBayesSpec,
    PRESET_NAMES,
    TreeSpec,
    fit,
    preset,
)
from .transforms import (
    BinaryRelevanceModel,
    LabelPowersetModel,
    MemberSpec,
    MultiLabelModel,
    PruneSpec,
    PrunedSetsModel,
    RakelModel,
    br_fit,
    fit_member,
    lp_fit,
    ps_fit,
    rakel_fit,
)
from .ensemble import (
    COMBINATION_RULES,
    EnsembleModel,
    EnsembleSpec,
    combine,
    default_ensemble_spec,
    ensemble_fit,
)
from .metrics import (
    EvaluationReport,
    accuracy,
    average_precision,
    evaluate,
    hamming_loss,
    one_error,
    rank_matrix,
    ranking_loss,
)
from .rng import Xoshiro256, derive_seed

__version__ = "0.1.0"
