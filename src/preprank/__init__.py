"""Meta-learned ranking of data pre-processing operators for classification."""

from .dataset import (
    Attribute,
    Dataset,
    parse_arff,
    parse_csv,
    serialize_arff,
    stratified_folds,
)
from .metafeatures import (
    FEATURE_IDS,
    MODIFIABLE_IDS,
    compute_meta_features,
    delta,
)
from .transforms import TransformationSpec, apply, enumerate_applicable
from .classifiers import ClassifierKind, cross_validate, fit_predict, parse_classifier
from .metadb import MetaDatabase, MetaInstance, build_metadb, label_response
from .forest import ForestModel, loov_evaluate, predict_proba, train_forest
from .ranker import DEFAULT_RULES, ExpertRule, Recommendation, prune, rank_transformations

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "ClassifierKind",
    "Dataset",
    "DEFAULT_RULES",
    "ExpertRule",
    "FEATURE_IDS",
    "ForestModel",
    "MetaDatabase",
    "MetaInstance",
    "MODIFIABLE_IDS",
    "Recommendation",
    "TransformationSpec",
    "apply",
    "build_metadb",
    "compute_meta_features",
    "cross_validate",
    "delta",
    "enumerate_applicable",
    "fit_predict",
    "label_response",
    "loov_evaluate",
    "parse_arff",
    "parse_classifier",
    "parse_csv",
    "predict_proba",
    "prune",
    "rank_transformations",
    "serialize_arff",
    "stratified_folds",
    "train_forest",
]
