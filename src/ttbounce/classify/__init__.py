"""Classifier training, prediction, and serialization.

Three interchangeable model families sit behind one predict interface:
the CNN (primary method, normalized mel input), a linear one-vs-rest SVM
(flattened mel input), and per-class diagonal Gaussian mixtures (MFCC
input).

Each family is one ``ModelFamily`` record beside its model code (kind
tag, input transform and shape, scorer, TTSB1 descriptor and tensor
layout, trainer). ``METHODS``, ``features_for_model``, ``predict``,
``train_task_model`` and ``save_model``/``load_model`` look families up
in the closed ``FAMILIES`` map.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError, ParameterError
from ..features import FeatureRecord
from .cnn import (
    CnnModel,
    cnn_loss_and_grad,
    cnn_train,
    new_cnn,
    predict_cnn,
)
from .data import (
    TaskDataset,
    TrainConfig,
    assemble_task,
    flat_inputs,
    mel_inputs,
    mfcc_inputs,
    stratified_split,
)
from .gmm import DEFAULT_COMPONENTS as GMM_DEFAULT_COMPONENTS
from .gmm import GmmModel, gmm_train, predict_gmm
from .model_io import FAMILIES, Model, family_of, load_model, save_model
from .svm import DEFAULT_EPOCHS as SVM_DEFAULT_EPOCHS
from .svm import SvmModel, predict_svm, svm_train

METHODS = tuple(FAMILIES)

__all__ = [
    "CnnModel",
    "FAMILIES",
    "GmmModel",
    "Model",
    "SvmModel",
    "TaskDataset",
    "TrainConfig",
    "METHODS",
    "assemble_task",
    "cnn_loss_and_grad",
    "cnn_train",
    "features_for_model",
    "flat_inputs",
    "gmm_train",
    "load_model",
    "mel_inputs",
    "mfcc_inputs",
    "new_cnn",
    "predict",
    "predict_cnn",
    "predict_gmm",
    "predict_svm",
    "save_model",
    "stratified_split",
    "svm_train",
    "train_task_model",
]


def features_for_model(model: Model, cells: np.ndarray) -> np.ndarray:
    """Convert raw log-mel cells, (N, 64, 7) or one (64, 7) window, to the model's
    input representation."""
    return family_of(model).inputs(np.asarray(cells, dtype=np.float64))


def predict(model: Model, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class ids and the score matrix for prepared features.

    Features must already match the model's representation: 64x7
    normalized mel for the CNN, flat 448 for the SVM, 20 MFCCs for the
    GMM (batched or single). A non-finite score raises NumericError.
    Each row's scores have the bits of ``predict(m, X[i])``, whatever the batch.
    """
    family = family_of(model)
    shape = family.input_shape(model)
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == len(shape):
        x = x[None]
    if x.shape[1:] != shape:
        dims = ", ".join(map(str, shape))
        raise ParameterError(f"{family.kind.upper()} expects (N, {dims}), got {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects the result
        scores = family.score(model, x)
    if not np.isfinite(scores).all():
        raise NumericError(f"{family.kind.upper()} model gave non-finite scores")
    return scores.argmax(axis=1), scores


def train_task_model(
    records: list[FeatureRecord],
    method: str,
    config: TrainConfig,
    svm_epochs: int = SVM_DEFAULT_EPOCHS,
    gmm_components: int = GMM_DEFAULT_COMPONENTS,
) -> tuple[Model, list[dict]]:
    """Assemble a task dataset from feature records and train one model.

    All methods share the same seeded stratified 80/20 split so their
    held-out metrics are comparable.
    """
    if method not in FAMILIES:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    config.validate()
    ds = assemble_task(records, config.task)
    return FAMILIES[method].train(ds, config, svm_epochs=svm_epochs, gmm_components=gmm_components)
