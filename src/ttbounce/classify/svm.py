"""Linear one-vs-rest SVM trained by primal subgradient descent.

Classic per-example updates with the 1/(lambda*t) step schedule on the
L2-regularized hinge loss. The bias term is left unregularized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from .data import TaskDataset, TrainConfig, flat_inputs, stratified_split
from .family import ModelFamily

DEFAULT_EPOCHS = 50


@dataclass
class SvmModel:
    weights: np.ndarray  # (n_classes, n_features)
    bias: np.ndarray  # (n_classes,)
    classes: tuple[str, ...]
    task: str
    meta: dict = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def hinge_objective(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, lam: float
) -> float:
    margins = y * (x @ w + b)
    return float(0.5 * lam * np.dot(w, w) + np.mean(np.maximum(0.0, 1.0 - margins)))


def svm_objective(model_w: np.ndarray, model_b: np.ndarray, x, labels, lam: float) -> float:
    """Mean one-vs-rest objective across classes."""
    total = 0.0
    for k in range(model_w.shape[0]):
        y = np.where(labels == k, 1.0, -1.0)
        total += hinge_objective(model_w[k], float(model_b[k]), x, y, lam)
    return total / model_w.shape[0]


def svm_train(
    features: np.ndarray,
    labels: np.ndarray,
    classes: tuple[str, ...],
    lam: float = 1e-4,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    val: tuple[np.ndarray, np.ndarray] | None = None,
    task: str = "surface",
) -> tuple[SvmModel, list[dict]]:
    """One-vs-rest training with seeded shuffling.

    When a validation set is supplied the per-epoch log carries its
    objective and accuracy alongside the training objective.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise DataError("SVM training needs at least 2 classes present")
    if val is not None and len(val[1]) == 0:
        raise DataError("empty validation set")
    n, d = x.shape
    k_classes = len(classes)
    rng = np.random.default_rng(seed)
    w = np.zeros((k_classes, d))
    b = np.zeros(k_classes)
    t = np.zeros(k_classes, dtype=np.int64)
    y_bin = np.stack([np.where(labels == k, 1.0, -1.0) for k in range(k_classes)])
    log: list[dict] = []
    for epoch in range(1, epochs + 1):
        for k in range(k_classes):
            # No norm projection: with the unregularized bias term the
            # projected iterates stall long before the 1/(lam*t) schedule
            # can rebalance w against b.
            for i in rng.permutation(n):
                t[k] += 1
                eta = 1.0 / (lam * t[k])
                if y_bin[k, i] * (w[k] @ x[i] + b[k]) < 1.0:
                    w[k] *= 1.0 - eta * lam
                    w[k] += eta * y_bin[k, i] * x[i]
                    b[k] += eta * y_bin[k, i]
                else:
                    w[k] *= 1.0 - eta * lam
        row = {"epoch": epoch, "train_loss": svm_objective(w, b, x, labels, lam)}
        if val is not None:
            xv, yv = val
            row["val_loss"] = svm_objective(w, b, xv, yv, lam)
            row["val_acc"] = float(np.mean((xv @ w.T + b).argmax(axis=1) == yv))
        log.append(row)
    model = SvmModel(
        weights=w.astype(np.float32),
        bias=b.astype(np.float32),
        classes=tuple(classes),
        task=task,
    )
    return model, log


def predict_svm(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """One-vs-rest decision scores (N, n_classes); each row is its own (1, D) product."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return (x[:, None, :] @ model.weights.astype(np.float64).T)[:, 0] + model.bias.astype(np.float64)


def _train(ds: TaskDataset, config: TrainConfig, svm_epochs: int, **_):
    train_idx, val_idx = stratified_split(ds.strata, ds.labels, config.seed)
    x = flat_inputs(ds.cells)
    return svm_train(
        x[train_idx],
        ds.labels[train_idx],
        ds.classes,
        epochs=svm_epochs,
        seed=config.seed,
        val=(x[val_idx], ds.labels[val_idx]),
        task=config.task,
    )


SVM_FAMILY = ModelFamily(
    kind="svm",
    model_type=SvmModel,
    inputs=flat_inputs,
    input_shape=lambda model: (model.weights.shape[1],),
    score=predict_svm,
    arch=lambda model: {"n_features": int(model.weights.shape[1])},
    arch_schema={"n_features": int},
    layout=lambda arch, n_classes: {
        "weights": ("weights", (n_classes, arch["n_features"])),
        "bias": ("bias", (n_classes,)),
    },
    empty=lambda arch, **header: SvmModel(weights=None, bias=None, **header),
    train=_train,
    default_epochs=DEFAULT_EPOCHS,
)
