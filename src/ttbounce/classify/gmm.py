"""Per-class diagonal-covariance Gaussian mixtures fit by EM.

One K-component mixture per class, k-means++ initialization, variance
floored every M-step. Prediction scores are class log-priors plus the
mixture log-likelihood, computed with log-sum-exp throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from .data import TaskDataset, TrainConfig, mfcc_inputs, stratified_split
from .family import ModelFamily

VAR_FLOOR = 1e-6
MAX_ITER = 200  # EM iterations per mixture at most
TOL = 1e-6  # stop once an iteration gains less log-likelihood than this
DEFAULT_COMPONENTS = 8


@dataclass
class GmmModel:
    priors: np.ndarray  # (n_classes,)
    weights: np.ndarray  # (n_classes, k)
    means: np.ndarray  # (n_classes, k, d)
    variances: np.ndarray  # (n_classes, k, d)
    classes: tuple[str, ...]
    task: str
    meta: dict = field(default_factory=dict)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _kmeanspp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = [x[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((x - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total <= 0:  # all points coincide with a center
            centers.append(x[rng.integers(n)])
            continue
        centers.append(x[rng.choice(n, p=d2 / total)])
    return np.asarray(centers)


def _component_logpdf(x: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Log density of samples under diagonal components, broadcast over leading axes.

    ``x`` (..., d) against ``means`` and ``variances`` (..., k, d) gives
    (..., k): (n, d) rows against one mixture's (k, d) parameters give
    (n, k), and (n, 1, d) rows against every class's (C, k, d) give (n, C, k).
    """
    diff2 = (x[..., None, :] - means) ** 2
    return -0.5 * np.sum(np.log(2.0 * np.pi * variances) + diff2 / variances, axis=-1)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def fit_mixture(
    x: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """EM on one diagonal mixture; returns (weights, means, variances, LL trace)."""
    n, d = x.shape
    means = _kmeanspp_centers(x, k, rng)
    variances = np.tile(np.maximum(x.var(axis=0), VAR_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)
    trace: list[float] = []
    for _ in range(MAX_ITER):
        joint = _component_logpdf(x, means, variances) + np.log(weights)[None]
        ll_rows = _logsumexp(joint, axis=1)
        trace.append(float(ll_rows.sum()))
        resp = np.exp(joint - ll_rows[:, None])
        nk = resp.sum(axis=0)
        live = nk > 1e-12  # starved components keep their previous parameters
        weights = nk / n
        nk_safe = np.where(live, nk, 1.0)
        new_means = (resp.T @ x) / nk_safe[:, None]
        new_vars = (resp.T @ (x**2)) / nk_safe[:, None] - new_means**2
        means = np.where(live[:, None], new_means, means)
        variances = np.where(live[:, None], np.maximum(new_vars, VAR_FLOOR), variances)
        if len(trace) >= 2 and trace[-1] - trace[-2] < TOL:
            break
    return weights, means, variances, trace


def gmm_train(
    features: np.ndarray,
    labels: np.ndarray,
    classes: tuple[str, ...],
    n_components: int = DEFAULT_COMPONENTS,
    seed: int = 0,
    task: str = "surface",
) -> tuple[GmmModel, dict]:
    """Fit one mixture per observed class; priors are empirical frequencies.

    The returned info dict maps class name to its log-likelihood trace so
    EM monotonicity can be checked directly.
    """
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if len(x) == 0:
        raise DataError("empty training set")
    n_classes = len(classes)
    d = x.shape[1]
    rng = np.random.default_rng(seed)
    priors = np.zeros(n_classes)
    weights = np.full((n_classes, n_components), 1.0 / n_components)
    means = np.zeros((n_classes, n_components, d))
    variances = np.ones((n_classes, n_components, d))
    traces: dict[str, list[float]] = {}
    observed = np.unique(labels)
    for c in observed:
        xc = x[labels == c]
        if xc.shape[0] < n_components:
            raise DataError(
                f"class {classes[c]!r} has {xc.shape[0]} samples, fewer than K={n_components}"
            )
        weights[c], means[c], variances[c], traces[classes[c]] = fit_mixture(xc, n_components, rng)
        priors[c] = xc.shape[0] / x.shape[0]
    model = GmmModel(
        priors=priors.astype(np.float32),
        weights=weights.astype(np.float32),
        means=means.astype(np.float32),
        variances=variances.astype(np.float32),
        classes=tuple(classes),
        task=task,
    )
    return model, {"log_likelihood": traces}


def predict_gmm(model: GmmModel, features: np.ndarray) -> np.ndarray:
    """Per-class log prior + mixture log-likelihood scores, (N, n_classes)."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    logpdf = _component_logpdf(
        x[:, None, :], model.means.astype(np.float64), model.variances.astype(np.float64)
    )
    log_weights = np.log(np.maximum(model.weights.astype(np.float64), 1e-300))
    log_priors = np.log(np.maximum(model.priors.astype(np.float64), 1e-300))
    return _logsumexp(logpdf + log_weights, axis=-1) + log_priors


def _train(ds: TaskDataset, config: TrainConfig, gmm_components: int, **_):
    train_idx, val_idx = stratified_split(ds.strata, ds.labels, config.seed)
    x = mfcc_inputs(ds.cells)
    model, info = gmm_train(
        x[train_idx],
        ds.labels[train_idx],
        ds.classes,
        n_components=gmm_components,
        seed=config.seed,
        task=config.task,
    )
    val_pred = predict_gmm(model, x[val_idx]).argmax(axis=1)
    traces = info["log_likelihood"].values()
    row = {
        "epoch": max(len(t) for t in traces),
        "train_loss": -sum(t[-1] for t in traces) / max(1, len(train_idx)),
        "val_loss": float("nan"),
        "val_acc": float(np.mean(val_pred == ds.labels[val_idx])),
    }
    return model, [row]


GMM_FAMILY = ModelFamily(
    kind="gmm",
    model_type=GmmModel,
    inputs=mfcc_inputs,
    input_shape=lambda model: (model.means.shape[2],),
    score=predict_gmm,
    arch=lambda model: {
        "n_components": int(model.weights.shape[1]),
        "n_features": int(model.means.shape[2]),
    },
    arch_schema={"n_components": int, "n_features": int},
    layout=lambda arch, n_classes: {
        "class_priors": ("priors", (n_classes,)),
        "mixture_weights": ("weights", (n_classes, arch["n_components"])),
        "means": ("means", (n_classes, arch["n_components"], arch["n_features"])),
        "variances": ("variances", (n_classes, arch["n_components"], arch["n_features"])),
    },
    empty=lambda arch, **header: GmmModel(None, None, None, None, **header),
    train=_train,
    # A prior or weight of 0 is legal: an unobserved class, a starved component.
    nonnegative=("priors", "weights"),
    positive=("variances",),
)
