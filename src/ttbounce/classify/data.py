"""Task assembly and the stratified train/validation split."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio_io import SPIN_NAMES, SURFACE_NAMES, SurfaceClass
from ..errors import DataError, ParameterError
from ..features import FeatureRecord, mfcc_from_cells, normalize_cells

TASKS = ("surface", "spin")
VAL_FRACTION = 0.2  # of each stratum, rounded, held out for validation


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    patience: int = 10
    task: str = "surface"

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ParameterError(f"task must be one of {TASKS}, got {self.task!r}")
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be > 0")


@dataclass(frozen=True)
class TaskDataset:
    """Feature cells with labels for one task, plus the stratification key."""

    cells: np.ndarray  # (N, 64, 7) pre-normalization log-mel
    labels: np.ndarray  # (N,) int ids within `classes`
    strata: np.ndarray  # (N, 2) (surface, spin) pairs
    classes: tuple[str, ...]
    task: str

    def __len__(self) -> int:
        return len(self.labels)


def assemble_task(records: list[FeatureRecord], task: str) -> TaskDataset:
    """Select and label records for a task.

    The surface task uses every record; the spin task uses only
    spin-labeled racket records.
    """
    if task == "surface":
        keep = records
        labels = [r.surface for r in keep]
        classes = SURFACE_NAMES
    elif task == "spin":
        keep = [
            r
            for r in records
            if r.spin >= 0 and 0 <= r.surface <= SurfaceClass.racket_10.value
        ]
        if not keep:
            raise ParameterError("features file contains no spin-labeled racket records")
        labels = [r.spin for r in keep]
        classes = SPIN_NAMES
    else:
        raise ParameterError(f"unknown task {task!r}")
    if not keep:
        raise DataError("no records for task")
    for i, lab in enumerate(labels):
        if not 0 <= lab < len(classes):
            raise DataError(f"record {i}: label id {lab} out of range for task {task}")
    return TaskDataset(
        cells=np.stack([r.cells.astype(np.float64) for r in keep]),
        labels=np.asarray(labels, dtype=np.int64),
        strata=np.asarray([(r.surface, r.spin) for r in keep], dtype=np.int64),
        classes=classes,
        task=task,
    )


# The model input representations of raw log-mel cells, one window (64, 7) or
# a batch (N, 64, 7): z-scored matrices for the CNN, the same flattened for the
# SVM, and frame-averaged MFCC vectors for the GMM.
mel_inputs = normalize_cells
mfcc_inputs = mfcc_from_cells


def flat_inputs(cells: np.ndarray) -> np.ndarray:
    """Flattened normalized cells, the SVM input representation."""
    return normalize_cells(cells).reshape(*cells.shape[:-2], cells.shape[-2] * cells.shape[-1])


def stratified_split(
    strata: np.ndarray, labels: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified split by (surface, spin) pair.

    Every stratum keeps at least one training sample. Raises DataError if
    the validation side is empty, or if any class observed in the data ends
    up absent from the training side.
    """
    rng = np.random.default_rng(seed)
    strata = np.asarray(strata)
    keys = sorted({tuple(row) for row in strata})
    train_idx: list[int] = []
    val_idx: list[int] = []
    for key in keys:
        members = np.flatnonzero((strata == key).all(axis=1))
        members = members[rng.permutation(members.size)]
        n_val = int(round(VAL_FRACTION * members.size))
        n_val = min(n_val, members.size - 1)  # never empty the training side
        val_idx.extend(members[:n_val].tolist())
        train_idx.extend(members[n_val:].tolist())
    train = np.asarray(sorted(train_idx), dtype=np.int64)
    val = np.asarray(sorted(val_idx), dtype=np.int64)
    # Split hygiene: disjoint and jointly exhaustive.
    assert not set(train) & set(val)
    assert len(train) + len(val) == len(strata)
    if val.size == 0:
        raise DataError("validation split is empty; dataset too small")
    observed = set(np.unique(labels).tolist())
    missing = observed - set(np.unique(labels[train]).tolist())
    if missing:
        raise DataError(
            f"stratification left classes {sorted(missing)} out of the training split"
        )
    return train, val
