"""The record of one classifier family; ``model_io.FAMILIES`` maps kind to record."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import FormatError
from .data import TrainConfig

# (TTSB1 tensor name) -> (dotted attribute path on the model, shape)
Layout = dict[str, tuple[str, tuple[int, ...]]]


@dataclass(frozen=True)
class ModelFamily:
    kind: str  # --method choice and TTSB1 header tag
    model_type: type
    inputs: Callable[[np.ndarray], np.ndarray]  # raw (N, 64, 7) log-mel cells -> model input
    input_shape: Callable[[Any], tuple[int, ...]]  # per-window input shape the model accepts
    score: Callable[[Any, np.ndarray], np.ndarray]  # checked batch -> (N, n_classes) scores
    arch: Callable[[Any], dict]  # model -> TTSB1 architecture descriptor
    # Descriptor keys: ``int`` is a positive integer, ``[int]`` a list of
    # them, ``(int, int)`` a list of exactly that many.
    arch_schema: dict[str, Any]
    layout: Callable[[dict, int], Layout]  # (descriptor, n_classes) -> tensor layout
    empty: Callable[..., Any]  # (descriptor, classes=, task=, meta=) -> model awaiting tensors
    train: Callable[..., tuple[Any, list[dict]]]  # (TaskDataset, TrainConfig, **opts) -> model, log
    default_epochs: int = TrainConfig.epochs
    # Tensor attributes whose entries must be >= 0, or > 0; every tensor must be finite.
    nonnegative: tuple[str, ...] = ()
    positive: tuple[str, ...] = ()


def tensor_slot(model: Any, path: str) -> tuple[Any, str]:
    """The object and attribute name that hold the tensor at a dotted ``path``."""
    *steps, attr = path.split(".")
    for step in steps:
        model = model[int(step)] if step.isdigit() else getattr(model, step)
    return model, attr


def check_arch(arch: Any, schema: dict[str, Any], where: str) -> None:
    """Raise FormatError unless ``arch`` is an object whose keys match ``schema``."""
    if not isinstance(arch, dict):
        raise FormatError(f"{where}: arch must be an object, got {type(arch).__name__}")

    def positive_int(v: Any) -> bool:
        return type(v) is int and v >= 1

    for key, spec in schema.items():
        v = arch.get(key)
        if spec is int:
            ok = positive_int(v)
        else:
            ok = isinstance(v, list) and all(map(positive_int, v))
            ok = ok and (isinstance(spec, list) or len(v) == len(spec))
        if not ok:
            raise FormatError(f"{where}: bad or missing arch.{key}: {v!r}")
