"""TTSB1 model container: JSON header plus named float32 tensors.

Layout: magic ``TTSB1``, uint32 header length, UTF-8 JSON header (kind,
task, class table, architecture descriptor, meta), uint32 tensor count,
then per tensor: uint16 name length, name, uint8 ndim, uint32 dims,
float32 LE data. All integers little-endian. Loading a saved model
reproduces its predictions bit-for-bit because models hold float32
parameters once trained.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import FormatError, ParameterError
from .cnn import CNN_FAMILY
from .data import TASKS
from .family import ModelFamily, check_arch, tensor_slot
from .gmm import GMM_FAMILY
from .svm import SVM_FAMILY

MODEL_MAGIC = b"TTSB1"

FAMILIES: dict[str, ModelFamily] = {f.kind: f for f in (CNN_FAMILY, SVM_FAMILY, GMM_FAMILY)}
_BY_TYPE = {f.model_type: f for f in FAMILIES.values()}

Model = Union[tuple(f.model_type for f in FAMILIES.values())]


def family_of(model: Model) -> ModelFamily:
    family = _BY_TYPE.get(type(model))
    if family is None:
        raise ParameterError(f"unknown model type {type(model).__name__}")
    return family


def save_model(model: Model, path: str | Path) -> None:
    family = family_of(model)
    arch = family.arch(model)
    header = {
        "kind": family.kind,
        "task": model.task,
        "classes": list(model.classes),
        "arch": arch,
        "meta": model.meta,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    layout = family.layout(arch, len(model.classes))
    parts = [MODEL_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    parts.append(struct.pack("<I", len(layout)))
    for name, (attr, _) in layout.items():
        arr = np.asarray(getattr(*tensor_slot(model, attr)), dtype="<f4")
        name_b = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_b)) + name_b)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes(order="C"))
    Path(path).write_bytes(b"".join(parts))


def _read_exact(raw: bytes, pos: int, n: int, path: Path) -> tuple[bytes, int]:
    if pos + n > len(raw):
        raise FormatError(f"{path}: truncated at byte {pos}")
    return raw[pos : pos + n], pos + n


def load_model(path: str | Path) -> Model:
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic, not a TTSB1 model file")
    pos = len(MODEL_MAGIC)
    chunk, pos = _read_exact(raw, pos, 4, path)
    (header_len,) = struct.unpack("<I", chunk)
    chunk, pos = _read_exact(raw, pos, header_len, path)
    try:
        header = json.loads(chunk.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise FormatError(f"{path}: unreadable header: {exc}") from None
    family = _check_header(header, path)
    chunk, pos = _read_exact(raw, pos, 4, path)
    (n_tensors,) = struct.unpack("<I", chunk)
    tensors: dict[str, tuple[tuple[int, ...], np.ndarray]] = {}
    for _ in range(n_tensors):
        chunk, pos = _read_exact(raw, pos, 2, path)
        (name_len,) = struct.unpack("<H", chunk)
        chunk, pos = _read_exact(raw, pos, name_len, path)
        name = chunk.decode("utf-8", errors="replace")  # a garbled name reads as missing
        chunk, pos = _read_exact(raw, pos, 1, path)
        ndim = chunk[0]
        chunk, pos = _read_exact(raw, pos, 4 * ndim, path)
        shape = struct.unpack(f"<{ndim}I", chunk)
        count = math.prod(shape)  # Python ints: a product of uint32 dims cannot wrap
        chunk, pos = _read_exact(raw, pos, 4 * count, path)
        tensors[name] = shape, np.frombuffer(chunk, dtype="<f4")  # reshaped once checked
    return _build_model(family, header, tensors, path)


def _check_header(header: object, path: Path) -> ModelFamily:
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be a JSON object")
    for key in ("kind", "task", "classes", "arch"):
        if key not in header:
            raise FormatError(f"{path}: header missing field {key!r}")
    family = FAMILIES.get(header["kind"]) if isinstance(header["kind"], str) else None
    if family is None:
        raise FormatError(f"{path}: unknown model kind {header['kind']!r}")
    if header["task"] not in TASKS:
        raise FormatError(f"{path}: unknown task {header['task']!r}")
    classes = header["classes"]
    if not (isinstance(classes, list) and classes and all(isinstance(c, str) for c in classes)):
        raise FormatError(f"{path}: classes must be a nonempty list of names, got {classes!r}")
    if not isinstance(header.get("meta", {}), dict):
        raise FormatError(f"{path}: meta must be an object")
    check_arch(header["arch"], family.arch_schema, str(path))
    return family


def _build_model(family: ModelFamily, header: dict, tensors: dict, path: Path) -> Model:
    arch = header["arch"]
    classes = tuple(header["classes"])
    meta = header.get("meta", {})
    try:
        model = family.empty(arch, classes=classes, task=header["task"], meta=meta)
    except FormatError as exc:  # a descriptor the family cannot build
        raise FormatError(f"{path}: {exc}") from None
    for name, (attr, shape) in family.layout(arch, len(classes)).items():
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name!r}")
        stored, flat = tensors[name]
        if stored != shape:
            raise FormatError(
                f"{path}: tensor {name!r} has shape {stored}, descriptor implies {shape}"
            )
        arr = flat.reshape(shape)
        leaf = attr.rpartition(".")[2]
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name!r} has non-finite entries")
        if leaf in family.nonnegative and (arr < 0).any():
            raise FormatError(f"{path}: tensor {name!r} has negative entries")
        if leaf in family.positive and (arr <= 0).any():
            raise FormatError(f"{path}: tensor {name!r} has entries <= 0")
        setattr(*tensor_slot(model, attr), arr)
    return model
