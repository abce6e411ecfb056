"""Truncated and mutated TTSB1 and TTFE1 files fail only with BounceError."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ttbounce.classify import load_model, new_cnn, predict, save_model
from ttbounce.classify.cnn import finalize_float32
from ttbounce.errors import BounceError, FormatError, NumericError, ParameterError
from ttbounce.features import read_feature_file, write_feature_file
from ttbounce.synth import two_band_records

INPUT_SHAPE = (8, 6)
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    model = new_cnn(("a", "b", "c"), "spin", seed=3, channels=(2, 3), pools=(2,), input_shape=INPUT_SHAPE)
    path = tmp_path_factory.mktemp("fuzz") / "m.ttsb"
    save_model(finalize_float32(model), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def feature_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "f.ttfe"
    write_feature_file(path, two_band_records(2, seed=4)[:3])
    return path.read_bytes()


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """Cut at a drawn length, then overwrite up to 8 drawn positions."""
    data = bytearray(raw[: draw(st.integers(0, len(raw)))])
    for _ in range(draw(st.integers(0 if len(data) < len(raw) else 1, 8))):
        if not data:
            break
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@FUZZ
@given(data=st.data())
def test_damaged_model_fails_cleanly_or_scores_finite(model_bytes, tmp_path, data):
    path = tmp_path / "damaged.ttsb"
    path.write_bytes(data.draw(damaged(model_bytes)))
    try:
        model = load_model(path)
    except BounceError:
        return
    x = np.random.default_rng(0).standard_normal((3, *INPUT_SHAPE))
    try:
        with np.errstate(all="ignore"):
            _, scores = predict(model, x)
    except NumericError:  # finite tensors can still overflow to non-finite scores
        return
    except ParameterError:
        assert tuple(model.input_shape) != INPUT_SHAPE
        return
    assert np.isfinite(scores).all()


def test_tensor_dims_whose_product_wraps_int64_are_truncation(tmp_path):
    header = json.dumps({"kind": "svm", "task": "surface", "classes": ["a", "b"],
                         "arch": {"n_features": 448}, "meta": {}}).encode()
    dims = struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1)  # product 2**64 - 2**33 + 1
    raw = b"TTSB1" + struct.pack("<I", len(header)) + header + struct.pack("<IH", 1, 1) + b"w" + dims
    path = tmp_path / "wrap.ttsb"
    path.write_bytes(raw + bytes(64))
    with pytest.raises(FormatError, match="truncated"):
        load_model(path)


def test_tensor_with_more_dims_than_numpy_allows_is_format_error(tmp_path):
    header = json.dumps({"kind": "svm", "task": "surface", "classes": ["a", "b"],
                         "arch": {"n_features": 448}, "meta": {}}).encode()
    dims = struct.pack("<B100I", 100, 0, *[1] * 99)  # no data to read, but 100 dims
    raw = b"TTSB1" + struct.pack("<I", len(header)) + header + struct.pack("<IH", 1, 7) + b"weights" + dims
    path = tmp_path / "dims.ttsb"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="'weights' has shape"):
        load_model(path)


def test_deeply_nested_header_is_format_error(tmp_path):
    header = b"[" * 100_000 + b"]" * 100_000
    path = tmp_path / "deep.ttsb"
    path.write_bytes(b"TTSB1" + struct.pack("<I", len(header)) + header)
    with pytest.raises(FormatError, match="unreadable header"):
        load_model(path)


@FUZZ
@given(data=st.data())
def test_damaged_feature_file_fails_cleanly(feature_bytes, tmp_path, data):
    path = tmp_path / "damaged.ttfe"
    path.write_bytes(data.draw(damaged(feature_bytes)))
    try:
        records = read_feature_file(path)
    except BounceError:
        return
    assert all(np.isfinite(r.cells).all() for r in records)
