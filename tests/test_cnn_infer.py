"""Tiled CNN inference against the batch-first reference, bit for bit.

``predict_cnn`` scores each window as a lone window is scored, so a batch
is compared with the reference applied to each of its windows alone."""

import copy
import itertools
import warnings

import numpy as np
import pytest

from oracles import cnn_infer_reference, im2col_reference, maxpool2_reference
from ttbounce.classify import TrainConfig, assemble_task, cnn_train, load_model, mel_inputs, new_cnn, predict, save_model
from ttbounce.classify import cnn
from ttbounce.classify.cnn import _TILE, _patches, _pool2, _taps, finalize_float32, predict_cnn
from ttbounce.synth import two_band_records

BATCHES = (1, 2, 7, 33)
POOLS = ((), (1,), (2, 4))
SHAPES = ((64, 7), (16, 7), (8, 6))
CLASSES = (2, 13)


def _finished(n_classes, pools, shape, seed):
    """A finished model with nontrivial batchnorm statistics."""
    rng = np.random.default_rng(seed)
    model = new_cnn(tuple(f"c{i}" for i in range(n_classes)), "spin", seed=seed,
                    channels=(3, 4, 5, 6), pools=pools, input_shape=shape)
    for blk in model.blocks:
        blk.gamma = rng.uniform(0.5, 1.5, blk.gamma.shape)
        blk.beta = rng.standard_normal(blk.beta.shape) * 0.3
        blk.running_mean = rng.standard_normal(blk.running_mean.shape) * 0.5
        blk.running_var = rng.uniform(0.1, 3.0, blk.running_var.shape)
    return finalize_float32(model)


def _per_window_reference(model, x):
    return np.stack([cnn_infer_reference(model, window)[0] for window in x])


def _assert_matches_reference(model, x):
    assert np.array_equal(predict_cnn(model, x), _per_window_reference(model, x))
    assert np.array_equal(predict_cnn(model, x[0]), cnn_infer_reference(model, x[0]))


@pytest.mark.parametrize(
    "n_classes, pools, shape", list(itertools.product(CLASSES, POOLS, SHAPES))
)
def test_infer_bit_identical_to_reference(tmp_path, n_classes, pools, shape):
    model = _finished(n_classes, pools, shape, seed=len(pools) * 7 + shape[0] + n_classes)
    path = tmp_path / "m.ttsb"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(shape[1])
    for n in BATCHES:
        x = rng.standard_normal((n, *shape))
        _assert_matches_reference(model, x)
        _assert_matches_reference(loaded, x)
        assert np.array_equal(predict_cnn(model, x), predict_cnn(loaded, x))


@pytest.fixture(scope="module")
def trained():
    ds = assemble_task(two_band_records(30, seed=21), "surface")
    mels = mel_inputs(ds.cells)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=4, task="surface")
    model, _ = cnn_train(mels, ds.labels, ds.strata, ds.classes, cfg, channels=(4, 6, 8), pools=(2,))
    return model, mels


def test_trained_and_loaded_models_match_reference(trained, tmp_path):
    model, mels = trained
    path = tmp_path / "trained.ttsb"
    save_model(model, path)
    loaded = load_model(path)
    for n in BATCHES:
        _assert_matches_reference(model, mels[:n])
        _assert_matches_reference(loaded, mels[:n])


def test_empty_batch(trained):
    model, mels = trained
    assert predict_cnn(model, mels[:0]).shape == (0, model.n_classes)


@pytest.mark.parametrize("shape", [(1, 1, 64, 7), (3, 8, 32, 3), (2, 5, 16, 1), (4, 2, 1, 5), (0, 3, 8, 6)])
def test_patches_equal_reference_gather(rng, shape):
    x = rng.standard_normal(shape)
    got = _patches(x.transpose(1, 0, 2, 3))
    want = im2col_reference(x)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got, want)
    assert not np.signbit(got[want == 0]).any()  # padding is +0.0, as np.zeros gives


@pytest.mark.parametrize("shape", [(1, 1, 64, 7), (3, 8, 32, 3), (2, 5, 16, 1), (4, 2, 1, 5), (0, 3, 8, 6)])
def test_window_patches_equal_reference_gather(rng, shape):
    """Inference's gather: per window, the reference patches of that window alone."""
    x = rng.standard_normal(shape)
    n, c, h, w = shape
    got = _taps(x).reshape(n, c * 9, h * w)
    assert got.flags.c_contiguous
    for i in range(n):
        want = im2col_reference(x[i : i + 1])
        assert np.array_equal(got[i], want)
        assert not np.signbit(got[i][want == 0]).any()


def _ties(rng, shape):
    """Post-ReLU activations in which every 2x2 window holds only +0.0 and -0.0."""
    return np.where(rng.random(shape) < 0.5, 0.0, -0.0)


@pytest.mark.parametrize("shape", [(3, 4, 8, 6), (2, 1, 5, 3), (1, 7, 2, 2)])
def test_pool_keeps_first_of_tied_zeros(rng, shape):
    x = _ties(rng, shape)
    x[..., ::3, 1::2] = rng.standard_normal(x[..., ::3, 1::2].shape)
    got, want = _pool2(x), maxpool2_reference(x)[0]
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(want).any() and not np.signbit(want).all()


def test_model_with_tied_zero_activations(tmp_path):
    """gamma = 0 and beta = -0.0 make a block emit +0.0 or -0.0 by the sign of x - mean."""
    model = _finished(2, (1, 2), (16, 7), seed=3)
    rng = np.random.default_rng(5)
    for i in (0, 1):
        blk = model.blocks[i]
        blk.gamma = np.zeros_like(blk.gamma)
        blk.beta = np.full_like(blk.beta, -0.0)
        blk.b = rng.standard_normal(blk.b.shape).astype(np.float32)
    x = rng.standard_normal((7, 16, 7))
    _assert_matches_reference(model, x)
    save_model(model, tmp_path / "m.ttsb")
    _assert_matches_reference(load_model(tmp_path / "m.ttsb"), x)


# --- read-only finished tensors; every call reads the tensors it is given ----------


def test_finished_tensors_are_read_only(tmp_path):
    model = _finished(2, (1,), (8, 6), seed=2)
    save_model(model, tmp_path / "m.ttsb")
    for m in (model, load_model(tmp_path / "m.ttsb")):
        for blk in m.blocks:
            for t in (blk.w, blk.b, blk.gamma, blk.beta, blk.running_mean, blk.running_var):
                with pytest.raises(ValueError):
                    t[...] = 1.0
        with pytest.raises(ValueError):
            m.dense_w[0, 0] = 1.0


def test_reassigned_tensor_rebuilds_operands(rng):
    model = _finished(2, (1,), (8, 6), seed=4)
    x = rng.standard_normal((5, 8, 6))
    before = predict_cnn(model, x)
    blk = model.blocks[0]
    w = (blk.w * 1.5).astype(np.float32)
    w.flags.writeable = False
    blk.w = w
    after = predict_cnn(model, x)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, _per_window_reference(model, x))
    var = (blk.running_var + 1.0).astype(np.float32)
    var.flags.writeable = False
    blk.running_var = var
    assert np.array_equal(predict_cnn(model, x), _per_window_reference(model, x))


def test_writable_tensor_is_read_on_every_call(rng):
    model = _finished(2, (), (8, 6), seed=5)
    x = rng.standard_normal((3, 8, 6))
    predict_cnn(model, x)
    model.blocks[1].gamma = model.blocks[1].gamma.copy()  # writable again
    predict_cnn(model, x)
    model.blocks[1].gamma *= 2.0
    assert np.array_equal(predict_cnn(model, x), _per_window_reference(model, x))


def test_deep_copy_made_writable_is_not_stale(rng):
    model = _finished(2, (), (8, 6), seed=6)
    x = rng.standard_normal((3, 8, 6))
    predict_cnn(model, x)
    twin = copy.deepcopy(model)  # writable tensors; it would also copy any cached operands
    twin.blocks[0].w *= -1.0
    assert np.array_equal(predict_cnn(twin, x), _per_window_reference(twin, x))
    assert not np.array_equal(predict_cnn(twin, x), predict_cnn(model, x))


def test_validation_pass_matches_reference(monkeypatch):
    """cnn_train's per-epoch validation scores equal the reference on the live model."""
    calls = []
    forward = cnn.predict_cnn

    def checked(model, mels):
        out = forward(model, mels)
        assert np.array_equal(out, _per_window_reference(model, mels))
        calls.append(len(mels))
        return out

    monkeypatch.setattr(cnn, "predict_cnn", checked)
    ds = assemble_task(two_band_records(20, seed=8), "surface")
    cfg = TrainConfig(epochs=3, batch_size=8, seed=1, task="surface", patience=10)
    _, log = cnn_train(mel_inputs(ds.cells), ds.labels, ds.strata, ds.classes, cfg, channels=(3, 4), pools=(1,))
    assert len(calls) == len(log) == 3


def test_predict_raises_numeric_error_on_overflow(rng):
    from ttbounce.errors import NumericError

    model = _finished(2, (), (8, 6), seed=7)
    w = np.full_like(model.blocks[0].w, 3e38)  # finite, but the first conv overflows
    w.flags.writeable = False
    model.blocks[0].w = w
    with pytest.raises(NumericError, match="non-finite"), warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is rejected, not also warned about
        predict(model, np.full((2, 8, 6), 1e300))
