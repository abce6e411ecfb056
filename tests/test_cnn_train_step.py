"""The CNN training step against the batch-first reference, bit for bit."""

import itertools

import numpy as np
import pytest

from oracles import (
    cnn_train_step_reference,
    conv_backward_reference,
    im2col_reference,
    maxpool2_backward_reference,
    maxpool2_reference,
)
from ttbounce.classify import TrainConfig, assemble_task, cnn_train, mel_inputs, new_cnn, save_model
from ttbounce.classify import cnn
from ttbounce.classify.cnn import (
    _grad_refs,
    batchnorm_train,
    cnn_loss_and_grad,
    conv2d_same_backward,
    maxpool2,
    maxpool2_backward,
    spatial_trace,
)
from ttbounce.synth import two_band_records

SHAPES = ((64, 7), (1, 6), (9, 1), (8, 2), (7, 5))  # H = 1, W = 1, W = 2, odd extents
POOLS = ((), (1,), (2, 4))
BATCHES = (2, 16)


def _same(a, b) -> bool:
    """Equal shape, dtype and bytes: values, sign bits and NaN payloads alike."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _model(shape, pools, seed, ties=False):
    """A training model with nontrivial batchnorm; ``ties`` makes channel 0 of every
    block emit +0.0 or -0.0 (gamma 0, beta -0.0) and channel 1 one constant
    (gamma 0, beta 0.5), so every pooling window there is a tie."""
    rng = np.random.default_rng(seed)
    model = new_cnn(("a", "b", "c"), "spin", seed=seed, channels=(3, 4, 5, 6), pools=pools, input_shape=shape)
    for blk in model.blocks:
        blk.gamma = rng.uniform(0.5, 1.5, blk.gamma.shape)
        blk.beta = rng.standard_normal(blk.beta.shape) * 0.3
        if ties:
            blk.gamma[:2] = 0.0
            blk.beta[:2] = (-0.0, 0.5)
    return model


def _assert_step_matches_reference(model, x, y):
    loss, grads, stats = cnn_loss_and_grad(model, x, y)
    ref_loss, ref_grads, ref_stats = cnn_train_step_reference(model, x, y)
    assert loss == ref_loss
    for got, want in zip(_grad_refs(grads), _grad_refs(ref_grads), strict=True):
        assert _same(got, want)
    for got, want in zip(stats, ref_stats, strict=True):
        assert _same(got[0], want[0]) and _same(got[1], want[1])


CASES = [
    (shape, pools, n, ties)
    for shape, pools, n, ties in itertools.product(SHAPES, POOLS, BATCHES, (False, True))
    if min(min(hw) for hw in spatial_trace(shape, 4, pools)) >= 1
]


@pytest.mark.parametrize("shape, pools, n, ties", CASES)
def test_step_bit_identical_to_reference(shape, pools, n, ties):
    model = _model(shape, pools, seed=shape[0] * 7 + shape[1] + n, ties=ties)
    rng = np.random.default_rng(n)
    _assert_step_matches_reference(model, rng.standard_normal((n, *shape)), rng.integers(0, 3, n))


def test_default_architecture_step_bit_identical_to_reference():
    rng = np.random.default_rng(3)
    model = new_cnn(tuple("abcde"), "spin", seed=3)
    _assert_step_matches_reference(model, rng.standard_normal((16, 64, 7)), rng.integers(0, 5, 16))


def test_tied_windows_route_to_the_first_maximum():
    """A constant channel ties every window, so the pooled gradient must land on the
    (0, 0) entry that argmax picks."""
    x = np.zeros((2, 3, 5, 4))
    x[:, 0] = 0.5
    x[:, 1] = np.where(np.random.default_rng(0).random((2, 5, 4)) < 0.5, 0.0, -0.0)
    x[:, 2, ::2, 1::2] = 1.0  # a tie at the (0, 1) entry
    out, cache = maxpool2(x)
    ref_out, ref_cache = maxpool2_reference(x)
    assert _same(out, ref_out)
    assert np.array_equal(cache[0], ref_cache[0])
    dout = np.random.default_rng(1).standard_normal(out.shape)
    dx = maxpool2_backward(dout, cache)
    assert _same(dx, maxpool2_backward_reference(dout, ref_cache))
    assert np.array_equal(dx[:, 0, 0:4:2, 0:4:2], dout[:, 0])


@pytest.mark.parametrize("shape", [(2, 3, 6, 5), (3, 2, 1, 7), (2, 4, 5, 1), (16, 8, 64, 7), (16, 32, 32, 3)])
def test_conv_backward_bit_identical_to_strided_scatter(shape):
    rng = np.random.default_rng(shape[-1])
    x = rng.standard_normal(shape)
    w = rng.standard_normal((5, shape[1], 3, 3))
    dout = rng.standard_normal((shape[0], 5, *shape[2:]))
    dout[dout < -1.0] = -0.0  # zero terms of both signs
    got = conv2d_same_backward(x, w, dout)
    want = conv_backward_reference(im2col_reference(x), x.shape, w, dout)
    for g, r in zip(got, want, strict=True):
        assert _same(np.ascontiguousarray(g), r)


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (16, 8, 64, 7), (3, 1, 1, 1)])
def test_batch_statistics_match_numpy_mean_and_var(shape):
    x = np.random.default_rng(len(shape)).standard_normal(shape) * 3.0 + 1.0
    _, cache = batchnorm_train(x, np.ones(shape[1]), np.zeros(shape[1]))
    assert _same(cache["mean"], x.mean(axis=(0, 2, 3)))
    assert _same(cache["var"], x.var(axis=(0, 2, 3)))


@pytest.mark.parametrize("seed", [0, 5])
def test_training_equals_reference_driven_loop(monkeypatch, tmp_path, seed):
    """cnn_train's log and TTSB1 bytes do not change when each step is the reference."""
    ds = assemble_task(two_band_records(20, seed=8), "surface")
    mels = mel_inputs(ds.cells)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=seed, task="surface", patience=3)
    runs = []
    for step in (cnn.cnn_loss_and_grad, cnn_train_step_reference):
        monkeypatch.setattr(cnn, "cnn_loss_and_grad", step)
        model, log = cnn_train(mels, ds.labels, ds.strata, ds.classes, cfg)
        path = tmp_path / f"{len(runs)}.ttsb"
        save_model(model, path)
        runs.append((log, path.read_bytes()))
    assert runs[0] == runs[1]
