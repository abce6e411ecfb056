"""Independent reference implementations used as test oracles.

Nothing here imports the code paths it checks: WAV bytes are built with
raw struct packing, filter magnitudes come from the closed-form
Butterworth formula, and gradients come from central finite differences.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ttbounce.classify.cnn import BN_EPS, _grad_refs, _param_refs, cnn_loss_and_grad


def pcm16_wav_bytes(channels: list[np.ndarray], rate: int = 44100) -> bytes:
    """Build PCM16 WAV bytes directly; channels are int16 arrays."""
    n_ch = len(channels)
    inter = np.empty(len(channels[0]) * n_ch, dtype="<i2")
    for i, ch in enumerate(channels):
        inter[i::n_ch] = ch.astype("<i2")
    data = inter.tobytes()
    out = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    out += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, n_ch, rate, rate * 2 * n_ch, 2 * n_ch, 16
    )
    out += b"data" + struct.pack("<I", len(data)) + data
    return out


def float32_wav_bytes(channels: list[np.ndarray], rate: int = 44100) -> bytes:
    n_ch = len(channels)
    inter = np.empty(len(channels[0]) * n_ch, dtype="<f4")
    for i, ch in enumerate(channels):
        inter[i::n_ch] = ch.astype("<f4")
    data = inter.tobytes()
    out = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    out += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 3, n_ch, rate, rate * 4 * n_ch, 4 * n_ch, 32
    )
    out += b"data" + struct.pack("<I", len(data)) + data
    return out


def wav_bytes_custom(fmt_tag: int, bits: int, channels: int, data: bytes, rate: int = 44100) -> bytes:
    out = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    out += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_tag, channels, rate, rate * channels * bits // 8,
        channels * bits // 8, bits,
    )
    out += b"data" + struct.pack("<I", len(data)) + data
    return out


def butterworth_highpass_mag_db(f_hz: float, cutoff_hz: float, fs: int, order: int) -> float:
    """Analytic digital magnitude via the bilinear pre-warped frequency ratio."""
    wc = math.tan(math.pi * cutoff_hz / fs)
    w = math.tan(math.pi * f_hz / fs)
    return 10.0 * math.log10(1.0 / (1.0 + (wc / w) ** (2 * order)))


def measured_snr_db(signal: np.ndarray, noise_part: np.ndarray) -> float:
    rms = lambda x: np.sqrt(np.mean(np.square(x)))
    return 20.0 * math.log10(rms(signal) / rms(noise_part))


def fd_gradient(f, array: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function wrt an array, in place."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), floor)))


def model_gradcheck_worst(model, x: np.ndarray, y: np.ndarray, h: float = 1e-3) -> float:
    """Worst relative error between analytic and FD gradients over all parameters."""
    _, grads, _ = cnn_loss_and_grad(model, x, y)
    analytic = _grad_refs(grads)
    worst = 0.0
    for (_, p), g in zip(_param_refs(model), analytic):
        fd = fd_gradient(lambda: cnn_loss_and_grad(model, x, y)[0], p, h)
        worst = max(worst, max_rel_error(g, fd))
    return worst


def zero_phase_reference(sos: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """Forward-backward filtering written out: odd-reflection pad of ``padlen``
    at each end, each pass started from the steady state of its first sample."""
    from scipy.signal import sosfilt, sosfilt_zi

    left = 2.0 * x[0] - x[padlen:0:-1]
    right = 2.0 * x[-1] - x[-2 : -padlen - 2 : -1]
    ext = np.concatenate([left, x, right])
    zi = sosfilt_zi(sos)
    y, _ = sosfilt(sos, ext, zi=zi * ext[0])
    y = y[::-1]
    y, _ = sosfilt(sos, y, zi=zi * y[0])
    return y[::-1][padlen : padlen + x.size]


def gmm_scores_reference(priors, weights, means, variances, x: np.ndarray) -> np.ndarray:
    """Per-class log prior + diagonal-mixture log-likelihood, one class at a time,
    from ``scipy.stats.norm``. Priors and weights are clamped at 1e-300, as the
    scorer does, so an unobserved class scores finite."""
    from scipy.special import logsumexp
    from scipy.stats import norm

    x = np.asarray(x, dtype=np.float64)
    scores = np.empty((x.shape[0], len(priors)))
    for c in range(len(priors)):
        mu = np.asarray(means[c], dtype=np.float64)
        sd = np.sqrt(np.asarray(variances[c], dtype=np.float64))
        logpdf = norm.logpdf(x[:, None, :], loc=mu, scale=sd).sum(axis=2)
        log_w = np.log(np.maximum(np.asarray(weights[c], dtype=np.float64), 1e-300))
        scores[:, c] = logsumexp(logpdf + log_w, axis=1) + np.log(max(float(priors[c]), 1e-300))
    return scores


def im2col_reference(x: np.ndarray) -> np.ndarray:
    """3x3 same-padded patches of a batch-first (N, C, H, W) array as
    (C*9, N*H*W), rows (c, dy, dx), columns (n, h, w), copied out of one
    strided view of the zero-padded array into a C-contiguous GEMM operand
    (for 1x1 planes ``reshape`` alone would return a strided view)."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1:-1, 1:-1] = x
    s = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(c, 3, 3, n, h, w), strides=(s[1], s[2], s[3], s[0], s[2], s[3])
    )
    return np.ascontiguousarray(view.reshape(c * 9, n * h * w))


def cnn_infer_reference(model, mels: np.ndarray) -> np.ndarray:
    """CNN inference in the batch-first (N, C, H, W) layout, block by block:
    conv as one GEMM on ``im2col_reference`` patches plus the bias,
    batchnorm on running statistics as one expression, ReLU as a mask
    product, ``maxpool2_reference``, global average pool, dense, softmax."""
    x = np.asarray(mels, dtype=np.float64)
    x = (x[None] if x.ndim == 2 else x)[:, None]
    col = lambda t: t[None, :, None, None]
    for i, blk in enumerate(model.blocks, start=1):
        n, _, h, w = x.shape
        f = blk.w.shape[0]
        conv = (blk.w.reshape(f, -1) @ im2col_reference(x)).reshape(f, n, h, w)
        x = np.ascontiguousarray(conv.transpose(1, 0, 2, 3)) + col(blk.b)
        inv = 1.0 / np.sqrt(col(blk.running_var) + BN_EPS)
        x = col(blk.gamma) * (x - col(blk.running_mean)) * inv + col(blk.beta)
        x = x * (x > 0)
        if i in model.pools:
            x = maxpool2_reference(x)[0]
    logits = x.mean(axis=(2, 3)) @ model.dense_w.T + model.dense_b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def maxpool2_reference(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """2x2 max pooling (floor) of (N, C, H, W) by ``argmax`` over each window's four
    entries in (0,0)..(1,1) order, so the first of tied maxima wins; returns the
    output and the (indices, input shape) cache for ``maxpool2_backward_reference``."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    r = (
        x[:, :, : 2 * h2, : 2 * w2]
        .reshape(n, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h2, w2, 4)
    )
    idx = r.argmax(axis=-1)
    out = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]
    return out, (idx, x.shape)


def maxpool2_backward_reference(dout: np.ndarray, cache: tuple) -> np.ndarray:
    """Route each pooled gradient to its window's argmax entry; all else +0.0."""
    idx, in_shape = cache
    n, c, h, w = in_shape
    h2, w2 = h // 2, w // 2
    dr = np.zeros((n, c, h2, w2, 4), dtype=dout.dtype)
    np.put_along_axis(dr, idx[..., None], dout[..., None], axis=-1)
    dcrop = dr.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * h2, 2 * w2)
    dx = np.zeros(in_shape, dtype=dout.dtype)
    dx[:, :, : 2 * h2, : 2 * w2] = dcrop
    return dx


def conv_backward_reference(cols: np.ndarray, in_shape: tuple, w: np.ndarray, dout: np.ndarray):
    """Input, weight and bias gradients of a same-padded 3x3 conv from its
    ``im2col_reference`` patches: two GEMMs, then the patch gradients added back
    through nine strided slices of a zero-padded (C, N, H+2, W+2) array."""
    n, c, h, w_ = in_shape
    f = w.shape[0]
    dout_f = np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).reshape(f, n * h * w_)
    dw = (dout_f @ cols.T).reshape(w.shape)
    dcols = (w.reshape(f, -1).T @ dout_f).reshape(c, 3, 3, n, h, w_)
    dxp = np.zeros((c, n, h + 2, w_ + 2), dtype=dout.dtype)
    for dy in range(3):
        for dx in range(3):
            dxp[:, :, dy : dy + h, dx : dx + w_] += dcols[:, dy, dx]
    dx = np.ascontiguousarray(dxp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3))
    return dx, dw, dout.sum(axis=(0, 2, 3))


def cnn_train_step_reference(model, mels: np.ndarray, labels: np.ndarray):
    """``cnn_loss_and_grad`` written out in the batch-first (N, C, H, W) layout:
    conv as one GEMM on ``im2col_reference`` patches, then a transposed copy plus
    the bias; batchnorm on batch statistics from ``mean`` and ``var``; ReLU as a
    mask product; ``maxpool2_reference``; global average pool, dense, softmax and
    cross-entropy. The backward pass mirrors it, with ``conv_backward_reference``.
    Returns (loss, grads, per-block (batch mean, batch variance))."""
    axes = (0, 2, 3)
    col = lambda t: t[None, :, None, None]
    labels = np.asarray(labels)
    x = np.asarray(mels, dtype=np.float64)[:, None]
    caches = []
    for i, blk in enumerate(model.blocks, start=1):
        n, _, h, w = x.shape
        f = blk.w.shape[0]
        cols = im2col_reference(x)
        conv = (blk.w.reshape(f, -1) @ cols).reshape(f, n, h, w)
        conv = np.ascontiguousarray(conv.transpose(1, 0, 2, 3)) + col(blk.b)
        mu = conv.mean(axis=axes, keepdims=True)
        var = conv.var(axis=axes, keepdims=True)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (conv - mu) * inv
        bn = col(blk.gamma) * xhat + col(blk.beta)
        relu = bn > 0
        y = bn * relu
        pool = None
        if i in model.pools:
            y, pool = maxpool2_reference(y)
        caches.append((x.shape, cols, xhat, inv, relu, pool, mu.ravel(), var.ravel()))
        x = y
    gap = x.mean(axis=(2, 3))
    logits = gap @ model.dense_w.T + model.dense_b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    rows = np.arange(len(labels))
    loss = float(-np.mean(np.log(np.maximum(probs[rows, labels], 1e-300))))

    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)
    grads = {"dense_w": dlogits.T @ gap, "dense_b": dlogits.sum(axis=0), "blocks": [None] * len(caches)}
    _, _, h, w = x.shape
    dx = np.ascontiguousarray(np.broadcast_to((dlogits @ model.dense_w)[:, :, None, None], x.shape) / (h * w))
    for i in range(len(caches) - 1, -1, -1):
        blk = model.blocks[i]
        in_shape, cols, xhat, inv, relu, pool, _, _ = caches[i]
        if pool is not None:
            dx = maxpool2_backward_reference(dx, pool)
        dx = dx * relu
        dgamma = (dx * xhat).sum(axis=axes)
        dbeta = dx.sum(axis=axes)
        dxhat = dx * col(blk.gamma)
        mean_dxhat = dxhat.mean(axis=axes, keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes, keepdims=True)
        dbn = inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
        dx, dw, db = conv_backward_reference(cols, in_shape, blk.w, dbn)
        grads["blocks"][i] = {"w": dw, "b": db, "gamma": dgamma, "beta": dbeta}
    return loss, grads, [(c[6], c[7]) for c in caches]


def end_to_end_reference(clip, config, filter_spec, surface_model, spin_model=None):
    """``evaluate.end_to_end`` as a per-event loop: each event's window is cut,
    log-mel transformed and scored on its own, one ``predict`` call per model
    per event; spin only where the predicted surface is a racket."""
    from ttbounce.audio_io import SurfaceClass
    from ttbounce.classify import features_for_model, predict
    from ttbounce.detect import detect_bounces, extract_window
    from ttbounce.evaluate import AnnotatedEvent
    from ttbounce.features import log_mel

    rackets = {s.name for s in SurfaceClass if s.is_racket}
    annotated = []
    for ev in detect_bounces(clip, config, filter_spec):
        cells = log_mel(extract_window(clip, ev))
        pred_ids, scores = predict(surface_model, features_for_model(surface_model, cells))
        surface = surface_model.classes[int(pred_ids[0])]
        spin = spin_scores = None
        if spin_model is not None and surface in rackets:
            spin_ids, spin_scores_m = predict(spin_model, features_for_model(spin_model, cells))
            spin = spin_model.classes[int(spin_ids[0])]
            spin_scores = spin_scores_m[0]
        annotated.append(AnnotatedEvent(ev.onset_sample, ev.onset_s, surface, spin, scores[0], spin_scores))
    return annotated
