"""Six-block convolutional classifier, implemented directly on numpy.

Each block is a same-padded 3x3 convolution, batch normalization, then
ReLU; 2x2 max pooling (floor) follows the blocks listed in ``pools``.
A global average pool and a dense layer with softmax produce class
probabilities. Training runs in float64 with reverse-mode gradients
written out by hand; finished models are quantized to float32 so the
serialized form reproduces predictions bit-exactly.

Inference runs channel-first, (C, N, H, W), with the arithmetic of the
batch-first training layout; a finished model (read-only float32
tensors) keeps its float64 inference operands, keyed on the tensors.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field

import numpy as np

from ..errors import BounceError, DataError, FormatError, NumericError, ParameterError
from ..features import N_FRAMES, N_MELS
from .data import TaskDataset, TrainConfig, mel_inputs, stratified_split
from .family import Layout, ModelFamily, tensor_slot

BN_EPS = 1e-5
RUNNING_MOMENTUM = 0.9  # running = m*running + (1-m)*batch

DEFAULT_CHANNELS = (8, 16, 32, 32, 64, 64)
DEFAULT_POOLS = (2, 4)
DEFAULT_INPUT_SHAPE = (N_MELS, N_FRAMES)


@dataclass
class ConvBlock:
    w: np.ndarray  # (out_ch, in_ch, 3, 3)
    b: np.ndarray  # (out_ch,)
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class CnnModel:
    blocks: list[ConvBlock]
    dense_w: np.ndarray  # (n_classes, channels[-1])
    dense_b: np.ndarray
    classes: tuple[str, ...]
    task: str
    channels: tuple[int, ...]
    pools: tuple[int, ...]
    input_shape: tuple[int, int]
    meta: dict = field(default_factory=dict)
    # (block tensors, their inference operands) once built for a finished model
    _infer_ops: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def spatial_trace(
    input_shape: tuple[int, int], n_blocks: int, pools: tuple[int, ...]
) -> list[tuple[int, int]]:
    """Spatial size after each block; pooling floors odd extents."""
    h, w = input_shape
    trace = [(h, w)]
    for i in range(1, n_blocks + 1):
        if i in pools:
            h, w = h // 2, w // 2
        trace.append((h, w))
    return trace


def check_spatial(
    input_shape: tuple[int, int],
    n_blocks: int,
    pools: tuple[int, ...],
    error: type[BounceError] = ParameterError,
) -> None:
    """Raise ``error`` if pooling shrinks the input below 1x1 at some block."""
    trace = spatial_trace(input_shape, n_blocks, pools)
    if any(h < 1 or w < 1 for h, w in trace):
        raise error(f"pooling collapses the input: spatial trace {trace}")


def new_cnn(
    classes: tuple[str, ...],
    task: str,
    seed: int = 0,
    channels: tuple[int, ...] = DEFAULT_CHANNELS,
    pools: tuple[int, ...] = DEFAULT_POOLS,
    input_shape: tuple[int, int] = DEFAULT_INPUT_SHAPE,
) -> CnnModel:
    """He-normal initialized model; batchnorm starts at identity."""
    check_spatial(input_shape, len(channels), pools)
    rng = np.random.default_rng(seed)
    blocks = []
    in_ch = 1
    for out_ch in channels:
        fan_in = in_ch * 9
        blocks.append(
            ConvBlock(
                w=rng.standard_normal((out_ch, in_ch, 3, 3)) * np.sqrt(2.0 / fan_in),
                b=np.zeros(out_ch),
                gamma=np.ones(out_ch),
                beta=np.zeros(out_ch),
                running_mean=np.zeros(out_ch),
                running_var=np.ones(out_ch),
            )
        )
        in_ch = out_ch
    dense_w = rng.standard_normal((len(classes), channels[-1])) * np.sqrt(2.0 / channels[-1])
    return CnnModel(
        blocks=blocks,
        dense_w=dense_w,
        dense_b=np.zeros(len(classes)),
        classes=tuple(classes),
        task=task,
        channels=tuple(channels),
        pools=tuple(pools),
        input_shape=tuple(input_shape),
    )


# --- Layer primitives ---------------------------------------------------------


def _patches(x: np.ndarray) -> np.ndarray:
    """3x3 same-padded patches: (C, N, H, W) -> C-contiguous (C*9, N*H*W), rows in
    (c, dy, dx) order. In a row-padded, flattened plane, entry (dy, dx) of pixel j
    sits at j + dy*W + dx, so a row is one run; entries that wrap a row edge are zeroed."""
    c, n, h, w = x.shape
    xq = np.zeros((c, n, (h + 2) * w + 2), dtype=x.dtype)
    xq[:, :, w + 1 : w + 1 + h * w].reshape(c, n, h, w)[...] = x  # a view: no copy of x
    s = xq.strides
    view = np.ndarray(  # as_strided, without its per-call overhead
        (c, 3, 3, n, h * w), x.dtype, buffer=xq, strides=(s[0], w * s[2], s[2], s[1], s[2])
    )
    cols = view.copy().reshape(c, 3, 3, n, h, w)
    cols[:, :, 0, :, :, 0] = 0.0
    cols[:, :, 2, :, :, w - 1] = 0.0
    return cols.reshape(c * 9, n * h * w)


def _conv_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    n, _, h, wd = x.shape
    f = w.shape[0]
    cols = _patches(x.transpose(1, 0, 2, 3))
    out = (w.reshape(f, -1) @ cols).reshape(f, n, h, wd)
    y = np.empty((n, f, h, wd), dtype=out.dtype)  # batch-first; the bias is added in the copy
    return np.add(out.transpose(1, 0, 2, 3), b[None, :, None, None], out=y), cols


def _conv_backward(
    cols: np.ndarray, in_shape: tuple, w: np.ndarray, dout: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Input (a transposed view; None unless ``input_grad``), weight and bias grads; reuses cols."""
    n, c, h, wd = in_shape
    f = w.shape[0]
    dout_f = np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).reshape(f, n * h * wd)
    dw = (dout_f @ cols.T).reshape(w.shape)
    if not input_grad:
        return None, dw, dout.sum(axis=(0, 2, 3))
    # The adjoint of _patches: row (dy, dx) adds as one run at offset dy*W + dx of
    # the row-padded plane. In (dy, dx) order from +0.0, each pixel sums the terms
    # of a strided scatter in its order; the zeroed wrapped entries add +0.0, and
    # a sum from +0.0 is never -0.0, so they change no bit.
    dcols = np.matmul(w.reshape(f, -1).T, dout_f, out=cols).reshape(c, 3, 3, n, h, wd)
    dcols[:, :, 0, :, :, 0] = 0.0
    dcols[:, :, 2, :, :, wd - 1] = 0.0
    rows = dcols.reshape(c, 9, n, h * wd)
    dxq = np.zeros((c, n, (h + 2) * wd + 2), dtype=dout.dtype)
    for k in range(9):
        at = k // 3 * wd + k % 3
        dxq[:, :, at : at + h * wd] += rows[:, k]
    dx = dxq[:, :, wd + 1 : wd + 1 + h * wd].reshape(c, n, h, wd).transpose(1, 0, 2, 3)
    return dx, dw, dout.sum(axis=(0, 2, 3))


def batchnorm_train(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, dict]:
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    d = x - mu
    sq = d * d
    var = sq.sum(axis=(0, 2, 3), keepdims=True) / (x.size // x.shape[1])  # as np.var does it
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = np.multiply(d, inv, out=d)
    out = np.multiply(xhat, gamma[None, :, None, None], out=sq)
    out += beta[None, :, None, None]
    cache = {"xhat": xhat, "inv": inv, "gamma": gamma, "mean": mu.ravel(), "var": var.ravel()}
    return out, cache


def batchnorm_train_backward(dout: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, gamma = cache["xhat"], cache["inv"], cache["gamma"]
    t = dout * xhat
    dgamma = t.sum(axis=(0, 2, 3))
    dbeta = dout.sum(axis=(0, 2, 3))
    dxhat = dout * gamma[None, :, None, None]
    mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
    mean_dxhat_xhat = np.multiply(dxhat, xhat, out=t).mean(axis=(0, 2, 3), keepdims=True)
    # inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat), in place
    dxhat -= mean_dxhat
    dxhat -= np.multiply(xhat, mean_dxhat_xhat, out=t)
    dxhat *= inv
    return dxhat, dgamma, dbeta


def _quadrants(x: np.ndarray) -> list[np.ndarray]:
    """Views of the four entries of each 2x2 window (floor), in (0,0)..(1,1) order."""
    h2, w2 = x.shape[-2] // 2, x.shape[-1] // 2
    return [x[..., dy : 2 * h2 : 2, dx : 2 * w2 : 2] for dy in (0, 1) for dx in (0, 1)]


def _pool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling (floor) without the indices that only training needs."""
    q = _quadrants(x)
    # np.maximum returns its second operand on a tie (+0.0 vs -0.0), so nesting
    # from the last quadrant inward keeps the first, as argmax does.
    return np.maximum(q[3], np.maximum(q[2], np.maximum(q[1], q[0])))


def maxpool2(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``_pool2`` and, per window, the quadrant of the first maximum (as argmax picks it)."""
    q, out = _quadrants(x), _pool2(x)
    idx = np.where(q[0] == out, 0, np.where(q[1] == out, 1, np.where(q[2] == out, 2, 3)))
    return out, (idx, x.shape)


def maxpool2_backward(dout: np.ndarray, cache: tuple) -> np.ndarray:
    idx, in_shape = cache
    dx = np.zeros(in_shape, dtype=dout.dtype)
    for k, dq in enumerate(_quadrants(dx)):
        dq[...] = np.where(idx == k, dout, 0.0)
    return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    p = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(p, 1e-300))))


# --- Forward / backward -------------------------------------------------------


def _as_batch(mels: np.ndarray, input_shape: tuple[int, int]) -> np.ndarray:
    x = np.asarray(mels, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[1:] != tuple(input_shape):
        raise ParameterError(
            f"expected input shaped (N, {input_shape[0]}, {input_shape[1]}), got {x.shape}"
        )
    return x[:, None]  # add the channel axis


def _train_forward(model: CnnModel, mels: np.ndarray) -> tuple[np.ndarray, dict]:
    """Probabilities under batch statistics, and the activations backprop needs."""
    x = _as_batch(mels, model.input_shape)
    if x.shape[0] < 2:
        raise ParameterError("training needs a batch of at least 2 (batch statistics)")
    cache: list[dict] = []
    for i, blk in enumerate(model.blocks, start=1):
        in_shape = x.shape
        x, cols = _conv_forward(x, blk.w, blk.b)
        if not np.isfinite(x).all():
            raise NumericError(f"non-finite activations in block {i}")
        bn_out, bn_cache = batchnorm_train(x, blk.gamma, blk.beta)
        relu_mask = bn_out > 0
        y = np.multiply(bn_out, relu_mask, out=bn_out)
        pool_cache = None
        if i in model.pools:
            y, pool_cache = maxpool2(y)
        cache.append({"in_shape": in_shape, "cols": cols, "bn": bn_cache,
                      "relu": relu_mask, "pool": pool_cache})
        x = y
    gap = x.mean(axis=(2, 3))
    probs = softmax(gap @ model.dense_w.T + model.dense_b)
    return probs, {"blocks": cache, "gap": gap, "gap_shape": x.shape, "probs": probs}


def _infer_operands(model: CnnModel) -> list[tuple[np.ndarray, ...]]:
    """Per block, in float64: the GEMM weight (F, C*9), then as (F, 1) columns conv bias,
    running mean, gamma, 1/sqrt(running_var + eps) (in the tensors' dtype) and beta."""
    key = [getattr(b, a) for b in model.blocks for a in _BLOCK_TENSORS.values()]
    finished = all(t.dtype == np.float32 and not t.flags.writeable for t in key)
    kept_key, kept_ops = model._infer_ops or ((), [])  # tensors held by reference, not id
    if finished and len(kept_key) == len(key) and all(map(operator.is_, kept_key, key)):
        return kept_ops
    col = lambda t: np.asarray(t, dtype=np.float64).reshape(-1, 1)
    ops = [
        (np.ascontiguousarray(b.w.reshape(len(b.w), -1), dtype=np.float64), col(b.b),
         col(b.running_mean), col(b.gamma), col(1.0 / np.sqrt(b.running_var + BN_EPS)), col(b.beta))
        for b in model.blocks
    ]
    model._infer_ops = (key, ops) if finished else None
    return ops


def _infer(model: CnnModel, x: np.ndarray) -> np.ndarray:
    """Probabilities (N, n_classes) for a channel-first (1, N, H, W) batch."""
    for i, (w, b, mean, gamma, inv, beta) in enumerate(_infer_operands(model), start=1):
        z = w @ _patches(x)
        # In place, in the order of the batch-first conv + batchnorm expressions.
        z += b
        z -= mean
        z *= gamma
        z *= inv
        z += beta
        z *= z > 0  # ReLU; negatives become -0.0, as bn_out * (bn_out > 0) does
        x = z.reshape(len(w), *x.shape[1:])  # the GEMM output is (F, N*H*W)
        if i in model.pools:
            x = _pool2(x)
    # A transposed (non-contiguous) GAP can round the dense matmul differently.
    gap = np.ascontiguousarray(x.mean(axis=(2, 3)).T)
    return softmax(gap @ model.dense_w.T + model.dense_b)


def cnn_loss_and_grad(
    model: CnnModel, mels: np.ndarray, labels: np.ndarray
) -> tuple[float, dict, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean categorical cross-entropy and gradients for every parameter.

    Also returns the per-block batch statistics so the training loop can
    commit them into the running estimates; this function itself never
    mutates the model.
    """
    labels = np.asarray(labels)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite activations raise
        probs, cache = _train_forward(model, mels)
    n = len(labels)
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise ParameterError("labels out of range for the model's class table")
    loss = cross_entropy(probs, labels)

    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads: dict = {"blocks": [None] * len(model.blocks)}
    grads["dense_w"] = dlogits.T @ cache["gap"]
    grads["dense_b"] = dlogits.sum(axis=0)
    dgap = dlogits @ model.dense_w
    _, _, h, w = cache["gap_shape"]
    dx = np.broadcast_to(dgap[:, :, None, None], cache["gap_shape"]) / (h * w)
    batch_stats = [(c["bn"]["mean"], c["bn"]["var"]) for c in cache["blocks"]]
    for i in range(len(model.blocks) - 1, -1, -1):
        blk, blk_cache = model.blocks[i], cache["blocks"].pop()  # freed block by block
        if blk_cache["pool"] is not None:
            dx = maxpool2_backward(dx, blk_cache["pool"])
        # conv backward gives a transposed view; batchnorm reduces in the batch-first layout
        dx = np.multiply(dx, blk_cache["relu"], out=np.empty(blk_cache["relu"].shape))
        dx, dgamma, dbeta = batchnorm_train_backward(dx, blk_cache["bn"])
        dx, dw, db = _conv_backward(blk_cache["cols"], blk_cache["in_shape"], blk.w, dx, i > 0)
        grads["blocks"][i] = {"w": dw, "b": db, "gamma": dgamma, "beta": dbeta}
    return loss, grads, batch_stats


# --- Training -----------------------------------------------------------------


def _param_refs(model: CnnModel) -> list[tuple[str, np.ndarray]]:
    """Trainable tensors by TTSB1 name; batchnorm running statistics are not trained."""
    layout = _layout(_arch(model), model.n_classes).items()
    return [(n, getattr(*tensor_slot(model, p))) for n, (p, _) in layout if ".running_" not in p]


def _grad_refs(grads: dict) -> list[np.ndarray]:
    """Gradients in ``_param_refs`` order."""
    blocks = [g[k] for g in grads["blocks"] for k in ("w", "b", "gamma", "beta")]
    return blocks + [grads["dense_w"], grads["dense_b"]]


class AdamState:
    def __init__(self, model: CnnModel, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for _, p in _param_refs(model)]
        self.v = [np.zeros_like(p) for _, p in _param_refs(model)]

    def step(self, model: CnnModel, grads: dict) -> None:
        self.t += 1
        params = [p for _, p in _param_refs(model)]
        gs = _grad_refs(grads)
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, gs, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def finalize_float32(model: CnnModel) -> CnnModel:
    """Quantize all tensors to float32 so saved and live predictions agree bit-for-bit."""
    for path, _ in _layout(_arch(model), model.n_classes).values():
        owner, attr = tensor_slot(model, path)
        arr = getattr(owner, attr).astype(np.float32)
        arr.flags.writeable = False  # a finished model's inference operands are kept
        setattr(owner, attr, arr)
    return model


def cnn_train(
    mels: np.ndarray,
    labels: np.ndarray,
    strata: np.ndarray,
    classes: tuple[str, ...],
    config: TrainConfig,
    channels: tuple[int, ...] = DEFAULT_CHANNELS,
    pools: tuple[int, ...] = DEFAULT_POOLS,
) -> tuple[CnnModel, list[dict]]:
    """Train with Adam, early stopping on validation loss.

    The split is stratified 80/20 by (surface, spin) pair and fully
    determined by ``config.seed``, as is initialization and shuffling.
    Returns the best-validation-loss snapshot and the per-epoch log.
    """
    config.validate()
    mels = np.asarray(mels, dtype=np.float64)
    labels = np.asarray(labels)
    if len(mels) == 0:
        raise DataError("empty training set")
    train_idx, val_idx = stratified_split(strata, labels, len(classes), config.seed)
    if val_idx.size == 0:
        raise DataError("validation split is empty; dataset too small")
    rng = np.random.default_rng(config.seed)
    model = new_cnn(
        classes, config.task, seed=config.seed, channels=channels, pools=pools,
        input_shape=mels.shape[1:],
    )
    adam = AdamState(model, lr=config.learning_rate)
    best_loss = np.inf
    best_snapshot = None
    bad_epochs = 0
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        batch_losses = []
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            if batch.size < 2:
                continue  # batchnorm needs batch statistics
            loss, grads, stats = cnn_loss_and_grad(model, mels[batch], labels[batch])
            adam.step(model, grads)
            for blk, (mean, var) in zip(model.blocks, stats):
                blk.running_mean = (
                    RUNNING_MOMENTUM * blk.running_mean + (1 - RUNNING_MOMENTUM) * mean
                )
                blk.running_var = (
                    RUNNING_MOMENTUM * blk.running_var + (1 - RUNNING_MOMENTUM) * var
                )
            batch_losses.append(loss)
        val_probs = predict_cnn(model, mels[val_idx])
        val_loss = cross_entropy(val_probs, labels[val_idx])
        val_acc = float(np.mean(val_probs.argmax(axis=1) == labels[val_idx]))
        log.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)) if batch_losses else np.nan,
                "val_loss": val_loss,
                "val_acc": val_acc,
            }
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best_snapshot = copy.deepcopy(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    assert best_snapshot is not None
    return finalize_float32(best_snapshot), log


def predict_cnn(model: CnnModel, mels: np.ndarray) -> np.ndarray:
    """Probabilities (N, n_classes) for a batch of (or a single) mel matrix, under
    the running statistics; a pure function of the model and the input."""
    return _infer(model, _as_batch(mels, model.input_shape).transpose(1, 0, 2, 3))


# --- Family record ------------------------------------------------------------

_BLOCK_TENSORS = {
    "conv_w": "w",
    "conv_b": "b",
    "bn_gamma": "gamma",
    "bn_beta": "beta",
    "bn_mean": "running_mean",
    "bn_var": "running_var",
}


_ARCH_SCHEMA = {"channels": [int], "pools": [int], "input_shape": (int, int)}


def _arch(model: CnnModel) -> dict:
    return {key: list(getattr(model, key)) for key in _ARCH_SCHEMA}


def _layout(arch: dict, n_classes: int) -> Layout:
    out: Layout = {}
    in_ch = 1
    for i, out_ch in enumerate(arch["channels"]):
        for name, attr in _BLOCK_TENSORS.items():
            shape = (out_ch, in_ch, 3, 3) if attr == "w" else (out_ch,)
            out[f"block{i + 1}.{name}"] = (f"blocks.{i}.{attr}", shape)
        in_ch = out_ch
    out["dense_w"] = ("dense_w", (n_classes, in_ch))
    out["dense_b"] = ("dense_b", (n_classes,))
    return out


def _empty(arch: dict, **header) -> CnnModel:
    shape, pools = tuple(arch["input_shape"]), tuple(arch["pools"])
    check_spatial(shape, len(arch["channels"]), pools, FormatError)
    return CnnModel(
        blocks=[ConvBlock(*[None] * 6) for _ in arch["channels"]],
        dense_w=None,
        dense_b=None,
        **{key: tuple(arch[key]) for key in _ARCH_SCHEMA},
        **header,
    )


def _train(ds: TaskDataset, config: TrainConfig, **_) -> tuple[CnnModel, list[dict]]:
    return cnn_train(mel_inputs(ds.cells), ds.labels, ds.strata, ds.classes, config)


CNN_FAMILY = ModelFamily(
    kind="cnn",
    model_type=CnnModel,
    inputs=mel_inputs,
    input_shape=lambda model: tuple(model.input_shape),
    score=predict_cnn,
    arch=_arch,
    arch_schema=_ARCH_SCHEMA,
    layout=_layout,
    empty=_empty,
    train=_train,
    nonnegative=("running_var",),
)
