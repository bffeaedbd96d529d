"""Differentiable neural-network operations built on :class:`~repro.tensor.Tensor`.

Contains the convolution (im2col based), pooling and training batch-norm
kernels and the numerically stable softmax-family primitives used by the
losses. Each primitive registers a closed-form backward closure;
composite functions (cross entropy, KL divergence) are assembled from
primitives so their gradients follow automatically.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.tensor.tensor import Tensor, _axis_size, unbroadcast

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    pair = tuple(value)
    if len(pair) != 2:
        raise ValueError(f"expected an int or a pair, got {value!r}")
    return pair


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size: input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> np.ndarray:
    """Unfold NCHW input into convolution columns.

    Returns an array of shape ``(N, C * KH * KW, OH * OW)`` where column
    ``o`` holds the receptive field of output position ``o``.
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:sh, j:j_end:sw]
    return cols.reshape(n, c * kh * kw, oh * ow)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = input_shape
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            x[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph or pw:
        x = x[:, :, ph : hp - ph, pw : wp - pw]
    return x


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-filter bias of shape ``(C_out,)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(
            f"input has {c_in} channels but weight expects {c_in_w}"
        )
    oh = conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_output_size(w, kw, stride[1], padding[1])

    cols = im2col(x.data, (kh, kw), stride, padding)  # (N, C*KH*KW, OH*OW)
    w2 = weight.data.reshape(c_out, -1)  # (F, C*KH*KW)
    # Broadcast matmul, not einsum: same contraction, but matmul skips
    # einsum's dispatch overhead (~3x on this shape), which is what
    # batched serving (repro.serve) amortizes across coalesced requests.
    out = np.matmul(w2, cols)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    out = out.reshape(n, c_out, oh, ow)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad2 = grad.reshape(n, c_out, oh * ow)
        # matmul(...).sum(0) would not be bit-exact with this einsum.
        grad_w = np.einsum("nfo,nko->fk", grad2, cols, optimize=True)
        grad_x = None  # the network input (first conv) needs no gradient
        if x.requires_grad:
            grad_cols = np.matmul(w2.T, grad2)
            grad_x = col2im(grad_cols, x.shape, (kh, kw), stride, padding)
        results = [(x, grad_x), (weight, grad_w.reshape(weight.shape))]
        if bias is not None:
            results.append((bias, grad2.sum(axis=(0, 2))))
        return tuple(results)

    return Tensor._make(out, parents, backward, "conv2d")


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def _pool_views(
    data: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], oh: int, ow: int
) -> list:
    """The KH*KW strided ``(N, C, OH, OW)`` views of a pooling window, in
    (i, j) order — the order im2col lays out a column."""
    sh, sw = stride
    return [
        data[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
        for i in range(kernel[0])
        for j in range(kernel[1])
    ]


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over NCHW input.

    The forward is a running ``np.maximum`` over the window's strided
    views, so no im2col copy of the input is made. The backward routes
    each output's gradient to the *first* maximum of its window in
    (i, j) order (``argmax`` semantics) and accumulates into the input
    views in col2im's order, so overlapping windows sum bit-exactly as
    an im2col/col2im pool would. A window whose maximum is NaN routes no
    gradient.
    """
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    h, w = x.shape[2:]
    oh = conv_output_size(h, kernel[0], stride[0], 0)
    ow = conv_output_size(w, kernel[1], stride[1], 0)

    views = _pool_views(x.data, kernel, stride, oh, ow)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)

    def backward(grad):
        grad_x = np.zeros_like(x.data)
        unclaimed = np.ones(out.shape, dtype=bool)
        for view, grad_view in zip(views, _pool_views(grad_x, kernel, stride, oh, ow)):
            winner = (view == out) & unclaimed
            unclaimed &= ~winner
            grad_view += grad * winner
        return ((x, grad_x),)

    return Tensor._make(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over NCHW input."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride[0], 0)
    ow = conv_output_size(w, kw, stride[1], 0)
    area = kh * kw

    flat = x.data.reshape(n * c, 1, h, w)
    cols = im2col(flat, kernel, stride, (0, 0))
    out = cols.mean(axis=1).reshape(n, c, oh, ow)

    def backward(grad):
        grad_flat = grad.reshape(n * c, 1, oh * ow) / area
        grad_cols = np.broadcast_to(grad_flat, (n * c, area, oh * ow)).copy()
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, (0, 0))
        return ((x, grad_x.reshape(x.shape)),)

    return Tensor._make(out, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Batch normalisation (training mode)
# ----------------------------------------------------------------------
def batch_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    axes: Tuple[int, ...],
    eps: float,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Training-mode batch norm with batch statistics over ``axes``.

    Returns ``(out, mean, var)``: the normalised, affine-transformed
    output and the biased batch statistics (keepdims shape) for the
    running averages.

    One autograd node that repeats, operation for operation, the
    composite graph ``(x - mean(x)) * (var(x) + eps) ** -0.5 * w + b``
    with ``var(x) = mean((x - mean(x)) ** 2)``, so forward and gradients
    are bit-identical to it. In particular x's gradient sums the four
    paths in the order the composite's backward visits them: the
    ``x - mean`` path, its ``mean``, the centred path of the variance,
    then its ``mean``.
    """
    shape = tuple(x.shape[a] if a not in axes else 1 for a in range(x.ndim))
    count = _axis_size(x.shape, axes)
    mean = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    var_eps = var + np.asarray(eps)  # a 0-d array promotes as Tensor(eps) did
    inv_std = np.power(var_eps, -0.5)
    normalized = centered * inv_std
    w = weight.data.reshape(shape)
    out = normalized * w + bias.data.reshape(shape)

    def backward(grad):
        grad_bias = unbroadcast(grad, shape).reshape(bias.shape)
        grad_weight = unbroadcast(grad * normalized, shape).reshape(weight.shape)
        grad_x = None
        if x.requires_grad:
            # A mean's gradient is the composite's expanded copy divided by
            # ``count``; dividing the reduced array and broadcasting gives
            # the same value in every element, without the full-size copy.
            grad_norm = grad * w
            grad_centered = grad_norm * inv_std
            grad_inv_std = unbroadcast(grad_norm * centered, shape)
            grad_var = grad_inv_std * -0.5 * np.power(var_eps, -1.5)
            grad_var_centered = 2.0 * ((grad_var / count) * centered)
            grad_x = grad_centered + unbroadcast(-grad_centered, shape) / count
            grad_x += grad_var_centered
            grad_x += unbroadcast(-grad_var_centered, shape) / count
        return ((x, grad_x), (weight, grad_weight), (bias, grad_bias))

    return Tensor._make(out, (x, weight, bias), backward, "batch_norm"), mean, var


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape ``(out, in)``."""
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    log_z = np.log(exp.sum(axis=axis, keepdims=True))
    result = shifted - log_z
    softmax_vals = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        return ((x, grad - softmax_vals * grad.sum(axis=axis, keepdims=True)),)

    return Tensor._make(result, (x,), backward, "log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with closed-form Jacobian-vector backward."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    result = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        inner = (grad * result).sum(axis=axis, keepdims=True)
        return ((x, result * (grad - inner)),)

    return Tensor._make(result, (x,), backward, "softmax")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, M) and integer ``labels`` (N,)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits "
            f"shape {logits.shape}"
        )
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(labels.shape[0]), labels.astype(np.int64)]
    return -picked.mean()


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given log-probabilities."""
    labels = np.asarray(labels).astype(np.int64)
    picked = log_probs[np.arange(labels.shape[0]), labels]
    return -picked.mean()


def kl_divergence(teacher_logits: Tensor, student_logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Batch-mean ``KL(softmax(teacher/T) || softmax(student/T))``.

    This is the standard knowledge-distillation divergence (Hinton et
    al.). Gradients flow into ``student_logits`` only: the teacher is
    detached, matching the paper's refining phase where the
    full-precision teacher is frozen.

    Note on eq. (10): the paper writes ``sum_k Y_k log(Y^fc_k / Y_k)``,
    which is *minus* a KL divergence — minimising it as printed would
    push the student away from the teacher. We implement the standard
    (intended) direction and record the discrepancy in EXPERIMENTS.md.
    """
    teacher = teacher_logits.detach()
    t_probs = softmax(teacher * (1.0 / temperature), axis=1)
    s_log_probs = log_softmax(student_logits * (1.0 / temperature), axis=1)
    t_log_probs = log_softmax(teacher * (1.0 / temperature), axis=1)
    per_sample = (t_probs * (t_log_probs - s_log_probs)).sum(axis=1)
    return per_sample.mean() * (temperature * temperature)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels (N,) to one-hot float array (N, num_classes)."""
    labels = np.asarray(labels).astype(np.int64)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def accuracy(logits: Union[Tensor, np.ndarray], labels: np.ndarray) -> float:
    """Top-1 classification accuracy in ``[0, 1]``."""
    values = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = values.argmax(axis=1)
    return float((predictions == np.asarray(labels)).mean())


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad):
        return ((x, grad * mask),)

    return Tensor._make(x.data * mask, (x,), backward, "dropout")
