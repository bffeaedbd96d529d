"""Bit-exactness of the training kernels against the implementations they replaced.

``F.batch_norm`` (training batch norm as one autograd node), the
strided-view ``F.max_pool2d``, the single-copy ``im2col`` and the
clipped ``col2im`` must reproduce, bit for bit, the composite graph,
the im2col/col2im pool and the slice-loop kernels they replaced: KD
refine's outputs (and with them the packed artifacts) may not change by
a single bit. The references below are those replaced implementations,
kept here.
"""

import numpy as np
import pytest

from repro.nn.layers import BatchNorm1d, BatchNorm2d
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.functional import col2im, conv_output_size, im2col
from tests.test_tensor_functional import check_grad


def composite_batch_norm(x, weight, bias, axes, shape, eps):
    """The composite training-mode graph ``_BatchNormBase`` used to build."""
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv_std = (var + eps) ** -0.5
    normalized = (x - mean) * inv_std
    return normalized * weight.reshape(shape) + bias.reshape(shape), mean.data, var.data


def im2col_max_pool2d(x, kernel, stride):
    """The im2col/argmax/col2im max pool ``F.max_pool2d`` used to be."""
    kernel, stride = F._pair(kernel), F._pair(stride)
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel[0], stride[0], 0)
    ow = conv_output_size(w, kernel[1], stride[1], 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, (0, 0))
    out = cols.max(axis=1).reshape(n, c, oh, ow)

    def backward(grad):
        arg = cols.argmax(axis=1)
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, arg[:, None, :], grad.reshape(n * c, 1, oh * ow), axis=1)
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, (0, 0))
        return ((x, grad_x.reshape(x.shape)),)

    return Tensor._make(out, (x,), backward, "max_pool2d")


def loop_im2col(x, kernel, stride, padding):
    """The ``np.pad`` + KH x KW slice-copy im2col ``F.im2col`` used to be."""
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
        for j in range(kw):
            cols[:, :, i, j, :, :] = x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols.reshape(n, c * kh * kw, oh * ow)


def loop_col2im(cols, input_shape, kernel, stride, padding):
    """The padded-buffer scatter-add col2im ``F.col2im`` used to be."""
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
        for j in range(kw):
            x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j, :, :]
    return x[:, :, ph : hp - ph, pw : wp - pw]


def _bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


BN_CASES = [
    ((7, 5), (0,)),  # BatchNorm1d
    ((4, 3, 6, 5), (0, 2, 3)),  # BatchNorm2d
]


class TestFusedBatchNorm:
    @pytest.mark.parametrize("x_shape,axes", BN_CASES)
    @pytest.mark.parametrize("leaf", [True, False])
    def test_bitwise_equal_to_composite(self, rng, x_shape, axes, leaf):
        data = rng.standard_normal(x_shape) * 3.0 + 1.5
        channels = x_shape[1]
        shape = tuple(1 if a in axes else s for a, s in enumerate(x_shape))
        w_data = rng.standard_normal(channels)
        b_data = rng.standard_normal(channels)
        upstream = rng.standard_normal(x_shape)
        scale = rng.standard_normal(x_shape)

        results = []
        for fused in (True, False):
            source = Tensor(data.copy(), requires_grad=True)
            # Non-leaf: BN sees the output of an op, as after a conv.
            x = source if leaf else source * Tensor(scale)
            weight = Tensor(w_data.copy(), requires_grad=True)
            bias = Tensor(b_data.copy(), requires_grad=True)
            if fused:
                out, mean, var = F.batch_norm(x, weight, bias, axes, 1e-5)
            else:
                out, mean, var = composite_batch_norm(x, weight, bias, axes, shape, 1e-5)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, mean, var, source.grad, weight.grad, bias.grad))
        for got, want in zip(*results):
            _bitwise(got, want)

    @pytest.mark.parametrize("cls,x_shape", [(BatchNorm1d, (9, 4)), (BatchNorm2d, (3, 4, 5, 5))])
    def test_module_running_stats_bitwise(self, rng, cls, x_shape):
        """Three training steps through the module update running stats
        exactly as the composite arithmetic would."""
        bn = cls(4)
        axes = (0,) if cls is BatchNorm1d else (0, 2, 3)
        shape = (1, 4) if cls is BatchNorm1d else (1, 4, 1, 1)
        running_mean, running_var = np.zeros(4), np.ones(4)
        for _ in range(3):
            data = rng.standard_normal(x_shape) * 2.0 - 0.5
            out = bn(Tensor(data, requires_grad=True))
            ref, mean, var = composite_batch_norm(
                Tensor(data), bn.weight, bn.bias, axes, shape, bn.eps
            )
            m = bn.momentum
            running_mean = (1 - m) * running_mean + m * mean.reshape(-1)
            running_var = (1 - m) * running_var + m * var.reshape(-1)
            _bitwise(out.data, ref.data)
            _bitwise(bn.running_mean, running_mean)
            _bitwise(bn.running_var, running_var)
        assert bn.num_batches_tracked[0] == 3

    @pytest.mark.parametrize("x_shape,axes", BN_CASES)
    def test_check_grad(self, rng, x_shape, axes):
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        weight = Tensor(rng.standard_normal(x_shape[1]), requires_grad=True)
        bias = Tensor(rng.standard_normal(x_shape[1]), requires_grad=True)
        upstream = Tensor(rng.standard_normal(x_shape))

        def loss():
            return (F.batch_norm(x, weight, bias, axes, 1e-5)[0] * upstream).sum()

        check_grad(loss, x, weight, bias, atol=1e-5)

    def test_input_without_grad_gets_none(self, rng):
        x = Tensor(rng.standard_normal((6, 3)))
        weight = Tensor(np.ones(3), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        out, _, _ = F.batch_norm(x, weight, bias, (0,), 1e-5)
        out.sum().backward()
        assert x.grad is None
        assert weight.grad is not None and bias.grad is not None


POOL_CASES = [
    ((2, 3, 8, 8), 2, 2),  # the VGG pool
    ((2, 3, 9, 7), 3, 2),  # overlapping windows, non-dividing sizes
    ((2, 2, 6, 6), 2, 1),  # heavy overlap
    ((1, 2, 7, 9), 2, 2),  # trailing row/column outside every window
    ((1, 2, 5, 5), 1, 1),  # 1x1: identity
]


class TestStridedMaxPool:
    @pytest.mark.parametrize("x_shape,kernel,stride", POOL_CASES)
    def test_bitwise_equal_to_im2col_on_ties(self, rng, x_shape, kernel, stride):
        # Post-ReLU, quantized-like values: many zeros (with -0.0 from
        # relu's mask multiply) and repeated levels, so most windows tie.
        pre = Tensor(np.round(rng.standard_normal(x_shape) * 2.0) / 2.0)
        data = pre.relu().data
        upstream = rng.standard_normal(
            (x_shape[0], x_shape[1],
             conv_output_size(x_shape[2], kernel, stride, 0),
             conv_output_size(x_shape[3], kernel, stride, 0))
        )
        results = []
        for pool in (F.max_pool2d, im2col_max_pool2d):
            x = Tensor(data.copy(), requires_grad=True)
            out = pool(x, kernel, stride)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, x.grad))
        (out_new, grad_new), (out_ref, grad_ref) = results
        np.testing.assert_array_equal(out_new, out_ref)
        _bitwise(grad_new, grad_ref)

    def test_tie_routes_to_first_maximum(self):
        x = Tensor(np.array([[[[1.0, 1.0], [1.0, 1.0]]]]), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("x_shape,kernel,stride", POOL_CASES[:3])
    def test_check_grad(self, rng, x_shape, kernel, stride):
        # Distinct values keep the finite difference away from ties.
        x = Tensor(rng.permutation(np.prod(x_shape)).reshape(x_shape) * 0.1, requires_grad=True)
        check_grad(lambda: (F.max_pool2d(x, kernel, stride) ** 2).sum(), x, atol=1e-4)


# Kernel (KH, KW), stride and padding pairs: square, 1x1, non-square and
# asymmetric; each runs at batch 1 and 100, on float64 and int64 (the
# integer backend unfolds integer codes).
UNFOLD_GEOMETRIES = [
    ((kh, kw), (s, s), (p, p))
    for kh, kw in [(3, 3), (1, 1), (2, 3), (3, 1)]
    for s in (1, 2)
    for p in (0, 1, 2)
] + [((3, 2), (1, 2), (0, 1)), ((2, 2), (2, 1), (1, 0))]
UNFOLD_BATCH_DTYPES = [(1, np.float64), (100, np.float64), (1, np.int64), (100, np.int64)]


def _unfold_input(rng, batch, dtype, shape=(3, 7, 6)):
    values = rng.standard_normal((batch,) + shape) * 4.0
    if dtype == np.int64:
        return np.round(values).astype(np.int64)
    # Signed zeros must survive the copy bitwise.
    values[values < -3.0] = -0.0
    return values


def _unfold_output_size(shape, kernel, stride, padding):
    return (
        conv_output_size(shape[-2], kernel[0], stride[0], padding[0])
        * conv_output_size(shape[-1], kernel[1], stride[1], padding[1])
    )


class TestUnfoldKernels:
    @pytest.mark.parametrize("kernel,stride,padding", UNFOLD_GEOMETRIES)
    @pytest.mark.parametrize("batch,dtype", UNFOLD_BATCH_DTYPES)
    def test_im2col_bitwise_equal_to_loop(self, rng, kernel, stride, padding, batch, dtype):
        x = _unfold_input(rng, batch, dtype)
        cols = im2col(x, kernel, stride, padding)
        _bitwise(cols, loop_im2col(x, kernel, stride, padding))
        assert cols.flags.c_contiguous and cols.flags.writeable
        assert not np.shares_memory(cols, x)

    @pytest.mark.parametrize("kernel,stride,padding", UNFOLD_GEOMETRIES)
    @pytest.mark.parametrize("batch,dtype", UNFOLD_BATCH_DTYPES)
    def test_col2im_bitwise_equal_to_loop(self, rng, kernel, stride, padding, batch, dtype):
        shape = (batch, 3, 7, 6)
        rows = 3 * kernel[0] * kernel[1]
        cols = _unfold_input(
            rng, batch, dtype, (rows, _unfold_output_size(shape, kernel, stride, padding))
        )
        _bitwise(
            col2im(cols, shape, kernel, stride, padding),
            np.ascontiguousarray(loop_col2im(cols, shape, kernel, stride, padding)),
        )

    @pytest.mark.parametrize("kernel,stride,padding", UNFOLD_GEOMETRIES)
    def test_adjoint_identity(self, rng, kernel, stride, padding):
        shape = (2, 3, 7, 6)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(
            (2, 3 * kernel[0] * kernel[1], _unfold_output_size(shape, kernel, stride, padding))
        )
        lhs = float(np.sum(im2col(x, kernel, stride, padding) * y))
        rhs = float(np.sum(x * col2im(y, shape, kernel, stride, padding)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("kernel", [(1, 1), (7, 6)])
    def test_im2col_copies_when_a_reshape_would_alias(self, rng, kernel):
        # A 1x1 kernel, or one covering the whole image, unpadded at
        # stride 1 is a plain reshape of the input: it must still copy.
        x = rng.standard_normal((2, 3, 7, 6))
        cols = im2col(x, kernel, (1, 1), (0, 0))
        _bitwise(cols, loop_im2col(x, kernel, (1, 1), (0, 0)))
        assert not np.shares_memory(cols, x)
        cols[...] = 0.0
        assert np.any(x != 0.0)

    def test_im2col_of_strided_read_only_view(self, rng):
        base = rng.standard_normal((6, 2, 8, 7))
        x = base[::2, :, ::-1, :].transpose(0, 1, 3, 2)
        x.flags.writeable = False
        cols = im2col(x, (3, 2), (2, 1), (1, 1))
        _bitwise(cols, loop_im2col(x, (3, 2), (2, 1), (1, 1)))
        assert cols.flags.writeable and not np.shares_memory(cols, base)
