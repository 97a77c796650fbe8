"""The training conv's row-layout im2col / col2im, against a channels-last oracle.

The training conv builds a ``(B, C·kh·kw, out_h·out_w)`` column matrix and
lands its output contiguous NCHW.  The oracle here is the earlier
channels-last formulation — ``(B, out_h, out_w, C·kh·kw)`` columns, an
``(B·H·W, C·kh·kw) @ Wᵀ`` product returned as a transposed view — kept in the
tests only.  Both compute the same sums in a different order, so forward and
gradients agree to float round-off; the graph-free grad-CAM input gradient
adds the same numbers in the same order, so it agrees bit for bit.
"""

import numpy as np
import pytest

from repro.nn import Tensor, Workspace
from repro.nn import functional as F
from repro.nn.fused import fused_training

TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def oracle_im2col(x, kernel, stride, padding):
    windows, (out_h, out_w) = F._conv_windows(x, kernel, stride, padding)
    batch, channels = x.shape[:2]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h, out_w, channels * kernel[0] * kernel[1])
    return np.ascontiguousarray(cols), (out_h, out_w)


def oracle_col2im(cols, input_shape, kernel, stride, padding):
    batch, channels, height, width = input_shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    grad_padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw), cols.dtype)
    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += \
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return grad_padded[:, :, ph:ph + height, pw:pw + width]


def oracle_conv(x, weight, bias, stride, padding, grad):
    """Channels-last conv forward and its ``(input, weight, bias)`` gradients."""
    kernel = weight.shape[2:]
    out_channels = weight.shape[0]
    cols, (out_h, out_w) = oracle_im2col(x, kernel, stride, padding)
    weight_2d = weight.reshape(out_channels, -1)
    cols_2d = cols.reshape(-1, weight_2d.shape[1])
    out = (cols_2d @ weight_2d.T).reshape(len(x), out_h, out_w, out_channels)
    out = out.transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.reshape(1, out_channels, 1, 1)
    grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_weight = (grad_flat.T @ cols_2d).reshape(weight.shape)
    grad_cols = (grad_flat @ weight_2d).reshape(len(x), out_h, out_w, -1)
    grad_input = oracle_col2im(grad_cols, x.shape, kernel, stride, padding)
    grad_bias = None if bias is None else grad.sum(axis=(0, 2, 3))
    return out, grad_input, grad_weight, grad_bias


def assert_close(actual, expected, dtype):
    assert actual.dtype == expected.dtype == dtype
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= TOLERANCE[dtype] * scale


#: (case, input shape, weight shape, stride, padding, bias)
CASES = [
    ("row_kernel_padded", (4, 3, 5, 20), (6, 3, 1, 7), (1, 1), (0, 3), True),
    ("mtex_merge", (4, 6, 5, 20), (8, 6, 5, 1), (1, 1), (0, 0), True),
    ("stride_2", (3, 2, 9, 17), (4, 2, 3, 3), (2, 2), (1, 1), True),
    ("no_bias", (4, 3, 5, 20), (6, 3, 1, 5), (1, 1), (0, 2), False),
]


def make_case(input_shape, weight_shape, bias, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(input_shape).astype(dtype)
    weight = rng.standard_normal(weight_shape).astype(dtype)
    b = rng.standard_normal(weight_shape[0]).astype(dtype) if bias else None
    return rng, x, weight, b


def run_train(x, weight, b, stride, padding, grad):
    """``_conv2d_train`` forward, then its ``(input, weight, bias)`` gradients."""
    out, backward = F._conv2d_train(x, weight, weight.shape, b, stride, padding, True)
    return (out,) + backward(grad) + ((None,) if b is None else ())


def output_grad(rng, x, weight, stride, padding):
    out_h = (x.shape[2] + 2 * padding[0] - weight.shape[2]) // stride[0] + 1
    out_w = (x.shape[3] + 2 * padding[1] - weight.shape[3]) // stride[1] + 1
    return rng.standard_normal((len(x), weight.shape[0], out_h, out_w)).astype(x.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case, input_shape, weight_shape, stride, padding, bias", CASES,
                         ids=[case[0] for case in CASES])
class TestConv2dTrain:
    def test_matches_the_channels_last_oracle(self, case, input_shape, weight_shape,
                                              stride, padding, bias, dtype):
        rng, x, weight, b = make_case(input_shape, weight_shape, bias, dtype)
        grad = output_grad(rng, x, weight, stride, padding)
        actual = run_train(x, weight, b, stride, padding, grad)
        expected = oracle_conv(x, weight, b, stride, padding, grad)
        assert actual[0].flags.c_contiguous
        for got, want in zip(actual, expected):
            if want is None:
                assert got is None
            else:
                assert_close(got, want, dtype)
        # A first layer skips the input gradient; the others are unchanged.
        _, backward = F._conv2d_train(x, weight, weight.shape, b, stride, padding, False)
        skipped = backward(grad)
        assert skipped[0] is None
        for got, want in zip(skipped[1:], actual[2:]):
            assert np.array_equal(got, want)

    def test_workspace_is_bit_neutral(self, case, input_shape, weight_shape,
                                      stride, padding, bias, dtype):
        rng, x, weight, b = make_case(input_shape, weight_shape, bias, dtype)
        grad = output_grad(rng, x, weight, stride, padding)
        plain = run_train(x, weight, b, stride, padding, grad)
        workspace = Workspace()
        for _ in range(2):  # the second step reuses the first step's buffers
            with fused_training(workspace):
                pooled = run_train(x, weight, b, stride, padding, grad)
            workspace.release_all()
        assert workspace.allocations == 2  # the im2col and the col2im image
        for got, want in zip(pooled, plain):
            assert (got is None and want is None) or np.array_equal(got, want)


@pytest.mark.parametrize("case, input_shape, weight_shape, stride, padding, bias", CASES,
                         ids=[case[0] for case in CASES])
def test_conv2d_input_grad_is_bitwise_the_oracle(case, input_shape, weight_shape,
                                                 stride, padding, bias):
    rng, x, weight, _ = make_case(input_shape, weight_shape, bias, np.float64)
    grad = output_grad(rng, x, weight, stride, padding)
    grad_cols = np.einsum("bohw,oc->bhwc", grad, weight.reshape(len(weight), -1))
    expected = oracle_col2im(grad_cols, x.shape, weight.shape[2:], stride, padding)
    actual = F.conv2d_input_grad(grad, weight, x.shape, stride, padding)
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("fused", [False, True])
def test_conv1d_matches_the_oracle(fused, dtype):
    """``conv1d`` is the ``(1, ℓ)`` conv over an inserted height axis, fused or not."""
    rng, x, weight, b = make_case((4, 3, 20), (5, 3, 7), True, dtype)
    grad = rng.standard_normal((4, 5, 10)).astype(dtype)
    expected = oracle_conv(x[:, :, None, :], weight[:, :, None, :], b, (1, 2), (0, 3),
                           grad[:, :, None, :])
    xt = Tensor(x, requires_grad=True)
    wt, bt = Tensor(weight, requires_grad=True), Tensor(b, requires_grad=True)
    if fused:
        with fused_training():
            out = F.conv1d(xt, wt, bt, stride=2, padding=3)
    else:
        out = F.conv1d(xt, wt, bt, stride=2, padding=3)
    assert out.data.flags.c_contiguous
    (out * Tensor(grad)).sum().backward()
    assert_close(out.data, expected[0][:, :, 0], dtype)
    assert_close(xt.grad, expected[1][:, :, 0], dtype)
    assert_close(wt.grad, expected[2][:, :, 0], dtype)
    assert_close(bt.grad, expected[3], dtype)
