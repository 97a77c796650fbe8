"""The fused training-mode BatchNorm(+ReLU) node against the composed graph.

The node replays the composed graph's operations in order, in place where
only elementwise operations read a result, so forward values, running
statistics and all three gradients must be bitwise equal to it.  Covered:
float64 and float32; 2D, 3D and 4D inputs; a batch count that is not a power
of two; contiguous inputs, channels-last views and strided slices (every
reduction's rounding depends on its operand's layout); incoming gradients in
those layouts; a channel the ReLU zeroes entirely; and the InceptionTime
``concatenate → BatchNorm → ReLU`` tail.  A ``tracemalloc`` bound pins the
node's working set.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.fused import batch_norm_training, concat_batch_norm_relu, fused_training
from repro.nn.layers import BatchNorm

SHAPES = [(7, 5), (3, 4, 13), (12, 3, 200), (5, 6, 3, 11), (6, 4, 5, 40)]


def in_layout(data, layout):
    """``data`` (C order) re-laid out as a channels-last view or a strided slice."""
    if layout == "channels_last" and data.ndim > 2:
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(data, 1, -1)), -1, 1)
    if layout == "strided" and data.ndim > 2:
        padded = np.zeros(data.shape[:-1] + (data.shape[-1] + 3,), data.dtype)
        padded[..., 1:-2] = data
        return padded[..., 1:-2]
    return data


def make_bn(channels, dtype, seed, dead_channel=False):
    rng = np.random.default_rng(seed)
    bn = BatchNorm(channels)
    bn.weight.data = rng.normal(1.0, 0.3, channels).astype(dtype)
    bn.bias.data = rng.normal(0.0, 0.2, channels).astype(dtype)
    if dead_channel:  # channel 1 normalises to -1 everywhere: the ReLU zeroes it
        bn.weight.data[1], bn.bias.data[1] = 0.0, -1.0
    bn.running_mean = bn.running_mean.astype(dtype)
    bn.running_var = bn.running_var.astype(dtype)
    return bn


def run(fused, x_data, grad, relu, dead_channel=False, seed=0):
    """Forward value, input/weight/bias gradients and running statistics."""
    bn = make_bn(x_data.shape[1], x_data.dtype, seed, dead_channel)
    x = Tensor(x_data, requires_grad=True)
    if fused:
        with fused_training():
            out = batch_norm_training(bn, x, relu=relu)
        assert out.name == ("batch_norm_relu" if relu else "batch_norm")
    else:
        out = bn.forward(x)
        out = out.relu() if relu else out
    out.backward(grad)
    return out.data, x.grad, bn.weight.grad, bn.bias.grad, bn.running_mean, bn.running_var


def assert_bitwise(composed, fused):
    for expected, actual in zip(composed, fused):
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("x_layout", ["contiguous", "channels_last", "strided"])
@pytest.mark.parametrize("relu", [False, True])
def test_bitwise_equal_to_the_composed_graph(dtype, shape, x_layout, relu):
    rng = np.random.default_rng(list(shape) + [len(x_layout)])
    x_data = in_layout(rng.standard_normal(shape).astype(dtype), x_layout)
    raw_grad = rng.standard_normal(shape).astype(dtype)
    for grad_layout in ("contiguous", "channels_last", "strided"):
        grad = in_layout(raw_grad, grad_layout)
        assert_bitwise(run(False, x_data, grad, relu), run(True, x_data, grad, relu))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(7, 5), (5, 6, 13), (6, 4, 5, 40)])
def test_channel_zeroed_by_the_relu(dtype, shape):
    rng = np.random.default_rng(1)
    x_data = rng.standard_normal(shape).astype(dtype)
    grad = rng.standard_normal(shape).astype(dtype)
    composed = run(False, x_data, grad, True, dead_channel=True)
    assert not composed[0][:, 1].any()  # the ReLU really zeroed channel 1
    assert_bitwise(composed, run(True, x_data, grad, True, dead_channel=True))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("spatial", [(13,), (3, 11)])
def test_concat_batch_norm_relu(dtype, spatial):
    rng = np.random.default_rng(2)
    branches = [rng.standard_normal((5, channels) + spatial).astype(dtype) for channels in (3, 4, 2)]
    grad = rng.standard_normal((5, 9) + spatial).astype(dtype)

    def go(fused):
        bn = make_bn(9, dtype, seed=3)
        inputs = [Tensor(branch, requires_grad=True) for branch in branches]
        if fused:
            with fused_training():
                out = concat_batch_norm_relu(inputs, bn, axis=1)
            assert out.name == "concat_batch_norm_relu"
        else:
            out = bn(Tensor.concatenate(inputs, axis=1)).relu()
        out.backward(grad)
        return ([out.data] + [tensor.grad for tensor in inputs]
                + [bn.weight.grad, bn.bias.grad, bn.running_mean, bn.running_var])

    assert_bitwise(go(False), go(True))


def test_forward_and_backward_working_set():
    """One forward + backward holds about six input-sized arrays at its peak."""
    shape = (16, 16, 8, 64)
    rng = np.random.default_rng(4)
    x_data, grad = rng.standard_normal(shape), rng.standard_normal(shape)
    bn = make_bn(shape[1], np.float64, seed=5)
    x = Tensor(x_data, requires_grad=True)
    tracemalloc.start()
    try:
        with fused_training():
            out = batch_norm_training(bn, x, relu=True)
        out._backward_fn(grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * x_data.nbytes
