"""The row-conv kernel behind every fused ``Conv2d -> BatchNorm -> ReLU`` block.

``fused_conv_bn_relu`` runs every stride-1 ``(1, ℓ)`` conv block at inference
as one stacked GEMM that lands contiguous NCHW.  Pinned here against the
unfused modules under ``inference_mode``: parity over channel counts, heights,
kernel widths, paddings and input layouts (contiguous, channels-last strided,
an interior slab slice as the streaming trunk passes), contiguous output,
rows that do not depend on the batch width, and unfused execution of any
other conv shape.
"""

import numpy as np
import pytest

from repro.models import CCNNClassifier, MTEXCNNClassifier
from repro.nn import BatchNorm, Conv2d, ReLU, Sequential, Tensor, inference_mode
from repro.nn import functional as F
from repro.nn.functional import fused_conv_bn_relu
from repro.serve import probe_batch_parity

WIDTH = 24


def make_block(in_channels, kernel_size, stride=(1, 1), out_channels=5, seed=0,
               dtype=np.float64):
    """An eval-mode ``Sequential(Conv2d, BatchNorm, ReLU)`` with non-trivial
    BatchNorm statistics and "same" time padding."""
    rng = np.random.default_rng(seed)
    kh, kw = kernel_size
    conv = Conv2d(in_channels, out_channels, kernel_size, stride=stride,
                  padding=(0, kw // 2), rng=rng)
    bn = BatchNorm(out_channels)
    bn.running_mean = rng.standard_normal(out_channels)
    bn.running_var = rng.random(out_channels) + 0.5
    bn.weight.data = rng.standard_normal(out_channels)
    bn.bias.data = rng.standard_normal(out_channels)
    block = Sequential(conv, bn, ReLU()).eval()
    for parameter in (conv.weight, conv.bias, bn.weight, bn.bias):
        parameter.data = parameter.data.astype(dtype)
    bn.running_mean = bn.running_mean.astype(dtype)
    bn.running_var = bn.running_var.astype(dtype)
    return block


def unfused(block, x, padding=None):
    """The oracle: the block's modules one by one, conv padding overridable."""
    conv, bn, relu = block
    with inference_mode():
        out = F.conv2d(Tensor(x), conv.weight, conv.bias, conv.stride,
                       conv.padding if padding is None else padding)
        return relu(bn(out)).data


def layouts(x):
    """``x`` as the kernel meets it: contiguous, channels-last strided, and an
    interior slice of a wider slab."""
    channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    slab = np.zeros(x.shape[:-1] + (x.shape[-1] + 6,), dtype=x.dtype)
    slab[..., 3:-3] = x
    return {"contiguous": x, "channels_last": channels_last, "slab": slab[..., 3:-3]}


def relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / max(np.max(np.abs(expected)), 1e-300)


@pytest.mark.parametrize("in_channels", [1, 3, 16])
@pytest.mark.parametrize("height", [1, 4, 40])
@pytest.mark.parametrize("kernel_width", [1, 3, 5])
@pytest.mark.parametrize("padding", [None, (0, 0)])
def test_matches_the_unfused_modules(in_channels, height, kernel_width, padding):
    series = np.random.default_rng(1).standard_normal((3, in_channels, height, WIDTH))
    for dtype, tolerance in ((np.float64, 1e-12), (np.float32, 1e-5)):
        block = make_block(in_channels, (1, kernel_width), dtype=dtype)
        for name, x in layouts(series.astype(dtype)).items():
            expected = unfused(block, x, padding)
            actual = fused_conv_bn_relu(x, block[0], block[1], padding)
            assert actual.shape == expected.shape, name
            assert actual.dtype == expected.dtype, name
            assert actual.flags.c_contiguous, name
            assert relative_error(actual, expected) <= tolerance, name


def test_rows_are_bitwise_independent_of_batch_width():
    block = make_block(16, (1, 3))
    x = np.random.default_rng(2).standard_normal((32, 16, 4, WIDTH))
    full = fused_conv_bn_relu(x, block[0], block[1])
    for width in (1, 7, 32):
        parts = [fused_conv_bn_relu(x[start:start + width], block[0], block[1])
                 for start in range(0, 32, width)]
        assert np.array_equal(np.concatenate(parts), full)


@pytest.mark.parametrize("kernel_size, stride", [((2, 3), (1, 1)), ((1, 3), (1, 2))])
def test_other_conv_shapes_run_their_unfused_modules(kernel_size, stride):
    block = make_block(3, kernel_size, stride=stride)
    x = np.random.default_rng(3).standard_normal((2, 3, 4, WIDTH))
    with pytest.raises(ValueError, match=r"\(1, ℓ\)"):
        fused_conv_bn_relu(x, block[0], block[1])
    with inference_mode():
        actual = block(Tensor(x)).data
    assert np.array_equal(actual, unfused(block, x))


def test_refuses_an_input_with_the_wrong_channel_count():
    block = make_block(3, (1, 3))
    with pytest.raises(ValueError, match="4 channels but the conv expects 3"):
        fused_conv_bn_relu(np.zeros((1, 4, 2, WIDTH)), block[0], block[1])


@pytest.mark.parametrize("make_model", [
    lambda rng: CCNNClassifier(5, WIDTH, 3, filters=(4, 8), rng=rng),
    lambda rng: MTEXCNNClassifier(5, WIDTH, 3, rng=rng),
])
def test_serving_parity_probe_keeps_coalescing(make_model):
    report = probe_batch_parity(make_model(np.random.default_rng(4)).eval())
    assert report.classify is True
    assert report.explain is True
