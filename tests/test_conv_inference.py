"""The inference conv and the inference max pool of the generic trunks.

ResNet and InceptionTime (all three variants) run :func:`F.conv2d` rather
than the row kernel at inference.  Pinned here: it is one GEMM per batch item
over the row-layout im2col, so its rows do not depend on the batch width and
it lands contiguous NCHW; it matches the earlier ``einsum`` contraction
(``tests/oracles/conv.py``) to float round-off; every explainable
architecture passes the serving parity probe; and the inception pool branch
runs the one-node "same" max pool at inference, bit for bit equal to the
composed ``pad → max_pool``.
"""

import numpy as np
import pytest

from oracles.conv import conv2d_einsum
from repro.models.registry import create_model, explainer_family_of_model, MODEL_REGISTRY
from repro.models.inception import InceptionModule
from repro.nn import Tensor, inference_mode
from repro.nn import functional as F
from repro.serve import probe_batch_parity

TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}

#: (in_channels, out_channels, kernel, stride, padding, height, width)
CONVS = [
    (3, 5, (1, 3), (1, 1), (0, 1), 4, 24),
    (6, 4, (1, 9), (1, 1), (0, 4), 1, 40),
    (2, 3, (3, 3), (1, 1), (1, 1), 5, 17),
    (4, 6, (2, 3), (1, 2), (0, 0), 6, 21),
    (8, 8, (1, 1), (1, 1), (0, 0), 3, 30),
]


def make_conv(in_channels, out_channels, kernel, seed=0, dtype=np.float64, bias=True):
    rng = np.random.default_rng(seed)
    weight = rng.standard_normal((out_channels, in_channels) + kernel).astype(dtype)
    return weight, (rng.standard_normal(out_channels).astype(dtype) if bias else None)


def run_conv(x, weight, bias, stride, padding):
    with inference_mode():
        return F.conv2d(Tensor(x), Tensor(weight), None if bias is None else Tensor(bias),
                        stride=stride, padding=padding).data


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("spec", CONVS)
def test_rows_do_not_depend_on_the_batch_width(spec, dtype):
    in_channels, out_channels, kernel, stride, padding, height, width = spec
    weight, bias = make_conv(in_channels, out_channels, kernel, dtype=dtype)
    x = np.random.default_rng(1).standard_normal((32, in_channels, height, width)).astype(dtype)
    wide = run_conv(x, weight, bias, stride, padding)
    assert wide.flags.c_contiguous
    for batch in (1, 7):
        for start in range(0, 32, batch):
            narrow = run_conv(x[start:start + batch], weight, bias, stride, padding)
            assert np.array_equal(narrow, wide[start:start + batch])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("spec", CONVS)
def test_matches_the_einsum_oracle(spec, with_bias, dtype):
    in_channels, out_channels, kernel, stride, padding, height, width = spec
    weight, bias = make_conv(in_channels, out_channels, kernel, dtype=dtype, bias=with_bias)
    x = np.random.default_rng(2).standard_normal((3, in_channels, height, width)).astype(dtype)
    actual = run_conv(x, weight, bias, stride, padding)
    expected = conv2d_einsum(x, weight, bias, stride, padding)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.max(np.abs(actual - expected)) <= TOLERANCE[dtype] * np.max(np.abs(expected))


def test_conv1d_inference_matches_the_einsum_oracle():
    weight, bias = make_conv(4, 6, (5,), seed=3)
    x = np.random.default_rng(4).standard_normal((3, 4, 30))
    with inference_mode():
        actual = F.conv1d(Tensor(x), Tensor(weight), Tensor(bias), padding=2).data
    expected = conv2d_einsum(x[:, :, None, :], weight[:, :, None, :], bias, (1, 1), (0, 2))[:, :, 0]
    assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))


EXPLAINABLE = sorted(name for name in MODEL_REGISTRY if explainer_family_of_model(name))

SMALL_KWARGS = {
    "cnn": {"filters": (4, 6)}, "ccnn": {"filters": (4, 6)}, "dcnn": {"filters": (4, 6)},
    "resnet": {"filters": (4, 4, 4)}, "cresnet": {"filters": (4, 4, 4)},
    "dresnet": {"filters": (4, 4, 4)},
    "inceptiontime": {"depth": 3, "n_filters": 3},
    "cinceptiontime": {"depth": 3, "n_filters": 3},
    "dinceptiontime": {"depth": 3, "n_filters": 3},
    "mtex": {"block1_filters": (3, 4), "block2_filters": 4, "hidden_units": 8},
}


def test_every_explainable_architecture_is_covered():
    assert set(EXPLAINABLE) == set(SMALL_KWARGS)


@pytest.mark.parametrize("name", EXPLAINABLE)
def test_serving_parity_probe_passes(name):
    model = create_model(name, 4, 20, 3, rng=np.random.default_rng(5), **SMALL_KWARGS[name])
    report = probe_batch_parity(model.eval())
    assert report.classify is True
    assert report.explain is True


@pytest.mark.parametrize("two_dimensional", [False, True])
def test_inception_pool_at_inference_equals_the_composed_pool(two_dimensional):
    module = InceptionModule(3, 2, [3], two_dimensional, np.random.default_rng(6))
    shape = (2, 3, 4, 11) if two_dimensional else (2, 3, 11)
    # Integer values force ties; max does not round, so the kernels agree exactly.
    data = np.random.default_rng(7).integers(-3, 4, size=shape).astype(float)
    with inference_mode():
        pooled = module._max_pool(Tensor(data))
    assert pooled.name == "same_max_pool3"
    x = Tensor(data, requires_grad=True)
    if two_dimensional:
        composed = F.max_pool2d(x.pad(((0, 0), (0, 0), (0, 0), (1, 1))), (1, 3), (1, 1))
    else:
        composed = F.max_pool1d(x.pad(((0, 0), (0, 0), (1, 1))), 3, 1)
    assert np.array_equal(pooled.data, composed.data)
    # With a graph to record (and no fused training), the composed path runs.
    assert module._max_pool(x).name != "same_max_pool3"
