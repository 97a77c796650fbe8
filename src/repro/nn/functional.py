"""Neural-network operations on :class:`~repro.nn.tensor.Tensor` objects.

The convolution implementations use an im2col / col2im strategy so that the
heavy lifting is done by vectorised NumPy matrix multiplications, which keeps
CPU-only training of the paper's architectures tractable.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import fused as _fused
from .tensor import Tensor, is_grad_enabled


# ---------------------------------------------------------------------------
# im2col / col2im helpers (2D)
# ---------------------------------------------------------------------------
def _conv_windows(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Zero-pad ``x`` and expose its sliding conv patches as a strided view.

    Returns ``windows`` of shape ``(batch, channels, out_h, out_w, kh, kw)``
    (no data copied) and the spatial output shape ``(out_h, out_w)``.
    """
    batch, channels, height, width = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        # Faster than np.pad, which carries significant per-call overhead.
        padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw), dtype=x.dtype)
        padded[:, :, ph: ph + height, pw: pw + width] = x
        x = padded
    padded_h, padded_w = x.shape[2], x.shape[3]
    out_h = (padded_h - kh) // sh + 1
    out_w = (padded_w - kw) // sw + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    return windows, (out_h, out_w)


def _im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    workspace=None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(batch, channels, height, width)``.
    kernel, stride, padding:
        Kernel size, stride and zero padding as ``(vertical, horizontal)``.
    workspace:
        Optional :class:`~repro.nn.workspace.Workspace`; when given, the
        column matrix is written into a checked-out scratch buffer instead of
        a fresh allocation (contents and layout are identical).

    Returns
    -------
    cols:
        Array of shape ``(batch, out_h, out_w, channels * kh * kw)``.
    out_shape:
        The spatial output shape ``(out_h, out_w)``.
    """
    batch, channels = x.shape[0], x.shape[1]
    kh, kw = kernel
    windows, (out_h, out_w) = _conv_windows(x, kernel, stride, padding)
    # (batch, out_h, out_w, channels, kh, kw) -> columns
    if workspace is not None:
        cols = workspace.acquire((batch, out_h, out_w, channels * kh * kw), x.dtype)
        np.copyto(cols.reshape(batch, out_h, out_w, channels, kh, kw),
                  windows.transpose(0, 2, 3, 1, 4, 5))
        return cols, (out_h, out_w)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h, out_w, channels * kh * kw
    )
    return np.ascontiguousarray(cols), (out_h, out_w)


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    workspace=None,
) -> np.ndarray:
    """Scatter column gradients back to image gradients (inverse of im2col)."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    out_h = (padded_h - kh) // sh + 1
    out_w = (padded_w - kw) // sw + 1
    if workspace is not None:
        grad_padded = workspace.acquire((batch, channels, padded_h, padded_w),
                                        cols.dtype)
        grad_padded.fill(0)
    else:
        grad_padded = np.zeros((batch, channels, padded_h, padded_w), dtype=cols.dtype)
    # cols: (batch, out_h, out_w, channels * kh * kw)
    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    for i in range(kh):
        row_end = i + sh * out_h
        for j in range(kw):
            col_end = j + sw * out_w
            grad_padded[:, :, i:row_end:sh, j:col_end:sw] += cols[
                :, :, :, :, i, j
            ].transpose(0, 3, 1, 2)
    if ph or pw:
        return grad_padded[:, :, ph : ph + height, pw : pw + width]
    return grad_padded


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------

#: Contraction plans for the inference conv einsum, keyed by operand shapes
#: (path planning costs ~5-10% of a small forward pass if repeated every call).
_conv_einsum_paths: dict = {}


def _conv_einsum_path(windows: np.ndarray, weight: np.ndarray):
    key = (windows.shape, weight.shape)
    path = _conv_einsum_paths.get(key)
    if path is None:
        if len(_conv_einsum_paths) > 256:
            _conv_einsum_paths.clear()
        path = np.einsum_path("bcxyij,ocij->boxy", windows, weight, optimize=True)[0]
        _conv_einsum_paths[key] = path
    return path


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> Tensor:
    """2D cross-correlation.

    Parameters
    ----------
    x:
        Input tensor of shape ``(batch, in_channels, height, width)``.
    weight:
        Kernel tensor of shape ``(out_channels, in_channels, kh, kw)``.
    bias:
        Optional bias of shape ``(out_channels,)``.
    """
    batch = x.shape[0]
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_channels}"
        )
    needs_grad = is_grad_enabled() and (
        x.requires_grad or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if not needs_grad:
        # Allocation-light inference path: contract the strided patch view
        # directly (no im2col materialisation, no backward closure), landing
        # the output contiguous in NCHW.
        windows, _ = _conv_windows(x.data, (kh, kw), stride, padding)
        out = np.einsum("bcxyij,ocij->boxy", windows, weight.data,
                        optimize=_conv_einsum_path(windows, weight.data))
        if bias is not None:
            out += bias.data.reshape(1, out_channels, 1, 1)
        return Tensor(out, name="conv2d")

    parents = (x, weight) if bias is None else (x, weight, bias)
    out, backward = _conv2d_train(x.data, weight.data, weight.shape,
                                  None if bias is None else bias.data,
                                  stride, padding, x.requires_grad)
    return Tensor._make(out, parents, backward, name="conv2d")


def _conv2d_train(x_data: np.ndarray, weight_data: np.ndarray,
                  weight_shape: Tuple[int, ...], bias_data: Optional[np.ndarray],
                  stride: Tuple[int, int], padding: Tuple[int, int],
                  need_input_grad: bool):
    """Training-path conv2d on plain arrays: forward value + backward closure.

    Shared by :func:`conv2d` and the fused-training :func:`conv1d` node.  The
    input gradient (a full matmul plus a col2im scatter) is skipped when the
    input does not require it — the first layer of every architecture — which
    is invisible to the autograd walk (``None`` parent gradients are dropped).
    Scratch buffers come from the active fused-training workspace, if any.
    """
    out_channels, in_channels, kh, kw = weight_shape
    batch = x_data.shape[0]
    workspace = _fused.active_workspace() if _fused.is_fused_training() else None
    cols, (out_h, out_w) = _im2col(x_data, (kh, kw), stride, padding, workspace)
    weight_2d = weight_data.reshape(out_channels, -1)
    cols_2d = cols.reshape(-1, in_channels * kh * kw)
    out = cols_2d @ weight_2d.T
    out = out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if bias_data is not None:
        out = out + bias_data.reshape(1, out_channels, 1, 1)
    input_shape = x_data.shape

    def backward(grad: np.ndarray):
        # grad: (batch, out_channels, out_h, out_w)
        grad_flat = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        grad_weight = (grad_flat.T @ cols_2d).reshape(weight_shape)
        if need_input_grad:
            grad_cols = (grad_flat @ weight_2d).reshape(batch, out_h, out_w, -1)
            grad_input = _col2im(grad_cols, input_shape, (kh, kw), stride,
                                 padding, workspace)
        else:
            grad_input = None
        if bias_data is None:
            return (grad_input, grad_weight)
        grad_bias = grad.sum(axis=(0, 2, 3))
        return (grad_input, grad_weight, grad_bias)

    return out, backward


def conv2d_input_grad(
    grad_output: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """VJP of :func:`conv2d` with respect to its input, on plain arrays.

    The explicit-gradient twin of the training backward's input branch, used
    by graph-free explanation paths (grad-CAM) that run under
    ``inference_mode``.  The contraction is an ``einsum`` (each output element
    is accumulated independently, so a row's bits do not depend on the batch
    width, unlike BLAS ``matmul`` — the property the serving parity probe
    checks) followed by the same per-row :func:`_col2im` scatter the training
    path uses.
    """
    out_channels = weight.shape[0]
    weight_2d = np.ascontiguousarray(weight.reshape(out_channels, -1))
    grad_cols = np.einsum("bohw,oc->bhwc", grad_output, weight_2d)
    return _col2im(grad_cols, input_shape, weight.shape[2:], stride, padding)


def conv1d_input_grad(
    grad_output: np.ndarray,
    weight: np.ndarray,
    input_shape: Tuple[int, int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """VJP of :func:`conv1d` with respect to its input, on plain arrays."""
    batch, channels, length = input_shape
    grad4 = conv2d_input_grad(
        grad_output[:, :, None, :],
        weight[:, :, None, :],
        (batch, channels, 1, length),
        (1, stride),
        (0, padding),
    )
    return np.squeeze(grad4, axis=2)


def fused_conv_bn_relu(x_data: np.ndarray, conv, bn,
                       padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Inference-only fusion of ``Conv2d -> BatchNorm(eval) -> ReLU``.

    Folds the normalisation's per-channel scale into the conv kernels and its
    shift into one bias, then applies ReLU in place — one contraction and two
    cheap passes instead of five full-size passes and three graph nodes.
    Numerically equivalent to the unfused layers up to a few ulps of
    floating-point reassociation.

    ``padding`` overrides the conv module's zero padding.  The streaming
    engine (:mod:`repro.stream`) recomputes only the window columns a slide
    dirtied: it hands this kernel a pre-assembled input slab (interior slice
    plus explicit boundary zeros) with ``padding=(0, 0)`` so interior slices
    are not spuriously re-padded, reusing the exact fused arithmetic of the
    full-width path.
    """
    kh, kw = conv.kernel_size
    out_channels = conv.out_channels
    scale = bn.weight.data / (bn.running_var + bn.eps) ** 0.5
    shift = bn.bias.data - bn.running_mean * scale
    if conv.bias is not None:
        shift = shift + conv.bias.data * scale
    weight = conv.weight.data * scale[:, None, None, None]
    if padding is None:
        padding = conv.padding
    windows, _ = _conv_windows(x_data, (kh, kw), conv.stride, padding)
    out = np.einsum("bcxyij,ocij->boxy", windows, weight,
                    optimize=_conv_einsum_path(windows, weight))
    out += shift.reshape(1, out_channels, 1, 1)
    np.maximum(out, 0.0, out=out)
    return out


def cube_conv_bn_relu(series: np.ndarray, conv, bn,
                      padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """:func:`fused_conv_bn_relu` over the ``C(T)`` cube, read off the series.

    Computes ``fused_conv_bn_relu(build_cube_batch(series), conv, bn,
    padding)`` for a ``(batch, D, n)`` stack of (permuted) series and a
    ``(1, ℓ)``, stride-1 ``conv`` with ``D`` input channels, without building
    the cube.  Cube row ``r`` is the series rotated by ``r`` dimensions, so::

        out[o, r, t] = Σ_{s, j} W[o, (s - r) mod D, j] · S[s, t + j]

    The BatchNorm-folded kernels are gathered once per call into a rotated
    bank of shape ``(F·D, D·ℓ)``, the series into a ``(batch, D·ℓ, n)``
    im2col (D× smaller than the cube's), and one stacked ``matmul`` lands
    the result in NCHW ``(batch, F, D, n)``.  Every series gets an
    identically shaped product, so a row's bits do not depend on the batch
    width.  Agrees with the cube path to float round-off, not bitwise.
    ``padding`` overrides the conv's time padding as in the fused kernel;
    the height padding must be 0.
    """
    batch, n_dimensions, length = series.shape
    kh, kw = conv.kernel_size
    ph, pw = conv.padding if padding is None else padding
    if kh != 1 or ph != 0 or tuple(conv.stride) != (1, 1):
        raise ValueError("cube_conv_bn_relu needs a (1, ℓ) stride-1 kernel "
                         "with no height padding")
    out_channels = conv.out_channels
    scale = bn.weight.data / (bn.running_var + bn.eps) ** 0.5
    shift = bn.bias.data - bn.running_mean * scale
    if conv.bias is not None:
        shift = shift + conv.bias.data * scale
    weight = conv.weight.data[:, :, 0, :] * scale[:, None, None]  # (F, D, ℓ)
    # rotation[r, s] = position of series dimension s within cube row r.
    positions = np.arange(n_dimensions)
    rotation = (positions[None, :] - positions[:, None]) % n_dimensions
    bank = weight[:, rotation, :].reshape(out_channels * n_dimensions, n_dimensions * kw)
    padded = np.zeros((batch, n_dimensions, length + 2 * pw), dtype=series.dtype)
    padded[..., pw: pw + length] = series
    out_w = length + 2 * pw - kw + 1
    s0, s1, s2 = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(batch, n_dimensions, kw, out_w), strides=(s0, s1, s2, s2),
        writeable=False,
    )
    cols = windows.reshape(batch, n_dimensions * kw, out_w)
    out = np.matmul(bank, cols).reshape(batch, out_channels, n_dimensions, out_w)
    out += shift.reshape(1, out_channels, 1, 1)
    np.maximum(out, 0.0, out=out)
    return out


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1D cross-correlation over ``(batch, in_channels, length)`` inputs."""
    needs_grad = is_grad_enabled() and (
        x.requires_grad or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if needs_grad and _fused.is_fused_training():
        # Fused-training path: collapse expand_dims -> conv2d -> squeeze into
        # one node (the wrapper reshapes only shuffle metadata, so folding
        # them into the conv closure is bit-neutral).
        if x.shape[1] != weight.shape[1]:
            raise ValueError(
                f"input has {x.shape[1]} channels but weight expects {weight.shape[1]}"
            )
        out_channels = weight.shape[0]
        out4, backward4 = _conv2d_train(
            x.data[:, :, None, :], weight.data[:, :, None, :],
            (out_channels, weight.shape[1], 1, weight.shape[2]),
            None if bias is None else bias.data,
            (1, stride), (0, padding), x.requires_grad,
        )
        out_shape4 = out4.shape
        out = np.squeeze(out4, axis=2)
        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad: np.ndarray):
            grads4 = backward4(grad.reshape(out_shape4))
            grad_input = grads4[0]
            if grad_input is not None:
                grad_input = np.squeeze(grad_input, axis=2)
            grad_weight = np.squeeze(grads4[1], axis=2)
            return (grad_input, grad_weight) + tuple(grads4[2:])

        return Tensor._make(out, parents, backward, name="conv1d")
    x4 = x.expand_dims(2)  # (batch, channels, 1, length)
    w4 = weight.expand_dims(2)  # (out, in, 1, k)
    out = conv2d(x4, w4, bias, stride=(1, stride), padding=(0, padding))
    return out.squeeze(axis=2)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: Tuple[int, int], stride: Optional[Tuple[int, int]] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) spatial windows."""
    stride = stride or kernel
    kh, kw = kernel
    sh, sw = stride
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1
    s0, s1, s2, s3 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3),
        writeable=False,
    )
    out = windows.max(axis=(4, 5))
    if not (is_grad_enabled() and x.requires_grad):
        # Inference path: the argmax bookkeeping below exists only for backward.
        return Tensor(out, name="max_pool2d")
    # indices of maxima for backward
    flat = windows.reshape(batch, channels, out_h, out_w, kh * kw)
    argmax = flat.argmax(axis=-1)
    input_shape = x.shape

    def backward(grad: np.ndarray):
        grad_input = np.zeros(input_shape, dtype=grad.dtype)
        ih = argmax // kw
        iw = argmax % kw
        b_idx, c_idx, oh_idx, ow_idx = np.indices(argmax.shape)
        rows = oh_idx * sh + ih
        cols = ow_idx * sw + iw
        np.add.at(grad_input, (b_idx, c_idx, rows, cols), grad)
        return (grad_input,)

    return Tensor._make(out, (x,), backward, name="max_pool2d")


def max_pool1d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over ``(batch, channels, length)`` inputs."""
    stride = stride or kernel
    out = max_pool2d(x.expand_dims(2), (1, kernel), (1, stride))
    return out.squeeze(axis=2)


def global_average_pool(x: Tensor) -> Tensor:
    """Average all spatial positions, keeping batch and channel axes.

    Works for both ``(batch, channels, length)`` and
    ``(batch, channels, height, width)`` inputs and returns
    ``(batch, channels)``.
    """
    axes = tuple(range(2, x.ndim))
    return x.mean(axis=axes)


# ---------------------------------------------------------------------------
# Classification heads
# ---------------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - p)``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``."""
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out
