"""Neural-network operations on :class:`~repro.nn.tensor.Tensor` objects.

The convolution implementations use an im2col / col2im strategy so that the
heavy lifting is done by vectorised NumPy matrix multiplications, which keeps
CPU-only training of the paper's architectures tractable.  One row-layout
:func:`_im2col` ``(B, C·kh·kw, out_h·out_w)`` serves both the training conv
and the inference row kernel: ``W.reshape(O, -1) @ cols`` lands contiguous
NCHW, so the BatchNorm, ReLU and residual nodes that follow a training conv
(and their gradients) run on contiguous memory.

At inference every ``(1, ℓ)`` row block runs one stacked-GEMM kernel landing
contiguous NCHW (:func:`fused_conv_bn_relu`); other convs run an ``einsum``.
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
    """Rearrange image patches into a row-layout column matrix.

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
        Contiguous array of shape ``(batch, channels * kh * kw, out_h * out_w)``:
        each copied run is a whole output row, and ``W.reshape(O, -1) @ cols``
        lands contiguous NCHW.
    out_shape:
        The spatial output shape ``(out_h, out_w)``.
    """
    batch, channels = x.shape[0], x.shape[1]
    kh, kw = kernel
    windows, (out_h, out_w) = _conv_windows(x, kernel, stride, padding)
    shape = (batch, channels * kh * kw, out_h * out_w)
    cols = np.empty(shape, x.dtype) if workspace is None else workspace.acquire(shape, x.dtype)
    # (batch, channels, out_h, out_w, kh, kw) -> (batch, channels, kh, kw, out_h, out_w)
    np.copyto(cols.reshape(batch, channels, kh, kw, out_h, out_w),
              windows.transpose(0, 1, 4, 5, 2, 3))
    return cols, (out_h, out_w)


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    workspace=None,
) -> np.ndarray:
    """Scatter column gradients back to image gradients (inverse of im2col).

    ``cols`` has the :func:`_im2col` layout ``(batch, channels * kh * kw,
    out_h * out_w)`` (or ``(..., out_h, out_w)``, any strides); the ``(i, j)``
    kernel taps are added in row-major order.
    """
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
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    for i in range(kh):
        row_end = i + sh * out_h
        for j in range(kw):
            col_end = j + sw * out_w
            grad_padded[:, :, i:row_end:sh, j:col_end:sw] += cols[:, :, i, j]
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
        # directly (no im2col, no backward closure).  The result is a
        # channels-last view transposed to NCHW, not contiguous NCHW.
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
    forward is ``W.reshape(O, -1) @ cols`` over the row-layout :func:`_im2col`,
    so the output lands contiguous NCHW and the BatchNorm, ReLU and residual
    nodes downstream (and their gradients) reduce contiguous memory.  The
    input gradient (a full matmul plus a col2im scatter) is skipped when the
    input does not require it — the first layer of every architecture — which
    is invisible to the autograd walk (``None`` parent gradients are dropped).
    Scratch buffers come from the active fused-training workspace, if any.
    """
    out_channels, _, kh, kw = weight_shape
    batch = x_data.shape[0]
    workspace = _fused.active_workspace() if _fused.is_fused_training() else None
    cols, (out_h, out_w) = _im2col(x_data, (kh, kw), stride, padding, workspace)
    weight_2d = weight_data.reshape(out_channels, -1)
    out = np.matmul(weight_2d, cols)  # (batch, out_channels, out_h * out_w)
    if bias_data is not None:
        out += bias_data.reshape(1, out_channels, 1)
    out = out.reshape(batch, out_channels, out_h, out_w)
    input_shape = x_data.shape

    def backward(grad: np.ndarray):
        # grad: (batch, out_channels, out_h, out_w)
        g = grad.reshape(batch, out_channels, -1)
        grad_weight = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight_shape)
        if need_input_grad:
            grad_input = _col2im(np.matmul(weight_2d.T, g), input_shape, (kh, kw),
                                 stride, padding, workspace)
        else:
            grad_input = None
        if bias_data is None:
            return (grad_input, grad_weight)
        return (grad_input, grad_weight, g.sum(axis=(0, 2)))

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
    return _col2im(grad_cols.transpose(0, 3, 1, 2), input_shape, weight.shape[2:],
                   stride, padding)


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


def _row_conv_bn_relu(x: np.ndarray, conv, bn, padding: Optional[Tuple[int, int]],
                      rotate: bool) -> np.ndarray:
    """The one inference kernel of every row block ``Conv2d -> BatchNorm -> ReLU``.

    Folds the BatchNorm into a kernel bank and a shift, builds the
    ``(B, C·ℓ, H·W)`` row-layout :func:`_im2col` of the time-padded input,
    and runs one stacked ``matmul`` that lands contiguous NCHW.  Every batch
    item's product has the same shape, so its bits do not depend on the batch
    width.  With ``rotate``, ``x`` is a ``(B, D, n)`` series and the bank is
    rotated over the ``C(T)`` cube's rows (:func:`cube_conv_bn_relu`).
    """
    kh, kw = conv.kernel_size
    ph, pw = conv.padding if padding is None else padding
    if kh != 1 or ph != 0 or tuple(conv.stride) != (1, 1):
        raise ValueError("a fused conv block needs a (1, ℓ) stride-1 kernel "
                         "with no height padding")
    channels = x.shape[1]
    if channels != conv.in_channels:
        raise ValueError(f"input has {channels} channels but the conv expects "
                         f"{conv.in_channels}")
    out_channels = conv.out_channels
    scale = bn.weight.data / (bn.running_var + bn.eps) ** 0.5
    shift = bn.bias.data - bn.running_mean * scale
    if conv.bias is not None:
        shift = shift + conv.bias.data * scale
    weight = conv.weight.data[:, :, 0, :] * scale[:, None, None]  # (O, C, ℓ)
    if rotate:
        # Bank row (o, r) = W[o, (s - r) mod D, j]: cube row r of the series.
        positions = np.arange(channels)
        weight = weight[:, (positions[None, :] - positions[:, None]) % channels]
        x = x[:, :, None, :]
    cols, (height, out_w) = _im2col(x, (1, kw), (1, 1), (0, pw))
    out = np.matmul(weight.reshape(-1, channels * kw), cols)
    out = out.reshape(x.shape[0], out_channels, channels if rotate else height, out_w)
    out += shift.reshape(1, out_channels, 1, 1)
    np.maximum(out, 0.0, out=out)
    return out


def fused_conv_bn_relu(x_data: np.ndarray, conv, bn,
                       padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Inference-only fusion of a :func:`~repro.nn.row_conv_block`.

    The row kernel with the plain bank ``W.reshape(O, C·ℓ)``: agrees with the
    unfused layers up to a few ulps of reassociation, and raises
    ``ValueError`` for any other conv shape.  ``padding`` overrides the
    conv's zero padding: the streaming engine (:mod:`repro.stream`) hands
    it pre-assembled slabs of dirty columns with ``padding=(0, 0)``.
    """
    return _row_conv_bn_relu(x_data, conv, bn, padding, rotate=False)


def cube_conv_bn_relu(series: np.ndarray, conv, bn,
                      padding: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """:func:`fused_conv_bn_relu` over the ``C(T)`` cube, read off the series.

    For a ``(batch, D, n)`` stack of (permuted) series and a row ``conv``
    with ``D`` input channels, computes ``fused_conv_bn_relu(
    build_cube_batch(series), conv, bn, padding)`` without the cube.  Cube
    row ``r`` is the series rotated by ``r`` dimensions, so::

        out[o, r, t] = Σ_{s, j} W[o, (s - r) mod D, j] · S[s, t + j]

    i.e. the row kernel with a rotated ``(F·D, D·ℓ)`` bank over a
    ``(batch, D·ℓ, n)`` im2col, D× smaller than the cube's.  Agrees with the
    cube path to float round-off, not bitwise.
    """
    return _row_conv_bn_relu(series, conv, bn, padding, rotate=True)


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
