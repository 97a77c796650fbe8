"""Fused autograd kernels for the training engine (bit-exact fast path).

The composed autograd graph of one training step is dominated, at the scales
this reproduction trains at, by Python-level node overhead: a single
``BatchNorm`` forward builds ~15 graph nodes (the mean is even computed twice,
once for the normalisation and once inside ``var``), and the
GAP → dense → cross-entropy head builds another ~14 — each with its own
closure, its own small allocations and its own visit during the backward
topological walk.  The kernels here collapse those subgraphs into single
autograd nodes with hand-written backward closures.

**Bit-exactness contract.**  Every kernel replays the *exact* floating-point
operations of the composed graph it replaces, in the same order, with the
gradient accumulation order of :meth:`Tensor.backward`'s reverse-topological
walk.  Reductions round by their operand's memory layout, so an operand a
reduction reads is materialised in the composed graph's layout; a broadcast
may stay unmaterialised, and a result be written in place (``out=``), only
where every consumer is elementwise.  Training through these kernels is
therefore float-identical to the composed-graph reference loop
(``tests/oracles/training.py``) — loss curves, early-stopping epochs and
final weights match bit for bit, which ``tests/test_training_engine.py``
pins for one architecture per input kind.

The kernels are only taken inside a :func:`fused_training` context (entered
by :class:`repro.training.TrainingEngine`), except :func:`same_max_pool3`,
which the inception pool branch also runs at inference.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, is_grad_enabled, unbroadcast
from .workspace import Workspace


# ---------------------------------------------------------------------------
# Thread-local fused-training mode
# ---------------------------------------------------------------------------
class _FusedState(threading.local):
    """Per-thread switch consulted by the conv / batch-norm layers."""

    def __init__(self) -> None:
        self.active: bool = False
        self.workspace: Optional[Workspace] = None


_state = _FusedState()


def is_fused_training() -> bool:
    """Whether the fused training kernels are enabled on this thread."""
    return _state.active


def active_workspace() -> Optional[Workspace]:
    """The scratch-buffer workspace of the active fused-training context."""
    return _state.workspace


class fused_training:
    """Context manager enabling the fused training kernels on this thread.

    Parameters
    ----------
    workspace:
        Optional :class:`~repro.nn.workspace.Workspace` whose buffers the
        convolution im2col / col2im paths reuse across mini-batches.  The
        caller must invoke ``workspace.release_all()`` after each optimizer
        step (the training engine does).
    """

    def __init__(self, workspace: Optional[Workspace] = None) -> None:
        self._workspace = workspace
        self._previous: list = []

    def __enter__(self) -> "fused_training":
        self._previous.append((_state.active, _state.workspace))
        _state.active = True
        _state.workspace = self._workspace
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        _state.active, _state.workspace = self._previous.pop()
        return False


# ---------------------------------------------------------------------------
# Fused batch normalisation (training mode)
# ---------------------------------------------------------------------------
def _batch_norm_node(bn, xd: np.ndarray, relu: bool):
    """Forward value + backward core of the fused training-mode BatchNorm.

    Replays, in order: the running-statistics update (``np.mean`` /
    ``np.var`` replicated via one shared sum), the graph forward
    ``((x - mean) / (var + eps) ** 0.5) * w + b``, and a backward closure
    reproducing the composed graph's gradients — including the
    ``((d-path + mean-path) + var-sub-path) + var-mean-path`` accumulation
    order of the four contributions into ``x``.  The scalar constants are
    materialised in the input's dtype so the float32 compute tier never
    silently promotes to float64 (a no-op for the float64 reference path).

    Returns ``(out_data, backward)`` with ``backward(g) -> (g_x, g_weight,
    g_bias)``; shared by :func:`batch_norm_training` (parents ``x, w, b``)
    and :func:`concat_batch_norm_relu` (parents ``*branches, w, b``).
    """
    if xd.shape[1] != bn.num_features:
        raise ValueError(f"expected {bn.num_features} channels, got {xd.shape[1]}")
    shape = bn._shape_for(xd)
    axes = bn._stat_axes(xd)
    count = 1
    for axis in axes:
        count *= xd.shape[axis]
    scale = np.asarray(1.0 / count, dtype=xd.dtype)

    # One reduction serves the running mean (np.mean == sum / count), the
    # running variance (np.var's internal arrmean is the same quotient) and
    # both mean nodes of the composed graph (x.mean inside var() recomputes
    # the identical sum, so sharing it is bit-neutral).
    sum1 = xd.sum(axis=axes, keepdims=True)
    batch_mean = sum1.reshape(bn.num_features) / count
    # One scratch (xd's layout) holds both squared deviations, then `normalized`.
    scratch = np.subtract(xd, sum1 / count)
    np.multiply(scratch, scratch, out=scratch)
    batch_var = scratch.sum(axis=axes) / count
    bn.running_mean = (1 - bn.momentum) * bn.running_mean + bn.momentum * batch_mean
    bn.running_var = (1 - bn.momentum) * bn.running_var + bn.momentum * batch_var

    mean = sum1 * scale
    c = xd - mean
    np.multiply(c, c, out=scratch)
    var = scratch.sum(axis=axes, keepdims=True) * scale
    ve = var + np.asarray(bn.eps, dtype=xd.dtype)
    sd = ve ** 0.5
    normalized = np.divide(c, sd, out=scratch)
    w_r = bn.weight.data.reshape(shape)
    out_data = normalized * w_r
    out_data += bn.bias.data.reshape(shape)
    if relu:
        relu_mask = out_data > 0
        np.multiply(out_data, relu_mask, out=out_data)

    weight, bias = bn.weight, bn.bias
    full_shape, dtype = xd.shape, xd.dtype

    def backward(g: np.ndarray):
        if relu:
            g = g * relu_mask
        g_bias = g.sum(axis=axes, keepdims=True).reshape(bias.data.shape)
        scratch = g * normalized
        g_weight = scratch.sum(axis=axes, keepdims=True).reshape(weight.data.shape)
        # g_norm = g * w_r, written over the masked copy (dead from here on).
        g_d = np.multiply(g, w_r, out=g if relu else None)
        # sd-path: (-g_norm * c / sd ** 2).sum, replayed in the scratch.
        np.negative(g_d, out=scratch)
        np.multiply(scratch, c, out=scratch)
        np.divide(scratch, sd ** 2, out=scratch)
        g_sd = scratch.sum(axis=axes, keepdims=True)
        # d-path: normalized = d / sd
        np.divide(g_d, sd, out=g_d)
        g_ve = g_sd * 0.5 * ve ** (0.5 - 1)
        # var-path: var = (c * c).sum * scale.  The composed product of c with
        # the sum backward's materialised broadcast lands C-ordered, so g_c does.
        g_c = np.multiply(g_ve * scale, c, out=np.empty(full_shape, dtype))
        np.add(g_c, g_c, out=g_c)  # c appears twice as a parent of c * c
        g_mean2 = _negated_sum(g_c, scratch, axes)
        g_mean1 = _negated_sum(g_d, scratch, axes)
        # g_x in g_d, in the walk's order ((g_d + t_mean1) + g_c) + t_mean2;
        # the two broadcasts stay unmaterialised, as only elementwise adds read them.
        g_d += (g_mean1 * scale).astype(dtype, copy=False)
        g_d += g_c
        g_d += (g_mean2 * scale).astype(dtype, copy=False)
        return (g_d, g_weight, g_bias)

    return out_data, backward


def _negated_sum(a: np.ndarray, scratch: np.ndarray, axes) -> np.ndarray:
    """``(-a).sum(axes, keepdims=True)``, ``-a`` in ``scratch`` if it has ``a``'s layout."""
    negated = np.negative(a, out=scratch if scratch.strides == a.strides else None)
    return negated.sum(axis=axes, keepdims=True)


def batch_norm_training(bn, x: Tensor, relu: bool = False) -> Tensor:
    """One-node replacement for the composed training-mode BatchNorm graph.

    With ``relu=True`` the following ReLU node is folded in as well (the
    ``Conv → BatchNorm → ReLU`` blocks of the CNN family), replicating the
    composed ``mask``-multiply forward and ``grad * mask`` backward.  See
    :func:`_batch_norm_node` for the replayed operation order.
    """
    out_data, backward = _batch_norm_node(bn, x.data, relu)
    return Tensor._make(out_data, (x, bn.weight, bn.bias), backward,
                        name="batch_norm_relu" if relu else "batch_norm")


def batch_norm_relu(bn, x: Tensor) -> Tensor:
    """``bn(x).relu()`` with the pair folded into one node under fused training.

    The models that apply BatchNorm and ReLU as direct calls (the residual
    blocks of ResNet, the inception residual projections) cannot use the
    ``Sequential``-level pair folding, so they dispatch through this helper;
    outside fused training it composes the exact modules it replaces.
    """
    if bn.training and is_grad_enabled() and _state.active:
        return batch_norm_training(bn, x, relu=True)
    return bn(x).relu()


def add_relu(a: Tensor, b: Tensor) -> Tensor:
    """Residual tail ``(a + b).relu()`` as a single node under fused training.

    Replays the composed ``add`` + ``relu`` nodes bit for bit: the same
    mask-multiply forward (not ``np.maximum``) and the same ``grad * mask``
    flowing to both parents — the residual shapes are always equal, so the
    composed add's ``unbroadcast`` is the identity it is here.
    """
    if not (_state.active and is_grad_enabled()):
        return (a + b).relu()
    out_data = a.data + b.data
    mask = out_data > 0
    np.multiply(out_data, mask, out=out_data)

    def backward(g: np.ndarray):
        g_masked = g * mask
        return (unbroadcast(g_masked, a.shape), unbroadcast(g_masked, b.shape))

    return Tensor._make(out_data, (a, b), backward, name="add_relu")


def concat_batch_norm_relu(tensors: Sequence[Tensor], bn, axis: int = 1) -> Tensor:
    """InceptionTime's ``concatenate → BatchNorm → ReLU`` tail as one node.

    Under fused training the branch outputs are concatenated once, normalised
    through :func:`_batch_norm_node` with the ReLU folded in, and the backward
    closure slices the input gradient back per branch with the exact basic
    slices :meth:`Tensor.concatenate`'s composed backward produces — so the
    whole module tail is one autograd node instead of three, bit-identical to
    the composed graph.  Outside fused training it composes the modules it
    replaces.
    """
    tensors = [Tensor._coerce(t) for t in tensors]
    if not (_state.active and is_grad_enabled() and bn.training):
        return bn(Tensor.concatenate(tensors, axis=axis)).relu()
    xd = np.concatenate([t.data for t in tensors], axis=axis)
    out_data, bn_backward = _batch_norm_node(bn, xd, relu=True)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        g_x, g_weight, g_bias = bn_backward(g)
        grads = []
        for i in range(len(tensors)):
            index = [slice(None)] * g_x.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g_x[tuple(index)])
        return tuple(grads) + (g_weight, g_bias)

    return Tensor._make(out_data, tuple(tensors) + (bn.weight, bn.bias), backward,
                        name="concat_batch_norm_relu")


def same_max_pool3(x: Tensor) -> Tensor:
    """"Same" max pooling (window 3, stride 1) over the last axis as one node.

    Replaces the inception pool branch's composed ``pad → (expand_dims →)
    max_pool → (squeeze)`` chain — four autograd nodes, an ``np.pad`` call, a
    materialised window copy for the argmax bookkeeping and an ``np.add.at``
    scatter — with a single node computing identical values from shifted
    slices:

    * forward: ``max`` is exact (no rounding), so the shifted-slice
      ``np.maximum`` chain equals the composed strided-window reduction bit
      for bit;
    * argmax ties: strict ``>`` comparisons keep the earliest offset, matching
      ``np.argmax``'s first-occurrence rule;
    * backward: per-offset masked adds run in descending offset order, which
      is exactly the target-position order ``np.add.at`` accumulates
      overlapping windows in, so the summation rounds identically.  (A masked
      add can turn a ``-0.0`` gradient into ``+0.0``; like the fused ReLU
      forward, that is ``array_equal``-neutral.)
    """
    xd = x.data
    length = xd.shape[-1]
    padded = np.zeros(xd.shape[:-1] + (length + 2,), dtype=xd.dtype)
    padded[..., 1:-1] = xd
    w0 = padded[..., :-2]
    w1 = padded[..., 1:-1]
    w2 = padded[..., 2:]
    m01 = np.maximum(w0, w1)
    out = np.maximum(m01, w2)
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(out, name="same_max_pool3")
    sel2 = w2 > m01
    sel1 = ~sel2 & (w1 > w0)
    sel0 = ~(sel2 | sel1)

    def backward(g: np.ndarray):
        grad_padded = np.zeros(padded.shape, dtype=g.dtype)
        for offset, sel in ((2, sel2), (1, sel1), (0, sel0)):
            grad_padded[..., offset:offset + length] += np.where(sel, g, 0.0)
        return (grad_padded[..., 1:-1],)

    return Tensor._make(out, (x,), backward, name="same_max_pool3")


# ---------------------------------------------------------------------------
# Fused GAP -> dense -> cross-entropy head
# ---------------------------------------------------------------------------
def gap_linear_cross_entropy(feats: Tensor, classifier, targets: np.ndarray) -> Tensor:
    """One-node loss for architectures ending in GAP + dense (CAM heads).

    Equivalent to ``cross_entropy(classifier(global_average_pool(feats)), y)``
    with the composed graph's ~14 nodes collapsed into one; forward and
    backward replay the composed operations bit for bit.  ``classifier`` must
    be a :class:`repro.nn.Linear` with a bias (every
    :class:`~repro.models.conv_common.ConvBackboneClassifier` head qualifies).
    """
    if classifier.bias is None:
        raise ValueError("fused head requires a classifier with a bias")
    fd = feats.data
    spatial_axes = tuple(range(2, fd.ndim))
    count = 1
    for axis in spatial_axes:
        count *= fd.shape[axis]
    s_gap = np.asarray(1.0 / count, dtype=fd.dtype)
    gap_sum = fd.sum(axis=spatial_axes)
    gap = gap_sum * s_gap

    weight_t = classifier.weight.data.T
    logits = gap @ weight_t
    logits = logits + classifier.bias.data

    targets = np.asarray(targets, dtype=np.int64)
    batch = logits.shape[0]
    if targets.shape != (batch,):
        raise ValueError(f"targets must have shape ({batch},), got {targets.shape}")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sumexp = exps.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(sumexp)
    picked = log_probs[np.arange(batch), targets]
    s_mean = np.asarray(1.0 / batch, dtype=fd.dtype)
    loss_data = -(picked.sum() * s_mean)

    weight, bias = classifier.weight, classifier.bias
    feats_shape, dtype = fd.shape, fd.dtype

    def backward(g: np.ndarray):
        # loss = -(picked.sum() * s_mean)
        g_picked = np.broadcast_to((-g) * s_mean, (batch,)).astype(dtype)
        # picked = log_probs[arange, targets]
        g_logp = np.zeros(log_probs.shape, dtype=dtype)
        np.add.at(g_logp, (np.arange(batch), targets), g_picked)
        # log_probs = shifted - log(sumexp)
        g_logse = (-g_logp).sum(axis=1, keepdims=True)
        g_sumexp = g_logse / sumexp
        g_exps = np.broadcast_to(g_sumexp, exps.shape).astype(dtype)
        # shifted: direct contribution first, exp-path second (walk order)
        g_shifted = g_logp + g_exps * exps
        # shifted = logits - const(max); logits = gap @ W.T + bias
        g_bias = g_shifted.sum(axis=0)
        g_gap = g_shifted @ np.swapaxes(weight_t, -1, -2)
        g_weight = (np.swapaxes(gap, -1, -2) @ g_shifted).transpose(1, 0)
        # gap = feats.mean(spatial_axes)
        g_gap_sum = g_gap * s_gap
        for axis in sorted(spatial_axes):
            g_gap_sum = np.expand_dims(g_gap_sum, axis)
        g_feats = np.broadcast_to(g_gap_sum, feats_shape).astype(dtype)
        return (g_feats, g_weight, g_bias)

    return Tensor._make(loss_data, (feats, weight, bias), backward,
                        name="gap_linear_ce")
