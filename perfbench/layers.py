"""Span wrappers around each layer's entry points, installed from outside ``src/``.

Every wrapper replaces a name where the program looks it up (a module
global, a class attribute or an instance attribute), records one span per
call and returns the wrapped function's result unchanged, so outputs stay
byte-identical under tracing.  :class:`~perfbench.spans.Patches` undoes it all.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Dict

from .spans import Patches, SpanRecorder

#: Header carrying the client's root span id to the server's request span.
SPAN_HEADER = "X-Perfbench-Span"


def _wrap_all(patches: Patches, recorder: SpanRecorder, targets) -> None:
    for owner, attribute, name in targets:
        patches.replace(owner, attribute, functools.partial(recorder.wrap, name))


def install_model_layers(patches: Patches, recorder: SpanRecorder) -> None:
    """dCAM kernels, the ``C(T)`` cube and every trunk block of conv models."""
    import repro.core.dcam as core_dcam
    import repro.explain.dcam as explain_dcam
    import repro.models.conv_common as conv_common

    _wrap_all(patches, recorder, [
        (conv_common, "build_cube_batch", "core.input_transform.cube"),
        (core_dcam, "_merge_cam_stack", "core.dcam.merge"),
        (core_dcam, "extract_dcam", "core.dcam.extract"),
        (explain_dcam.DCAMExplainer, "_cached_results", "explain.dcam"),
    ])

    def forward_rows(original):
        @functools.wraps(original)
        def traced(model, permuted, class_weights, batch_size):
            with recorder.span("core.dcam.forward", rows=len(permuted)):
                return original(model, permuted, class_weights, batch_size)
        return traced

    # compute_dcam(_batch) look the kernel up in core.dcam, the cached
    # explainer path in explain.dcam (imported by name).
    patches.replace(core_dcam, "_permutation_cams_batched", forward_rows)
    patches.replace(explain_dcam, "_permutation_cams_batched", forward_rows)

    # Models are often built inside the measured code (sweep units), so each
    # trunk's blocks are wrapped on the model's first features() call.
    lock = threading.Lock()

    def features(original):
        @functools.wraps(original)
        def traced(model, x):
            trunk = getattr(model, "feature_extractor", None)
            with lock:
                for index, block in enumerate(getattr(trunk, "children_list", ())):
                    if "forward" not in vars(block):
                        patches.replace(block, "forward", functools.partial(
                            recorder.wrap, f"nn.trunk.block{index}"))
            return original(model, x)
        return traced

    patches.replace(conv_common.ConvBackboneClassifier, "features", features)


def install_stream_layers(patches: Patches, recorder: SpanRecorder, model) -> None:
    """Rolling cube, incremental trunk, delta ``M̄`` merge and per-hop extract."""
    import repro.stream.incremental as incremental
    import repro.stream.session as session

    _wrap_all(patches, recorder, [
        (session, "roll_cube_batch", "stream.roll_cube"),
        (session, "extract_dcam", "stream.extract"),
        (session.StreamSession, "_compute_incremental", "stream.compute"),
        (session.StreamSession, "_update_dcam", "stream.delta_merge"),
        (incremental.IncrementalTrunk, "slide", "stream.trunk_slide"),
        (incremental.IncrementalTrunk, "reset", "stream.trunk_reset"),
    ])
    # The incremental trunk calls the fused kernel directly with each block's
    # BatchNorm; that module's identity names the block.
    block_of = {id(block[1]): index
                for index, block in enumerate(model.feature_extractor.children_list)}

    def kernel(original):
        @functools.wraps(original)
        def traced(x, conv, bn, *args, **kwargs):
            with recorder.span(f"nn.trunk.block{block_of.get(id(bn), 'x')}"):
                return original(x, conv, bn, *args, **kwargs)
        return traced

    patches.replace(incremental, "fused_conv_bn_relu", kernel)


def install_sweep_layers(patches: Patches, recorder: SpanRecorder) -> None:
    """Per-unit execution, dataset generation, training and Dr-acc evaluation."""
    import repro.experiments.runner as runner
    import repro.experiments.units as units
    import repro.runtime.api as api

    _wrap_all(patches, recorder, [
        (api, "execute_payload", "runtime.unit"),
        (units, "synthetic_train_test", "data.generate"),
        (runner, "evaluate_explainer", "explain.evaluate"),
    ])

    def fit(original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with recorder.span("training.fit") as attrs:
                history = original(*args, **kwargs)
                attrs["prepare_s"] = float(history.prepare_seconds)
                attrs["epochs"] = int(history.epochs_run)
                return history
        return traced

    patches.replace(runner, "fit_on_dataset", fit)


def install_serve_layers(patches: Patches, recorder: SpanRecorder, service) -> None:
    """HTTP request handling, response/permutation cache, batcher queue and flush."""
    from repro.serve.http import _ServiceRequestHandler as handler

    def request(original):
        @functools.wraps(original)
        def traced(self):
            value = self.headers.get(SPAN_HEADER)
            root = int(value) if value else None
            with recorder.span("serve.http.request", parent=root, rid=root):
                return original(self)
        return traced

    patches.replace(handler, "do_POST", request)
    _wrap_all(patches, recorder, [
        (handler, "_read_json", "serve.http.parse"),
        (handler, "_timed", "serve.http.handler"),
        (handler, "_send_json", "serve.http.send"),
        (service, "explain", "serve.service.explain"),
        (service, "classify", "serve.service.classify"),
    ])

    def cache_call(operation):
        def make(original):
            @functools.wraps(original)
            def traced(key, *args):
                scope = "perm" if "explain.dcam" in recorder.open_names() else "response"
                with recorder.span(f"serve.cache.{operation}", scope=scope) as attrs:
                    result = original(key, *args)
                    if operation == "get":
                        attrs["hit"] = result is not None
                    return result
            return traced
        return make

    patches.replace(service.cache, "get", cache_call("get"))
    patches.replace(service.cache, "put", cache_call("put"))

    # Queue wait: from submit (handler thread) to the start of the flush that
    # serves the request (batcher worker thread), parented to the request.
    submitted: Dict[int, Any] = {}
    lock = threading.Lock()

    def submit(original):
        @functools.wraps(original)
        def traced(group_key, work, *args, **kwargs):
            enclosing = recorder.enclosing()
            with lock:
                submitted[id(work)] = (time.perf_counter(), enclosing)
            return original(group_key, work, *args, **kwargs)
        return traced

    def execute(original):
        @functools.wraps(original)
        def traced(group_key, requests):
            started = time.perf_counter()
            with lock:
                origins = [submitted.pop(id(work), None) for work in requests]
            # (submit time, (parent span, rid, name)) of each traced request.
            origins = [o for o in origins if o is not None and o[1] is not None]
            for submitted_at, (parent, rid, _) in origins:
                recorder.record("serve.batcher.queue", submitted_at, started, parent, rid)
            parent, rid = origins[0][1][:2] if origins else (None, None)
            with recorder.span("serve.engine.flush", parent=parent, rid=rid,
                               kind=group_key[1], width=len(requests)):
                results = original(group_key, requests)
            ended = time.perf_counter()
            # Companions of a coalesced flush waited for it too; their
            # share is named, so it does not land in their handler's self time.
            for _, (parent, rid, _) in origins[1:]:
                recorder.record("serve.engine.shared_flush", started, ended, parent, rid)
            return results
        return traced

    patches.replace(service.batcher, "submit", submit)
    patches.replace(service.batcher, "_execute", execute)
