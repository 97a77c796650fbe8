"""Online explanation serving: artifact store, micro-batching, caching, HTTP.

The paper's pitch is that dCAM makes multivariate-series explanation cheap
enough for interactive use; this package is the online path that cashes that
in.  A trained classifier registered in a :class:`ModelArtifactStore` is
served by an :class:`ExplanationService` that

* lazily loads and warm-caches model artifacts,
* coalesces concurrent classify/explain requests into single batched engine
  calls via a dynamic :class:`MicroBatcher` with one flush worker per
  (model, kind) group (responses are byte-identical to per-request
  execution — see :mod:`repro.serve.engine`),
* flushes as soon as a group's worker holds a request (work-conserving:
  no request waits on an idle worker), takes up to ``max_batch_size``
  queued requests into one flush, and sheds load with bounded per-group
  queues (:class:`QueueFullError` → HTTP 429 + ``Retry-After``) once an
  admission watermark is hit,
* answers repeated work from a content-addressed :class:`ExplanationCache`
  (memory + disk tiers, LRU-bounded), and
* exposes everything over a stdlib JSON/HTTP server (:mod:`repro.serve.http`).

Command-line entry points: ``python -m repro export-model`` registers a
trained model into a store; ``python -m repro serve`` serves one.
"""

from .batcher import MicroBatcher, QueueFullError
from .cache import ExplanationCache, content_key, response_cache_key, stream_window_key
from .engine import ParityReport, probe_batch_parity, serve_logits
from .http import ServiceHTTPServer, make_server, run_server, serve_in_background
from .service import (
    ClassifyResponse,
    ExplainResponse,
    ExplanationService,
    ServeConfig,
)
from .store import ModelArtifact, ModelArtifactStore

__all__ = [
    "ModelArtifact",
    "ModelArtifactStore",
    "ExplanationCache",
    "content_key",
    "response_cache_key",
    "stream_window_key",
    "MicroBatcher",
    "QueueFullError",
    "ExplanationService",
    "ServeConfig",
    "ClassifyResponse",
    "ExplainResponse",
    "ParityReport",
    "probe_batch_parity",
    "serve_logits",
    "ServiceHTTPServer",
    "make_server",
    "serve_in_background",
    "run_server",
]
