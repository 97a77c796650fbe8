"""Reproduction of *dCAM: Dimension-wise Class Activation Map for Explaining
Multivariate Data Series Classification* (Boniol et al., SIGMOD 2022).

The package is organised as follows:

* :mod:`repro.nn` — NumPy deep-learning substrate (autograd, conv/recurrent
  layers, losses, optimizers) replacing PyTorch.
* :mod:`repro.models` — the architectures of the paper: CNN / ResNet /
  InceptionTime, their c- and d-variants, MTEX-CNN and the recurrent baselines.
* :mod:`repro.core` — the paper's contribution: the ``C(T)`` input cube, CAM,
  grad-CAM and dCAM, plus dataset-level aggregation of explanations.
* :mod:`repro.data` — synthetic stand-ins for the UCR/UEA and JIGSAWS data and
  the Type 1 / Type 2 injected-pattern benchmarks.
* :mod:`repro.eval` — C-acc, Dr-acc (PR-AUC), ranking and the evaluation
  protocols.
* :mod:`repro.explain` — the unified explanation subsystem: CAM, grad-CAM and
  dCAM behind one registry-driven :class:`~repro.explain.Explainer` interface
  with batch engines.
* :mod:`repro.experiments` — drivers that regenerate every table and figure of
  the paper's evaluation section, written as thin spec-builders over the
  runtime.
* :mod:`repro.runtime` — the declarative job-graph executor: frozen
  :class:`~repro.runtime.WorkUnit` cells, serial / process-pool executors, a
  content-addressed result cache and the :func:`repro.run` facade.  The
  ``python -m repro`` CLI exposes the whole experiment suite on top of it.

Quickstart
----------
>>> from repro.data import SyntheticConfig, make_type1_dataset
>>> from repro.models import DCNNClassifier, TrainingConfig
>>> from repro.core import compute_dcam
>>> dataset = make_type1_dataset(SyntheticConfig(n_dimensions=6, random_state=0))
>>> model = DCNNClassifier(dataset.n_dimensions, dataset.length,
...                        dataset.n_classes, filters=(8, 16))
>>> _ = model.fit(dataset.X, dataset.y, config=TrainingConfig(epochs=5))
>>> result = compute_dcam(model, dataset.X[-1], class_id=1, k=10)
>>> result.dcam.shape == (dataset.n_dimensions, dataset.length)
True
"""

from . import core, data, eval, explain, models, nn, runtime
from .core import (
    DCAMResult,
    build_cube,
    class_activation_map,
    compute_dcam,
    compute_dcam_batch,
)
from .data import (
    MultivariateDataset,
    SyntheticConfig,
    make_jigsaws_dataset,
    make_type1_dataset,
    make_type2_dataset,
    make_uea_dataset,
)
from .eval import classification_accuracy, dr_acc, pr_auc
from .explain import (
    Explanation,
    ExplanationReport,
    evaluate_explainer,
    get_explainer,
    registered_families,
)
from .models import TrainingConfig, available_models, create_model
from .runtime import (
    ExperimentSpec,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    WorkUnit,
    run,
)

__version__ = "1.0.0"

__all__ = [
    "nn",
    "models",
    "core",
    "data",
    "eval",
    "explain",
    "runtime",
    "run",
    "ExperimentSpec",
    "WorkUnit",
    "ResultCache",
    "SerialExecutor",
    "ParallelExecutor",
    "__version__",
    "Explanation",
    "ExplanationReport",
    "get_explainer",
    "evaluate_explainer",
    "registered_families",
    "build_cube",
    "class_activation_map",
    "compute_dcam",
    "compute_dcam_batch",
    "DCAMResult",
    "MultivariateDataset",
    "SyntheticConfig",
    "make_type1_dataset",
    "make_type2_dataset",
    "make_uea_dataset",
    "make_jigsaws_dataset",
    "classification_accuracy",
    "dr_acc",
    "pr_auc",
    "TrainingConfig",
    "create_model",
    "available_models",
]
