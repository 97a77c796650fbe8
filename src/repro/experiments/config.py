"""Experiment scales: paper-faithful parameters and reduced CPU presets.

Every experiment driver takes an :class:`ExperimentScale`.  The ``paper``
preset records the parameters reported in Section 5 of the paper (for
reference and for users with large compute budgets); the ``small`` and
``tiny`` presets shrink model width, dataset size and number of runs so the
full benchmark suite completes on a laptop CPU in minutes while preserving the
comparative shapes the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..core.dcam import DEFAULT_BATCH_SIZE
from ..data.synthetic import SyntheticConfig
from ..data.uea import UEASimulationConfig
from ..models.base import TrainingConfig
from ..models.registry import kwargs_family_of_model


@dataclass
class ExperimentScale:
    """All knobs that trade fidelity for runtime."""

    name: str = "small"
    #: Number of train/evaluate repetitions (the paper uses 10).
    n_runs: int = 1
    #: Number of random permutations for dCAM (the paper uses 100).
    k_permutations: int = 20
    #: Cap on the permuted series per dCAM forward pass, narrowed to an 8 MiB
    #: working-set budget at large D·n.  Results agree across values to float
    #: round-off (≤ 1e-10).
    dcam_batch_size: int = DEFAULT_BATCH_SIZE
    #: Number of test instances explained when measuring Dr-acc (paper: 50).
    n_explained_instances: int = 5
    #: Dimension counts swept in Table 3 / Figure 9 (paper: 10..100).
    dimension_sweep: Tuple[int, ...] = (6, 10)
    #: Seeds datasets used for the synthetic benchmarks (paper adds "fish").
    synthetic_seeds: Tuple[str, ...] = ("starlight", "shapes")
    #: Architectures evaluated by default in each experiment group.
    table2_models: Tuple[str, ...] = (
        "rnn", "gru", "lstm", "mtex", "cnn", "resnet", "inceptiontime",
        "ccnn", "cresnet", "cinceptiontime", "dcnn", "dresnet", "dinceptiontime",
    )
    table3_models: Tuple[str, ...] = ("mtex", "resnet", "cresnet", "dcnn", "dresnet", "dinceptiontime")
    training: TrainingConfig = field(default_factory=TrainingConfig)
    uea: UEASimulationConfig = field(default_factory=UEASimulationConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    #: Per-family constructor keyword arguments (model width).
    cnn_kwargs: Dict = field(default_factory=dict)
    resnet_kwargs: Dict = field(default_factory=dict)
    inception_kwargs: Dict = field(default_factory=dict)
    recurrent_kwargs: Dict = field(default_factory=dict)
    mtex_kwargs: Dict = field(default_factory=dict)

    def model_kwargs(self, model_name: str) -> Dict:
        """Constructor keyword arguments for ``model_name`` at this scale.

        Dispatches on the ``kwargs_family`` the architecture class declares
        in the model registry (no string-suffix heuristics).
        """
        family = kwargs_family_of_model(model_name)
        per_family = {
            "cnn": self.cnn_kwargs,
            "resnet": self.resnet_kwargs,
            "inception": self.inception_kwargs,
            "recurrent": self.recurrent_kwargs,
            "mtex": self.mtex_kwargs,
        }
        return dict(per_family.get(family, {}))

    def with_overrides(self, **kwargs) -> "ExperimentScale":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)


def tiny_scale(random_state: Optional[int] = 0) -> ExperimentScale:
    """Smallest usable scale: used by the test suite and pytest benchmarks."""
    return ExperimentScale(
        name="tiny",
        n_runs=1,
        k_permutations=16,
        n_explained_instances=3,
        dimension_sweep=(4, 6),
        synthetic_seeds=("starlight",),
        table2_models=("gru", "cnn", "resnet", "ccnn", "dcnn", "dresnet"),
        table3_models=("resnet", "cresnet", "dcnn", "dresnet"),
        training=TrainingConfig(epochs=20, batch_size=8, learning_rate=3e-3,
                                patience=20, random_state=random_state),
        uea=UEASimulationConfig(instances_per_class=8, max_length=32,
                                max_dimensions=4, max_classes=3,
                                random_state=random_state),
        synthetic=SyntheticConfig(n_dimensions=4, n_instances_per_class=16,
                                  series_length=48, seed_instance_length=24,
                                  pattern_length=12, random_state=random_state),
        cnn_kwargs={"filters": (8, 16)},
        resnet_kwargs={"filters": (8, 16)},
        inception_kwargs={"depth": 2, "n_filters": 4},
        recurrent_kwargs={"hidden_size": 16},
        mtex_kwargs={"block1_filters": (4, 8), "block2_filters": 8, "hidden_units": 16},
    )


def small_scale(random_state: Optional[int] = 0) -> ExperimentScale:
    """Laptop-scale preset: minutes per experiment, preserves trends."""
    return ExperimentScale(
        name="small",
        n_runs=2,
        k_permutations=30,
        n_explained_instances=5,
        dimension_sweep=(6, 10, 20),
        synthetic_seeds=("starlight", "shapes"),
        training=TrainingConfig(epochs=30, batch_size=8, learning_rate=2e-3,
                                patience=10, random_state=random_state),
        uea=UEASimulationConfig(instances_per_class=10, max_length=64,
                                max_dimensions=8, max_classes=5,
                                random_state=random_state),
        synthetic=SyntheticConfig(n_dimensions=10, n_instances_per_class=20,
                                  series_length=96, seed_instance_length=32,
                                  pattern_length=24, random_state=random_state),
        cnn_kwargs={"filters": (16, 32, 32)},
        resnet_kwargs={"filters": (16, 32)},
        inception_kwargs={"depth": 3, "n_filters": 8},
        recurrent_kwargs={"hidden_size": 32},
        mtex_kwargs={"block1_filters": (8, 16), "block2_filters": 16, "hidden_units": 32},
    )


def paper_scale(random_state: Optional[int] = 0) -> ExperimentScale:
    """The paper's parameters (Section 5.2) — requires GPU-class compute."""
    return ExperimentScale(
        name="paper",
        n_runs=10,
        k_permutations=100,
        n_explained_instances=50,
        dimension_sweep=(10, 20, 40, 60, 100),
        synthetic_seeds=("starlight", "shapes", "fish"),
        training=TrainingConfig(epochs=1000, batch_size=16, learning_rate=1e-5,
                                patience=50, random_state=random_state),
        uea=UEASimulationConfig(instances_per_class=50, max_length=None,
                                max_dimensions=None, max_classes=None,
                                random_state=random_state),
        synthetic=SyntheticConfig(n_dimensions=10, n_instances_per_class=100,
                                  series_length=400, seed_instance_length=100,
                                  pattern_length=100, random_state=random_state),
        cnn_kwargs={"filters": (64, 128, 256, 256, 256)},
        resnet_kwargs={"filters": (64, 64, 128)},
        inception_kwargs={"depth": 6, "n_filters": 32},
        recurrent_kwargs={"hidden_size": 128},
        mtex_kwargs={},
    )


SCALE_PRESETS = {
    "tiny": tiny_scale,
    "small": small_scale,
    "paper": paper_scale,
}


def get_scale(name: str = "small", random_state: Optional[int] = 0) -> ExperimentScale:
    """Look up a preset scale by name (``tiny``, ``small`` or ``paper``)."""
    if name not in SCALE_PRESETS:
        raise KeyError(f"unknown scale {name!r}; choose from {sorted(SCALE_PRESETS)}")
    return SCALE_PRESETS[name](random_state)
