"""Registry dispatch parity: the explain subsystem vs the legacy functions.

For each explanation family the registry's ``Explainer.explain`` /
``explain_batch`` outputs must match the legacy per-instance functions
(``class_activation_map``, ``mtex_explanation``, ``compute_dcam``) to 1e-10,
and batch vs per-instance evaluation must produce identical Dr-acc.
"""

import numpy as np
import pytest

from repro.core import (
    cam_as_multivariate,
    class_activation_map,
    compute_dcam,
    compute_dcam_batch,
)
from oracles.gradcam import mtex_explanation
from repro.eval.protocol import evaluate_explanation, explanation_for
from repro.explain import (
    CAMExplainer,
    DCAMExplainer,
    EXPLAINER_REGISTRY,
    Explanation,
    GradCAMExplainer,
    evaluate_explainer,
    explainer_family_of,
    get_explainer,
    registered_families,
    select_explainable_instances,
)
from repro.models import (
    CCNNClassifier,
    CNNClassifier,
    DCNNClassifier,
    MTEXCNNClassifier,
    create_model,
)
from repro.models.recurrent import GRUClassifier
from repro.serve import ExplanationCache
from repro.models.registry import (
    explainer_family_of_model,
    models_with_explainer_family,
)

TOL = dict(rtol=0.0, atol=1e-10)


class TestRegistry:
    def test_all_three_families_registered(self):
        assert registered_families() == ["cam", "dcam", "gradcam"]
        assert EXPLAINER_REGISTRY["cam"] is CAMExplainer
        assert EXPLAINER_REGISTRY["gradcam"] is GradCAMExplainer
        assert EXPLAINER_REGISTRY["dcam"] is DCAMExplainer

    def test_model_classes_declare_families(self):
        assert CNNClassifier.explainer_family == "cam"
        assert CCNNClassifier.explainer_family == "cam"
        assert DCNNClassifier.explainer_family == "dcam"
        assert MTEXCNNClassifier.explainer_family == "gradcam"
        assert GRUClassifier.explainer_family is None

    def test_get_explainer_dispatches_by_family(self, trained_cnn, trained_dcnn,
                                                trained_mtex):
        assert isinstance(get_explainer(trained_cnn), CAMExplainer)
        assert isinstance(get_explainer(trained_dcnn), DCAMExplainer)
        assert isinstance(get_explainer(trained_mtex), GradCAMExplainer)

    def test_unknown_model_raises_with_registered_families(self):
        model = GRUClassifier(4, 32, 2, rng=np.random.default_rng(0), hidden_size=8)
        with pytest.raises(KeyError, match=r"cam.*dcam.*gradcam"):
            get_explainer(model)
        with pytest.raises(KeyError):
            explainer_family_of(model)

    def test_registry_helpers_on_model_names(self):
        assert explainer_family_of_model("dResNet") == "dcam"
        assert explainer_family_of_model("mtex") == "gradcam"
        assert explainer_family_of_model("lstm") is None
        assert models_with_explainer_family("dcam") == ["dcnn", "dresnet",
                                                        "dinceptiontime"]
        assert models_with_explainer_family(
            "dcam", ["resnet", "dresnet", "mtex", "dcnn"]) == ["dresnet", "dcnn"]
        with pytest.raises(KeyError):
            explainer_family_of_model("nonsense")

    def test_family_mismatch_rejected(self, trained_cnn, trained_dcnn):
        with pytest.raises(TypeError):
            DCAMExplainer(trained_cnn)
        with pytest.raises(TypeError):
            GradCAMExplainer(trained_cnn)
        model = GRUClassifier(4, 32, 2, rng=np.random.default_rng(0), hidden_size=8)
        with pytest.raises(TypeError):
            CAMExplainer(model)


class TestCAMParity:
    def test_explain_matches_legacy_univariate(self, trained_cnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        legacy = cam_as_multivariate(class_activation_map(trained_cnn, series, 1),
                                     tiny_type1_dataset.n_dimensions)
        explanation = get_explainer(trained_cnn).explain(series, 1)
        np.testing.assert_allclose(explanation.heatmap, legacy, **TOL)
        assert explanation.success_ratio is None

    def test_explain_matches_legacy_multivariate(self, trained_ccnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        legacy = class_activation_map(trained_ccnn, series, 1)
        explanation = get_explainer(trained_ccnn).explain(series, 1)
        np.testing.assert_allclose(explanation.heatmap, legacy, **TOL)

    @pytest.mark.parametrize("fixture", ["trained_cnn", "trained_ccnn"])
    def test_batch_matches_per_instance(self, fixture, request, tiny_type1_dataset):
        model = request.getfixturevalue(fixture)
        X = tiny_type1_dataset.X[:5]
        class_ids = [int(label) for label in tiny_type1_dataset.y[:5]]
        explainer = get_explainer(model, batch_size=2)
        batched = explainer.explain_batch(X, class_ids)
        assert len(batched) == 5
        for series, class_id, explanation in zip(X, class_ids, batched):
            single = explainer.explain(series, class_id)
            np.testing.assert_allclose(explanation.heatmap, single.heatmap, **TOL)


class TestGradCAMParity:
    def test_explain_matches_legacy(self, trained_mtex, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        legacy = mtex_explanation(trained_mtex, series, 1)
        explanation = get_explainer(trained_mtex).explain(series, 1)
        np.testing.assert_allclose(explanation.heatmap, legacy, **TOL)

    def test_batch_matches_per_instance(self, trained_mtex, tiny_type1_dataset):
        X = tiny_type1_dataset.X[:5]
        class_ids = [int(label) for label in tiny_type1_dataset.y[:5]]
        explainer = get_explainer(trained_mtex, batch_size=2)
        batched = explainer.explain_batch(X, class_ids)
        for series, class_id, explanation in zip(X, class_ids, batched):
            legacy = mtex_explanation(trained_mtex, series, class_id)
            np.testing.assert_allclose(explanation.heatmap, legacy, **TOL)


class TestDCAMParity:
    def test_explain_matches_legacy(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[-1]
        legacy = compute_dcam(trained_dcnn, series, 1, k=6,
                              rng=np.random.default_rng(7))
        explainer = get_explainer(trained_dcnn, k=6, rng=np.random.default_rng(7))
        explanation = explainer.explain(series, 1)
        np.testing.assert_allclose(explanation.heatmap, legacy.dcam, **TOL)
        assert explanation.success_ratio == legacy.success_ratio
        assert explanation.details.k == 6

    def test_batch_matches_sequential_legacy(self, trained_dcnn, tiny_type1_dataset):
        X = tiny_type1_dataset.X[:3]
        class_ids = [int(label) for label in tiny_type1_dataset.y[:3]]
        explainer = get_explainer(trained_dcnn, k=4, rng=np.random.default_rng(3))
        batched = explainer.explain_batch(X, class_ids)
        rng = np.random.default_rng(3)  # the batch path draws sequentially
        for series, class_id, explanation in zip(X, class_ids, batched):
            legacy = compute_dcam(trained_dcnn, series, class_id, k=4, rng=rng)
            np.testing.assert_allclose(explanation.heatmap, legacy.dcam, **TOL)
            assert explanation.success_ratio == legacy.success_ratio


class TestEvaluation:
    def test_select_explainable_instances(self, tiny_type1_dataset):
        indices = select_explainable_instances(tiny_type1_dataset, target_class=1)
        assert indices
        assert all(tiny_type1_dataset.y[i] == 1 for i in indices)
        assert select_explainable_instances(tiny_type1_dataset, 1, 2) == indices[:2]

    def test_select_requires_ground_truth(self, tiny_type1_dataset):
        stripped = tiny_type1_dataset.subset(range(len(tiny_type1_dataset)))
        stripped.ground_truth = None
        with pytest.raises(ValueError):
            select_explainable_instances(stripped)

    def test_select_requires_candidates(self, tiny_type1_dataset):
        with pytest.raises(ValueError):
            select_explainable_instances(tiny_type1_dataset, target_class=99)

    @pytest.mark.parametrize("fixture", ["trained_cnn", "trained_ccnn",
                                         "trained_mtex", "trained_dcnn"])
    def test_batched_and_per_instance_dr_acc_identical(self, fixture, request,
                                                       tiny_type1_dataset):
        model = request.getfixturevalue(fixture)
        batched = evaluate_explainer(model, tiny_type1_dataset, n_instances=3,
                                     k=4, random_state=0, batched=True)
        sequential = evaluate_explainer(model, tiny_type1_dataset, n_instances=3,
                                        k=4, random_state=0, batched=False)
        assert batched.instance_indices == sequential.instance_indices
        np.testing.assert_allclose(batched.scores, sequential.scores, **TOL)
        assert batched.dr_acc == pytest.approx(sequential.dr_acc, abs=1e-10)
        if batched.success_ratios:
            assert batched.success_ratios == sequential.success_ratios

    def test_report_shape(self, trained_dcnn, tiny_type1_dataset):
        report = evaluate_explainer(trained_dcnn, tiny_type1_dataset,
                                    n_instances=2, k=4, random_state=0)
        assert report.family == "dcam"
        assert report.n_instances == 2
        assert 0.0 <= report.dr_acc <= 1.0
        assert 0.0 <= report.success_ratio <= 1.0
        assert report.as_tuple() == (report.dr_acc, report.success_ratio)

    def test_scale_knobs_are_duck_typed(self, trained_dcnn, tiny_type1_dataset):
        class Knobs:
            n_explained_instances = 2
            k_permutations = 4
            dcam_batch_size = 8

        report = evaluate_explainer(trained_dcnn, tiny_type1_dataset, Knobs(),
                                    random_state=0)
        assert report.n_instances == 2
        # Explicit keyword arguments win over the scale's knobs.
        override = evaluate_explainer(trained_dcnn, tiny_type1_dataset, Knobs(),
                                      n_instances=1, random_state=0)
        assert override.n_instances == 1

    def test_legacy_wrappers_agree_with_report(self, trained_dcnn, tiny_type1_dataset):
        report = evaluate_explainer(trained_dcnn, tiny_type1_dataset,
                                    n_instances=2, k=4, random_state=0)
        score, ratio = evaluate_explanation(trained_dcnn, "ignored-name",
                                            tiny_type1_dataset, n_instances=2,
                                            k=4, random_state=0)
        assert score == pytest.approx(report.dr_acc, abs=1e-10)
        assert ratio == pytest.approx(report.success_ratio, abs=1e-10)

    def test_explanation_for_ignores_model_name(self, trained_cnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        heatmap, ratio = explanation_for(trained_cnn, "totally-wrong-name",
                                         series, 1)
        legacy = cam_as_multivariate(class_activation_map(trained_cnn, series, 1),
                                     tiny_type1_dataset.n_dimensions)
        np.testing.assert_allclose(heatmap, legacy, **TOL)
        assert ratio is None


class TestExplanationValidation:
    def test_batch_shape_validation(self, trained_cnn, tiny_type1_dataset):
        explainer = get_explainer(trained_cnn)
        with pytest.raises(ValueError):
            explainer.explain_batch(tiny_type1_dataset.X[0], [1])
        with pytest.raises(ValueError):
            explainer.explain_batch(tiny_type1_dataset.X[:3], [1, 1])
        with pytest.raises(ValueError):
            explainer.explain(np.zeros(16), 0)

    @pytest.mark.parametrize("class_id", [-1, 3])
    def test_out_of_range_class_raises_through_every_entry_point(self, class_id):
        rng = np.random.default_rng(0)
        models = {
            "dcnn": DCNNClassifier(4, 16, 3, filters=(4,), rng=rng).eval(),
            "ccnn": CCNNClassifier(4, 16, 3, filters=(4,), rng=rng).eval(),
            "mtex": MTEXCNNClassifier(4, 16, 3, block1_filters=(2, 4), block2_filters=4,
                                      hidden_units=8, rng=rng).eval(),
        }
        series = rng.standard_normal((4, 16))
        dcnn = models["dcnn"]
        calls = [
            lambda: compute_dcam(dcnn, series, class_id, k=4),
            lambda: compute_dcam_batch(dcnn, series[None], [class_id], k=4),
            lambda: DCAMExplainer(dcnn, k=4, cache=ExplanationCache()).explain(series,
                                                                                 class_id),
        ]
        for model in models.values():
            explainer = get_explainer(model, k=4)
            calls += [lambda e=explainer: e.explain(series, class_id),
                      lambda e=explainer: e.explain_batch(np.stack([series, series]),
                                                          [0, class_id])]
        message = f"class_id {class_id} out of range for .* with 3 classes"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_explanation_dataclass_defaults(self):
        explanation = Explanation(heatmap=np.zeros((2, 4)), class_id=1)
        assert explanation.success_ratio is None
        assert explanation.details is None

    def test_keep_details_off_drops_payload_not_results(self, trained_dcnn,
                                                        tiny_type1_dataset):
        X = tiny_type1_dataset.X[:3]
        class_ids = [int(label) for label in tiny_type1_dataset.y[:3]]
        with_details = get_explainer(trained_dcnn, k=4,
                                     rng=np.random.default_rng(5))
        without = get_explainer(trained_dcnn, k=4, rng=np.random.default_rng(5),
                                keep_details=False)
        kept = with_details.explain_batch(X, class_ids)
        dropped = without.explain_batch(X, class_ids)
        for full, slim in zip(kept, dropped):
            assert full.details is not None and slim.details is None
            np.testing.assert_allclose(slim.heatmap, full.heatmap, **TOL)
            assert slim.success_ratio == full.success_ratio

    def test_use_only_correct_knob_forwarded(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        explainer = get_explainer(trained_dcnn, k=4,
                                  rng=np.random.default_rng(11),
                                  use_only_correct=True)
        legacy = compute_dcam(trained_dcnn, series, 1, k=4,
                              rng=np.random.default_rng(11),
                              use_only_correct=True)
        np.testing.assert_allclose(explainer.explain(series, 1).heatmap,
                                   legacy.dcam, **TOL)

    def test_create_model_roundtrip_families(self):
        rng = np.random.default_rng(0)
        for name, family in [("cnn", "cam"), ("ccnn", "cam"), ("dcnn", "dcam"),
                             ("mtex", "gradcam")]:
            kwargs = {"filters": (4,)} if name != "mtex" else {
                "block1_filters": (2, 4), "block2_filters": 4, "hidden_units": 8}
            model = create_model(name, 4, 32, 2, rng=rng, **kwargs)
            assert model.explainer_family == family
            assert get_explainer(model).family == family
