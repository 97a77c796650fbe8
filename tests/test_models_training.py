"""Tests of the shared training loop (fit / early stopping / history / scoring)."""

import numpy as np
import pytest

from repro.models import CNNClassifier, DCNNClassifier, GRUClassifier, TrainingConfig
from repro.models.base import TrainingHistory
from oracles.training import fit_legacy
from repro.nn import load_state_dict, save_state_dict


def _separable_problem(n=24, dims=3, length=20, seed=0):
    """A trivially separable 2-class problem: class 1 has a large offset on dim 0."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dims, length))
    y = np.arange(n) % 2
    X[y == 1, 0, :] += 4.0
    return X, y


class TestFit:
    def test_loss_decreases_on_separable_problem(self):
        X, y = _separable_problem()
        model = CNNClassifier(3, 20, 2, filters=(4, 8), rng=np.random.default_rng(0))
        history = model.fit(X, y, config=TrainingConfig(epochs=15, batch_size=8,
                                                        learning_rate=3e-3,
                                                        random_state=0))
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.score(X, y) > 0.9

    def test_history_fields(self):
        X, y = _separable_problem(n=16)
        model = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(0))
        history = model.fit(X, y, validation_data=(X, y),
                            config=TrainingConfig(epochs=3, batch_size=8, random_state=0))
        assert isinstance(history, TrainingHistory)
        assert history.epochs_run == len(history.train_loss) == 3
        assert len(history.validation_loss) == 3
        assert len(history.validation_accuracy) == 3
        assert len(history.epoch_seconds) == 3
        assert history.best_validation_loss() <= history.validation_loss[0] + 1e-12

    def test_early_stopping_triggers(self):
        X, y = _separable_problem(n=16)
        model = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(0))
        config = TrainingConfig(epochs=50, batch_size=8, learning_rate=0.0,
                                patience=2, random_state=0)
        history = model.fit(X, y, validation_data=(X, y), config=config)
        assert history.stopped_early
        assert history.epochs_run < 50

    def test_best_weights_restored(self):
        X, y = _separable_problem(n=16)
        model = GRUClassifier(3, 20, 2, hidden_size=8, rng=np.random.default_rng(0))
        config = TrainingConfig(epochs=6, batch_size=8, learning_rate=1e-2,
                                patience=50, random_state=0)
        history = model.fit(X, y, validation_data=(X, y), config=config)
        restored_loss, _ = model._evaluate_loss(X, y, 8)
        assert restored_loss <= min(history.validation_loss) + 1e-6

    def test_epochs_to_fraction_of_best(self):
        history = TrainingHistory(validation_loss=[1.0, 0.6, 0.2, 0.19])
        assert history.epochs_to_fraction_of_best(0.9) == 3
        assert TrainingHistory().epochs_to_fraction_of_best() == 0

    def test_dcnn_trains_on_cube_inputs(self):
        X, y = _separable_problem(n=16, dims=4)
        model = DCNNClassifier(4, 20, 2, filters=(4, 8), rng=np.random.default_rng(0))
        history = model.fit(X, y, config=TrainingConfig(epochs=8, batch_size=8,
                                                        learning_rate=3e-3,
                                                        random_state=0))
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.score(X, y) > 0.7

    def test_deterministic_training_with_seed(self):
        X, y = _separable_problem(n=16)
        config = TrainingConfig(epochs=3, batch_size=8, random_state=5)
        model_a = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(1))
        model_b = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(1))
        loss_a = model_a.fit(X, y, config=config).train_loss
        loss_b = model_b.fit(X, y, config=config).train_loss
        np.testing.assert_allclose(loss_a, loss_b)


def _with_nan(X):
    X = X.copy()
    X[3, 1, 7] = np.nan
    return X


#: (case, X transform, y transform, message) of invalid labelled sets.
_INVALID_SETS = [
    ("y_longer_than_X", lambda X: X, lambda y: np.concatenate([y, y[:2]]), "labels of shape"),
    ("label_minus_one", lambda X: X, lambda y: np.where(np.arange(len(y)) == 5, -1, y),
     r"label -1 outside \[0, 2\)"),
    ("label_n_classes", lambda X: X, lambda y: np.where(np.arange(len(y)) == 5, 2, y),
     r"label 2 outside \[0, 2\)"),
    ("float_labels", lambda X: X, lambda y: y + 0.5, "must be integers"),
    ("empty", lambda X: X[:0], lambda y: y[:0], "has no instances"),
    ("nan_in_X", _with_nan, lambda y: y, "non-finite"),
]


def _fit(engine, model, X, y, validation_data, config):
    """``model.fit``, or the reference loop it must agree with."""
    if engine == "legacy":
        return fit_legacy(model, X, y, validation_data, config)
    return model.fit(X, y, validation_data=validation_data, config=config)


@pytest.mark.parametrize("engine", ["fused", "legacy"])
class TestFitValidation:
    @pytest.mark.parametrize("case, bad_X, bad_y, message", _INVALID_SETS,
                             ids=[case[0] for case in _INVALID_SETS])
    def test_invalid_training_set_raises(self, engine, case, bad_X, bad_y, message):
        X, y = _separable_problem(n=16)
        model = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(0))
        before = {key: value.copy() for key, value in model.state_dict().items()}
        config = TrainingConfig(epochs=2, batch_size=8, random_state=0)
        with pytest.raises(ValueError, match="^training set .*" + message):
            _fit(engine, model, bad_X(X), bad_y(y), None, config)
        for key, value in model.state_dict().items():
            assert np.array_equal(value, before[key]), key

    @pytest.mark.parametrize("case, bad_X, bad_y, message", _INVALID_SETS,
                             ids=[case[0] for case in _INVALID_SETS])
    def test_invalid_validation_data_raises(self, engine, case, bad_X, bad_y, message):
        X, y = _separable_problem(n=16)
        model = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(0))
        config = TrainingConfig(epochs=2, batch_size=8, random_state=0)
        with pytest.raises(ValueError, match="^validation_data .*" + message):
            _fit(engine, model, X, y, (bad_X(X), bad_y(y)), config)


class TestScoringAndSerialization:
    def test_score_matches_manual_accuracy(self):
        X, y = _separable_problem(n=20)
        model = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(0))
        model.fit(X, y, config=TrainingConfig(epochs=5, batch_size=8, learning_rate=3e-3,
                                              random_state=0))
        manual = float(np.mean(model.predict(X) == y))
        assert model.score(X, y) == pytest.approx(manual)

    def test_save_load_roundtrip_preserves_predictions(self, tmp_path):
        X, y = _separable_problem(n=16)
        model = CNNClassifier(3, 20, 2, filters=(4, 8), rng=np.random.default_rng(0))
        model.fit(X, y, config=TrainingConfig(epochs=3, batch_size=8, random_state=0))
        path = str(tmp_path / "model.npz")
        save_state_dict(model, path)
        clone = CNNClassifier(3, 20, 2, filters=(4, 8), rng=np.random.default_rng(99))
        load_state_dict(clone, path)
        np.testing.assert_allclose(model.logits(X), clone.logits(X), rtol=1e-10)

    def test_logits_batching_consistent(self):
        X, _ = _separable_problem(n=20)
        model = CNNClassifier(3, 20, 2, filters=(4,), rng=np.random.default_rng(0))
        np.testing.assert_allclose(model.logits(X, batch_size=3),
                                   model.logits(X, batch_size=20), rtol=1e-10)
