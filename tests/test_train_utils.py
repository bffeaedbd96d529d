"""Tests for the trainer, evaluation, checkpointing and cloning."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.models.mlp import MLP
from repro.nn import DistillationLoss
from repro.optim import SGD, MultiStepLR
from repro.quant import quantize_model, quantized_layers
from repro.train import Trainer, evaluate_model
from repro.utils import (
    clone_module,
    count_parameters,
    load_checkpoint,
    save_checkpoint,
    set_global_seed,
)
from repro.tensor import Tensor


def separable_data(n=60, features=8, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, features)) * 3
    labels = np.repeat(np.arange(classes), n // classes)
    images = centers[labels] + 0.3 * rng.standard_normal((n, features))
    return images, labels


class TestTrainer:
    def test_loss_decreases(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=20, shuffle=True, seed=0)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.05))
        history = trainer.fit(loader, epochs=8)
        assert history.train[-1].loss < history.train[0].loss

    def test_reaches_high_accuracy(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=20, shuffle=True, seed=0)
        history = Trainer(model, SGD(model.parameters(), lr=0.05)).fit(loader, epochs=15)
        assert history.train[-1].accuracy > 0.9

    def test_val_metrics_recorded(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=30)
        history = Trainer(model, SGD(model.parameters(), lr=0.05)).fit(
            loader, val_loader=loader, epochs=3
        )
        assert len(history.val) == 3
        assert history.best_val_accuracy >= history.val[0].accuracy

    def test_scheduler_steps_per_epoch(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=30)
        optimizer = SGD(model.parameters(), lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        Trainer(model, optimizer, scheduler=scheduler).fit(loader, epochs=2)
        assert optimizer.lr == pytest.approx(0.1)

    def test_epoch_callback_invoked(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=30)
        calls = []
        Trainer(
            model,
            SGD(model.parameters(), lr=0.01),
            epoch_callback=lambda e, t, m: calls.append(e),
        ).fit(loader, epochs=3)
        assert calls == [0, 1, 2]

    def test_distillation_training_path(self):
        images, labels = separable_data()
        teacher = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=20, shuffle=True, seed=0)
        Trainer(teacher, SGD(teacher.parameters(), lr=0.05)).fit(loader, epochs=10)
        student = MLP(8, (16, 8), 3, rng=np.random.default_rng(1))
        trainer = Trainer(
            student,
            SGD(student.parameters(), lr=0.05),
            loss_fn=DistillationLoss(alpha=0.3),
            teacher=teacher,
        )
        history = trainer.fit(loader, epochs=10)
        assert history.train[-1].accuracy > 0.8

    def test_empty_loader_raises(self):
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        empty = DataLoader(
            ArrayDataset(np.zeros((0, 8)), np.zeros(0)), batch_size=4
        )
        with pytest.raises(ValueError):
            Trainer(model, SGD(model.parameters(), lr=0.01)).train_epoch(empty)

    def test_history_empty_defaults(self):
        from repro.train.trainer import History

        history = History()
        assert np.isnan(history.final_val_accuracy)
        assert np.isnan(history.best_val_accuracy)


class TestTeacherLogitCache:
    """``fit`` runs the frozen teacher once and looks each step's rows up."""

    @staticmethod
    def setup(transform=None, seed=0):
        from repro.experiments.presets import build_preset_model

        rng = np.random.default_rng(seed)
        images = rng.standard_normal((50, 3, 8, 8))
        labels = rng.integers(0, 4, 50)
        teacher = build_preset_model("vgg-small", num_classes=4, image_size=8, scale="tiny", seed=1)
        student = build_preset_model("vgg-small", num_classes=4, image_size=8, scale="tiny", seed=2)
        loader = DataLoader(
            ArrayDataset(images, labels, transform=transform),
            batch_size=16, shuffle=True, seed=seed,
        )
        trainer = Trainer(
            student,
            SGD(student.parameters(), lr=0.05, momentum=0.9),
            loss_fn=DistillationLoss(alpha=0.5),
            teacher=teacher,
            divergence_rollback=True,
        )
        return trainer, loader

    def test_cached_logits_match_per_batch_teacher(self):
        from repro.tensor.tensor import no_grad

        trainer, loader = self.setup()
        cached = trainer.teacher_logits(loader)
        assert cached.shape == (50, 4)
        for indices in loader.batch_indices():
            images, _ = loader.load(indices)
            with no_grad():
                fresh = trainer.teacher(Tensor(images)).data
            # Rows of one forward do not depend on their batch-mates in
            # value; in bits that is a property of the BLAS build.
            np.testing.assert_allclose(cached[indices], fresh, rtol=1e-12, atol=0)

    def test_fit_matches_per_batch_teacher_loop(self):
        """A plain KD loop that runs the teacher on every batch reaches the
        same weights, so the cache is looked up by the right rows."""
        from repro.tensor.tensor import no_grad

        trainer, loader = self.setup()
        trainer.divergence_rollback = False
        reference, reference_loader = self.setup()
        trainer.fit(loader, epochs=2)
        model = reference.model
        for _ in range(2):
            model.train()
            for images, labels in reference_loader:
                logits = model(Tensor(images))
                with no_grad():
                    teacher_logits = reference.teacher(Tensor(images))
                loss = reference.loss_fn(logits, labels, teacher_logits)
                reference.optimizer.zero_grad()
                loss.backward()
                reference.optimizer.step()
        for (name, got), (_, want) in zip(
            trainer.model.state_dict().items(), model.state_dict().items()
        ):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_same_seed_fits_are_identical(self):
        states = []
        for _ in range(2):
            trainer, loader = self.setup()
            trainer.fit(loader, epochs=2)
            states.append(trainer.model.state_dict())
        for name, value in states[0].items():
            assert value.tobytes() == states[1][name].tobytes(), name

    def test_transformed_dataset_raises(self):
        trainer, loader = self.setup(transform=lambda images, rng: images)
        with pytest.raises(ValueError, match="untransformed"):
            trainer.fit(loader, epochs=1)


class TestEvaluateModel:
    def test_matches_manual_accuracy(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=25)
        metrics = evaluate_model(model, loader)
        model.eval()
        from repro.tensor.tensor import no_grad

        with no_grad():
            logits = model(Tensor(images))
        expected = float((logits.data.argmax(axis=1) == labels).mean())
        assert metrics.accuracy == pytest.approx(expected)
        assert metrics.num_samples == 60

    def test_restores_training_mode(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        model.train()
        evaluate_model(model, DataLoader(ArrayDataset(images, labels), batch_size=30))
        assert model.training

    def test_no_gradients_accumulated(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        evaluate_model(model, DataLoader(ArrayDataset(images, labels), batch_size=30))
        assert all(p.grad is None for p in model.parameters())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, metadata={"accuracy": 0.93})
        other = MLP(8, (6, 4), 2, rng=np.random.default_rng(1))
        metadata = load_checkpoint(other, path)
        assert metadata == {"accuracy": 0.93}
        np.testing.assert_array_equal(other.fc0.weight.data, model.fc0.weight.data)

    def test_no_metadata(self, tmp_path):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        assert load_checkpoint(model, path) is None

    def test_creates_parent_dirs(self, tmp_path):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        path = tmp_path / "deep" / "nested" / "model.npz"
        save_checkpoint(model, path)
        assert path.exists()


class TestClone:
    def test_clone_is_independent(self):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        clone = clone_module(model)
        clone.fc0.weight.data += 100.0
        assert not np.allclose(model.fc0.weight.data, clone.fc0.weight.data)

    def test_clone_drops_gradients(self):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        model(Tensor(np.ones((2, 8)))).sum().backward()
        clone = clone_module(model)
        assert all(p.grad is None for p in clone.parameters())

    def test_clone_drops_hooks(self):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        model.relu1.register_forward_hook(lambda m, o: None)
        clone = clone_module(model)
        assert len(clone.relu1._forward_hooks) == 0
        assert len(model.relu1._forward_hooks) == 1

    def test_clone_preserves_quant_state(self):
        model = MLP(8, (6, 4, 4), 2, rng=np.random.default_rng(0))
        quantize_model(model, max_bits=4)
        layers = quantized_layers(model)
        first = next(iter(layers.values()))
        first.set_bits(np.full(first.num_filters, 2))
        clone = clone_module(model)
        clone_first = next(iter(quantized_layers(clone).values()))
        np.testing.assert_array_equal(clone_first.bits, first.bits)

    def test_count_parameters(self):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        assert count_parameters(model) == (8 * 6 + 6) + (6 * 4 + 4) + (4 * 2 + 2)


class TestSeeding:
    def test_returns_generator(self):
        rng = set_global_seed(42)
        assert isinstance(rng, np.random.Generator)

    def test_reproducible(self):
        a = set_global_seed(1).random(3)
        b = set_global_seed(1).random(3)
        np.testing.assert_array_equal(a, b)
