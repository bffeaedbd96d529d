"""Tests for checkpoint persistence of quantization state.

A saved quantized model must restore with its bit arrangement AND its
calibrated activation ranges intact — otherwise a deployed checkpoint
silently runs uncalibrated.
"""

import numpy as np
import pytest

from repro.models.mlp import MLP
from repro.quant import quantize_model, quantized_layers
from repro.tensor import Tensor
from repro.utils import load_checkpoint, save_checkpoint


def make_quantized(seed=0, act_bits=2):
    model = MLP(12, (10, 8, 6), 4, rng=np.random.default_rng(seed))
    quantize_model(model, max_bits=4, act_bits=act_bits)
    return model


class TestBitPersistence:
    def test_bits_survive_state_dict_roundtrip(self):
        model = make_quantized()
        layers = quantized_layers(model)
        layers["fc1"].set_bits(np.array([0, 1, 2, 3, 4, 4, 2, 1]))
        state = model.state_dict()

        other = make_quantized(seed=1)
        other.load_state_dict(state)
        np.testing.assert_array_equal(
            quantized_layers(other)["fc1"].bits,
            np.array([0, 1, 2, 3, 4, 4, 2, 1]),
        )

    def test_bits_survive_npz_checkpoint(self, tmp_path):
        model = make_quantized()
        layers = quantized_layers(model)
        layers["fc2"].set_bits(np.array([1, 1, 2, 2, 4, 0]))
        path = tmp_path / "quantized.npz"
        save_checkpoint(model, path)

        other = make_quantized(seed=2)
        load_checkpoint(other, path)
        np.testing.assert_array_equal(
            quantized_layers(other)["fc2"].bits,
            np.array([1, 1, 2, 2, 4, 0]),
        )

    def test_state_dict_contains_quant_buffers(self):
        state = make_quantized().state_dict()
        assert "fc1.quant_bits" in state
        assert "fc1.act_range" in state

    def test_bits_property_reflects_buffer(self):
        model = make_quantized()
        layer = quantized_layers(model)["fc1"]
        layer.set_bits(np.full(8, 3))
        assert layer.bits.dtype == np.int64
        np.testing.assert_array_equal(layer.bits, np.full(8, 3))


class TestActivationRangePersistence:
    def test_calibration_survives_checkpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        model = make_quantized()
        # Calibrate by running a training-mode forward.
        model.train()
        model(Tensor(np.abs(rng.standard_normal((20, 12)))))
        layer = quantized_layers(model)["fc1"]
        assert layer.act_observer.initialized
        calibrated_max = layer.act_observer.max_value

        path = tmp_path / "calibrated.npz"
        save_checkpoint(model, path)

        other = make_quantized(seed=3)
        load_checkpoint(other, path)
        other.eval()
        # Forward in eval: the restored range must be used (no RuntimeError,
        # and the observer reports the checkpointed max).
        other(Tensor(np.abs(rng.standard_normal((4, 12)))))
        restored = quantized_layers(other)["fc1"].act_observer
        assert restored.max_value == pytest.approx(calibrated_max)

    def test_eval_outputs_identical_after_restore(self, tmp_path):
        rng = np.random.default_rng(1)
        model = make_quantized()
        model.train()
        calibration = Tensor(np.abs(rng.standard_normal((30, 12))))
        model(calibration)
        model.eval()
        x = Tensor(np.abs(rng.standard_normal((5, 12))))
        expected = model(x).data.copy()

        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other = make_quantized(seed=4)
        load_checkpoint(other, path)
        other.eval()
        np.testing.assert_allclose(other(x).data, expected, atol=1e-12)

    def test_live_observer_beats_stale_buffer(self):
        """Training forwards advance the live observer and keep the
        ``act_range`` buffer in step with it (a reload, by contrast, is
        authoritative: see TestReloadIsAuthoritative)."""
        model = make_quantized()
        layer = quantized_layers(model)["fc1"]
        model.train()
        rng = np.random.default_rng(2)
        model(Tensor(np.abs(rng.standard_normal((10, 12)))))
        batches_after_one = layer.act_observer.num_batches
        model(Tensor(np.abs(rng.standard_normal((10, 12)))))
        assert layer.act_observer.num_batches > batches_after_one
        # Buffer stays in sync with the live observer.
        assert int(layer.act_range[2]) == layer.act_observer.num_batches


def quantized_image_mlp(seed):
    model = MLP(3 * 8 * 8, (16, 12), 4, rng=np.random.default_rng(seed))
    return quantize_model(model, max_bits=4, act_bits=2)


def train_loader(dataset, images):
    from repro.data import ArrayDataset, DataLoader

    return DataLoader(
        ArrayDataset(images, dataset.train_labels), batch_size=25, shuffle=True, seed=0
    )


def eval_logits(model, x):
    model.eval()
    return model(Tensor(x)).data


class TestReloadIsAuthoritative:
    """``load_state_dict`` must move the live observers with the loaded
    ``act_range`` buffers, even to a range older than the live one."""

    def test_reloaded_snapshot_predicts_like_a_fresh_load(self, tiny_dataset):
        from repro.optim import SGD
        from repro.train import Trainer

        model = quantized_image_mlp(0)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9))
        trainer.fit(train_loader(tiny_dataset, tiny_dataset.train_images), epochs=2)
        snapshot = model.state_dict()
        # Training on brighter inputs widens every live activation range.
        trainer.fit(train_loader(tiny_dataset, 4.0 * tiny_dataset.train_images), epochs=2)
        model.load_state_dict(snapshot)
        fresh = quantized_image_mlp(1)
        fresh.load_state_dict(snapshot)

        fresh_layers = quantized_layers(fresh)
        for name, layer in quantized_layers(model).items():
            assert layer.act_observer.state_dict() == fresh_layers[name].act_observer.state_dict()
        x = tiny_dataset.test_images
        assert eval_logits(model, x).tobytes() == eval_logits(fresh, x).tobytes()

    def test_divergence_rollback_restores_the_observers(self, tiny_dataset):
        from repro.optim import SGD
        from repro.train import Trainer

        model = quantized_image_mlp(0)
        trainer = Trainer(model, SGD(model.parameters(), lr=500.0), divergence_rollback=True)
        trainer.fit(train_loader(tiny_dataset, tiny_dataset.train_images), epochs=1)
        assert trainer.rollbacks == 1
        fresh = quantized_image_mlp(1)
        fresh.load_state_dict(model.state_dict())
        x = tiny_dataset.test_images
        assert eval_logits(model, x).tobytes() == eval_logits(fresh, x).tobytes()
