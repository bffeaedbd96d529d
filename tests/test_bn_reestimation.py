"""Tests for batch-norm re-estimation after quantization."""

import numpy as np
import pytest

from repro.data.synthetic import make_synth_cifar
from repro.models.vgg import VGGSmall
from repro.nn.layers import BatchNorm1d, BatchNorm2d, Dropout, Linear, ReLU
from repro.nn.module import Sequential
from repro.quant import quantize_model, quantized_layers
from repro.quant.bn import reestimate_batchnorm_stats
from repro.quant.qmodules import calibrate_activations
from repro.tensor import Tensor, no_grad
from repro.utils import clone_module


def loop_reestimate(model, batches, passes=10):
    """The every-pass loop ``reestimate_batchnorm_stats`` used to run."""
    for module in model.modules():
        if isinstance(module, (BatchNorm1d, BatchNorm2d)):
            module._set_buffer("running_mean", np.zeros(module.num_features))
            module._set_buffer("running_var", np.ones(module.num_features))
            module._set_buffer("num_batches_tracked", np.zeros(1))
    was_training = model.training
    model.train()
    with no_grad():
        for _ in range(passes):
            for batch in batches:
                model(Tensor(batch))
    model.train(was_training)


@pytest.fixture(scope="module")
def trained_vgg():
    from repro.data import ArrayDataset, DataLoader
    from repro.optim import SGD
    from repro.train import Trainer

    dataset = make_synth_cifar(
        num_classes=4, image_size=8, train_per_class=25, val_per_class=5,
        test_per_class=10, seed=21,
    )
    model = VGGSmall(num_classes=4, image_size=8, width=4, rng=np.random.default_rng(0))
    loader = DataLoader(
        ArrayDataset(dataset.train_images, dataset.train_labels),
        batch_size=25, shuffle=True, seed=0,
    )
    Trainer(model, SGD(model.parameters(), lr=0.02, momentum=0.9)).fit(loader, epochs=10)
    return model, dataset


class TestReestimation:
    def test_returns_bn_count(self, trained_vgg):
        model, dataset = trained_vgg
        clone = clone_module(model)
        count = reestimate_batchnorm_stats(clone, [dataset.train_images[:25]])
        assert count == 5  # VGG-small has 5 BatchNorm2d layers

    def test_no_bn_model_returns_zero(self, tiny_dataset, trained_mlp):
        clone = clone_module(trained_mlp)
        count = reestimate_batchnorm_stats(clone, [tiny_dataset.train_images[:10]])
        assert count == 0

    def test_stats_change_after_quantization(self, trained_vgg):
        model, dataset = trained_vgg
        student = clone_module(model)
        quantize_model(student, max_bits=2)
        for layer in quantized_layers(student).values():
            layer.set_bits(np.full(layer.num_filters, 1, dtype=np.int64))
        original_means = {
            name: bn.running_mean.copy()
            for name, bn in student.named_modules()
            if isinstance(bn, BatchNorm2d)
        }
        reestimate_batchnorm_stats(student, [dataset.train_images[:25]])
        changed = any(
            not np.allclose(bn.running_mean, original_means[name])
            for name, bn in student.named_modules()
            if isinstance(bn, BatchNorm2d)
        )
        assert changed

    def test_restores_training_flag(self, trained_vgg):
        model, dataset = trained_vgg
        clone = clone_module(model)
        clone.eval()
        reestimate_batchnorm_stats(clone, [dataset.train_images[:25]])
        assert not clone.training

    def test_no_weight_updates(self, trained_vgg):
        model, dataset = trained_vgg
        clone = clone_module(model)
        weight_before = clone.conv1.weight.data.copy()
        reestimate_batchnorm_stats(clone, [dataset.train_images[:25]])
        np.testing.assert_array_equal(clone.conv1.weight.data, weight_before)

    def test_improves_or_preserves_quantized_accuracy(self, trained_vgg):
        """The headline property: after low-bit quantization, re-estimated
        BN statistics should not hurt, and typically help, eval accuracy."""
        from repro.data import ArrayDataset, DataLoader
        from repro.train import evaluate_model

        model, dataset = trained_vgg
        student = clone_module(model)
        quantize_model(student, max_bits=4)
        for layer in quantized_layers(student).values():
            layer.set_bits(np.full(layer.num_filters, 2, dtype=np.int64))
        loader = DataLoader(
            ArrayDataset(dataset.test_images, dataset.test_labels), batch_size=40
        )
        before = evaluate_model(student, loader).accuracy
        reestimate_batchnorm_stats(student, [dataset.train_images[:50]], passes=10)
        after = evaluate_model(student, loader).accuracy
        assert after >= before - 0.1

    def test_validation(self, trained_vgg):
        model, dataset = trained_vgg
        with pytest.raises(ValueError):
            reestimate_batchnorm_stats(model, [], passes=1)
        with pytest.raises(ValueError):
            reestimate_batchnorm_stats(model, [dataset.train_images[:5]], passes=0)


def _observer_state(model):
    return [
        (name, m.act_observer.state_dict())
        for name, m in model.named_modules()
        if hasattr(m, "act_observer")
    ]


def _assert_same_state(model, reference):
    state, expected = model.state_dict(), reference.state_dict()
    assert list(state) == list(expected)
    for name in state:
        assert state[name].tobytes() == expected[name].tobytes(), name
    assert _observer_state(model) == _observer_state(reference)


def _forward_counter(model):
    calls = []
    model.register_forward_hook(lambda module, output: calls.append(1))
    return calls


class TestSettledPassReplay:
    """Replaying settled passes must leave every buffer bit-identical to
    running all of them, and must run fewer forwards."""

    def _student(self, trained_vgg, act_bits, batches, calibrate):
        model, _ = trained_vgg
        student = clone_module(model)
        quantize_model(student, max_bits=4, act_bits=act_bits)
        for layer in quantized_layers(student).values():
            layer.set_bits(np.full(layer.num_filters, 2, dtype=np.int64))
        if calibrate:
            calibrate_activations(student, batches)
        return student

    def _compare(self, trained_vgg, act_bits, batch_count, calibrate):
        _, dataset = trained_vgg
        batches = [dataset.train_images[25 * i : 25 * (i + 1)] for i in range(batch_count)]
        student = self._student(trained_vgg, act_bits, batches, calibrate)
        reference = clone_module(student)
        calls = _forward_counter(student)
        reestimate_batchnorm_stats(student, batches, passes=10)
        loop_reestimate(reference, batches, passes=10)
        _assert_same_state(student, reference)
        bn = student.bn1
        assert int(bn.num_batches_tracked[0]) == 10 * batch_count
        return len(calls)

    def test_act_bits_settles_at_pass_two(self, trained_vgg):
        # Pass 1 widens the eval-calibrated ranges; pass 2 leaves them.
        assert self._compare(trained_vgg, 2, 1, calibrate=True) == 2

    def test_without_act_bits_settles_at_pass_one(self, trained_vgg):
        assert self._compare(trained_vgg, None, 1, calibrate=False) == 1

    @pytest.mark.parametrize("act_bits,calibrate", [(None, False), (2, True), (2, False)])
    def test_several_batches(self, trained_vgg, act_bits, calibrate):
        calls = self._compare(trained_vgg, act_bits, 3, calibrate)
        assert calls % 3 == 0 and calls < 30

    def test_float_model(self, trained_vgg):
        model, dataset = trained_vgg
        batches = [dataset.train_images[:25], dataset.train_images[25:40]]
        student, reference = clone_module(model), clone_module(model)
        calls = _forward_counter(student)
        reestimate_batchnorm_stats(student, batches, passes=4)
        loop_reestimate(reference, batches, passes=4)
        _assert_same_state(student, reference)
        assert len(calls) == 2

    def test_single_pass(self, trained_vgg):
        model, dataset = trained_vgg
        student, reference = clone_module(model), clone_module(model)
        reestimate_batchnorm_stats(student, [dataset.train_images[:25]], passes=1)
        loop_reestimate(reference, [dataset.train_images[:25]], passes=1)
        _assert_same_state(student, reference)

    def test_dropout_model_runs_every_pass(self):
        def build():
            rng = np.random.default_rng(3)
            return Sequential(
                Linear(6, 8, rng=rng), BatchNorm1d(8), ReLU(),
                Dropout(0.3, rng=np.random.default_rng(4)), Linear(8, 3, rng=rng),
            )

        batches = [np.random.default_rng(5).standard_normal((16, 6))] * 2
        model, reference = build(), build()
        calls = _forward_counter(model)
        reestimate_batchnorm_stats(model, batches, passes=5)
        loop_reestimate(reference, batches, passes=5)
        _assert_same_state(model, reference)
        assert len(calls) == 10

    def test_zero_dropout_is_replayed(self):
        rng = np.random.default_rng(3)
        model = Sequential(Linear(6, 8, rng=rng), BatchNorm1d(8), Dropout(0.0), Linear(8, 3, rng=rng))
        calls = _forward_counter(model)
        reestimate_batchnorm_stats(model, [np.ones((4, 6))], passes=5)
        assert len(calls) == 1
        assert int(model[1].num_batches_tracked[0]) == 5
