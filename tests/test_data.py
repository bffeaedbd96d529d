"""Tests for the synthetic dataset generator, loaders and transforms."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    Compose,
    DataLoader,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    make_synth_cifar,
    train_val_test_split,
)
from repro.data.transforms import GaussianNoise


class TestSynthCIFAR:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_synth_cifar(
            num_classes=6, image_size=12, train_per_class=20, val_per_class=5,
            test_per_class=5, seed=3,
        )

    def test_shapes(self, dataset):
        assert dataset.train_images.shape == (120, 3, 12, 12)
        assert dataset.val_images.shape == (30, 3, 12, 12)
        assert dataset.test_images.shape == (30, 3, 12, 12)

    def test_labels_balanced(self, dataset):
        values, counts = np.unique(dataset.train_labels, return_counts=True)
        np.testing.assert_array_equal(values, np.arange(6))
        assert np.all(counts == 20)

    def test_deterministic_given_seed(self):
        a = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=9)
        b = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=9)
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seed_differs(self):
        a = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=1)
        b = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=2)
        assert not np.allclose(a.train_images, b.train_images)

    def test_roughly_unit_scale(self, dataset):
        assert dataset.train_images.std() == pytest.approx(1.0, abs=0.05)

    def test_class_batches_shapes(self, dataset):
        batches = dataset.class_batches(per_class=4, split="val")
        assert set(batches) == set(range(6))
        for images in batches.values():
            assert images.shape == (4, 3, 12, 12)

    def test_class_batches_capped_at_available(self, dataset):
        batches = dataset.class_batches(per_class=1000, split="test")
        assert all(len(images) == 5 for images in batches.values())

    def test_class_batches_unknown_split(self, dataset):
        with pytest.raises(KeyError):
            dataset.class_batches(2, split="bogus")

    def test_num_classes_and_shape_properties(self, dataset):
        assert dataset.num_classes == 6
        assert dataset.image_shape == (3, 12, 12)

    def test_classes_are_separable(self, dataset):
        """Nearest-prototype classification must beat chance by a wide
        margin — the datasets must be learnable for CQ's search to see
        meaningful accuracy signals."""
        prototypes = dataset.prototypes
        scores = np.einsum("nchw,mchw->nm", dataset.test_images, prototypes)
        accuracy = (scores.argmax(axis=1) == dataset.test_labels).mean()
        assert accuracy > 0.5

    def test_invalid_fraction_config(self):
        with pytest.raises(ValueError):
            make_synth_cifar(
                num_classes=2, shared_fraction=0.7, global_fraction=0.4,
                train_per_class=2,
            )

    def test_hundred_classes(self):
        dataset = make_synth_cifar(num_classes=100, image_size=8, train_per_class=2,
                                   val_per_class=1, test_per_class=1, seed=0)
        assert dataset.num_classes == 100
        assert len(np.unique(dataset.train_labels)) == 100


class TestArrayDataset:
    def test_len_and_getitem(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 3)), np.arange(10))
        assert len(ds) == 10
        image, label = ds[3]
        assert label == 3

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.standard_normal((10, 3)), np.arange(5))

    def test_subset(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 3)), np.arange(10))
        sub = ds.subset([1, 3, 5])
        assert len(sub) == 3
        assert sub[1][1] == 3


class TestDataLoader:
    def make(self, n=10, batch_size=3, **kwargs):
        images = np.arange(n, dtype=np.float64).reshape(n, 1)
        return DataLoader(ArrayDataset(images, np.arange(n)), batch_size=batch_size, **kwargs)

    def test_batch_count(self):
        assert len(self.make(10, 3)) == 4
        assert len(self.make(10, 3, drop_last=True)) == 3
        assert len(self.make(9, 3)) == 3

    def test_batches_cover_all_samples(self):
        loader = self.make(10, 3)
        seen = np.concatenate([labels for _, labels in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(10))

    def test_drop_last_drops_partial(self):
        loader = self.make(10, 3, drop_last=True)
        batches = list(loader)
        assert all(len(labels) == 3 for _, labels in batches)

    def test_shuffle_changes_order(self):
        loader = self.make(50, 50, shuffle=True, seed=0)
        (_, labels1) = next(iter(loader))
        assert not np.array_equal(labels1, np.arange(50))

    def test_shuffle_deterministic_with_seed(self):
        l1 = self.make(20, 20, shuffle=True, seed=5)
        l2 = self.make(20, 20, shuffle=True, seed=5)
        np.testing.assert_array_equal(
            next(iter(l1))[1], next(iter(l2))[1]
        )

    def test_transform_applied_per_batch(self):
        calls = []

        def transform(images, rng):
            calls.append(len(images))
            return images + 1.0

        images = np.zeros((6, 1))
        loader = DataLoader(
            ArrayDataset(images, np.zeros(6), transform=transform), batch_size=2
        )
        batches = list(loader)
        assert calls == [2, 2, 2]
        assert all((imgs == 1.0).all() for imgs, _ in batches)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            self.make(batch_size=0)

    def test_batch_indices_drive_iteration(self):
        """Iterating equals ``load(batch_indices())`` with the same RNG
        draws (shuffle, then the transform per batch)."""

        def make():
            images = np.arange(10, dtype=np.float64).reshape(10, 1)
            noisy = ArrayDataset(
                images, np.arange(10), transform=lambda x, rng: x + rng.random(x.shape)
            )
            return DataLoader(noisy, batch_size=3, shuffle=True, seed=3)

        iterated, indexed = make(), make()
        for _ in range(2):  # a fresh shuffle per pass, in both
            batches = list(iterated)
            indices = list(indexed.batch_indices())
            assert len(batches) == len(indices) == 4
            for (images, labels), rows in zip(batches, indices):
                np.testing.assert_array_equal(labels, rows)
                np.testing.assert_array_equal(images, indexed.load(rows)[0])


class TestTransforms:
    def test_flip_all(self, rng):
        images = rng.standard_normal((4, 3, 5, 5))
        flipped = RandomHorizontalFlip(p=1.0)(images, rng)
        np.testing.assert_array_equal(flipped, images[:, :, :, ::-1])

    def test_flip_none(self, rng):
        images = rng.standard_normal((4, 3, 5, 5))
        out = RandomHorizontalFlip(p=0.0)(images, rng)
        np.testing.assert_array_equal(out, images)

    def test_flip_does_not_mutate_input(self, rng):
        images = rng.standard_normal((4, 3, 5, 5))
        original = images.copy()
        RandomHorizontalFlip(p=1.0)(images, rng)
        np.testing.assert_array_equal(images, original)

    def test_flip_invalid_p(self):
        with pytest.raises(ValueError):
            RandomHorizontalFlip(p=2.0)

    def test_crop_preserves_shape(self, rng):
        images = rng.standard_normal((4, 3, 8, 8))
        out = RandomCrop(2)(images, rng)
        assert out.shape == images.shape

    def test_crop_zero_padding_identity(self, rng):
        images = rng.standard_normal((2, 1, 4, 4))
        np.testing.assert_array_equal(RandomCrop(0)(images, rng), images)

    def test_crop_negative_raises(self):
        with pytest.raises(ValueError):
            RandomCrop(-1)

    def test_normalize(self, rng):
        images = rng.standard_normal((5, 2, 3, 3)) * 4 + 7
        out = Normalize(mean=[7, 7], std=[4, 4])(images, rng)
        assert abs(out.mean()) < 0.5

    def test_normalize_zero_std_raises(self):
        with pytest.raises(ValueError):
            Normalize(mean=[0], std=[0])

    def test_gaussian_noise(self, rng):
        images = np.zeros((2, 1, 4, 4))
        out = GaussianNoise(0.5)(images, rng)
        assert out.std() > 0.2

    def test_gaussian_noise_zero_sigma_identity(self, rng):
        images = np.ones((2, 1, 4, 4))
        assert GaussianNoise(0.0)(images, rng) is images

    def test_compose_order(self, rng):
        images = np.ones((1, 1, 2, 2))
        transform = Compose([
            lambda x, r: x * 2,
            lambda x, r: x + 1,
        ])
        np.testing.assert_array_equal(transform(images, rng), images * 2 + 1)


class TestSplit:
    def test_fractions(self, rng):
        images = rng.standard_normal((100, 2))
        labels = np.arange(100)
        train, val, test = train_val_test_split(images, labels, 0.2, 0.1, seed=0)
        assert len(val) == 20 and len(test) == 10 and len(train) == 70

    def test_disjoint_and_complete(self, rng):
        images = rng.standard_normal((50, 2))
        labels = np.arange(50)
        train, val, test = train_val_test_split(images, labels, 0.2, 0.2, seed=1)
        combined = np.concatenate([train.labels, val.labels, test.labels])
        np.testing.assert_array_equal(np.sort(combined), np.arange(50))

    def test_invalid_fractions_raise(self, rng):
        with pytest.raises(ValueError):
            train_val_test_split(np.zeros((10, 1)), np.zeros(10), 0.6, 0.5)
