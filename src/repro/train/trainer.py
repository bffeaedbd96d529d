"""Generic epoch-based trainer with optional knowledge distillation.

Used for both the pre-training phase (plain cross-entropy) and the CQ
refining phase (distillation loss with a frozen full-precision teacher,
Sec. III-D): pass ``teacher`` and a :class:`~repro.nn.DistillationLoss`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim.optimizers import AdaptiveGradClipper, Optimizer, clip_grad_norm_
from repro.optim.schedulers import LRScheduler
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class EpochMetrics:
    """Aggregated metrics of one pass over a loader."""

    loss: float
    accuracy: float
    num_samples: int


@dataclass
class History:
    """Per-epoch training curve."""

    train: List[EpochMetrics] = field(default_factory=list)
    val: List[EpochMetrics] = field(default_factory=list)

    @property
    def best_val_accuracy(self) -> float:
        return max((metrics.accuracy for metrics in self.val), default=float("nan"))

    @property
    def final_val_accuracy(self) -> float:
        return self.val[-1].accuracy if self.val else float("nan")


def evaluate_model(model: Module, loader, accuracy_only: bool = False) -> EpochMetrics:
    """Loss/accuracy of ``model`` over a loader, in eval mode, no gradients.

    Guarantees: the model is switched to ``eval()`` for the duration
    (batch-norm uses running statistics, dropout is disabled) and its
    previous training flag is restored afterwards; weights, buffers and
    gradients are never modified, so evaluation is deterministic for a
    fixed loader. This is the *whole-model* metric used for reporting;
    search-time accuracy queries instead go through the cached
    :class:`repro.core.evaluator.IncrementalEvaluator`, which is
    bit-exact with a full forward on its fixed validation batch.

    ``accuracy_only=True`` skips the cross-entropy computation (the
    returned ``loss`` is NaN) — the fast path for search and baseline
    callers that only consume ``.accuracy``.
    """
    was_training = model.training
    model.eval()
    total_loss = 0.0
    total_correct = 0
    total = 0
    with no_grad():
        for images, labels in loader:
            logits = model(Tensor(images))
            batch = len(labels)
            if not accuracy_only:
                loss = F.cross_entropy(logits, labels)
                total_loss += float(loss.data) * batch
            total_correct += int((logits.data.argmax(axis=1) == labels).sum())
            total += batch
    model.train(was_training)
    if total == 0:
        raise ValueError("loader produced no batches")
    mean_loss = float("nan") if accuracy_only else total_loss / total
    return EpochMetrics(mean_loss, total_correct / total, total)


class Trainer:
    """Mini-batch SGD training loop.

    Parameters
    ----------
    model:
        The network being optimised.
    optimizer:
        Any :class:`~repro.optim.Optimizer` over the model parameters.
    loss_fn:
        Either ``loss_fn(logits, labels)`` or, when ``teacher`` is set,
        ``loss_fn(logits, labels, teacher_logits)`` (distillation).
    teacher:
        Optional frozen teacher. Its logits over the training set are
        computed once per :meth:`fit` (:meth:`teacher_logits`), so the
        training dataset must not carry a transform.
    scheduler:
        Optional LR scheduler stepped once per epoch.
    epoch_callback:
        Optional ``callback(epoch_index, trainer, train_metrics)`` hook.
    max_grad_norm:
        Gradient clipping before each step. A float clips to that global
        L2 norm; the string ``"auto"`` uses an
        :class:`~repro.optim.AdaptiveGradClipper` (clip at 10x the
        running median norm — scale-free, engages only on divergence).
        Non-finite gradients always drop the step. ``None`` disables.
    divergence_rollback:
        Epoch-level safety net for fragile students (e.g. whole layers
        at 1 bit): when an epoch's training loss worsens past the best
        seen so far (by ``ROLLBACK_TOLERANCE``, or goes non-finite), the
        best weights are restored, optimiser state is cleared and the
        learning rate is halved — the diverged epoch cannot poison the
        run. Healthy training never triggers it.
    """

    #: Relative loss increase over the best epoch that triggers a rollback.
    ROLLBACK_TOLERANCE = 0.05
    #: LR multiplier applied on each rollback.
    ROLLBACK_BACKOFF = 0.5
    #: Rollbacks after which the trainer stops intervening.
    MAX_ROLLBACKS = 8

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Optional[Module] = None,
        teacher: Optional[Module] = None,
        scheduler: Optional[LRScheduler] = None,
        epoch_callback: Optional[Callable] = None,
        max_grad_norm=None,
        divergence_rollback: bool = False,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
        self.teacher = teacher
        self.scheduler = scheduler
        self.epoch_callback = epoch_callback
        self._adaptive_clipper: Optional[AdaptiveGradClipper] = None
        if max_grad_norm == "auto":
            self._adaptive_clipper = AdaptiveGradClipper()
        elif max_grad_norm is not None:
            if not isinstance(max_grad_norm, (int, float)) or max_grad_norm <= 0:
                raise ValueError(
                    f'max_grad_norm must be a positive number, "auto" or None, '
                    f"got {max_grad_norm!r}"
                )
        self.max_grad_norm = max_grad_norm
        self.divergence_rollback = divergence_rollback
        self.rollbacks = 0
        if self.teacher is not None:
            self.teacher.eval()

    def teacher_logits(self, loader) -> Optional[np.ndarray]:
        """The frozen teacher's logits for every row of ``loader.dataset``.

        The teacher is in eval mode and never updated, so its logits are
        the same every epoch: they are computed once, under ``no_grad``,
        in dataset order and in chunks of ``loader.batch_size``, and each
        step looks its rows up by index. ``None`` without a teacher.
        Raises ``ValueError`` for a dataset with a transform: cached
        logits of the raw images would silently skip the augmentation.
        """
        if self.teacher is None:
            return None
        dataset = loader.dataset
        if dataset.transform is not None:
            raise ValueError(
                "a distillation teacher needs an untransformed dataset: its "
                "logits are cached per row, which would skip the augmentation"
            )
        step = loader.batch_size
        with no_grad():
            chunks = [
                self.teacher(Tensor(dataset.images[start : start + step])).data
                for start in range(0, len(dataset), step)
            ]
        if not chunks:
            raise ValueError("loader produced no batches")
        return np.concatenate(chunks)

    def _batches(self, loader, teacher_logits: Optional[np.ndarray]):
        """``(images, labels, teacher_args)`` per batch, where
        ``teacher_args`` is ``(teacher_logits,)``, or ``()`` without a
        teacher: the loss function's trailing arguments."""
        if self.teacher is None:
            for images, labels in loader:
                yield images, labels, ()
            return
        if teacher_logits is None:
            teacher_logits = self.teacher_logits(loader)
        for indices in loader.batch_indices():
            images, labels = loader.load(indices)
            yield images, labels, (Tensor(teacher_logits[indices]),)

    def train_epoch(self, loader, teacher_logits: Optional[np.ndarray] = None) -> EpochMetrics:
        """One optimisation pass over the loader.

        ``teacher_logits`` is :meth:`teacher_logits` of this loader, when
        the caller already has it (``fit`` computes it once per run).
        """
        self.model.train()
        total_loss = 0.0
        total_correct = 0
        total = 0
        for images, labels, teacher_args in self._batches(loader, teacher_logits):
            logits = self.model(Tensor(images))
            loss = self.loss_fn(logits, labels, *teacher_args)
            self.optimizer.zero_grad()
            loss.backward()
            if self._adaptive_clipper is not None:
                self._adaptive_clipper.clip(self.model.parameters())
            elif self.max_grad_norm is not None:
                clip_grad_norm_(self.model.parameters(), self.max_grad_norm)
            self.optimizer.step()
            batch = len(labels)
            total_loss += float(loss.data) * batch
            total_correct += int((logits.data.argmax(axis=1) == labels).sum())
            total += batch
        if total == 0:
            raise ValueError("loader produced no batches")
        return EpochMetrics(total_loss / total, total_correct / total, total)

    def training_loss(self, loader, teacher_logits: Optional[np.ndarray] = None) -> float:
        """Mean training loss over a loader without updating weights."""
        was_training = self.model.training
        self.model.eval()
        total_loss = 0.0
        total = 0
        with no_grad():
            for images, labels, teacher_args in self._batches(loader, teacher_logits):
                logits = self.model(Tensor(images))
                loss = self.loss_fn(logits, labels, *teacher_args)
                batch = len(labels)
                total_loss += float(loss.data) * batch
                total += batch
        self.model.train(was_training)
        if total == 0:
            raise ValueError("loader produced no batches")
        return total_loss / total

    def _back_off_lr(self) -> None:
        """Halve the LR persistently (through any scheduler)."""
        self.optimizer.lr *= self.ROLLBACK_BACKOFF
        if self.scheduler is not None:
            self.scheduler.base_lr *= self.ROLLBACK_BACKOFF

    def fit(self, train_loader, val_loader=None, epochs: int = 1) -> History:
        """Train for ``epochs`` epochs, recording train/val metrics."""
        history = History()
        best_loss = float("inf")
        best_state = None
        teacher_logits = self.teacher_logits(train_loader)
        if self.divergence_rollback:
            # Reference point: the untouched model. A first epoch that
            # *worsens* this is already a divergence (the dead-network
            # failure happens within one epoch).
            best_loss = self.training_loss(train_loader, teacher_logits)
            best_state = self.model.state_dict()
        for epoch in range(epochs):
            train_metrics = self.train_epoch(train_loader, teacher_logits)
            history.train.append(train_metrics)
            if self.divergence_rollback:
                loss = train_metrics.loss
                diverged = not np.isfinite(loss) or (
                    loss > best_loss * (1 + self.ROLLBACK_TOLERANCE) + 1e-12
                )
                if diverged and self.rollbacks < self.MAX_ROLLBACKS:
                    self.model.load_state_dict(best_state)
                    self.optimizer.reset_state()
                    self._back_off_lr()
                    self.rollbacks += 1
                elif loss < best_loss:
                    best_loss = loss
                    best_state = self.model.state_dict()
            if val_loader is not None:
                history.val.append(evaluate_model(self.model, val_loader))
            if self.scheduler is not None:
                self.scheduler.step()
            if self.epoch_callback is not None:
                self.epoch_callback(epoch, self, train_metrics)
        return history
