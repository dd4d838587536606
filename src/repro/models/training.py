"""Training and evaluation loops.

These are ordinary supervised-learning loops over the NumPy framework; they
exist so the model zoo can produce trained (then quantized) models for the
attack/defense experiments without any external dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.data.loader import DataLoader, iterate_batches
from repro.data.synthetic import Dataset
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, no_grad
from repro.nn.optim import Adam, SGD, Optimizer
from repro.nn.scheduler import CosineAnnealingLR
from repro.utils.logging import get_logger

logger = get_logger("models.training")


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`fit`."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    optimizer: str = "adam"
    cosine_schedule: bool = True
    seed: int = 0
    log_every: int = 0  # batches; 0 disables intra-epoch logging


@dataclass
class TrainResult:
    """Record of a training run."""

    train_losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)
    test_accuracies: List[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracies[-1] if self.test_accuracies else float("nan")


def _build_optimizer(model: Module, config: TrainConfig) -> Optimizer:
    name = config.optimizer.lower()
    if name == "sgd":
        return SGD(
            model.parameters(),
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
    if name == "adam":
        return Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    raise ValueError(f"Unknown optimizer {config.optimizer!r}")


def evaluate_accuracy(
    model: Module, dataset: Dataset, batch_size: int = 128, max_samples: Optional[int] = None
) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (fraction in [0, 1])."""
    model.eval()
    images, labels = dataset.images, dataset.labels
    if max_samples is not None and max_samples < len(dataset):
        images, labels = images[:max_samples], labels[:max_samples]
    correct = 0
    total = 0
    with no_grad():
        for batch_images, batch_labels in iterate_batches(images, labels, batch_size):
            predictions = model(batch_images).argmax(axis=1)
            correct += int((predictions == batch_labels).sum())
            total += batch_labels.shape[0]
    return correct / total if total else float("nan")


def evaluate_loss(
    model: Module, images: np.ndarray, labels: np.ndarray, batch_size: int = 128
) -> float:
    """Mean cross-entropy loss of ``model`` on the given samples."""
    model.eval()
    criterion = CrossEntropyLoss()
    losses = []
    weights = []
    with no_grad():
        for batch_images, batch_labels in iterate_batches(images, labels, batch_size):
            losses.append(criterion(model(batch_images), batch_labels))
            weights.append(batch_labels.shape[0])
    if not losses:
        return float("nan")
    return float(np.average(losses, weights=weights))


def fit(
    model: Module,
    train_set: Dataset,
    test_set: Optional[Dataset] = None,
    config: Optional[TrainConfig] = None,
) -> TrainResult:
    """Train ``model`` on ``train_set`` and return per-epoch metrics."""
    config = config or TrainConfig()
    optimizer = _build_optimizer(model, config)
    scheduler = CosineAnnealingLR(optimizer, config.epochs) if config.cosine_schedule else None
    criterion = CrossEntropyLoss()
    loader = DataLoader(train_set, batch_size=config.batch_size, shuffle=True, seed=config.seed)
    result = TrainResult()

    for epoch in range(config.epochs):
        model.train()
        epoch_losses = []
        correct = 0
        seen = 0
        for batch_index, (images, labels) in enumerate(loader):
            optimizer.zero_grad()
            logits = model(images)
            loss = criterion(logits, labels)
            grad_logits = criterion.backward()
            model.backward(grad_logits)
            optimizer.step()

            epoch_losses.append(loss)
            correct += int((logits.argmax(axis=1) == labels).sum())
            seen += labels.shape[0]
            if config.log_every and (batch_index + 1) % config.log_every == 0:
                logger.info(
                    "epoch %d batch %d loss %.4f", epoch + 1, batch_index + 1, loss
                )

        train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        train_accuracy = correct / seen if seen else float("nan")
        result.train_losses.append(train_loss)
        result.train_accuracies.append(train_accuracy)
        if test_set is not None:
            test_accuracy = evaluate_accuracy(model, test_set)
            result.test_accuracies.append(test_accuracy)
            logger.info(
                "epoch %d: loss %.4f train_acc %.3f test_acc %.3f",
                epoch + 1, train_loss, train_accuracy, test_accuracy,
            )
        if scheduler is not None:
            scheduler.step()
    model.eval()
    return result
