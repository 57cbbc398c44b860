"""Deterministic adapter training on the frozen toy backbone.

Adam over minibatches of cross-entropy plus the orthogonality penalty.
Checkpoint selection follows the validate-then-test protocol: the test
accuracy is measured exactly once, at the epoch with the best validation
accuracy, and that checkpoint is what the run returns.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .adapter import (INIT_STD, SLOTS, AdapterSet, SvdLoraAdapter, TargetId,
                      init_adapter)
from .data import Dataset, TaskSpec, generate_task
from .errors import DataError, NumericError, ParameterError, TrainingError
from .model import (TinyModel, backward, check_signature, cross_entropy, forward,
                    orthogonality_penalty)

_HEAD_TAG = 6661
_ADAPTER_TAG = 6662
_SHUFFLE_TAG = 6663
EVAL_CHUNK = 64  # samples per forward pass in evaluate


@dataclass(frozen=True)
class TrainConfig:
    """What a caller sets for one training run. The rest of the recipe is
    fixed: class constants, read like fields (``cfg.batch_size``), and part
    of :meth:`digest` as if they were fields, so config digests do not move."""

    learning_rate: float = 3e-4
    epochs: int = 100
    reg_weight: float = 0.1
    rank: int = 4
    seed: int = 0

    batch_size: ClassVar[int] = 32
    init_std: ClassVar[float] = INIT_STD
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    _DIGEST_KEYS: ClassVar[tuple[str, ...]] = (
        "learning_rate", "epochs", "batch_size", "reg_weight", "rank",
        "init_std", "beta1", "beta2", "adam_eps", "seed")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        if self.learning_rate <= 0 or self.epochs < 1 or self.rank < 1:
            raise ParameterError("learning rate, epochs and rank must be positive")
        if self.reg_weight < 0:
            raise ParameterError("regularizer weight must be non-negative")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")

    def digest(self) -> str:
        text = ",".join(f"{k}={getattr(self, k)}" for k in self._DIGEST_KEYS)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TrainResult:
    adapter_set: AdapterSet
    train_losses: list[float]
    val_accs: list[float]
    best_epoch: int
    test_acc: float


def loss(logits: np.ndarray, labels: np.ndarray, adapters: AdapterSet,
         reg_weight: float) -> float:
    """Mean cross-entropy plus the weighted orthogonality penalty."""
    ce, _ = cross_entropy(logits, labels)
    return ce + reg_weight * orthogonality_penalty(adapters)


def gradients(model: TinyModel, adapters: AdapterSet,
              x: np.ndarray, labels: np.ndarray,
              reg_weight: float,
              grads: AdapterSet | None = None) -> tuple[float, AdapterSet]:
    """The value of :func:`loss` and its exact gradients for every trainable
    tensor, as a set in ``adapters``' layout. They are written into ``grads``
    when given, else into a new set on a fresh vector: :func:`model.backward`
    overwrites every tensor with the network's gradients, then
    :func:`model.orthogonality_penalty` adds the regularizer's."""
    if grads is None:  # zeros, not empty: the constructors reject non-finite values
        n = sum(arr.size for _, _, arr in adapters.tensors())
        grads = adapters.on_flat(np.zeros(n))
    logits, cache = forward(model, adapters, x, want_cache=True)
    ce, dlogits = cross_entropy(logits, labels)
    backward(model, cache, dlogits, grads)
    penalty = orthogonality_penalty(adapters, grads, reg_weight)
    return ce + reg_weight * penalty, grads


def init_adapter_set(model: TinyModel, num_classes: int,
                     cfg: TrainConfig, task_name: str = "") -> AdapterSet:
    """Fresh zero-delta adapters on every Q/V target plus a random head."""
    adapters: dict[TargetId, SvdLoraAdapter] = {}
    for tid in model.targets():
        seed = [_ADAPTER_TAG, cfg.seed, tid.layer, SLOTS.index(tid.slot)]
        adapters[tid] = init_adapter(model.embed_dim, model.embed_dim, cfg.rank,
                                     seed=seed, target=tid)
    head_rng = np.random.default_rng([_HEAD_TAG, cfg.seed])
    head_w = INIT_STD * head_rng.standard_normal((model.embed_dim, num_classes))
    return AdapterSet(
        signature=model.signature,
        adapters=adapters,
        head_w=head_w,
        head_b=np.zeros(num_classes),
        metadata={"task": task_name, "seed": str(cfg.seed),
                  "config_digest": cfg.digest()},
    )


def evaluate(model: TinyModel, adapters: AdapterSet,
             split: tuple[np.ndarray, np.ndarray],
             head: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Argmax accuracy on one split; ties break toward the lowest class.

    The forward pass runs over ``EVAL_CHUNK`` samples at a time, which keeps
    its temporaries small and reused: one pass per split raised perfbench's
    bench-mini peak RSS from 55.0 to 61.1 MB. Logits that are not all finite
    (from adapters too large for the forward pass) raise NumericError: an
    argmax over NaN is no prediction.
    """
    x, y = split
    if len(y) == 0:
        raise DataError("cannot evaluate on an empty split")
    hits = 0
    for start in range(0, len(y), EVAL_CHUNK):
        stop = start + EVAL_CHUNK
        logits = forward(model, adapters, x[start:stop], head=head)
        if not np.isfinite(logits).all():
            raise NumericError(f"non-finite logits for samples {start} to "
                               f"{min(stop, len(y)) - 1} of the split")
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == y[start:stop]))
    return hits / len(y)


def train_adapter(model: TinyModel, spec: TaskSpec, cfg: TrainConfig,
                  init: AdapterSet | None = None,
                  dataset: Dataset | None = None) -> TrainResult:
    """Train adapters and head on one task; returns the best-val checkpoint.

    ``init`` may carry adapters from a merged set to fine-tune from, made
    for this model's backbone (``ModelError`` otherwise); it never carries
    the head, which is always freshly initialized from the run seed. Fully
    deterministic given (backbone seed, task seed, run seed).
    """
    if dataset is None:
        dataset = generate_task(spec)
    current = init_adapter_set(model, spec.num_classes, cfg, task_name=spec.label)
    if init is not None:
        check_signature(model, init)
        current = replace(current, adapters=dict(init.adapters),
                          metadata=current.metadata | {"init": "merged"})

    # theta is a copy of every trainable tensor in AdapterSet.tensors()
    # order, so init is never written. The set is rebuilt on views into it,
    # so Adam's in-place updates of theta are the live set's updates, and
    # every step's gradients are written into a set on views into g. m and
    # v are Adam's moment vectors, t its step count.
    theta = np.concatenate([arr.ravel() for _, _, arr in current.tensors()])
    current = current.on_flat(theta)
    g = np.zeros_like(theta)
    grads = current.on_flat(g)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    t = 0

    x_train, y_train = dataset.train
    n = len(y_train)
    rng = np.random.default_rng([_SHUFFLE_TAG, cfg.seed, spec.task_seed])

    train_losses: list[float] = []
    val_accs: list[float] = []
    best = (-1.0, -1)  # (val accuracy, epoch)
    best_theta = theta.copy()

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            value, _ = gradients(model, current, x_train[idx], y_train[idx],
                                 cfg.reg_weight, grads)
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, step {batches}"
                )
            t += 1
            m = cfg.beta1 * m + g * (1 - cfg.beta1)
            v = cfg.beta2 * v + g * g * (1 - cfg.beta2)
            if not np.isfinite(v).all():  # a non-finite gradient, or its square
                raise TrainingError(f"non-finite gradient or gradient square "
                                    f"at epoch {epoch}, step {batches}")
            theta -= (m / (1.0 - cfg.beta1 ** t) * cfg.learning_rate
                      / (np.sqrt(v / (1.0 - cfg.beta2 ** t)) + cfg.adam_eps))
            epoch_loss += value
            batches += 1
        train_losses.append(epoch_loss / batches)
        val_acc = evaluate(model, current, dataset.val)
        val_accs.append(val_acc)
        if val_acc > best[0]:
            best = (val_acc, epoch)
            best_theta = theta.copy()

    best_set = current.on_flat(best_theta)
    test_acc = evaluate(model, best_set, dataset.test)
    return TrainResult(
        adapter_set=best_set.canonicalized(),
        train_losses=train_losses,
        val_accs=val_accs,
        best_epoch=best[1],
        test_acc=test_acc,
    )


def curve_csv_lines(result: TrainResult) -> list[str]:
    lines = ["epoch,train_loss,val_acc"]
    for epoch, (tl, va) in enumerate(zip(result.train_losses, result.val_accs)):
        lines.append(f"{epoch},{tl:.17g},{va:.17g}")
    return lines


def epochs_to_accuracy(val_accs: list[float], target: float) -> int:
    """1-based epoch count to first reach ``target`` validation accuracy;
    len(val_accs) + 1 if never reached."""
    for epoch, acc in enumerate(val_accs):
        if acc >= target:
            return epoch + 1
    return len(val_accs) + 1
