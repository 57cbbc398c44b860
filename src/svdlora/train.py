"""Deterministic adapter training on the frozen toy backbone.

Adam over minibatches of cross-entropy plus the orthogonality penalty.
Checkpoint selection follows the validate-then-test protocol: the test
accuracy is measured exactly once, at the epoch with the best validation
accuracy, and that checkpoint is what the run returns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .adapter import AdapterSet, SvdLoraAdapter, TargetId, init_adapter
from .data import Dataset, TaskSpec, generate_task
from .errors import DataError, ParameterError, TrainingError
from .model import (GradSet, TinyModel, backward, cross_entropy, forward,
                    orthogonality_penalty)

_HEAD_TAG = 6661
_ADAPTER_TAG = 6662
_SHUFFLE_TAG = 6663
EVAL_CHUNK = 64  # samples per forward pass in evaluate


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    epochs: int = 100
    batch_size: int = 32
    reg_weight: float = 0.1
    rank: int = 4
    init_std: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ParameterError("learning rate, batch size and epochs must be positive")
        if self.rank < 1 or self.init_std <= 0:
            raise ParameterError("rank and init std must be positive")
        if self.reg_weight < 0:
            raise ParameterError("regularizer weight must be non-negative")

    def digest(self) -> str:
        text = ",".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class TrainResult:
    adapter_set: AdapterSet
    train_losses: list[float]
    val_accs: list[float]
    best_epoch: int
    test_acc: float
    ortho_penalties: list[float] = field(default_factory=list)  # per epoch, raw factors


def loss(logits: np.ndarray, labels: np.ndarray, adapters: AdapterSet,
         reg_weight: float) -> float:
    """Mean cross-entropy plus the weighted orthogonality penalty."""
    ce, _ = cross_entropy(logits, labels)
    return ce + reg_weight * orthogonality_penalty(adapters)


def gradients(model: TinyModel, adapters: AdapterSet,
              x: np.ndarray, labels: np.ndarray,
              reg_weight: float,
              grads: GradSet | None = None) -> tuple[float, GradSet]:
    """Loss value and exact gradients for every trainable block, written
    into ``grads`` when given (see :func:`model.backward`)."""
    logits, cache = forward(model, adapters, x, want_cache=True)
    ce, dlogits = cross_entropy(logits, labels)
    grads = backward(model, adapters, cache, dlogits, reg_weight, grads)
    return ce + reg_weight * grads.ortho_penalty, grads


def init_adapter_set(model: TinyModel, num_classes: int,
                     cfg: TrainConfig, task_name: str = "") -> AdapterSet:
    """Fresh zero-delta adapters on every Q/V target plus a random head."""
    adapters: dict[TargetId, SvdLoraAdapter] = {}
    for tid in model.targets():
        seed = [_ADAPTER_TAG, cfg.seed, tid.layer, 0 if tid.slot == "Q" else 1]
        a = init_adapter(model.embed_dim, model.embed_dim, cfg.rank,
                         seed=seed, target=tid, std=cfg.init_std)
        adapters[tid] = a
    head_rng = np.random.default_rng([_HEAD_TAG, cfg.seed])
    head_w = cfg.init_std * head_rng.standard_normal((model.embed_dim, num_classes))
    return AdapterSet(
        signature=model.signature,
        adapters=adapters,
        head_w=head_w,
        head_b=np.zeros(num_classes),
        metadata={"task": task_name, "seed": str(cfg.seed),
                  "config_digest": cfg.digest()},
    )


class _Adam:
    """Adam over one flat parameter vector, updated in place.

    Each step applies p - lr * mhat / (sqrt(vhat) + eps) with the same
    elementwise operations in the same order as the textbook formula, so the
    result is bit-identical to it; only the temporaries are reused.
    """

    def __init__(self, size: int, cfg: TrainConfig):
        self.cfg = cfg
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._denom = np.empty(size)
        self._update = np.empty(size)
        self.t = 0

    def step(self, theta: np.ndarray, g: np.ndarray) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        denom, update = self._denom, self._update
        np.multiply(g, 1 - c.beta1, out=update)
        self.m *= c.beta1
        self.m += update
        np.multiply(g, g, out=update)
        update *= 1 - c.beta2
        self.v *= c.beta2
        self.v += update
        np.divide(self.v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += c.adam_eps
        np.divide(self.m, bc1, out=update)
        update *= c.learning_rate
        update /= denom
        theta -= update


def evaluate(model: TinyModel, adapters: AdapterSet,
             split: tuple[np.ndarray, np.ndarray],
             head: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Argmax accuracy on one split; ties break toward the lowest class.

    The forward pass runs over ``EVAL_CHUNK`` samples at a time, which keeps
    its temporaries small and reused.
    """
    x, y = split
    if len(y) == 0:
        raise DataError("cannot evaluate on an empty split")
    hits = 0
    for start in range(0, len(y), EVAL_CHUNK):
        stop = start + EVAL_CHUNK
        logits = forward(model, adapters, x[start:stop], head=head)
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == y[start:stop]))
    return hits / len(y)


def train_adapter(model: TinyModel, spec: TaskSpec, cfg: TrainConfig,
                  init: AdapterSet | None = None,
                  dataset: Dataset | None = None) -> TrainResult:
    """Train adapters and head on one task; returns the best-val checkpoint.

    ``init`` may carry adapters from a merged set to fine-tune from; it
    never carries the head, which is always freshly initialized from the
    run seed. Fully deterministic given (backbone seed, task seed, run seed).
    """
    if dataset is None:
        dataset = generate_task(spec)
    current = init_adapter_set(model, spec.num_classes, cfg, task_name=spec.label)
    if init is not None:
        current = replace(current, adapters=dict(init.adapters),
                          metadata=current.metadata | {"init": "merged"})

    # theta is a copy of every trainable tensor in AdapterSet.tensors()
    # order, so init is never written. The set is rebuilt on views into it,
    # and every step's gradients are written into one GradSet of the same
    # layout, so Adam's in-place updates of theta are the live set's updates.
    theta = np.concatenate([arr.ravel() for _, _, arr in current.tensors()])
    current = current.on_flat(theta)
    grads = GradSet(current)
    opt = _Adam(theta.size, cfg)

    x_train, y_train = dataset.train
    n = len(y_train)
    rng = np.random.default_rng([_SHUFFLE_TAG, cfg.seed, spec.task_seed])

    train_losses: list[float] = []
    val_accs: list[float] = []
    ortho_penalties: list[float] = []
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
            opt.step(theta, grads.flat)
            epoch_loss += value
            batches += 1
        train_losses.append(epoch_loss / batches)
        ortho_penalties.append(orthogonality_penalty(current))
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
        ortho_penalties=ortho_penalties,
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
