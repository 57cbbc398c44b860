"""Synthetic multi-task sequence classification datasets.

Each task draws token sequences from class-conditional Gaussian cluster
mixtures. Cluster means depend on the task seed (and optionally a shared
family seed, so related tasks can share geometry); splits come from
disjoint RNG streams so train/val/test never overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Stream tags keep the RNG streams for geometry / jitter / samples disjoint.
_GEOM_TAG = 7771
_JITTER_TAG = 7772
_SAMPLE_TAG = 7773


@dataclass(frozen=True)
class TaskSpec:
    task_seed: int
    num_classes: int = 2
    seq_len: int = 8
    embed_dim: int = 32
    n_train: int = 512
    n_val: int = 128
    n_test: int = 256
    components: int = 1       # mixture components per class
    separation: float = 3.0   # cluster mean radius, in units of token noise
    noise: float = 1.0        # per-token isotropic noise std
    family_seed: int | None = None  # shared geometry family for related tasks
    name: str = ""

    def __post_init__(self):
        if not (2 <= self.num_classes <= 8):
            raise ParameterError(f"num_classes must be in [2, 8], got {self.num_classes}")
        if min(self.seq_len, self.embed_dim, self.components) < 1:
            raise ParameterError("seq_len, embed_dim and components must be positive")
        if min(self.n_train, self.n_val, self.n_test) < self.num_classes:
            raise ParameterError("every split must hold at least one sample per class")
        if not (0 <= self.separation < math.inf and 0 <= self.noise < math.inf):
            raise ParameterError(
                f"separation and noise must be finite and non-negative, got "
                f"{self.separation} and {self.noise}"
            )
        # The largest array is a split's tokens or the cluster means; numpy
        # cannot even describe one of more than intp-max bytes.
        largest = 8 * self.embed_dim * max(
            max(self.n_train, self.n_val, self.n_test) * self.seq_len,
            self.num_classes * self.components)
        if largest > np.iinfo(np.intp).max:
            raise ParameterError(f"the task's largest array would take {largest} bytes, "
                                 "more than numpy can index")

    @property
    def label(self) -> str:
        return self.name or f"task{self.task_seed}"


@dataclass(frozen=True)
class Dataset:
    """One task's splits; X has shape (n, seq_len, embed_dim), y is int64."""

    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def cluster_means(spec: TaskSpec) -> np.ndarray:
    """Per-(class, component) means, shape (num_classes, components, embed_dim)."""
    shape = (spec.num_classes, spec.components, spec.embed_dim)
    if spec.family_seed is None:
        rng = np.random.default_rng([_GEOM_TAG, spec.task_seed])
        dirs = _unit_rows(rng.standard_normal(shape))
    else:
        base_rng = np.random.default_rng([_GEOM_TAG, spec.family_seed])
        base = _unit_rows(base_rng.standard_normal(shape))
        jitter_rng = np.random.default_rng([_JITTER_TAG, spec.task_seed])
        jitter = _unit_rows(jitter_rng.standard_normal(shape))
        dirs = _unit_rows(base + 0.3 * jitter)
    return spec.separation * dirs


def _make_split(spec: TaskSpec, means: np.ndarray, split_index: int,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([_SAMPLE_TAG, spec.task_seed, split_index])
    labels = np.arange(n, dtype=np.int64) % spec.num_classes  # balanced within +-1
    rng.shuffle(labels)
    comps = rng.integers(0, spec.components, size=n)
    centers = means[labels, comps]  # (n, d)
    x = centers[:, None, :] + spec.noise * rng.standard_normal(
        (n, spec.seq_len, spec.embed_dim)
    )
    return x, labels


def generate_task(spec: TaskSpec) -> Dataset:
    """Deterministic dataset for one task spec."""
    means = cluster_means(spec)
    return Dataset(
        train=_make_split(spec, means, 0, spec.n_train),
        val=_make_split(spec, means, 1, spec.n_val),
        test=_make_split(spec, means, 2, spec.n_test),
    )
