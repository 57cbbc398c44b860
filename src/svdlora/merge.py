"""Training-free merging of adapter sets.

The main route averages the deltas of all inputs, SVD-decomposes the
average, and keeps the leading components up to a cumulative singular-mass
threshold. The average is never formed densely: the inputs are stacked
into one wide adapter (``[B_i]``, ``[E_i]/N``, ``[A_i]``) whose SVD comes
from :func:`adapter.svd_factors`, the package's one route to SVD form.
Baselines: factor-wise (pre-multiplication) averaging, and task arithmetic,
which is the same stack scaled by lambda with every non-zero component kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .adapter import (AdapterSet, SvdLoraAdapter, TargetId, delta, drop_zeros,
                      from_svd, svd_factors)
from .errors import MergeError, ParameterError


class MergeMethod(Enum):
    """Implemented merge strategies.

    Sign-election (Ties-Merging), drop-and-rescale (DARE), PEM Composition
    and sequential merging (MagMax) are known alternatives and deliberately
    not implemented here.
    """

    MED_LEGO = "med-lego"
    PRE_MERGE_AVERAGE = "pre-avg"
    TASK_ARITHMETIC = "task-arith"


DEFAULT_THRESHOLD = 0.997


@dataclass(frozen=True)
class MergeConfig:
    method: MergeMethod = MergeMethod.MED_LEGO
    threshold_v: float = DEFAULT_THRESHOLD
    max_rank: int | None = None
    lam: float | None = None  # task-arithmetic scale; defaults to 1/N

    def __post_init__(self):
        if not (0.0 < self.threshold_v <= 1.0):
            raise ParameterError(f"threshold must lie in (0, 1], got {self.threshold_v}")
        if self.max_rank is not None and self.max_rank < 1:
            raise ParameterError(f"max_rank must be positive, got {self.max_rank}")

    def as_dict(self) -> dict:
        return {
            "method": self.method.value,
            "threshold_v": self.threshold_v,
            "max_rank": self.max_rank,
            "lambda": self.lam,
        }


@dataclass(frozen=True)
class TargetRecord:
    """Audit record for one merged target."""

    target: TargetId
    input_ranks: tuple[int, ...]
    spectrum: tuple[float, ...]  # full spectrum, zero past sum(input_ranks)
    kept_rank: int
    retained_mass: float

    def as_dict(self) -> dict:
        return {
            "target": str(self.target),
            "input_ranks": list(self.input_ranks),
            "spectrum": list(self.spectrum),
            "kept_rank": self.kept_rank,
            "retained_mass": self.retained_mass,
        }


@dataclass
class MergeReport:
    config: MergeConfig
    input_digests: list[str]
    records: list[TargetRecord] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "input_digests": list(self.input_digests),
            "records": [r.as_dict() for r in self.records],
        }


def _check_same_shape(adapters: list[SvdLoraAdapter]) -> None:
    shapes = {a.shape for a in adapters}
    if len(shapes) > 1:
        targets = ", ".join(f"{a.target}:{a.shape}" for a in adapters)
        raise MergeError(f"adapters have mismatched shapes: {targets}")


def _stacked_svd(adapters: list[SvdLoraAdapter], scale: float) -> linalg.SvdFactors:
    """SVD of ``scale * sum_i delta_i`` from the stacked factors.

    The stack has inner width sum_i r_i, which may exceed min(d_m, d_n).
    """
    return svd_factors(np.hstack([a.B for a in adapters]),
                       scale * np.concatenate([a.E for a in adapters]),
                       np.vstack([a.A for a in adapters]))


def full_spectrum(f: linalg.SvdFactors) -> tuple[float, ...]:
    """Singular values padded with exact zeros to min(d_m, d_n) entries."""
    width = min(f.U.shape[0], f.V.shape[0])
    return tuple(float(s) for s in f.S) + (0.0,) * (width - f.rank)


def merge_target(adapters: list[SvdLoraAdapter],
                 cfg: MergeConfig) -> tuple[SvdLoraAdapter, TargetRecord]:
    """Average deltas, decompose, and truncate by singular mass.

    Input ranks may differ; the result is canonical by construction with
    rank k chosen so the kept singular values carry at least ``threshold_v``
    of the total singular mass.
    """
    if not adapters:
        raise ParameterError("need at least one adapter to merge")
    _check_same_shape(adapters)
    f = _stacked_svd(adapters, 1.0 / len(adapters))
    kept = linalg.truncate(f, cfg.threshold_v, cfg.max_rank)
    total = float(np.sum(f.S))
    retained = float(np.sum(kept.S)) / total if total > 0 else 1.0
    record = TargetRecord(
        target=adapters[0].target,
        input_ranks=tuple(a.rank for a in adapters),
        spectrum=full_spectrum(f),
        kept_rank=kept.rank,
        retained_mass=retained,
    )
    return from_svd(adapters[0].target, kept), record


def _check_compatible_sets(sets: list[AdapterSet]) -> list[TargetId]:
    if not sets:
        raise ParameterError("need at least one adapter set to merge")
    signature = sets[0].signature
    for s in sets[1:]:
        if s.signature != signature:
            raise MergeError(
                f"model signature mismatch: {signature} vs {s.signature}"
            )
    targets = set(sets[0].adapters)
    for s in sets[1:]:
        if set(s.adapters) != targets:
            missing = sorted(targets.symmetric_difference(s.adapters), key=str)
            raise MergeError(
                "target coverage mismatch: " + ", ".join(str(t) for t in missing)
            )
    return sorted(targets)


def merge_sets(sets: list[AdapterSet],
               cfg: MergeConfig) -> tuple[AdapterSet, MergeReport]:
    """Per-target merge across whole adapter sets.

    All inputs must share the backbone signature and cover identical
    targets. Classifier heads are task-specific and never merged; the
    output set carries no head.
    """
    targets = _check_compatible_sets(sets)
    report = MergeReport(config=cfg, input_digests=[s.digest() for s in sets])
    merged: dict[TargetId, SvdLoraAdapter] = {}
    for t in targets:
        ad, record = merge_target([s.adapters[t] for s in sets], cfg)
        merged[t] = ad
        report.records.append(record)
    out = AdapterSet(
        signature=sets[0].signature,
        adapters=merged,
        metadata={
            "kind": "merged",
            "method": cfg.method.value,
            "inputs": ",".join(report.input_digests),
        },
    )
    return out, report


def baseline_pre_merge(adapters: list[SvdLoraAdapter]) -> SvdLoraAdapter:
    """Average B, E, A factor-wise before multiplying.

    Requires identical ranks; unlike the SVD route this baseline cannot
    fuse adapters of different ranks, and its delta generally differs from
    the average of the input deltas.
    """
    if not adapters:
        raise ParameterError("need at least one adapter to merge")
    _check_same_shape(adapters)
    ranks = {a.rank for a in adapters}
    if len(ranks) > 1:
        raise MergeError(f"pre-merge averaging needs equal ranks, got {sorted(ranks)}")
    n = len(adapters)
    return SvdLoraAdapter(
        target=adapters[0].target,
        B=sum(a.B for a in adapters) / n,
        E=sum(a.E for a in adapters) / n,
        A=sum(a.A for a in adapters) / n,
    )


def baseline_pre_merge_sets(sets: list[AdapterSet]) -> AdapterSet:
    """Factor-wise averaging applied target by target across sets."""
    targets = _check_compatible_sets(sets)
    merged = {t: baseline_pre_merge([s.adapters[t] for s in sets]) for t in targets}
    return AdapterSet(
        signature=sets[0].signature,
        adapters=merged,
        metadata={"kind": "merged", "method": MergeMethod.PRE_MERGE_AVERAGE.value},
    )


def baseline_task_arithmetic(sets: list[AdapterSet],
                             lam: float | None = None) -> AdapterSet:
    """Scaled sum of per-task deltas, as an exact low-rank adapter set.

    With the backbone frozen each task vector is exactly the adapter delta,
    so task arithmetic reduces to ``lam * sum_i delta_i`` per target: the
    stacked adapter, canonicalized, of rank at most sum_i r_i.
    """
    targets = _check_compatible_sets(sets)
    if lam is None:
        lam = 1.0 / len(sets)
    merged = {
        t: from_svd(t, drop_zeros(_stacked_svd([s.adapters[t] for s in sets], lam)))
        for t in targets
    }
    return AdapterSet(
        signature=sets[0].signature,
        adapters=merged,
        metadata={"kind": "merged", "method": MergeMethod.TASK_ARITHMETIC.value},
    )


def premerge_postmerge_gap(adapters: list[SvdLoraAdapter]) -> float:
    """Frobenius distance between factor-averaged and delta-averaged merges.

    Zero for identical inputs, generically positive otherwise: averaging
    factors does not commute with multiplying them out.
    """
    pre = delta(baseline_pre_merge(adapters))
    post = sum(delta(a) for a in adapters) / len(adapters)
    return linalg.frobenius_norm(pre - post)
