"""Training-free merging of adapter sets.

:func:`merge_sets` is the one entry point; :func:`merge_target` merges one
target by ``MergeConfig.method``. The main route (med-lego) averages the
deltas of all inputs, SVD-decomposes the average, and keeps the leading
components up to a cumulative singular-mass threshold. The average is never
formed densely: the inputs are stacked into one wide adapter (``[B_i]``,
``[E_i]/N``, ``[A_i]``) whose SVD comes from :func:`adapter.svd_factors`, the
package's one route to SVD form. Baselines: task arithmetic, the same stack
scaled by lambda with every non-zero component kept, and factor-wise
(pre-multiplication) averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .adapter import (AdapterSet, SvdLoraAdapter, TargetId, delta, drop_zeros,
                      from_svd, spectrum, svd_factors)
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
    """``threshold_v`` and ``max_rank`` set med-lego's cut and ``lam`` task
    arithmetic's scale; setting one for a method it does not apply to is a
    ``ParameterError``, not silently ignored."""

    method: MergeMethod = MergeMethod.MED_LEGO
    threshold_v: float = DEFAULT_THRESHOLD
    max_rank: int | None = None
    lam: float | None = None  # task-arithmetic scale; defaults to 1/N

    def __post_init__(self):
        if not isinstance(self.method, MergeMethod):
            raise ParameterError(f"unknown merge method {self.method!r}")
        linalg.check_cut(self.threshold_v, self.max_rank)
        if self.lam is not None and self.method is not MergeMethod.TASK_ARITHMETIC:
            raise ParameterError("lambda applies to task-arith only")
        if self.lam is not None and not math.isfinite(self.lam):
            raise ParameterError(f"lambda must be finite, got {self.lam}")
        if self.method is not MergeMethod.MED_LEGO and (
                self.threshold_v != DEFAULT_THRESHOLD or self.max_rank is not None):
            raise ParameterError("threshold and max_rank apply to med-lego only")

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


def full_spectrum(s: np.ndarray, shape: tuple[int, int]) -> tuple[float, ...]:
    """Singular values ``s`` of a ``shape`` matrix, padded with exact zeros
    to min(d_m, d_n) entries."""
    return tuple(float(v) for v in s) + (0.0,) * (min(shape) - len(s))


def merge_target(adapters: list[SvdLoraAdapter],
                 cfg: MergeConfig) -> tuple[SvdLoraAdapter, TargetRecord]:
    """Merge one target's adapters by ``cfg.method``.

    med-lego: SVD of the mean delta from the stacked factors, truncated so
    the kept singular values carry at least ``threshold_v`` of the singular
    mass. task-arith: SVD of ``lam * sum_i delta_i`` (lam defaults to 1/N)
    from the same stack, every non-zero component kept. pre-avg: the
    factor-wise average, whose singular values serve the record only. Input ranks may
    differ except for pre-avg. The record's spectrum is that of the merged
    delta before any cut; its kept rank is the returned adapter's rank.
    """
    if not adapters:
        raise ParameterError("need at least one adapter to merge")
    _check_same_shape(adapters)
    target = adapters[0].target
    if cfg.method is MergeMethod.PRE_MERGE_AVERAGE:
        merged = baseline_pre_merge(adapters)
        s = kept_s = spectrum(merged.B, merged.E, merged.A)
    else:
        f = _stacked_svd(adapters, 1.0 / len(adapters) if cfg.lam is None else cfg.lam)
        if cfg.method is MergeMethod.MED_LEGO:
            kept = linalg.truncate(f, cfg.threshold_v, cfg.max_rank)
        else:
            kept = drop_zeros(f)
        merged = from_svd(target, kept)
        s, kept_s = f.S, kept.S
    total = float(np.sum(s))
    record = TargetRecord(
        target=target,
        input_ranks=tuple(a.rank for a in adapters),
        spectrum=full_spectrum(s, merged.shape),
        kept_rank=merged.rank,
        retained_mass=float(np.sum(kept_s)) / total if total > 0 else 1.0,
    )
    return merged, record


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


# perfbench's tracer binds the two wrappers below by name.
def baseline_pre_merge_sets(sets: list[AdapterSet]) -> AdapterSet:
    """``merge_sets`` with factor-wise averaging, without the report."""
    return merge_sets(sets, MergeConfig(method=MergeMethod.PRE_MERGE_AVERAGE))[0]


def baseline_task_arithmetic(sets: list[AdapterSet],
                             lam: float | None = None) -> AdapterSet:
    """``merge_sets`` with task arithmetic at ``lam``, without the report."""
    return merge_sets(sets, MergeConfig(method=MergeMethod.TASK_ARITHMETIC, lam=lam))[0]


def premerge_postmerge_gap(adapters: list[SvdLoraAdapter]) -> float:
    """Frobenius distance between factor-averaged and delta-averaged merges.

    Zero for identical inputs, generically positive otherwise: averaging
    factors does not commute with multiplying them out.
    """
    pre = delta(baseline_pre_merge(adapters))
    post = sum(delta(a) for a in adapters) / len(adapters)
    d = pre - post
    return float(np.sqrt(np.sum(d * d)))
