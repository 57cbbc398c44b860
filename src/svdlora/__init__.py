"""SVD-structured low-rank adapters: train, merge without training, evaluate."""

from .adapter import (AdapterSet, ModelSignature, SvdLoraAdapter, TargetId,
                      canonicalize, delta, init_adapter, param_count)
from .data import Dataset, TaskSpec, generate_task
from .linalg import SvdFactors, frobenius_norm, svd, truncate
from .merge import (MergeConfig, MergeMethod, MergeReport, baseline_pre_merge,
                    merge_sets, merge_target, premerge_postmerge_gap)
from .model import TinyModel, forward
from .storage import load_adapter_set, load_merge_report, save_adapter_set, save_merge_report
from .train import TrainConfig, TrainResult, evaluate, gradients, loss, train_adapter

__all__ = [
    "AdapterSet", "ModelSignature", "SvdLoraAdapter", "TargetId",
    "canonicalize", "delta", "init_adapter", "param_count",
    "Dataset", "TaskSpec", "generate_task",
    "SvdFactors", "frobenius_norm", "svd", "truncate",
    "MergeConfig", "MergeMethod", "MergeReport", "baseline_pre_merge",
    "merge_sets", "merge_target", "premerge_postmerge_gap",
    "TinyModel", "forward",
    "load_adapter_set", "load_merge_report", "save_adapter_set", "save_merge_report",
    "TrainConfig", "TrainResult", "evaluate", "gradients", "loss", "train_adapter",
]

__version__ = "0.1.0"
