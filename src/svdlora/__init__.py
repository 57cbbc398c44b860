"""SVD-structured low-rank adapters: train, merge without training, evaluate."""

import os

# Every GEMM here is small (256 token rows at d = 32 in training), so BLAS
# threads add only wake-up cost, and when another process holds a core a
# threaded GEMM waits for its descheduled helper: on a 2-core machine with
# one busy process beside it, a default training took 16 s with two BLAS
# threads and 5 s with one. BLAS reads these variables when numpy loads, so
# they are set before the imports below; a value the environment gives wins,
# and a process that loaded numpy first keeps its own thread count. Spawned
# workers (``svdlora bench --jobs N``) inherit them.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

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
