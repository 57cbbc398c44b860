"""Desk-scale benchmark: cross-domain merging, in-domain merging, and
fine-tuning held-out tasks from merged initializations.

The default suite is fixed (seeds and all) so reruns are byte-identical:
seven dissimilar cross-domain tasks, three related chest-style tasks from
one geometry family (one harder via reduced separation), three held-out
tasks from the same family, five run seeds per cell.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .adapter import AdapterSet
from .data import TaskSpec, generate_task
from .errors import ParameterError
from .merge import MergeConfig, MergeMethod, merge_sets
from .model import DEFAULT_BACKBONE_SEED, TinyModel
from .train import (TrainConfig, TrainResult, curve_csv_lines, epochs_to_accuracy,
                    evaluate, train_adapter)

REACH_TARGET = 0.8  # validation accuracy level for convergence-speed curves
# Columns of the merge CSVs and summary tables: the specialists, then med-lego
# and each baseline in MergeMethod order.
MERGE_COLUMNS = ("specialist",) + tuple(m.value for m in MergeMethod)


@dataclass(frozen=True)
class BenchSuite:
    backbone_seed: int = DEFAULT_BACKBONE_SEED
    cross_tasks: tuple[TaskSpec, ...] = ()
    in_domain_tasks: tuple[TaskSpec, ...] = ()
    held_out_tasks: tuple[TaskSpec, ...] = ()
    seeds_per_cell: int = 5

    def __post_init__(self):
        seeds = [t.task_seed for t in self.cross_tasks + self.in_domain_tasks
                 + self.held_out_tasks]
        if len(seeds) != len(set(seeds)):
            raise ParameterError("task seeds must be distinct across the suite")
        if self.seeds_per_cell < 1:
            raise ParameterError(f"seeds_per_cell must be >= 1, got {self.seeds_per_cell}")

    @property
    def run_seeds(self) -> range:
        return range(1, self.seeds_per_cell + 1)


_CXR_FAMILY = 50


def default_suite() -> BenchSuite:
    cross = (
        TaskSpec(101, num_classes=2, components=1, separation=2.0, name="alpha"),
        TaskSpec(102, num_classes=8, components=1, separation=2.5, name="bravo"),
        TaskSpec(103, num_classes=7, components=2, separation=3.0, name="charlie"),
        TaskSpec(104, num_classes=5, components=1, separation=1.5, name="delta"),
        TaskSpec(105, num_classes=4, components=2, separation=2.0, name="echo"),
        TaskSpec(106, num_classes=2, components=2, separation=3.0, name="foxtrot"),
        TaskSpec(107, num_classes=3, components=1, separation=2.5, noise=1.5,
                 name="golf"),
    )
    in_domain = (
        TaskSpec(201, num_classes=2, components=2, separation=2.5,
                 family_seed=_CXR_FAMILY, name="cxr-a"),
        TaskSpec(202, num_classes=4, components=2, separation=2.5,
                 family_seed=_CXR_FAMILY, name="cxr-b"),
        TaskSpec(203, num_classes=2, components=2, separation=1.2,
                 family_seed=_CXR_FAMILY, name="cxr-hard"),
    )
    held_out = (
        TaskSpec(301, num_classes=3, components=2, separation=2.0,
                 family_seed=_CXR_FAMILY, name="new-a"),
        TaskSpec(302, num_classes=2, components=2, separation=1.8,
                 family_seed=_CXR_FAMILY, name="new-b"),
        TaskSpec(303, num_classes=4, components=2, separation=2.2,
                 family_seed=_CXR_FAMILY, name="new-c"),
    )
    return BenchSuite(cross_tasks=cross, in_domain_tasks=in_domain,
                      held_out_tasks=held_out)


def _train_job(args) -> tuple[tuple, TrainResult]:
    key, model, spec, cfg, init, dataset = args
    return key, train_adapter(model, spec, cfg, init=init, dataset=dataset)


def _run_jobs(jobs: list[tuple], jobs_n: int) -> dict:
    """Run (key, model, spec, cfg, init, dataset) training jobs, optionally
    in parallel; results are keyed so ordering never depends on completion.
    Each task's dataset is generated once by the caller and shared by all
    of its jobs."""
    if jobs_n <= 1:
        return {key: res for key, res in map(_train_job, jobs)}
    # Imported here so that single-job runs never load the process-pool
    # machinery, which only adds to their resident memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # The workers are spawned fresh, so their numpy loads with the BLAS
    # thread count that importing svdlora sets (one, unless the environment
    # gives another); threaded GEMMs in workers that share the cores stall.
    # The thread count does not change GEMM results; criterion 11 compares
    # the outputs byte for byte.
    with ProcessPoolExecutor(max_workers=jobs_n,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return {key: res for key, res in pool.map(_train_job, jobs)}


@dataclass
class MergeExperimentResult:
    """Per-seed merged-model accuracies for one task group."""

    tasks: tuple[TaskSpec, ...]
    # accuracy[seed][method][task.label]; method includes "specialist"
    accuracy: dict[int, dict[str, dict[str, float]]] = field(default_factory=dict)
    merged_sets: dict[int, AdapterSet] = field(default_factory=dict)  # med-lego

    def mean_accuracy(self, seed: int, method: str) -> float:
        accs = self.accuracy[seed][method]
        return sum(accs.values()) / len(accs)


def run_merge_experiment(model: TinyModel, tasks: tuple[TaskSpec, ...],
                         suite: BenchSuite, seed_base: int,
                         jobs_n: int = 1) -> MergeExperimentResult:
    """Train specialists per run seed, merge with every method, evaluate
    every merged model on every task with that task's specialist head."""
    datasets = {t.label: generate_task(t) for t in tasks}
    jobs = []
    for s in suite.run_seeds:
        for i, t in enumerate(tasks):
            cfg = TrainConfig(seed=seed_base + 100 * s + i)
            jobs.append(((s, t.label), model, t, cfg, None, datasets[t.label]))
    trained = _run_jobs(jobs, jobs_n)

    result = MergeExperimentResult(tasks=tasks)
    for s in suite.run_seeds:
        specialists = [trained[(s, t.label)].adapter_set for t in tasks]
        heads = {t.label: (sp.head_w, sp.head_b)
                 for t, sp in zip(tasks, specialists)}
        merged = {m.value: merge_sets(specialists, MergeConfig(method=m))[0]
                  for m in MergeMethod}
        accs: dict[str, dict[str, float]] = {"specialist": {}}
        for t, sp in zip(tasks, specialists):
            accs["specialist"][t.label] = trained[(s, t.label)].test_acc
        for method, mset in merged.items():
            accs[method] = {
                t.label: evaluate(model, mset, datasets[t.label].test,
                                  head=heads[t.label])
                for t in tasks
            }
        result.accuracy[s] = accs
        result.merged_sets[s] = merged[MergeMethod.MED_LEGO.value]
    return result


@dataclass
class FinetuneExperimentResult:
    # curves[(task.label, init, seed)] = TrainResult
    curves: dict[tuple[str, str, int], TrainResult] = field(default_factory=dict)

    def epochs_to_target(self, task: str, init: str, seed: int) -> int:
        return epochs_to_accuracy(self.curves[(task, init, seed)].val_accs,
                                  REACH_TARGET)


def run_finetune_experiment(model: TinyModel, suite: BenchSuite,
                            cross: MergeExperimentResult,
                            in_domain: MergeExperimentResult,
                            jobs_n: int = 1) -> FinetuneExperimentResult:
    """Fine-tune held-out tasks from fresh vs merged initializations.

    The same run seed is shared across inits for a fair comparison; merged
    inits come from the matching run seed of the merge experiments.
    """
    datasets = {t.label: generate_task(t) for t in suite.held_out_tasks}
    jobs = []
    for s in suite.run_seeds:
        inits = {
            "fresh": None,
            "merged-cross": cross.merged_sets[s],
            "merged-indomain": in_domain.merged_sets[s],
        }
        for i, t in enumerate(suite.held_out_tasks):
            cfg = TrainConfig(seed=30000 + 100 * s + i)
            for init_name, init in inits.items():
                jobs.append(((t.label, init_name, s), model, t, cfg, init,
                             datasets[t.label]))
    trained = _run_jobs(jobs, jobs_n)
    return FinetuneExperimentResult(curves=trained)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _merge_csv(result: MergeExperimentResult, suite: BenchSuite) -> list[str]:
    lines = ["suite_seed,method,task,accuracy"]
    for s in suite.run_seeds:
        for method in MERGE_COLUMNS:
            for t in result.tasks:
                acc = result.accuracy[s][method][t.label]
                lines.append(f"{s},{method},{t.label},{acc:.17g}")
    return lines


def _finetune_csv(result: FinetuneExperimentResult,
                  suite: BenchSuite) -> list[str]:
    lines = ["task,init,seed,epoch,train_loss,val_acc"]
    for t in suite.held_out_tasks:
        for init in ("fresh", "merged-cross", "merged-indomain"):
            for s in suite.run_seeds:
                rows = curve_csv_lines(result.curves[(t.label, init, s)])[1:]
                lines.extend(f"{t.label},{init},{s},{row}" for row in rows)
    return lines


def majority_med_lego_wins(result: MergeExperimentResult, suite: BenchSuite,
                           baseline: str) -> tuple[int, int]:
    """(number of seeds where med-lego's mean beats the baseline's mean,
    number of seeds)."""
    wins = sum(
        1 for s in suite.run_seeds
        if result.mean_accuracy(s, "med-lego") > result.mean_accuracy(s, baseline)
    )
    return wins, suite.seeds_per_cell


def convergence_summary(ft: FinetuneExperimentResult, suite: BenchSuite,
                        init: str) -> dict[str, float]:
    """Per-task median epochs to reach the target validation accuracy."""
    out = {}
    for t in suite.held_out_tasks:
        out[t.label] = statistics.median(
            ft.epochs_to_target(t.label, init, s) for s in suite.run_seeds
        )
    return out


def run_bench(out_dir, suite: BenchSuite | None = None, jobs_n: int = 1):
    """Run the full benchmark and write CSVs plus a markdown summary.

    Returns (cross, in_domain, finetune) experiment results.
    """
    suite = suite or default_suite()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = TinyModel(seed=suite.backbone_seed)

    cross = run_merge_experiment(model, suite.cross_tasks, suite, 10000, jobs_n)
    _write_lines(out / "cross_domain.csv", _merge_csv(cross, suite))
    in_dom = run_merge_experiment(model, suite.in_domain_tasks, suite, 20000, jobs_n)
    _write_lines(out / "in_domain.csv", _merge_csv(in_dom, suite))
    ft = run_finetune_experiment(model, suite, cross, in_dom, jobs_n)
    _write_lines(out / "finetune_curves.csv", _finetune_csv(ft, suite))

    lines = ["# Benchmark summary", ""]
    for name, result in (("Cross-domain (7 tasks)", cross),
                         ("In-domain (3 tasks)", in_dom)):
        lines.append(f"## {name}")
        lines.append("")
        lines.append("Mean merged-model accuracy across tasks, per run seed:")
        lines.append("")
        header = ("seed",) + MERGE_COLUMNS
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("-" * (len(c) + 2) for c in header) + "|")
        for s in suite.run_seeds:
            row = " | ".join(f"{result.mean_accuracy(s, m):.4f}" for m in MERGE_COLUMNS)
            lines.append(f"| {s} | {row} |")
        for baseline in MERGE_COLUMNS[2:]:
            wins, total = majority_med_lego_wins(result, suite, baseline)
            lines.append("")
            lines.append(
                f"med-lego mean beats {baseline} mean in {wins}/{total} seeds."
            )
        lines.append("")
    lines.append("## Fine-tuning held-out tasks")
    lines.append("")
    lines.append(f"Median epochs to reach {REACH_TARGET} validation accuracy:")
    lines.append("")
    lines.append("| task | fresh | merged-cross | merged-indomain |")
    lines.append("|------|-------|--------------|-----------------|")
    med = {init: convergence_summary(ft, suite, init)
           for init in ("fresh", "merged-cross", "merged-indomain")}
    for t in suite.held_out_tasks:
        lines.append(
            f"| {t.label} | {med['fresh'][t.label]:g} | "
            f"{med['merged-cross'][t.label]:g} | "
            f"{med['merged-indomain'][t.label]:g} |"
        )
    _write_lines(out / "summary.md", lines)
    return cross, in_dom, ft
