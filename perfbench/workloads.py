"""The benchmark's workloads.

Each workload has a size (the default is what the benchmark runs; the fast
tests pass a tiny one) and four steps: ``setup`` builds every input from the
workload seed, ``round`` runs one whole round of operations through the
package's public API or in-process CLI, ``check`` compares a round's outputs
with references computed apart from the program, and ``figures`` turns the
recorded operation times into the workload's own figures.

Functions of the package are looked up on their module at call time, so the
traced mode's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference as ref
from reference import require

from svdlora import bench, cli, storage, train
from svdlora.adapter import AdapterSet, SvdLoraAdapter
from svdlora.data import TaskSpec, generate_task
from svdlora.model import TinyModel

BACKBONE_SEED = 7
METHODS = ("med-lego", "task-arith", "pre-avg")
RANK = 4  # of the untrained adapters, the package's default training rank
_MINI_TAG, _WIDE_TAG, _DIAG_TAG = 9101, 9102, 9103


class Ops:
    """Attempted and failed operation counts, and the wall time of each
    operation that completed, by kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = defaultdict(list)

    def call(self, kind: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc()
            return None
        self.times[kind].append(time.perf_counter() - start)
        return out


class CliFailed(RuntimeError):
    pass


def run_cli(argv: list[str]) -> str:
    """``svdlora <argv>`` in process; its standard output, or CliFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliFailed(f"svdlora {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def draw_task_seeds(tag: int, seed: int, n: int) -> list[int]:
    rng = np.random.default_rng([tag, seed])
    return [int(s) for s in 1000 + rng.choice(999_000, size=n, replace=False)]


def task_metadata(spec: TaskSpec) -> dict:
    """What ``svdlora eval`` reads back to regenerate a task."""
    return {"task_seed": spec.task_seed, "num_classes": spec.num_classes,
            "components": spec.components, "separation": spec.separation,
            "noise": spec.noise, "seq_len": spec.seq_len,
            "family_seed": "" if spec.family_seed is None else spec.family_seed}


def random_set(rng, model: TinyModel, e_scale, classes: int,
               metadata: dict) -> AdapterSet:
    """Untrained rank-4 adapters on every Q/V target, Gaussian B and A with
    near-orthonormal columns and rows and E from ``e_scale(rng, 4)``, plus
    a random head."""
    d = model.embed_dim
    adapters = {
        t: SvdLoraAdapter(target=t,
                          B=rng.standard_normal((d, RANK)) / math.sqrt(d),
                          E=e_scale(rng, RANK),
                          A=rng.standard_normal((RANK, d)) / math.sqrt(d))
        for t in model.targets()
    }
    return AdapterSet(signature=model.signature, adapters=adapters,
                      head_w=rng.standard_normal((d, classes)),
                      head_b=0.1 * rng.standard_normal(classes), metadata=metadata)


def check_round_trip(path, aset: AdapterSet, what: str) -> None:
    """A saved file, read by FORMAT.md and by the package's loader, equals
    the set in memory."""
    header, tensors = ref.read_mlgo(path)
    want = ref.set_factors(aset)
    got = ref.factors(tensors)
    require(set(got) == set(want), f"{what}: targets differ")
    for t, (b, e, a) in want.items():
        require(all(np.array_equal(x, y) for x, y in zip(got[t], (b, e, a))),
                f"{what} {t}: factors differ from the set in memory")
    if aset.head_w is not None:
        require(np.array_equal(tensors["head.weight"], aset.head_w)
                and np.array_equal(tensors["head.bias"], aset.head_b),
                f"{what}: head differs from the set in memory")
    require(header["metadata"] == {str(k): str(v) for k, v in aset.metadata.items()},
            f"{what}: metadata differs")
    loaded = storage.load_adapter_set(path)
    require(loaded.digest() == aset.digest() and loaded.signature == aset.signature,
            f"{what}: load_adapter_set does not return the saved set")


# --- bench-mini ---------------------------------------------------------------

@dataclass(frozen=True)
class MiniSize:
    n_train: int = 512
    n_val: int = 128
    n_test: int = 256


@dataclass
class MiniInputs:
    suite: bench.BenchSuite
    model: TinyModel
    datasets: dict
    out: Path


@dataclass
class MiniOutputs:
    results: tuple      # run_bench's (cross, in_domain, finetune)
    trainings: list     # (spec, cfg, TrainResult, seconds) per train_adapter call


def mini_suite(seed: int, size: MiniSize) -> bench.BenchSuite:
    """The default suite's leading task shapes with task seeds and the
    in-domain family seed drawn from the workload seed; one run seed."""
    base = bench.default_suite()
    shapes = (base.cross_tasks[:2], base.in_domain_tasks[:2], base.held_out_tasks[:1])
    seeds = iter(draw_task_seeds(_MINI_TAG, seed, sum(map(len, shapes)) + 1))
    family = next(seeds)

    def drawn(tasks):
        return tuple(replace(t, task_seed=next(seeds), n_train=size.n_train,
                             n_val=size.n_val, n_test=size.n_test,
                             family_seed=None if t.family_seed is None else family)
                     for t in tasks)
    cross, in_domain, held_out = map(drawn, shapes)
    return bench.BenchSuite(backbone_seed=BACKBONE_SEED, cross_tasks=cross,
                            in_domain_tasks=in_domain, held_out_tasks=held_out,
                            seeds_per_cell=1)


def setup_mini(seed: int, workdir: Path, size: MiniSize = MiniSize()) -> MiniInputs:
    suite = mini_suite(seed, size)
    tasks = suite.cross_tasks + suite.in_domain_tasks + suite.held_out_tasks
    return MiniInputs(suite=suite, model=TinyModel(seed=suite.backbone_seed),
                      datasets={t.label: generate_task(t) for t in tasks},
                      out=workdir / "bench")


def round_mini(inputs: MiniInputs, ops: Ops) -> MiniOutputs | None:
    """``run_bench`` on the reduced suite; each ``train_adapter`` call is
    timed and its result kept for the checks."""
    trainings = []
    original = bench.train_adapter

    def recorded(model, spec, cfg, init=None, dataset=None):
        start = time.perf_counter()
        result = original(model, spec, cfg, init=init, dataset=dataset)
        trainings.append((spec, cfg, result, time.perf_counter() - start))
        return result

    bench.train_adapter = recorded
    try:
        results = ops.call("pipeline", bench.run_bench, inputs.out, inputs.suite, 1)
    finally:
        bench.train_adapter = original
    return None if results is None else MiniOutputs(results, trainings)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_mini(inputs: MiniInputs, out: MiniOutputs) -> None:
    """Returned results against references first, then the CSVs against the
    returned results."""
    cross, in_domain, ft = out.results
    model = inputs.model
    trained = {(spec.label, cfg.seed): res for spec, cfg, res, _ in out.trainings}
    (s,) = inputs.suite.run_seeds
    groups = ((cross, 10000, "cross_domain"), (in_domain, 20000, "in_domain"))

    for result, seed_base, name in groups:
        specialists = [trained[(t.label, seed_base + 100 * s + i)]
                       for i, t in enumerate(result.tasks)]
        inputs_fac = [ref.set_factors(sp.adapter_set) for sp in specialists]
        med = ref.set_factors(result.merged_sets[s])
        ref.check_med_lego(inputs_fac, med, f"{name} med-lego")
        merged = {
            "specialist": None,
            "med-lego": ref.dense_deltas(med),
            "pre-avg": ref.dense_deltas(ref.factor_average(inputs_fac)),
            "task-arith": ref.mean_deltas(inputs_fac),
        }
        for t, sp, fac in zip(result.tasks, specialists, inputs_fac):
            head = (sp.adapter_set.head_w, sp.adapter_set.head_b)
            for method, deltas in merged.items():
                ref.check_accuracy(
                    result.accuracy[s][method][t.label],
                    ref.accuracy_range(model, deltas or ref.dense_deltas(fac),
                                       inputs.datasets[t.label].test, head),
                    f"{name} {method} {t.label}")

    epochs = train.TrainConfig().epochs
    for (label, init, _), res in ft.curves.items():
        require(len(res.train_losses) == len(res.val_accs) == epochs
                and all(map(math.isfinite, res.train_losses + res.val_accs)),
                f"fine-tune {label} {init}: curve is not one finite entry per epoch")
        aset = res.adapter_set
        ref.check_accuracy(res.test_acc,
                           ref.accuracy_range(model, ref.dense_deltas(ref.set_factors(aset)),
                                              inputs.datasets[label].test,
                                              (aset.head_w, aset.head_b)),
                           f"fine-tune {label} {init}")

    for result, _, name in groups:
        rows = _read_csv(inputs.out / f"{name}.csv")
        require(len(rows) == 4 * len(result.tasks), f"{name}.csv: wrong row count")
        for row in rows:
            require(float(row["accuracy"]) == result.accuracy[int(row["suite_seed"])]
                    [row["method"]][row["task"]],
                    f"{name}.csv: row {row} disagrees with the returned result")
    rows = _read_csv(inputs.out / "finetune_curves.csv")
    require(len(rows) == len(ft.curves) * epochs, "finetune_curves.csv: wrong row count")
    for row in rows:
        res = ft.curves[(row["task"], row["init"], int(row["seed"]))]
        epoch = int(row["epoch"])
        require(float(row["train_loss"]) == res.train_losses[epoch]
                and float(row["val_acc"]) == res.val_accs[epoch],
                f"finetune_curves.csv: row {row} disagrees with the returned result")


def figures_mini(inputs: MiniInputs, ops: Ops, outputs: list) -> dict:
    steps = sum(cfg.epochs * -(-spec.n_train // cfg.batch_size)
                for out in outputs for spec, cfg, _, _ in out.trainings)
    busy = sum(t for out in outputs for *_, t in out.trainings)
    cross = outputs[0].results[0]
    return {"train_steps_per_s": steps / busy,
            "merged_acc": cross.mean_accuracy(1, "med-lego")}


# --- merge-wide -----------------------------------------------------------------

@dataclass(frozen=True)
class WideSize:
    embed_dim: int = 128
    num_layers: int = 2
    specialists: int = 7


@dataclass
class WideInputs:
    sets: list
    paths: list
    out: Path


def wide_spectrum(rng, rank: int) -> np.ndarray:
    """Singular values falling tenfold per component, with jitter, so the
    99.7% cut on the mean delta drops the smallest ones."""
    return rng.uniform(0.5, 2.0) * 10.0 ** -np.arange(rank) * rng.uniform(0.8, 1.25, rank)


def setup_wide(seed: int, workdir: Path, size: WideSize = WideSize()) -> WideInputs:
    rng = np.random.default_rng([_WIDE_TAG, seed])
    model = TinyModel(embed_dim=size.embed_dim, num_layers=size.num_layers,
                      seed=BACKBONE_SEED)
    workdir.mkdir(parents=True, exist_ok=True)
    sets, paths = [], []
    for i in range(size.specialists):
        aset = random_set(rng, model, wide_spectrum, classes=4,
                          metadata={"task": f"specialist{i}", "seed": str(seed)})
        path = workdir / f"specialist{i}.mlgo"
        storage.save_adapter_set(aset, path)
        sets.append(aset)
        paths.append(str(path))
    return WideInputs(sets=sets, paths=paths, out=workdir)


def round_wide(inputs: WideInputs, ops: Ops) -> dict:
    """Three file-to-file merges with reports, then an inspect of each
    merged file; the outputs are the inspect listings."""
    for method in METHODS:
        ops.call("merge", run_cli, [
            "merge", "--inputs", *inputs.paths, "--method", method,
            "--out", str(inputs.out / f"{method}.mlgo"),
            "--report", str(inputs.out / f"{method}.json")])
    return {method: ops.call("inspect", run_cli, [
        "inspect", "--input", str(inputs.out / f"{method}.mlgo")])
        for method in METHODS}


def _check_inspect(listing: str, fac: dict[str, tuple], what: str) -> None:
    lines = dict(line.split(": ", 1) for line in listing.splitlines()
                 if line.startswith("layer"))
    require(set(lines) == set(fac), f"{what}: inspect lists other targets")
    count = sum(b.size + e.size + a.size for b, e, a in fac.values())
    require(f"param_count={count}\n" in listing, f"{what}: inspect param_count wrong")
    for t, (b, e, a) in fac.items():
        rank_text, spec_text = lines[t].split(" spectrum=")
        require(rank_text == f"rank={len(e)}", f"{what} {t}: inspect rank wrong")
        shown = np.array([float(v) for v in spec_text.strip("[]").split(",")])
        sigma = np.linalg.svd(ref.dense(b, e, a), compute_uv=False)[:len(e)]
        require(shown.shape == sigma.shape
                and np.allclose(shown, sigma, rtol=1e-5, atol=1e-9 * sigma[0]),
                f"{what} {t}: inspect spectrum differs from LAPACK")


def check_wide(inputs: WideInputs, listings: dict) -> None:
    for i, (aset, path) in enumerate(zip(inputs.sets, inputs.paths)):
        check_round_trip(path, aset, f"specialist{i}")
    fac_in = [ref.set_factors(s) for s in inputs.sets]
    expected = {"task-arith": ref.mean_deltas(fac_in),
                "pre-avg": ref.dense_deltas(ref.factor_average(fac_in))}
    for method in METHODS:
        _, tensors = ref.read_mlgo(inputs.out / f"{method}.mlgo")
        fac = ref.factors(tensors)
        report = json.loads((inputs.out / f"{method}.json").read_text())
        records = {r["target"]: r for r in report["records"]}
        require(report["config"]["method"] == method, f"{method}: report method wrong")
        if method == "med-lego":
            ref.check_med_lego(fac_in, fac, method, records)
            require(any(len(e) < sum(len(f[t][1]) for f in fac_in)
                        for t, (_, e, _) in fac.items()),
                    "med-lego: the 99.7% cut dropped no component")
        else:
            ref.check_delta(fac, expected[method], method)
            for t, (b, e, a) in fac.items():
                sigma = np.linalg.svd(ref.dense(b, e, a), compute_uv=False)
                spec = np.asarray(records[t]["spectrum"])
                require(spec.shape == sigma.shape
                        and np.allclose(spec, sigma, rtol=0, atol=1e-10 * sigma[0]),
                        f"{method} {t}: reported spectrum differs from LAPACK")
                require(records[t]["kept_rank"] == len(e),
                        f"{method} {t}: reported rank differs from the file")
        if listings[method] is not None:  # else a failed operation, already counted
            _check_inspect(listings[method], fac, method)


def figures_wide(inputs: WideInputs, ops: Ops, outputs: list) -> dict:
    return {"merge_s": statistics.median(ops.times["merge"]),
            "inspect_s": statistics.median(ops.times["inspect"])}


# --- diagnose ----------------------------------------------------------------

@dataclass(frozen=True)
class DiagSize:
    sets: int = 3          # adapter files, one task head each
    large: int = 4096      # samples in the large split; the small one is 256


@dataclass
class DiagInputs:
    model: TinyModel
    specs: list
    sets: list
    paths: list
    splits: dict           # (task index, "small" | "large") -> (x, y)
    refs: dict = field(default_factory=dict)


def setup_diag(seed: int, workdir: Path, size: DiagSize = DiagSize()) -> DiagInputs:
    rng = np.random.default_rng([_DIAG_TAG, seed])
    model = TinyModel(seed=BACKBONE_SEED)
    shapes = bench.default_suite().cross_tasks[:size.sets]
    seeds = draw_task_seeds(_DIAG_TAG, seed, size.sets)
    specs = [replace(t, task_seed=s) for t, s in zip(shapes, seeds)]
    workdir.mkdir(parents=True, exist_ok=True)
    sets, paths, splits = [], [], {}
    for i, spec in enumerate(specs):
        aset = random_set(rng, model, lambda r, k: r.uniform(0.5, 1.5, k),
                          classes=spec.num_classes, metadata=task_metadata(spec))
        path = workdir / f"task{i}.mlgo"
        storage.save_adapter_set(aset, path)
        sets.append(aset)
        paths.append(str(path))
        splits[i, "small"] = generate_task(spec).test
        splits[i, "large"] = generate_task(replace(spec, n_test=size.large)).test
    return DiagInputs(model=model, specs=specs, sets=sets, paths=paths, splits=splits)


def round_diag(inputs: DiagInputs, ops: Ops) -> dict:
    """Forward-only ``evaluate`` of every (adapter set, task head) pair on
    both splits of the head's task, then ``svdlora eval`` of every pair."""
    out = {}
    pairs = [(k, t) for k in range(len(inputs.sets)) for t in range(len(inputs.sets))]
    for k, t in pairs:
        head = (inputs.sets[t].head_w, inputs.sets[t].head_b)
        for split in ("small", "large"):
            out[k, t, split] = ops.call(f"evaluate.{split}", train.evaluate,
                                        inputs.model, inputs.sets[k],
                                        inputs.splits[t, split], head)
    for k, t in pairs:
        out[k, t, "cli"] = ops.call("eval_cmd", run_cli, [
            "eval", "--adapters", inputs.paths[k], "--head", inputs.paths[t],
            "--task-seed", str(inputs.specs[t].task_seed),
            "--backbone-seed", str(BACKBONE_SEED)])
    return out


def check_diag(inputs: DiagInputs, out: dict) -> None:
    for (k, t, split), value in out.items():
        if value is None:  # a failed operation, already counted
            continue
        key = (k, t, "small" if split == "cli" else split)
        if key not in inputs.refs:
            head = (inputs.sets[t].head_w, inputs.sets[t].head_b)
            deltas = ref.dense_deltas(ref.set_factors(inputs.sets[k]))
            inputs.refs[key] = ref.accuracy_range(inputs.model, deltas,
                                                  inputs.splits[t, key[2]], head)
        what = f"adapters {k} head {t} {split}"
        if split == "cli":
            require(value.startswith("acc="), f"{what}: unexpected output {value!r}")
            ref.check_accuracy(float(value[4:]), inputs.refs[key], what, slack=5e-5)
        else:
            ref.check_accuracy(value, inputs.refs[key], what)


def figures_diag(inputs: DiagInputs, ops: Ops, outputs: list) -> dict:
    samples = sum(len(ops.times[f"evaluate.{split}"]) * len(inputs.splits[0, split][1])
                  for split in ("small", "large"))
    busy = sum(ops.times["evaluate.small"]) + sum(ops.times["evaluate.large"])
    return {"eval_samples_per_s": samples / busy,
            "eval_cmd_s": statistics.median(ops.times["eval_cmd"])}


# Each workload's own figures, by name: (unit, better). A workload reports
# the ones its operations give.
FIGURES = {
    "train_steps_per_s": ("steps/s", "higher"),
    "merged_acc": ("fraction", "higher"),
    "merge_s": ("s", "lower"),
    "inspect_s": ("s", "lower"),
    "eval_samples_per_s": ("samples/s", "higher"),
    "eval_cmd_s": ("s", "lower"),
}

WORKLOADS = {
    "bench-mini": (setup_mini, round_mini, check_mini, figures_mini),
    "merge-wide": (setup_wide, round_wide, check_wide, figures_wide),
    "diagnose": (setup_diag, round_diag, check_diag, figures_diag),
}
