"""Command-line interface.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command is
deterministic under fixed flags; all seeds have defaults.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .adapter import SvdLoraAdapter, TargetId, param_count, spectrum
from .data import TaskSpec, generate_task
from .errors import ModelError, ParameterError, ToolkitError
from .merge import MergeConfig, MergeMethod, merge_sets, premerge_postmerge_gap
from .model import DEFAULT_BACKBONE_SEED, TinyModel, backbone_param_count
from .storage import load_adapter_set, save_adapter_set, save_merge_report
from .train import TrainConfig, curve_csv_lines, evaluate, train_adapter


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not (0.0 < value <= 1.0):
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {value}")
    return value


# The task-spec fields an adapter file's metadata records, each with the type
# it is read back as. An empty ``family_seed`` stands for None.
_SPEC_FIELDS = (("task_seed", int), ("num_classes", int), ("components", int),
                ("separation", float), ("noise", float), ("seq_len", int),
                ("family_seed", int))


def _spec_from_metadata(task_seed: int, num_classes: int, meta: dict) -> TaskSpec:
    """Rebuild the task spec a file was trained on; metadata wins only when
    it refers to the requested task seed, and never for the task seed and
    class count the caller gives."""
    kwargs = dict(task_seed=task_seed, num_classes=num_classes)
    if str(meta.get("task_seed")) == str(task_seed):
        for key, conv in _SPEC_FIELDS:
            if key in kwargs or key not in meta or (
                    key == "family_seed" and meta[key] in (None, "", "None")):
                continue
            try:
                kwargs[key] = conv(meta[key])
            except ValueError as exc:
                raise ParameterError(
                    f"metadata {key}={meta[key]!r} does not describe a task: {exc}"
                ) from exc
    return TaskSpec(**kwargs)


def _task_metadata(spec: TaskSpec) -> dict:
    meta = {key: getattr(spec, key) for key, _ in _SPEC_FIELDS}
    if spec.family_seed is None:
        meta["family_seed"] = ""
    return meta


def cmd_train(args) -> int:
    model = TinyModel(seed=args.backbone_seed)
    spec = TaskSpec(
        task_seed=args.task_seed, num_classes=args.classes,
        components=args.components, separation=args.separation,
    )
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                      reg_weight=args.reg, rank=args.rank, seed=args.seed)
    result = train_adapter(model, spec, cfg)
    result.adapter_set.metadata.update(_task_metadata(spec))
    save_adapter_set(result.adapter_set, args.out)
    try:
        Path(f"{args.out}.curve.csv").write_text(
            "\n".join(curve_csv_lines(result)) + "\n", encoding="utf-8")
    except OSError:
        Path(args.out).unlink()  # a failed train leaves no adapter file
        raise
    print(f"best_epoch={result.best_epoch}")
    print(f"test_acc={result.test_acc:.4f}")
    return 0


def cmd_merge(args) -> int:
    # before any load: a merge never writes over a file it reads, by any name
    if args.report and Path(args.report).resolve() == Path(args.out).resolve():
        raise ParameterError(f"--report and --out name one file: {args.out}")
    for flag, path in (("--out", args.out), ("--report", args.report)):
        if path and os.path.exists(path) and any(
                os.path.samefile(path, p) for p in args.inputs):
            raise ParameterError(f"{flag} names an input file: {path}")
    cfg = MergeConfig(MergeMethod(args.method), args.threshold, args.lam)
    merged, report = merge_sets([load_adapter_set(p) for p in args.inputs], cfg)
    save_adapter_set(merged, args.out)
    if args.report:
        try:
            save_merge_report(report, args.report)
        except OSError:
            Path(args.out).unlink()  # a failed merge leaves no merged file
            raise
    for rec in report.records:
        print(f"{rec.target}: kept_rank={rec.kept_rank} "
              f"retained_mass={rec.retained_mass:.6f}")
    return 0


def cmd_eval(args) -> int:
    adapters = load_adapter_set(args.adapters)
    if args.head == "embedded":
        head_set = adapters
    else:
        head_set = load_adapter_set(args.head)
    if head_set.head_w is None:
        raise ModelError("no classifier head available; pass --head FILE")
    if head_set.signature != adapters.signature:
        raise ModelError("adapter and head files disagree on the backbone signature")
    model = TinyModel(seed=args.backbone_seed)
    spec = _spec_from_metadata(args.task_seed, head_set.head_w.shape[1],
                               head_set.metadata)
    dataset = generate_task(spec)
    split = getattr(dataset, args.split)
    acc = evaluate(model, adapters, split, head=(head_set.head_w, head_set.head_b))
    print(f"acc={acc:.4f}")
    return 0


def cmd_gap_demo(args) -> int:
    if args.seed < 0:
        raise ParameterError(f"seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    def randomized():
        return SvdLoraAdapter(
            target=TargetId(0, "Q"),
            B=rng.standard_normal((16, 4)),
            E=rng.standard_normal((4,)),
            A=rng.standard_normal((4, 16)),
        )
    first = randomized()
    second = first if args.identical else randomized()
    gap = premerge_postmerge_gap([first, second])
    print(f"gap={gap:.17g}")
    return 0


def cmd_bench(args) -> int:
    bench_mod.run_bench(args.out, jobs_n=args.jobs)
    print(f"benchmark written to {args.out}")
    return 0


def cmd_inspect(args) -> int:
    s = load_adapter_set(args.input)
    sig = s.signature
    print(f"signature: embed_dim={sig.embed_dim} num_layers={sig.num_layers} "
          f"config_digest={sig.config_digest}")
    for key in sorted(s.metadata):
        print(f"metadata.{key}={s.metadata[key]}")
    count, fraction = param_count(s, backbone_param_count(sig.embed_dim, sig.num_layers))
    print(f"param_count={count}")
    print(f"param_fraction={fraction:.6f}")
    for tid in s.sorted_targets():
        a = s.adapters[tid]
        top = ",".join(map("{:.6g}".format, spectrum(a.B, a.E, a.A).tolist()))
        print(f"{tid}: rank={a.rank} spectrum=[{top}]")
    if s.head_w is not None:
        print(f"head: shape={s.head_w.shape[0]}x{s.head_w.shape[1]}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: :func:`main` parses every call with
    it. Each subcommand's ``func`` is a ``cmd_*`` function, which looks up
    what it calls in this module when it runs."""
    parser = argparse.ArgumentParser(
        prog="svdlora",
        description="Train, merge and evaluate SVD-structured low-rank adapters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    task, recipe = TaskSpec(task_seed=1), TrainConfig()  # the defaults' owners

    p = sub.add_parser("train", help="train adapters on one synthetic task")
    p.add_argument("--task-seed", type=int, default=task.task_seed)
    p.add_argument("--classes", type=_positive_int, default=task.num_classes)
    p.add_argument("--components", type=_positive_int, default=task.components)
    p.add_argument("--separation", type=float, default=task.separation)
    p.add_argument("--rank", type=_positive_int, default=recipe.rank)
    p.add_argument("--epochs", type=_positive_int, default=recipe.epochs)
    p.add_argument("--lr", type=float, default=recipe.learning_rate)
    p.add_argument("--reg", type=float, default=recipe.reg_weight)
    p.add_argument("--seed", type=int, default=recipe.seed)
    p.add_argument("--backbone-seed", type=int, default=DEFAULT_BACKBONE_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("merge", help="merge trained adapter files")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--method", choices=[m.value for m in MergeMethod],
                   default=MergeMethod.MED_LEGO.value)
    p.add_argument("--threshold", type=_fraction, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", help="evaluate an adapter file on a task")
    p.add_argument("--adapters", required=True)
    p.add_argument("--head", default="embedded",
                   help="adapter file providing the classifier head, or 'embedded'")
    p.add_argument("--task-seed", type=int, required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--backbone-seed", type=int, default=DEFAULT_BACKBONE_SEED)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gap-demo",
                       help="show that factor averaging != delta averaging")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--identical", action="store_true",
                   help="merge an adapter with itself (gap is zero)")
    p.set_defaults(func=cmd_gap_demo)

    p = sub.add_parser("bench", help="run the full desk-scale benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="print the contents of an adapter file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    """Run one command. numpy's floating-point warnings are off while it
    runs: a non-finite result that matters raises a typed error, which is
    then the one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a task whose data cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
