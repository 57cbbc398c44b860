#!/usr/bin/env python3
"""Run one fixed small scenario and print the sha256 of every output.

Usage: PYTHONPATH=src python scripts/golden.py OUT

The scenario writes into the directory OUT (made if missing; it should be
empty): the README walkthrough at 5 epochs (two trainings with their curve
CSVs), all three merge methods with their reports, the stdout of ``inspect``
on each file, of ``eval`` of each merged file with both heads, and of
``gap-demo`` with and without ``--identical``, and a reduced ``run_bench``
(two cross-domain, two in-domain and one held-out task of the default
suite, one run seed, ``n_train=128``) with its four files. It then prints
one ``sha256  path`` line per file, sorted by path, relative to OUT. Two
source trees print identical lines exactly when every output is
byte-identical; run it once with each tree on ``PYTHONPATH`` and compare.
"""
import contextlib
import hashlib
import io
import sys
from dataclasses import replace
from pathlib import Path

from svdlora import bench
from svdlora.cli import main
from svdlora.merge import MergeMethod

TASKS = (("a", "5", "2"), ("b", "6", "3"))  # (file stem, task seed, classes)


def cli(out: Path, name: str, argv: list[str]) -> None:
    """Run one command in process; its stdout goes to ``stdout/NAME.txt``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code:
        raise SystemExit(f"svdlora {' '.join(argv)} exited {code}")
    (out / "stdout" / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")


def scenario(out: Path) -> None:
    (out / "stdout").mkdir(parents=True, exist_ok=True)
    for name, task_seed, classes in TASKS:
        cli(out, f"train-{name}", ["train", "--task-seed", task_seed, "--classes", classes,
                                   "--separation", "8.0", "--epochs", "5",
                                   "--out", str(out / f"{name}.mlgo")])
        cli(out, f"inspect-{name}", ["inspect", "--input", str(out / f"{name}.mlgo")])
    for method in MergeMethod:
        merged = out / f"merged-{method.value}.mlgo"
        cli(out, f"merge-{method.value}",
            ["merge", "--inputs", str(out / "a.mlgo"), str(out / "b.mlgo"),
             "--method", method.value, "--out", str(merged),
             "--report", str(out / f"report-{method.value}.json")])
        cli(out, f"inspect-merged-{method.value}", ["inspect", "--input", str(merged)])
        for name, task_seed, _ in TASKS:
            cli(out, f"eval-{method.value}-{name}",
                ["eval", "--adapters", str(merged), "--head", str(out / f"{name}.mlgo"),
                 "--task-seed", task_seed])
    cli(out, "gap-demo", ["gap-demo"])
    cli(out, "gap-demo-identical", ["gap-demo", "--identical"])

    base = bench.default_suite()

    def reduced(tasks):
        return tuple(replace(t, n_train=128) for t in tasks)
    suite = replace(base, cross_tasks=reduced(base.cross_tasks[:2]),
                    in_domain_tasks=reduced(base.in_domain_tasks[:2]),
                    held_out_tasks=reduced(base.held_out_tasks[:1]), seeds_per_cell=1)
    bench.run_bench(out / "bench", suite)


def digests(out: Path) -> list[str]:
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
            for p in sorted(out.rglob("*"), key=lambda p: p.relative_to(out).as_posix())
            if p.is_file()]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden.py OUT")
    target = Path(sys.argv[1])
    scenario(target)
    print("\n".join(digests(target)))
