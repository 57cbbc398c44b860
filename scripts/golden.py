#!/usr/bin/env python3
"""Run one fixed small scenario and print the sha256 of every output.

Usage: PYTHONPATH=src python scripts/golden.py OUT
       PYTHONPATH=src python scripts/golden.py --write

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

``--write`` runs the scenario in a temporary directory instead and records
the digests in ``tests/golden.json``, with the :func:`fingerprint` of the
machine, for ``tests/test_golden.py`` to compare against. A change that
moves output bytes on purpose rewrites that file.
"""
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from svdlora import bench
from svdlora.cli import main
from svdlora.merge import MergeMethod

TASKS = (("a", "5", "2"), ("b", "6", "3"))  # (file stem, task seed, classes)
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")


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


def digests(out: Path) -> dict[str, str]:
    """The sha256 of every file under ``out``, keyed by its path relative to
    ``out``, in path order."""
    paths = sorted((p.relative_to(out).as_posix(), p) for p in out.rglob("*") if p.is_file())
    return {rel: hashlib.sha256(p.read_bytes()).hexdigest() for rel, p in paths}


def blas_core() -> str:
    """The OpenBLAS kernel set picked for this CPU when numpy loaded it (for
    example ``Haswell``), or ``unknown`` when numpy's BLAS is another one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in _CORENAME_SYMBOLS:
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def fingerprint() -> dict[str, str]:
    """What decides the outputs' last bits besides the source: the numpy
    version, its BLAS build and the BLAS kernels chosen at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "core": blas_core()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden.py OUT | golden.py --write")
    if sys.argv[1] == "--write":
        with tempfile.TemporaryDirectory() as tmp:
            scenario(Path(tmp))
            record = {"fingerprint": fingerprint(), "digests": digests(Path(tmp))}
        GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(record['digests'])} digests to {GOLDEN}")
    else:
        target = Path(sys.argv[1])
        scenario(target)
        print("\n".join(f"{sha}  {rel}" for rel, sha in digests(target).items()))
