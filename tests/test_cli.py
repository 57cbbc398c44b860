import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import svdlora
from svdlora import train
from svdlora.adapter import (AdapterSet, ModelSignature, TargetId, delta,
                             init_adapter)
from svdlora.cli import build_parser, main
from svdlora.data import TaskSpec, generate_task
from svdlora.model import DEFAULT_BACKBONE_SEED, TinyModel
from svdlora.storage import load_adapter_set, save_adapter_set
from svdlora.train import TrainConfig, evaluate

from conftest import rewrite_header

EASY = ["--task-seed", "5", "--classes", "2", "--separation", "8.0",
        "--epochs", "25"]
OTHER = ["--task-seed", "6", "--classes", "3", "--separation", "8.0",
         "--epochs", "25"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["train", *EASY, "--out", str(d / "a.mlgo")]) == 0
    assert main(["train", *OTHER, "--out", str(d / "b.mlgo")]) == 0
    return d


def fails_cleanly(argv, capsys, message=""):
    """Run ``argv`` in process and check the CLI's failure contract: exit
    1 and one ``error: `` line on stderr that contains ``message``, with no
    traceback and no warning. Returns that line."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    shown = captured.err + captured.out
    assert code == 1 and not caught, argv
    assert "Traceback" not in shown and "Warning" not in shown, argv
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line, argv
    return line


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_train_defaults_come_from_their_owners(self):
        args = build_parser().parse_args(["train", "--out", "x"])
        task, recipe = TaskSpec(task_seed=1), TrainConfig()
        assert (args.task_seed, args.classes, args.components, args.separation) == (
            task.task_seed, task.num_classes, task.components, task.separation)
        assert (args.rank, args.epochs, args.lr, args.reg, args.seed) == (
            recipe.rank, recipe.epochs, recipe.learning_rate, recipe.reg_weight,
            recipe.seed)
        assert args.backbone_seed == DEFAULT_BACKBONE_SEED

    @pytest.mark.parametrize("argv", [
        ["merge", "--inputs", "a.mlgo", "--out", "m.mlgo", "--max-rank", "1"],
        ["bench", "--suite", "default", "--out", "d"]], ids=["max-rank", "suite"])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_commands_repeat_in_one_process(self, workdir, tmp_path, capsys):
        def merge(method, name):
            assert main(["merge", "--inputs", str(workdir / "a.mlgo"),
                         str(workdir / "b.mlgo"), "--method", method,
                         "--out", str(tmp_path / f"{name}.mlgo"),
                         "--report", str(tmp_path / f"{name}.json")]) == 0
            return capsys.readouterr().out

        first = merge("med-lego", "first")
        assert main(["inspect", "--input", str(tmp_path / "first.mlgo")]) == 0
        assert "kept_rank=" in merge("task-arith", "task-arith")
        assert merge("med-lego", "last") == first
        for ext in ("mlgo", "json"):
            assert (tmp_path / f"last.{ext}").read_bytes() == \
                (tmp_path / f"first.{ext}").read_bytes()


class TestTrain:
    def test_prints_test_accuracy(self, workdir, tmp_path, capsys):
        code = main(["train", *EASY, "--out", str(tmp_path / "t.mlgo")])
        out = capsys.readouterr().out
        assert code == 0
        acc = float(out.split("test_acc=")[1].split()[0])
        assert acc >= 0.9
        assert "best_epoch=" in out

    def test_writes_curve_csv(self, workdir):
        lines = (workdir / "a.mlgo.curve.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_acc"
        assert len(lines) == 26

    def test_deterministic_outputs(self, workdir, tmp_path):
        main(["train", *EASY, "--out", str(tmp_path / "r.mlgo")])
        assert (tmp_path / "r.mlgo").read_bytes() == (workdir / "a.mlgo").read_bytes()

    def test_failed_curve_write_leaves_no_adapter_file(self, tmp_path, capsys):
        out = tmp_path / "x.mlgo"
        (tmp_path / "x.mlgo.curve.csv").mkdir()  # the curve write fails
        fails_cleanly(["train", "--epochs", "1", "--out", str(out)], capsys,
                      "x.mlgo.curve.csv")
        assert not out.exists()

    def test_rank_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--rank", "0", "--out", str(tmp_path / "x.mlgo")])
        assert exc.value.code == 2


class TestMerge:
    def test_self_merge_preserves_deltas(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.mlgo"
        code = main(["merge", "--inputs", str(workdir / "a.mlgo"),
                     "--out", str(out), "--report", str(tmp_path / "r.json")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "kept_rank=" in printed and "retained_mass=" in printed
        merged = load_adapter_set(out)
        original = load_adapter_set(workdir / "a.mlgo")
        for tid, a in merged.adapters.items():
            assert np.linalg.norm(delta(a) - delta(original.adapters[tid])) <= 1e-9

    def test_report_retained_mass_threshold(self, workdir, tmp_path):
        report_path = tmp_path / "rep.json"
        main(["merge", "--inputs", str(workdir / "a.mlgo"), str(workdir / "b.mlgo"),
              "--out", str(tmp_path / "m.mlgo"), "--report", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["config"]["method"] == "med-lego"
        for rec in report["records"]:
            assert rec["retained_mass"] >= 0.997

    def test_baseline_methods_run(self, workdir, tmp_path):
        for method in ("pre-avg", "task-arith"):
            out, rep = tmp_path / f"{method}.mlgo", tmp_path / f"{method}.json"
            assert main(["merge", "--inputs", str(workdir / "a.mlgo"),
                         str(workdir / "b.mlgo"), "--method", method,
                         "--out", str(out), "--report", str(rep)]) == 0
            merged = load_adapter_set(out)
            assert merged.adapters
            report = json.loads(rep.read_text())
            assert report["config"]["method"] == method
            for rec in report["records"]:
                tid = next(t for t in merged.adapters if str(t) == rec["target"])
                assert rec["kept_rank"] == merged.adapters[tid].rank

    @pytest.mark.parametrize("method, flag", [
        pytest.param(method, flag, id=f"{method}{suffix}")
        for method, flag, suffix in [
            ("med-lego", ["--lambda", "2"], ""), ("pre-avg", ["--lambda", "2"], ""),
            ("task-arith", ["--threshold", "0.9"], "-threshold"),
            ("pre-avg", ["--threshold", "0.9"], "-threshold"),
            ("pre-avg", ["--threshold", "0.997"], "-default-threshold")]])
    def test_lambda_needs_task_arithmetic(self, workdir, tmp_path, capsys, method, flag):
        fails_cleanly(["merge", "--inputs", str(workdir / "a.mlgo"), "--method", method,
                       *flag, "--out", str(tmp_path / "m.mlgo")], capsys,
                      "lambda applies to task-arith only" if flag[0] == "--lambda"
                      else "threshold applies to med-lego only")
        assert not (tmp_path / "m.mlgo").exists()

    def test_report_naming_out_file_fails_before_loading(self, workdir, tmp_path,
                                                          capsys):
        out = tmp_path / "m.mlgo"
        for report in (out, tmp_path / "sub" / ".." / "m.mlgo"):
            fails_cleanly(["merge", "--inputs", str(tmp_path / "absent.mlgo"),
                           "--out", str(out), "--report", str(report)], capsys,
                          "--report and --out name one file")
            assert not out.exists()
        # an existing merged file is left as it was, not overwritten by JSON
        assert main(["merge", "--inputs", str(workdir / "a.mlgo"), "--out", str(out)]) == 0
        before = out.read_bytes()
        fails_cleanly(["merge", "--inputs", str(workdir / "a.mlgo"), "--out", str(out),
                       "--report", str(out)], capsys, "--report and --out name one file")
        assert out.read_bytes() == before
        assert main(["inspect", "--input", str(out)]) == 0

    def test_written_path_naming_an_input_fails_before_loading(self, workdir,
                                                               tmp_path, capsys):
        a, b = tmp_path / "a.mlgo", tmp_path / "b.mlgo"
        shutil.copy(workdir / "a.mlgo", a)
        shutil.copy(workdir / "b.mlgo", b)
        before = a.read_bytes()
        (tmp_path / "sub").mkdir()
        os.link(a, tmp_path / "hard.mlgo")  # another name of the same file
        for flag, written in [
                ("--report", ["--out", str(tmp_path / "m.mlgo"), "--report", str(a)]),
                ("--out", ["--out", str(a), "--report", str(tmp_path / "r.json")]),
                ("--out", ["--out", str(tmp_path / "sub" / ".." / "a.mlgo")]),
                ("--report", ["--out", str(tmp_path / "m.mlgo"),
                              "--report", str(tmp_path / "hard.mlgo")])]:
            fails_cleanly(["merge", "--inputs", str(a), str(b), *written], capsys,
                          f"{flag} names an input file")
            assert a.read_bytes() == before
            assert not (tmp_path / "m.mlgo").exists()
        assert main(["inspect", "--input", str(a)]) == 0

    def test_huge_lambda_merges(self, workdir, tmp_path, capsys):
        # the deltas' squares overflow float64; the SVD must not square them
        out = tmp_path / "m.mlgo"
        assert main(["merge", "--inputs", str(workdir / "a.mlgo"), str(workdir / "b.mlgo"),
                     "--method", "task-arith", "--lambda", "1e300", "--out", str(out)]) == 0
        assert "error:" not in capsys.readouterr().err
        for a in load_adapter_set(out).adapters.values():
            assert 1e290 < a.E[0] < 1e308

    def test_threshold_out_of_range_is_usage_error(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "--inputs", str(workdir / "a.mlgo"),
                  "--threshold", "1.5", "--out", str(tmp_path / "m.mlgo")])
        assert exc.value.code == 2

    def test_missing_input_is_runtime_error(self, workdir, tmp_path, capsys):
        out, absent = tmp_path / "m.mlgo", tmp_path / "absent"
        fails_cleanly(["merge", "--inputs", str(tmp_path / "absent.mlgo"),
                       "--out", str(out)], capsys, str(tmp_path / "absent.mlgo"))
        assert not out.exists()
        # an output directory that does not exist fails at the write
        line = fails_cleanly(["merge", "--inputs", str(workdir / "a.mlgo"),
                              "--out", str(absent / "m.mlgo")], capsys)
        assert line.startswith("error: failed to write adapter file")
        # so does a report directory that does not exist, after the merged
        # file is written: the merge leaves no merged file behind
        fails_cleanly(["merge", "--inputs", str(workdir / "a.mlgo"), str(workdir / "b.mlgo"),
                       "--out", str(out), "--report", str(absent / "r.json")], capsys,
                      str(absent / "r.json"))
        assert not out.exists()


class TestEval:
    def test_matches_train_printed_accuracy(self, workdir, capsys):
        main(["eval", "--adapters", str(workdir / "a.mlgo"), "--task-seed", "5"])
        acc = float(capsys.readouterr().out.split("acc=")[1])
        spec = TaskSpec(task_seed=5, num_classes=2, separation=8.0)
        model = TinyModel(seed=7)
        s = load_adapter_set(workdir / "a.mlgo")
        expected = evaluate(model, s, generate_task(spec).test,
                            head=(s.head_w, s.head_b))
        assert acc == pytest.approx(expected, abs=5e-5)

    def test_merged_with_task_head(self, workdir, tmp_path, capsys):
        merged = tmp_path / "m.mlgo"
        main(["merge", "--inputs", str(workdir / "a.mlgo"), str(workdir / "b.mlgo"),
              "--out", str(merged)])
        code = main(["eval", "--adapters", str(merged),
                     "--head", str(workdir / "a.mlgo"), "--task-seed", "5"])
        assert code == 0
        acc = float(capsys.readouterr().out.split("acc=")[1])
        assert 0.0 <= acc <= 1.0

    def test_merged_without_head_fails(self, workdir, tmp_path, capsys):
        merged = tmp_path / "m.mlgo"
        main(["merge", "--inputs", str(workdir / "a.mlgo"), str(workdir / "b.mlgo"),
              "--out", str(merged)])
        fails_cleanly(["eval", "--adapters", str(merged), "--task-seed", "5"], capsys,
                      "no classifier head available; pass --head FILE")
        # a head trained on another backbone
        other = tmp_path / "other.mlgo"
        rewrite_header(workdir / "a.mlgo", other, lambda h: h["model_signature"].update(
            config_digest="0" * 16))
        assert fails_cleanly(["eval", "--adapters", str(merged), "--head", str(other),
                              "--task-seed", "5"], capsys) == \
            "error: adapter and head files disagree on the backbone signature"


class TestGapDemo:
    def test_positive_gap(self, capsys):
        assert main(["gap-demo", "--seed", "3"]) == 0
        assert float(capsys.readouterr().out.split("gap=")[1]) > 0

    def test_identical_gap_zero(self, capsys):
        assert main(["gap-demo", "--identical"]) == 0
        assert float(capsys.readouterr().out.split("gap=")[1]) == 0.0

    def test_seed_changes_gap(self, capsys):
        main(["gap-demo", "--seed", "1"])
        g1 = capsys.readouterr().out
        main(["gap-demo", "--seed", "2"])
        assert capsys.readouterr().out != g1


class TestNegativeSeed:
    """Every seed a command takes is checked by the type that owns it, so a
    negative one is one ``error:`` line, not numpy's traceback."""

    @staticmethod
    def _family_seed_file(workdir, tmp_path):
        bad = tmp_path / "bad.mlgo"
        rewrite_header(workdir / "a.mlgo", bad,
                       lambda h: h["metadata"].__setitem__("family_seed", "-3"))
        return ["eval", "--adapters", str(bad), "--task-seed", "5"]

    @pytest.mark.parametrize("argv", [
        lambda w, t: ["train", "--seed", "-1", "--out", str(t / "x.mlgo")],
        lambda w, t: ["train", "--task-seed", "-1", "--out", str(t / "x.mlgo")],
        lambda w, t: ["train", "--backbone-seed", "-1", "--out", str(t / "x.mlgo")],
        lambda w, t: ["eval", "--adapters", str(w / "a.mlgo"), "--task-seed", "-5"],
        lambda w, t: ["eval", "--adapters", str(w / "a.mlgo"), "--task-seed", "5",
                      "--backbone-seed", "-1"],
        lambda w, t: ["gap-demo", "--seed", "-1"],
        _family_seed_file,
    ], ids=["train-seed", "train-task-seed", "train-backbone-seed", "eval-task-seed",
            "eval-backbone-seed", "gap-demo-seed", "eval-metadata-family-seed"])
    def test_exits_with_one_error_line(self, workdir, tmp_path, capsys, argv):
        fails_cleanly(argv(workdir, tmp_path), capsys, "non-negative")
        assert not list(tmp_path.glob("x.mlgo*"))


class TestNonFiniteResults:
    """A non-finite result is a runtime failure: exit 1 and one ``error:``
    line, with no numpy warning and no traceback on stderr."""

    @staticmethod
    def _eval_huge_merge(workdir, tmp_path):
        # The merged factors are finite, so the file loads; the forward pass
        # of adapters scaled by 1e200 is not.
        merged = tmp_path / "huge.mlgo"
        assert main(["merge", "--inputs", str(workdir / "a.mlgo"), str(workdir / "b.mlgo"),
                     "--method", "task-arith", "--lambda", "1e200",
                     "--out", str(merged)]) == 0
        return ["eval", "--adapters", str(merged), "--head", str(workdir / "a.mlgo"),
                "--task-seed", "5"]

    @pytest.mark.parametrize("argv, message", [
        (_eval_huge_merge, "non-finite logits"),
        (lambda w, t: ["train", "--reg", "1e200", "--epochs", "1",
                       "--out", str(t / "x.mlgo")], "non-finite gradient or gradient square"),
        (lambda w, t: ["train", "--lr", "1e300", "--epochs", "1",
                       "--out", str(t / "x.mlgo")], "non-finite loss"),
    ], ids=["eval-logits", "train-gradient-square", "train-loss"])
    def test_exits_with_one_error_line(self, workdir, tmp_path, capsys, argv, message):
        fails_cleanly(argv(workdir, tmp_path), capsys, message)
        assert not list(tmp_path.glob("x.mlgo*"))


class TestInspect:
    def test_reports_param_fraction(self, workdir, capsys):
        assert main(["inspect", "--input", str(workdir / "a.mlgo")]) == 0
        out = capsys.readouterr().out
        # d=32, L=2, Q+V, r=4: 2*2*(32*4+4+4*32) over 12*32*32*2
        assert "param_count=1040" in out
        assert f"param_fraction={1040 / 24576:.6f}" in out
        assert "layer0.Q: rank=" in out

    def test_ranks_match_merge_report(self, workdir, tmp_path, capsys):
        merged, rep = tmp_path / "m.mlgo", tmp_path / "r.json"
        main(["merge", "--inputs", str(workdir / "a.mlgo"), str(workdir / "b.mlgo"),
              "--out", str(merged), "--report", str(rep)])
        capsys.readouterr()
        main(["inspect", "--input", str(merged)])
        out = capsys.readouterr().out
        for rec in json.loads(rep.read_text())["records"]:
            assert f"{rec['target']}: rank={rec['kept_rank']}" in out

    def test_huge_singular_value_printed(self, workdir, tmp_path, capsys):
        s = load_adapter_set(workdir / "a.mlgo")
        s.adapters[TargetId(0, "Q")].E[0] = 1e200
        path = tmp_path / "huge.mlgo"
        save_adapter_set(s, path)
        assert main(["inspect", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "layer0.Q: rank=4 spectrum=[1e+200," in out and "inf" not in out

    @staticmethod
    def _every_command_fails(bad, good, tmp_path, capsys):
        """inspect, merge and eval each fail cleanly on ``bad``."""
        for argv in (["inspect", "--input", str(bad)],
                     ["merge", "--inputs", str(bad), str(good),
                      "--out", str(tmp_path / "m.mlgo")],
                     ["eval", "--adapters", str(bad), "--head", "embedded",
                      "--task-seed", "5"]):
            fails_cleanly(argv, capsys)
        assert not (tmp_path / "m.mlgo").exists()

    def test_corrupt_file_is_runtime_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.mlgo"
        bad.write_bytes(b"not an adapter file at all")
        self._every_command_fails(bad, workdir / "a.mlgo", tmp_path, capsys)

    @pytest.mark.parametrize("shape", [None, "x"])
    def test_malformed_shape_is_runtime_error(self, workdir, tmp_path, capsys, shape):
        def mutate(header):
            if shape is None:
                del header["tensors"][0]["shape"]
            else:
                header["tensors"][0]["shape"] = shape
        bad = tmp_path / "bad.mlgo"
        rewrite_header(workdir / "a.mlgo", bad, mutate)
        self._every_command_fails(bad, workdir / "a.mlgo", tmp_path, capsys)

    @pytest.mark.parametrize("case", [
        "negative-shape", "negative-layer", "layer-out-of-range", "head-bias-shape",
        "missing-target", "tensors-null", "tensors-number", "tensors-bool",
    ])
    def test_inconsistent_header_is_runtime_error(self, workdir, tmp_path, capsys, case):
        def mutate(header):
            entries = header["tensors"]
            if case.startswith("tensors-"):
                header["tensors"] = {"tensors-null": None, "tensors-number": 5,
                                     "tensors-bool": True}[case]
            elif case == "missing-target":
                del entries[0]["target"]
            elif case == "negative-shape":
                entries[0]["shape"] = [-dim for dim in entries[0]["shape"]]
            elif case == "head-bias-shape":
                bias = next(e for e in entries if e["role"] == "head_b")
                bias["shape"] = [1] + bias["shape"]
            else:
                target = "layer-1.Q" if case == "negative-layer" else "layer5.Q"
                for entry in entries:
                    if entry["target"] == "layer0.Q":
                        entry["target"] = target
        bad = tmp_path / "bad.mlgo"
        rewrite_header(workdir / "a.mlgo", bad, mutate)
        self._every_command_fails(bad, workdir / "a.mlgo", tmp_path, capsys)


class TestUnfitFiles:
    """Files that load but do not fit what a command does with them: a
    command exits 1 with one error line exactly when it reads the part that
    does not fit, and never prints a traceback."""

    @staticmethod
    def _small_adapters(good, dst):
        """8x8 adapters in a file signed like ``good``, a 32-dim backbone."""
        adapters = {t: init_adapter(8, 8, 2, seed=i, target=t)
                    for i, t in enumerate(TargetId(layer, slot)
                                          for layer in range(2) for slot in "QV")}
        save_adapter_set(AdapterSet(ModelSignature(8, 2, "small"), adapters), dst)
        sig = load_adapter_set(good).signature
        rewrite_header(dst, dst, lambda h: h.__setitem__("model_signature",
                                                           sig.as_dict()))

    @staticmethod
    def _metadata(key, value):
        def make(good, dst):
            rewrite_header(good, dst, lambda h: h["metadata"].__setitem__(key, value))
        return make

    @staticmethod
    def _non_positive_signature(good, dst):
        """No tensors, signed with a negative embed_dim and zero layers."""
        rewrite_header(good, dst, lambda h: h.update(tensors=[], model_signature=dict(
            h["model_signature"], embed_dim=-5, num_layers=0)))

    TASK = {"eval-embedded", "eval-head"}  # the commands that read task metadata

    @pytest.mark.parametrize("make, reads_unfit", [
        (_small_adapters, {"inspect", "merge", "eval", "eval-embedded", "eval-head"}),
        (_metadata("components", "x"), TASK),
        (_metadata("family_seed", "y"), TASK),
        (_metadata("separation", "nan"), TASK),
        (_metadata("noise", "inf"), TASK),
        # far beyond any address space, so the allocation fails everywhere
        (_metadata("seq_len", str(10**12)), TASK),
        # beyond what numpy can describe
        (_metadata("seq_len", str(10**17)), TASK),
        (_metadata("seq_len", str(10**30)), TASK),
        (_metadata("components", str(10**17)), TASK),
        (_non_positive_signature, {"inspect", "merge", "eval", "eval-embedded", "eval-head"}),
    ], ids=["adapter-shape", "components-x", "family-seed-y", "separation-nan",
            "noise-inf", "seq-len-huge", "seq-len-beyond-numpy", "seq-len-beyond-dims",
            "components-beyond-numpy", "non-positive-signature"])
    def test_commands_fail_cleanly(self, workdir, tmp_path, capsys, make, reads_unfit):
        good, bad = workdir / "a.mlgo", tmp_path / "bad.mlgo"
        make(good, bad)
        # eval reads the task metadata of the file that gives the head
        commands = {
            "inspect": ["inspect", "--input", str(bad)],
            "merge": ["merge", "--inputs", str(bad), str(good),
                      "--out", str(tmp_path / "m.mlgo")],
            "eval": ["eval", "--adapters", str(bad), "--head", str(good),
                     "--task-seed", "5"],
            "eval-embedded": ["eval", "--adapters", str(bad), "--task-seed", "5"],
            "eval-head": ["eval", "--adapters", str(good), "--head", str(bad),
                          "--task-seed", "5"],
        }
        for name, argv in commands.items():
            if name in reads_unfit:
                fails_cleanly(argv, capsys)
                continue
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0 and not captured.err and "Traceback" not in captured.out, name


class TestModuleEntryPoint:
    """``python -m svdlora`` runs :func:`main` in a fresh interpreter and
    exits with its code."""

    @staticmethod
    def _run(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(svdlora.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "svdlora", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_success_exits_zero(self):
        run = self._run("gap-demo", "--identical")
        assert (run.returncode, run.stdout, run.stderr) == (0, "gap=0\n", "")

    def test_failure_exits_one_with_one_error_line(self, tmp_path):
        run = self._run("inspect", "--input", str(tmp_path / "absent.mlgo"))
        assert run.returncode == 1 and not run.stdout
        [line] = run.stderr.splitlines()
        assert line.startswith("error: ") and "absent.mlgo" in line


# Values a numeric flag draws: valid ones, bounds, and ones to refuse.
NUMBERS = ("1", "2", "5", "0", "-1", str(2**65), "nan", "inf", "1e300", "1e-320", "")
# Input and output paths by kind; the property test maps "@kind" to a file.
FILES = ("@trained", "@merged", "@headless", "@corrupt", "@missing", "@directory", "")
OUTS = ("@new", "@directory", "@missing", "")
# Per command: the flags every argv carries (train's --epochs keeps a run to
# at most 2 epochs) and the flags it may add; a flag without values takes
# none. bench is left out: a valid bench argv runs for minutes.
GRAMMAR = {
    "train": ({"--epochs": ("1", "2", "0", "-1", "nan", ""), "--out": OUTS},
              {flag: NUMBERS for flag in (
                  "--task-seed", "--classes", "--components", "--separation", "--rank",
                  "--lr", "--reg", "--seed", "--backbone-seed")}),
    "merge": ({"--inputs": FILES, "--out": OUTS},
              {"--method": ("med-lego", "pre-avg", "task-arith", ""),
               "--threshold": NUMBERS, "--lambda": NUMBERS,
               "--report": OUTS}),
    "eval": ({"--adapters": FILES, "--task-seed": NUMBERS},
             {"--head": FILES + ("embedded",), "--split": ("train", "val", "test", ""),
              "--backbone-seed": NUMBERS}),
    "gap-demo": ({}, {"--seed": NUMBERS, "--identical": ()}),
    "inspect": ({"--input": FILES}, {}),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    required, optional = GRAMMAR[command]
    extra = draw(st.lists(st.sampled_from(sorted(optional)), max_size=3, unique=True)
                 if optional else st.just([]))
    values_of = {**required, **optional}
    argv = [command]
    for flag in [*required, *extra]:
        values = values_of[flag]
        argv.append(flag)
        if flag == "--inputs":
            argv += draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
        elif values:
            argv.append(draw(st.sampled_from(values)))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(workdir, tmp_path_factory):
    """The path of each "@kind" in :data:`FILES` and :data:`OUTS`."""
    d = tmp_path_factory.mktemp("fuzz")
    trained = workdir / "a.mlgo"
    assert main(["merge", "--inputs", str(trained), str(workdir / "b.mlgo"),
                 "--out", str(d / "merged.mlgo")]) == 0
    s = load_adapter_set(trained)
    save_adapter_set(dataclasses.replace(s, head_w=None, head_b=None), d / "headless.mlgo")
    rewrite_header(trained, d / "corrupt.mlgo",
                   lambda h: h["tensors"][0].__setitem__("shape", [-1]))
    return {"@trained": str(trained), "@merged": str(d / "merged.mlgo"),
            "@headless": str(d / "headless.mlgo"), "@corrupt": str(d / "corrupt.mlgo"),
            "@missing": str(d / "absent" / "x.mlgo"), "@directory": str(d),
            "@new": str(d / "new.mlgo")}


class TestArgvProperty:
    """Any argv from :data:`GRAMMAR` ends in a usage error (2), a runtime
    failure with one ``error:`` line (1) or success (0), never with a
    traceback or a warning; an ``eval`` that succeeds printed an accuracy
    from finite logits."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(argv=cli_argv())
    def test_exits_cleanly(self, fuzz_files, argv):
        argv = [fuzz_files.get(token, token) for token in argv]
        finite = []  # per forward pass of an eval: were all logits finite?
        model_forward = train.forward

        def forward(*args, **kwargs):
            logits = model_forward(*args, **kwargs)
            finite.append(bool(np.isfinite(logits).all()))
            return logits
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("always")
            if argv[0] == "eval":
                mp.setattr(train, "forward", forward)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert not caught and "Traceback" not in err and "Warning" not in err
        if code == 1:
            [line] = err.splitlines()
            assert line.startswith("error: ")
        if code == 0 and argv[0] == "eval":
            assert re.fullmatch(r"acc=[01]\.\d{4}\n", out.getvalue())
            assert finite and all(finite)
