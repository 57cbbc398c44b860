import json
import struct

import numpy as np
import pytest

from svdlora.adapter import (AdapterSet, ModelSignature, TargetId, delta,
                             init_adapter)
from svdlora.cli import build_parser, main
from svdlora.data import TaskSpec, generate_task
from svdlora.model import TinyModel
from svdlora.storage import load_adapter_set, save_adapter_set
from svdlora.train import evaluate

EASY = ["--task-seed", "5", "--classes", "2", "--separation", "8.0",
        "--epochs", "25"]
OTHER = ["--task-seed", "6", "--classes", "3", "--separation", "8.0",
         "--epochs", "25"]


def rewrite_header(src, dst, mutate):
    """Copy ``src`` to ``dst`` with its JSON header changed by ``mutate``."""
    blob = src.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sIQ", blob)
    header = json.loads(blob[16:16 + header_len])
    mutate(header)
    raw = json.dumps(header).encode()
    raw += b" " * ((-len(raw)) % 8)
    dst.write_bytes(struct.pack("<4sIQ", magic, version, len(raw)) + raw
                    + blob[16 + header_len:])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["train", *EASY, "--out", str(d / "a.mlgo")]) == 0
    assert main(["train", *OTHER, "--out", str(d / "b.mlgo")]) == 0
    return d


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

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
            ("task-arith", ["--max-rank", "1"], "-max-rank"),
            ("task-arith", ["--threshold", "0.9"], "-threshold"),
            ("pre-avg", ["--max-rank", "1"], "-max-rank"),
            ("pre-avg", ["--threshold", "0.9"], "-threshold")]])
    def test_lambda_needs_task_arithmetic(self, workdir, tmp_path, capsys, method, flag):
        code = main(["merge", "--inputs", str(workdir / "a.mlgo"), "--method", method,
                     *flag, "--out", str(tmp_path / "m.mlgo")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "m.mlgo").exists()

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

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["merge", "--inputs", str(tmp_path / "absent.mlgo"),
                     "--out", str(tmp_path / "m.mlgo")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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
        code = main(["eval", "--adapters", str(merged), "--task-seed", "5"])
        assert code == 1
        assert "head" in capsys.readouterr().err


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
        code = main(argv(workdir, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "non-negative" in captured.err
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
        """inspect, merge and eval each exit 1 on ``bad`` with a one-line
        error and no traceback."""
        for argv in (["inspect", "--input", str(bad)],
                     ["merge", "--inputs", str(bad), str(good),
                      "--out", str(tmp_path / "m.mlgo")],
                     ["eval", "--adapters", str(bad), "--head", "embedded",
                      "--task-seed", "5"]):
            assert main(argv) == 1, argv[0]
            captured = capsys.readouterr()
            assert "error:" in captured.err, argv[0]
            assert "Traceback" not in captured.err + captured.out, argv[0]

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
            code = main(argv)
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err + captured.out, name
            if name in reads_unfit:
                assert code == 1 and captured.err.startswith("error:"), name
            else:
                assert code == 0 and not captured.err, name
