"""Fast tests of the benchmark itself: every workload at a tiny size, and
every check rejecting a deliberately wrong output.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_package()

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from svdlora import storage, train  # noqa: E402
from svdlora.adapter import SvdLoraAdapter  # noqa: E402

TINY_MINI = wl.MiniSize(n_train=32, n_val=16, n_test=32)
TINY_WIDE = wl.WideSize(embed_dim=16, num_layers=1, specialists=3)
TINY_DIAG = wl.DiagSize(sets=2, large=512)


def one_round(setup, round_fn, tmp_path, size, seed=1):
    inputs = setup(seed, tmp_path, size)
    ops = wl.Ops()
    out = round_fn(inputs, ops)
    assert ops.attempted > 0 and ops.failed == 0
    return inputs, ops, out


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    return one_round(wl.setup_mini, wl.round_mini,
                     tmp_path_factory.mktemp("mini"), TINY_MINI)


@pytest.fixture
def wide(tmp_path):
    return one_round(wl.setup_wide, wl.round_wide, tmp_path, TINY_WIDE)


@pytest.fixture
def diag(tmp_path):
    return one_round(wl.setup_diag, wl.round_diag, tmp_path, TINY_DIAG)


# --- bench-mini ---------------------------------------------------------------

def test_mini_passes_and_reports(mini):
    inputs, ops, out = mini
    wl.check_mini(inputs, out)
    figures = wl.figures_mini(inputs, ops, [out])
    assert figures["train_steps_per_s"] > 0 and 0 < figures["merged_acc"] <= 1
    assert len(out.trainings) == 7


def test_mini_rejects_flipped_prediction(mini):
    inputs, _, out = mini
    accs = out.results[0].accuracy[1]["med-lego"]
    label = next(iter(accs))
    saved = accs[label]
    accs[label] = saved + (1 if saved < 1 else -1) / TINY_MINI.n_test
    try:
        with pytest.raises(ref.CheckFailed, match="med-lego .*accuracy"):
            wl.check_mini(inputs, out)
    finally:
        accs[label] = saved


def test_mini_rejects_perturbed_merged_delta(mini):
    inputs, _, out = mini
    merged = out.results[0].merged_sets[1]
    target, saved = next(iter(merged.adapters.items()))
    merged.adapters[target] = replace(saved, E=saved.E * (1 + 1e-6))
    try:
        with pytest.raises(ref.CheckFailed, match="cross_domain med-lego"):
            wl.check_mini(inputs, out)
    finally:
        merged.adapters[target] = saved


def test_mini_rejects_csv_disagreeing_with_results(mini):
    inputs, _, out = mini
    accs = out.results[1].accuracy[1]["pre-avg"]
    label = next(iter(accs))
    saved = accs[label]
    path = inputs.out / "in_domain.csv"
    text = path.read_text()
    rows = text.splitlines()
    row = next(i for i, r in enumerate(rows) if f",pre-avg,{label}," in r)
    rows[row] = rows[row].rsplit(",", 1)[0] + f",{saved / 2!r}"
    path.write_text("\n".join(rows) + "\n")
    try:
        with pytest.raises(ref.CheckFailed, match="in_domain.csv"):
            wl.check_mini(inputs, out)
    finally:
        path.write_text(text)


def test_mini_rejects_short_curve(mini):
    inputs, _, out = mini
    curve = next(iter(out.results[2].curves.values()))
    saved = curve.val_accs.pop()
    try:
        with pytest.raises(ref.CheckFailed, match="one finite entry per epoch"):
            wl.check_mini(inputs, out)
    finally:
        curve.val_accs.append(saved)


# --- merge-wide ---------------------------------------------------------------

def test_wide_passes_and_reports(wide):
    inputs, ops, out = wide
    wl.check_wide(inputs, out)
    figures = wl.figures_wide(inputs, ops, [out])
    assert figures["merge_s"] > 0 and figures["inspect_s"] > 0


def _rewrite_merged(inputs, method, change):
    path = inputs.out / f"{method}.mlgo"
    s = storage.load_adapter_set(path)
    tid = s.sorted_targets()[0]
    s.adapters[tid] = change(s.adapters[tid])
    storage.save_adapter_set(s, path)


def test_wide_rejects_perturbed_merged_delta(wide):
    inputs, _, out = wide
    _rewrite_merged(inputs, "med-lego",
                    lambda a: replace(a, E=a.E + 1e-6 * a.E[0]))
    with pytest.raises(ref.CheckFailed, match="med-lego"):
        wl.check_wide(inputs, out)


def test_wide_rejects_wrong_kept_rank(wide):
    inputs, _, out = wide
    _rewrite_merged(inputs, "med-lego", lambda a: SvdLoraAdapter(
        target=a.target, B=a.B[:, :-1], E=a.E[:-1], A=a.A[:-1]))
    with pytest.raises(ref.CheckFailed, match="kept rank"):
        wl.check_wide(inputs, out)


def test_wide_rejects_wrong_reported_rank(wide):
    inputs, _, out = wide
    path = inputs.out / "med-lego.json"
    report = json.loads(path.read_text())
    report["records"][0]["kept_rank"] += 1
    path.write_text(json.dumps(report))
    with pytest.raises(ref.CheckFailed, match="reported kept rank"):
        wl.check_wide(inputs, out)


@pytest.mark.parametrize("method", ["task-arith", "pre-avg"])
def test_wide_rejects_wrong_baseline(wide, method):
    inputs, _, out = wide
    _rewrite_merged(inputs, method, lambda a: replace(a, B=a.B * (1 + 1e-9)))
    with pytest.raises(ref.CheckFailed, match=f"{method} .*delta"):
        wl.check_wide(inputs, out)


def test_wide_rejects_wrong_inspect_listing(wide):
    inputs, _, out = wide
    out["pre-avg"] = out["pre-avg"].replace("rank=", "rank=1", 1)
    with pytest.raises(ref.CheckFailed, match="inspect"):
        wl.check_wide(inputs, out)


def test_wide_rejects_changed_input_file(wide):
    inputs, _, out = wide
    aset = inputs.sets[0]
    tid = aset.sorted_targets()[0]
    aset.adapters[tid] = replace(aset.adapters[tid], E=aset.adapters[tid].E * 2)
    with pytest.raises(ref.CheckFailed, match="specialist0"):
        wl.check_wide(inputs, out)


# --- diagnose -----------------------------------------------------------------

def test_diag_passes_and_reports(diag):
    inputs, ops, out = diag
    wl.check_diag(inputs, out)
    figures = wl.figures_diag(inputs, ops, [out])
    assert figures["eval_samples_per_s"] > 0 and figures["eval_cmd_s"] > 0


@pytest.mark.parametrize("split", ["small", "large"])
def test_diag_rejects_flipped_prediction(diag, split):
    inputs, _, out = diag
    n = len(inputs.splits[0, split][1])
    acc = out[0, 1, split]
    out[0, 1, split] = acc + (1 if acc < 1 else -1) / n
    with pytest.raises(ref.CheckFailed, match=split):
        wl.check_diag(inputs, out)


def test_diag_rejects_flipped_prediction_in_cli(diag):
    inputs, _, out = diag
    acc = float(out[1, 0, "cli"][4:])
    out[1, 0, "cli"] = f"acc={acc + (1 if acc < 1 else -1) / 256:.4f}\n"
    with pytest.raises(ref.CheckFailed, match="cli"):
        wl.check_diag(inputs, out)


def test_reference_forward_matches_package(diag):
    inputs, _, _ = diag
    x = inputs.splits[0, "small"][0][:8]
    aset = inputs.sets[0]
    head = (aset.head_w, aset.head_b)
    want = train.forward(inputs.model, aset, x, head=head)
    got = ref.logits(inputs.model, ref.dense_deltas(ref.set_factors(aset)), x, head)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


# --- traced mode and the command ----------------------------------------------

def test_tracer_records_spans_and_restores(tmp_path):
    inputs = wl.setup_diag(1, tmp_path, TINY_DIAG)
    original = train.evaluate
    tracer = tracing.Tracer()
    tracer.start()
    try:
        wl.round_diag(inputs, wl.Ops())
    finally:
        tracer.stop()
    assert train.evaluate is original and wl.train.evaluate is original
    summary = tracer.summary(rounds=1)
    pairs = TINY_DIAG.sets ** 2
    assert summary["train.evaluate.calls"] == 3 * pairs
    assert summary["cli.eval.calls"] == pairs
    assert summary["storage.load_adapter_set.calls"] == 2 * pairs
    assert summary["model.forward_eval.calls"] == 3 * pairs
    assert summary["model.forward_eval.samples"] == pairs * (256 + 512 + 256)
    assert set(summary) | {"trace.untraced_s", "trace.traced_s",
                           "trace.overhead_pct"} == set(tracing.metric_units())
    for name in tracing.SPAN_NAMES:
        assert summary[f"{name}.self_s"] <= summary[f"{name}.s"] + 1e-12
    tracer.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    assert {"name", "start", "end", "parent"} == set(json.loads(lines[0]))


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    per_layer = tracing.metric_units() | {k: u for k, (u, _) in wl.FIGURES.items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer
    assert {w["name"] for w in doc["workloads"]} <= set(wl.WORKLOADS)


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnose",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
