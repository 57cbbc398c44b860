"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run pytest with
``-s`` to see them) and then asserts the criterion. Criterion 8 is expected
to fail in its task-arithmetic half; the printed line carries the analysis.
"""

import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from svdlora import linalg, storage
from svdlora.adapter import (AdapterSet, ModelSignature, SvdLoraAdapter,
                             TargetId, delta, init_adapter, param_count)
from svdlora.cli import main
from svdlora.data import TaskSpec, generate_task
from svdlora.errors import ToolkitError
from svdlora.merge import MergeConfig, merge_sets, premerge_postmerge_gap
from svdlora.model import TinyModel, forward, orthogonality_penalty
from svdlora.train import TrainConfig, gradients, init_adapter_set, loss


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


# --- criterion 1: SVD correctness on 200 matrices, < 30 s -----------------

def test_criterion_01_svd_correctness():
    rng = np.random.default_rng(1001)
    matrices = []
    for _ in range(120):
        m, n = rng.integers(1, 65, size=2)
        matrices.append(rng.standard_normal((m, n)))
    for _ in range(80):
        m, n = rng.integers(2, 65, size=2)
        k = min(m, n)
        u = np.linalg.qr(rng.standard_normal((m, k)))[0]
        v = np.linalg.qr(rng.standard_normal((n, k)))[0]
        s = np.logspace(0, -6, k)  # condition number 1e6
        matrices.append((u * s) @ v.T)

    start = time.perf_counter()
    worst_recon = worst_sv = 0.0
    for mat in matrices:
        f = linalg.svd(mat)
        scale = max(np.linalg.norm(mat), 1e-300)
        worst_recon = max(worst_recon,
                          np.linalg.norm(f.reconstruct() - mat) / scale)
        evals = np.linalg.eigh(mat.T @ mat)[0][::-1][: len(f.S)]
        oracle = np.sqrt(np.maximum(evals, 0.0))
        # relative to the spectral norm: the squared oracle itself loses
        # half the digits on the smallest values at condition 1e6
        worst_sv = max(worst_sv,
                       float(np.max(np.abs(f.S - oracle))) / max(f.S[0], 1e-300))
    elapsed = time.perf_counter() - start

    ok = worst_recon <= 1e-9 and worst_sv <= 1e-8 and elapsed < 30.0
    report(1, ok, f"200 matrices: recon ≤ {worst_recon:.2e}, "
                  f"singular-value err ≤ {worst_sv:.2e}, {elapsed:.1f}s")
    assert ok


# --- criterion 2: gradient fidelity vs central finite differences ---------

def _fd_gradient(value_fn, arr, eps=1e-5):
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = value_fn()
        flat[i] = orig - eps
        down = value_fn()
        flat[i] = orig
        g.reshape(-1)[i] = (up - down) / (2 * eps)
    return g


def test_criterion_02_gradient_fidelity():
    worst = 0.0
    for instance in range(3):
        model = TinyModel(seed=40 + instance)
        spec = TaskSpec(task_seed=60 + instance, num_classes=3)
        ds = generate_task(spec)
        x, y = ds.train[0][:8], ds.train[1][:8]
        aset = init_adapter_set(model, 3, TrainConfig(seed=instance))
        rng = np.random.default_rng(900 + instance)
        for a in aset.adapters.values():  # move off the zero init so the
            a.E[...] = 0.3 * rng.standard_normal(a.E.shape)  # reg path and
            a.B[...] += 0.1 * rng.standard_normal(a.B.shape)  # delta are live
        reg = 0.1

        def value():
            return loss(forward(model, aset, x), y, aset, reg)

        _, grads = gradients(model, aset, x, y, reg)
        blocks = []
        for tid in aset.sorted_targets():
            a = aset.adapters[tid]
            g = grads.adapters[tid]
            blocks += [(a.B, g.B), (a.E, g.E), (a.A, g.A)]
        blocks += [(aset.head_w, grads.head_w), (aset.head_b, grads.head_b)]
        for arr, analytic in blocks:
            fd = _fd_gradient(value, arr)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, float(rel))
    ok = worst <= 1e-4
    report(2, ok, f"3 instances, all parameter blocks: worst relative "
                  f"error {worst:.2e} vs central differences (ε=1e-5)")
    assert ok


# --- criterion 3: zero-init adapters leave the backbone unchanged ---------

def test_criterion_03_zero_init_equivalence():
    model = TinyModel(seed=7)
    aset = init_adapter_set(model, 4, TrainConfig(seed=3))
    bare = AdapterSet(signature=model.signature, adapters={},
                      head_w=aset.head_w, head_b=aset.head_b)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal((6, 8, model.embed_dim))
        diff = np.abs(forward(model, aset, x) - forward(model, bare, x))
        worst = max(worst, float(diff.max()))
    ok = worst <= 1e-12
    report(3, ok, f"fresh adapters vs backbone-only logits agree to {worst:.2e}")
    assert ok


# --- criterion 4: truncation rule matches the brute-force oracle ----------

def _brute_force_k(s, v):
    total = float(np.sum(s))
    if total == 0.0:
        return 1
    acc = 0.0
    for k, value in enumerate(s, start=1):
        acc += float(value)
        if acc >= v * total:
            return k
    return len(s)


def test_criterion_04_truncation_selection_rule():
    rng = np.random.default_rng(4004)
    spectra = [np.sort(scale * np.abs(rng.standard_normal(rng.integers(1, 33))))[::-1]
               for _ in range(97) for scale in [rng.choice([1e-6, 1.0, 1e6])]]
    spectra += [np.array([1.0, 0.0, 0.0]), np.ones(8), np.array([42.0])]
    checked = mismatches = 0
    for s in spectra:
        f = linalg.SvdFactors(U=np.eye(len(s)), S=s.copy(), V=np.eye(len(s)))
        for v in (0.5, 0.9, 0.997, 1.0):
            checked += 1
            if linalg.truncate(f, v).rank != _brute_force_k(s, v):
                mismatches += 1
    ok = mismatches == 0 and len(spectra) == 100
    report(4, ok, f"{checked} spectrum/threshold pairs, {mismatches} mismatches "
                  "against the brute-force smallest-k oracle")
    assert ok


# --- criteria 5-6 helpers -------------------------------------------------

def _random_set(seed, signature, rank=4):
    # orthonormal factors with comparable singular values, so the merge's
    # 99.7%-mass cut drops nothing and criterion 5 isolates the averaging
    # path (truncation itself is criterion 4's subject)
    rng = np.random.default_rng(seed)
    d = signature.embed_dim
    adapters = {}
    for layer in range(signature.num_layers):
        for slot in ("Q", "V"):
            t = TargetId(layer, slot)
            adapters[t] = SvdLoraAdapter(
                target=t,
                B=np.linalg.qr(rng.standard_normal((d, rank)))[0],
                E=rng.choice([-1.0, 1.0], rank) * rng.uniform(0.5, 1.5, rank),
                A=np.linalg.qr(rng.standard_normal((d, rank)))[0].T)
    return AdapterSet(signature=signature, adapters=adapters)


def test_criterion_05_merge_idempotence_commutativity():
    sig = ModelSignature(16, 2, "sig")
    sets = [_random_set(500 + i, sig) for i in range(3)]

    worst_self = 0.0
    for s in sets:
        merged, _ = merge_sets([s, s], MergeConfig())
        for t, a in merged.adapters.items():
            worst_self = max(worst_self, float(np.linalg.norm(
                delta(a) - delta(s.adapters[t]))))

    fwd, _ = merge_sets(sets, MergeConfig())
    rev, _ = merge_sets(sets[::-1], MergeConfig())
    worst_perm = max(
        float(np.linalg.norm(delta(fwd.adapters[t]) - delta(rev.adapters[t])))
        for t in fwd.adapters)

    ok = worst_self <= 1e-9 and worst_perm <= 1e-12
    report(5, ok, f"self-merge delta drift ≤ {worst_self:.2e}, input "
                  f"permutation drift ≤ {worst_perm:.2e}")
    assert ok


def test_criterion_06_factor_vs_delta_averaging_gap():
    def pair(seed, identical):
        rng = np.random.default_rng(seed)
        a = init_adapter(16, 16, 4, seed=seed)
        first = SvdLoraAdapter(target=a.target,
                               B=rng.standard_normal(a.B.shape),
                               E=rng.standard_normal(a.E.shape),
                               A=rng.standard_normal(a.A.shape))
        if identical:
            return [first, first]
        return [first, SvdLoraAdapter(target=a.target,
                                      B=rng.standard_normal(a.B.shape),
                                      E=rng.standard_normal(a.E.shape),
                                      A=rng.standard_normal(a.A.shape))]

    min_gap = min(premerge_postmerge_gap(pair(600 + i, False)) for i in range(20))
    identical_gap = max(premerge_postmerge_gap(pair(700 + i, True))
                        for i in range(5))
    ok = min_gap > 1e-6 and identical_gap == 0.0
    report(6, ok, f"20 random pairs: min gap {min_gap:.3e} > 1e-6; "
                  f"identical inputs gap {identical_gap}")
    assert ok


def test_criterion_07_parameter_efficiency():
    sig = ModelSignature(768, 12, "vit-base")
    adapters = {}
    for layer in range(12):
        for slot in ("Q", "V"):
            t = TargetId(layer, slot)
            adapters[t] = SvdLoraAdapter(target=t, B=np.zeros((768, 4)),
                                         E=np.zeros(4), A=np.zeros((4, 768)))
    s = AdapterSet(signature=sig, adapters=adapters)
    count, fraction = param_count(s, 86_000_000)
    ok = count == 147_552 and 0.0015 <= fraction <= 0.0020
    report(7, ok, f"d=768, 12 layers, Q+V, r=4: {count} adapter parameters, "
                  f"fraction {fraction:.5f} of 86M")
    assert ok


# --- bench-backed criteria (8, 9, 11) -------------------------------------

BENCH_FILES = ("cross_domain.csv", "in_domain.csv", "finetune_curves.csv",
               "summary.md")


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    d1 = tmp_path_factory.mktemp("bench1")
    d2 = tmp_path_factory.mktemp("bench2")
    start = time.perf_counter()
    assert main(["bench", "--suite", "default", "--out", str(d1),
                 "--jobs", "1"]) == 0
    elapsed = time.perf_counter() - start
    # second run parallelized: byte-equality doubles as a determinism
    # check for --jobs
    assert main(["bench", "--suite", "default", "--out", str(d2),
                 "--jobs", "4"]) == 0
    return Path(d1), Path(d2), elapsed


def _mean_accuracies(csv_path):
    """per-seed mean accuracy per method from a merge-experiment CSV."""
    sums: dict[tuple[int, str], list[float]] = {}
    for line in csv_path.read_text().splitlines()[1:]:
        seed, method, _, acc = line.split(",")
        sums.setdefault((int(seed), method), []).append(float(acc))
    return {key: sum(v) / len(v) for key, v in sums.items()}


def test_criterion_08_merged_model_beats_baselines(bench_runs):
    d1, _, _ = bench_runs
    means = _mean_accuracies(d1 / "cross_domain.csv")
    seeds = sorted({s for s, _ in means})
    pre_wins = sum(means[(s, "med-lego")] > means[(s, "pre-avg")] for s in seeds)
    ta_wins = sum(means[(s, "med-lego")] > means[(s, "task-arith")] for s in seeds)
    majority = len(seeds) // 2 + 1
    ok = pre_wins >= majority and ta_wins >= majority
    report(8, ok,
           f"mean accuracy over 7 tasks: beats factor-averaging in "
           f"{pre_wins}/{len(seeds)} seeds, beats task-arithmetic(1/N) in "
           f"{ta_wins}/{len(seeds)} seeds. Known honest failure: with scale "
           "1/N, task arithmetic's merged delta is algebraically identical to "
           "the pre-truncation averaged delta, and the 99.7%-mass truncation "
           "bounds the difference to ~0.3% of the update — below every test "
           "point's decision margin here (exact accuracy ties, zero "
           "prediction flips measured across two suite geometries), so a "
           "strict ordering cannot materialize at this scale.")
    assert ok


def test_criterion_09_merged_init_converges_no_slower(bench_runs):
    d1, _, _ = bench_runs
    curves: dict[tuple[str, str, int], list[float]] = {}
    for line in (d1 / "finetune_curves.csv").read_text().splitlines()[1:]:
        task, init, seed, _epoch, _tl, va = line.split(",")
        curves.setdefault((task, init, int(seed)), []).append(float(va))

    def epochs_to(accs, target=0.8):
        for epoch, acc in enumerate(accs):
            if acc >= target:
                return epoch + 1
        return len(accs) + 1

    tasks = sorted({t for t, _, _ in curves})
    seeds = sorted({s for _, _, s in curves})
    details = []
    ok = True
    for task in tasks:
        wins = sum(
            epochs_to(curves[(task, "merged-indomain", s)])
            <= epochs_to(curves[(task, "fresh", s)])
            for s in seeds)
        details.append(f"{task} {wins}/{len(seeds)}")
        ok = ok and wins >= len(seeds) // 2 + 1
    report(9, ok, "seeds where merged-init epochs-to-0.8 ≤ fresh-init: "
                  + ", ".join(details))
    assert ok


# --- criterion 10: serialization fuzz -------------------------------------

def test_criterion_10_serialization_fuzz(tmp_path):
    rng = np.random.default_rng(1010)
    path = tmp_path / "fuzz.mlgo"
    mismatches = 0
    for i in range(1000):
        d = int(rng.integers(1, 13))
        layers = int(rng.integers(1, 4))
        rank = int(rng.integers(1, min(d, 4) + 1))
        adapters = {}
        for layer in range(layers):
            for slot in ("Q", "V"):
                if rng.random() < 0.2:
                    continue
                t = TargetId(layer, slot)
                adapters[t] = SvdLoraAdapter(
                    target=t, B=rng.standard_normal((d, rank)),
                    E=rng.standard_normal(rank),
                    A=rng.standard_normal((rank, d)))
        with_head = rng.random() < 0.8
        classes = int(rng.integers(1, 6))
        s = AdapterSet(
            signature=ModelSignature(d, layers, f"fz{i}"),
            adapters=adapters,
            head_w=rng.standard_normal((d, classes)) if with_head else None,
            head_b=rng.standard_normal(classes) if with_head else None,
            metadata={"i": str(i)})
        storage.save_adapter_set(s, path)
        loaded = storage.load_adapter_set(path)
        same = loaded.metadata == s.metadata and set(loaded.adapters) == set(adapters)
        for t, a in adapters.items():
            same = same and all(
                np.array_equal(getattr(loaded.adapters[t], n), getattr(a, n))
                for n in ("B", "E", "A"))
        if with_head:
            same = same and np.array_equal(loaded.head_w, s.head_w) \
                and np.array_equal(loaded.head_b, s.head_b)
        mismatches += not same

    # corruption fuzz: loads either succeed (benign flip) or raise a typed
    # toolkit error -- never any other exception
    base = tmp_path / "base.mlgo"
    storage.save_adapter_set(
        AdapterSet(signature=ModelSignature(8, 2, "c"),
                   adapters={TargetId(0, "Q"): SvdLoraAdapter(
                       target=TargetId(0, "Q"), B=rng.standard_normal((8, 3)),
                       E=rng.standard_normal(3), A=rng.standard_normal((3, 8)))},
                   head_w=rng.standard_normal((8, 2)),
                   head_b=rng.standard_normal(2)), base)
    blob = base.read_bytes()
    untyped = 0
    for i in range(300):
        kind = i % 4
        bad = bytearray(blob)
        if kind == 0:
            bad = bad[: rng.integers(0, len(blob))]
        elif kind == 1:
            bad[:4] = bytes(rng.integers(0, 256, size=4))
        elif kind == 2:  # scramble directory offsets inside the header
            _, _, hlen = struct.unpack_from("<4sIQ", bad)
            header = json.loads(bytes(bad[16:16 + hlen]).decode())
            for entry in header["tensors"]:
                entry["offset"] = int(rng.integers(0, 2000))
            raw = json.dumps(header).encode()
            raw += b" " * ((-len(raw)) % 8)
            bad = bytearray(struct.pack("<4sIQ", b"MLGO", 1, len(raw))
                            + raw + blob[16 + hlen:])
        else:
            for _ in range(int(rng.integers(1, 6))):
                bad[rng.integers(0, len(bad))] = int(rng.integers(0, 256))
        path.write_bytes(bytes(bad))
        try:
            storage.load_adapter_set(path)
        except ToolkitError:
            pass
        except Exception:
            untyped += 1
    ok = mismatches == 0 and untyped == 0
    report(10, ok, f"1000 round trips, {mismatches} bit mismatches; 300 "
                   f"corrupted loads, {untyped} escaped the typed-error contract")
    assert ok


def test_criterion_11_bench_budget_and_reproducibility(bench_runs):
    d1, d2, elapsed = bench_runs
    identical = all((d1 / f).read_bytes() == (d2 / f).read_bytes()
                    for f in BENCH_FILES)
    ok = elapsed < 900.0 and identical
    report(11, ok, f"default suite: {elapsed:.0f}s single-threaded "
                   f"(< 900s); rerun outputs byte-identical: {identical}")
    assert ok
