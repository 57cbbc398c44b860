import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svdlora
from svdlora import train
from svdlora.adapter import AdapterSet, SvdLoraAdapter
from svdlora.data import TaskSpec, generate_task
from svdlora.errors import (DataError, DimensionError, ModelError, ParameterError,
                            TrainingError)
from svdlora.model import TinyModel, cross_entropy, forward, orthogonality_penalty
from svdlora.train import (TrainConfig, epochs_to_accuracy, evaluate,
                           gradients, init_adapter_set, loss, train_adapter)


@pytest.fixture(scope="module")
def model():
    return TinyModel(seed=3)


def randomized_set(model, num_classes=3, seed=42, scale=0.3):
    """A deliberately non-canonical 'trained-looking' adapter set."""
    base = init_adapter_set(model, num_classes, TrainConfig(seed=seed))
    rng = np.random.default_rng(seed)
    adapters = {}
    for t, a in base.adapters.items():
        adapters[t] = SvdLoraAdapter(
            target=t,
            B=a.B + scale * rng.standard_normal(a.B.shape),
            E=rng.standard_normal(a.E.shape),
            A=a.A + scale * rng.standard_normal(a.A.shape),
        )
    return AdapterSet(signature=base.signature, adapters=adapters,
                      head_w=base.head_w + rng.standard_normal(base.head_w.shape),
                      head_b=rng.standard_normal(num_classes),
                      metadata={})


def flatten(s):
    """Every tensor of ``s`` in :meth:`AdapterSet.tensors` order, as one vector."""
    return np.concatenate([arr.ravel() for _, _, arr in s.tensors()])


class TestGenerateTask:
    def test_determinism(self):
        spec = TaskSpec(task_seed=4, num_classes=3)
        d1, d2 = generate_task(spec), generate_task(spec)
        assert np.array_equal(d1.train[0], d2.train[0])
        assert np.array_equal(d1.test[1], d2.test[1])

    def test_distinct_seeds_differ(self):
        a = generate_task(TaskSpec(task_seed=1))
        b = generate_task(TaskSpec(task_seed=2))
        assert not np.array_equal(a.train[0], b.train[0])

    def test_labels_balanced_and_complete(self):
        spec = TaskSpec(task_seed=4, num_classes=5)
        ds = generate_task(spec)
        for x, y in (ds.train, ds.val, ds.test):
            counts = np.bincount(y, minlength=5)
            assert counts.min() >= 1
            assert counts.max() - counts.min() <= 1

    def test_well_separated_lda_oracle(self):
        # separation 10x the token noise: a closed-form LDA probe on the
        # mean-pooled raw features must already solve the task
        spec = TaskSpec(task_seed=8, num_classes=2, separation=10.0)
        ds = generate_task(spec)
        xtr = ds.train[0].mean(axis=1)
        ytr = ds.train[1]
        xte = ds.test[0].mean(axis=1)
        mu = np.stack([xtr[ytr == c].mean(axis=0) for c in range(2)])
        centered = xtr - mu[ytr]
        cov = centered.T @ centered / len(ytr) + 1e-6 * np.eye(xtr.shape[1])
        w = np.linalg.solve(cov, mu[1] - mu[0])
        thresh = w @ (mu[0] + mu[1]) / 2
        pred = (xte @ w > thresh).astype(int)
        assert np.mean(pred == ds.test[1]) >= 0.95

    def test_family_tasks_share_geometry(self):
        from svdlora.data import cluster_means
        a = cluster_means(TaskSpec(task_seed=1, family_seed=9, components=2))
        b = cluster_means(TaskSpec(task_seed=2, family_seed=9, components=2))
        c = cluster_means(TaskSpec(task_seed=3, components=2))
        assert np.linalg.norm(a - b) < np.linalg.norm(a - c)

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            TaskSpec(task_seed=0, num_classes=1)
        with pytest.raises(ParameterError):
            TaskSpec(task_seed=0, n_val=1, num_classes=4)
        for name in ("seq_len", "embed_dim", "components"):
            with pytest.raises(ParameterError,
                               match="seq_len, embed_dim and components must be positive"):
                TaskSpec(task_seed=0, **{name: 0})
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ParameterError, match="finite and non-negative"):
                TaskSpec(task_seed=0, separation=bad)
            with pytest.raises(ParameterError, match="finite and non-negative"):
                TaskSpec(task_seed=0, noise=bad)


class TestForward:
    def test_zero_init_matches_backbone(self, model):
        cfg = TrainConfig(seed=5)
        fresh = init_adapter_set(model, 4, cfg)
        bare = AdapterSet(signature=model.signature, adapters={},
                          head_w=fresh.head_w, head_b=fresh.head_b)
        x = np.random.default_rng(0).standard_normal((6, 8, model.embed_dim))
        np.testing.assert_allclose(forward(model, fresh, x),
                                   forward(model, bare, x), atol=1e-12)

    def test_duplicated_sample_rows_identical(self, model):
        aset = randomized_set(model)
        x = np.random.default_rng(1).standard_normal((1, 8, model.embed_dim))
        batch = np.concatenate([x, x], axis=0)
        logits = forward(model, aset, batch)
        np.testing.assert_allclose(logits[0], logits[1], atol=1e-13)

    def test_shape_and_finiteness(self, model):
        aset = randomized_set(model, num_classes=5)
        x = np.random.default_rng(2).standard_normal((7, 8, model.embed_dim))
        logits = forward(model, aset, x)
        assert logits.shape == (7, 5)
        assert np.all(np.isfinite(logits))

    def test_signature_mismatch(self, model):
        other = TinyModel(seed=99)
        aset = randomized_set(other)
        x = np.zeros((1, 8, model.embed_dim))
        with pytest.raises(ModelError):
            forward(model, aset, x)
        own = randomized_set(model)
        headless = AdapterSet(signature=own.signature, adapters=own.adapters)
        with pytest.raises(ModelError, match="has no head and none was supplied"):
            forward(model, headless, x)
        with pytest.raises(ModelError, match=r"batch shape \(1, 8, 5\) incompatible"):
            forward(model, own, np.zeros((1, 8, 5)))

    def test_backbone_frozen(self, model):
        spec = TaskSpec(task_seed=5, num_classes=2, separation=10.0)
        before = [lw.Wq.tobytes() for lw in model.layers]
        train_adapter(model, spec, TrainConfig(seed=1, epochs=2))
        after = [lw.Wq.tobytes() for lw in model.layers]
        assert before == after


class TestLoss:
    def test_uniform_logits_ln_c(self, model):
        aset = randomized_set(model, num_classes=4)
        logits = np.zeros((6, 4))
        labels = np.arange(6) % 4
        ce = loss(logits, labels, aset, reg_weight=0.0)
        assert ce == pytest.approx(np.log(4), rel=1e-12)

    def test_canonical_adapters_zero_reg(self, model):
        aset = randomized_set(model).canonicalized()
        assert orthogonality_penalty(aset) == pytest.approx(0.0, abs=1e-14)

    def test_reg_matches_direct_expansion(self, model):
        aset = randomized_set(model)
        expected = 0.0
        for a in aset.adapters.values():
            r = a.rank
            gb = a.B.T @ a.B - np.eye(r)
            ga = a.A @ a.A.T - np.eye(r)
            expected += float((gb**2).sum() + (ga**2).sum())
        assert orthogonality_penalty(aset) == pytest.approx(expected, rel=1e-12)

    def test_reg_nonnegative(self, model):
        for seed in range(5):
            assert orthogonality_penalty(randomized_set(model, seed=seed)) >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(DataError, match=r"labels shape \(3,\) != \(2,\)"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))


def fd_gradient(fun, arr, eps=1e-5):
    out = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + eps
        fp = fun()
        arr[i] = orig - eps
        fm = fun()
        arr[i] = orig
        out[i] = (fp - fm) / (2 * eps)
    return out


def check_gradients(model, aset, x, y, reg_weight, rtol=1e-4):
    """Compare every trainable block against central differences."""
    value, grads = gradients(model, aset, x, y, reg_weight)

    def objective():
        logits = forward(model, aset, x)
        return loss(logits, y, aset, reg_weight)

    failures = []
    blocks = [(role if tid is None else f"{tid}.{role}", arr, analytic)
              for (role, tid, arr), (_, _, analytic) in zip(aset.tensors(), grads.tensors())]
    for name, arr, analytic in blocks:
        fd = fd_gradient(objective, arr)  # perturbs arr in place, then restores
        rel = np.linalg.norm(analytic - fd) / max(
            np.linalg.norm(analytic), np.linalg.norm(fd), 1e-300
        )
        if rel > rtol:
            failures.append((name, rel))
    return value, failures


class TestGradients:
    @pytest.mark.parametrize("instance_seed", [0, 1, 2])
    def test_finite_difference_agreement(self, model, instance_seed):
        aset = randomized_set(model, num_classes=3, seed=100 + instance_seed)
        spec = TaskSpec(task_seed=50 + instance_seed, num_classes=3)
        ds = generate_task(spec)
        x, y = ds.train[0][:6], ds.train[1][:6]
        _, failures = check_gradients(model, aset, x, y, reg_weight=0.1)
        assert not failures, f"blocks beyond tolerance: {failures}"

    @pytest.mark.parametrize("kept", [("layer1.V",), ("layer0.Q", "layer1.Q"),
                                      ("layer0.V",)])
    def test_finite_difference_agreement_partial_set(self, model, kept):
        # backward passes a slot without an adapter straight through its
        # frozen projection; every other test trains a full Q/V set
        full = randomized_set(model, num_classes=3, seed=103)
        aset = AdapterSet(signature=full.signature,
                          adapters={t: a for t, a in full.adapters.items() if str(t) in kept},
                          head_w=full.head_w, head_b=full.head_b, metadata={})
        assert sorted(map(str, aset.adapters)) == sorted(kept)
        ds = generate_task(TaskSpec(task_seed=53, num_classes=3))
        x, y = ds.train[0][:6], ds.train[1][:6]
        _, failures = check_gradients(model, aset, x, y, reg_weight=0.1)
        assert not failures, f"blocks beyond tolerance: {failures}"

    def test_finite_difference_agreement_mixed_ranks(self, model):
        # a set fine-tuned from a med-lego merge has a different rank on
        # each target; the penalty and backward read each target's own rank
        full = randomized_set(model, num_classes=3, seed=104)
        rng = np.random.default_rng(104)
        adapters = {t: SvdLoraAdapter(target=t,
                                      B=0.3 * rng.standard_normal((model.embed_dim, r)),
                                      E=rng.standard_normal(r),
                                      A=0.3 * rng.standard_normal((r, model.embed_dim)))
                    for t, r in zip(full.sorted_targets(), (1, 2, 4, 8))}
        aset = AdapterSet(signature=full.signature, adapters=adapters,
                          head_w=full.head_w, head_b=full.head_b, metadata={})
        assert [a.rank for a in aset.adapters.values()] == [1, 2, 4, 8]
        ds = generate_task(TaskSpec(task_seed=54, num_classes=3))
        x, y = ds.train[0][:6], ds.train[1][:6]
        _, failures = check_gradients(model, aset, x, y, reg_weight=0.1)
        assert not failures, f"blocks beyond tolerance: {failures}"

    def test_zero_init_e_gradient_nonzero(self, model):
        cfg = TrainConfig(seed=4)
        aset = init_adapter_set(model, 3, cfg)
        ds = generate_task(TaskSpec(task_seed=6, num_classes=3))
        _, grads = gradients(model, aset, ds.train[0][:16], ds.train[1][:16], 0.0)
        e_norm = sum(np.linalg.norm(g.E) for g in grads.adapters.values())
        assert e_norm > 0.0

    def test_blocks_are_views_into_flat(self, model):
        # the vector Adam steps is the gradient set's tensors, in tensors() order
        aset = randomized_set(model)
        ds = generate_task(TaskSpec(task_seed=6, num_classes=3))
        flat = np.zeros(flatten(aset).size)
        _, grads = gradients(model, aset, ds.train[0][:8], ds.train[1][:8], 0.1,
                             aset.on_flat(flat))
        blocks = [arr for _, _, arr in grads.tensors()]
        assert [b.shape for b in blocks] == [arr.shape for _, _, arr in aset.tensors()]
        assert np.array_equal(flat, flatten(grads))
        assert all(np.shares_memory(flat, b) for b in blocks)
        for size in (flat.size - 1, flat.size + 1):
            with pytest.raises(DimensionError,
                               match=f"flat vector has {size} elements, the set {flat.size}"):
                aset.on_flat(np.zeros(size))

    def test_reused_gradset_is_overwritten(self, model):
        # train_adapter writes every step into one gradient set; stale
        # values must not leak into the next step
        aset = randomized_set(model)
        ds = generate_task(TaskSpec(task_seed=6, num_classes=3))
        x, y = ds.train[0][:8], ds.train[1][:8]
        value, fresh = gradients(model, aset, x, y, 0.1)
        flat = np.zeros(flatten(aset).size)
        reused = aset.on_flat(flat)
        flat.fill(np.nan)
        value_again, out = gradients(model, aset, x, y, 0.1, reused)
        assert out is reused
        assert value_again == value
        assert np.array_equal(flat, flatten(fresh))

    def test_reg_gradient_zero_at_orthonormal_point(self, model):
        aset = randomized_set(model).canonicalized()
        for a in aset.adapters.values():
            r = a.rank
            gb = 4.0 * a.B @ (a.B.T @ a.B - np.eye(r))
            assert np.linalg.norm(gb) <= 1e-12


# A fresh interpreter imports svdlora.model, builds a 512-sample batch in
# place (so it frees no mapped chunk that would move glibc's thresholds),
# then prints the minor page faults of 100 batch-32 steps after 10 warm-ups.
_FAULT_PROBE = """
import resource
import numpy as np
from svdlora.model import TinyModel
from svdlora.train import TrainConfig, gradients, init_adapter_set
model = TinyModel(seed=3)
x = np.random.default_rng(0).standard_normal((512, 8, 32))
y = np.arange(512) % 2
aset = init_adapter_set(model, 2, TrainConfig())
def step(i):
    rows = slice(32 * (i % 16), 32 * (i % 16) + 32)
    gradients(model, aset, x[rows], y[rows], 0.1)
for i in range(10):
    step(i)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(100):
    step(i)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def step_faults(**env) -> int:
    src = str(Path(svdlora.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"} | env
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out)


class TestAllocator:
    def test_steps_reuse_the_heap(self):
        # glibc's default thresholds map each step's 256 KiB temporaries
        # afresh: ~53,500 faults over the 100 steps
        assert step_faults() < 100

    def test_environment_threshold_wins(self):
        # the same 128 KiB threshold as glibc's default, but fixed by the
        # environment, so importing svdlora.model leaves it and every step
        # maps its temporaries again
        assert step_faults(MALLOC_MMAP_THRESHOLD_="131072") > 10_000


@pytest.fixture(scope="module")
def easy_run(model):
    spec = TaskSpec(task_seed=5, num_classes=2, separation=10.0)
    cfg = TrainConfig(seed=1, epochs=20)
    return spec, cfg, train_adapter(model, spec, cfg)


class TestTraining:

    def test_easy_task_accuracy(self, easy_run):
        _, _, res = easy_run
        assert res.test_acc >= 0.9

    def test_determinism(self, model, easy_run):
        spec, cfg, res = easy_run
        res2 = train_adapter(model, spec, cfg)
        assert res.train_losses == res2.train_losses
        assert res.val_accs == res2.val_accs
        assert res.adapter_set.digest() == res2.adapter_set.digest()

    def test_orthogonality_improves_under_reg(self, model, monkeypatch):
        # with reg_weight=0.1 the raw (pre-canonicalization) factors end up
        # closer to orthonormal than at the first step
        penalties = []

        def recording(adapters, grads=None, reg_weight=0.0):
            penalties.append(orthogonality_penalty(adapters, grads, reg_weight))
            return penalties[-1]

        monkeypatch.setattr(train, "orthogonality_penalty", recording)
        spec = TaskSpec(task_seed=9, num_classes=4, components=2)
        train_adapter(model, spec, TrainConfig(seed=2, epochs=30))
        assert penalties[-1] < penalties[0]

    def test_result_curve_lengths(self, easy_run):
        _, cfg, res = easy_run
        assert len(res.train_losses) == cfg.epochs
        assert len(res.val_accs) == cfg.epochs

    def test_best_checkpoint_protocol(self, model, easy_run):
        spec, cfg, res = easy_run
        assert res.val_accs[res.best_epoch] == max(res.val_accs)
        # recorded test accuracy reproduces when evaluating the checkpoint
        ds = generate_task(spec)
        acc = evaluate(model, res.adapter_set, ds.test)
        assert acc == pytest.approx(res.test_acc, abs=1e-12)


class TestEvaluate:
    def test_zero_head_predicts_class_zero(self, model):
        aset = init_adapter_set(model, 2, TrainConfig(seed=0))
        zero_head = AdapterSet(signature=aset.signature, adapters=aset.adapters,
                               head_w=np.zeros_like(aset.head_w),
                               head_b=np.zeros(2), metadata={})
        ds = generate_task(TaskSpec(task_seed=3, num_classes=2))
        acc = evaluate(model, zero_head, ds.test)
        assert acc == pytest.approx(np.mean(ds.test[1] == 0))

    def test_perfect_logits(self):
        logits = np.eye(4)[np.array([0, 1, 2, 3])] * 10.0
        preds = np.argmax(logits, axis=1)
        assert np.mean(preds == np.array([0, 1, 2, 3])) == 1.0

    def test_empty_split(self, model):
        aset = init_adapter_set(model, 2, TrainConfig(seed=0))
        with pytest.raises(DataError):
            evaluate(model, aset, (np.zeros((0, 8, 32)), np.zeros(0, dtype=int)))

    @pytest.mark.parametrize("n, classes, own_head", [
        (200, 3, True),   # not a multiple of the chunk
        (1, 3, True),
        (200, 5, False),  # explicit head with its own class count
    ])
    def test_chunked_matches_single_pass(self, model, n, classes, own_head):
        aset = randomized_set(model, num_classes=3, seed=11)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 8, model.embed_dim))
        head = None if own_head else (rng.standard_normal((model.embed_dim, classes)),
                                      rng.standard_normal(classes))
        preds = np.argmax(forward(model, aset, x, head=head), axis=1)
        y = preds.copy()
        y[1::3] = (y[1::3] + 1) % classes  # a known set of misses
        assert evaluate(model, aset, (x, y), head=head) == np.mean(preds == y)


class TestFinetune:
    def test_curve_length_equals_epochs(self, model):
        spec = TaskSpec(task_seed=5, num_classes=2, separation=10.0)
        cfg = TrainConfig(seed=1, epochs=7)
        res = train_adapter(model, spec, cfg)
        assert len(res.val_accs) == 7

    def test_init_unchanged_and_runs_repeat(self, model):
        merged = randomized_set(model, seed=8)
        before = [a.copy() for _, _, a in merged.tensors()]
        spec = TaskSpec(task_seed=5, num_classes=2, separation=10.0)
        cfg = TrainConfig(seed=1, epochs=3)
        runs = [train_adapter(model, spec, cfg, init=merged) for _ in range(2)]
        assert all(np.array_equal(x, y) for x, (_, _, y) in zip(before, merged.tensors()))
        assert runs[0].train_losses == runs[1].train_losses
        assert runs[0].val_accs == runs[1].val_accs
        assert runs[0].adapter_set.digest() == runs[1].adapter_set.digest()

    def test_init_from_another_backbone_rejected(self, model):
        # forward refuses such a set; fine-tuning from it must not re-sign it
        foreign = randomized_set(TinyModel(seed=8), seed=8)
        spec = TaskSpec(task_seed=5, num_classes=2, separation=10.0)
        with pytest.raises(ModelError, match="signature"):
            train_adapter(model, spec, TrainConfig(seed=1, epochs=1), init=foreign)

    def test_checkpoint_is_a_snapshot(self, model):
        # the returned set is the best epoch's, not the last one's: a rerun
        # stopped at the best epoch ends on the same tensors
        spec = TaskSpec(task_seed=5, num_classes=2, separation=10.0)
        res = train_adapter(model, spec, TrainConfig(seed=1, epochs=6))
        assert res.best_epoch < 5
        rerun = train_adapter(model, spec, TrainConfig(seed=1, epochs=res.best_epoch + 1))
        assert all(np.array_equal(x, y) for (_, _, x), (_, _, y) in
                   zip(res.adapter_set.tensors(), rerun.adapter_set.tensors()))

    def test_test_split_evaluated_once(self, model, monkeypatch):
        # validate-then-test: the test split is scored once per training, on
        # the best checkpoint, however often validation accuracy improves
        spec = TaskSpec(task_seed=5, num_classes=2, separation=1.0)
        dataset = generate_task(spec)
        calls = []

        def spy(model_, adapters, split, head=None):
            calls.append("test" if split is dataset.test else "val")
            return evaluate(model_, adapters, split, head=head)

        monkeypatch.setattr(train, "evaluate", spy)
        res = train_adapter(model, spec, TrainConfig(seed=1, epochs=6), dataset=dataset)
        improvements = sum(acc > max(res.val_accs[:i], default=-1.0)
                           for i, acc in enumerate(res.val_accs))
        assert improvements > 1
        assert calls.count("test") == 1
        assert calls.count("val") == 6
        monkeypatch.undo()
        rerun = train_adapter(model, spec, TrainConfig(seed=1, epochs=res.best_epoch + 1),
                              dataset=dataset)
        assert rerun.test_acc == res.test_acc

    def test_epochs_to_accuracy(self):
        assert epochs_to_accuracy([0.5, 0.7, 0.85, 0.9], 0.8) == 3
        assert epochs_to_accuracy([0.5, 0.6], 0.8) == 3


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(rank=0)
        with pytest.raises(ParameterError, match="regularizer weight must be non-negative"):
            TrainConfig(reg_weight=-0.1)
        for field in ("learning_rate", "reg_weight"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ParameterError, match=f"{field} must be finite"):
                    TrainConfig(**{field: value})

    def test_recipe_constants_are_not_fields(self):
        for name in ("batch_size", "init_std", "beta1", "beta2", "adam_eps"):
            with pytest.raises(TypeError):
                TrainConfig(**{name: getattr(TrainConfig, name)})

    def test_digest_matches_the_ten_field_recipe(self):
        # the text the recipe hashed when all ten values were fields
        assert TrainConfig().digest() == "89f12c2391f77731"
        assert TrainConfig(seed=1).digest() == "d71a39a770bb7560"

    @pytest.mark.parametrize("build", [
        lambda: TrainConfig(seed=-1),
        lambda: TaskSpec(task_seed=-1),
        lambda: TaskSpec(task_seed=1, family_seed=-1),
        lambda: TinyModel(seed=-1),
    ], ids=["train-config", "task-seed", "family-seed", "tiny-model"])
    def test_negative_seed_rejected(self, build):
        with pytest.raises(ParameterError, match="non-negative"):
            build()

    def test_negative_embed_dim_rejected(self):
        # the signature's check runs before any weight of that shape is drawn
        with pytest.raises(ParameterError, match="must be positive"):
            TinyModel(embed_dim=-3)

    def test_digest_stable(self):
        assert TrainConfig(seed=1).digest() == TrainConfig(seed=1).digest()
        assert TrainConfig(seed=1).digest() != TrainConfig(seed=2).digest()
