import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from svdlora import merge as mg
from svdlora.adapter import (AdapterSet, ModelSignature, SvdLoraAdapter,
                             TargetId, canonicalize, delta, init_adapter,
                             svd_factors)
from svdlora.errors import MergeError, ParameterError
from svdlora.linalg import SvdFactors

from conftest import validate_svd


def random_adapter(seed, d=8, r=4, target=TargetId(0, "Q")):
    rng = np.random.default_rng(seed)
    return SvdLoraAdapter(
        target=target,
        B=rng.standard_normal((d, r)),
        E=rng.standard_normal(r),
        A=rng.standard_normal((r, d)),
    )


def make_set(seed, sig=None, d=8, layers=1):
    sig = sig or ModelSignature(d, layers, "sig")
    adapters = {}
    for layer in range(layers):
        for i, slot in enumerate(("Q", "V")):
            t = TargetId(layer, slot)
            adapters[t] = random_adapter(seed * 100 + layer * 10 + i, d=d, target=t)
    return AdapterSet(signature=sig, adapters=adapters)


class TestMergeTarget:
    def test_identical_inputs_preserved(self):
        a = canonicalize(random_adapter(1))
        merged, rec = mg.merge_target([a, a, a], mg.MergeConfig())
        err = np.linalg.norm(delta(merged) - delta(a))
        assert err <= 1e-9 * max(1.0, np.linalg.norm(delta(a)))
        assert rec.retained_mass >= 0.997

    def test_orthogonal_rank_one_pair_full_mass(self):
        # two rank-1 adapters along orthogonal directions, equal value s:
        # the average has both singular values s/2
        s = 3.0
        e0 = np.eye(6)[:, :1]
        e1 = np.eye(6)[:, 1:2]
        a0 = SvdLoraAdapter(target=TargetId(0, "Q"), B=e0, E=np.array([s]), A=e0.T)
        a1 = SvdLoraAdapter(target=TargetId(0, "Q"), B=e1, E=np.array([s]), A=e1.T)
        merged, rec = mg.merge_target([a0, a1], mg.MergeConfig(threshold_v=1.0))
        assert merged.rank == 2
        np.testing.assert_allclose(merged.E, [s / 2, s / 2], atol=1e-12)
        # at v=0.5, the first component alone reaches half the mass
        merged_half, _ = mg.merge_target([a0, a1], mg.MergeConfig(threshold_v=0.5))
        assert merged_half.rank == 1

    def test_different_ranks_fuse(self):
        a = random_adapter(1, r=2)
        b = random_adapter(2, r=5)
        merged, rec = mg.merge_target([a, b], mg.MergeConfig(threshold_v=1.0))
        avg = (delta(a) + delta(b)) / 2
        np.testing.assert_allclose(delta(merged), avg, atol=1e-9)
        assert rec.input_ranks == (2, 5)

    def test_shape_mismatch(self):
        with pytest.raises(MergeError):
            mg.merge_target([random_adapter(1, d=8), random_adapter(2, d=6)],
                            mg.MergeConfig())

    def test_empty_list(self):
        with pytest.raises(ParameterError):
            mg.merge_target([], mg.MergeConfig())

    def test_retained_mass_bound(self):
        adapters = [random_adapter(i) for i in range(4)]
        for v in (0.5, 0.9, 0.997, 1.0):
            _, rec = mg.merge_target(adapters, mg.MergeConfig(threshold_v=v))
            assert rec.retained_mass >= v - 1e-12

    def test_rank_bound(self):
        adapters = [random_adapter(i, r=2) for i in range(3)]
        merged, _ = mg.merge_target(adapters, mg.MergeConfig(threshold_v=1.0))
        assert merged.rank <= min(6, 8)

    @pytest.mark.parametrize("ranks,shape", [
        ((1, 2), (8, 8)),        # sum of ranks 3 < d: exact zeros past it
        ((4, 1, 3, 2), (8, 8)),  # sum of ranks 10 > d, unequal ranks
        ((3, 3, 3), (5, 9)),     # sum of ranks 9 > min(d_m, d_n) = 5
        ((2, 2), (8, 8)),        # equal ranks summing below d
    ])
    def test_report_spectrum_matches_lapack(self, ranks, shape):
        # Every method reports its merged delta's spectrum before any cut;
        # pre-avg needs equal ranks, so only the equal-rank cases check it.
        rng = np.random.default_rng(len(ranks))
        adapters = [SvdLoraAdapter(target=TargetId(0, "Q"),
                                   B=rng.standard_normal((shape[0], r)),
                                   E=rng.standard_normal(r),
                                   A=rng.standard_normal((r, shape[1])))
                    for r in ranks]
        mean = sum(delta(a) for a in adapters) / len(adapters)
        references = {mg.MergeMethod.MED_LEGO: (mean, sum(ranks)),
                      mg.MergeMethod.TASK_ARITHMETIC: (mean, sum(ranks))}
        if len(set(ranks)) == 1:
            references[mg.MergeMethod.PRE_MERGE_AVERAGE] = (
                delta(mg.baseline_pre_merge(adapters)), ranks[0])
        for method, (want, width) in references.items():
            merged, rec = mg.merge_target(adapters, mg.MergeConfig(method=method))
            sigma = np.linalg.svd(want, compute_uv=False)
            spec = np.asarray(rec.spectrum)
            assert spec.shape == (min(shape),), method
            assert np.all(spec[width:] == 0.0), method
            np.testing.assert_allclose(spec, sigma, rtol=0, atol=1e-10 * sigma[0])
            assert rec.kept_rank == merged.rank, method
            if method is not mg.MergeMethod.PRE_MERGE_AVERAGE:
                np.testing.assert_allclose(merged.E, sigma[:rec.kept_rank],
                                           rtol=0, atol=1e-10 * sigma[0])

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError, match="unknown merge method"):
            mg.merge_target([random_adapter(1)], mg.MergeConfig(method="med-lego"))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.floats(1e-3, 1e3))
    def test_scaling_homogeneity(self, seed, c):
        adapters = [random_adapter(seed + i) for i in range(3)]
        scaled = [
            SvdLoraAdapter(target=a.target, B=a.B, E=c * a.E, A=a.A)
            for a in adapters
        ]
        cfg = mg.MergeConfig(threshold_v=0.9)
        m1, r1 = mg.merge_target(adapters, cfg)
        m2, r2 = mg.merge_target(scaled, cfg)
        assert r1.kept_rank == r2.kept_rank
        np.testing.assert_allclose(m2.E, c * m1.E, rtol=1e-8)


class TestMergeSets:
    def test_self_merge_preserves_deltas(self):
        s = make_set(3)
        merged, report = mg.merge_sets([s], mg.MergeConfig())
        for t, a in s.adapters.items():
            ref = delta(a)
            err = np.linalg.norm(delta(merged.adapters[t]) - ref)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(ref))
        assert merged.head_w is None
        assert len(report.records) == len(s.adapters)

    def test_permutation_invariance(self):
        sets = [make_set(i) for i in range(3)]
        m1, _ = mg.merge_sets(sets, mg.MergeConfig())
        m2, _ = mg.merge_sets(sets[::-1], mg.MergeConfig())
        for t in m1.adapters:
            d1, d2 = delta(m1.adapters[t]), delta(m2.adapters[t])
            assert np.linalg.norm(d1 - d2) <= 1e-12 * max(1.0, np.linalg.norm(d1))

    def test_signature_mismatch(self):
        s1 = make_set(1, sig=ModelSignature(8, 1, "a"))
        s2 = make_set(2, sig=ModelSignature(8, 1, "b"))
        with pytest.raises(MergeError, match="signature"):
            mg.merge_sets([s1, s2], mg.MergeConfig())

    def test_target_coverage_mismatch(self):
        s1 = make_set(1)
        s2 = make_set(2)
        s2.adapters.pop(TargetId(0, "V"))
        with pytest.raises(MergeError, match="layer0.V"):
            mg.merge_sets([s1, s2], mg.MergeConfig())

    @pytest.mark.parametrize("method, lam", [
        (mg.MergeMethod.MED_LEGO, None),
        (mg.MergeMethod.TASK_ARITHMETIC, None),
        (mg.MergeMethod.TASK_ARITHMETIC, 0.5),
        (mg.MergeMethod.PRE_MERGE_AVERAGE, None),
    ], ids=["med-lego", "task-arith", "task-arith-0.5", "pre-avg"])
    def test_honours_method(self, method, lam):
        sets = [make_set(i) for i in range(3)]
        cfg = mg.MergeConfig(method=method, lam=lam)
        out, report = mg.merge_sets(sets, cfg)
        assert out.metadata["method"] == method.value
        assert report.config == cfg
        for t, a in out.adapters.items():
            inputs = [s.adapters[t] for s in sets]
            if method is mg.MergeMethod.MED_LEGO:
                want = delta(mg.merge_target(inputs, cfg)[0])
            elif method is mg.MergeMethod.TASK_ARITHMETIC:
                want = (1 / len(sets) if lam is None else lam) * sum(map(delta, inputs))
            else:
                want = delta(mg.baseline_pre_merge(inputs))
            assert np.linalg.norm(delta(a) - want) <= 1e-12 * np.linalg.norm(want)

    def test_report_records_sorted_by_target(self):
        sets = [make_set(i, layers=2) for i in range(2)]
        _, report = mg.merge_sets(sets, mg.MergeConfig())
        targets = [r.target for r in report.records]
        assert targets == sorted(targets)


class TestPreMergeBaseline:
    def test_identical_inputs(self):
        a = random_adapter(5)
        out = mg.baseline_pre_merge([a, a])
        np.testing.assert_allclose(delta(out), delta(a), atol=1e-12)

    def test_component_average(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((8, 2))
        a_mat = rng.standard_normal((2, 8))
        a1 = SvdLoraAdapter(target=TargetId(0, "Q"), B=b, E=np.array([1.0, 0.0]), A=a_mat)
        a2 = SvdLoraAdapter(target=TargetId(0, "Q"), B=b, E=np.array([0.0, 1.0]), A=a_mat)
        out = mg.baseline_pre_merge([a1, a2])
        np.testing.assert_allclose(out.E, [0.5, 0.5])

    def test_rank_mismatch_rejected(self):
        with pytest.raises(MergeError, match="rank"):
            mg.baseline_pre_merge([random_adapter(1, r=2), random_adapter(2, r=3)])


class TestTaskArithmetic:
    def test_identity_at_inverse_count(self):
        sets = [make_set(4)] * 3
        out = mg.baseline_task_arithmetic(sets, lam=None)
        for t, a in sets[0].adapters.items():
            np.testing.assert_allclose(delta(out.adapters[t]), delta(a), atol=1e-12)

    def test_zero_lambda(self):
        out = mg.baseline_task_arithmetic([make_set(1)], lam=0.0)
        assert all(np.array_equal(delta(a), np.zeros(a.shape))
                   for a in out.adapters.values())

    def test_matches_pre_truncation_average(self):
        sets = [make_set(1), make_set(2)]
        out = mg.baseline_task_arithmetic(sets, lam=0.5)
        for t, a in out.adapters.items():
            avg = (delta(sets[0].adapters[t]) + delta(sets[1].adapters[t])) / 2
            assert np.linalg.norm(delta(a) - avg) <= 1e-12 * np.linalg.norm(avg)

    @pytest.mark.parametrize("lam", [0.25, 1.0, -2.0])
    def test_canonical_low_rank_scaled_sum(self, lam):
        # three rank-4 sets at d=8: the stacked width 12 exceeds d
        sets = [make_set(i) for i in range(3)]
        out = mg.baseline_task_arithmetic(sets, lam=lam)
        assert out.head_w is None
        assert out.metadata["method"] == "task-arith"
        for t, a in out.adapters.items():
            want = lam * sum(delta(s.adapters[t]) for s in sets)
            validate_svd(SvdFactors(U=a.B, S=a.E, V=a.A.T), atol=1e-8)
            assert a.rank <= min(sum(s.adapters[t].rank for s in sets), *a.shape)
            assert np.linalg.norm(delta(a) - want) <= 1e-12 * np.linalg.norm(want)


class TestGap:
    def test_identical_zero(self):
        a = random_adapter(8)
        assert mg.premerge_postmerge_gap([a, a, a]) <= 1e-12

    def test_random_pair_strictly_positive(self):
        # frozen regression: gap for this seeded pair is well clear of zero
        pair = [random_adapter(100), random_adapter(101)]
        gap = mg.premerge_postmerge_gap(pair)
        avg = (delta(pair[0]) + delta(pair[1])) / 2
        assert gap > 0.01 * np.linalg.norm(avg)

    def test_shared_a_and_e_linear(self):
        rng = np.random.default_rng(2)
        a_mat = rng.standard_normal((3, 8))
        e = rng.standard_normal(3)
        a1 = SvdLoraAdapter(target=TargetId(0, "Q"),
                            B=rng.standard_normal((8, 3)), E=e, A=a_mat)
        a2 = SvdLoraAdapter(target=TargetId(0, "Q"),
                            B=rng.standard_normal((8, 3)), E=e, A=a_mat)
        assert mg.premerge_postmerge_gap([a1, a2]) <= 1e-12


class TestMergeConfig:
    def test_threshold_default(self):
        assert mg.MergeConfig().threshold_v == 0.997

    @pytest.mark.parametrize("v", [0.0, 1.5])
    def test_threshold_domain(self, v):
        with pytest.raises(ParameterError):
            mg.MergeConfig(threshold_v=v)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_lambda_domain(self, lam):
        with pytest.raises(ParameterError, match="lambda must be finite"):
            mg.MergeConfig(method=mg.MergeMethod.TASK_ARITHMETIC, lam=lam)

    def test_lambda_only_with_task_arithmetic(self):
        for method in (mg.MergeMethod.MED_LEGO, mg.MergeMethod.PRE_MERGE_AVERAGE):
            with pytest.raises(ParameterError, match="lambda"):
                mg.MergeConfig(method=method, lam=2.0)
        assert mg.MergeConfig(method=mg.MergeMethod.TASK_ARITHMETIC, lam=2.0).lam == 2.0
        # the baselines cut nothing, so med-lego's cut settings are errors too
        for method in (mg.MergeMethod.TASK_ARITHMETIC, mg.MergeMethod.PRE_MERGE_AVERAGE):
            for cut in ({"threshold_v": 0.9}, {"max_rank": 1}):
                with pytest.raises(ParameterError, match="med-lego"):
                    mg.MergeConfig(method=method, **cut)
            assert mg.MergeConfig(method=method).max_rank is None
        assert mg.MergeConfig(threshold_v=0.9, max_rank=1).max_rank == 1


def _merge_with(method):
    cfg = mg.MergeConfig(method=mg.MergeMethod(method))
    return lambda adapters: mg.merge_target(adapters, cfg)


class TestNoDenseDelta:
    """Merging works on factors: no step allocates a d x d delta."""

    D = 768
    STEPS = {
        "med-lego": _merge_with("med-lego"),
        "task-arith": _merge_with("task-arith"),
        "pre-avg": _merge_with("pre-avg"),
        "canonicalize": lambda adapters: canonicalize(adapters[0]),
        "svd_factors": lambda adapters: svd_factors(adapters[0].B, adapters[0].E,
                                                    adapters[0].A),
        "delta": lambda adapters: delta(adapters[0]),  # the dense control
    }

    @pytest.fixture(scope="class")
    def inputs(self):
        return [canonicalize(random_adapter(seed, d=self.D)) for seed in range(7)]

    def _peak(self, step, inputs):
        # tracemalloc sees numpy's allocations but not LAPACK's own
        # workspace, which stays O(d * r) in a QR of a d x r factor
        tracemalloc.start()
        try:
            self.STEPS[step](inputs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("step", ["med-lego", "task-arith", "pre-avg",
                                      "canonicalize", "svd_factors"])
    def test_peak_below_one_delta(self, inputs, step):
        assert self._peak(step, inputs) < self.D * self.D * 8

    def test_dense_delta_is_seen(self, inputs):
        assert self._peak("delta", inputs) >= self.D * self.D * 8


class TestDenseOracle:
    """Merging and canonical form against LAPACK on the dense deltas, for
    d_m != d_n, input ranks summing past min(d_m, d_n), a zero component,
    re-factored twins (B·diag(g), E, diag(1/g)·A) of the same deltas, the
    inputs in a drawn order, a drawn lambda != 1/N, a drawn max_rank cap,
    and pre-avg of equal-rank inputs against their dense factor average."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12), st.integers(3, 12), st.integers(2, 4),
           st.integers(0, 2**32 - 1), st.data())
    def test_routes_match_lapack(self, d_m, d_n, n, seed, data):
        assume(d_m != d_n)
        width = min(d_m, d_n)
        ranks = [data.draw(st.integers(1, width - 1))]  # plus a zero component
        ranks += [data.draw(st.integers(1, width)) for _ in range(n - 1)]
        assume(sum(ranks) + 1 > width)
        order = data.draw(st.permutations(range(n)))
        lam = data.draw(st.floats(-4.0, 4.0).filter(
            lambda x: abs(x) >= 0.05 and abs(x - 1.0 / n) >= 0.05))
        cap = data.draw(st.integers(1, width))
        rng = np.random.default_rng(seed)

        def adapter(e):
            return SvdLoraAdapter(target=TargetId(0, "Q"), E=e,
                                  B=rng.standard_normal((d_m, len(e))),
                                  A=rng.standard_normal((len(e), d_n)))
        inputs, twins = [], []
        for i, r in enumerate(ranks):
            e = rng.standard_normal(r)
            a = adapter(np.append(e, 0.0) if i == 0 else e)
            g = rng.uniform(0.5, 2.0, len(a.E)) * rng.choice([-1.0, 1.0], len(a.E))
            inputs.append(a)
            twins.append(SvdLoraAdapter(target=a.target, B=a.B * g, E=a.E,
                                        A=a.A / g[:, None]))
            s_i = np.linalg.svd(delta(a), compute_uv=False)
            assume(np.all(-np.diff(s_i[:r + 1]) > 1e-6 * s_i[0]))

        mean = sum(delta(a) for a in inputs) / n
        u, s, vt = np.linalg.svd(mean, full_matrices=False)
        assume(np.all(np.abs(np.cumsum(s) / s.sum() - mg.DEFAULT_THRESHOLD) > 1e-9))
        k = next(j for j in range(1, width + 1)
                 if s[:j].sum() >= mg.DEFAULT_THRESHOLD * s.sum())  # brute force
        assume(k == width or s[k - 1] - s[k] > 1e-6 * s[0])
        kc = min(k, cap)
        assume(kc == width or s[kc - 1] - s[kc] > 1e-6 * s[0])

        arith = mg.MergeConfig(method=mg.MergeMethod.TASK_ARITHMETIC)
        scaled = mg.MergeConfig(method=mg.MergeMethod.TASK_ARITHMETIC, lam=lam)
        capped = mg.MergeConfig(max_rank=cap)
        s_lam = abs(lam) * n * s  # spectrum of lam * sum_i delta_i
        for family in (inputs, twins, [inputs[i] for i in order]):
            merged, rec = mg.merge_target(family, arith)
            assert np.abs(delta(merged) - mean).max() <= 1e-10 * s[0]
            assert np.abs(np.array(rec.spectrum) - s).max() <= 1e-10 * s[0]
            merged, rec = mg.merge_target(family, scaled)
            assert np.abs(delta(merged) - lam * n * mean).max() <= 1e-10 * s_lam[0]
            assert np.abs(np.array(rec.spectrum) - s_lam).max() <= 1e-10 * s_lam[0]
            for cfg, kept in ((mg.MergeConfig(), k), (capped, kc)):
                merged, rec = mg.merge_target(family, cfg)
                assert np.abs(np.array(rec.spectrum) - s).max() <= 1e-9 * s[0]
                assert merged.rank == rec.kept_rank == kept
                cut = (u[:, :kept] * s[:kept]) @ vt[:kept]
                assert np.abs(delta(merged) - cut).max() <= 1e-9 * s[0]
        for a, twin in zip(inputs, twins):
            x, y = canonicalize(a), canonicalize(twin)
            assert x.rank == y.rank
            for name in ("B", "E", "A"):
                np.testing.assert_allclose(getattr(x, name), getattr(y, name),
                                           rtol=0, atol=1e-8)

        # pre-avg needs equal ranks: the first input (zero component
        # included) and n - 1 fresh inputs of its rank
        same = [inputs[0]] + [adapter(rng.standard_normal(len(inputs[0].E)))
                              for _ in range(n - 1)]
        factor_mean = ((sum(a.B for a in same) / n) * (sum(a.E for a in same) / n)
                       @ (sum(a.A for a in same) / n))
        s_pre = np.linalg.svd(factor_mean, compute_uv=False)
        assume(s_pre[0] > 0)
        merged, rec = mg.merge_target(same, mg.MergeConfig(
            method=mg.MergeMethod.PRE_MERGE_AVERAGE))
        assert np.abs(delta(merged) - factor_mean).max() <= 1e-10 * s_pre[0]
        assert np.abs(np.array(rec.spectrum) - s_pre).max() <= 1e-10 * s_pre[0]
        assert merged.rank == rec.kept_rank == len(inputs[0].E)
