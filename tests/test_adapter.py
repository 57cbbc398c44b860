import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svdlora import adapter as ad
from svdlora.errors import DimensionError, ModelError, NumericError, ParameterError
from svdlora.linalg import SvdFactors

from conftest import validate_svd


def naive_delta(a):
    """Triple product via explicit loops, the independent oracle."""
    d_m, r = a.B.shape
    d_n = a.A.shape[1]
    out = np.zeros((d_m, d_n))
    for i in range(d_m):
        for j in range(d_n):
            acc = 0.0
            for k in range(r):
                acc += a.B[i, k] * a.E[k] * a.A[k, j]
            out[i, j] = acc
    return out


def random_adapter(seed, d_m=8, d_n=8, r=3):
    rng = np.random.default_rng(seed)
    return ad.SvdLoraAdapter(
        target=ad.TargetId(0, "Q"),
        B=rng.standard_normal((d_m, r)),
        E=rng.standard_normal(r),
        A=rng.standard_normal((r, d_n)),
    )


class TestTargetId:
    def test_ordering(self):
        assert sorted([ad.TargetId(1, "Q"), ad.TargetId(0, "V"),
                       ad.TargetId(0, "Q")]) == [
            ad.TargetId(0, "Q"), ad.TargetId(0, "V"), ad.TargetId(1, "Q")]

    def test_round_trip_string(self):
        t = ad.TargetId(3, "V")
        assert ad.TargetId.parse(str(t)) == t

    def test_bad_slot(self):
        with pytest.raises(ParameterError):
            ad.TargetId(0, "K")


class TestInit:
    def test_e_zero(self):
        a = ad.init_adapter(8, 8, 4, seed=5)
        assert np.array_equal(a.E, np.zeros(4))

    def test_delta_zero(self):
        a = ad.init_adapter(10, 6, 4, seed=5)
        assert np.array_equal(ad.delta(a), np.zeros((10, 6)))

    def test_determinism(self):
        a = ad.init_adapter(8, 8, 4, seed=77)
        b = ad.init_adapter(8, 8, 4, seed=77)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.A, b.A)

    def test_rank_too_large(self):
        with pytest.raises(ParameterError):
            ad.init_adapter(4, 8, 5, seed=0)


class TestDelta:
    def test_rank_one_outer(self):
        a = ad.SvdLoraAdapter(
            target=ad.TargetId(0, "Q"),
            B=np.eye(4)[:, :1], E=np.array([5.0]), A=np.eye(4)[:1, :])
        d = ad.delta(a)
        assert d[0, 0] == 5.0 and np.count_nonzero(d) == 1

    def test_matches_triple_loop(self):
        a = random_adapter(3)
        np.testing.assert_allclose(ad.delta(a), naive_delta(a),
                                   rtol=1e-13, atol=1e-13)


class TestCanonicalize:
    def test_fixed_point(self):
        raw = random_adapter(9)
        canon = ad.canonicalize(raw)
        again = ad.canonicalize(canon)
        np.testing.assert_allclose(again.E, canon.E, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ad.delta(again), ad.delta(canon), atol=1e-12)

    def test_sign_absorbed(self):
        a = ad.SvdLoraAdapter(
            target=ad.TargetId(0, "Q"),
            B=np.eye(4)[:, :2], E=np.array([-2.0, 1.0]), A=np.eye(4)[:2, :])
        canon = ad.canonicalize(a)
        np.testing.assert_allclose(canon.E, [2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(ad.delta(canon), ad.delta(a), atol=1e-12)

    def test_trained_adapter_delta_preserved(self):
        a = random_adapter(12)
        canon = ad.canonicalize(a)
        validate_svd(SvdFactors(U=canon.B, S=canon.E, V=canon.A.T), atol=1e-8)
        ref = ad.delta(a)
        err = np.linalg.norm(ad.delta(canon) - ref)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(ref))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_delta_preserved_and_rank_monotone(self, seed, r):
        a = random_adapter(seed, d_m=9, d_n=7, r=r)
        canon = ad.canonicalize(a)
        assert canon.rank <= a.rank
        ref = ad.delta(a)
        err = np.linalg.norm(ad.delta(canon) - ref)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(ref))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 12),
           st.lists(st.integers(1, 6), min_size=1, max_size=5), st.booleans())
    @example(seed=0, d_m=4, d_n=6, ranks=[4, 4], zero_e=True)
    @example(seed=1, d_m=5, d_n=3, ranks=[2, 3, 1], zero_e=False)
    def test_spectrum_is_svd_factors_s(self, seed, d_m, d_n, ranks, zero_e):
        # stacks as merging builds them: the inner width may exceed min(d_m, d_n)
        rng = np.random.default_rng(seed)
        r = sum(ranks)
        b, a = rng.standard_normal((d_m, r)), rng.standard_normal((r, d_n))
        e = np.zeros(r) if zero_e else rng.standard_normal(r)
        s = ad.spectrum(b, e, a)
        expected = ad.svd_factors(b, e, a).S
        assert s.shape == expected.shape == (min(d_m, d_n, r),)
        assert s.tobytes() == expected.tobytes()

    @staticmethod
    def _same_factors(x, y):
        return all(np.allclose(p, q, rtol=0.0, atol=1e-9)
                   for p, q in ((x.B, y.B), (x.E, y.E), (x.A, y.A)))

    def test_canonical_factors_idempotent(self):
        for seed in range(50):
            canon = ad.canonicalize(random_adapter(seed, d_m=32, d_n=32, r=4))
            assert self._same_factors(ad.canonicalize(canon), canon), seed

    def test_canonical_factors_depend_on_delta_only(self):
        # the same delta, factored through LAPACK's SVD with rescaled and
        # sign-flipped columns, has the same canonical factors
        for seed in range(50):
            a = random_adapter(seed, d_m=32, d_n=32, r=4)
            u, s, vt = np.linalg.svd(ad.delta(a))
            rng = np.random.default_rng([seed, 1])
            sb = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 2.0, 4)
            sa = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 2.0, 4)
            other = ad.SvdLoraAdapter(target=a.target, B=u[:, :4] * sb,
                                      E=s[:4] / (sb * sa), A=vt[:4] * sa[:, None])
            assert self._same_factors(ad.canonicalize(other), ad.canonicalize(a)), seed

    def test_tiny_spectrum_kept(self):
        rng = np.random.default_rng(17)
        a = ad.SvdLoraAdapter(ad.TargetId(0, "Q"), rng.standard_normal((8, 2)),
                              np.array([1e-170, 1e-171]), rng.standard_normal((2, 8)))
        c = ad.canonicalize(a)
        assert c.rank == 2 and np.all(c.E > 0)
        np.testing.assert_allclose(ad.delta(c), ad.delta(a), rtol=0, atol=1e-182)

    def test_zero_adapter_keeps_rank_one(self):
        a = ad.init_adapter(6, 6, 3, seed=0)
        canon = ad.canonicalize(a)
        assert canon.rank == 1
        assert np.array_equal(ad.delta(canon), np.zeros((6, 6)))


def make_set(adapters=(), head_classes=None, embed_dim=8, layers=2):
    sig = ad.ModelSignature(embed_dim, layers, "cafe")
    head_w = head_b = None
    if head_classes:
        head_w = np.zeros((embed_dim, head_classes))
        head_b = np.zeros(head_classes)
    return ad.AdapterSet(signature=sig,
                         adapters={a.target: a for a in adapters},
                         head_w=head_w, head_b=head_b)


class TestParamCount:
    def test_vit_geometry(self):
        adapters = [
            ad.init_adapter(768, 768, 4, seed=i,
                            target=ad.TargetId(i // 2, "Q" if i % 2 == 0 else "V"))
            for i in range(24)
        ]
        sig = ad.ModelSignature(768, 12, "vit")
        s = ad.AdapterSet(signature=sig, adapters={a.target: a for a in adapters})
        count, fraction = ad.param_count(s, 86_000_000)
        assert count == 147_552
        assert 0.0015 <= fraction <= 0.0020

    def test_empty(self):
        count, fraction = ad.param_count(make_set(), 100)
        assert (count, fraction) == (0, 0.0)

    def test_single_adapter_formula(self):
        a = ad.init_adapter(8, 8, 2, seed=0)
        count, _ = ad.param_count(make_set([a]), 1000)
        assert count == 8 * 2 + 2 + 2 * 8

    def test_zero_base_rejected(self):
        with pytest.raises(ParameterError):
            ad.param_count(make_set(), 0)


class TestAdapterSet:
    def test_target_out_of_range(self):
        a = ad.init_adapter(8, 8, 2, seed=0, target=ad.TargetId(5, "Q"))
        with pytest.raises(ModelError):
            make_set([a], layers=2)

    @pytest.mark.parametrize("d_m, d_n", [(8, 8), (16, 8), (16, 12)])
    def test_adapter_shape_checked_against_signature(self, d_m, d_n):
        a = ad.init_adapter(d_m, d_n, 2, seed=0)
        with pytest.raises(DimensionError, match="layer0.Q has shape"):
            make_set([a], embed_dim=16)

    def test_head_shape_checked(self):
        sig = ad.ModelSignature(8, 2, "x")
        with pytest.raises(DimensionError):
            ad.AdapterSet(signature=sig, adapters={},
                          head_w=np.zeros((4, 3)), head_b=np.zeros(3))

    @pytest.mark.parametrize("role", ["B", "E", "A"])
    def test_non_finite_factor_named(self, role):
        a = random_adapter(0)
        factors = {"B": a.B, "E": a.E, "A": a.A}
        factors[role] = factors[role].copy()
        factors[role].flat[-1] = np.nan
        with pytest.raises(NumericError, match=f"tensor layer1.V.{role} contains non-finite"):
            ad.SvdLoraAdapter(target=ad.TargetId(1, "V"), **factors)

    @pytest.mark.parametrize("head_w, head_b, name", [
        (np.full((8, 2), np.inf), np.zeros(2), "head_w"),
        (np.zeros((8, 2)), np.array([0.0, np.inf]), "head_b"),
    ], ids=["head_w", "head_b"])
    def test_non_finite_head_named(self, head_w, head_b, name):
        with pytest.raises(NumericError, match=f"tensor {name} contains non-finite"):
            ad.AdapterSet(signature=ad.ModelSignature(8, 2, "x"), adapters={},
                          head_w=head_w, head_b=head_b)

    @pytest.mark.parametrize("embed_dim, num_layers", [(0, 1), (8, 0), (-5, 0)])
    def test_signature_range(self, embed_dim, num_layers):
        with pytest.raises(ParameterError, match="must be positive"):
            ad.ModelSignature(embed_dim, num_layers, "x")

    def test_digest_changes_with_content(self):
        s1 = make_set([random_adapter(1)])
        s2 = make_set([random_adapter(2)])
        assert s1.digest() != s2.digest()
        assert s1.digest() == make_set([random_adapter(1)]).digest()
