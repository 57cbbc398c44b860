import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svdlora import linalg
from svdlora.adapter import svd_factors
from svdlora.errors import NumericError, ParameterError


class TestFrobenius:
    def test_zero(self):
        assert linalg.frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert linalg.frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_extended_precision_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((9, 5))
        # oracle at extended precision via math.fsum of squares
        import math
        expected = math.sqrt(math.fsum(float(v) ** 2 for v in m.ravel()))
        assert linalg.frobenius_norm(m) == pytest.approx(expected, rel=1e-14)


class TestSvd:
    def test_zero_matrix(self):
        f = linalg.svd(np.zeros((4, 3)))
        assert np.array_equal(f.S, [0.0, 0.0, 0.0])
        f.validate()

    def test_signed_diagonal(self):
        m = np.diag([3.0, -2.0, 0.5, -7.0])
        f = linalg.svd(m)
        assert np.array_equal(f.S, [7.0, 3.0, 2.0, 0.5])
        assert np.array_equal(np.abs(f.V), np.eye(4)[:, [3, 0, 1, 2]])
        np.testing.assert_allclose(f.reconstruct(), m, atol=1e-12)

    def test_matches_gram_eigendecomposition(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((8, 6))
        f = linalg.svd(m)
        evals = np.linalg.eigh(m.T @ m)[0][::-1]
        np.testing.assert_allclose(f.S, np.sqrt(np.maximum(evals, 0.0)), rtol=1e-8)

    def test_thin_rank(self):
        f = linalg.svd(np.random.default_rng(1).standard_normal((10, 4)))
        assert f.rank == 4
        assert f.U.shape == (10, 4)
        assert f.V.shape == (4, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            linalg.svd(np.array([[np.inf, 1.0]]))

    def test_ill_conditioned_reconstruction(self):
        rng = np.random.default_rng(3)
        for exponent in (6, 12):  # condition numbers 1e6 and 1e12
            u, _ = np.linalg.qr(rng.standard_normal((40, 40)))
            v, _ = np.linalg.qr(rng.standard_normal((40, 40)))
            s = np.logspace(0, -exponent, 40)
            m = (u * s) @ v.T
            f = linalg.svd(m)
            err = np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m)
            assert err <= 1e-9
            f.validate()

    def test_converges_in_few_sweeps(self, monkeypatch):
        # Jacobi only polishes the Gram-eigenvector start; from the identity,
        # these cores take 11-12 sweeps
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 3)
        rng = np.random.default_rng(29)
        d, r, n = 128, 4, 7
        b = np.hstack([rng.standard_normal((d, r)) for _ in range(n)])
        e = rng.standard_normal(n * r) / n
        a = np.vstack([rng.standard_normal((r, d)) for _ in range(n)])
        f = svd_factors(b, e, a)
        dense = (b * e) @ a
        assert np.linalg.norm(f.reconstruct() - dense) <= 1e-12 * np.linalg.norm(dense)
        m = rng.standard_normal((28, 28))
        f = linalg.svd(m)
        assert np.linalg.norm(f.reconstruct() - m) <= 1e-12 * np.linalg.norm(m)
        f.validate()


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 16))
    cols = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return scale * np.random.default_rng(seed).standard_normal((rows, cols))


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_svd_round_trip(m):
    f = linalg.svd(m)
    err = np.linalg.norm(f.reconstruct() - m)
    assert err <= 1e-9 * max(1.0, np.linalg.norm(m))


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_svd_orthonormality_and_ordering(m):
    f = linalg.svd(m)
    k = f.rank
    assert np.linalg.norm(f.U.T @ f.U - np.eye(k)) <= 1e-9
    assert np.linalg.norm(f.V.T @ f.V - np.eye(k)) <= 1e-9
    assert np.all(f.S >= 0)
    assert np.all(np.diff(f.S) <= 0)


@settings(max_examples=25, deadline=None)
@given(small_matrices())
def test_svd_transpose_invariance(m):
    s1 = linalg.svd(m).S
    s2 = linalg.svd(m.T).S
    np.testing.assert_allclose(s1, s2, atol=1e-9 * max(1.0, float(s1[0])))


class TestTruncate:
    def _factors(self, s):
        k = len(s)
        return linalg.SvdFactors(U=np.eye(k), S=np.asarray(s, dtype=float),
                                 V=np.eye(k))

    def test_mass_already_reached_at_one(self):
        # 10 / 10.02 = 0.998004 >= 0.997, so a single component suffices
        out = linalg.truncate(self._factors([10.0, 0.01, 0.01]), 0.997)
        assert out.rank == 1

    def test_full_mass_needs_all(self):
        assert linalg.truncate(self._factors([1.0, 1.0, 1.0, 1.0]), 1.0).rank == 4

    def test_half_mass(self):
        assert linalg.truncate(self._factors([5.0, 3.0]), 0.5).rank == 1

    def test_zero_spectrum_keeps_one(self):
        out = linalg.truncate(self._factors([0.0, 0.0]), 0.997)
        assert out.rank == 1
        assert out.S[0] == 0.0

    def test_max_rank_cap(self):
        assert linalg.truncate(self._factors([1.0, 1.0, 1.0]), 1.0, max_rank=2).rank == 2

    @pytest.mark.parametrize("v", [0.0, -0.1, 1.0001])
    def test_threshold_domain(self, v):
        with pytest.raises(ParameterError):
            linalg.truncate(self._factors([1.0]), v)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12),
           st.floats(0.01, 1.0))
    def test_repeated_truncation_monotone(self, values, v):
        # Mass-fraction truncation is not idempotent in general (dropping
        # tail mass shrinks the denominator), but it never grows the rank,
        # and a cut that dropped no mass is a fixed point.
        s = np.sort(np.asarray(values))[::-1]
        f = linalg.SvdFactors(U=np.eye(len(s)), S=s, V=np.eye(len(s)))
        once = linalg.truncate(f, v)
        twice = linalg.truncate(once, v)
        assert twice.rank <= once.rank
        if np.sum(once.S) == np.sum(s):
            assert twice.rank == once.rank
