import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svdlora import linalg
from svdlora.adapter import svd_factors
from svdlora.errors import ConvergenceError, DimensionError, NumericError, ParameterError

from conftest import validate_svd


def stacked_core(rng, graded=False, d=128, r=4, n=7):
    """Factors of n stacked rank-r deltas at width d, scaled 1/n as a merge
    does; ``graded`` spectra fall tenfold per component, as trained ones do."""
    b = np.hstack([rng.standard_normal((d, r)) for _ in range(n)])
    if graded:
        e = np.tile(10.0 ** -np.arange(r), n) * rng.uniform(0.5, 2.0, n * r) / n
    else:
        e = rng.standard_normal(n * r) / n
    a = np.vstack([rng.standard_normal((r, d)) for _ in range(n)])
    return b, e, a


class TestSvd:
    def test_zero_matrix(self):
        f = linalg.svd(np.zeros((4, 3)))
        assert np.array_equal(f.S, [0.0, 0.0, 0.0])
        validate_svd(f)

    def test_zero_columns_complete_an_orthonormal_u(self):
        m = np.random.default_rng(5).standard_normal((6, 4))
        m[:, [1, 3]] = 0.0
        f = linalg.svd(m)
        assert np.all(f.S[:2] > 0) and np.array_equal(f.S[2:], [0.0, 0.0])
        validate_svd(f)
        np.testing.assert_allclose(f.reconstruct(), m, atol=1e-12)

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
        assert len(f.S) == 4
        assert f.U.shape == (10, 4)
        assert f.V.shape == (4, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            linalg.svd(np.array([[np.inf, 1.0]]))
        with pytest.raises(DimensionError, match=r"matrix must be 2-D, got shape \(3,\)"):
            linalg.svd(np.ones(3))
        with pytest.raises(DimensionError, match=r"must be non-empty, got shape \(0, 3\)"):
            linalg.svd(np.ones((0, 3)))

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e200, 1e300])
    def test_extreme_scales_match_lapack(self, scale):
        # the Gram product squares the entries: 1e300**2 overflows and
        # 1e-170**2 underflows unless the input is scaled first
        m = scale * np.random.default_rng(31).standard_normal((9, 5))
        f = linalg.svd(m)
        np.testing.assert_allclose(f.S, np.linalg.svd(m, compute_uv=False), rtol=1e-13)
        validate_svd(f)

    def test_tiny_diagonal_kept(self):
        assert np.array_equal(linalg.svd(np.diag([1e-170, 3e-200])).S, [1e-170, 3e-200])

    def test_overflowing_singular_value_rejected(self):
        # S[0] = 3e308 exceeds float64; the check runs before the scale is
        # put back, so no overflow warning is emitted
        with pytest.raises(NumericError, match="overflow"):
            linalg.svd(np.full((2, 2), 1.5e308))

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
            validate_svd(f)

    def test_converges_in_few_sweeps(self, monkeypatch):
        # Jacobi only polishes the Gram-eigenvector start; from the identity,
        # these cores take 11-12 sweeps
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 3)
        rng = np.random.default_rng(29)
        b, e, a = stacked_core(rng)
        f = svd_factors(b, e, a)
        dense = (b * e) @ a
        assert np.linalg.norm(f.reconstruct() - dense) <= 1e-12 * np.linalg.norm(dense)
        m = rng.standard_normal((28, 28))
        f = linalg.svd(m)
        assert np.linalg.norm(f.reconstruct() - m) <= 1e-12 * np.linalg.norm(m)
        validate_svd(f)

    def test_polish_without_sweep(self, monkeypatch):
        # the warm start leaves the small components of a graded merge core
        # inexact but every rotation tangent tiny, so one simultaneous
        # rotation converges and no sweep runs
        def no_sweep(*args):
            raise AssertionError("Jacobi sweep ran")
        monkeypatch.setattr(linalg, "_jacobi_sweep", no_sweep)
        b, e, a = stacked_core(np.random.default_rng(29), graded=True)
        f = svd_factors(b, e, a)
        expected = np.linalg.svd((b * e) @ a, compute_uv=False)[:len(e)]
        np.testing.assert_allclose(f.S, expected, rtol=1e-12, atol=0)
        validate_svd(f)

    @pytest.mark.parametrize("rows, cols, zero_cols", [
        (12, 12, 0), (30, 12, 0), (12, 30, 0), (30, 12, 2)],
        ids=["square", "tall", "wide", "tall-zero-columns"])
    def test_clustered_spectrum_falls_back_to_sweep(self, monkeypatch, rows, cols,
                                                    zero_cols):
        # the two smallest singular values are 1e-9 apart: the squared
        # problem cannot separate them, so their rotation is large; a wide
        # input takes the transpose path, and zero columns must stay exact
        sweeps = []
        sweep = linalg._jacobi_sweep
        monkeypatch.setattr(linalg, "_jacobi_sweep",
                            lambda *args: (sweeps.append(1), sweep(*args)))
        rng = np.random.default_rng(37)
        k = min(rows, cols)
        u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
        s = np.logspace(0, -3, k)
        s[-1] = s[-2] - 1e-9
        m = np.hstack([(u * s) @ v.T, np.zeros((rows, zero_cols))])
        f = linalg.svd(m)
        assert sweeps
        np.testing.assert_allclose(f.S, np.linalg.svd(m, compute_uv=False),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(f.reconstruct(), m, rtol=0, atol=1e-12)
        validate_svd(f)
        if zero_cols:
            assert np.count_nonzero(f.S == 0.0) == zero_cols

    def test_relative_gram_covers_every_pair(self):
        # the pairs i < j hold every off-diagonal value because numpy forms
        # w.T @ w exactly symmetric; checked against the full-matrix formula
        rng = np.random.default_rng(41)
        for n in (1, 2, 5, 28):
            w = rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-8, 0, n)
            w[:, n // 2] = 0.0  # a zero column counts as orthogonal
            gram = w.T @ w
            assert np.array_equal(gram, gram.T)
            norms = np.sqrt(np.diag(gram))
            scale = np.outer(norms, norms)
            full = np.divide(np.abs(gram), scale, out=np.zeros_like(gram), where=scale > 0)
            np.fill_diagonal(full, 0.0)
            ii, jj = np.triu_indices(n, 1)
            assert np.array_equal(linalg._relative_gram(gram), full[ii, jj])

    def test_polish_counts_toward_the_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 0)
        b, e, a = stacked_core(np.random.default_rng(29), graded=True)
        with pytest.raises(ConvergenceError):
            svd_factors(b, e, a)


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
    k = len(f.S)
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
    """The merge's truncation rule, :func:`linalg.kept_rank`, on bare spectra."""

    def test_mass_already_reached_at_one(self):
        # 10 / 10.02 = 0.998004 >= 0.997, so a single component suffices
        assert linalg.kept_rank(np.array([10.0, 0.01, 0.01]), 0.997) == 1

    def test_full_mass_needs_all(self):
        assert linalg.kept_rank(np.array([1.0, 1.0, 1.0, 1.0]), 1.0) == 4

    def test_half_mass(self):
        assert linalg.kept_rank(np.array([5.0, 3.0]), 0.5) == 1

    def test_zero_spectrum_keeps_one(self):
        assert linalg.kept_rank(np.array([0.0, 0.0]), 0.997) == 1

    @pytest.mark.parametrize("v", [0.0, -0.1, 1.0001])
    def test_threshold_domain(self, v):
        with pytest.raises(ParameterError):
            linalg.kept_rank(np.array([1.0]), v)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12),
           st.floats(0.01, 1.0))
    def test_repeated_truncation_monotone(self, values, v):
        # Mass-fraction truncation is not idempotent in general (dropping
        # tail mass shrinks the denominator), but it never grows the rank,
        # and a cut that dropped no mass is a fixed point.
        s = np.sort(np.asarray(values))[::-1]
        once = linalg.kept_rank(s, v)
        twice = linalg.kept_rank(s[:once], v)
        assert twice <= once
        if np.sum(s[:once]) == np.sum(s):
            assert twice == once
