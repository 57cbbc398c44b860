"""Dense float64 matrix helpers and a self-contained thin SVD.

Matrices are plain 2-D C-contiguous ``numpy.float64`` arrays. The SVD is a
one-sided Jacobi iteration (rotations applied to columns until all column
pairs are orthogonal), which is simple, deterministic and accurate at the
small sizes this toolkit works with. It starts from the eigenvectors of the
Gram matrix, so the rotations only polish an already nearly orthogonal set of
columns. When every pair's rotation is tiny, all of them are applied at once
as one matrix product; a cluster of nearly equal singular values makes some
rotation large, and then a cyclic sweep of exact pairwise rotations runs
instead. No LAPACK SVD driver is used; the symmetric eigensolver supplies the
starting basis, and a QR completes U where a singular value is exactly zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NumericError, ParameterError

# Relative off-diagonal level below which a column pair counts as orthogonal.
_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 60
# Largest rotation tangent the simultaneous polish applies; the second-order
# term it skips is at most n * t**2 per entry.
_POLISH_MAX_TANGENT = 1e-8
_MAX_EXP = np.finfo(np.float64).maxexp  # finite doubles are below 2**_MAX_EXP


def as_matrix(a, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Coerce to a non-empty ``ndim``-D float64 array and reject non-finite
    entries: the one statement of what a factor, head or SVD input holds."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {m.shape}")
    if m.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise NumericError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD factors: ``M ~= U @ diag(S) @ V.T``.

    U is m-by-k with orthonormal columns, S is a length-k non-increasing
    non-negative vector, V is n-by-k with orthonormal columns.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and flat indices into an ``n``-by-``n``
    matrix of every column pair i < j, in row-major order (read-only,
    shared by every call for ``n``)."""
    ii, jj = np.triu_indices(n, 1)
    flat = ii * n + jj
    for idx in (ii, jj, flat):
        idx.flags.writeable = False
    return ii, jj, flat


def _relative_gram(gram: np.ndarray) -> np.ndarray:
    """``|g_ij| / (sqrt(g_ii) * sqrt(g_jj))`` for every column pair i < j of a
    Gram matrix, in :func:`_pairs` order; pairs with a zero column count as
    orthogonal. A Gram product ``w.T @ w`` is exactly symmetric, so these
    pairs hold every off-diagonal value."""
    ii, jj, flat = _pairs(len(gram))
    norms = np.sqrt(gram.diagonal())
    scale = norms.take(ii) * norms.take(jj)
    return np.divide(np.abs(gram.take(flat)), scale, out=np.zeros(len(flat)),
                     where=scale > 0)


def _rotation_tangent(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rutishauser tangent of the rotation that makes a column pair with
    squared norms ``a``, ``b`` and inner product ``g != 0`` orthogonal:
    |angle| <= pi/4, the choice under which cyclic Jacobi converges."""
    tau = (b - a) / (2.0 * g)
    return np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))


def _polish_rotation(gram: np.ndarray, rel: np.ndarray) -> np.ndarray | None:
    """``I + T`` applying every non-orthogonal pair's rotation at once to
    first order, or None when some tangent exceeds ``_POLISH_MAX_TANGENT``.

    ``T`` is antisymmetric with ``T[i, j] = t_ij`` for i < j, so
    ``work @ (I + T)`` moves column i by ``-t_ij * work[:, j]`` and column j by
    ``t_ij * work[:, i]``, as the pairwise rotation does up to ``O(t**2)``.
    """
    hot = rel > _JACOBI_TOL  # rel from _relative_gram(gram)
    ii, jj, flat = _pairs(len(gram))
    ii, jj, flat = ii[hot], jj[hot], flat[hot]
    diag = gram.diagonal()
    t = _rotation_tangent(diag.take(ii), diag.take(jj), gram.take(flat))
    if np.abs(t).max() > _POLISH_MAX_TANGENT:
        return None
    r = np.eye(len(gram))
    r[ii, jj] = t
    r[jj, ii] = -t
    return r


def _jacobi_sweep(work: np.ndarray, v: np.ndarray) -> None:
    """One cyclic sweep: the exact rotation of each non-orthogonal column
    pair of ``work``, in :func:`_pairs` order, applied to ``v`` alike."""
    for i, j in zip(*_pairs(work.shape[1])[:2]):
        cols = [i, j]
        pair = work[:, cols]
        gram = pair.T @ pair
        if _relative_gram(gram)[0] <= _JACOBI_TOL:
            continue
        t = _rotation_tangent(gram[0, 0], gram[1, 1], gram[0, 1])
        c = 1.0 / math.sqrt(1.0 + t * t)
        rot = np.array([[c, c * t], [-c * t, c]])
        work[:, cols] = pair @ rot
        v[:, cols] = v[:, cols] @ rot


def svd(m: np.ndarray) -> SvdFactors:
    """Thin SVD via one-sided Jacobi; k = min(rows, cols), zeros retained.

    Rotations are applied to the side with fewer columns; if the input has
    more columns than rows it is transposed first and U/V swapped back.
    Each step forms one Gram product and tests every column pair against the
    tolerance; steps run only while some pair fails it, so input with
    orthogonal columns (a diagonal matrix, canonical factors) needs no
    rotation. Otherwise the columns are first rotated by the eigenvectors of
    ``m.T @ m`` in descending order (``v = V0``, ``work = m @ V0``), and the
    steps then polish what the squared problem left inexact, which keeps
    Jacobi's accuracy on small singular values. All of this runs on the
    input scaled by a power of two to a largest entry in [0.5, 1), so the
    squares cannot overflow, and only components below ~1e-154 of the
    largest, far under its rounding error, underflow to zero; singular values
    too large for float64 raise NumericError. A step takes every failing
    pair's rotation tangent from the same Gram matrix. If all of them are at
    most ``_POLISH_MAX_TANGENT``, it applies them at once as ``I + T`` (the
    usual case: the warm start leaves tangents near 1e-10). Otherwise, as on
    nearly repeated singular values, it runs one cyclic sweep of exact
    pairwise rotations. Both kinds of step count toward
    ``_JACOBI_MAX_SWEEPS``.
    """
    m = as_matrix(m, "matrix")
    if m.shape[1] > m.shape[0]:
        f = svd(m.T)
        return SvdFactors(U=f.V, S=f.S, V=f.U)

    # The Gram products square the entries, so work on m / 2**exp, whose
    # largest entry lies in [0.5, 1); a power-of-two scale is exact.
    exp = math.frexp(np.abs(m).max())[1]
    m = np.ldexp(m, -exp)
    n = m.shape[1]
    gram = m.T @ m
    rel = _relative_gram(gram)
    residual = rel.max(initial=0.0)
    if residual <= _JACOBI_TOL:
        work, v = m, np.eye(n)  # no step will run, so work is only read
    else:
        v = np.linalg.eigh(gram)[1][:, ::-1].copy()
        work = m @ v
        gram = work.T @ work
        rel = _relative_gram(gram)
        residual = rel.max(initial=0.0)
    steps = 0
    while residual > _JACOBI_TOL:
        if steps == _JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi SVD did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
                f"(residual {residual:.3e})")
        r = _polish_rotation(gram, rel)
        if r is not None:
            work = work @ r
            v = v @ r
        else:
            _jacobi_sweep(work, v)
        steps += 1
        gram = work.T @ work
        rel = _relative_gram(gram)
        residual = rel.max(initial=0.0)

    norms = np.sqrt(np.einsum("ij,ij->j", work, work))
    if math.frexp(norms.max())[1] + exp > _MAX_EXP:
        raise NumericError("singular values overflow float64")
    order = (-norms).argsort(kind="stable")
    norms = norms[order]
    u = work[:, order]
    v = v[:, order]
    live = int(np.count_nonzero(norms))  # zero norms sort last
    u[:, :live] /= norms[:live]
    if live < n:
        # Complete U: the trailing columns of an orthogonal Q whose leading
        # columns span the live ones are orthogonal to them.
        q = np.linalg.qr(np.hstack([u[:, :live], np.eye(m.shape[0])]))[0]
        u[:, live:] = q[:, live:n]
    return SvdFactors(U=u, S=np.ldexp(norms, exp), V=v)


def check_cut(v: float) -> None:
    """ParameterError unless ``v`` lies in (0, 1]: the domain of
    :func:`kept_rank`'s cut."""
    if not (0.0 < v <= 1.0):
        raise ParameterError(f"threshold must lie in (0, 1], got {v}")


def kept_rank(s: np.ndarray, v: float) -> int:
    """The smallest leading k of the non-increasing spectrum ``s`` whose
    cumulative singular mass is at least ``v`` of the total.

    Mass is the plain sum of singular values (not squared). k is at least 1,
    and 1 for an all-zero spectrum.
    """
    check_cut(v)
    cum = np.cumsum(s)
    total = cum[-1] if len(cum) else 0.0
    if total <= 0.0:
        return 1
    return min(int(np.searchsorted(cum, v * total, side="left")) + 1, len(s))
