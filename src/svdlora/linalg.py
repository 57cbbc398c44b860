"""Dense float64 matrix helpers and a self-contained thin SVD.

Matrices are plain 2-D C-contiguous ``numpy.float64`` arrays. The SVD is a
one-sided Jacobi iteration (rotations applied to columns until all column
pairs are orthogonal), which is simple, deterministic and accurate at the
small sizes this toolkit works with. It starts from the eigenvectors of the
Gram matrix, so the rotations only polish an already nearly orthogonal set of
columns. When every pair's rotation is tiny, all of them are applied at once
as one matrix product; a cluster of nearly equal singular values makes some
rotation large, and then a round-robin sweep of pairwise rotations runs
instead. No LAPACK SVD driver is used; the symmetric eigensolver supplies the
starting basis, and a QR completes U where a singular value is exactly zero.
"""

from __future__ import annotations

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
    if not np.isfinite(m).all():
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

    @property
    def rank(self) -> int:
        return len(self.S)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def _round_robin_rounds(n: int):
    """Tournament pairing: every unordered column pair exactly once per sweep,
    as rounds of disjoint pairs so each round can be applied vectorized."""
    players = list(range(n))
    if n % 2 == 1:
        players.append(-1)
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = [
            (players[i], players[-1 - i])
            for i in range(half)
            if players[i] != -1 and players[-1 - i] != -1
        ]
        if pairs:
            rounds.append((np.array([p[0] for p in pairs], dtype=np.intp),
                           np.array([p[1] for p in pairs], dtype=np.intp)))
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def _relative_gram(gram: np.ndarray) -> np.ndarray:
    """``|g_ij| / sqrt(g_ii * g_jj)`` for every column pair i != j of a Gram
    matrix, zero on the diagonal; pairs with a zero column count as orthogonal."""
    norms = np.sqrt(np.diag(gram))
    scale = np.outer(norms, norms)
    rel = np.divide(np.abs(gram), scale, out=np.zeros_like(gram), where=scale > 0)
    np.fill_diagonal(rel, 0.0)
    return rel


def _rotation_tangent(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rutishauser tangent of the rotation that makes a column pair with
    squared norms ``a``, ``b`` and inner product ``g != 0`` orthogonal:
    |angle| <= pi/4, required for convergence under the parallel ordering."""
    tau = (b - a) / (2.0 * g)
    return np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))


def _polish_rotation(gram: np.ndarray, rel: np.ndarray) -> np.ndarray | None:
    """``I + T`` applying every non-orthogonal pair's rotation at once to
    first order, or None when some tangent exceeds ``_POLISH_MAX_TANGENT``.

    ``T`` is antisymmetric with ``T[i, j] = t_ij`` for i < j, so
    ``work @ (I + T)`` moves column i by ``-t_ij * work[:, j]`` and column j by
    ``t_ij * work[:, i]``, as the pairwise rotation does up to ``O(t**2)``.
    """
    ii, jj = np.nonzero(np.triu(rel > _JACOBI_TOL, 1))
    t = _rotation_tangent(gram[ii, ii], gram[jj, jj], gram[ii, jj])
    if np.max(np.abs(t)) > _POLISH_MAX_TANGENT:
        return None
    r = np.eye(len(gram))
    r[ii, jj] = t
    r[jj, ii] = -t
    return r


def _jacobi_sweep(work: np.ndarray, v: np.ndarray, rounds) -> None:
    """One round-robin sweep of rotations over every non-orthogonal column
    pair of ``work``, applied to ``v`` alike."""
    for idx_i, idx_j in rounds:
        ci = work[:, idx_i]
        cj = work[:, idx_j]
        a = np.einsum("ij,ij->j", ci, ci)
        b = np.einsum("ij,ij->j", cj, cj)
        g = np.einsum("ij,ij->j", ci, cj)
        scale = np.sqrt(a * b)
        rel = np.divide(np.abs(g), scale, out=np.zeros_like(g), where=scale > 0)
        hot = rel > _JACOBI_TOL
        if not np.any(hot):
            continue
        t = _rotation_tangent(a[hot], b[hot], g[hot])
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = c * t
        ii = idx_i[hot]
        jj = idx_j[hot]
        wi = work[:, ii]
        wj = work[:, jj]
        work[:, ii] = c * wi - s * wj
        work[:, jj] = s * wi + c * wj
        vi = v[:, ii]
        vj = v[:, jj]
        v[:, ii] = c * vi - s * vj
        v[:, jj] = s * vi + c * vj


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
    nearly repeated singular values, it runs one round-robin sweep of exact
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
    if rel.max() <= _JACOBI_TOL:
        work, v = m, np.eye(n)  # no step will run, so work is only read
    else:
        v = np.linalg.eigh(gram)[1][:, ::-1].copy()
        work = m @ v
        gram = work.T @ work
        rel = _relative_gram(gram)
    residual = float(rel.max())
    rounds = None
    steps = 0
    while residual > _JACOBI_TOL:
        if steps == _JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi SVD did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
                f"(residual {residual:.3e})",
                residual=residual,
            )
        r = _polish_rotation(gram, rel)
        if r is not None:
            work = work @ r
            v = v @ r
        else:
            if rounds is None:
                rounds = _round_robin_rounds(n)
            _jacobi_sweep(work, v, rounds)
        steps += 1
        gram = work.T @ work
        rel = _relative_gram(gram)
        residual = float(rel.max())

    norms = np.sqrt(np.einsum("ij,ij->j", work, work))
    if math.frexp(norms.max())[1] + exp > _MAX_EXP:
        raise NumericError("singular values overflow float64")
    order = np.argsort(-norms, kind="stable")
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


def check_cut(v: float, max_rank: int | None = None) -> None:
    """ParameterError unless ``v`` lies in (0, 1] and ``max_rank`` is None
    or positive: the domain of :func:`truncate`'s cut."""
    if not (0.0 < v <= 1.0):
        raise ParameterError(f"threshold must lie in (0, 1], got {v}")
    if max_rank is not None and max_rank < 1:
        raise ParameterError(f"max_rank must be positive, got {max_rank}")


def truncate(f: SvdFactors, v: float, max_rank: int | None = None) -> SvdFactors:
    """Keep the smallest leading k with cumulative singular mass >= v.

    Mass is the plain sum of singular values (not squared). k is capped by
    ``max_rank`` when given, and is at least 1; an all-zero spectrum keeps a
    single zero component.
    """
    check_cut(v, max_rank)
    cum = np.cumsum(f.S)
    total = cum[-1] if len(cum) else 0.0
    if total <= 0.0:
        k = 1
    else:
        k = int(np.searchsorted(cum, v * total, side="left")) + 1
        k = min(k, len(f.S))
    if max_rank is not None:
        k = min(k, max_rank)
    return SvdFactors(U=f.U[:, :k].copy(), S=f.S[:k].copy(), V=f.V[:, :k].copy())
