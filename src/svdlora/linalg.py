"""Dense float64 matrix helpers and a self-contained thin SVD.

Matrices are plain 2-D C-contiguous ``numpy.float64`` arrays. The SVD is a
one-sided Jacobi iteration (rotations applied to columns until all column
pairs are orthogonal), which is simple, deterministic and accurate at the
small sizes this toolkit works with. It starts from the eigenvectors of the
Gram matrix, so the rotations only polish an already nearly orthogonal set of
columns, usually in one sweep. No LAPACK SVD driver is used; the symmetric
eigensolver supplies the starting basis only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, NumericError, ParameterError

# Relative off-diagonal level below which a column pair counts as orthogonal.
_JACOBI_TOL = 1e-13
_JACOBI_MAX_SWEEPS = 60


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name} contains non-finite entries")
    return m


def frobenius_norm(m: np.ndarray) -> float:
    """sqrt of the sum of squared entries."""
    m = as_matrix(m, "matrix")
    return float(np.sqrt(np.sum(m * m)))


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

    def validate(self, atol: float = 1e-9) -> None:
        k = len(self.S)
        if self.U.shape[1] != k or self.V.shape[1] != k:
            raise DimensionError(
                f"inconsistent factor shapes {self.U.shape}, {len(self.S)}, {self.V.shape}"
            )
        if k > min(self.U.shape[0], self.V.shape[0]):
            raise DimensionError("rank exceeds min(m, n)")
        if np.any(self.S < 0) or np.any(np.diff(self.S) > 0):
            raise NumericError("singular values must be non-negative and non-increasing")
        for q, label in ((self.U, "U"), (self.V, "V")):
            dev = np.linalg.norm(q.T @ q - np.eye(k))
            if dev > atol:
                raise NumericError(f"{label} columns not orthonormal (deviation {dev:.3e})")


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


def _complete_orthonormal(u: np.ndarray, dead: np.ndarray) -> None:
    """Fill columns flagged in ``dead`` with unit vectors orthogonal to all
    other columns (Gram-Schmidt against the standard basis)."""
    m = u.shape[0]
    live = [j for j in range(u.shape[1]) if not dead[j]]
    basis = [u[:, j].copy() for j in live]
    fills = []
    cand = 0
    while len(fills) < int(dead.sum()):
        if cand >= m:  # cannot happen for k <= m, guarded anyway
            raise NumericError("failed to complete orthonormal basis")
        v = np.zeros(m)
        v[cand] = 1.0
        for b in basis:
            v -= (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 0.5:
            v /= nrm
            basis.append(v)
            fills.append(v)
        cand += 1
    for j, v in zip(np.flatnonzero(dead), fills):
        u[:, j] = v


def _off_diagonal_level(gram: np.ndarray) -> float:
    """Largest ``|g_ij| / sqrt(g_ii * g_jj)`` over column pairs i != j of a
    Gram matrix; pairs with a zero column count as orthogonal."""
    norms = np.sqrt(np.diag(gram))
    scale = np.outer(norms, norms)
    rel = np.divide(np.abs(gram), scale, out=np.zeros_like(gram), where=scale > 0)
    np.fill_diagonal(rel, 0.0)
    return float(rel.max())


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
        # Rutishauser rotation: |angle| <= pi/4, required for convergence
        # under this parallel pair ordering.
        gh = g[hot]
        tau = (b[hot] - a[hot]) / (2.0 * gh)
        t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
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
    Before each sweep one Gram product tests every column pair against the
    tolerance, and sweeps run only while some pair fails it, so input with
    orthogonal columns (a diagonal matrix, canonical factors) needs no
    rotation. Otherwise the columns are first rotated by the eigenvectors of
    ``m.T @ m`` in descending order (``v = V0``, ``work = m @ V0``); the
    sweeps then polish what the squared problem left inexact, which keeps
    Jacobi's accuracy on small singular values.
    """
    m = as_matrix(m, "matrix")
    if m.shape[1] > m.shape[0]:
        f = svd(m.T)
        return SvdFactors(U=f.V, S=f.S, V=f.U)

    n = m.shape[1]
    gram = m.T @ m
    residual = _off_diagonal_level(gram)
    if residual <= _JACOBI_TOL:
        work, v = m, np.eye(n)  # no sweep will run, so work is only read
    else:
        v = np.linalg.eigh(gram)[1][:, ::-1].copy()
        work = m @ v
        residual = _off_diagonal_level(work.T @ work)
    rounds = _round_robin_rounds(n) if residual > _JACOBI_TOL else []
    sweeps = 0
    while residual > _JACOBI_TOL:
        if sweeps == _JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi SVD did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
                f"(residual {residual:.3e})",
                residual=residual,
            )
        _jacobi_sweep(work, v, rounds)
        sweeps += 1
        residual = _off_diagonal_level(work.T @ work)

    norms = np.sqrt(np.einsum("ij,ij->j", work, work))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    u = work[:, order]
    v = v[:, order]
    dead = norms == 0.0
    u[:, ~dead] /= norms[~dead]
    if np.any(dead):
        _complete_orthonormal(u, dead)
    return SvdFactors(U=u, S=norms, V=v)


def truncate(f: SvdFactors, v: float, max_rank: int | None = None) -> SvdFactors:
    """Keep the smallest leading k with cumulative singular mass >= v.

    Mass is the plain sum of singular values (not squared). k is capped by
    ``max_rank`` when given, and is at least 1; an all-zero spectrum keeps a
    single zero component.
    """
    if not (0.0 < v <= 1.0):
        raise ParameterError(f"threshold must lie in (0, 1], got {v}")
    if max_rank is not None and max_rank < 1:
        raise ParameterError(f"max_rank must be positive, got {max_rank}")
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
