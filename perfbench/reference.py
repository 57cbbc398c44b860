"""Computations the checks compare the program against.

Nothing here calls the package's forward pass, SVD or file loader: the
forward pass is rebuilt from dense ``W + B·diag(E)·A`` weights, spectra come
from LAPACK (``numpy.linalg.svd``), and MLGO files are parsed straight from
FORMAT.md.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

THRESHOLD = 0.997   # default singular-mass threshold of the merge
TIE = 1e-9          # logit margin below which a prediction counts as a tie


class CheckFailed(AssertionError):
    """A program output disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- MLGO files -------------------------------------------------------------

def read_mlgo(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, {tensor name: array}) of an adapter file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, header_len = struct.unpack_from("<4sIQ", blob)
    require(magic == b"MLGO" and version == 1, f"{path}: not an MLGO v1 file")
    header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    payload = blob[16 + header_len:]
    tensors = {}
    for entry in header["tensors"]:
        raw = payload[entry["offset"]:entry["offset"] + entry["length"]]
        tensors[entry["name"]] = np.frombuffer(raw, "<f8").reshape(entry["shape"])
    return header, tensors


def factors(tensors: dict[str, np.ndarray]) -> dict[str, tuple]:
    """{target: (B, E, A)} from a tensor map."""
    targets = sorted({name.rsplit(".", 1)[0] for name in tensors
                      if not name.startswith("head.")})
    return {t: (tensors[f"{t}.B"], tensors[f"{t}.E"], tensors[f"{t}.A"])
            for t in targets}


def set_factors(aset) -> dict[str, tuple]:
    """{target: (B, E, A)} of an in-memory adapter set."""
    return {str(t): (a.B, a.E, a.A) for t, a in aset.adapters.items()}


def dense(b, e, a) -> np.ndarray:
    return (b * e) @ a


# --- forward pass -----------------------------------------------------------

def logits(model, deltas: dict[str, np.ndarray], x: np.ndarray,
           head: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The toy transformer on dense adapted weights ``W + delta``, written
    out layer by layer with einsum."""
    d = x.shape[2]
    h = x
    for layer, lw in enumerate(model.layers):
        wq = lw.Wq + deltas.get(f"layer{layer}.Q", 0.0)
        wv = lw.Wv + deltas.get(f"layer{layer}.V", 0.0)
        q = np.einsum("ntj,ij->nti", h, wq)
        k = np.einsum("ntj,ij->nti", h, lw.Wk)
        v = np.einsum("ntj,ij->nti", h, wv)
        s = np.einsum("nti,nsi->nts", q, k) / math.sqrt(d)
        p = np.exp(s - s.max(axis=2, keepdims=True))
        p /= p.sum(axis=2, keepdims=True)
        h = h + np.einsum("nts,nsi->nti", p, v) @ lw.Wo.T
        h = h + np.tanh(h @ lw.W1.T) @ lw.W2.T
    return h.mean(axis=1) @ head[0] + head[1]


def dense_deltas(fac: dict[str, tuple]) -> dict[str, np.ndarray]:
    return {t: dense(*f) for t, f in fac.items()}


def accuracy_range(model, deltas, split, head) -> tuple[float, float]:
    """Reference accuracy as a range: a sample whose top two reference
    logits tie within TIE may go either way."""
    x, y = split
    z = logits(model, deltas, x, head)
    top2 = np.sort(z, axis=1)[:, -2:]
    tie = (top2[:, 1] - top2[:, 0]) < TIE * (1.0 + np.abs(top2[:, 1]))
    sure = int(np.sum((np.argmax(z, axis=1) == y) & ~tie))
    return sure / len(y), (sure + int(tie.sum())) / len(y)


def check_accuracy(acc: float, expected: tuple[float, float], what: str,
                   slack: float = 1e-12) -> None:
    lo, hi = expected
    require(lo - slack <= acc <= hi + slack,
            f"{what}: accuracy {acc!r} outside reference [{lo!r}, {hi!r}]")


# --- merges -----------------------------------------------------------------

def check_canonical(fac: dict[str, tuple], what: str) -> None:
    for t, (b, e, a) in fac.items():
        r = len(e)
        require(np.linalg.norm(b.T @ b - np.eye(r)) < 1e-8
                and np.linalg.norm(a @ a.T - np.eye(r)) < 1e-8,
                f"{what} {t}: factors not orthonormal")
        require(bool(np.all(e >= 0) and np.all(np.diff(e) <= 0)),
                f"{what} {t}: E not non-negative and non-increasing")


def check_med_lego(inputs: list[dict[str, tuple]], merged: dict[str, tuple],
                   what: str, record: dict | None = None) -> None:
    """A delta-average + SVD + 99.7%-mass merge, target by target.

    The kept spectrum must match LAPACK's on the mean delta, the kept rank
    must be the smallest k whose cumulative mass reaches the threshold, and
    the truncation error must equal the root of the dropped sigma^2
    (Eckart-Young). ``record`` (keyed by target) holds the merge report's
    per-target records, checked against the same figures.
    """
    check_canonical(merged, what)
    require(set(merged) == set(inputs[0]), f"{what}: targets differ from inputs")
    for t, (b, e, a) in merged.items():
        mean = sum(dense(*f[t]) for f in inputs) / len(inputs)
        sigma = np.linalg.svd(mean, compute_uv=False)
        scale = sigma[0]
        cum = np.cumsum(sigma)
        k = min(int(np.searchsorted(cum, THRESHOLD * cum[-1], side="left")) + 1,
                len(sigma))
        require(len(e) == k, f"{what} {t}: kept rank {len(e)} != {k}")
        require(len(e) <= sum(len(f[t][1]) for f in inputs),
                f"{what} {t}: rank exceeds the sum of the input ranks")
        require(np.allclose(e, sigma[:k], rtol=0, atol=1e-10 * scale),
                f"{what} {t}: kept singular values differ from LAPACK")
        err = np.linalg.norm(mean - dense(b, e, a))
        tail = math.sqrt(float(np.sum(sigma[k:] ** 2)))
        require(abs(err - tail) <= 1e-7 * tail + 1e-10 * scale,
                f"{what} {t}: truncation error {err!r} != Eckart-Young {tail!r}")
        if record is not None:
            rec = record[t]
            spec = np.asarray(rec["spectrum"])
            require(spec.shape == sigma.shape
                    and np.allclose(spec, sigma, rtol=0, atol=1e-10 * scale),
                    f"{what} {t}: reported spectrum differs from LAPACK")
            require(rec["kept_rank"] == k, f"{what} {t}: reported kept rank "
                    f"{rec['kept_rank']} != {k}")
            require(abs(rec["retained_mass"] - cum[k - 1] / cum[-1]) < 1e-9,
                    f"{what} {t}: reported retained mass is wrong")


def check_delta(fac: dict[str, tuple], expected: dict[str, np.ndarray],
                what: str) -> None:
    require(set(fac) == set(expected), f"{what}: targets differ")
    for t, want in expected.items():
        got = dense(*fac[t])
        require(np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want)),
                f"{what} {t}: delta differs from its reference")


def mean_deltas(inputs: list[dict[str, tuple]]) -> dict[str, np.ndarray]:
    """Task arithmetic at 1/N: the mean of the input deltas."""
    return {t: sum(dense(*f[t]) for f in inputs) / len(inputs) for t in inputs[0]}


def factor_average(inputs: list[dict[str, tuple]]) -> dict[str, tuple]:
    """Factor-wise averaging: mean B, mean E, mean A."""
    n = len(inputs)
    return {t: tuple(sum(f[t][i] for f in inputs) / n for i in range(3))
            for t in inputs[0]}
