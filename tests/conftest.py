"""Import the package before any test module loads numpy, so the test
process runs with the BLAS thread count that ``import svdlora`` sets, as
``svdlora`` commands do (see ``svdlora/__init__.py``).

Every test that uses the ``bench_runs`` fixture (acceptance criteria 08, 09
and 11) gets the ``bench`` marker, so ``-m "not bench"`` runs all else.

:func:`validate_svd` is the test suites' check of SVD form and
:func:`rewrite_header` their editor of adapter-file headers; test modules
import them with ``from conftest import ...``."""

import json
import struct

import pytest

import svdlora  # noqa: F401  (first: it sets the BLAS threads numpy reads)
import numpy as np  # noqa: E402
from svdlora.errors import DimensionError, NumericError  # noqa: E402


def pytest_collection_modifyitems(items):
    for item in items:
        if "bench_runs" in item.fixturenames:
            item.add_marker(pytest.mark.bench)


def validate_svd(f, atol: float = 1e-9) -> None:
    """Raise unless ``f`` (an ``SvdFactors``) is in thin SVD form: k
    components with k <= min(m, n), S non-negative and non-increasing, and
    U and V with orthonormal columns to ``atol`` in Frobenius norm."""
    k = len(f.S)
    if f.U.shape[1] != k or f.V.shape[1] != k:
        raise DimensionError(
            f"inconsistent factor shapes {f.U.shape}, {len(f.S)}, {f.V.shape}"
        )
    if k > min(f.U.shape[0], f.V.shape[0]):
        raise DimensionError("rank exceeds min(m, n)")
    if np.any(f.S < 0) or np.any(np.diff(f.S) > 0):
        raise NumericError("singular values must be non-negative and non-increasing")
    for q, label in ((f.U, "U"), (f.V, "V")):
        dev = np.linalg.norm(q.T @ q - np.eye(k))
        if dev > atol:
            raise NumericError(f"{label} columns not orthonormal (deviation {dev:.3e})")


def rewrite_header(src, dst, mutate, before: bytes = b"") -> None:
    """Copy the adapter file ``src`` to ``dst`` (which may be ``src``) with
    its JSON header changed in place by ``mutate``; ``before`` is placed
    ahead of the payload and bytes that ``mutate`` returns are appended to
    it. A key ending in ``"\\x00"`` is written without it, so that an
    object can repeat a key."""
    blob = src.read_bytes()
    magic, version, header_len = struct.unpack_from("<4sIQ", blob)
    header = json.loads(blob[16:16 + header_len].decode())
    payload = before + blob[16 + header_len:]
    extra = mutate(header)
    if isinstance(extra, bytes):
        payload += extra
    raw = json.dumps(header).replace(r'\u0000"', '"').encode()
    raw += b" " * ((-len(raw)) % 8)
    dst.write_bytes(struct.pack("<4sIQ", magic, version, len(raw)) + raw + payload)
