"""Import the package before any test module loads numpy, so the test
process runs with the BLAS thread count that ``import svdlora`` sets, as
``svdlora`` commands do (see ``svdlora/__init__.py``).

Every test that uses the ``bench_runs`` fixture (acceptance criteria 08, 09
and 11) gets the ``bench`` marker, so ``-m "not bench"`` runs all else.

:func:`validate_svd` is the test suites' check of SVD form; test modules
import it with ``from conftest import validate_svd``."""

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
