"""Import the package before any test module loads numpy, so the test
process runs with the BLAS thread count that ``import svdlora`` sets, as
``svdlora`` commands do (see ``svdlora/__init__.py``).

Every test that uses the ``bench_runs`` fixture (acceptance criteria 08, 09
and 11) gets the ``bench`` marker, so ``-m "not bench"`` runs all else."""

import pytest

import svdlora  # noqa: F401


def pytest_collection_modifyitems(items):
    for item in items:
        if "bench_runs" in item.fixturenames:
            item.add_marker(pytest.mark.bench)
