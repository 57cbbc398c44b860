"""Import the package before any test module loads numpy, so the test
process runs with the BLAS thread count that ``import svdlora`` sets, as
``svdlora`` commands do (see ``svdlora/__init__.py``)."""

import svdlora  # noqa: F401
