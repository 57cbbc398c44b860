"""Every output of ``scripts/golden.py``'s scenario, byte for byte.

``tests/golden.json`` holds the scenario's digests and the fingerprint of
the machine that recorded them. Floating-point results may differ in the
last bit under another numpy or BLAS build, or other BLAS kernels, so on a
machine with another fingerprint the test fails and says so instead of
comparing. A change that moves output bytes on purpose rewrites the file
with ``PYTHONPATH=src python scripts/golden.py --write``.
"""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def load_golden_script():
    spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_recorded_digests(tmp_path):
    golden = load_golden_script()
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    here = golden.fingerprint()
    assert here == recorded["fingerprint"], (
        f"tests/golden.json was recorded with {recorded['fingerprint']}, this "
        f"machine has {here}; its outputs can differ in the last bit, so the "
        "digests cannot be compared here. Record them on this machine from a "
        "tree known to be good with scripts/golden.py --write.")
    golden.scenario(tmp_path)
    assert golden.digests(tmp_path) == recorded["digests"]
