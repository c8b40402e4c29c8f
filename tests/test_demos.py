"""The demos print exactly the bytes pinned here.

Each demo runs in a fresh interpreter; its stdout SHA-256 must match the
value recorded when the demo last changed on purpose.  Demo 04 prints a
chain's ``blocks``, the FinSets built from the spans a chain carries.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "01_families_and_ranks.py":
        "f04039039220c8953a0851e8b52e8235f1f490d65a8ad301739245771d099f6b",
    "02_parity_kernel.py":
        "cd241b9496a9174e576921249babf7daac5c218cddb73a2fa2de099d1004cc83",
    "03_kernel_matrices.py":
        "e0a6ab24dd4a8d0b6831750fa341b34e7a0055a5e8ef74cf6a7627d1ccf81fcb",
    "04_averaging_chains.py":
        "2418e08d044a4c47f0e7734cc8d517cab1454a06202366fd40667f6f452e9796",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_stdout_is_pinned(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                       capture_output=True, cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == PINNED[name]
