"""The golden results of this checkout match ``tools/golden.json``.

Run from the repository root:

    python3 -m pytest tools/test_golden.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_prefixes_are_unchanged():
    proc = subprocess.run(
        [sys.executable, "tools/golden.py", "--src", str(ROOT)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads((ROOT / "tools" / "golden.json").read_text())
    changed = {
        name: (got.get(name), expected) for name, expected in want.items()
        if got.get(name) != expected
    }
    assert not changed, f"results that differ (got, expected): {changed}"
    assert got.keys() == want.keys()


def test_golden_rejects_a_root_without_hamtree(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/golden.py", "--src", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "holds no hamtree package" in proc.stderr
