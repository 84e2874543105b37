import os
import subprocess
import sys
from pathlib import Path

import persian_norm

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tools" / "readings_digest.py"


def _digest(*args, pythonpath=""):
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, str(DIGEST), *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_readings_digest_refuses_a_package_from_elsewhere(tmp_path):
    # an importable copy outside SRC_DIR must not stand in for the tree
    installed = Path(persian_norm.__file__).resolve().parent.parent
    out = _digest(str(tmp_path), pythonpath=str(installed))
    assert out.returncode == 2
    assert "not from under" in out.stderr
    assert out.stdout == ""


def test_readings_digest_needs_a_package_and_one_argument(tmp_path):
    assert _digest(str(tmp_path)).returncode == 2
    assert _digest().returncode == 2
