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


ROW_COSTS = ROOT / "tools" / "row_costs.py"


def _row_costs(*args, pythonpath=""):
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run([sys.executable, str(ROW_COSTS), *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_row_costs_refuses_a_package_from_elsewhere(tmp_path):
    installed = Path(persian_norm.__file__).resolve().parent.parent
    out = _row_costs(str(tmp_path), "adversarial", pythonpath=str(installed))
    assert out.returncode == 2
    assert "not from under" in out.stderr
    assert out.stdout == ""


def test_row_costs_prints_each_row_the_gate_runs():
    src = Path(persian_norm.__file__).resolve().parent.parent
    out = _row_costs(str(src), "adversarial")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    number = [ln.split() for ln in lines if " PLAIN_NUMBER " in ln]
    assert len(number) == 1
    workload, path, _, _, runs, ran, matches, found, best, ms = number[0]
    assert (workload, path, runs, matches, best) == \
        ("adversarial", "scan", "runs", "matches", "best_ms")
    assert int(ran) > 0 and int(found) > 0 and float(ms) > 0
    # both paths are printed; PLAIN_NUMBER comes after the last class whose
    # spans hold a dot, so only ``scan`` runs it
    assert {ln.split()[1] for ln in lines} == {"scan", "protect"}


def test_row_costs_needs_a_source_tree_and_known_workloads():
    src = Path(persian_norm.__file__).resolve().parent.parent
    assert _row_costs().returncode == 2
    assert _row_costs(str(src), "nonesuch").returncode == 2
