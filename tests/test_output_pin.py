"""The output of the four benchmark workloads at seeds 1-3 is pinned.

Each workload is built by ``perfbench/workloads.py``, run once through the
entry points of ``perfbench/run.py`` (``first_pass``), under the policy
``run.main`` gives it, and hashed by ``run.output_hash``: the
``output_sha256`` the benchmark prints.  The hashes must equal those in
``output_sha256.json``.  A change meant to alter the output rewrites that
file, and its diff shows which workloads and seeds moved:

    PYTHONPATH=src python tests/test_output_pin.py
"""

import json
import sys
from pathlib import Path

import pytest

import persian_norm as pn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402

PINNED = Path(__file__).with_name("output_sha256.json")
SEEDS = (1, 2, 3)


def output_sha256(name: str, seed: int) -> str:
    wl = workloads.build(name, seed)
    config = None
    if wl.seeded_policy:
        config = pn.PipelineConfig(policy=pn.SelectionPolicy.seeded(seed))
    counter = run.Counter()
    outputs = run.first_pass(run.entry_points(pn, config), wl.docs, counter)
    assert counter.errors == []
    return run.output_hash(outputs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_output_is_pinned(name, seed):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert output_sha256(name, seed) == pinned[name][str(seed)]


if __name__ == "__main__":
    hashes = {name: {str(seed): output_sha256(name, seed) for seed in SEEDS}
              for name in workloads.WORKLOADS}
    PINNED.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
