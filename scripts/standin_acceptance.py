"""Run acceptance criteria 4-9 on the benchmark's Cora-shaped stand-in.

    python3 scripts/standin_acceptance.py [pytest options]

Criteria 4-9 of tests/test_acceptance.py need the citation-graph bundle
and skip without it. This script draws the Cora-shaped bundle of
perfbench/graphgen.py at seed 0 into a temporary directory, points
OODGAT_CORA_DIR at it and runs those six tests with `pytest -s`, so that
each prints its ACCEPTANCE PASS/FAIL line. Extra arguments go to pytest;
the exit code is pytest's. Run it from anywhere: paths are taken from
this file. It reads perfbench/ and, apart from pytest's own cache,
writes only in the temporary directory, which it removes at the end.

The stand-in is a synthetic graph with Cora's sizes, not the paper's
data, so its results say nothing about the paper's numbers; criterion 5
fails on it (README "Testing"). The six tests took 13.5 to 24 minutes in
one process on a 2-vCPU machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import graphgen  # noqa: E402

SEED = 0
CRITERIA = (
    "test_criterion_4_cora_reproduction",
    "test_criterion_5_detector_ordering",
    "test_criterion_6_smoothing_gap",
    "test_criterion_7_edge_ablation",
    "test_criterion_8_loss_ablation",
    "test_criterion_9_determinism",
)


def write_standin(root: Path) -> Path:
    """Write the seed-0 Cora-shaped bundle under `root`; returns `root`."""
    graphgen.write_bundle(graphgen.cora_shaped(SEED), root)
    return root


def main(pytest_args: list[str]) -> int:
    tests = [f"tests/test_acceptance.py::{name}" for name in CRITERIA]
    with tempfile.TemporaryDirectory(prefix="oodgat-standin-") as tmp:
        bundle = write_standin(Path(tmp) / "cora")
        env = dict(os.environ, OODGAT_CORA_DIR=str(bundle))
        return subprocess.call([sys.executable, "-m", "pytest", "-s", *tests, *pytest_args],
                               cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
