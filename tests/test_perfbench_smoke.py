"""Tier-1 guard: the wire-to-verdict benchmark agrees with its oracle.

Runs one short, tiny cold-crowd pass of ``perfbench/run.py`` in a
subprocess.  The benchmark checks every verdict and issuance reply
against the outcome each input was built to have (its own oracle, not a
second router), so a program change that alters a verdict on the cold
path fails here, not only when the benchmark is run by hand.  Timing
figures are not asserted; the run writes its copy of the result to the
git-ignored ``.perfbench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_cold_crowd_tiny_run_is_correct():
    result = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "cold-crowd",
            "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"perfbench failed\n--- stdout ---\n{result.stdout[-4000:]}"
        f"\n--- stderr ---\n{result.stderr[-2000:]}"
    )
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, result.stdout[-4000:]
    assert last["failed"] == 0
    assert last["attempted"] > 0
