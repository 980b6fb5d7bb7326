"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, prints a result
   line with exactly the metrics ``BENCHMARK.json`` names, and no
   mismatch; traced spans nest, and the root spans fit inside the
   planes' own timers.
2. A deliberately mislabelled expected outcome (one frame, one issuance
   reply) makes ``failed_share`` > 0: the correctness check can fail.
3. The traced run's cost counters repeat exactly at tiny size.
4. Without the program's sources the benchmark exits non-zero and
   prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"
SEED = 7
#: Largest share of the planes' own timers that root spans may leave
#: uncovered: opening and closing a root is well under a microsecond,
#: an operation tens of microseconds or more.
MAX_ROOT_GAP = 0.05


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_tiny_runs(spec: dict) -> None:
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = result_of(run_bench(workload, trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = set(result["metrics"])
            assert got == wanted[trace], (
                f"{workload} trace={trace}: missing {sorted(wanted[trace] - got)}, "
                f"unexpected {sorted(got - wanted[trace])}"
            )
            if trace:
                metrics = result["metrics"]
                assert metrics["trace.nesting_errors"]["value"] == 0, metrics
                gap = metrics["trace.root_gap_share"]["value"]
                assert 0 <= gap < MAX_ROOT_GAP, f"{workload}: root spans vs plane timers {gap}"
            print(f"ok   tiny run {workload} trace={trace}: {result['attempted']} operations")


def check_mislabel_fails() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import planes
    import workloads
    from repro.core.border_router import DropReason

    wl = workloads.build_cold_crowd(SEED, workloads.TINY)
    try:
        burst = wl.bursts[0]
        right = burst.expected[0]
        wrong = workloads.drop(DropReason.BAD_MAC)
        burst.expected[0] = wrong if right != wrong else workloads.forward_inter(workloads.REMOTE_AID)
        wl.requests[0].hid += 1
        tally = planes.Tally()
        planes.BatchPlane(wl, tally).segment(count=1)
        planes.IssuancePlane(wl, tally).segment(count=1)
    finally:
        wl.close()
    assert tally.failed == 2, (tally.failed, tally.examples)
    assert tally.failed / tally.attempted > 0
    print(f"ok   mislabelled outcomes caught: failed_share = {tally.failed}/{tally.attempted}")


def check_counters_repeat() -> None:
    for workload in ("steady-flows", "cold-crowd", "issuance"):
        stem = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-tiny-trace1.counters.json"
        stem.unlink(missing_ok=True)
        result_of(run_bench(workload, 1))
        first = json.loads(stem.read_text())
        second = result_of(run_bench(workload, 1))
        assert json.loads(stem.read_text()) == first, f"{workload}: counters differ"
        assert second["metrics"]["trace.counter_drift"]["value"] == 0
        print(f"ok   {workload}: {len(first)} cost counters repeat exactly")


def check_fails_without_program() -> None:
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(HERE, SCRATCH / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("steady-flows", 0, cwd=SCRATCH)
    shutil.rmtree(SCRATCH)
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"correct"' not in proc.stdout, "printed a result without the program"
    print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tiny_runs(spec)
    check_mislabel_fails()
    check_counters_repeat()
    check_fails_without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
