"""Million-host state-store bench — the ``metro:N`` scale curves.

The paper's §V-A2 registry is dimensioned for its trace's 1,266,598
unique hosts; this bench records what the :mod:`repro.state` columnar
store pays to hold host populations of that order: build-time and
resident-set curves over a ``metro:N`` ladder (the hosts-vs-RSS
trajectory the snapshot JSON carries across PRs), bulk-registration
throughput, and the packed snapshot codec's
encode/decode rate (the bytes every worker spawn and ``MSG_RESYNC``
ships).

Smoke mode shrinks the ladder so tier-1 CI stays fast; the full ladder
tops out at the paper-scale million hosts per AS.
"""

import gc
import os
import time

from repro import scenarios
from repro.sharding.plan import ShardPlan
from repro.state import (
    ColumnarHostDatabase,
    ColumnarRevocationList,
    ShardSnapshot,
    build_shard_snapshot,
    population_key_material,
)

_PAGE = os.sysconf("SC_PAGESIZE")


def _rss_bytes() -> "int | None":
    """Resident set size via ``/proc/self/statm`` (no psutil dependency)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, ValueError, IndexError):
        return None


def _is_smoke(request) -> bool:
    return bool(getattr(request.config.option, "benchmark_disable", False))


def test_metro_build_ladder(benchmark, request):
    """Build-time and RSS curves over a ``metro:N`` ladder.

    The paper-shape verdict: hosts-vs-RSS grows linearly in the packed
    columns (~32 B of keys + ~13 B of flags/counters per host), not in
    Python objects — the curve is what ``compare_snapshots.py`` watches
    across PRs.
    """
    ladder = [10_000, 50_000] if _is_smoke(request) else [100_000, 300_000, 1_000_000]
    curve = []
    for hosts in ladder:
        gc.collect()
        rss_before = _rss_bytes()
        t0 = time.perf_counter()
        world = scenarios.build(f"metro:{hosts}", seed=1)
        build_s = time.perf_counter() - t0
        rss_after = _rss_bytes()
        total = sum(asys.hostdb.total_registered for asys in world.ases)
        assert total >= 2 * hosts
        curve.append(
            {
                "hosts_per_as": hosts,
                "build_s": round(build_s, 4),
                "rss_before_bytes": rss_before,
                "rss_after_bytes": rss_after,
            }
        )
        del world
    gc.collect()

    top = ladder[-1]
    world = benchmark.pedantic(
        lambda: scenarios.build(f"metro:{top}", seed=1), rounds=1, iterations=1
    )
    assert len(world.asys("a").hostdb) == top + 6  # hosts + alice + 5 services
    benchmark.extra_info["ladder"] = curve


def test_bulk_register(benchmark, request):
    """Bulk registration throughput of the columnar ``host_info``."""
    count = 20_000 if _is_smoke(request) else 200_000
    material = population_key_material(b"bench-scale", count)

    def register():
        db = ColumnarHostDatabase()
        db.bulk_register(count, material)
        return db

    db = benchmark(register)
    assert len(db) == count
    benchmark.extra_info["hosts"] = count


def test_shard_snapshot_codec(benchmark, request):
    """Encode+decode one shard's packed snapshot at population scale."""
    count = 20_000 if _is_smoke(request) else 200_000
    db = ColumnarHostDatabase()
    db.bulk_register(count, population_key_material(b"bench-snap", count))
    rev = ColumnarRevocationList()
    for i in range(256):
        rev.add(i.to_bytes(16, "big"), 1_000.0 + i)
    plan = ShardPlan(4)
    snap = build_shard_snapshot(db, rev, plan, shard=1)

    def roundtrip():
        return ShardSnapshot.decode(snap.encode())

    decoded = benchmark(roundtrip)
    assert decoded == snap
    benchmark.extra_info["owned_hosts"] = snap.owned_count
    benchmark.extra_info["live_hosts"] = snap.live_count
    benchmark.extra_info["revoked"] = snap.revoked_count
    benchmark.extra_info["snapshot_bytes"] = len(snap.encode())
