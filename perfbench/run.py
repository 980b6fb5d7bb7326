"""Wire-to-verdict and request-to-EphID benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-crowd --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of the single-process
planes; ``--trace 1`` runs a fixed amount of work on every plane, the
sharded one included, once untraced and once with spans around the
program's layers, and reports the per-layer metrics.  The metric table
goes to standard output, with the environment; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and the metric -> layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Share of ``--seconds`` each plane measures in untraced runs, per
#: workload: most of it to the workload's own planes.  The sharded plane
#: is left out of untraced runs: on a shared 2-CPU host its speed shifts
#: by up to 1.6x for minutes at a time, so it cannot hold a regression
#: bound there (see README.md); traced runs still drive it.
WEIGHTS = {
    "steady-flows": {"batch": 0.45, "single": 0.2, "issuance": 0.35},
    "cold-crowd": {"batch": 0.6, "single": 0.35, "issuance": 0.05},
    "issuance": {"batch": 0.25, "single": 0.15, "issuance": 0.6},
}
#: The measured time is split into this many rounds; each round runs
#: every plane in turn, so a slow spell on the host touches all planes.
ROUNDS = 30
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Traced runs do this fixed work per plane, so their counts repeat
#: exactly for a seed: bursts for the data planes, requests for issuance.
TRACE_WORK = {"batch": 384, "single": 48, "sharded2": 96, "issuance": 1024}
TRACE_WORK_TINY = {"batch": 8, "single": 4, "sharded2": 8, "issuance": 16}
#: Bursts over which live Python blocks per packet are counted.
BLOCK_BURSTS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the self-tests",
    )
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` on the path and import what we need;
    exits non-zero, printing no result, when the program is absent."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.crypto import backend
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    return backend


def pin_backend(backend) -> "dict[str, object]":
    """openssl when importable; a fallback to pure is recorded."""
    if "openssl" in backend.available_backends():
        backend.set_backend("openssl")
        return {"crypto_backend": "openssl", "crypto_fallback": False}
    backend.set_backend("pure")
    return {"crypto_backend": "pure", "crypto_fallback": True}


def start_method(plane) -> str:
    pool = getattr(plane, "_pool", None)
    ctx = getattr(pool, "_ctx", None)
    return ctx.get_start_method() if ctx is not None else "unknown"


def build(workloads, planes, name: str, seed: int, size, tally, trace: int):
    """World, population, inputs, shard spawn, warm-up: the timed set-up."""
    wl = workloads.BUILDERS[name](seed, size)
    by_name = {}
    for cls in planes.PLANES:
        if cls is planes.ShardedPlane and not trace:
            continue
        plane = cls(wl, tally)
        plane.warm()
        by_name[plane.name] = plane
    return wl, by_name


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(planes_by_name, setup_times, tally) -> "dict[str, tuple]":
    """name -> (value, unit, samples or None, raw value or None).

    Timings are normalised to the reference host speed (see
    ``planes.Plane.calibrated_segment``); the raw value is kept beside.
    """
    from statistics import median

    metrics = {}
    for plane, rate_name, unit in (
        ("batch", "batch_pps", "verdicts/s"),
        ("single", None, None),
        ("issuance", "ephids_per_s", "EphIDs/s"),
    ):
        p = planes_by_name[plane]
        if rate_name:
            metrics[rate_name] = (p.rate(), unit, len(p.rounds), p.rate(normalised=False))
        p50, p99, n = p.latency_us()
        raw50, raw99, _ = p.latency_us(normalised=False)
        prefix = {"batch": "batch_burst", "issuance": "issue"}.get(plane, plane)
        metrics[f"{prefix}_p50_us"] = (p50, "us", n, raw50)
        metrics[f"{prefix}_p99_us"] = (p99, "us", n, raw99)
    ok = 1.0 - tally.failed / tally.attempted if tally.attempted else 0.0
    order = ("batch_pps", "batch_burst_p50_us", "batch_burst_p99_us", "single_p50_us",
             "single_p99_us", "ephids_per_s", "issue_p50_us", "issue_p99_us")
    out = {name: metrics[name] for name in order}
    out["ok_share"] = (ok, "ratio", tally.attempted, None)
    out["setup_s"] = (
        median(raw / factor for raw, factor in setup_times),
        "s",
        len(setup_times),
        median(raw for raw, _ in setup_times),
    )
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", None, None)
    return out


def measure(planes_by_name, weights, seconds: float) -> None:
    # The in-process routers' caches grow with the bursts a segment gets
    # through, so peak RSS would follow the host's speed; one untimed
    # pass over every burst on one router sets the peak before timing.
    batch = planes_by_name["batch"]
    batch.segment(count=len(batch.wl.bursts))
    batch.rounds.clear()
    del batch.latency_ns[:]
    for _ in range(ROUNDS):
        for name, plane in planes_by_name.items():
            plane.calibrated_segment(seconds * weights[name] / ROUNDS)


def traced(tracing, planes_by_name, wl, work, tally, out_stem):
    """Fixed work once untraced (pass A), once traced (pass B); returns
    the per-layer metrics and the span aggregate."""
    from statistics import median

    from layers import per_layer
    from planes import host_speed_factor

    cycle = wl.cycle

    def rewind():
        # Long-lived inputs: both passes offer the same operations.
        if cycle:
            for plane in planes_by_name.values():
                plane.pos = 0

    batch = planes_by_name["batch"]
    sharded = planes_by_name["sharded2"]

    # Pass 0: live-block counts, kept apart from every timed pass.
    rewind()
    batch.count_blocks = True
    batch.segment(count=BLOCK_BURSTS)
    batch.count_blocks = False

    def pass_ns(plane, start: int, before: float) -> float:
        """A pass's time as operations x median operation time, host-speed
        normalised: robust to a slow spell inside a sub-second pass."""
        samples = plane.latency_ns[start:]
        return median(samples) * len(samples) / ((before + host_speed_factor()) / 2)

    rewind()
    untraced_ns = {}
    cpu0 = sharded.cpu_ns
    for name, plane in planes_by_name.items():
        start, before = len(plane.latency_ns), host_speed_factor()
        plane.segment(count=work[name])
        untraced_ns[name] = pass_ns(plane, start, before)
    dispatcher_cpu_ns = sharded.cpu_ns - cpu0

    rewind()
    tracer = tracing.Tracer()
    traced_ns = {}
    # Per plane, the sum of its own per-operation timer over the traced
    # pass; each root span must lie inside one of these intervals.
    timer_ns = {}
    gc.collect()
    with tracing.instrument(tracer):
        for name, plane in planes_by_name.items():
            start, before = len(plane.latency_ns), host_speed_factor()
            plane.tracer = tracer
            plane.segment(count=work[name])
            plane.tracer = None
            traced_ns[name] = pass_ns(plane, start, before)
            timer_ns[name] = sum(plane.latency_ns[start:])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(f"{out_stem}.spans.tsv")
    agg = tracing.aggregate(tracer.spans)
    # The sharded plane's timer runs from submit to collect, across two
    # roots and other bursts' roots, so it is not compared.
    timer_ns.pop("sharded2")
    stats = sharded.plane.stats()
    return per_layer(
        agg,
        tally=tally,
        untraced_ns=untraced_ns,
        traced_ns=traced_ns,
        timer_ns=timer_ns,
        nesting_errors=tracing.nesting_errors(tracer.spans),
        blocks=(batch.blocks, batch.block_pkts),
        sharded_stats=stats,
        dispatcher_cpu_ns=dispatcher_cpu_ns,
        ms_rejected=wl.asys.ms.rejected,
    ), agg, timer_ns


def counter_drift(counters: "dict[str, int]", path: Path) -> "list[str]":
    """Compare exact counts with an earlier run of the same seed."""
    drift = []
    if path.exists():
        earlier = json.loads(path.read_text())
        drift = sorted(k for k in counters.keys() | earlier.keys() if counters.get(k) != earlier.get(k))
    path.write_text(json.dumps(counters, sort_keys=True, indent=1))
    return drift


def main(argv=None) -> int:
    args = parse_args(argv)
    backend = import_program()
    sys.path.insert(0, str(HERE))
    import planes
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    env = pin_backend(backend)
    size = workloads.TINY if args.size == "tiny" else workloads.FULL

    tally = planes.Tally()
    setup_times = []
    wl = planes_by_name = None
    try:
        for _ in range(SETUPS):
            if wl is not None:
                wl.close()
                wl = planes_by_name = None
                gc.collect()
            before = planes.host_speed_factor()
            t0 = time.perf_counter()
            wl, planes_by_name = build(
                workloads, planes, args.workload, args.seed, size, tally, args.trace
            )
            raw = time.perf_counter() - t0
            pool = wl.asys.shard_pool
            env.update(shard_start_method=start_method(pool), shards=pool.nshards)
            if not args.trace:
                # Untraced runs do not use the sharded plane: stop its
                # workers, so no process of the program runs beside the
                # timed planes or the host-speed reference.
                wl.asys.stop_shard_pool(final=True)
            setup_times.append((raw, (before + planes.host_speed_factor()) / 2))
        # The inputs live for the whole run: keep them out of the cyclic
        # collector's scans, which would otherwise grow with input size.
        gc.collect()
        gc.freeze()
        env.update(
            workload=args.workload,
            seed=args.seed,
            size=args.size,
            trace=args.trace,
            seconds=args.seconds,
            # Processes the program has alive during the timed planes:
            # 0 untraced (the shard pool is stopped), the shards traced.
            live_child_processes=len(multiprocessing.active_children()),
            nproc=os.cpu_count(),
            usable_cpus=len(os.sched_getaffinity(0)),
            python=platform.python_version(),
            burst_size=workloads.BURST,
            pipelining_depth=planes.DEPTH,
            inputs=wl.description,
        )
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
        if args.trace:
            work = TRACE_WORK_TINY if args.size == "tiny" else TRACE_WORK
            env["trace_work"] = work
            metrics, agg, timer_ns = traced(tracing, planes_by_name, wl, work, tally, stem)
            drift = counter_drift(metrics.pop("_counters"), Path(f"{stem}.counters.json"))
            metrics["trace.counter_drift"] = (len(drift), "count", None, None)
        else:
            measure(planes_by_name, WEIGHTS[args.workload], args.seconds)
            metrics = end_to_end(planes_by_name, setup_times, tally)
            agg, timer_ns, drift = None, None, []
            env["host_speed_factor"] = {n: round(p.speed_factor(), 4) for n, p in planes_by_name.items()}
        env["inputs_exhausted"] = sorted(n for n, p in planes_by_name.items() if p.exhausted)
    finally:
        if wl is not None:
            wl.close()

    report(env, metrics, agg, timer_ns, tally, drift, setup_times)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }
    raw = {name: m[3] for name, m in metrics.items() if m[3] is not None}
    Path(f"{stem}.json").write_text(json.dumps({"env": env, **result, "raw": raw}, indent=1))
    print(json.dumps(result))
    return 0


def report(env, metrics, agg, timer_ns, tally, drift, setup_times) -> None:
    print("# environment: " + json.dumps(env, sort_keys=True))
    print(f"# set-up runs (s, raw): {', '.join(f'{raw:.3f}' for raw, _ in setup_times)}")
    if agg is not None:
        from layers import print_layer_table

        print_layer_table(agg, timer_ns)
    print(f"{'metric':34} {'value':>14}  {'unit':12} {'samples':>8} {'raw':>14}")
    for name, (value, unit, samples, raw) in metrics.items():
        samples = "" if samples is None else samples
        raw = "" if raw is None else f"{raw:14.4f}"
        print(f"{name:34} {value:14.4f}  {unit:12} {samples:>8} {raw:>14}")
    print(f"# operations: {tally.attempted} offered, {tally.failed} not as expected")
    for example in tally.examples:
        print(f"# MISMATCH {example}")
    if drift:
        print(f"# COUNTER DRIFT against the previous run of this seed: {', '.join(drift)}")


if __name__ == "__main__":
    sys.exit(main())
