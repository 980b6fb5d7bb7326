"""Per-layer metrics from a traced run's span aggregate.

Layers are the program's modules; each metric below is named
``<layer>.<what>`` and is computed over the roots of one plane:

* data-plane layers over the batch plane's bursts (``/pkt`` divides by
  the burst packets, ``/burst`` by the bursts);
* ``shard.*`` over the sharded plane's ``submit`` and ``collect`` roots;
* ``ms.*``, ``aead.*``, ``certs.*`` and ``ephid.seal_*`` over issuance
  requests;
* ``state.write_us_per_op`` over the revocation steps between bursts.

A ``*_us_*`` metric of a leaf call (EphID open, CMAC, a state lookup, an
AEAD or certificate call) is that call's inclusive time; ``br.self_*``,
``ms.self_*`` and ``shard.dispatch_self_*`` are self times: the time in
that function not covered by any traced call it makes.
"""

from __future__ import annotations

#: Exact counts that must repeat for a seed (compared across runs).
COUNTED = {
    "batch": ("wire.from_wire", "ephid.open_batch", "ephid.open", "cmac.init",
              "cmac.tag_many", "cmac.tag", "state.is_valid", "state.contains",
              "replay.observe"),
    "sharded.submit": ("shard.owners_of_iv_bytes", "shard.send_bytes"),
    "sharded.collect": ("shard.recv_bytes",),
    "issuance": ("ephid.seal", "aead.open", "aead.seal", "certs.issue", "cmac.init"),
    "control": ("state.add", "state.revoke_hid"),
}


def _kind(agg, name):
    return agg.get(name) or {"roots": 0, "root_ns": 0, "amount": 0, "unattributed_ns": 0, "by_name": {}}


def _sum(kind, names, field):
    """Sum one field (0 calls, 1 inclusive ns, 2 self ns, 3 amount)."""
    by_name = kind["by_name"]
    return sum(by_name[n][field] for n in names if n in by_name)


def _per(value, count, scale=1.0):
    return value / count / scale if count else 0.0


def per_layer(
    agg, *, tally, untraced_ns, traced_ns, timer_ns, nesting_errors, blocks, sharded_stats,
    dispatcher_cpu_ns, ms_rejected,
):
    """name -> (value, unit, samples); plus ``_counters`` (exact ints)."""
    batch = _kind(agg, "batch")
    pkts, bursts = batch["amount"], batch["roots"]
    submit, collect = _kind(agg, "sharded.submit"), _kind(agg, "sharded.collect")
    spkts, sbursts = submit["amount"], submit["roots"]
    issue = _kind(agg, "issuance")
    requests = issue["roots"]
    control = _kind(agg, "control")
    us = 1e3

    def inclusive(kind, *names):
        return _sum(kind, names, 1)

    def calls(kind, *names):
        return _sum(kind, names, 0)

    def amount(kind, *names):
        return _sum(kind, names, 3)

    both = (submit, collect)

    def shard_incl(*names):
        return sum(inclusive(k, *names) for k in both)

    shard_self = sum(_sum(k, ("shard.submit", "shard.collect"), 2) for k in both)
    ipc_bytes = sum(amount(k, "shard.send_bytes", "shard.recv_bytes") for k in both)
    messages = sum(calls(k, "shard.send_bytes", "shard.recv_bytes") for k in both)

    # Tracing overhead on the batch and issuance planes' fixed work.
    untraced = untraced_ns["batch"] + untraced_ns["issuance"]
    traced = traced_ns["batch"] + traced_ns["issuance"]
    planes = [_kind(agg, k) for k in ("batch", "single", "sharded.submit", "sharded.collect", "issuance")]
    root_ns = sum(k["root_ns"] for k in planes)
    unattributed = sum(k["unattributed_ns"] for k in planes)
    # Root time against the planes' own timers (see print_layer_table).
    timed_roots = sum(_kind(agg, k)["root_ns"] for k in timer_ns)
    timer_total = sum(timer_ns.values())
    block_count, block_pkts = blocks

    metrics = {
        "wire.parse_us_per_pkt": (_per(inclusive(batch, "wire.from_wire"), pkts, us), "us"),
        "wire.parse_calls_per_pkt": (_per(calls(batch, "wire.from_wire"), pkts), "count"),
        "ephid.open_us_per_pkt": (_per(inclusive(batch, "ephid.open_batch", "ephid.open"), pkts, us), "us"),
        "ephid.opened_per_pkt": (_per(amount(batch, "ephid.open_batch", "ephid.open"), pkts), "count"),
        "ephid.open_calls_per_burst": (_per(calls(batch, "ephid.open_batch", "ephid.open"), bursts), "count"),
        "ephid.seal_us_per_issue": (_per(inclusive(issue, "ephid.seal"), requests, us), "us"),
        "cmac.tag_us_per_pkt": (_per(inclusive(batch, "cmac.tag_many", "cmac.tag"), pkts, us), "us"),
        "cmac.tagged_bytes_per_pkt": (_per(amount(batch, "cmac.tag_many", "cmac.tag"), pkts), "B"),
        "cmac.contexts_built_per_pkt": (_per(calls(batch, "cmac.init"), pkts), "count"),
        "cmac.context_build_us_per_pkt": (_per(inclusive(batch, "cmac.init"), pkts, us), "us"),
        "state.lookup_us_per_pkt": (_per(inclusive(batch, "state.is_valid", "state.contains"), pkts, us), "us"),
        "state.lookups_per_pkt": (_per(calls(batch, "state.is_valid", "state.contains"), pkts), "count"),
        "state.write_us_per_op": (
            _per(inclusive(control, "state.add", "state.revoke_hid"), calls(control, "state.add", "state.revoke_hid"), us),
            "us",
        ),
        "state.prune_us_per_burst": (_per(inclusive(batch, "state.maybe_prune"), bursts, us), "us"),
        "replay.observe_us_per_pkt": (_per(inclusive(batch, "replay.observe"), pkts, us), "us"),
        "replay.observes_per_pkt": (_per(calls(batch, "replay.observe"), pkts), "count"),
        "br.self_us_per_pkt": (_per(_sum(batch, ("br.process_mixed_batch",), 2), pkts, us), "us"),
        "shard.route_us_per_pkt": (_per(shard_incl("shard.owners_of_iv_bytes"), spkts, us), "us"),
        "shard.pack_us_per_pkt": (_per(shard_incl("shard.encode_burst"), spkts, us), "us"),
        "shard.decode_us_per_pkt": (_per(shard_incl("shard.decode_verdicts"), spkts, us), "us"),
        "shard.dispatch_self_us_per_pkt": (_per(shard_self, spkts, us), "us"),
        "shard.send_us_per_burst": (_per(shard_incl("shard.send_bytes"), sbursts, us), "us"),
        "shard.wait_us_per_burst": (_per(shard_incl("shard.recv_bytes"), sbursts, us), "us"),
        "shard.dispatcher_cpu_us_per_burst": (_per(dispatcher_cpu_ns, sbursts, us), "us"),
        "shard.ipc_bytes_per_pkt": (_per(ipc_bytes, spkts), "B"),
        "shard.messages_per_burst": (_per(messages, sbursts), "count"),
        "shard.dropped_packets": (sharded_stats["dropped_packets"], "count"),
        "shard.stale_replies": (sharded_stats["stale_replies"], "count"),
        "ms.self_us_per_issue": (_per(_sum(issue, ("ms.handle_request",), 2), requests, us), "us"),
        "aead.open_us_per_issue": (_per(inclusive(issue, "aead.open"), requests, us), "us"),
        "aead.seal_us_per_issue": (_per(inclusive(issue, "aead.seal"), requests, us), "us"),
        "certs.issue_us_per_issue": (_per(inclusive(issue, "certs.issue"), requests, us), "us"),
        "ms.rejected": (ms_rejected, "count"),
        "py.alloc_blocks_per_pkt": (_per(block_count, block_pkts), "count"),
        "trace.overhead_share": (_per(traced - untraced, traced), "ratio"),
        "trace.unattributed_share": (_per(unattributed, root_ns), "ratio"),
        "trace.root_gap_share": (_per(timer_total - timed_roots, timer_total), "ratio"),
        "trace.nesting_errors": (nesting_errors, "count"),
        "failed_share": (_per(tally.failed, tally.attempted), "ratio"),
    }
    out = {name: (value, unit, None, None) for name, (value, unit) in metrics.items()}

    counters = {
        "batch.pkts": pkts,
        "batch.bursts": bursts,
        "sharded.pkts": spkts,
        "sharded.bursts": sbursts,
        "issuance.requests": requests,
        "shard.ipc_bytes": ipc_bytes,
        "shard.messages": messages,
        "shard.dropped_packets": sharded_stats["dropped_packets"],
        "shard.stale_replies": sharded_stats["stale_replies"],
        "ms.rejected": ms_rejected,
    }
    for kind_name, names in COUNTED.items():
        kind = _kind(agg, kind_name)
        for name in names:
            counters[f"{kind_name}:{name}.calls"] = calls(kind, name)
            counters[f"{kind_name}:{name}.amount"] = amount(kind, name)
    out["_counters"] = counters
    return out


def print_layer_table(agg, timer_ns) -> None:
    """Every traced call per plane: calls, inclusive and self time.

    Layer self times plus unattributed time equal the root time by
    construction, so they are not compared.  What is checked instead is
    measured apart from the spans: the roots' summed time against the
    plane's own per-operation timer (which brackets each root, so the gap
    is the cost of opening and closing the root and must be >= 0), and
    ``trace.nesting_errors`` (spans outside their parent or overlapping a
    sibling, from the raw timestamps).
    """
    for kind_name in sorted(agg):
        kind = agg[kind_name]
        roots, root_ns = kind["roots"], kind["root_ns"]
        if not roots:
            continue
        self_total = sum(entry[2] for entry in kind["by_name"].values())
        timer = ""
        if kind_name in timer_ns:
            gap = timer_ns[kind_name] - root_ns
            timer = (
                f"; plane timer {timer_ns[kind_name] / 1e6:.3f} ms, "
                f"gap {gap / 1e6:.3f} ms ({gap / timer_ns[kind_name]:.2%})"
            )
        print(
            f"# plane {kind_name}: {roots} roots, {root_ns / 1e6:.3f} ms; "
            f"layer self times {self_total / 1e6:.3f} ms + unattributed "
            f"{kind['unattributed_ns'] / 1e6:.3f} ms "
            f"({kind['unattributed_ns'] / root_ns:.1%}){timer}"
        )
        print(f"#   {'span':30} {'calls':>8} {'incl ms':>10} {'self ms':>10} {'self %':>7} {'amount':>10}")
        for name, (count, incl, self_ns, amt) in sorted(
            kind["by_name"].items(), key=lambda item: -item[1][2]
        ):
            print(
                f"#   {name:30} {count:8d} {incl / 1e6:10.3f} {self_ns / 1e6:10.3f} "
                f"{self_ns / root_ns:7.1%} {amt:10d}"
            )
