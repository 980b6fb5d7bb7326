"""The four planes, each driven through its public entry point.

Every loop is closed with one client: the next burst (or packet, or
request) is offered only after the previous one's verdicts (or reply)
came back -- except the sharded plane, which keeps a fixed number of
bursts in flight (``DEPTH``) and offers the next one when the oldest
is collected.

Verdicts and replies are checked against the expected outcomes as they
come back, outside the timed regions.  A plane that raises counts every
operation of the failed burst or request as failed.
"""

from __future__ import annotations

import gc
import hashlib
import math
import struct
import sys
import time
from array import array
from collections import deque
from statistics import median

from repro.core.border_router import BorderRouter
from repro.core.errors import ApnaError
from repro.core.messages import EphIdReply
from repro.core.replay_filter import RotatingReplayFilter
from repro.crypto.aead import EtmScheme
from repro.wire.apna import ApnaPacket

#: Bursts in flight on the sharded plane.
DEPTH = 4

_ns = time.perf_counter_ns
_cpu_ns = time.process_time_ns


class Tally:
    """Operations offered, and those whose outcome was not the expected one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: "list[str]" = []

    def fail(self, plane: str, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.examples) < 8:
            self.examples.append(f"{plane}: {what}")

    def check_burst(self, plane: str, burst, verdicts) -> None:
        expected = burst.expected
        self.attempted += len(expected)
        if isinstance(verdicts, Exception):
            self.fail(plane, f"burst {burst.index} raised {verdicts!r}", len(expected))
            return
        if len(verdicts) != len(expected):
            self.fail(
                plane,
                f"burst {burst.index}: {len(verdicts)} verdicts for {len(expected)} frames",
                len(expected),
            )
            return
        for i, (want, got) in enumerate(zip(expected, verdicts)):
            if got != want:
                self.fail(plane, f"burst {burst.index} frame {i}: expected {want}, got {got}")


class Clock:
    """The in-process routers' clock, set to each burst's simulated time."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def apply_revocations(asys, burst, tracer=None) -> None:
    """The burst's scheduled EphID and HID revocations, through the AS's
    own stores (whose hooks forward them to the shard workers)."""
    if tracer is not None:
        tracer.open_root("control", burst.index, 0)
    for ephid, exp_time in burst.revoke_ephids:
        asys.revocations.add(ephid, exp_time)
    for hid in burst.revoke_hids:
        asys.hostdb.revoke_hid(hid)
    if tracer is not None:
        tracer.close_root()


#: Iterations of the reference computation (~5 ms on a 2-CPU cloud VM),
#: and its nominal duration: the speed every timing is normalised to.
REF_ITERATIONS = 4000
REF_NOMINAL_NS = 5_000_000


def reference_ns() -> int:
    """Duration of a fixed computation that is not the program's (bytes
    slicing, a dict, ``struct``, SHA-256 through OpenSSL).  Timed before
    and after every measured segment, it tells how fast the host ran
    during that segment; see :meth:`Plane.calibrated_segment`.

    The cyclic collector is off while it runs, so garbage the program
    left behind is never collected on the reference's time.
    """
    seen = {}
    gc.disable()
    try:
        t0 = _ns()
        for i in range(REF_ITERATIONS):
            block = i.to_bytes(16, "little")
            seen[block[:4]] = struct.unpack_from(">I", block, 4)[0] ^ i
            hashlib.sha256(block).digest()
        return _ns() - t0
    finally:
        gc.enable()


def host_speed_factor() -> float:
    """How slow the host runs now: the reference computation's duration
    over its nominal one (> 1 when slow)."""
    return reference_ns() / REF_NOMINAL_NS


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Plane:
    """Common bookkeeping: latency samples and per-round throughput."""

    name = ""

    def __init__(self, wl, tally: Tally, tracer=None) -> None:
        self.wl = wl
        self.tally = tally
        self.tracer = tracer
        self.latency_ns = array("q")
        #: (operations, nanoseconds) per measured segment.
        self.rounds: "list[tuple[int, int]]" = []
        #: Per measured segment: (speed factor, first and end index of its
        #: latency samples); see :meth:`calibrated_segment`.
        self.factors: "list[tuple[float, int, int]]" = []
        self.exhausted = False

    def calibrated_segment(self, budget_s: float) -> None:
        """One timed segment bracketed by the reference computation.

        The factor ``reference time / nominal reference time`` is > 1
        when the host ran slow; normalised rates are multiplied by it and
        normalised latencies divided by it, so a host-wide slowdown that
        hits the program and the reference alike cancels out.  Only the
        single-process planes are measured this way, with the AS's shard
        pool stopped (see ``run.py``): no process of the program runs
        beside the reference, so the program cannot slow it down.
        """
        before = host_speed_factor()
        start = len(self.latency_ns)
        self.segment(budget_s=budget_s)
        factor = (before + host_speed_factor()) / 2
        self.factors.append((factor, start, len(self.latency_ns)))

    def rate(self, normalised: bool = True) -> float:
        """Median over segments of operations per second."""
        factors = [f for f, _, _ in self.factors] if normalised else [1.0] * len(self.rounds)
        rates = [ops * 1e9 / ns * f for (ops, ns), f in zip(self.rounds, factors) if ops and ns]
        return median(rates) if rates else 0.0

    def latency_us(self, normalised: bool = True) -> "tuple[float, float, int]":
        """(p50, p99, sample count) in microseconds.

        Each percentile is taken within every measured segment (one per
        round) and the median over segments is reported, so a slow spell
        on the host that spoils a few rounds does not move the tail.
        """
        samples = self.latency_ns
        p50s, p99s = [], []
        for factor, start, end in self.factors:
            if end > start:
                values = sorted(samples[start:end])
                scale = 1e3 * (factor if normalised else 1.0)
                p50s.append(percentile(values, 0.5) / scale)
                p99s.append(percentile(values, 0.99) / scale)
        if not p50s:
            return 0.0, 0.0, 0
        return median(p50s), median(p99s), sum(end - start for _, start, end in self.factors)

    def speed_factor(self) -> float:
        """Median host speed factor over this plane's segments."""
        return median(f for f, _, _ in self.factors) if self.factors else 1.0

    @staticmethod
    def _until(budget_s, count):
        """A predicate that says when a segment is over: after ``count``
        operations when given, else once ``budget_s`` has elapsed."""
        if count is not None:
            left = [count]

            def more() -> bool:
                left[0] -= 1
                return left[0] >= 0

            return more
        deadline = time.perf_counter() + budget_s

        def more() -> bool:
            return time.perf_counter() < deadline

        return more


class _RouterPlane(Plane):
    """In-process planes: a router over the AS's own state.

    Cold workloads get a fresh router (empty CMAC cache, empty replay
    filter) at every segment and replay the bursts from the first, so no
    source sends twice to one router; long-lived workloads keep one
    warmed router and cycle through their bursts.
    """

    def __init__(self, wl, tally: Tally, tracer=None) -> None:
        super().__init__(wl, tally, tracer)
        self.clock = Clock()
        self.router = None
        self.pos = 0

    def new_router(self) -> BorderRouter:
        cfg, asys = self.wl.config, self.wl.asys
        replay_filter = None
        if cfg.in_network_replay_filter:
            replay_filter = RotatingReplayFilter(
                window=cfg.replay_filter_window,
                bits_per_generation=cfg.replay_filter_bits,
            )
        return BorderRouter(
            asys.aid,
            asys.codec,
            asys.hostdb,
            asys.revocations,
            self.clock,
            packet_mac_size=cfg.packet_mac_size,
            replay_filter=replay_filter,
        )

    def warm(self) -> None:
        router = self.router = self.new_router()
        for burst in self.wl.warm_bursts:
            apply_revocations(self.wl.asys, burst)
            self.tally.check_burst(self.name, burst, self.run_burst(router, burst))

    def segment(self, budget_s: "float | None" = None, count: "int | None" = None) -> None:
        wl = self.wl
        if not wl.cycle:
            self.router, self.pos = self.new_router(), 0
        router, bursts = self.router, wl.bursts
        more = self._until(budget_s, count)
        ops = busy = 0
        while more():
            if self.pos >= len(bursts):
                if not wl.cycle:
                    self.exhausted = True
                    break
                self.pos = 0
            burst = bursts[self.pos]
            self.pos += 1
            if burst.revoke_ephids or burst.revoke_hids:
                apply_revocations(wl.asys, burst, self.tracer)
            t0 = _ns()
            try:
                verdicts = self.run_burst(router, burst)
            except Exception as exc:  # counted as a failed burst
                verdicts = exc
            busy += _ns() - t0
            ops += len(burst.frames)
            self.tally.check_burst(self.name, burst, verdicts)
        self.rounds.append((ops, busy))


class BatchPlane(_RouterPlane):
    """``BorderRouter.process_mixed_batch`` over frames parsed with
    ``ApnaPacket.from_wire``: wire bytes of one burst in, its verdicts out."""

    name = "batch"

    def __init__(self, wl, tally: Tally, tracer=None) -> None:
        super().__init__(wl, tally, tracer)
        #: When set, bursts also count the pymalloc blocks still live at
        #: burst end (parsed packets and verdicts); not for timed runs.
        self.count_blocks = False
        self.blocks = self.block_pkts = 0

    def run_burst(self, router, burst):
        self.clock.now = burst.now
        parse = ApnaPacket.from_wire
        with_nonce = self.wl.with_nonce
        if self.count_blocks:
            before = sys.getallocatedblocks()
            packets = [parse(frame, with_nonce=with_nonce) for frame in burst.frames]
            verdicts = router.process_mixed_batch(packets, burst.egress)
            self.blocks += sys.getallocatedblocks() - before
            self.block_pkts += len(packets)
            return verdicts
        tracer = self.tracer
        t0 = _ns()
        if tracer is not None:
            tracer.open_root("batch", burst.index, len(burst.frames))
        verdicts = router.process_mixed_batch(
            [parse(frame, with_nonce=with_nonce) for frame in burst.frames],
            burst.egress,
        )
        if tracer is not None:
            tracer.close_root()
        self.latency_ns.append(_ns() - t0)
        return verdicts


class SinglePlane(_RouterPlane):
    """One frame in, one verdict out: ``process_outgoing`` for egress
    frames, ``process_incoming`` for ingress ones."""

    name = "single"

    def run_burst(self, router, burst):
        self.clock.now = burst.now
        parse = ApnaPacket.from_wire
        with_nonce = self.wl.with_nonce
        outgoing, incoming = router.process_outgoing, router.process_incoming
        tracer = self.tracer
        latency = self.latency_ns
        verdicts = []
        for frame, out in zip(burst.frames, burst.egress):
            t0 = _ns()
            if tracer is not None:
                tracer.open_root("single", burst.index, 1)
            packet = parse(frame, with_nonce=with_nonce)
            verdicts.append(outgoing(packet) if out else incoming(packet))
            if tracer is not None:
                tracer.close_root()
            latency.append(_ns() - t0)
        return verdicts


class ShardedPlane(Plane):
    """``ShardedDataPlane`` (2 shards) driven by ``submit``/``collect``
    with ``DEPTH`` bursts in flight.  Traced runs only (see ``run.py``).

    Its workers keep their caches for their whole life, so the bursts are
    offered once each, in order, across segments.  Long-lived workloads
    cycle through them; on cold ones the plane stops when they run out.
    """

    name = "sharded2"

    def __init__(self, wl, tally: Tally, tracer=None) -> None:
        super().__init__(wl, tally, tracer)
        self.plane = wl.asys.shard_pool
        self.pos = 0
        #: Dispatcher CPU time spent inside ``submit`` and ``collect``.
        self.cpu_ns = 0

    def warm(self) -> None:
        self._run(self.wl.warm_bursts, 0, lambda: True, record=False)

    def segment(self, budget_s: "float | None" = None, count: "int | None" = None) -> None:
        self.pos = self._run(self.wl.bursts, self.pos, self._until(budget_s, count), record=True)

    def _run(self, bursts, pos: int, more, *, record: bool) -> int:
        tracer, latency = self.tracer, self.latency_ns
        inflight: deque = deque()
        # Time spent outside the plane (revocations, checking verdicts)
        # is left out of the segment's duration.
        outside_ns = ops = 0

        def check(burst, verdicts) -> None:
            nonlocal outside_ns
            c0 = _ns()
            self.tally.check_burst(self.name, burst, verdicts)
            outside_ns += _ns() - c0

        def collect_one() -> None:
            burst, t0, ticket = inflight.popleft()
            if tracer is not None:
                tracer.open_root("sharded.collect", burst.index, 0)
            cpu0 = _cpu_ns()
            try:
                verdicts = self.plane.collect(ticket)
            except Exception as exc:  # counted as a failed burst
                verdicts = exc
            self.cpu_ns += _cpu_ns() - cpu0
            if tracer is not None:
                tracer.close_root()
            if record:
                latency.append(_ns() - t0)
            check(burst, verdicts)

        start = _ns()
        while more():
            if pos >= len(bursts):
                if not (record and self.wl.cycle):
                    # Warm-up is over, or one-shot timed inputs ran out.
                    self.exhausted = record
                    break
                pos = 0
            burst = bursts[pos]
            pos += 1
            if burst.revoke_ephids or burst.revoke_hids:
                # Control traffic needs an empty pipeline.
                while inflight:
                    collect_one()
                c0 = _ns()
                apply_revocations(self.wl.asys, burst, tracer)
                outside_ns += _ns() - c0
            t0 = _ns()
            if tracer is not None:
                tracer.open_root("sharded.submit", burst.index, len(burst.frames))
            cpu0 = _cpu_ns()
            try:
                ticket = self.plane.submit(burst.frames, burst.egress, burst.now)
            except Exception as exc:  # counted as a failed burst
                ticket = exc
            self.cpu_ns += _cpu_ns() - cpu0
            if tracer is not None:
                tracer.close_root()
            ops += len(burst.frames)
            if isinstance(ticket, Exception):
                check(burst, ticket)
                continue
            inflight.append((burst, t0, ticket))
            if len(inflight) >= DEPTH:
                collect_one()
        while inflight:
            collect_one()
        if record:
            self.rounds.append((ops, _ns() - start - outside_ns))
        return pos


class IssuancePlane(Plane):
    """``ManagementService.handle_request``: one sealed request in, one
    sealed reply out.  Each reply must open under the requesting host's
    control key and carry an EphID that opens to that host's HID."""

    name = "issuance"

    def __init__(self, wl, tally: Tally, tracer=None) -> None:
        super().__init__(wl, tally, tracer)
        self.ms = wl.asys.ms
        self.pos = 0
        self._schemes: "dict[int, EtmScheme]" = {}

    def warm(self) -> None:
        for request in self.wl.warm_requests:
            try:
                reply = self.ms.handle_request(request.src_ephid, request.sealed)
            except Exception as exc:  # counted as a failed operation
                reply = exc
            self.check(request, reply)

    def segment(self, budget_s: "float | None" = None, count: "int | None" = None) -> None:
        wl, ms, tracer, latency = self.wl, self.ms, self.tracer, self.latency_ns
        requests = wl.requests
        more = self._until(budget_s, count)
        ops = busy = 0
        while more():
            if self.pos >= len(requests):
                if not wl.cycle:
                    self.exhausted = True
                    break
                self.pos = 0
            request = requests[self.pos]
            self.pos += 1
            t0 = _ns()
            if tracer is not None:
                tracer.open_root("issuance", self.pos, 1)
            try:
                reply = ms.handle_request(request.src_ephid, request.sealed)
            except Exception as exc:  # counted as a failed operation
                reply = exc
            if tracer is not None:
                tracer.close_root()
            elapsed = _ns() - t0
            latency.append(elapsed)
            busy += elapsed
            ops += 1
            self.check(request, reply)
        self.rounds.append((ops, busy))

    def check(self, request, reply) -> None:
        tally = self.tally
        tally.attempted += 1
        if isinstance(reply, Exception):
            tally.fail(self.name, f"request from HID {request.hid} raised {reply!r}")
            return
        scheme = self._schemes.get(request.hid)
        if scheme is None:
            scheme = self._schemes[request.hid] = EtmScheme(request.control_key)
        try:
            plain = scheme.open(reply[:12], reply[12:], b"ephid-reply")
            cert = EphIdReply.parse(plain).cert
            info = self.wl.asys.codec.open(cert.ephid)
        except (ValueError, ApnaError) as exc:
            tally.fail(self.name, f"reply to HID {request.hid} does not open: {exc!r}")
            return
        if info.hid != request.hid or info.exp_time != cert.exp_time:
            tally.fail(
                self.name,
                f"reply to HID {request.hid} carries an EphID for HID {info.hid}",
            )


PLANES = (BatchPlane, SinglePlane, ShardedPlane, IssuancePlane)
