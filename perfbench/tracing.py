"""Spans around the program's public functions, recorded from outside.

:func:`instrument` wraps each function named in :data:`TARGETS` for the
duration of a ``with`` block and restores the originals afterwards; no
program file changes.  A span is ``[name, start_ns, end_ns, parent,
root, amount]``: ``parent`` and ``root`` index the enclosing span and
the root span (one burst, one packet or one request, opened by the
planes with :meth:`Tracer.open_root`), ``amount`` a per-call size (EphIDs
opened, bytes tagged, IPC bytes).  Spans stay in memory and are written
out once, by :meth:`Tracer.write`.

Self time is a span's duration minus the durations of its child spans
(children nest inside their parent and never overlap, which
:func:`nesting_errors` checks).  A root's self time is the time no layer
span covers: the benchmark's own loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.core.border_router import BorderRouter
from repro.core.certs import EphIdCertificate
from repro.core.ephid import EphIdCodec
from repro.core.management import ManagementService
from repro.core.replay_filter import RotatingReplayFilter
from repro.crypto.aead import EtmScheme
from repro.crypto.cmac import Cmac
from repro.sharding import wire as shard_wire
from repro.sharding.plan import ShardPlan
from repro.sharding.pool import ShardedDataPlane, ShardProcessPool
from repro.state import ColumnarHostDatabase, ColumnarRevocationList
from repro.wire.apna import ApnaPacket

_ns = time.perf_counter_ns

NAME, START, END, PARENT, ROOT, AMOUNT = range(6)


def _one(args, result) -> int:
    return 1


def _arg_len(args, result) -> int:
    return len(args[1])


def _arg_total_len(args, result) -> int:
    return sum(map(len, args[1]))


def _send_len(args, result) -> int:
    return len(args[2])


def _result_len(args, result) -> int:
    return len(result)


#: (owner, attribute, span name, amount function or None).  The span name
#: is ``<layer>.<function>``; the layer is the module the function lives in.
TARGETS = (
    (ApnaPacket, "from_wire", "wire.from_wire", None),
    (EphIdCodec, "open_batch", "ephid.open_batch", _arg_len),
    (EphIdCodec, "open", "ephid.open", _one),
    (EphIdCodec, "seal", "ephid.seal", None),
    (Cmac, "__init__", "cmac.init", None),
    (Cmac, "tag_many", "cmac.tag_many", _arg_total_len),
    (Cmac, "tag", "cmac.tag", _arg_len),
    (ColumnarHostDatabase, "is_valid", "state.is_valid", None),
    (ColumnarHostDatabase, "revoke_hid", "state.revoke_hid", None),
    (ColumnarRevocationList, "contains", "state.contains", None),
    (ColumnarRevocationList, "add", "state.add", None),
    (ColumnarRevocationList, "maybe_prune", "state.maybe_prune", None),
    (RotatingReplayFilter, "observe", "replay.observe", None),
    (BorderRouter, "process_mixed_batch", "br.process_mixed_batch", None),
    (BorderRouter, "process_outgoing", "br.process_outgoing", None),
    (BorderRouter, "process_incoming", "br.process_incoming", None),
    (ShardPlan, "owners_of_iv_bytes", "shard.owners_of_iv_bytes", _arg_len),
    (shard_wire, "encode_burst", "shard.encode_burst", None),
    (shard_wire, "decode_verdicts", "shard.decode_verdicts", None),
    (ShardProcessPool, "send_bytes", "shard.send_bytes", _send_len),
    (ShardProcessPool, "recv_bytes", "shard.recv_bytes", _result_len),
    (ShardedDataPlane, "submit", "shard.submit", None),
    (ShardedDataPlane, "collect", "shard.collect", None),
    (ManagementService, "handle_request", "ms.handle_request", None),
    (EtmScheme, "open", "aead.open", None),
    (EtmScheme, "seal", "aead.seal", None),
    (EphIdCertificate, "issue", "certs.issue", None),
)


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []

    def open_root(self, plane: str, op_id: int, amount: int) -> None:
        """Open a root span: one burst, packet, request or control step."""
        self._stack.append(len(self.spans))
        self.spans.append(["root." + plane, _ns(), 0, -1, op_id, amount])

    def close_root(self) -> None:
        self.spans[self._stack.pop()][END] = _ns()

    def _wrap(self, func, name: str, amount):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                # Outside any root (set-up, bookkeeping): not recorded.
                return func(*args, **kwargs)
            parent = stack[-1]
            span = [name, _ns(), 0, parent, spans[parent][ROOT], 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = _ns()
                stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def write(self, path) -> None:
        """One tab-separated line per span, in start order."""
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top_id\tamount\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every :data:`TARGETS` function for the block's duration."""
    saved = []
    try:
        for owner, attr, name, amount in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(tracer._wrap(raw.__func__, name, amount))
            else:
                patched = tracer._wrap(raw, name, amount)
            saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def aggregate(spans) -> "dict[str, dict]":
    """Per root kind (``batch``, ``single``, ``sharded.submit``, ...):
    root count, root time, amount, unattributed (root self) time, and per
    span name ``[calls, inclusive_ns, self_ns, amount]``."""
    n = len(spans)
    child_ns = [0] * n
    root_of = [0] * n
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent < 0:
            root_of[i] = i
        else:
            root_of[i] = root_of[parent]
            child_ns[parent] += span[END] - span[START]
    out: "dict[str, dict]" = {}
    for i, span in enumerate(spans):
        root = spans[root_of[i]]
        kind = out.setdefault(
            root[NAME][len("root."):],
            {"roots": 0, "root_ns": 0, "amount": 0, "unattributed_ns": 0, "by_name": {}},
        )
        duration = span[END] - span[START]
        self_ns = duration - child_ns[i]
        if span[PARENT] < 0:
            kind["roots"] += 1
            kind["root_ns"] += duration
            kind["amount"] += span[AMOUNT]
            kind["unattributed_ns"] += self_ns
            continue
        entry = kind["by_name"].setdefault(span[NAME], [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_ns
        entry[3] += span[AMOUNT]
    return out


def nesting_errors(spans) -> int:
    """Spans that end before they start, lie outside their parent's
    ``[start, end]``, or start before the previous span of the same parent
    (roots included) ended: from the raw timestamps alone."""
    errors = 0
    last_end: "dict[int, int]" = {}
    for span in spans:
        parent = span[PARENT]
        bad = span[END] < span[START] or span[START] < last_end.get(parent, 0)
        if parent >= 0:
            outer = spans[parent]
            bad = bad or span[START] < outer[START] or span[END] > outer[END]
        errors += bad
        last_end[parent] = span[END]
    return errors
