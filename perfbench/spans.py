"""In-memory span recorder and the layer wrappers of the traced pass.

A span is ``(id, name, start, end, parent, rid)``.  ``parent`` is set
only when the span opened inside another span *of the same asyncio
task*; spans of one request that cross the wire share only ``rid``.
Wrappers are installed around the public entry points of each layer by
:func:`instrument`, which restores the originals on exit, so the
program under test is never edited and the untraced passes run it
unchanged.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def covered(start: float, end: float, intervals: Sequence[Interval]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanRecorder:
    """Collects spans; computes self time and per-name aggregates."""

    def __init__(self) -> None:
        # id -> [name, start, end, parent, rid]
        self.spans: List[list] = []
        self.values: Dict[str, float] = defaultdict(float)  # summed side values
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def open(self, name: str, rid: Optional[int] = None) -> Tuple[int, contextvars.Token]:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            task = None
        cur = self._current.get()
        parent = cur[1] if cur is not None and cur[0] is task else None
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, rid])
        return sid, self._current.set((task, sid))

    def close(self, handle: Tuple[int, contextvars.Token]) -> None:
        sid, token = handle
        self.spans[sid][2] = time.perf_counter()
        self._current.reset(token)

    def add(self, name: str, start: float, end: float, parent=None, rid=None) -> int:
        """Record a finished span directly (tests, replayed intervals)."""
        self.spans.append([name, start, end, parent, rid])
        return len(self.spans) - 1

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        children: Dict[int, List[Interval]] = defaultdict(list)
        for name, start, end, parent, rid in self.spans:
            if parent is not None and end is not None:
                children[parent].append((start, end))
        out = []
        for sid, (name, start, end, parent, rid) in enumerate(self.spans):
            if end is None:
                out.append(0.0)
                continue
            out.append((end - start) - covered(start, end, children.get(sid, ())))
        return out

    def by_name(self) -> Dict[str, Dict[str, object]]:
        """name -> {count, total, self, durations} over finished spans."""
        selfs = self.self_times()
        agg: Dict[str, Dict[str, object]] = {}
        for sid, (name, start, end, parent, rid) in enumerate(self.spans):
            if end is None:
                continue
            row = agg.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
            row["count"] += 1
            row["total"] += end - start
            row["self"] += selfs[sid]
            row["durations"].append(end - start)
        return agg

    def write(self, path) -> None:
        """One JSON object per span, in open order."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, rid) in enumerate(self.spans):
                if end is None:
                    continue
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "rid": rid}
                    )
                )
                fh.write("\n")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap(rec: SpanRecorder, fn: Callable, name, rid_of) -> Callable:
    """Span around ``fn``; ``name`` is a string or ``(args) -> str``."""
    name_of = name if callable(name) else (lambda args, _n=name: _n)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            handle = rec.open(name_of(args), rid_of(args))
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.close(handle)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = rec.open(name_of(args), rid_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(handle)

    return wrapper


def _rid_of_message(msg) -> Optional[int]:
    return getattr(msg, "request_id", None)


def _rid_of_envelope(envelope) -> Optional[int]:
    if isinstance(envelope, dict):
        return _rid_of_message(envelope.get("body"))
    return None


def _rid_of_probe(probe) -> Optional[int]:
    request = getattr(probe, "request", None)
    return getattr(request, "request_id", None)


@contextlib.contextmanager
def instrument(rec: SpanRecorder) -> Iterator[None]:
    """Install span wrappers on every traced layer; restore on exit."""
    from repro.core.bcp import BCP
    from repro.core.composition import SpiderNet
    from repro.net import codec, peer, transport
    from repro.net.peer import PeerDaemon
    from repro.net.rpc import RpcEndpoint

    encode = transport.encode_frame

    def traced_encode(envelope, *args, **kwargs):
        handle = rec.open("codec.encode", _rid_of_envelope(envelope))
        try:
            frame = encode(envelope, *args, **kwargs)
        finally:
            rec.close(handle)
        rec.values["codec.frames_encoded"] += 1
        rec.values["codec.bytes_encoded"] += len(frame)
        return frame

    decode = transport.decode_frame

    def traced_decode(data):
        handle = rec.open("codec.decode")
        try:
            return decode(data)
        finally:
            rec.close(handle)
            rec.values["codec.frames_decoded"] += 1

    feed = codec.FrameReader.feed

    def traced_feed(self, data):
        handle = rec.open("codec.decode")
        try:
            out = feed(self, data)
        finally:
            rec.close(handle)
        rec.values["codec.frames_decoded"] += len(out)
        return out

    patches = [
        (transport, "encode_frame", traced_encode),
        (transport, "decode_frame", traced_decode),
        (codec.FrameReader, "feed", traced_feed),
        (transport.TcpTransport, "send",
         _wrap(rec, transport.TcpTransport.send, "transport.send",
               lambda a: _rid_of_envelope(a[3]))),
        (RpcEndpoint, "call",
         _wrap(rec, RpcEndpoint.call, lambda a: "rpc.call." + type(a[2]).__name__,
               lambda a: _rid_of_message(a[2]))),
        (PeerDaemon, "start_compose",
         _wrap(rec, PeerDaemon.start_compose, "peer.session",
               lambda a: a[1].request_id)),
        (PeerDaemon, "_lookup",
         _wrap(rec, PeerDaemon._lookup, "directory.lookup",
               lambda a: a[3] if len(a) > 3 else None)),
        (BCP, "_admit",
         _wrap(rec, BCP._admit, "bcp.admit", lambda a: _rid_of_probe(a[1]))),
        (BCP, "_filter_components",
         _wrap(rec, BCP._filter_components, "bcp.filter", lambda a: _rid_of_probe(a[1]))),
        (BCP, "_select_components",
         _wrap(rec, BCP._select_components, "bcp.select", lambda a: _rid_of_probe(a[1]))),
        (BCP, "_final_hop",
         _wrap(rec, BCP._final_hop, "bcp.final_hop", lambda a: _rid_of_probe(a[1]))),
        (peer, "merge_probes",
         _wrap(rec, peer.merge_probes, "selection.merge", lambda a: a[0].request_id)),
        (peer, "select_composition",
         _wrap(rec, peer.select_composition, "selection.select", lambda a: None)),
        (SpiderNet, "compose",
         _wrap(rec, SpiderNet.compose, "strategy.compose", lambda a: a[1].request_id)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
