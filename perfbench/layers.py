"""Layer timing from outside the program.

:class:`SpanRecorder` wraps public entry points of each layer with a
function that records one span per call: name, parent span, start, end
and self time.  Spans stay in memory (flat ``array`` columns, ~40 bytes
per span) and are written out once, after the run, by :meth:`dump`.

Self time is a span's duration minus the time its child spans cover.  A
child's cover runs from its entry to the end of its own bookkeeping, so
the recorder's cost for a child is charged to the child, not to the
parent: the parent's self time is the layer's own work plus one clock
read.

:func:`install` patches the entry points named in perfbench/README.md
and returns a function that restores them.  The patches change no
behaviour: every wrapper calls the original with the same arguments and
returns its result, so a wrapped simulation must reproduce the untraced
run's ``sim_digest`` exactly (the benchmark checks it).
"""

from __future__ import annotations

import itertools
import json
import threading
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

class SpanRecorder:
    """In-memory span store plus call counters, safe across threads."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        #: plain call counters for entry points timed too often to span
        #: (engine scheduling) and for per-call sizes (NAK ranges).
        self.counts: Dict[str, int] = defaultdict(int)
        self._bases: List[list] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            # Bottom frame: accumulates the cover of this thread's root spans.
            stack = self._tls.stack = [[-1, 0.0]]
            with self._lock:
                self._bases.append(stack[0])
        return stack

    def root_cover(self) -> float:
        """Seconds covered by root spans, summed over threads."""
        return sum(base[1] for base in self._bases)

    def wrap(self, fn: Callable, name: str, name_of: Callable = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``name_of(*args)``, when given, picks the span name per call (used
        to split ``on_datagram`` into data and control).
        """
        clock = self.clock
        ids = self._ids
        stack_of = self._stack
        record = self._record
        fixed = self.name_id(name)
        name_id = self.name_id

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nid = fixed if name_of is None else name_id(name_of(*args))
            stack = stack_of()
            parent = stack[-1]
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record(frame[0], parent[0], nid, t0, t1, t1 - t0 - frame[1])
                parent[1] += clock() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(
        self, sid: int, parent: int, nid: int, t0: float, t1: float, own: float
    ) -> None:
        with self._lock:
            self.span_id.append(sid)
            self.parent.append(parent)
            self.name.append(nid)
            self.start.append(t0)
            self.end.append(t1)
            self.self_time.append(own)

    def __len__(self) -> int:
        return len(self.span_id)

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}``."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, t in zip(self.name, self.self_time):
            calls[nid] += 1
            own[nid] += t
        return {n: (calls[i], own[i]) for i, n in enumerate(self.names) if calls[i]}

    def dump(self, path: str) -> int:
        """Write the spans: a JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "spans": len(self),
            "columns": [
                ["span_id", "q"], ["parent", "q"], ["name", "i"],
                ["start", "d"], ["end", "d"], ["self", "d"],
            ],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (
                self.span_id, self.parent, self.name,
                self.start, self.end, self.self_time,
            ):
                col.tofile(fh)
            return fh.tell()


def _patch(patches: list, owner: Any, attr: str, new: Any) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def _wrap_method(rec: SpanRecorder, patches: list, cls: type, attr: str, name: str) -> None:
    _patch(patches, cls, attr, rec.wrap(getattr(cls, attr), name))


def _wrap_callback_arg(rec: SpanRecorder, patches: list, cls: type, attr: str) -> None:
    """Patch ``cls.attr(self, time, fn)`` so the callback runs in a span."""
    orig = getattr(cls, attr)
    wrap = rec.wrap

    def scheduling(self: Any, time: float, fn: Callable) -> Any:
        return orig(self, time, wrap(fn, "core.timer"))

    _patch(patches, cls, attr, scheduling)


def _count_calls(rec: SpanRecorder, patches: list, cls: type, attr: str, key: str) -> None:
    orig = getattr(cls, attr)
    counts = rec.counts

    def counted(*args: Any) -> Any:
        counts[key] += 1
        return orig(*args)

    _patch(patches, cls, attr, counted)


def _datagram_kind(core: Any, msg: Any, size: int = 0) -> str:
    kind = msg.type_name
    if kind == "data":
        return "core.data"
    if kind in ("ack", "ack2", "nak"):
        return "core.ctrl"
    return "core.other"


def install(rec: SpanRecorder, live: bool = False) -> Callable[[], None]:
    """Wrap every layer entry point; returns the undo function.

    Simulation runs get the engine, link, scheduler and TCP wrappers;
    ``live=True`` swaps those for the live endpoint's scheduler and the
    packet codec (the socket is wrapped per endpoint by :class:`TimedSocket`).
    """
    from repro.udt import core as core_mod
    from repro.udt import packets as P
    from repro.udt.cc import UdtNativeCC
    from repro.udt.core import UdtCore
    from repro.udt.losslist import ReceiverLossList, SenderLossList

    patches: list = []
    _patch(
        patches, UdtCore, "on_datagram",
        rec.wrap(UdtCore.on_datagram, "core.data", name_of=_datagram_kind),
    )
    for meth in ("insert", "remove_upto", "pop", "peek"):
        _wrap_method(rec, patches, SenderLossList, meth, f"losslist.snd_{meth}")
    for meth in ("insert", "remove", "remove_upto", "first", "expired_ranges"):
        _wrap_method(rec, patches, ReceiverLossList, meth, f"losslist.rcv_{meth}")
    for meth in ("on_ack", "on_loss", "on_timeout"):
        _wrap_method(rec, patches, UdtNativeCC, meth, f"cc.{meth}")

    encode = rec.wrap(core_mod.nak_encode, "nakcodec.encode")
    decode = rec.wrap(core_mod.nak_decode, "nakcodec.decode")
    counts = rec.counts

    def nak_encode(ranges: Any) -> Any:
        ranges = list(ranges)
        counts["nakcodec.ranges"] += len(ranges)
        return encode(ranges)

    def nak_decode(words: Any) -> Any:
        out = decode(words)
        counts["nakcodec.ranges"] += len(out)
        return out

    _patch(patches, core_mod, "nak_encode", nak_encode)
    _patch(patches, core_mod, "nak_decode", nak_decode)

    if live:
        from repro.live.transport import _ThreadScheduler

        _wrap_callback_arg(rec, patches, _ThreadScheduler, "call_at")
        _patch(patches, P, "decode", rec.wrap(P.decode, "codec.decode"))
        _wrap_method(rec, patches, P.DataPacket, "encode", "codec.encode")
        _wrap_method(rec, patches, P.ControlPacket, "encode", "codec.encode")
    else:
        from repro.sim.engine import Event, Simulator
        from repro.sim.link import Link
        from repro.tcp.agent import TcpSender, TcpSink
        from repro.udt.sim_adapter import SimScheduler

        _wrap_method(rec, patches, Link, "send", "link.send")
        _wrap_callback_arg(rec, patches, SimScheduler, "call_at")
        _wrap_callback_arg(rec, patches, SimScheduler, "post_at")
        for meth in ("start", "_on_ack", "_on_rto"):
            _wrap_method(rec, patches, TcpSender, meth, f"tcp.snd{meth}")
        _wrap_method(rec, patches, TcpSink, "_on_data", "tcp.rcv_on_data")
        for meth in ("schedule", "schedule_at", "post", "post_at"):
            _count_calls(rec, patches, Simulator, meth, "engine.scheduled")
        _count_calls(rec, patches, Event, "cancel", "engine.cancelled")

    def undo() -> None:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)

    return undo


class TimedSocket:
    """A live endpoint's UDP socket with ``sendto``/``recvfrom`` spans."""

    def __init__(self, sock: Any, rec: SpanRecorder):
        self._sock = sock
        self.sendto = rec.wrap(sock.sendto, "udp.sendto")
        self.recvfrom = rec.wrap(sock.recvfrom, "udp.recvfrom")

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._sock, attr)
