"""The ``loopback`` workload: UDT over real UDP sockets on 127.0.0.1.

A closed loop of fixed-size transfers, one connection at a time: create
two :class:`~repro.live.transport.LiveUdtEndpoint` objects and complete
the handshake (timed as set-up), ship one payload client to server (timed
as the transfer), close both endpoints and wait for their threads, then
start the next.  Every transfer is kept, with no retry and no outlier
filter; a transfer that times out or arrives altered is a failed
operation and ends the loop.  The endpoints' own threads (a receive
thread and a timer thread each) belong to the program; the benchmark
adds none.  perfbench/README.md says why each connection carries one
transfer.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.live.transport import LiveUdtEndpoint
from repro.udt.params import UdtConfig

#: Payload of one transfer.
PAYLOAD_BYTES = 256 * 1024
#: Payload of the stall probe's transfers (layer-timing run only): large
#: enough that the first burst overflows the receiver's socket buffer,
#: so loss recovery and, now and then, the pre-RTT EXP timeout run.
PROBE_BYTES = 1024 * 1024
PROBE_TRANSFERS = 12
#: Distinct seeded payloads cycled through, so stale or misrouted bytes
#: from the previous transfer fail the comparison.
N_PAYLOADS = 4
#: A transfer not complete after this long is a failed operation.
TIMEOUT_S = 10.0


def open_pair() -> Tuple[LiveUdtEndpoint, LiveUdtEndpoint, float]:
    """Create both endpoints and complete the handshake; (server, client, seconds)."""
    t0 = time.perf_counter()
    server = LiveUdtEndpoint(("127.0.0.1", 0))
    server.listen()
    client = LiveUdtEndpoint(("127.0.0.1", 0))
    client.connect(server.local_addr)
    return server, client, time.perf_counter() - t0


def close_pair(server: LiveUdtEndpoint, client: LiveUdtEndpoint) -> None:
    """Close both endpoints and wait for their threads to end."""
    for ep in (client, server):
        ep.close()
    for ep in (client, server):
        ep._rx_thread.join(timeout=2.0)
        ep._sched._thread.join(timeout=2.0)


def packets_per_transfer(nbytes: int) -> int:
    return math.ceil(nbytes / UdtConfig().payload_size)


def timer_cpu_s(eps: Tuple[LiveUdtEndpoint, ...]) -> float:
    """CPU seconds used so far by the endpoints' timer threads."""
    return sum(
        time.clock_gettime(time.pthread_getcpuclockid(ep._sched._thread.ident))
        for ep in eps
    )


@dataclass
class Section:
    """A stretch of the closed loop.  Times and CPU cover the transfers only."""

    times: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    timer_cpu_s: float = 0.0
    packets: int = 0
    data_sent: int = 0
    retransmitted: int = 0
    exp_events: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.times)


def run_section(
    payloads: List[bytes],
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    prepare: Optional[Callable[[LiveUdtEndpoint, LiveUdtEndpoint], None]] = None,
) -> Section:
    """Loop until ``seconds`` have passed or ``count`` transfers are done.

    ``prepare(server, client)`` runs on each new pair before its transfer
    (the layer-timing run wraps the sockets there).
    """
    sec = Section()
    start = time.perf_counter()
    i = 0
    while not sec.failures:
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        payload = payloads[i % len(payloads)]
        i += 1
        try:
            server, client, setup = open_pair()
        except TimeoutError as exc:
            sec.failures.append(f"connection {i}: {exc}")
            continue
        sec.setup.append(setup)
        try:
            if prepare is not None:
                prepare(server, client)
            eps = (server, client)
            timer0 = timer_cpu_s(eps)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                client.send(payload, timeout=TIMEOUT_S)
                got = server.recv_exactly(len(payload), timeout=TIMEOUT_S)
            except TimeoutError as exc:
                sec.failures.append(f"transfer {i}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            sec.cpu_s += time.process_time() - c0
            sec.timer_cpu_s += timer_cpu_s(eps) - timer0
            if got != payload:
                sec.failures.append(f"transfer {i}: payload differs")
                continue
            sec.times.append(elapsed)
            sec.packets += packets_per_transfer(len(payload))
            st = client.core.stats
            sec.data_sent += st.data_pkts_sent
            sec.retransmitted += st.retransmitted_pkts
            sec.exp_events += st.exp_events + server.core.stats.exp_events
        finally:
            close_pair(server, client)
    return sec


class LockedSink:
    """Serialises bus events from the endpoints' threads into one writer.

    Live cores emit from four threads under two different locks; the
    trace writer expects one caller at a time.
    """

    def __init__(self, on_event: Callable):
        self._on_event = on_event
        self._lock = threading.Lock()
        self._closed = False

    def __call__(self, ev: object) -> None:
        with self._lock:
            if not self._closed:
                self._on_event(ev)

    def close(self, close_writer: Callable[[], None]) -> None:
        """Stop forwarding, then close the writer.

        An emit already past the bus's subscriber list when the sink was
        unsubscribed can still arrive; it is dropped instead of reaching
        a closed writer.
        """
        with self._lock:
            self._closed = True
            close_writer()
