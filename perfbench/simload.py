"""The three simulated workloads: bulk, contention and hybrid.

Each is a closed batch: build a topology and its flows from the seed, run
the engine on one thread to a fixed virtual horizon, read the results.
:func:`run_batch` returns a :class:`Batch` holding what the benchmark
needs from one run: wall and CPU time, delivered packets counted from the
network's flow monitor (which includes the hybrid tier's analytic
credit), the output checks and the ``sim_digest`` over the simulated
statistics.  Why each workload exists is in perfbench/README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.common import flow_start
from repro.sim.fluid import FIDELITY_ENV
from repro.sim.topology import dumbbell, path_topology
from repro.tcp import start_tcp_flow
from repro.udt import start_udt_flow


@dataclass(frozen=True)
class SimWorkload:
    name: str
    fidelity: str
    horizon: float  # virtual seconds per batch
    build: Callable[[int], "Built"]


@dataclass
class Built:
    net: Any
    bottleneck: Any
    udt: List[Any]
    tcp: List[Any]


def _build_bulk(seed: int) -> Built:
    # The paper's Chicago-Amsterdam path with residual physical loss.
    top = path_topology(1e9, 0.100, loss_rate=1e-5, seed=seed)
    flow = start_udt_flow(top.net, top.src, top.dst, flow_id="udt0")
    return Built(top.net, top.bottleneck, [flow], [])


def _build_contention(seed: int) -> Built:
    # A 50-packet queue is well below the 167-packet BDP: loss is constant.
    d = dumbbell(10, 100e6, 0.020, queue_pkts=50, seed=seed)
    udt = [
        start_udt_flow(d.net, d.sources[i], d.sinks[i], start=flow_start(i), flow_id=f"udt{i}")
        for i in range(8)
    ]
    tcp = [
        start_tcp_flow(d.net, d.sources[i], d.sinks[i], start=flow_start(i), flow_id=f"tcp{i}")
        for i in range(8, 10)
    ]
    return Built(d.net, d.bottleneck, udt, tcp)


def _build_hybrid(seed: int) -> Built:
    # Half-BDP queue: with the default BDP queue the first analytic span
    # starts at 1.7 s or 3.4 s depending on the seed (perfbench/README.md).
    d = dumbbell(8, 1e9, 0.100, queue_pkts=4000, seed=seed)
    udt = [
        start_udt_flow(d.net, d.sources[i], d.sinks[i], start=flow_start(i), flow_id=f"udt{i}")
        for i in range(8)
    ]
    return Built(d.net, d.bottleneck, udt, [])


WORKLOADS: Dict[str, SimWorkload] = {
    w.name: w
    for w in (
        SimWorkload("bulk", "packet", 3.0, _build_bulk),
        SimWorkload("contention", "packet", 5.0, _build_contention),
        SimWorkload("hybrid", "hybrid", 40.0, _build_hybrid),
    )
}


def build(w: SimWorkload, seed: int) -> Tuple[Built, float]:
    """Build the workload's network under its fidelity; returns (built, seconds)."""
    os.environ[FIDELITY_ENV] = w.fidelity
    t0 = time.perf_counter()
    built = w.build(seed)
    return built, time.perf_counter() - t0


@dataclass
class Batch:
    wall_s: float
    cpu_s: float
    delivered_pkts: float
    events: int
    digest: str
    failures: List[str]
    counters: Dict[str, float] = field(default_factory=dict)


def _flow_bytes(built: Built) -> Dict[str, Tuple[int, int, int, int]]:
    """Per flow: (monitor bytes, receiver bytes, fluid credit, payload size)."""
    monitor = built.net.monitor.total_bytes
    credit: Dict[str, int] = {}
    fluid = built.net.fluid
    if fluid is not None:
        for adapter in fluid.flows:
            credit[adapter.flow.flow_id] = adapter._credited
    out = {}
    for f in built.udt:
        out[f.flow_id] = (
            monitor.get(f.flow_id, 0), f.delivered_bytes,
            credit.get(f.flow_id, 0), f.config.payload_size,
        )
    for f in built.tcp:
        out[f.flow_id] = (monitor.get(f.flow_id, 0), f.delivered_bytes, 0, f.config.payload_size)
    return out


def sim_digest(built: Built, flows: Dict[str, Tuple[int, int, int, int]]) -> str:
    """SHA-256 over the simulated statistics a speed-only change must keep."""
    per_flow = {
        f.flow_id: [flows[f.flow_id][0], f.sender.stats.retransmitted_pkts,
                    f.receiver.stats.buffer_drops]
        for f in built.udt
    }
    for f in built.tcp:
        per_flow[f.flow_id] = [flows[f.flow_id][0], f.sender.stats.retransmits]
    state = {
        "events": built.net.sim.events_processed,
        "flows": per_flow,
        "links": {
            link.name: [link.pkts_sent, link.pkts_lost, link.queue.drops]
            for link in built.net.links.values()
        },
    }
    blob = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check(built: Built, w: SimWorkload, flows: Dict[str, Tuple[int, int, int, int]]) -> List[str]:
    """The output checks; each returned string is one failed check."""
    failures = []
    for fid, (mon, rcv, credit, _) in flows.items():
        if mon <= 0:
            failures.append(f"{fid}: no progress")
        if w.fidelity == "packet" and credit:
            failures.append(f"{fid}: fluid credit {credit} under packet fidelity")
        if mon != rcv + credit:
            failures.append(f"{fid}: monitor {mon} != receiver {rcv} + fluid {credit}")
    goodput = sum(v[0] for v in flows.values()) * 8.0 / w.horizon
    if goodput > built.bottleneck.rate_bps:
        failures.append(f"goodput {goodput:.0f} b/s above bottleneck {built.bottleneck.rate_bps:.0f}")
    return failures


def counters(built: Built) -> Dict[str, float]:
    """Per-layer work counts read from the program's public counters."""
    udt_sent = sum(f.sender.stats.data_pkts_sent for f in built.udt)
    udt_retx = sum(f.sender.stats.retransmitted_pkts for f in built.udt)
    tcp_sent = sum(f.sender.stats.segs_sent for f in built.tcp)
    tcp_retx = sum(f.sender.stats.retransmits for f in built.tcp)
    q = built.bottleneck.queue
    fluid = built.net.fluid
    return {
        "udt_data_sent": udt_sent,
        "udt_retx": udt_retx,
        "tcp_segs_sent": tcp_sent,
        "tcp_retx": tcp_retx,
        "queue_drops": q.drops,
        "queue_pushes": q.enqueued + q.drops,
        "fluid_spans": fluid.spans if fluid else 0,
        "fluid_aborts": fluid.aborts if fluid else 0,
        "fluid_time": fluid.fluid_time if fluid else 0.0,
    }


def run_batch(
    w: SimWorkload, seed: int, built: Optional[Built] = None,
    around: Optional[Callable] = None,
) -> Batch:
    """Run one closed batch; ``around`` wraps the engine run (e.g. tracing)."""
    if built is None:
        built, _ = build(w, seed)
    net = built.net
    c0 = time.process_time()
    t0 = time.perf_counter()
    if around is None:
        net.run(until=w.horizon)
    else:
        with around():
            net.run(until=w.horizon)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    flows = _flow_bytes(built)
    delivered = sum(mon / payload for mon, _, _, payload in flows.values())
    return Batch(
        wall_s=wall,
        cpu_s=cpu,
        delivered_pkts=delivered,
        events=net.sim.events_processed,
        digest=sim_digest(built, flows),
        failures=check(built, w, flows),
        counters=counters(built),
    )
