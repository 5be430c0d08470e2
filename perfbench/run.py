"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 15 --trace 0

Run from the root of a repository checkout; the program is imported from
``src/``.  Workloads: ``bulk``, ``contention``, ``hybrid`` (simulated,
perfbench/simload.py) and ``loopback`` (real UDP on 127.0.0.1,
perfbench/loopback.py).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` adds the layer-timing run and prints the per-layer metrics.
Metric definitions and the workload rationale are in perfbench/README.md.

Report lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Scratch files
(``.rtrc`` traces, span dumps) go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("bulk", "contention", "hybrid", "loopback")

#: Timed builds before each simulated batch, besides the batch's own build.
SIM_SETUP_REPS = 15
#: Transfers in the loopback's traced and layer-timed sections.
LIVE_TRACED_TRANSFERS = 60
LIVE_LAYER_TIMED_TRANSFERS = 60

END_TO_END_UNITS = {
    "delivered_pps": "pkt/s",
    "cpu_us_per_pkt": "us/pkt",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "traced_pps": "pkt/s",
    "transfer_s_p50": "s",
}

PER_LAYER_UNITS = {
    "engine.events_per_pkt": "events/pkt",
    "engine.self_us_per_event": "us/event",
    "engine.cancelled_share": "ratio",
    "link.sends_per_pkt": "sends/pkt",
    "link.us_per_send": "us/send",
    "queue.drop_share": "ratio",
    "core.data_us_per_call": "us/call",
    "core.ctrl_us_per_call": "us/call",
    "core.timer_us_per_call": "us/call",
    "core.ctrl_per_data": "ratio",
    "core.retx_share": "ratio",
    "cc.calls_per_pkt": "calls/pkt",
    "cc.us_per_call": "us/call",
    "losslist.ops_per_pkt": "ops/pkt",
    "losslist.us_per_op": "us/op",
    "nakcodec.us_per_call": "us/call",
    "nakcodec.ranges_per_nak": "ranges/nak",
    "tcp.us_per_event": "us/event",
    "tcp.retx_share": "ratio",
    "fluid.time_share": "ratio",
    "fluid.events_per_sim_s": "events/sim_s",
    "fluid.abort_share": "ratio",
    "obs.us_per_record": "us/record",
    "obs.bytes_per_record": "bytes/record",
    "live.udp_io_us_per_pkt": "us/pkt",
    "live.codec_us_per_pkt": "us/pkt",
    "live.core_us_per_pkt": "us/pkt",
    "live.timer_cpu_share": "ratio",
    "live.exp_events": "count",
    "timing.overhead_ratio": "ratio",
}


# -- small helpers ----------------------------------------------------------
def div(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with 10 samples beyond.

    Below 21 samples that percentile is not above the median; the maximum
    is returned instead and the report says so.
    """
    s = sorted(values)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def timing_line(name: str, values: List[float]) -> str:
    value, pct, n = tail(values)
    if n >= 21:
        t = f"p{pct:.1f} {value:.6f} s"
    else:
        t = f"max {value:.6f} s (n < 21: no percentile above the median has 10 samples beyond it)"
    return f"{name}: p50 {statistics.median(values):.6f} s, {t}, n={n}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Attempted/failed operation tally; an operation fails on any check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, label: str, failures: List[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{label}: {m}" for m in failures)


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256(src: Path) -> str:
    """Digest of every source file, so a result names its code without git."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def manifest(workload: str, seed: int, fidelity: str, horizon: Optional[float],
             events: int, delivered: float) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_sha256(ROOT / "src"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "workload": workload,
        "seed": seed,
        "fidelity": fidelity,
        "virtual_horizon_s": horizon,
        "engine_events": events,
        "delivered_pkts": delivered,
    }


class Spans:
    """Per-name call counts and self seconds from a span recorder."""

    def __init__(self, rec: Any):
        self.names = rec.by_name()

    def calls(self, prefix: str) -> int:
        return sum(c for n, (c, _) in self.names.items() if n.startswith(prefix))

    def own(self, prefix: str) -> float:
        return sum(t for n, (_, t) in self.names.items() if n.startswith(prefix))

    def us_per_call(self, prefix: str) -> float:
        return div(self.own(prefix), self.calls(prefix)) * 1e6


def layer_table(sp: Spans, total: float, of: str) -> List[str]:
    """Calls and self time per layer: a span name's first part."""
    lines = ["layer self time (span minus children):"]
    for layer in sorted({name.split(".", 1)[0] for name in sp.names}):
        calls, own = sp.calls(layer + "."), sp.own(layer + ".")
        lines.append(
            f"  {layer:9s} calls {calls:9d}  self {own:9.4f} s  "
            f"{div(own, calls) * 1e6:8.3f} us/call  {div(own, total) * 100:5.1f}% of {of}"
        )
    return lines


def common_layer_metrics(sp: Spans, pkts: float, nak_ranges: int) -> Dict[str, float]:
    """Per-layer metrics the simulated and live paths compute alike."""
    return {
        "core.data_us_per_call": sp.us_per_call("core.data"),
        "core.ctrl_us_per_call": sp.us_per_call("core.ctrl"),
        "core.timer_us_per_call": sp.us_per_call("core.timer"),
        "core.ctrl_per_data": div(sp.calls("core.ctrl"), sp.calls("core.data")),
        "cc.calls_per_pkt": div(sp.calls("cc."), pkts),
        "cc.us_per_call": sp.us_per_call("cc."),
        "losslist.ops_per_pkt": div(sp.calls("losslist."), pkts),
        "losslist.us_per_op": sp.us_per_call("losslist."),
        "nakcodec.us_per_call": sp.us_per_call("nakcodec."),
        "nakcodec.ranges_per_nak": div(nak_ranges, sp.calls("nakcodec.")),
    }


# -- simulated workloads ------------------------------------------------------
def run_sim(name: str, seed: int, seconds: float, trace: bool):
    from repro.experiments.common import traced
    from repro.obs.store import RtrcReader

    import simload
    from layers import SpanRecorder, install

    w = simload.WORKLOADS[name]
    ops = Ops()
    lines: List[str] = []

    simload.build(w, seed)  # warm-up: first-call costs are not set-up time
    setup: List[float] = []
    # Batch 0 runs the run's seed; later batches draw their own seeds from
    # it, so one run averages over several realisations of the workload.
    seeds = random.Random(seed)
    batches = []
    batch_seeds = []
    while not batches or sum(b.wall_s for b in batches) < seconds:
        batch_seeds.append(seed if not batches else seeds.randrange(1 << 30))
        # Set-up samples are spread over the run: the host's speed shifts
        # within seconds, and samples taken in one burst catch one state.
        setup.extend(simload.build(w, batch_seeds[-1])[1] for _ in range(SIM_SETUP_REPS))
        built, s = simload.build(w, batch_seeds[-1])
        setup.append(s)
        gc.collect()
        batches.append(simload.run_batch(w, batch_seeds[-1], built))
    rss = peak_rss_mb()
    ref = batches[0]
    for i, b in enumerate(batches):
        ops.add(f"batch {i} (seed {batch_seeds[i]})", b.failures)
    walls = [b.wall_s for b in batches]
    wall = sum(walls)
    pkts = sum(b.delivered_pkts for b in batches)

    # The same batch with the bus recording the packet-detail tier to .rtrc.
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.rtrc"
    info: Dict[str, int] = {}

    @contextmanager
    def recording():
        with traced(str(path), packets=True, workload=name, seed=seed) as session:
            yield
        info["records"] = session.writer.events_written

    gc.collect()
    tb = simload.run_batch(w, seed, around=recording)
    trace_bytes = path.stat().st_size
    with RtrcReader(path) as reader:
        stored, truncated = reader.events_total, reader.truncated
    path.unlink()
    checks = list(tb.failures)
    if tb.digest != ref.digest:
        checks.append(f"traced sim_digest {tb.digest} != untraced {ref.digest}")
    if stored != info["records"] or truncated:
        checks.append(f".rtrc holds {stored} records of {info['records']} written")
    ops.add("traced batch", checks)

    lines.append(f"sim_digest {ref.digest} (seed {seed}; traced batch "
                 f"{'agrees' if tb.digest == ref.digest else 'DIFFERS'}); batches "
                 + ", ".join(f"{sd}:{b.digest}" for sd, b in zip(batch_seeds, batches)))
    lines.append(timing_line("setup_s", setup))
    lines.append(timing_line("transfer_s (one closed batch)", walls))
    metrics = {
        "delivered_pps": div(pkts, wall),
        "cpu_us_per_pkt": div(sum(b.cpu_s for b in batches), pkts) * 1e6,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "traced_pps": div(tb.delivered_pkts, tb.wall_s),
        "transfer_s_p50": statistics.median(walls),
    }
    if trace:
        rec = SpanRecorder(time.perf_counter)
        undo = install(rec)
        try:
            built, _ = simload.build(w, seed)
            gc.collect()
            wb = simload.run_batch(w, seed, built)
        finally:
            undo()
        checks = list(wb.failures)
        if wb.digest != ref.digest:
            checks.append(f"layer-timed sim_digest {wb.digest} != untraced {ref.digest}")
        ops.add("layer-timed batch", checks)
        span_path = OUT / f"spans-{name}.bin"
        rec.dump(str(span_path))
        base_wall = ref.wall_s
        lines.append(f"layer-timing run: {len(rec)} spans in {span_path.relative_to(ROOT)}, "
                     f"overhead {wb.wall_s / base_wall:.2f}x the untraced batch "
                     f"({wb.wall_s:.3f} s vs {base_wall:.3f} s), sim_digest "
                     f"{'matches' if wb.digest == ref.digest else 'DIFFERS'}")
        sp = Spans(rec)
        lines.extend(layer_table(sp, wb.wall_s, "run wall time"))
        c = ref.counters
        pk = ref.delivered_pkts
        metrics = {
            "engine.events_per_pkt": div(ref.events, pk),
            "engine.self_us_per_event": div(wb.wall_s - rec.root_cover(), ref.events) * 1e6,
            "engine.cancelled_share": div(rec.counts["engine.cancelled"],
                                          rec.counts["engine.scheduled"]),
            "link.sends_per_pkt": div(sp.calls("link."), pk),
            "link.us_per_send": sp.us_per_call("link."),
            "queue.drop_share": div(c["queue_drops"], c["queue_pushes"]),
            "core.retx_share": div(c["udt_retx"], c["udt_data_sent"]),
            "tcp.us_per_event": sp.us_per_call("tcp."),
            "tcp.retx_share": div(c["tcp_retx"], c["tcp_segs_sent"]),
            "fluid.time_share": c["fluid_time"] / w.horizon,
            "fluid.events_per_sim_s": ref.events / w.horizon,
            "fluid.abort_share": div(c["fluid_aborts"], c["fluid_spans"] + c["fluid_aborts"]),
            "obs.us_per_record": div(tb.wall_s - base_wall, info["records"]) * 1e6,
            "obs.bytes_per_record": div(trace_bytes, info["records"]),
            "live.udp_io_us_per_pkt": 0.0,
            "live.codec_us_per_pkt": 0.0,
            "live.core_us_per_pkt": 0.0,
            "live.timer_cpu_share": 0.0,
            "live.exp_events": 0,
            "timing.overhead_ratio": wb.wall_s / base_wall,
            **common_layer_metrics(sp, pk, rec.counts["nakcodec.ranges"]),
        }
    man = manifest(name, seed, w.fidelity, w.horizon, ref.events, ref.delivered_pkts)
    return ops, metrics, man, lines


# -- loopback ------------------------------------------------------------------
def run_loopback(seed: int, seconds: float, trace: bool):
    from repro.obs.bus import default_bus
    from repro.obs.export import make_trace_writer
    from repro.obs.store import RtrcReader

    import loopback as L
    from layers import SpanRecorder, TimedSocket, install

    ops = Ops()
    lines: List[str] = []
    rng = random.Random(seed)
    payloads = [rng.randbytes(L.PAYLOAD_BYTES) for _ in range(L.N_PAYLOADS)]

    L.run_section(payloads, count=1)  # warm-up: first socket and thread start
    gc.collect()
    sec = L.run_section(payloads, seconds=seconds)
    rss = peak_rss_mb()
    for _ in sec.times:
        ops.add("transfer", [])
    for msg in sec.failures:
        ops.add("transfer", [msg])

    # The same loop with the bus recording the packet-detail tier to .rtrc.
    OUT.mkdir(exist_ok=True)
    path = OUT / "loopback.rtrc"
    writer = make_trace_writer(str(path))
    writer.write_meta(packet_detail=True, workload="loopback", seed=seed)
    sink = L.LockedSink(writer.on_event)
    bus = default_bus()
    sub = bus.subscribe(sink, detail=True)
    try:
        tsec = L.run_section(payloads, count=LIVE_TRACED_TRANSFERS)
    finally:
        bus.unsubscribe(sub)
        sink.close(writer.close)
    records = writer.events_written
    trace_bytes = path.stat().st_size
    with RtrcReader(path) as reader:
        stored, truncated = reader.events_total, reader.truncated
    path.unlink()
    checks = list(tsec.failures)
    if stored != records or truncated:
        checks.append(f".rtrc holds {stored} records of {records} written")
    ops.add("traced section", checks)

    # A run whose first transfer failed still prints a parseable result.
    setup = sec.setup or [0.0]
    times = sec.times or [0.0]
    per_transfer = L.packets_per_transfer(L.PAYLOAD_BYTES)
    lines.append(f"loopback: {len(sec.times)} transfers of {L.PAYLOAD_BYTES} bytes, "
                 f"one connection each; {div(sec.packets, sec.wall_s):.1f} pkt/s over "
                 f"all {sec.wall_s:.3f} s of transfer time; EXP timeouts "
                 f"{sec.exp_events}, slowest transfer {max(times):.3f} s")
    lines.append(f"traced: {len(tsec.times)} transfers, {div(tsec.packets, tsec.wall_s):.1f} "
                 f"pkt/s over all transfer time; EXP timeouts {tsec.exp_events}, slowest "
                 f"transfer {max(tsec.times, default=0.0):.3f} s")
    lines.append(timing_line("setup_s", setup))
    lines.append(timing_line("transfer_s", times))
    metrics = {
        "delivered_pps": div(per_transfer, statistics.median(times)),
        "cpu_us_per_pkt": div(sec.cpu_s, sec.packets) * 1e6,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "traced_pps": div(per_transfer, statistics.median(tsec.times or [0.0])),
        "transfer_s_p50": statistics.median(times),
    }
    if trace:
        rec = SpanRecorder(time.thread_time)

        def wrap_sockets(*eps: Any) -> None:
            for ep in eps:
                ep.sock = TimedSocket(ep.sock, rec)

        undo = install(rec, live=True)
        try:
            wsec = L.run_section(payloads, count=LIVE_LAYER_TIMED_TRANSFERS,
                                 prepare=wrap_sockets)
        finally:
            undo()
        ops.add("layer-timed section", wsec.failures)
        probe = L.run_section(
            [rng.randbytes(L.PROBE_BYTES) for _ in range(L.N_PAYLOADS)],
            count=L.PROBE_TRANSFERS,
        )
        ops.add("stall probe", probe.failures)
        lines.append(f"stall probe: {len(probe.times)} transfers of {L.PROBE_BYTES} bytes, "
                     f"EXP timeouts {probe.exp_events}, retransmitted {probe.retransmitted} "
                     f"of {probe.data_sent}; " + timing_line("transfer_s", probe.times or [0.0]))
        span_path = OUT / "spans-loopback.bin"
        rec.dump(str(span_path))
        base = div(sec.wall_s, sec.packets)
        ratio = div(div(wsec.wall_s, wsec.packets), base)
        lines.append(f"layer-timing run: {len(rec)} spans (thread CPU time) in "
                     f"{span_path.relative_to(ROOT)}; transfer time per packet "
                     f"{ratio:.2f}x the untraced loop")
        sp = Spans(rec)
        lines.extend(layer_table(sp, wsec.cpu_s, "process CPU"))
        pk = wsec.packets
        metrics = {
            "engine.events_per_pkt": 0.0,
            "engine.self_us_per_event": 0.0,
            "engine.cancelled_share": 0.0,
            "link.sends_per_pkt": 0.0,
            "link.us_per_send": 0.0,
            "queue.drop_share": 0.0,
            "core.retx_share": div(sec.retransmitted, sec.data_sent),
            "tcp.us_per_event": 0.0,
            "tcp.retx_share": 0.0,
            "fluid.time_share": 0.0,
            "fluid.events_per_sim_s": 0.0,
            "fluid.abort_share": 0.0,
            "obs.us_per_record": div(tsec.wall_s - base * tsec.packets, records) * 1e6,
            "obs.bytes_per_record": div(trace_bytes, records),
            "live.udp_io_us_per_pkt": div(sp.own("udp."), pk) * 1e6,
            "live.codec_us_per_pkt": div(sp.own("codec."), pk) * 1e6,
            "live.core_us_per_pkt": div(sp.own("core."), pk) * 1e6,
            "live.timer_cpu_share": div(sec.timer_cpu_s, sec.cpu_s),
            "live.exp_events": probe.exp_events,
            "timing.overhead_ratio": ratio,
            **common_layer_metrics(sp, pk, rec.counts["nakcodec.ranges"]),
        }
    man = manifest("loopback", seed, "live", None, 0, sec.packets)
    return ops, metrics, man, lines


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "loopback":
        ops, metrics, man, lines = run_loopback(args.seed, args.seconds, bool(args.trace))
    else:
        ops, metrics, man, lines = run_sim(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print("manifest " + json.dumps(man, sort_keys=True))
    for line in lines:
        print(line)
    for msg in ops.messages:
        print("FAILED " + msg)
    print(f"failed_frac {div(ops.failed, ops.attempted):.6f} "
          f"({ops.failed} of {ops.attempted} operations)")
    for key, unit in units.items():
        print(f"{key} = {metrics[key]:.6g} {unit}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
